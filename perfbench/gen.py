"""Seeded, size-bounded input generators for the benchmark workloads.

Every item is built to an exact node count, so a batch's size is the
sum of the sizes drawn and never compounds.  Binders are unique within
an item (``IncrementalHasher`` requires it for edits), and free
variables come from a small pool no binder uses, so no rewrite can
capture them.  The same ``(seed, stream)`` always yields the same
items, in the same order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Hashable

from repro.lang.expr import App, Expr, Lam, Let, Lit, Var
from repro.lang.traversal import replace_at

FREE_NAMES = ("f", "g", "h", "p", "q")


def make_expr(
    rng: random.Random,
    size: int,
    shape: str,
    prefix: str,
    p_let: float,
    p_lit: float,
) -> Expr:
    """An expression of exactly ``size`` nodes.

    ``shape="balanced"`` gives each child of a binary node at least a
    quarter of the budget; ``"unbalanced"`` gives one side 1-3 nodes,
    so Let bodies nest into deep chains.  Internal nodes are Let with
    probability ``p_let``, Lam with 0.25, App otherwise; leaves are
    literals with probability ``p_lit``, otherwise a variable in scope.
    """
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    counter = [0]
    scope: list[str] = []

    def fresh() -> str:
        counter[0] += 1
        return f"{prefix}{counter[0]}"

    def split(total: int) -> tuple[int, int]:
        if shape == "balanced":
            low = max(1, total // 4)
            first = rng.randint(low, total - low)
        else:
            first = rng.randint(1, min(3, total - 1))
        return first, total - first

    def build(budget: int) -> Expr:
        if budget == 1:
            if rng.random() < p_lit:
                return Lit(rng.randrange(16))
            return Var(rng.choice(scope) if scope else rng.choice(FREE_NAMES))
        draw = rng.random()
        if budget == 2 or p_let <= draw < p_let + 0.25:
            binder = fresh()
            scope.append(binder)
            body = build(budget - 1)
            scope.pop()
            return Lam(binder, body)
        small, large = split(budget - 1)
        if draw < p_let:
            binder = fresh()
            bound = build(small)
            scope.append(binder)
            body = build(large)
            scope.pop()
            return Let(binder, bound, body)
        if rng.random() < 0.5:
            small, large = large, small
        return App(build(small), build(large))

    return build(size)


def rename(expr: Expr, tag: str) -> Expr:
    """A fresh alpha-equivalent copy of ``expr``: every binder gets the
    suffix ``tag``.  Relies on binders being unique within ``expr``."""
    mapping: dict[str, str] = {}

    def copy(node: Expr) -> Expr:
        kind = type(node)
        if kind is Var:
            return Var(mapping.get(node.name, node.name))
        if kind is Lit:
            return Lit(node.value)
        if kind is App:
            return App(copy(node.fn), copy(node.arg))
        new = f"{node.binder}_{tag}"
        if kind is Lam:
            mapping[node.binder] = new
            return Lam(new, copy(node.body))
        bound = copy(node.bound)
        mapping[node.binder] = new
        return Let(new, bound, copy(node.body))

    return copy(expr)


@dataclass(frozen=True)
class Item:
    """One input item.  ``origin`` names the fresh item it was made
    from (itself when ``kind == "fresh"``); ``kind`` is ``"fresh"``,
    ``"same"`` (the very same object again) or ``"renamed"`` (a fresh
    alpha-renamed copy)."""

    expr: Expr
    origin: Hashable
    kind: str


class ItemStream:
    """An endless seeded stream of let-heavy corpus items of 30-90 nodes.

    Half the fresh items are balanced and half unbalanced.  A share
    ``p_same`` of items repeats a recent fresh item as the same object
    and a share ``p_renamed`` as an alpha-renamed copy.
    """

    HISTORY = 2000
    SIZES = (30, 90)
    P_LET = 0.35
    P_LIT = 0.1

    def __init__(self, seed: int, stream: int, p_same: float, p_renamed: float):
        self.rng = random.Random(f"perfbench:{seed}:{stream}")
        self.stream = stream
        self.p_same = p_same
        self.p_renamed = p_renamed
        self.history: list[Item] = []
        self.serial = 0

    def next_item(self) -> Item:
        rng = self.rng
        self.serial += 1
        draw = rng.random()
        if self.history and draw < self.p_same + self.p_renamed:
            original = rng.choice(self.history)
            if draw < self.p_same:
                return Item(original.expr, original.origin, "same")
            tag = f"r{self.stream}_{self.serial}"
            return Item(rename(original.expr, tag), original.origin, "renamed")
        shape = "balanced" if rng.random() < 0.5 else "unbalanced"
        expr = make_expr(rng, rng.randint(*self.SIZES), shape, "x", self.P_LET, self.P_LIT)
        item = Item(expr, (self.stream, self.serial), "fresh")
        if len(self.history) < self.HISTORY:
            self.history.append(item)
        else:
            self.history[self.serial % self.HISTORY] = item
        return item

    def batch(self, count: int) -> list[Item]:
        return [self.next_item() for _ in range(count)]


def edit_corpus(seed: int, items: int, size: int) -> list[Expr]:
    """The edit workload's corpus: deep balanced items of ``size`` nodes."""
    rng = random.Random(f"perfbench:{seed}:edit-corpus")
    return [
        make_expr(rng, size, "balanced", f"i{index}_", 0.1, 0.1)
        for index in range(items)
    ]


class EditTrace:
    """A seeded trace of subtree replacements at spine depth >= 12.

    Keeps a shadow copy of every item, rewritten with
    :func:`~repro.lang.traversal.replace_at`, so the next path is
    always drawn from the tree as it stands after every earlier edit.
    Replacements are fresh 4-16 node items whose binders are unique to
    the edit.
    """

    MIN_DEPTH = 12

    def __init__(self, seed: int, stream: int, corpus: list[Expr]):
        self.rng = random.Random(f"perfbench:{seed}:edits:{stream}")
        self.shadow = list(corpus)
        self.serial = 0

    def _deep_path(self, root: Expr) -> tuple[int, ...]:
        rng = self.rng
        for _attempt in range(1000):
            path: list[int] = []
            node = root
            while True:
                kids = node.children()
                if not kids or (
                    len(path) >= self.MIN_DEPTH and rng.random() < 0.35
                ):
                    break
                # Descend by subtree size, so deep spines are found.
                index = 0
                if len(kids) == 2 and rng.random() * (node.size - 1) >= kids[0].size:
                    index = 1
                path.append(index)
                node = kids[index]
            if len(path) >= self.MIN_DEPTH:
                return tuple(path)
        raise ValueError(f"no path of depth >= {self.MIN_DEPTH} found")

    def next_edit(self) -> tuple[int, tuple[int, ...], Expr]:
        """The next ``(item, path, replacement)``; apply it with :meth:`apply`."""
        rng = self.rng
        self.serial += 1
        item = rng.randrange(len(self.shadow))
        path = self._deep_path(self.shadow[item])
        replacement = make_expr(
            rng, rng.randint(4, 16), "balanced", f"e{self.serial}_", 0.2, 0.1
        )
        return item, path, replacement

    def apply(self, item: int, path: tuple[int, ...], replacement: Expr) -> Expr:
        """Rewrite the shadow copy; returns the item's new tree."""
        self.shadow[item] = replace_at(self.shadow[item], path, replacement)
        return self.shadow[item]
