"""Incremental re-hashing after local rewrites (Section 6.3).

Compositionality means the summary of a node depends only on its
children's summaries.  So when a subtree at depth ``h`` is replaced, only
(a) the new subtree and (b) the ``h`` ancestors on the path to the root
need new summaries; everything else is untouched.  The paper bounds the
path-recompute cost by ``O(h^2 + h*f)`` (``f`` = number of never-bound
free variables), and by ``O((log n)^2)`` for balanced trees.

:class:`IncrementalHasher` realises this.  Unlike the batch summariser
(which consumes child variable maps destructively), it keeps a *snapshot*
of every node's variable map so ancestors can be re-merged later; the
copy made at each ancestor is exactly the "work proportional to the size
of the free variable map" the paper's analysis charges for.

The replace operation reports a :class:`ReplaceStats` with the touched
node and map-entry counts, which the Section 6.3 experiment harness uses
to show incremental updates touch ``O(h^2 + h*f)`` work, not ``O(n)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from repro.core.combiners import HashCombiners, default_combiners
from repro.core.hashed import AlphaHashes
from repro.core.position_tree import pt_here_hash
from repro.core.statshape import StatsDictMixin
from repro.core.structure import (
    sapp_hash,
    slam_hash,
    slet_hash,
    slit_hash,
    svar_hash,
    top_hash,
)
from repro.core.varmap import HashedVarMap, merge_tagged
from repro.lang.expr import App, Expr, Lam, Let, Lit, Var
from repro.lang.traversal import preorder, replace_at

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (store uses core)
    from repro.store import ExprStore

__all__ = ["IncrementalHasher", "PathError", "ReplaceStats"]


class PathError(IndexError):
    """A position path does not address a node of the current expression.

    Subclasses ``IndexError`` (what navigation historically raised) so
    existing callers keep working; service layers map it to a client
    error (HTTP 400) instead of a server fault.
    """


@dataclass(repr=False)
class ReplaceStats(StatsDictMixin):
    """Work accounting for one ``replace`` call.

    ``path_nodes`` ancestors were re-summarised, costing
    ``path_map_entries`` map-entry copies/merges; the new subtree of
    ``subtree_nodes`` nodes was summarised from scratch -- except for
    ``store_memo_nodes`` of them, served from the attached
    :class:`~repro.store.ExprStore` summary memo.  The rest of the
    expression -- ``unchanged_nodes`` of it -- was not touched at all.

    Shares the :meth:`as_dict` / ``repr`` shape of
    :class:`repro.store.StoreStats` (both report ``touched_nodes``).
    """

    path_nodes: int
    path_map_entries: int
    subtree_nodes: int
    unchanged_nodes: int
    store_memo_nodes: int = 0

    _stats_properties = ("touched_nodes", "spine_depth")

    @property
    def touched_nodes(self) -> int:
        return self.path_nodes + self.subtree_nodes - self.store_memo_nodes

    @property
    def spine_depth(self) -> int:
        """Depth of the replaced position (the dirty spine's length)."""
        return self.path_nodes


class _Ann:
    """Annotation-tree node mirroring one expression node.

    ``children is None`` marks a *collapsed* annotation: the node's
    summary came from an :class:`~repro.store.ExprStore` cache, so its
    descendants were never annotated.  Navigation into a collapsed
    subtree expands it lazily (one level at a time), which keeps the
    cache win for the common case of replacements that are consulted
    only at the root.
    """

    __slots__ = ("expr", "s_hash", "varmap", "top", "children")

    def __init__(
        self,
        expr: Expr,
        s_hash: int,
        varmap: HashedVarMap,
        top: int,
        children: Optional[tuple["_Ann", ...]],
    ):
        self.expr = expr
        self.s_hash = s_hash
        self.varmap = varmap
        self.top = top
        self.children = children


class IncrementalHasher:
    """Maintains alpha-hashes for every subexpression across rewrites.

    >>> inc = IncrementalHasher(expr)
    >>> inc.root_hash
    >>> stats = inc.replace((0, 1), new_subtree)   # rewrite in place
    >>> inc.root_hash                               # updated
    """

    def __init__(
        self,
        expr: Expr,
        combiners: Optional[HashCombiners] = None,
        store: Optional["ExprStore"] = None,
    ):
        if store is not None:
            combiners = store.resolve_combiners(combiners)
        self.combiners = combiners if combiners is not None else default_combiners()
        self.store = store
        self._here = pt_here_hash(self.combiners)
        self._svar = svar_hash(self.combiners)
        warm = self._collapsed(expr)
        #: Whether construction re-summarised ``expr`` (the O(item) cold
        #: path) because the store memo did not cover it; ``False`` when
        #: it started from the memo's collapsed root in one lookup.
        self.built = warm is None
        self._root = warm or self._build(expr)

    # -- queries --------------------------------------------------------------

    @property
    def expr(self) -> Expr:
        """The current expression (a new tree after each replace)."""
        return self._root.expr

    @property
    def root_hash(self) -> int:
        return self._root.top

    def hash_at(self, path: Sequence[int]) -> int:
        """Alpha-hash of the subexpression at ``path``."""
        ann = self._root
        for index in path:
            self._expand(ann)
            if not 0 <= index < len(ann.children):
                raise PathError(
                    f"invalid path {tuple(path)} at {ann.expr.kind}"
                )
            ann = ann.children[index]
        return ann.top

    def hashes(self) -> AlphaHashes:
        """An :class:`AlphaHashes` view over the current expression."""
        by_id = {id(node): value for node, value in self.iter_hashes()}
        return AlphaHashes(self.expr, self.combiners, by_id)

    def iter_hashes(self) -> Iterator[tuple[Expr, int]]:
        """Yield (node, hash) for every node of the current expression."""
        stack = [self._root]
        while stack:
            ann = stack.pop()
            if ann.children is None:
                collapsed = self._collapsed_items(ann)
                if collapsed is not None:
                    yield from collapsed
                    continue
                self._expand(ann)
            yield ann.expr, ann.top
            stack.extend(ann.children)

    def _collapsed_items(
        self, ann: _Ann
    ) -> Optional[list[tuple[Expr, int]]]:
        """Per-node hashes of a collapsed subtree, straight from the store
        memo -- or ``None`` if the memo no longer covers it (flushed)."""
        assert self.store is not None
        items: list[tuple[Expr, int]] = []
        for node in preorder(ann.expr):
            top = self.store.cached_top(node)
            if top is None:
                return None
            items.append((node, top))
        return items

    def _expand(self, ann: _Ann) -> None:
        """Materialise the children annotations of a collapsed node:
        one memo lookup per child, re-summarising only a child the memo
        no longer covers (flushed since ``ann`` was read)."""
        if ann.children is not None:
            return
        ann.children = tuple(
            self._collapsed(child) or self._build(child)
            for child in ann.expr.children()
        )

    # -- updates ---------------------------------------------------------------

    def replace(self, path: Sequence[int], new_subexpr: Expr) -> ReplaceStats:
        """Replace the subtree at ``path`` with ``new_subexpr`` and
        recompute exactly the affected summaries.

        The caller is responsible for keeping binders unique across the
        whole expression (rewrites in a real compiler maintain this
        invariant anyway; :class:`repro.lang.names.NameSupply` helps).
        """
        spine: list[_Ann] = []
        ann = self._root
        for index in path:
            spine.append(ann)
            self._expand(ann)
            if not 0 <= index < len(ann.children):
                raise PathError(f"invalid path {tuple(path)} at {ann.expr.kind}")
            ann = ann.children[index]

        skip_counter = [0]
        new_ann = self._build(new_subexpr, skip_counter)

        merge_counter = [0]
        current = new_ann
        for index, parent in zip(reversed(path), reversed(spine)):
            children = list(parent.children)
            children[index] = current
            new_expr = _rebuild_parent(parent.expr, index, current.expr)
            current = self._combine(new_expr, tuple(children), merge_counter)
        self._root = current

        total = self._root.expr.size
        return ReplaceStats(
            path_nodes=len(spine),
            path_map_entries=merge_counter[0],
            subtree_nodes=new_subexpr.size,
            unchanged_nodes=total - len(spine) - new_subexpr.size,
            store_memo_nodes=skip_counter[0],
        )

    # -- construction -----------------------------------------------------------

    def _build(
        self, expr: Expr, skip_counter: Optional[list[int]] = None
    ) -> _Ann:
        """Summarise ``expr`` bottom-up with snapshot (non-destructive)
        variable maps, producing an annotation tree.

        When a store is attached, subtrees whose summaries the store has
        already computed are taken from its cache as collapsed
        annotations instead of being re-summarised; ``skip_counter[0]``
        accumulates the node count so saved."""
        results: list[_Ann] = []
        stack: list[tuple[Expr, bool]] = [(expr, False)]
        while stack:
            node, visited = stack.pop()
            if not visited:
                collapsed = self._collapsed(node)
                if collapsed is not None:
                    results.append(collapsed)
                    if skip_counter is not None:
                        skip_counter[0] += node.size
                    continue
                stack.append((node, True))
                for child in reversed(node.children()):
                    stack.append((child, False))
                continue
            arity = len(node.children())
            if arity == 0:
                children: tuple[_Ann, ...] = ()
            else:
                children = tuple(results[len(results) - arity :])
                del results[len(results) - arity :]
            results.append(self._combine(node, children, None))
        assert len(results) == 1
        return results[0]

    def _collapsed(self, node: Expr) -> Optional[_Ann]:
        """A collapsed annotation for ``node`` read straight from the
        store memo, or ``None`` if the memo does not cover it.

        The annotation shares the memo record's frozen map:
        :meth:`_combine` snapshots a child's map before changing it.
        """
        if self.store is None:
            return None
        cached = self.store.cached_summary(node)
        if cached is None:
            return None
        s_hash, varmap, top = cached
        return _Ann(node, s_hash, varmap, top, None)

    def _combine(
        self,
        node: Expr,
        children: tuple[_Ann, ...],
        merge_counter: Optional[list[int]],
    ) -> _Ann:
        """Summarise one node from its children's (retained) summaries.

        Mirrors the recipes in :mod:`repro.core.hashed` but never mutates
        a child's map: the bigger child's map is snapshotted before the
        merge.  That snapshot is the O(map size) cost the Section 6.3
        analysis accounts for.
        """
        combiners = self.combiners
        if isinstance(node, Var):
            s_hash = self._svar
            varmap = HashedVarMap.singleton(combiners, node.name, self._here)
        elif isinstance(node, Lit):
            s_hash = slit_hash(combiners, node.value)
            varmap = HashedVarMap.empty()
        elif isinstance(node, Lam):
            (body,) = children
            varmap = body.varmap.snapshot()
            pos = varmap.remove(combiners, node.binder)
            s_hash = slam_hash(combiners, node.size, pos, body.s_hash)
            if merge_counter is not None:
                merge_counter[0] += len(varmap) + 1
        elif isinstance(node, App):
            fn, arg = children
            left_bigger = len(fn.varmap) >= len(arg.varmap)
            s_hash = sapp_hash(combiners, node.size, left_bigger, fn.s_hash, arg.s_hash)
            big, small = (fn, arg) if left_bigger else (arg, fn)
            varmap = self._merge(big.varmap, small.varmap, node.size)
            if merge_counter is not None:
                merge_counter[0] += len(big.varmap) + len(small.varmap)
        elif isinstance(node, Let):
            bound, body = children
            body_vm = body.varmap.snapshot()
            pos_x = body_vm.remove(combiners, node.binder)
            left_bigger = len(bound.varmap) >= len(body_vm)
            s_hash = slet_hash(
                combiners, node.size, pos_x, left_bigger, bound.s_hash, body.s_hash
            )
            if left_bigger:
                varmap = self._merge(bound.varmap, body_vm, node.size, big_owned=False)
            else:
                varmap = self._merge_into(body_vm, bound.varmap, node.size)
            if merge_counter is not None:
                merge_counter[0] += len(bound.varmap) + len(body_vm)
        else:  # pragma: no cover
            raise TypeError(f"unknown node kind {node.kind}")

        top = top_hash(combiners, s_hash, varmap.hash)
        return _Ann(node, s_hash, varmap, top, children)

    def _merge(
        self,
        big: HashedVarMap,
        small: HashedVarMap,
        tag: int,
        big_owned: bool = False,
    ) -> HashedVarMap:
        """Non-destructive tagged merge: copy ``big`` (unless owned), fold
        ``small`` in."""
        target = big if big_owned else big.snapshot()
        return merge_tagged(self.combiners, target, small, tag)

    def _merge_into(
        self, target: HashedVarMap, small: HashedVarMap, tag: int
    ) -> HashedVarMap:
        return merge_tagged(self.combiners, target, small, tag)


def _rebuild_parent(parent: Expr, index: int, new_child: Expr) -> Expr:
    """A copy of ``parent`` with child ``index`` swapped for ``new_child``."""
    return replace_at(parent, (index,), new_child)
