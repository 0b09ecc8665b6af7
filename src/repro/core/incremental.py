"""Incremental re-hashing after local rewrites (Section 6.3).

Compositionality means the summary of a node depends only on its
children's summaries.  So when a subtree at depth ``h`` is replaced, only
(a) the new subtree and (b) the ``h`` ancestors on the path to the root
need new summaries; everything else is untouched.  The paper bounds the
path-recompute cost by ``O(h^2 + h*f)`` (``f`` = number of never-bound
free variables), and by ``O((log n)^2)`` for balanced trees.

:class:`IncrementalHasher` realises this with the one tree kernel,
:func:`repro.core.kernel.summarise_tree`, over a private memo from node
id to :class:`~repro.core.kernel.MemoRecord`.  A record is a node's
frozen summary, so the kernel resumes above any node that has one:
re-summarising the rebuilt spine of a replace touches exactly the ``h``
new ancestors, and each one's map copy is the "work proportional to the
size of the free variable map" the paper's analysis charges for.
With an :class:`~repro.store.ExprStore` attached, records are adopted
from its summary memo instead of being recomputed, and the new subtree
is hashed once, by the store.

The replace operation reports a :class:`ReplaceStats` with the touched
node and map-operation counts, which the Section 6.3 experiment harness
uses to show incremental updates touch ``O(h^2 + h*f)`` work, not
``O(n)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from repro.core.combiners import HashCombiners, default_combiners
from repro.core.hashed import AlphaHashes
from repro.core.kernel import MemoRecord, summarise_tree
from repro.core.position_tree import pt_here_hash
from repro.core.statshape import StatsDictMixin
from repro.core.structure import svar_hash
from repro.core.varmap import MapOpStats
from repro.lang.expr import Expr
from repro.lang.traversal import replace_at

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
    ``path_map_entries`` map operations (the spine pass's
    :class:`~repro.core.varmap.MapOpStats` total); the new subtree of
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


class _Tally:
    """The counters :func:`summarise_tree`'s memo hook keeps."""

    __slots__ = ("memo_hits", "memo_skipped_nodes", "hashed_nodes")

    def __init__(self) -> None:
        self.memo_hits = self.memo_skipped_nodes = self.hashed_nodes = 0


class IncrementalHasher:
    """Maintains alpha-hashes for every subexpression across rewrites.

    >>> inc = IncrementalHasher(expr)
    >>> inc.root_hash
    >>> stats = inc.replace((0, 1), new_subtree)   # rewrite in place
    >>> inc.root_hash                               # updated

    The memo holds records of the current tree's nodes only, and only
    below recorded nodes: a node gets its record when its parent has
    one, so a replaced subtree's records are found top-down.
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
        #: The current expression (a new tree after each replace).
        self.expr = expr
        self._here = pt_here_hash(self.combiners)
        self._svar = svar_hash(self.combiners)
        self._var_entries: dict[str, int] = {}
        self._lits: dict[tuple, int] = {}
        self._tally = _Tally()
        #: id(node) -> the record of a node of the current tree.
        self._memo: dict[int, MemoRecord] = {}
        #: Whether construction summarised ``expr`` (the O(item) cold
        #: path) because the store memo did not hold its root; ``False``
        #: when it adopted the root's record in one lookup.
        self.built = self._adopt(expr, self._store_memo) is None
        if self.built:
            self._summarise(expr)

    # -- queries --------------------------------------------------------------

    @property
    def root_hash(self) -> int:
        return self._record(self.expr).top

    def hash_at(self, path: Sequence[int]) -> int:
        """Alpha-hash of the subexpression at ``path``."""
        for node in self._path_nodes(path):
            rec = self._record(node)
        return rec.top

    def hashes(self) -> AlphaHashes:
        """An :class:`AlphaHashes` view over the current expression."""
        by_id = {id(node): value for node, value in self.iter_hashes()}
        return AlphaHashes(self.expr, self.combiners, by_id)

    def iter_hashes(self) -> Iterator[tuple[Expr, int]]:
        """Yield (node, hash) for every node of the current expression."""
        stack = [self.expr]
        while stack:
            node = stack.pop()
            yield node, self._record(node).top
            stack.extend(node.children())

    # -- updates ---------------------------------------------------------------

    def replace(self, path: Sequence[int], new_subexpr: Expr) -> ReplaceStats:
        """Replace the subtree at ``path`` with ``new_subexpr`` and
        recompute exactly the affected summaries.

        The caller is responsible for keeping binders unique across the
        whole expression (rewrites in a real compiler maintain this
        invariant anyway; :class:`repro.lang.names.NameSupply` helps).
        """
        spine = self._path_nodes(path)
        old = spine.pop()
        # Taken before hash_expr: should it flush the store memo, this
        # dict still holds the records it made for ``new_subexpr``.
        store_memo = self._store_memo
        for parent, index in zip(spine, path):
            for position, child in enumerate(parent.children()):
                if position != index:
                    self._adopt(child, store_memo)

        store_memo_nodes = 0
        if self.store is not None:
            stats = self.store.stats
            skipped = stats.memo_skipped_nodes
            self.store.hash_expr(new_subexpr)
            store_memo_nodes = stats.memo_skipped_nodes - skipped

        memo = self._memo
        for node in spine:
            memo.pop(id(node), None)
        stack = [old]
        while stack:
            node = stack.pop()
            if memo.pop(id(node), None) is not None:
                stack.extend(node.children())
        stack = [new_subexpr]
        while stack:
            node = stack.pop()
            if self._adopt(node, store_memo) is not None:
                stack.extend(node.children())

        self.expr = replace_at(self.expr, path, new_subexpr)
        ops = MapOpStats()
        self._summarise(self.expr, ops)
        return ReplaceStats(
            path_nodes=len(spine),
            path_map_entries=ops.total,
            subtree_nodes=new_subexpr.size,
            unchanged_nodes=self.expr.size - len(spine) - new_subexpr.size,
            store_memo_nodes=store_memo_nodes,
        )

    # -- the memo ----------------------------------------------------------------

    def _path_nodes(self, path: Sequence[int]) -> list[Expr]:
        """The nodes from the root down to the one at ``path``."""
        nodes = [self.expr]
        for index in path:
            children = nodes[-1].children()
            if not 0 <= index < len(children):
                raise PathError(
                    f"invalid path {tuple(path)} at {nodes[-1].kind}"
                )
            nodes.append(children[index])
        return nodes

    @property
    def _store_memo(self) -> dict[int, MemoRecord]:
        return self.store._memo if self.store is not None else {}

    def _adopt(
        self, node: Expr, store_memo: dict[int, MemoRecord]
    ) -> Optional[MemoRecord]:
        """``node``'s record: the memo's own, else ``store_memo``'s,
        adopted (records are frozen, so both memos share one)."""
        key = id(node)
        rec = self._memo.get(key) or store_memo.get(key)
        if rec is not None:
            self._memo[key] = rec
        return rec

    def _record(self, node: Expr) -> MemoRecord:
        """``node``'s record, adopted, or summarised once if no memo
        holds it (the store memo may have been flushed)."""
        rec = self._adopt(node, self._store_memo)
        if rec is None:
            self._summarise(node)
            rec = self._memo[id(node)]
        return rec

    def _summarise(self, root: Expr, map_stats: Optional[MapOpStats] = None) -> None:
        """Record ``root``'s summary, resuming above every recorded node."""
        summarise_tree(
            root,
            self.combiners,
            here=self._here,
            svar=self._svar,
            var_entry_cache=self._var_entries,
            lit_cache=self._lits,
            memo=self._memo,
            store_stats=self._tally,
            map_stats=map_stats,
        )
