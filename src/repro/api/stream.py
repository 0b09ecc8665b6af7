"""Streaming rewrite sessions: dirty-spine incremental hashing as a service.

The paper's headline workload (rewriting / CSE, Section 6.3) edits one
spine of a tree per step, yet the batch API re-hashes whole corpora per
call.  :class:`StreamSession` is the stateful middle ground an optimizer
or editor hot loop can sit on: open it over a corpus once (O(corpus) --
hashed through the session's request->plan->execute pipeline), then
stream subtree-replacement edits; each edit re-hashes only the dirty
spine plus the new subtree via :class:`~repro.core.IncrementalHasher`
and answers with the updated root hash, a new-sharing report and the
nodes-rehashed count (the perf receipt: O(spine), not O(corpus)).

Warm open: opening is always one tree-engine pass, whatever the
``engine`` hint says, because that pass fills the store's
per-node summary memo (the arena engine keeps only per-root results).
An item's hasher then adopts its root's record from that memo, and
each edit adopts the records of the siblings along its spine, so an
item's first edit costs O(spine) like every later edit.  An item whose
root the memo no longer holds -- flushed by a bounded store's
``memo_limit``, or a store-less session -- falls back to a one-time
O(item) summarise into the hasher's own memo, bit-identical;
``EditReport.built`` and ``report()["built_items"]`` count those cold
builds.  Each replacement is summarised once, by the store's
``hash_expr``; interning it then starts from that record.

Eviction safety: the session **pins** its classes in the shared store
(:meth:`~repro.store.ExprStore.pin`), so an LRU-bounded store serving
other traffic cannot evict a session's corpus roots or edit classes
mid-stream.  Pinning is guarded: on a bounded store a class can be
evicted between interning and pinning (bulk interning enforces the LRU
bound at batch end), in which case the session falls back to
recompute-and-repin instead of raising -- ``repins`` in the report
counts those recoveries.

The wire protocol (``/v1/session/{open,edit,report,close}``) in
:mod:`repro.service` is a thin JSON shim over this class; see
:meth:`repro.api.RemoteSession.open_stream` for the client side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from repro.api.request import HashRequest, InternRequest
from repro.core.incremental import IncrementalHasher, PathError
from repro.core.statshape import StatsDictMixin
from repro.lang.expr import Expr

if TYPE_CHECKING:  # pragma: no cover
    from repro.api.plan import ExecutionPlan
    from repro.api.session import Session

__all__ = [
    "StreamSession",
    "StreamError",
    "StoreThrashError",
    "EditReport",
    "PathError",
]


class StreamError(RuntimeError):
    """A streaming session was used after :meth:`StreamSession.close`."""


class StoreThrashError(RuntimeError):
    """Pinning lost the race with eviction too many times in a row."""


@dataclass(repr=False)
class EditReport(StatsDictMixin):
    """The receipt for one streamed edit.

    ``nodes_rehashed`` is the perf claim: spine ancestors plus the new
    subtree, minus nodes served from the store memo -- never the corpus.
    ``shared`` says whether the new subtree's alpha-equivalence class
    already existed in the store before this edit (the new-sharing
    report); ``new_classes`` counts classes this edit created.
    ``built`` flags a first edit that paid the O(item) cold
    summarise because the store memo did not hold the item's root
    (a warm open makes first edits O(spine); see module docs);
    ``repinned`` flags an evicted-then-recovered pin.
    """

    item: int
    path: tuple[int, ...]
    root_hash: int
    edit_hash: int
    nodes_rehashed: int
    spine_depth: int
    path_map_entries: int
    subtree_nodes: int
    unchanged_nodes: int
    store_memo_nodes: int
    shared: bool = False
    new_classes: int = 0
    class_id: Optional[int] = None
    built: bool = False
    repinned: bool = False

    _stats_properties = ()


class StreamSession:
    """A stateful edit stream over one corpus and one (shared) store.

    >>> stream = session.open_stream(corpus)
    >>> report = stream.edit(0, (0, 1), new_subtree)
    >>> report.root_hash, report.nodes_rehashed
    >>> stream.close()                      # unpins everything

    Parameters
    ----------
    corpus:
        The expressions this session edits (item indices address it).
    session:
        The owning :class:`~repro.api.Session`; its store, planner and
        engine defaults are used.  A store-less session still streams
        (pure incremental hashing, no pinning or sharing reports).
    intern_classes:
        Whether to intern + pin corpus roots and edit subtrees in the
        session's store.  Defaults to ``True`` when a store is present.
        Shard-identity service nodes (which refuse foreign classes)
        open their sessions with ``False``: hashing needs no ownership,
        and sharing reports degrade to lookup + session-local history.
    hints:
        Optional request hints applied to the opening hash and intern
        requests, like the keyword hints of
        :class:`~repro.api.request.HashRequest`, except that ``engine``
        is overridden: open is always one tree pass (see module docs).
        A ``bits`` / ``seed`` pin that
        disagrees with the session still raises
        :class:`~repro.api.plan.PlanError`.

    The caller keeps binders unique across each item (the same contract
    as :class:`~repro.core.IncrementalHasher.replace`; real rewrite
    loops maintain it anyway, :class:`repro.lang.names.NameSupply`
    helps).
    """

    def __init__(
        self,
        corpus: Iterable[Expr],
        session: Optional["Session"] = None,
        intern_classes: Optional[bool] = None,
        hints: Optional[dict] = None,
    ):
        if session is None:
            from repro.api.session import Session

            session = Session()
        self.session = session
        self.store = session.store
        self._corpus: list[Expr] = list(corpus)
        for item in self._corpus:
            if not isinstance(item, Expr):
                raise TypeError(
                    f"corpus items must be expressions, got {type(item).__name__}"
                )
        if intern_classes is None:
            intern_classes = self.store is not None
        if intern_classes and self.store is None:
            raise ValueError("intern_classes=True needs a store-backed session")
        self.intern_classes = intern_classes
        self.closed = False

        #: item index -> incremental hasher, created on the item's
        #: first edit from its root's record in the store memo (O(1)),
        #: or by the O(item) cold build when the memo does not hold it.
        self._hashers: dict[int, IncrementalHasher] = {}
        #: node ids this session has pinned (unpinned on close).
        self._pinned: list[int] = []
        #: alpha-hashes produced by this session's edits (sharing
        #: reports in intern-free mode consult this as well as the store).
        self._seen_hashes: set[int] = set()

        # Totals for report()/metrics.
        self.edits = 0
        self.nodes_rehashed = 0
        self.spine_nodes = 0
        self.repins = 0
        self.built_items = 0

        # Open: one tree pass through the plan pipeline (the plan is
        # kept for inspection) fills the store's summary memo for the
        # first edits to start from.  Then intern + pin the roots so the
        # shared store cannot evict them mid-stream.
        self.plan: Optional["ExecutionPlan"] = None
        hints = {**(hints or {}), "engine": "tree"}
        if self._corpus:
            request = HashRequest(self._corpus, **hints)
            self.plan = session.plan(request)
            self.root_hashes: list[int] = session.execute(request, plan=self.plan)
        else:
            self.root_hashes = []
        self.corpus_nodes = sum(item.size for item in self._corpus)
        self.root_ids: list[Optional[int]] = [None] * len(self._corpus)
        if self.intern_classes and self._corpus:
            ids = session.execute(InternRequest(self._corpus, **hints))
            for index, (item, node_id) in enumerate(zip(self._corpus, ids)):
                self.root_ids[index] = self._pin_class(item, node_id)
        self._seen_hashes.update(self.root_hashes)

    # -- pinning ---------------------------------------------------------------

    def _pin_class(self, expr: Expr, node_id: int) -> int:
        """Pin ``node_id``; if the class was already evicted, recompute
        (re-intern ``expr``) and pin the fresh id instead of raising.

        On a bounded store, bulk interning enforces the LRU bound at
        batch end -- so a root interned early in the batch may be gone
        by pin time.  Re-interning protects the fresh root until we pin
        it, so the loop terminates (in practice in one round; the bound
        guards pathological churn).
        """
        assert self.store is not None
        for _ in range(8):
            try:
                self.store.pin(node_id)
            except KeyError:
                self.repins += 1
                node_id = self.store.intern(expr)
                continue
            self._pinned.append(node_id)
            return node_id
        raise StoreThrashError(
            f"could not pin class {node_id} (store under extreme churn)"
        )

    # -- queries ---------------------------------------------------------------

    @property
    def items(self) -> int:
        return len(self._corpus)

    def expr(self, item: int) -> Expr:
        """The current (post-edit) tree of ``item``."""
        hasher = self._hashers.get(item)
        return hasher.expr if hasher is not None else self._corpus[item]

    def _hasher(self, item: int) -> tuple[IncrementalHasher, bool]:
        """``item``'s hasher, and whether getting it took a cold build."""
        hasher = self._hashers.get(item)
        if hasher is not None:
            return hasher, False
        hasher = IncrementalHasher(
            self._corpus[item],
            combiners=self.session.combiners,
            store=self.store,
        )
        self._hashers[item] = hasher
        if hasher.built:
            self.built_items += 1
        return hasher, hasher.built

    # -- edits -----------------------------------------------------------------

    def edit(
        self, item: int, path: Sequence[int], new_subexpr: Expr
    ) -> EditReport:
        """Replace the subtree of ``item`` at ``path`` with ``new_subexpr``.

        Raises :class:`PathError` on a path that addresses no node,
        ``IndexError`` on an out-of-range item, :class:`StreamError`
        after :meth:`close`.
        """
        if self.closed:
            raise StreamError("session is closed")
        if not 0 <= item < len(self._corpus):
            raise IndexError(
                f"item {item} out of range (corpus has {len(self._corpus)})"
            )
        if not isinstance(new_subexpr, Expr):
            raise TypeError(
                f"replacement must be an expression, got {type(new_subexpr).__name__}"
            )
        path = tuple(int(step) for step in path)
        hasher, built = self._hasher(item)
        stats = hasher.replace(path, new_subexpr)
        edit_hash = hasher.hash_at(path)
        root_hash = hasher.root_hash
        self.root_hashes[item] = root_hash

        shared = edit_hash in self._seen_hashes
        new_classes = 0
        class_id: Optional[int] = None
        repinned = False
        if self.store is not None:
            shared = shared or self.store.lookup_hash(edit_hash) is not None
            if self.intern_classes:
                repins_before = self.repins
                misses_before = self.store.stats.misses
                class_id = self._pin_class(
                    new_subexpr, self.store.intern(new_subexpr)
                )
                new_classes = self.store.stats.misses - misses_before
                repinned = self.repins > repins_before
        self._seen_hashes.add(edit_hash)
        self._seen_hashes.add(root_hash)

        self.edits += 1
        self.nodes_rehashed += stats.touched_nodes
        self.spine_nodes += stats.path_nodes
        return EditReport(
            item=item,
            path=path,
            root_hash=root_hash,
            edit_hash=edit_hash,
            nodes_rehashed=stats.touched_nodes,
            spine_depth=stats.spine_depth,
            path_map_entries=stats.path_map_entries,
            subtree_nodes=stats.subtree_nodes,
            unchanged_nodes=stats.unchanged_nodes,
            store_memo_nodes=stats.store_memo_nodes,
            shared=shared,
            new_classes=new_classes,
            class_id=class_id,
            built=built,
            repinned=repinned,
        )

    # -- reporting -------------------------------------------------------------

    @property
    def rehash_ratio(self) -> float:
        """Mean rehashed-nodes-per-edit over corpus size: the O(spine)
        vs O(corpus) receipt (tiny when incremental is winning)."""
        if not self.edits or not self.corpus_nodes:
            return 0.0
        return (self.nodes_rehashed / self.edits) / self.corpus_nodes

    def report(self) -> dict:
        """Session totals: the wire shape of ``/v1/session/report``."""
        return {
            "items": self.items,
            "corpus_nodes": self.corpus_nodes,
            "edits": self.edits,
            "nodes_rehashed": self.nodes_rehashed,
            "spine_nodes": self.spine_nodes,
            "mean_spine_depth": (
                self.spine_nodes / self.edits if self.edits else 0.0
            ),
            "rehash_ratio": self.rehash_ratio,
            "pinned": len(self._pinned),
            "repins": self.repins,
            "built_items": self.built_items,
            "root_hashes": list(self.root_hashes),
            "plan": self.plan.as_dict() if self.plan is not None else None,
        }

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Unpin every class this session pinned (idempotent)."""
        if self.closed:
            return
        self.closed = True
        if self.store is not None:
            for node_id in self._pinned:
                self.store.unpin(node_id)
        self._pinned.clear()
        self._hashers.clear()

    def __enter__(self) -> "StreamSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover
        state = "closed" if self.closed else "open"
        return (
            f"StreamSession({self.items} items, {self.edits} edits, "
            f"{len(self._pinned)} pinned, {state})"
        )
