"""A lock-striped, sharded expression store for concurrent writers.

:class:`ShardedExprStore` partitions the intern table of
:class:`~repro.store.ExprStore` into ``num_shards`` independent shards,
each guarded by its own lock and keyed by alpha-hash: the class with
alpha-hash ``h`` lives in shard ``h % num_shards``.  Because the
paper's alpha-hashes are uniformly mixed (splitmix64 finalisation),
classes spread evenly across shards without any balancing logic.

Layering:

* **Summary memo** (inherited from :class:`ExprStore`) -- hashing stays
  a store-level concern.  The memo is guarded by a single re-entrant
  lock: summarisation is cheap relative to the table work and the memo
  is keyed by object identity, so striping it would buy nothing under
  the GIL.  (A per-thread memo for free-threaded builds is a recorded
  ROADMAP item.)
* **Intern table** -- lock-striped: each shard holds one
  :class:`~repro.store.store.InternTable`, the flat store's columnar
  table, written only by its four steps (hit by id, hit-or-add by hash,
  restore, unlink; see :mod:`repro.store.store`).  This class only
  routes each step to the owning shard's table, takes that shard's
  lock and counts on that shard too; the shard's table mints
  shard-encoded ids.  The collision guard, tree building and memo
  seeding are the flat store's.
  No operation ever holds two shard locks at once (cross-shard refcount
  updates take the locks one at a time), so there is no lock ordering
  to get wrong and no deadlock.

Node ids encode their shard: a class created as the ``k``-th entry of
shard ``s`` gets id ``k * num_shards + s``, so ``id % num_shards``
recovers the owning shard in O(1) and ids never collide across shards.
Ids therefore differ from a plain :class:`ExprStore` interning the same
corpus -- ids were never stable identifiers across store instances, and
the class *hashes* (the real keys) are bit-identical.

Capacity: ``max_entries`` bounds the whole table; each shard enforces
``ceil(max_entries / num_shards)`` with the same refcount-aware LRU
policy as the flat store.  Re-sharding (:meth:`to_flat_store`,
:meth:`from_flat_store`) keeps every class and leaves the bound to the
next intern, as a bulk intern's overshoot is.

Shard merging: :meth:`merge_store` folds another store (flat or
sharded -- e.g. one uploaded by a service client) into this one
by re-interning its canonical entries, returning the id remapping.

Snapshots: :meth:`save` writes the native v2 sharded layout (shard
sections encoded in parallel; node ids, per-shard recency and counters
preserved -- see :mod:`repro.store.snapshot`), and :meth:`load` reads
either that or a flat v1 snapshot, re-sharding the classes in the
latter case.  Flat stores can likewise ingest sharded snapshots
through :func:`~repro.store.snapshot.snapshot_from_bytes` plus
:meth:`ExprStore.merge_store`, so the two layouts interoperate in both
directions.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Iterator, Optional, Sequence

from repro.core.combiners import HashCombiners
from repro.store.store import (
    ExprStore,
    InternTable,
    StoreEntry,
    StoreStats,
    saved_stats,
)
from repro.lang.expr import Expr

__all__ = ["ShardedExprStore", "DEFAULT_NUM_SHARDS"]

DEFAULT_NUM_SHARDS = 8


class _Shard:
    """One lock-striped slice of the intern table.

    ``table`` holds the classes whose hashes this shard owns, in LRU
    order like the flat store's, and mints ids ``local * num_shards +
    index``; ``stats`` counts only this shard's intern-layer events
    (hits / misses / evictions -- the hashing-layer counters live on
    the store, which is where hashing happens).
    """

    __slots__ = ("index", "lock", "table", "stats")

    def __init__(self, index: int, num_shards: int):
        self.index = index
        self.lock = threading.Lock()
        self.table = InternTable(stride=num_shards, offset=index)  # guarded-by: lock
        self.stats = StoreStats()  # guarded-by: lock


class ShardedExprStore(ExprStore):
    """An :class:`ExprStore` whose intern table is lock-striped shards.

    Drop-in for the flat store's public API: hashing, interning,
    entry/expr/hash/size lookups, stats, save/load.  Node *ids* differ
    from a flat store over the same corpus (they encode the shard);
    class hashes are bit-identical.

    Parameters mirror :class:`ExprStore`, plus ``num_shards``.
    ``max_entries`` bounds the whole table (split evenly over shards).
    """

    def __init__(
        self,
        combiners: Optional[HashCombiners] = None,
        num_shards: int = DEFAULT_NUM_SHARDS,
        max_entries: Optional[int] = None,
        memo_limit: Optional[int] = None,
    ):
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        super().__init__(
            combiners, max_entries=max_entries, memo_limit=memo_limit
        )
        self.num_shards = num_shards
        self._shards = [_Shard(i, num_shards) for i in range(num_shards)]
        #: Guards the summary memo and intern walks (re-entrant so the
        #: public wrappers can nest).  Shard locks nest strictly inside.
        self._memo_lock = threading.RLock()
        self._tables = [shard.table for shard in self._shards]
        # The base class's flat table is unused; drop it so any code
        # path that still touches it fails loudly instead of silently
        # splitting the table in two.
        del self._table

    @property
    def _per_shard_max(self) -> Optional[int]:
        """Each shard's bound: the global one ceil-split, so the shard
        bounds sum to >= it (never evicting more aggressively than the
        flat store would)."""
        if self.max_entries is None:
            return None
        return max(1, -(-self.max_entries // self.num_shards))

    # -- shard routing ---------------------------------------------------------

    def _shard_of_id(self, node_id: int) -> _Shard:
        return self._shards[node_id % self.num_shards]

    # -- queries ---------------------------------------------------------------

    def entry(self, node_id: int) -> StoreEntry:
        shard = self._shard_of_id(node_id)
        with shard.lock:
            if not shard.table.touch(node_id):
                raise KeyError(node_id)
            return shard.table.view(self, node_id)

    def entries(self) -> Iterator[StoreEntry]:
        """Views of all live entries: shard 0's LRU order, then shard
        1's, ...

        (A single global recency order does not exist in a sharded
        table; each shard preserves its own.)
        """
        snapshot: list[StoreEntry] = []
        for shard in self._shards:
            with shard.lock:
                table = shard.table
                snapshot.extend(table.view(self, node_id) for node_id in table.order)
        return iter(snapshot)

    def shard_sizes(self) -> list[int]:
        """Live entry count per shard (occupancy balance diagnostics)."""
        return [len(shard.table) for shard in self._shards]

    def _records(self, since: int = -1) -> list[list[tuple]]:
        """The flat store's column read, one list per shard, each taken
        under that shard's lock."""
        records = []
        for shard in self._shards:
            with shard.lock:
                records.append(shard.table.records(since))
        return records

    def _tree(self, node_id: int) -> Expr:
        """The flat store's tree lookup under the memo lock: interns and
        evictions, which change and reuse the rows it reads, hold it too
        (so do the encoders that call :meth:`_build_trees`)."""
        with self._memo_lock:
            return super()._tree(node_id)

    def shard_stats(self) -> list[StoreStats]:
        """Per-shard intern-layer counters (hits / misses / evictions).

        Invariant: each counter summed over shards equals the same
        counter on ``self.stats`` -- every table step increments both,
        the shard's under its lock.
        """
        return [shard.stats for shard in self._shards]

    # -- hashing (same algorithm, memo under the store lock) -------------------

    def hash_expr(self, expr: Expr) -> int:
        with self._memo_lock:
            return super().hash_expr(expr)

    def hashes(self, expr: Expr):
        with self._memo_lock:
            return super().hashes(expr)

    def hash_corpus(self, exprs, engine: str = "auto") -> list[int]:
        with self._memo_lock:
            return super().hash_corpus(exprs, engine=engine)

    def hash_arena(self, arena, roots) -> list[int]:
        with self._memo_lock:
            return super().hash_arena(arena, roots)

    def cached_summary(self, node: Expr):
        """The flat lookup under the memo lock.  The map it hands out is
        the record's frozen one, shared with every other reader and so
        safe to read outside the lock only because nobody mutates it."""
        with self._memo_lock:
            return super().cached_summary(node)

    def cached_top(self, node: Expr) -> Optional[int]:
        with self._memo_lock:
            return super().cached_top(node)

    def clear_memo(self) -> None:
        with self._memo_lock:
            super().clear_memo()

    def prune_memo(self, roots) -> int:
        with self._memo_lock:
            return super().prune_memo(roots)

    # -- interning -------------------------------------------------------------

    def intern_many(self, exprs, engine: str = "auto") -> list[int]:
        """The flat batch under the memo lock: the arena bulk intern's
        hit-or-add steps and root hits see a consistent memo, exactly
        like serial interning (see
        :func:`repro.store.arena_intern.intern_corpus_arena`)."""
        with self._memo_lock:
            return super().intern_many(exprs, engine=engine)

    def intern_arena(self, arena, roots, check=None):
        with self._memo_lock:
            return super().intern_arena(arena, roots, check=check)

    def intern(self, expr: Expr) -> int:
        """Intern ``expr`` (same contract as the flat store).

        The flat walk under the memo lock; each node's table step
        (:meth:`_hit_by_id`, the hit-or-add step) runs under its owning
        shard's lock only.
        """
        with self._memo_lock:
            return super().intern(expr)

    # -- the table steps, routed to shards -------------------------------------

    def _hit_by_id(self, node_id: Optional[int]) -> bool:
        """The table's hit by id in the owning shard, under its lock,
        counted on that shard too."""
        if node_id is None:
            return False
        shard = self._shard_of_id(node_id)
        with shard.lock:
            if not shard.table.touch(node_id):
                return False
            shard.stats.hits += 1
        self.stats.hits += 1
        return True

    def _hit_or_add_step(self) -> Callable[..., int]:
        """The table's hit-or-add step in the shard owning ``top``, under
        its lock and counted on that shard; the store's counters and the
        new class's child references (children live in other shards, one
        lock at a time) follow after the lock is dropped.  A step made a
        class iff it bumped the store-global version stamp, which is
        safe to read: every intern walk runs under the store's
        re-entrant memo lock, so steps are serialised across threads."""
        shards, num_shards, stats = self._shards, self.num_shards, self.stats
        steps = [
            shard.table.hit_or_add_step(self, shard.stats, link=False)
            for shard in shards
        ]
        link = self._adjust_refcounts

        def hit_or_add(top, kind, size, kid_ids, label, leaf=None) -> int:
            shard = shards[top % num_shards]
            version = self.version
            with shard.lock:
                node_id = steps[shard.index](top, kind, size, kid_ids, label, leaf)
            if self.version == version:
                stats.hits += 1
            else:
                stats.misses += 1
                link(kid_ids, 1)
            return node_id

        return hit_or_add

    def _install(self, node_id, *row) -> None:
        """The table's restore write in the shard ``node_id`` encodes,
        under its lock, counting the miss there too."""
        shard = self._shard_of_id(node_id)
        with shard.lock:
            shard.table.insert(node_id, *row)
            shard.stats.misses += 1
        self.stats.misses += 1

    def _restore_counters(
        self,
        stats: dict,
        next_ids: Sequence[int],
        shard_stats: Sequence[dict] = (),
    ) -> None:
        """The flat store's counter adoption, per shard: ``next_ids``
        and ``shard_stats`` hold one saved counter and one saved stats
        dict per shard."""
        self.stats = saved_stats(stats)
        for shard, next_local, saved in zip(self._shards, next_ids, shard_stats):
            with shard.lock:
                shard.table.next_local = max(shard.table.next_local, next_local)
                shard.stats = saved_stats(saved)

    def _adjust_refcounts(self, kid_ids: Iterable[int], delta: int) -> None:
        # Children live in other shards: one lock at a time, never two.
        for kid in kid_ids:
            kid_shard = self._shard_of_id(kid)
            with kid_shard.lock:
                kid_shard.table.link((kid,), delta)

    def _unlink(self, node_id: int) -> None:
        """The table's unlink in the victim's shard, under its lock and
        counted there too; the children are released after the lock is
        dropped."""
        shard = self._shard_of_id(node_id)
        with shard.lock:
            released = shard.table.unlink(node_id)
            shard.stats.evictions += 1
        self.stats.evictions += 1
        self._release(*released)

    # -- eviction --------------------------------------------------------------

    def _evict_if_needed(self, protect: Optional[int] = None) -> None:
        # Evicting in one shard can unpin children living in shards that
        # were already swept (refcounts cross shards), so sweep rounds
        # repeat until a full round evicts nothing.  Each round ends with
        # every shard at its bound or holding only pinned entries (plus
        # possibly the protected fresh root), matching the flat store's
        # soft-bound semantics.
        bound = self._per_shard_max
        if bound is None:
            return
        progressed = True
        while progressed:
            progressed = False
            for shard in self._shards:
                while True:
                    with shard.lock:
                        if len(shard.table) <= bound:
                            break
                        victim = shard.table.lru_victim(protect, self._pinned)
                    if victim is None:
                        # Everything left is the protected fresh root
                        # or referenced by a live parent.
                        break
                    self._unlink(victim)
                    progressed = True

    # -- merging ---------------------------------------------------------------
    #
    # merge_store is inherited from ExprStore: interning the canonical
    # representatives largest-first routes every class through this
    # store's lock-striped shards, which is exactly the override point
    # the base implementation leaves to self.intern().

    # -- persistence -----------------------------------------------------------

    def save(self, path: str, meta: Optional[dict] = None) -> None:
        """Snapshot natively as the v2 sharded layout.

        Shard sections are encoded in parallel and **node ids are
        preserved** across the round-trip (so are per-shard recency and
        counters) -- unlike the PR 3 path, which flattened to the v1
        format and re-assigned ids on load.  See
        :mod:`repro.store.snapshot` for the layout; flat v1 snapshots
        remain loadable via :meth:`load`.
        """
        from repro.store.snapshot import write_snapshot

        write_snapshot(self, path, meta)

    def to_flat_store(self) -> ExprStore:
        """A plain :class:`ExprStore` holding every class of this store.

        Every class is kept even where this store holds more than
        ``max_entries`` (each shard rounds its share up): the bound
        applies from the flat store's next intern.  Hashing/intern
        counters are copied over so accounting survives the flattening
        (the flat re-intern itself is bookkeeping and is not counted).
        """
        with self._memo_lock:
            flat = ExprStore(self.combiners, memo_limit=self.memo_limit)
            flat.merge_store(self)
            flat.max_entries = self.max_entries
            for name in (
                "hits",
                "misses",
                "memo_hits",
                "hashed_nodes",
                "memo_skipped_nodes",
                "evictions",
            ):
                setattr(flat.stats, name, getattr(self.stats, name))
            return flat

    @classmethod
    def from_flat_store(
        cls, flat: ExprStore, num_shards: int
    ) -> "ShardedExprStore":
        """Re-shard an already-built flat store (e.g. a decoded
        snapshot) without touching ``flat``.

        Every class of ``flat`` is kept, whatever the new shards' bound:
        it applies from the next intern.  Accounting starts fresh and
        consistent: every adopted class is one miss of its owning shard,
        nothing else (per-shard counters must always sum to the store
        totals).
        """
        store = cls(flat.combiners, num_shards=num_shards, memo_limit=flat.memo_limit)
        store.merge_store(flat)
        store.max_entries = flat.max_entries
        for shard in store._shards:
            shard.stats.hits = 0
            shard.stats.misses = len(shard.table)
            shard.stats.evictions = 0
        store.stats = StoreStats(misses=len(store))
        return store

    @classmethod
    def load(
        cls, path: str, num_shards: Optional[int] = None
    ) -> "ShardedExprStore":
        """Rebuild from a :meth:`save` snapshot (either layout).

        A v2 sharded snapshot restores directly -- original node ids,
        per-shard recency and counters intact; a flat v1 snapshot (or a
        v2 one loaded with a different ``num_shards``) re-shards the
        classes, re-assigning ids and starting accounting fresh (see
        :meth:`from_flat_store`)."""
        from repro.store.snapshot import read_snapshot

        store, header = read_snapshot(path)
        if isinstance(store, cls):
            if num_shards is None or num_shards == store.num_shards:
                return store
            return cls.from_flat_store(store.to_flat_store(), num_shards)
        meta = header.get("meta") or {}
        saved = (meta.get("sharded") or {}).get("num_shards")
        return cls.from_flat_store(
            store, num_shards or saved or DEFAULT_NUM_SHARDS
        )
