"""Arena-backed fast paths for the expression store (``engine="arena"``).

Two entry points, both invoked from :class:`~repro.store.ExprStore`
when a corpus is large enough for the compile-then-hash trade to win
(:data:`repro.core.arena.ARENA_MIN_NODES`, overridable per call):

* :func:`hash_corpus_arena` -- batch hashing.  Items the store already
  knows (per-object summary memo, or the arena root cache from an
  earlier batch) are answered locally; the rest are compiled into one
  :class:`~repro.core.arena.ExprArena` and hashed by the array kernel.
  Hashes are bit-identical to the tree path; what changes is the cache
  discipline -- the arena path does **not** snapshot a per-object memo
  record for every interior node (that one-dict-copy-per-node cost is
  precisely what it avoids).  Instead each corpus *root* lands in the
  store's arena root cache, so re-hashing the same corpus objects is
  O(1) per item, while ``hash_expr``/``hashes`` on interior subtrees
  falls back to the tree path's memo as before.

* :func:`intern_corpus_arena` -- bulk interning.  The corpus is
  compiled once, hashed once, and then every *unique* arena node is
  resolved against the intern table directly: duplicates never reach
  ``_hash_tree``, and a class interned by an earlier batch costs one
  dict probe.  Canonical entries, hashes, ids and refcounts come out
  exactly as the serial path would produce for the same arrival order;
  the summary memo is left cold (see above), and ``hits``/``misses``
  count unique arena nodes rather than subtree occurrences.  Flat
  stores take a direct-dict hot loop; sharded stores take a
  lock-striped branch (writers are already serialised by the store's
  memo lock, but every table mutation still happens under the owning
  shard's lock so concurrent readers never see a torn table).
  LRU-bounded stores enforce their bound once at the end of the batch
  -- mid-batch eviction could invalidate the arena's child-class
  links -- so the table may transiently exceed ``max_entries``.

Both paths fold their work into ``store.stats`` so delegated hashing
stays visible: ``hashed_nodes`` counts unique arena nodes summarised,
``memo_skipped_nodes`` counts the nodes flatten-dedup avoided.
"""

from __future__ import annotations

import contextlib
from typing import TYPE_CHECKING, Sequence

from repro.core.arena import (
    OP_APP,
    OP_LAM,
    OP_LET,
    OP_LIT,
    OP_VAR,
    arena_hash_any,
    flatten_corpus,
)
from repro.lang.expr import App, Expr, Lam, Let, Lit, Var

if TYPE_CHECKING:  # pragma: no cover
    from repro.store.store import ExprStore

__all__ = ["hash_corpus_arena", "intern_corpus_arena"]

_KIND_OF_OP = ("Var", "Lit", "Lam", "App", "Let")


def hash_corpus_arena(
    store: "ExprStore", corpus: Sequence[Expr], kernel: str = "auto"
) -> list[int]:
    """Root alpha-hashes of ``corpus`` through the arena kernel.

    ``kernel`` picks the vectorized or scalar array kernel (``"auto"``
    prefers vectorized when NumPy is importable).
    """
    # Sharded stores guard their memo behind an RLock; every touch of
    # root_memo / stats / the flush below happens under it (re-entrant,
    # so arriving via the already-locked ShardedExprStore.hash_corpus
    # is fine).  The flatten and kernel run outside the lock.
    lock = getattr(store, "_memo_lock", None)
    if lock is None:
        lock = contextlib.nullcontext()
    root_memo = store._arena_root_memo
    stats = store.stats
    results: list = [None] * len(corpus)
    pending: list[Expr] = []
    pending_at: list[int] = []
    with lock:
        for index, expr in enumerate(corpus):
            top = store.cached_top(expr)
            if top is None:
                cached = root_memo.get(id(expr))
                if cached is not None:
                    top = cached[1]
            if top is None:
                pending.append(expr)
                pending_at.append(index)
            else:
                stats.memo_hits += 1
                stats.memo_skipped_nodes += expr.size
                results[index] = top

    if pending:
        arena, roots = flatten_corpus(pending)
        tops = arena_hash_any(arena, store.combiners, kernel=kernel)
        with lock:
            unique_nodes = len(arena)
            stats.hashed_nodes += unique_nodes
            walked = sum(expr.size for expr in pending)
            if walked > unique_nodes:
                stats.memo_skipped_nodes += walked - unique_nodes
            for expr, root, index in zip(pending, roots, pending_at):
                top = tops[root]
                root_memo[id(expr)] = (expr, top)
                results[index] = top
            if store._arena_intern_ok and store.memo_limit is None:
                # Stash the compile so a following bulk intern of the
                # same corpus reuses it (one-shot; the consumer clears
                # it).  Stores that cannot take the bulk-intern path
                # would pin the corpus for nothing.
                store._arena_compile_cache = (
                    arena,
                    pending,
                    {id(e): r for e, r in zip(pending, roots)},
                    tops,
                )

    with lock:
        store._maybe_flush_memo()
    return results


def intern_corpus_arena(
    store: "ExprStore", corpus: Sequence[Expr], kernel: str = "auto"
) -> list[int]:
    """Intern ``corpus`` via one arena pass (flat or sharded stores)."""
    stats = store.stats
    arena = None
    cached = store._arena_compile_cache
    store._arena_compile_cache = None  # one-shot: consumed or dropped
    if cached is not None:
        c_arena, _pinned, root_by_id, c_tops = cached
        cached_roots = [root_by_id.get(id(expr)) for expr in corpus]
        if all(root is not None for root in cached_roots):
            # The hash pass just compiled this corpus: reuse its arena
            # and per-node tops (counted there -- no stats double-add).
            arena, roots, tops = c_arena, cached_roots, c_tops
    if arena is None:
        arena, roots = flatten_corpus(corpus)
        tops = arena_hash_any(arena, store.combiners, kernel=kernel)
        stats.hashed_nodes += len(arena)
        walked = sum(expr.size for expr in corpus)
        if walked > len(arena):
            stats.memo_skipped_nodes += walked - len(arena)

    op = bytes(arena.op)
    left, right = arena.left.tolist(), arena.right.tolist()
    aux, sizes = arena.aux.tolist(), arena.sizes.tolist()
    names, literals = arena.names, arena.literals

    if getattr(store, "_shards", None) is not None:
        class_id = _resolve_sharded(
            store, op, left, right, aux, sizes, names, literals, tops
        )
    else:
        class_id = _resolve_flat(
            store, op, left, right, aux, sizes, names, literals, tops
        )

    # Bounded stores enforce their LRU bound once per batch: evicting
    # mid-loop could drop a class a later arena row links to as a child.
    # Protect the last root, matching the serial path's final state.
    store._evict_if_needed(protect=class_id[roots[-1]])
    store._maybe_flush_memo()
    return [class_id[root] for root in roots]


def _resolve_flat(
    store: "ExprStore", op, left, right, aux, sizes, names, literals, tops
) -> list[int]:
    """The direct-dict hot loop: one table transaction per unique node."""
    from repro.store.store import StoreCollisionError, StoreEntry

    stats = store.stats
    entries = store._entries
    by_hash = store._by_hash
    class_id = [0] * len(op)

    for i in range(len(op)):
        top = tops[i]
        existing = by_hash.get(top)
        if existing is not None:
            entry = entries[existing]
            kind = _KIND_OF_OP[op[i]]
            if entry.kind != kind or entry.size != sizes[i]:
                raise StoreCollisionError(
                    f"alpha-hash 0x{top:x} maps both a {entry.kind} of "
                    f"size {entry.size} and a {kind} of size {sizes[i]}"
                )
            entries.move_to_end(existing)
            stats.hits += 1
            class_id[i] = existing
            continue

        opc = op[i]
        if opc == OP_VAR:
            canonical: Expr = Var(names[aux[i]])
            kid_ids: tuple[int, ...] = ()
        elif opc == OP_LIT:
            canonical = Lit(literals[aux[i]])
            kid_ids = ()
        elif opc == OP_LAM:
            kid_ids = (class_id[left[i]],)
            canonical = Lam(names[aux[i]], entries[kid_ids[0]].expr)
        elif opc == OP_APP:
            kid_ids = (class_id[left[i]], class_id[right[i]])
            canonical = App(entries[kid_ids[0]].expr, entries[kid_ids[1]].expr)
        else:
            kid_ids = (class_id[left[i]], class_id[right[i]])
            canonical = Let(
                names[aux[i]], entries[kid_ids[0]].expr, entries[kid_ids[1]].expr
            )

        node_id = store._next_id
        store._next_id += 1
        store.version += 1
        entries[node_id] = StoreEntry(
            node_id=node_id,
            hash=top,
            kind=_KIND_OF_OP[opc],
            size=sizes[i],
            children=kid_ids,
            expr=canonical,
            version=store.version,
        )
        for kid in kid_ids:
            entries[kid].refcount += 1
        by_hash[top] = node_id
        stats.misses += 1
        class_id[i] = node_id

    return class_id


def _resolve_sharded(
    store, op, left, right, aux, sizes, names, literals, tops
) -> list[int]:
    """Lock-striped resolve for :class:`~repro.store.ShardedExprStore`.

    The caller (``intern_many``) already holds the store's memo lock,
    so this loop is the only writer; shard locks are still taken for
    every mutation (and only one at a time) so lock-free readers on
    other threads observe the same invariants the serial
    ``_intern_one`` path maintains.  Ids come out of the per-shard
    counters (``local * num_shards + shard``), exactly as serial
    interning would assign them.
    """
    from repro.store.store import StoreCollisionError, StoreEntry

    stats = store.stats
    num_shards = store.num_shards
    get_entry = store._get_entry
    class_id = [0] * len(op)

    for i in range(len(op)):
        top = tops[i]
        shard = store._shard_of_hash(top)
        with shard.lock:
            existing = shard.by_hash.get(top)
            if existing is not None:
                entry = shard.entries[existing]
                kind = _KIND_OF_OP[op[i]]
                if entry.kind != kind or entry.size != sizes[i]:
                    raise StoreCollisionError(
                        f"alpha-hash 0x{top:x} maps both a {entry.kind} of "
                        f"size {entry.size} and a {kind} of size {sizes[i]}"
                    )
                shard.entries.move_to_end(existing)
                shard.stats.hits += 1
                stats.hits += 1
                class_id[i] = existing
                continue

        opc = op[i]
        if opc == OP_VAR:
            canonical: Expr = Var(names[aux[i]])
            kid_ids: tuple[int, ...] = ()
        elif opc == OP_LIT:
            canonical = Lit(literals[aux[i]])
            kid_ids = ()
        elif opc == OP_LAM:
            kid_ids = (class_id[left[i]],)
            canonical = Lam(names[aux[i]], get_entry(kid_ids[0]).expr)
        elif opc == OP_APP:
            kid_ids = (class_id[left[i]], class_id[right[i]])
            canonical = App(get_entry(kid_ids[0]).expr, get_entry(kid_ids[1]).expr)
        else:
            kid_ids = (class_id[left[i]], class_id[right[i]])
            canonical = Let(
                names[aux[i]], get_entry(kid_ids[0]).expr, get_entry(kid_ids[1]).expr
            )

        with shard.lock:
            node_id = shard.next_local * num_shards + shard.index
            shard.next_local += 1
            store.version += 1
            shard.entries[node_id] = StoreEntry(
                node_id=node_id,
                hash=top,
                kind=_KIND_OF_OP[opc],
                size=sizes[i],
                children=kid_ids,
                expr=canonical,
                version=store.version,
            )
            shard.by_hash[top] = node_id
            shard.stats.misses += 1
            stats.misses += 1
        # Child refcounts live in other shards: one lock at a time.
        for kid in kid_ids:
            kid_shard = store._shard_of_id(kid)
            with kid_shard.lock:
                kid_shard.entries[kid].refcount += 1
        class_id[i] = node_id

    return class_id
