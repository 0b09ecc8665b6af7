"""Arena-backed fast paths for the expression store (the default engine).

Every path here is a *compile* step followed by one *arena step* that
takes ``(arena, roots)``: an :class:`~repro.core.arena.ExprArena` and
one root index per corpus item.  The compile is either
:meth:`~repro.core.arena.ExprArena.flatten` over ``Expr`` trees (the
``*_corpus_arena`` entry points, invoked from
:class:`~repro.store.ExprStore` for every batch not pinned to
``engine="tree"``) or
:meth:`~repro.core.arena.ExprArena.extend_wire` straight from wire
documents (the service's ``/v1/hash`` and ``/v1/intern``, through
:meth:`~repro.store.ExprStore.hash_arena` /
:meth:`~repro.store.ExprStore.intern_arena`), which
builds no tree at all.  The kernel is always called as this module's
``arena_hash_any``.

* :func:`hash_corpus_arena` -- batch hashing of trees.  Items the store
  already knows (per-object summary memo, or the arena root cache from
  an earlier batch) are answered locally; the rest are compiled into one
  arena and hashed by the arena kernel.  Hashes are bit-identical to the
  tree path; what changes is the cache discipline -- the arena path does
  **not** snapshot a per-object memo record for every interior node
  (that one-dict-copy-per-node cost is precisely what it avoids).
  Instead each corpus *root* lands in the store's arena root cache, so
  re-hashing the same corpus objects is O(1) per item, while
  ``hash_expr``/``hashes`` on interior subtrees falls back to the tree
  path's memo as before.  The compile and its per-node tops stay in the
  store's one-shot compile cache for the bulk intern that follows.
  :func:`hash_arena` is the arena step alone: with no objects to key
  them by, it touches neither the root cache nor the compile cache.

* :func:`intern_corpus_arena` / :func:`intern_arena` -- bulk interning.
  An item already interned as the same object is a *root hit*: the
  root cache records the class id each arena intern assigns, and a
  live one is answered by the store's one hit-by-id routine, as in
  :meth:`~repro.store.ExprStore.intern` (one LRU touch, one ``hits``,
  no descent).  The other items reuse the hash pass's arena and tops
  when they are exactly the items it compiled, even when some items
  repeat earlier batches; otherwise only they are compiled and hashed.
  Then every *unique* arena node is resolved against the intern table
  directly: duplicates never reach ``_hash_tree``, and a class interned
  by an earlier batch costs one dict probe.  Canonical entries, hashes,
  ids and refcounts come out exactly as the serial path would produce
  for the same arrival order; the summary memo is left cold (see
  above), no class gets a canonical tree (the store builds one on
  demand), and ``hits``/``misses`` count one per root hit and one per
  unique arena node of the rest, not per subtree occurrence.  The
  arena step returns each root's hash (read from the kernel's per-node
  tops) next to its id, and runs an optional ``check`` on those hashes
  before anything is interned -- a cluster shard refuses foreign keys
  there.  The resolve step writes nothing itself: where the compile
  library loaded (compile tier ``native``) it is one call of the store's
  resolve step, which runs every row in C
  (:meth:`~repro.store.store.InternTable.resolve_arena`); elsewhere
  :func:`_resolve_loop` sends every row through the store's one
  hit-or-add step, bound once per batch (see :mod:`repro.store.store`).
  The loop is the C step's oracle: both leave the same table.  On a
  collision both stop at the failing row with every earlier row
  written, and :func:`~repro.store.store.check_same_class` raises.
  LRU-bounded stores enforce their bound once at the end of the batch
  -- mid-batch eviction could invalidate the arena's child-class
  links -- so the table may transiently exceed ``max_entries``.

Both paths fold their work into ``store.stats`` so delegated hashing
stays visible: ``hashed_nodes`` counts unique arena nodes summarised,
``memo_skipped_nodes`` counts the nodes compile-time dedup avoided.
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.core import native
from repro.core.arena import (
    OP_APP,
    OP_LAM,
    OP_LIT,
    ExprArena,
    arena_hash_any,
    flatten_corpus,
)
from repro.lang.expr import Expr

if TYPE_CHECKING:  # pragma: no cover
    from repro.store.store import ExprStore

__all__ = [
    "hash_arena",
    "hash_corpus_arena",
    "intern_arena",
    "intern_corpus_arena",
]

def _hash_step(
    store: "ExprStore", arena: ExprArena, roots: Sequence[int]
) -> list[int]:
    """Run the kernel over ``arena``; every node's top hash.

    Counts the arena's unique nodes as hashed and the items' remaining
    tree nodes as skipped by dedup."""
    sizes = arena.sizes
    walked = sum(sizes[root] for root in roots)
    tops = arena_hash_any(arena, store.combiners)
    stats = store.stats
    unique_nodes = len(arena)
    stats.hashed_nodes += unique_nodes
    if walked > unique_nodes:
        stats.memo_skipped_nodes += walked - unique_nodes
    return tops


def hash_corpus_arena(store: "ExprStore", corpus: Sequence[Expr]) -> list[int]:
    """Root alpha-hashes of ``corpus`` through the arena kernel."""
    root_memo = store._arena_root_memo
    stats = store.stats
    results: list = [None] * len(corpus)
    pending: list[Expr] = []
    pending_at: list[int] = []
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
        tops = _hash_step(store, arena, roots)
        for expr, root, index in zip(pending, roots, pending_at):
            top = tops[root]
            root_memo[id(expr)] = (expr, top, None)
            results[index] = top
        if store.memo_limit is None:
            # Stash the compile so a following bulk intern of the same
            # items reuses it (one-shot; the consumer clears it).
            store._arena_compile_cache = (arena, pending, roots, tops)

    store._maybe_flush_memo()
    return results


def hash_arena(
    store: "ExprStore", arena: ExprArena, roots: Sequence[int]
) -> list[int]:
    """Root alpha-hashes of an already-compiled corpus (the arena step)."""
    tops = _hash_step(store, arena, roots)
    return [tops[root] for root in roots]


def intern_corpus_arena(store: "ExprStore", corpus: Sequence[Expr]) -> list[int]:
    """Intern ``corpus`` via one arena pass.

    Root hits first (a tree-memo or root-cache record naming a live
    class); the rest come from the hash pass's compile when it is
    exactly theirs -- the arena ``flatten_corpus(rest)`` would build --
    and are compiled and hashed here otherwise.
    """
    cached = store._arena_compile_cache
    store._arena_compile_cache = None  # one-shot: consumed or dropped
    memo, root_memo = store._memo, store._arena_root_memo
    hit_by_id = store._hit_by_id
    ids: list = [None] * len(corpus)
    rest: list[Expr] = []
    rest_at: list[int] = []
    for index, expr in enumerate(corpus):
        key = id(expr)
        rec = memo.get(key)
        if rec is not None and hit_by_id(rec.node_id):
            ids[index] = rec.node_id
            continue
        rooted = root_memo.get(key)
        if rooted is not None and hit_by_id(rooted[2]):
            ids[index] = rooted[2]
            continue
        rest.append(expr)
        rest_at.append(index)

    if rest:
        if (
            cached is not None
            and len(cached[1]) == len(rest)
            and all(map(operator.is_, cached[1], rest))
        ):
            # Counted by the hash pass: no stats double-add.
            arena, _items, roots, tops = cached
        else:
            arena, roots = flatten_corpus(rest)
            tops = _hash_step(store, arena, roots)
        class_id = _resolve(store, arena, tops)
        for expr, root, index in zip(rest, roots, rest_at):
            node_id = class_id[root]
            root_memo[id(expr)] = (expr, tops[root], node_id)
            ids[index] = node_id

    _end_batch(store, ids[-1] if ids else None)
    return ids


def intern_arena(
    store: "ExprStore",
    arena: ExprArena,
    roots: Sequence[int],
    check: Optional[Callable[[list[int]], None]] = None,
) -> tuple[list[int], list[int]]:
    """Intern an already-compiled corpus (the arena step).

    Returns ``(ids, hashes)``, one of each per root.  ``check``, when
    given, receives the root hashes before anything is interned and
    refuses the batch by raising.
    """
    tops = _hash_step(store, arena, roots)
    hashes = [tops[root] for root in roots]
    if check is not None:
        check(hashes)
    class_id = _resolve(store, arena, tops)
    ids = [class_id[root] for root in roots]
    _end_batch(store, ids[-1] if ids else None)
    return ids, hashes


def _end_batch(store: "ExprStore", last_id: Optional[int]) -> None:
    """Enforce a bounded store's LRU bound once per batch (evicting
    mid-batch could drop a class a later arena row links to as a child),
    protecting the batch's last id however it was resolved, as the
    serial path's final state does."""
    store._evict_if_needed(protect=last_id)
    store._maybe_flush_memo()


def _resolve(store: "ExprStore", arena: ExprArena, tops: list[int]) -> Sequence[int]:
    """Resolve every arena row against the intern table, given its tops;
    one class id per row: the store's resolve step in C where the compile
    library loaded (compile tier ``native``), else :func:`_resolve_loop`."""
    if native.RESOLVE is None:
        return _resolve_loop(store, arena, tops)
    return store._resolve_arena(arena, tops)


def _resolve_loop(store: "ExprStore", arena: ExprArena, tops: list[int]) -> list[int]:
    """The resolve step in Python, one hit-or-add call per row: the
    fallback and the oracle of the C step.  Post-order rows put children
    first, so each row's child classes are already resolved."""
    op = bytes(arena.op)
    left, right = arena.left.tolist(), arena.right.tolist()
    aux, sizes = arena.aux.tolist(), arena.sizes.tolist()
    names, literals = arena.names, arena.literals
    hit_or_add = store._hit_or_add_step(reserve=len(op))
    class_id = [0] * len(op)

    for i in range(len(op)):
        opc = op[i]
        # Opcodes from OP_LAM up have a first child, from OP_APP a second.
        first = class_id[left[i]] if opc >= OP_LAM else -1
        second = class_id[right[i]] if opc >= OP_APP else -1
        label = None if opc == OP_APP else literals[aux[i]] if opc == OP_LIT else names[aux[i]]
        class_id[i] = hit_or_add(tops[i], opc, sizes[i], first, second, label)

    return class_id
