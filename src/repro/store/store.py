"""A hash-consed expression store keyed by alpha-hashes.

The paper's O(n log n) alpha-hash (Section 5) annotates every
subexpression with a code that is equal iff the subtrees are
alpha-equivalent -- exactly the key a content-addressed store needs.
:class:`ExprStore` builds on that in two layers:

* **Canonical entries.**  Interning an expression assigns every
  alpha-equivalence class of its subexpressions one integer node id.
  ``\\x. x+7`` and ``\\y. y+7`` intern to the same id.  Each class has a
  canonical representative tree whose children are themselves canonical
  (a maximally-shared DAG), built on demand (see below).

* **Summary memo.**  Hashing is memoised per subtree *object*: the store
  remembers each node's hashed e-summary (structure hash, free-variable
  map, top hash), so a corpus that repeats or overlaps subtrees -- shared
  objects across corpus items, or the off-path subtrees a rewrite leaves
  untouched -- is hashed once, not once per occurrence.  The memoised
  summary is enough to *resume* hashing mid-tree: a parent containing an
  already-seen subtree merges the cached free-variable map upward without
  revisiting the subtree.

Soundness is the paper's: equal alpha-hash == alpha-equivalent, up to
hash collisions (Theorem 6.7 bounds these below ~n/2^61 at the default
64-bit width).  A cheap structural guard (kind and size must match on
every intern hit) turns the astronomically-unlikely collision into a
loud :class:`StoreCollisionError` instead of silent conflation.  The
guard is one function, :func:`check_same_class`, and every intern path
reaches it through the one hit-or-add step.

This module owns the intern table, :class:`InternTable`.  It keeps its
classes in per-class columns, not one Python object per class: an
opcode byte per kind, typed int64 arrays of sizes, first and second
child ids (-1 where absent), version stamps, last-touch stamps and
refcounts, and lists of hashes, labels (:func:`node_label`) and optional
canonical trees, indexed by row.  A dict maps each live id to its row
and another each alpha-hash to its id.  LRU recency is the last-touch
stamp: live rows sorted by stamp are in LRU order.  A class interned
without a tree leaves no GC-tracked object behind, so a large table
costs the collector nothing.  An evicted class's row is cleared and
reused.

* **Trees on demand.**  The arena bulk intern stores no tree.
  :meth:`ExprStore.expr_of` (and :attr:`StoreEntry.expr`) build a
  class's tree from the columns, children first, reusing every subtree
  already built, and keep it in the tree column.  The tree walk
  (:meth:`ExprStore.intern`) builds its trees at once: a leaf class
  adopts the caller's node, an interior one gets a canonical tree whose
  memo record makes re-interning it free.  Nothing else builds one:
  snapshot and delta frames are the columns themselves, and the loaders
  and :meth:`ExprStore.merge_store` check and install classes through
  an arena built from columns (:meth:`InternTable.arena`).
* **Views.**  :class:`StoreEntry` is a read-only view of one class's
  columns, built when :meth:`~ExprStore.entry` or
  :meth:`~ExprStore.entries` asks for it.  Readers that walk the whole
  table read the columns instead: the snapshot and delta encoders
  through :meth:`InternTable.window`, the content checksum through
  :meth:`ExprStore._records`.  A delta's fresh classes come from an id
  log in version order, so selecting them costs the window, not the
  table.

Every write goes through one of five steps, each written once against
the table: hit by id (:meth:`InternTable.touch`, through
:meth:`~ExprStore._hit_by_id`), hit-or-add by hash
(:meth:`InternTable.hit_or_add_step`, a closure bound once per batch),
the same for every row of an arena in one call into C
(:meth:`InternTable.resolve_arena`, through
:meth:`~ExprStore._resolve_arena`), restore checked classes with known
ids (:meth:`InternTable.insert`, through :meth:`~ExprStore._restore`,
for the snapshot and delta loaders) and unlink an eviction victim
(:meth:`InternTable.unlink`).  The tree walk, the arena bulk intern
(:mod:`repro.store.arena_intern`), the loaders
(:mod:`repro.store.snapshot`) and the eviction loop all call them.
A store has one table and mints ids counting up from 0.  Scaling out is
separate processes, each with its own store (:mod:`repro.cluster`).

Two capacity modes:

* **eviction-free** (``max_entries=None``) -- entries live forever;
* **LRU-bounded** (``max_entries=N``) -- least-recently-used root
  entries are evicted once the table exceeds ``N``; entries still
  referenced as children of live entries are pinned.  Victims are found
  once per batch, by one heap over the stamps
  (:meth:`InternTable.lru_victims`).  The summary memo is flushed
  wholesale when it exceeds ``memo_limit`` objects.

Long-lived consumers (the streaming edit sessions of
:mod:`repro.api.stream`, most notably) can additionally :meth:`~ExprStore.pin`
individual classes: a pinned entry is never an eviction victim, and
neither are its descendants (children of live entries carry a positive
refcount).  Pins are counted, so overlapping sessions compose; they are
in-memory state and do not survive snapshots.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from contextlib import closing
from dataclasses import dataclass, fields
from heapq import heappop, heappush, heapreplace
from itertools import chain, islice
from typing import Callable, Iterable, Iterator, Optional, Sequence

from repro.core import native
from repro.core.arena import OP_KINDS, OP_OF_KIND, ExprArena, resolve_engine
from repro.core.columns import label_indices
from repro.core.combiners import HashCombiners, default_combiners
from repro.core.hashed import AlphaHashes
from repro.core.kernel import MemoRecord, summarise_tree
from repro.core.position_tree import pt_here_hash
from repro.core.statshape import StatsDictMixin
from repro.core.structure import svar_hash
from repro.lang.expr import App, Expr, Lam, Let, Lit, Var
from repro.lang.traversal import preorder

__all__ = ["ExprStore", "StoreEntry", "StoreStats", "StoreCollisionError"]


class StoreCollisionError(RuntimeError):
    """Two non-alpha-equivalent subtrees produced the same alpha-hash.

    At the default 64-bit width this fires with probability ~n^3/2^61
    over the store's lifetime (Theorem 6.8); at the small widths of
    Appendix B it is expected.  Re-seed or widen the combiner family.
    """


@dataclass(repr=False)
class StoreStats(StatsDictMixin):
    """Cache accounting for one :class:`ExprStore`.

    Node-granularity counters (the hashing layer):

    * ``hashed_nodes`` -- nodes summarised from scratch;
    * ``memo_hits`` -- subtree roots served from the summary memo;
    * ``memo_skipped_nodes`` -- total nodes under those roots (work the
      memo avoided).

    Class-granularity counters (the intern table):

    * ``hits`` -- interned subtrees whose equivalence class already had
      a canonical entry;
    * ``misses`` -- fresh canonical entries created;
    * ``evictions`` -- entries dropped by the LRU bound.
    """

    hits: int = 0
    misses: int = 0
    memo_hits: int = 0
    hashed_nodes: int = 0
    memo_skipped_nodes: int = 0
    evictions: int = 0

    _stats_properties = ("hit_rate", "intern_hit_rate", "touched_nodes")

    @property
    def hit_rate(self) -> float:
        """Fraction of node visits served by the summary memo."""
        total = self.hashed_nodes + self.memo_skipped_nodes
        return self.memo_skipped_nodes / total if total else 0.0

    @property
    def intern_hit_rate(self) -> float:
        """Fraction of interned subtrees that hit an existing class."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def touched_nodes(self) -> int:
        """Nodes actually summarised (same key as ``ReplaceStats``)."""
        return self.hashed_nodes


class StoreEntry:
    """One canonical node: a read-only view of an alpha-equivalence
    class's columns in the intern table.

    :meth:`ExprStore.entry` and :meth:`ExprStore.entries` build views;
    the fields are the columns' values at that moment, and assigning one
    raises ``AttributeError``.  ``children`` are node ids of canonical
    children; ``expr`` is the canonical representative tree (its subtrees
    are the canonical representatives of the child entries, so entries
    form a DAG), built from the columns on first request and kept by the
    store.  ``refcount`` counts parent entries referencing this one --
    the LRU mode only evicts entries with ``refcount == 0``.  ``version``
    is the store's monotonic intern stamp at creation time: entry
    ``version`` values are unique and strictly increasing in creation
    order, which is what incremental snapshot deltas
    (:func:`repro.store.snapshot.delta_to_bytes`) select on.
    """

    __slots__ = (
        "node_id", "hash", "kind", "size", "children", "refcount", "version", "_store"
    )

    def __init__(self, store: "ExprStore", *fields) -> None:
        """``fields``: node_id, hash, kind, size, children, refcount and
        version, read from the columns."""
        for name, value in zip(self.__slots__, (*fields, store)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"StoreEntry is a read-only view; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"StoreEntry is a read-only view; cannot delete {name!r}")

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__[:-1])
        return f"StoreEntry({shown})"

    @property
    def expr(self) -> Expr:
        """The class's canonical tree (``KeyError`` once it is evicted)."""
        return self._store._tree(self.node_id)


def check_same_class(
    have_kind: str, have_size: int, top: int, kind: str, size: int
) -> None:
    """The collision guard: an intern hit by the alpha-hash ``top`` on a
    class whose kind and size columns read ``have_kind`` and
    ``have_size`` must have that kind and size.

    The one copy of this check; a mismatch is a hash collision between
    two terms that are not alpha-equivalent, and raises
    :class:`StoreCollisionError` instead of conflating them."""
    if have_kind != kind or have_size != size:
        raise StoreCollisionError(
            f"alpha-hash 0x{top:x} maps both a {have_kind} of "
            f"size {have_size} and a {kind} of size {size}"
        )


def node_label(node: Expr):
    """The payload a canonical node carries besides its children: a
    variable's name, a literal's value, a binder; ``None`` for App."""
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Lit):
        return node.value
    if isinstance(node, (Lam, Let)):
        return node.binder
    return None


#: The one constructor of canonical trees, by opcode: a node from its
#: :func:`node_label` and its children's canonical trees.
#: :meth:`ExprStore._tree` builds every class's tree through it, on
#: demand (the tree walk's intern asks at once).
_CANONICAL = (
    lambda label, kids: Var(label),
    lambda label, kids: Lit(label),
    lambda label, kids: Lam(label, *kids),
    lambda label, kids: App(*kids),
    lambda label, kids: Let(label, *kids),
)


def saved_stats(saved: dict) -> StoreStats:
    """A :class:`StoreStats` holding the counters a snapshot saved
    (unknown keys ignored, missing ones zero)."""
    return StoreStats(
        **{f.name: saved[f.name] for f in fields(StoreStats) if f.name in saved}
    )


class InternTable:
    """One intern table: canonical classes kept in typed per-class columns.

    Row ``r`` holds one class: ``hashes[r]``, ``ops[r]`` (the arena's
    ``OP_*`` code of its kind), ``sizes[r]``, ``lefts[r]`` and
    ``rights[r]`` (its first and second child ids, -1 where absent),
    ``labels[r]`` (:func:`node_label`), ``versions[r]``, ``stamps[r]``
    (its last touch), ``refcounts[r]`` and ``trees[r]`` (the canonical
    tree, ``None`` until built).  ``ops`` is a ``bytearray``; ``sizes``,
    ``lefts``, ``rights``, ``versions``, ``stamps`` and ``refcounts`` are
    ``array('q')``; ``hashes``, ``labels`` and ``trees`` are lists.
    ``hashes`` stays a list because ``by_hash`` keys each hash's int
    object anyway and the row holds that same object, so 64-bit words
    would add memory, not save it.

    ``row_of`` maps each live id to its row and ``by_hash`` an alpha-hash
    to its id; both stay dicts, since a replica's ids can be sparse.
    Recency is the stamp column: every touch and every new row takes the
    next value of one counter, ``clock``, so the live rows sorted by
    stamp are in LRU order, oldest first (:meth:`lru`).  Rows of evicted
    classes are cleared and listed in ``free`` (``array('q')``) for
    reuse, so a bounded table's columns stay near its bound.  A new class
    takes the last row freed, else the first spare row: ``spare`` counts
    the rows ever taken, the rows from it to the columns' length are
    unused, and the columns grow by chunks of at least an eighth of the
    table.  A class created here gets id ``next_id``, so ids count up
    from 0.

    ``log_versions`` and ``log_ids`` log the classes in version order,
    for :meth:`records` to select a window by bisection.  The first such
    read builds the log from the live classes; from then on each class
    created or restored is appended.  A restore out of version order, or
    evicted classes making up most of the log (``log_dead`` counts them),
    drop it (``None``) until the next read rebuilds it, so it never
    outgrows the live classes and costs nothing where no delta is read.

    The five write steps are :meth:`touch`, :meth:`hit_or_add_step`,
    :meth:`resolve_arena`, :meth:`insert` and :meth:`unlink`.
    :meth:`arena` reads classes into an :class:`~repro.core.arena.ExprArena`.
    """

    __slots__ = (
        "row_of", "by_hash", "hashes", "ops", "sizes", "lefts", "rights",
        "labels", "versions", "stamps", "refcounts", "trees", "free",
        "spare", "next_id", "clock", "unreferenced", "walked",
        "log_versions", "log_ids", "log_dead",
    )

    def __init__(self):
        self.row_of: dict[int, int] = {}
        self.by_hash: dict[int, int] = {}
        self.hashes: list = []
        self.ops = bytearray()
        self.sizes = array("q")
        self.lefts = array("q")
        self.rights = array("q")
        self.labels: list = []
        self.versions = array("q")
        self.stamps = array("q")
        self.refcounts = array("q")
        self.trees: list = []
        self.free = array("q")
        self.spare = 0
        self.next_id = 0
        self.clock = 0
        self.unreferenced: list[tuple[int, int]] = []
        self.walked = 0
        self.log_versions: Optional[list[int]] = None
        self.log_ids: Optional[list[int]] = None
        self.log_dead = 0

    def __len__(self) -> int:
        return len(self.row_of)

    def _start_log(self) -> None:
        """Build the id log from the live classes, in version order."""
        versions, row_of = self.versions, self.row_of
        live = sorted(zip([versions[row] for row in row_of.values()], row_of))
        self.log_versions = [version for version, _ in live]
        self.log_ids = [node_id for _, node_id in live]
        self.log_dead = 0

    def _grow(self, need: int = 0) -> None:
        """Add a chunk of at least ``need`` spare rows to every column:
        ``None`` in the object columns, -1 in the child columns, 0 in the
        others, as a cleared row holds them."""
        extra = max(64, len(self.hashes) >> 3, need)
        for column in (self.hashes, self.labels, self.trees):
            column.extend([None] * extra)
        self.ops.extend(bytes(extra))
        blank = bytes(8 * extra)
        for typed in (self.sizes, self.versions, self.stamps, self.refcounts):
            typed.frombytes(blank)
        absent = array("q", [-1]) * extra
        self.lefts.extend(absent)
        self.rights.extend(absent)

    def _reserve(self, rows: int) -> None:
        """Grow until ``rows`` new classes fit in the free and spare rows."""
        fit = len(self.free) + len(self.hashes) - self.spare
        if fit < rows:
            self._grow(rows - fit)

    def _take_row(self) -> int:
        """A row for a new class: the last freed, else the first spare."""
        if self.free:
            return self.free.pop()
        row = self.spare
        if row == len(self.hashes):
            self._grow()
        self.spare = row + 1
        return row

    # -- reads -----------------------------------------------------------------

    def children(self, row: int) -> tuple[int, ...]:
        """The child ids of the class in ``row``, from its child columns."""
        first, second = self.lefts[row], self.rights[row]
        if first < 0:
            return ()
        return (first,) if second < 0 else (first, second)

    def view(self, store: "ExprStore", node_id: int) -> StoreEntry:
        """A :class:`StoreEntry` of the live class ``node_id``."""
        row = self.row_of[node_id]
        return StoreEntry(
            store, node_id, self.hashes[row], OP_KINDS[self.ops[row]],
            self.sizes[row], self.children(row), self.refcounts[row],
            self.versions[row],
        )

    def lru(self) -> list[tuple[int, int]]:
        """``(node_id, row)`` of every live class, least recently used
        first: the live rows sorted by stamp."""
        stamps, row_of = self.stamps, self.row_of
        ranked = sorted(zip([stamps[row] for row in row_of.values()], row_of.items()))
        return [pair for _stamp, pair in ranked]

    def window(self, since: int = -1) -> list[tuple[int, int]]:
        """``(node_id, row)`` of every live class in LRU order, or, for
        ``since >= 0``, of those whose version is above ``since`` in
        version order: the id log's tail past ``since``, so the cost is
        the window's, not the table's.  Classes that share a version keep
        their LRU order."""
        if since < 0:
            return self.lru()
        if self.log_ids is None:
            self._start_log()
        start = bisect_right(self.log_versions, since)
        row_of, versions = self.row_of, self.versions
        window = []
        for version, node_id in zip(self.log_versions[start:], self.log_ids[start:]):
            row = row_of.get(node_id)
            # An evicted class, or an older entry of one restored again.
            if row is not None and versions[row] == version:
                window.append((node_id, row))
        if any(
            versions[a] == versions[b] for (_, a), (_, b) in zip(window, window[1:])
        ):
            # Rare (two sources stamped independently): order by version,
            # then LRU, off the whole table.
            return sorted(
                [pair for pair in self.lru() if versions[pair[1]] > since],
                key=lambda pair: versions[pair[1]],
            )
        return window

    def records(self, since: int = -1) -> list[tuple]:
        """``(node_id, hash, kind, size, kids, label, version, tree)`` of
        each class of :meth:`window`, in its order: the kind as its name,
        the child ids as a tuple."""
        hashes, ops, sizes, labels = self.hashes, self.ops, self.sizes, self.labels
        versions, trees, children = self.versions, self.trees, self.children
        return [
            (node_id, hashes[row], OP_KINDS[ops[row]], sizes[row], children(row),
             labels[row], versions[row], trees[row])
            for node_id, row in self.window(since)
        ]

    def lru_victims(self, protect: Optional[int], pinned) -> Iterator[int]:
        """The classes the LRU bound may evict, in the order a scan from
        the least recently used class would find them one at a time: the
        oldest class with no live parent that is neither ``protect`` nor
        pinned, then the oldest such class once the caller has unlinked
        that one, and so on.  The caller closes the generator when it has
        enough.

        ``unreferenced`` is a heap of ``(stamp, id)`` kept from pass to
        pass.  It holds every live class with no parent, and entries gone
        stale: a class since unlinked or given a parent is dropped when it
        comes up, one touched since is pushed again under its new stamp.
        Only a pass unlinks classes, so between passes ``row_of`` only
        grows at its end, and a pass first pushes the classes added since
        the last one (``row_of`` past ``walked``) that have no parent.  A
        victim's children that it leaves with none are pushed as it goes,
        however old they are.  So a pass costs the batch's new classes
        and its victims, not the table."""
        row_of, stamps, refcounts = self.row_of, self.stamps, self.refcounts
        lefts, rights, heap = self.lefts, self.rights, self.unreferenced
        for node_id in islice(reversed(row_of), len(row_of) - self.walked):
            row = row_of[node_id]
            if not refcounts[row]:
                heappush(heap, (stamps[row], node_id))
        kept: list[tuple[int, int]] = []
        kids: tuple[int, ...] = ()
        try:
            while heap:
                stamp, node_id = heap[0]
                row = row_of.get(node_id)
                if row is None or refcounts[row]:
                    heappop(heap)
                elif stamps[row] != stamp:
                    heapreplace(heap, (stamps[row], node_id))
                elif node_id == protect or node_id in pinned:
                    kept.append(heappop(heap))
                else:
                    heappop(heap)
                    kids = lefts[row], rights[row]
                    yield node_id
                    self._push_freed(kids)
                    kids = ()
        finally:
            # The last victim's children, when the caller closed the pass
            # at it, and the classes passed over.
            self._push_freed(kids)
            for pair in kept:
                heappush(heap, pair)
            self.walked = len(row_of)

    def _push_freed(self, kids: Iterable[int]) -> None:
        """Push each live class in ``kids`` left with no parent onto
        ``unreferenced``."""
        row_of, refcounts = self.row_of, self.refcounts
        for kid in kids:
            row = row_of.get(kid)
            if row is not None and not refcounts[row]:
                heappush(self.unreferenced, (self.stamps[row], kid))

    # -- the write steps -------------------------------------------------------

    def touch(self, node_id: Optional[int]) -> bool:
        """The hit by id: give a live ``node_id`` the next stamp and
        return ``True``; ``False`` for ``None`` or an id not live here."""
        row = self.row_of.get(node_id)
        if row is None:
            return False
        self.stamps[row] = self.clock
        self.clock += 1
        return True

    def hit_or_add_step(self, store: "ExprStore", reserve: int = 0) -> Callable[..., int]:
        """The hit-or-add step by hash, bound once per batch over local
        column references, with room for at least ``reserve`` new classes.

        Returns ``hit_or_add(top, op, size, first, second, label,
        leaf=None)`` -> class id, where ``op`` is the kind's ``OP_*`` code
        and ``first`` and ``second`` are the child ids, -1 where absent.
        A hit on a class already keyed by ``top`` passes
        :func:`check_same_class` against the kind and size columns, takes
        the next stamp and counts one hit on ``store.stats``.  A miss
        writes a new row with ``store.version`` bumped as its version and
        the next stamp, adopts ``leaf`` as its tree when the caller has
        one (a Var/Lit node of the tree walk), adds one reference to each
        child, and counts one miss.
        """
        self._reserve(reserve)
        row_of, by_hash = self.row_of, self.by_hash
        hashes, ops, sizes, labels = self.hashes, self.ops, self.sizes, self.labels
        lefts, rights, versions = self.lefts, self.rights, self.versions
        stamps, refcounts, trees, stats = self.stamps, self.refcounts, self.trees, store.stats
        free, kinds, guard = self.free, OP_KINDS, check_same_class
        find, take_free, grow = by_hash.get, free.pop, self._grow

        def hit_or_add(top, op, size, first, second, label, leaf=None) -> int:
            node_id = find(top)
            if node_id is not None:
                row = row_of[node_id]
                guard(kinds[ops[row]], sizes[row], top, kinds[op], size)
                stamps[row] = clock = self.clock
                self.clock = clock + 1
                stats.hits += 1
                return node_id
            if free:
                row = take_free()
            else:  # the first spare row, as _take_row takes it
                row = self.spare
                if row == len(hashes):
                    grow()
                self.spare = row + 1
            # First: a size past int64 raises before the class is counted.
            sizes[row] = size
            node_id = self.next_id
            self.next_id = node_id + 1
            store.version = version = store.version + 1
            hashes[row] = top
            ops[row] = op
            labels[row] = label
            versions[row] = version
            stamps[row] = clock = self.clock
            self.clock = clock + 1
            trees[row] = leaf
            row_of[node_id] = row
            by_hash[top] = node_id
            log = self.log_ids
            if log is not None:
                log.append(node_id)
                self.log_versions.append(version)
            # A row taken holds -1 in both child columns.
            if first >= 0:
                lefts[row] = first
                refcounts[row_of[first]] += 1
                if second >= 0:
                    rights[row] = second
                    refcounts[row_of[second]] += 1
            stats.misses += 1
            return node_id

        return hit_or_add

    def resolve_arena(self, store: "ExprStore", arena: ExprArena, tops: list) -> array:
        """The hit-or-add step over every row of ``arena``, given each
        row's top hash, in one call into the compile library
        (:func:`repro.core.native.native_resolve`); one class id per row.

        Row by row it leaves what :meth:`hit_or_add_step`'s step leaves
        when the arena loop (:func:`repro.store.arena_intern._resolve_loop`)
        calls it with the same ``reserve``: the same rows taken, ids,
        versions, stamps, columns, maps, refcounts, id log and stats.
        The ids it creates are ``next_id`` onward, in creation order.  On
        a hit that fails the collision guard the C step stops at that
        row, every earlier row written, as the loop stops when the guard
        raises; the guard then raises here, so the text has one source."""
        op = arena.op
        self._reserve(len(op))
        free, stats = self.free, store.stats
        next_id, version = self.next_id, store.version
        state = array("q", (next_id, version, self.clock, self.spare, 0, 0))
        class_ids = array("q", bytes(8 * len(op)))
        columns = (
            self.by_hash, self.row_of, self.hashes, self.labels, self.ops,
            self.lefts, self.rights, self.sizes, self.versions, self.stamps,
            self.refcounts, free, class_ids,
        )
        try:
            failed = native.native_resolve(arena, tops, columns, state)
        finally:
            # Also after an error: the rows written so far stay written.
            self.next_id, store.version, self.clock, self.spare, made, hits = state
            if made:
                del free[max(0, len(free) - made):]
                if self.log_ids is not None:
                    self.log_ids.extend(range(next_id, next_id + made))
                    self.log_versions.extend(range(version + 1, version + made + 1))
            stats.hits += hits
            stats.misses += made
        if failed >= 0:
            top = tops[failed]
            row = self.row_of[self.by_hash[top]]
            check_same_class(
                OP_KINDS[self.ops[row]], self.sizes[row], top, OP_KINDS[op[failed]],
                arena.sizes[failed],
            )
            raise AssertionError(f"row {failed}: stopped on a hit the guard passes")
        return class_ids

    def insert(self, columns: Sequence[Sequence]) -> None:
        """The restore step's write, for classes not live here given as
        the columns ``(ids, tops, ops, sizes, firsts, seconds, labels,
        versions)``, whose child ids (-1 where absent) name live classes
        or classes among them: per class a new row with the next stamp
        and no tree, its hash mapped to its id (the later class wins a
        hash two share), one reference added to each child, and the id
        counter moved past it.  Rows and stamps are taken in column
        order, as one class at a time would take them."""
        ids, tops, versions = columns[0], columns[1], columns[-1]
        n = len(ids)
        self._reserve(n)
        taken = min(n, len(self.free))
        rows = [self.free.pop() for _ in range(taken)]
        rows += range(self.spare, self.spare + n - taken)
        self.spare += n - taken
        stamps = range(self.clock, self.clock + n)
        self.clock += n
        targets = (
            self.hashes, self.ops, self.sizes, self.lefts, self.rights,
            self.labels, self.versions, self.stamps,
        )
        for column, values in zip(targets, (*columns[1:], stamps)):
            for row, value in zip(rows, values):
                column[row] = value
        row_of, refcounts = self.row_of, self.refcounts
        row_of.update(zip(ids, rows))
        self.by_hash.update(zip(tops, ids))
        self.next_id = max([self.next_id, *(node_id + 1 for node_id in ids)])
        for kid in chain(columns[4], columns[5]):
            if kid >= 0:
                refcounts[row_of[kid]] += 1
        if self.log_ids is not None:
            order = self.log_versions[-1:] + list(versions)
            if all(a <= b for a, b in zip(order, order[1:])):
                self.log_ids += ids
                self.log_versions += versions
            else:  # restored out of version order
                self.log_ids = self.log_versions = None

    def arena(
        self, reach: Iterable[int], columns: Sequence[Sequence] = ()
    ) -> tuple[ExprArena, dict[int, int]]:
        """An arena built from class columns, children first, and each
        class id's arena row; the table is only read.

        Its first rows are the live classes ``reach`` names and every
        class they reach through the child columns, by size, then id.
        The last are the classes of ``columns``, as :meth:`insert` takes
        them and in their order, whose child ids name classes above
        them.  Names and literals are interned by value across both
        (:func:`~repro.core.columns.label_indices`)."""
        row_of, lefts, rights, sizes = self.row_of, self.lefts, self.rights, self.sizes
        reached = set(reach)
        frontier = list(reached)
        while frontier:  # one level of children a pass
            held = [row_of[node_id] for node_id in frontier]
            below = {lefts[row] for row in held} | {rights[row] for row in held}
            below.discard(-1)
            frontier = list(below - reached)
            reached |= below
        order = sorted(reached)
        order.sort(key=lambda node_id: sizes[row_of[node_id]])
        held = [row_of[node_id] for node_id in order]
        new = columns or ((),) * 8

        def column(values, k: int) -> list:
            return [values[row] for row in held] + list(new[k])

        ids = order + list(new[0])
        at = dict(zip(ids, range(len(ids))))
        at[-1] = -1  # an absent child
        arena = ExprArena()
        arena.op.extend(column(self.ops, 2))
        arena.sizes.extend(column(sizes, 3))
        arena.left.extend(map(at.__getitem__, column(lefts, 4)))
        arena.right.extend(map(at.__getitem__, column(rights, 5)))
        del at[-1]
        aux, names, literals = label_indices(arena.op, column(self.labels, 6))
        arena.aux.extend(aux)
        arena.names.extend(names)
        arena.literals.extend(literals)
        return arena, at

    def unlink(self, node_id: int) -> tuple[tuple[int, ...], Optional[Expr]]:
        """Drop the live class ``node_id``; return its child ids and tree.

        Its hash is unmapped only while the mapping names it: a replayed
        store can hold an evicted-then-recreated class under two ids, and
        the newer one keeps the mapping.  The row's objects, child columns
        and refcount are cleared and the row freed."""
        row = self.row_of.pop(node_id)
        top = self.hashes[row]
        if self.by_hash.get(top) == node_id:
            del self.by_hash[top]
        released = self.children(row), self.trees[row]
        self.hashes[row] = self.labels[row] = self.trees[row] = None
        self.lefts[row] = self.rights[row] = -1
        self.refcounts[row] = 0
        self.free.append(row)
        if self.log_ids is not None:
            self.log_dead += 1
            if self.log_dead > 64 and 2 * self.log_dead > len(self.log_ids):
                self.log_ids = self.log_versions = None
        return released


class ExprStore:
    """Intern expressions modulo alpha-equivalence; memoise their hashes.

    >>> store = ExprStore()
    >>> a = store.intern(parse(r"\\x. x + 7"))
    >>> b = store.intern(parse(r"\\y. y + 7"))   # alpha-equivalent copy
    >>> a == b                                    # same canonical class
    True
    >>> store.stats.hits >= 1                     # intern-table hits
    True

    Parameters
    ----------
    combiners:
        Hash-combiner family; defaults to the shared 64-bit fixed-seed
        family, so two default stores agree on every hash.
    max_entries:
        ``None`` for the eviction-free mode; an integer bounds the
        canonical-entry table with LRU eviction of unreferenced entries.
    memo_limit:
        Cap on the per-object summary memo (defaults to unbounded in
        eviction-free mode, ``64 * max_entries`` in LRU mode); when
        exceeded the memo is flushed wholesale.
    """

    def __init__(
        self,
        combiners: Optional[HashCombiners] = None,
        max_entries: Optional[int] = None,
        memo_limit: Optional[int] = None,
    ):
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.combiners = combiners if combiners is not None else default_combiners()
        self.max_entries = max_entries
        if memo_limit is None and max_entries is not None:
            memo_limit = 64 * max_entries
        self.memo_limit = memo_limit
        self.stats = StoreStats()

        self._here = pt_here_hash(self.combiners)
        self._svar = svar_hash(self.combiners)
        self._var_entry_cache: dict[str, int] = {}
        self._lit_cache: dict[tuple[type, object], int] = {}
        #: id(node) -> cached summary; holds a strong ref to the node.
        self._memo: dict[int, MemoRecord] = {}
        #: id(root) -> (root, top hash, class id or None): the arena
        #: engine's root cache.  Cheaper than a full memo record (no
        #: varmap snapshot) but only answers whole-corpus-item repeats:
        #: a hash pass records the top, an arena intern the class id, so
        #: a repeated item is one root hit (see :meth:`_hit_by_id`).
        #: Flushed with the memo.
        self._arena_root_memo: dict[int, tuple[Expr, int, Optional[int]]] = {}
        #: The last arena hash pass's compile: (arena, the items it
        #: compiled, their root indices, per-node tops).  A bulk intern
        #: whose non-repeated items are exactly those items (the ``repro
        #: session`` flow) resolves them from it instead of re-flattening
        #: and re-hashing; one-shot, never kept by stores with a
        #: ``memo_limit``.
        self._arena_compile_cache: Optional[tuple] = None
        #: The intern table.
        self._table = InternTable()
        #: node_id -> pin count; pinned classes are never LRU victims.
        self._pinned: dict[int, int] = {}
        #: Monotonic intern stamp: +1 per canonical entry ever created
        #: (never reused, never decremented -- evictions leave gaps).
        #: ``delta_to_bytes(store, since)`` ships exactly the live
        #: entries with ``entry.version > since``; replicas track the
        #: primary's counter through snapshots and deltas.
        self.version = 0

    # -- queries ---------------------------------------------------------------

    def __len__(self) -> int:
        """Number of live canonical entries."""
        return len(self._table)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._table.row_of

    def entry(self, node_id: int) -> StoreEntry:
        """A view of the canonical entry ``node_id`` (touches LRU recency)."""
        table = self._table
        if not table.touch(node_id):
            raise KeyError(node_id)
        return table.view(self, node_id)

    def expr_of(self, node_id: int) -> Expr:
        """Canonical representative tree of the class ``node_id``: built
        from the columns on the first request, then kept."""
        return self.entry(node_id).expr

    def hash_of(self, node_id: int) -> int:
        """The alpha-hash keying the class ``node_id``."""
        return self.entry(node_id).hash

    def size_of(self, node_id: int) -> int:
        """Node count of any member of the class ``node_id``."""
        return self.entry(node_id).size

    def lookup_hash(self, hash_value: int) -> Optional[int]:
        """Node id of the class with this alpha-hash, if interned."""
        return self._table.by_hash.get(hash_value)

    def entries(self) -> Iterator[StoreEntry]:
        """Views of all live entries, least-recently-used first."""
        table = self._table
        return iter([table.view(self, node_id) for node_id, _row in table.lru()])

    # -- the columns, read ------------------------------------------------------

    def _records(self, since: int = -1) -> list[tuple]:
        """:meth:`InternTable.records`: every live class in LRU order,
        or those created after the version stamp ``since`` in version
        order."""
        return self._table.records(since)

    def _tree(self, node_id: int) -> Expr:
        """The canonical tree of the live class ``node_id``: the tree
        column's, or built from the columns and kept there.

        A class whose tree column is empty is built from its kind, label
        and children's trees by one iterative walk, children first, that
        keeps every tree it builds and reuses every tree already kept, so
        the trees form one shared DAG."""
        table = self._table
        row_of, trees, children = table.row_of, table.trees, table.children
        stack = [node_id]
        while stack:
            row = row_of[stack[-1]]
            if trees[row] is not None:
                stack.pop()
                continue
            kid_ids = children(row)
            missing = [kid for kid in kid_ids if trees[row_of[kid]] is None]
            if missing:
                stack += missing  # back here once they are built
                continue
            trees[row] = _CANONICAL[table.ops[row]](
                table.labels[row], [trees[row_of[kid]] for kid in kid_ids]
            )
            stack.pop()
        return trees[row_of[node_id]]

    # -- pinning ---------------------------------------------------------------

    def pin(self, node_id: int) -> None:
        """Exempt the class ``node_id`` from LRU eviction.

        Pins are counted (a class pinned twice needs two unpins) and
        protect the whole canonical subtree: descendants of a live entry
        already carry a positive refcount, so only roots need pinning.
        Raises ``KeyError`` if the class is not (or no longer) live --
        callers that may race eviction should re-intern first.
        """
        if node_id not in self:
            raise KeyError(node_id)
        self._pinned[node_id] = self._pinned.get(node_id, 0) + 1

    def unpin(self, node_id: int) -> bool:
        """Drop one pin from ``node_id``; ``True`` if a pin was held.

        Forgiving on unknown ids (a crashed session may unpin classes
        that were never successfully pinned)."""
        count = self._pinned.get(node_id)
        if count is None:
            return False
        if count <= 1:
            del self._pinned[node_id]
        else:
            self._pinned[node_id] = count - 1
        return True

    def is_pinned(self, node_id: int) -> bool:
        return node_id in self._pinned

    @property
    def pinned_count(self) -> int:
        """Number of distinct pinned classes."""
        return len(self._pinned)

    def cached_top(self, node: Expr) -> Optional[int]:
        """The memoised top-level alpha-hash of ``node``, if any."""
        rec = self._memo.get(id(node))
        return None if rec is None else rec.top

    def clear_memo(self) -> None:
        """Drop the per-object summary memo (canonical entries survive)."""
        self._memo.clear()
        self._arena_root_memo.clear()
        self._arena_compile_cache = None

    def prune_memo(self, roots: Iterable[Expr]) -> int:
        """Drop memo records unreachable from ``roots``; return the count.

        The memo pins every expression object it has summarised, so
        long-running rewrite loops (CSE most notably) call this between
        rounds with the current program as the root: dead spines from
        earlier rounds are released while everything still in the program
        stays warm.  Reachability is closed over children, which
        preserves the record-implies-full-subtree-coverage invariant the
        resume-above-cached-roots optimisation relies on.
        """
        self._arena_compile_cache = None  # pins a corpus; prune drops it
        keep: set[int] = set()
        stack = list(roots)
        while stack:
            node = stack.pop()
            if id(node) in keep:
                continue
            keep.add(id(node))
            stack.extend(node.children())
        before = len(self._memo) + len(self._arena_root_memo)
        self._memo = {
            key: rec for key, rec in self._memo.items() if key in keep
        }
        self._arena_root_memo = {
            key: rec
            for key, rec in self._arena_root_memo.items()
            if key in keep
        }
        return before - len(self._memo) - len(self._arena_root_memo)

    def resolve_combiners(
        self, combiners: Optional[HashCombiners]
    ) -> HashCombiners:
        """The effective combiner family for a consumer attached to this
        store: the store's own, after checking that any explicitly
        requested family agrees with it (same bits and seed)."""
        if combiners is not None and (
            combiners.bits != self.combiners.bits
            or combiners.seed != self.combiners.seed
        ):
            raise ValueError(
                "combiners disagree with the attached store's family"
            )
        return self.combiners

    # -- hashing (memoised) ----------------------------------------------------

    def hash_expr(self, expr: Expr) -> int:
        """The root alpha-hash of ``expr``, reusing every cached subtree."""
        top = self._hash_tree(expr).top
        self._maybe_flush_memo()
        return top

    def hash_corpus(self, exprs: Iterable[Expr], engine: str = "auto") -> list[int]:
        """Batch :meth:`hash_expr`; repeated/overlapping trees hash once.

        ``engine`` picks the batch strategy: ``"arena"`` and ``"auto"``
        (default) compile the corpus into a post-order array arena and
        run the array kernel (bit-identical hashes, no per-node memo
        warming -- see :mod:`repro.store.arena_intern`); ``"tree"``
        walks each item through the memoised summariser, which wins
        only when the memo already holds most of each item.
        """
        corpus = exprs if isinstance(exprs, list) else list(exprs)
        if resolve_engine(engine) == "arena" and corpus:
            from repro.store.arena_intern import hash_corpus_arena

            return hash_corpus_arena(self, corpus)
        return [self.hash_expr(e) for e in corpus]

    def hash_arena(self, arena: ExprArena, roots: Sequence[int]) -> list[int]:
        """Root alpha-hashes of a corpus already compiled into ``arena``
        (one index per item in ``roots``), through the arena kernel.

        The wire path's entry point: the server compiles request
        documents with :meth:`~repro.core.arena.ExprArena.extend_wire`
        and hashes them here without building a tree.  No cache keeps
        the items (see :func:`repro.store.arena_intern.hash_arena`).
        """
        from repro.store.arena_intern import hash_arena

        return hash_arena(self, arena, roots)

    def hashes(self, expr: Expr) -> AlphaHashes:
        """An :class:`AlphaHashes` view over ``expr`` computed through the
        memo -- a drop-in replacement for
        :func:`repro.core.hashed.alpha_hash_all` for equivalence-class
        clients that rehash overlapping trees repeatedly."""
        self._hash_tree(expr)
        memo = self._memo
        by_id: dict[int, int] = {}
        for node in preorder(expr):
            rec = memo.get(id(node))
            if rec is None:  # pragma: no cover - coverage-invariant breach
                # Defensive: never hand out a partial view.
                from repro.core.hashed import alpha_hash_all

                return alpha_hash_all(expr, self.combiners)
            by_id[id(node)] = rec.top
        self._maybe_flush_memo()
        return AlphaHashes(expr, self.combiners, by_id)

    def _hash_tree(self, expr: Expr) -> MemoRecord:
        """Summarise ``expr`` bottom-up, skipping memoised subtrees.

        Delegates to the shared :func:`repro.core.kernel.summarise_tree`
        loop (the same one :func:`repro.core.hashed.alpha_hash_all`
        runs, so hashes agree bit-for-bit) with the memo hooks enabled:
        the walk (a) resumes from cached summaries and (b) snapshots
        every node's map into the memo -- the same one-copy-per-node
        cost the Section 6.3 incremental hasher pays, bought back many
        times over on corpus reuse.
        """
        memo = self._memo
        root = memo.get(id(expr))
        if root is not None:
            self.stats.memo_hits += 1
            self.stats.memo_skipped_nodes += expr.size
            return root

        summarise_tree(
            expr,
            self.combiners,
            here=self._here,
            svar=self._svar,
            var_entry_cache=self._var_entry_cache,
            lit_cache=self._lit_cache,
            memo=memo,
            store_stats=self.stats,
        )
        return memo[id(expr)]

    def _maybe_flush_memo(self) -> None:
        """Wholesale memo flush at public-operation boundaries.

        Never called mid-operation: :meth:`intern` reads every node's
        record right after hashing.  The memo is a pure cache, so losing
        warmth is the only cost of a flush.  A flush starts a new dict
        rather than clearing the old one, so a caller that took the
        memo before :meth:`hash_expr` still reads the records the call
        made (the incremental hasher adopts a replacement's that way).
        """
        if self.memo_limit is not None:
            if len(self._memo) > self.memo_limit:
                self._memo = {}
            if len(self._arena_root_memo) > self.memo_limit:
                self._arena_root_memo.clear()
            # The compile cache pins a whole corpus: a memo-bounded
            # store gives up the hash->intern reuse to keep its
            # memory contract.
            self._arena_compile_cache = None

    # -- persistence -----------------------------------------------------------

    def save(self, path: str, meta: Optional[dict] = None) -> None:
        """Snapshot this store to ``path``: its classes, LRU recency and
        counters.

        See :mod:`repro.store.snapshot` for the versioned, checksummed
        column format; ``meta`` rides along in the header.
        """
        from repro.store.snapshot import write_snapshot

        write_snapshot(self, path, meta)

    @classmethod
    def load(cls, path: str) -> "ExprStore":
        """Rebuild a store saved with :meth:`save`: every class checked
        and installed from the file's columns, with no tree and a cold
        memo (see :mod:`repro.store.snapshot`)."""
        from repro.store.snapshot import read_snapshot

        store, _header = read_snapshot(path)
        return store

    # -- interning -------------------------------------------------------------

    def intern(self, expr: Expr) -> int:
        """Intern ``expr``, returning the node id of its class.

        Every subexpression of ``expr`` is interned along the way; two
        alpha-equivalent subtrees (within one call or across calls) map
        to the same id.
        """
        self._hash_tree(expr)
        memo = self._memo
        hit_or_add = self._hit_or_add_step()
        ids: list[int] = []
        stack: list[tuple[Expr, bool]] = [(expr, False)]
        while stack:
            node, visited = stack.pop()
            rec = memo[id(node)]
            if not visited:
                if self._hit_by_id(rec.node_id):
                    ids.append(rec.node_id)
                    continue
                stack.append((node, True))
                for child in reversed(node.children()):
                    stack.append((child, False))
                continue

            arity = len(node.children())
            first = second = -1
            if arity == 2:
                second = ids.pop()
            if arity:
                first = ids.pop()
            rec.node_id = self._intern_one(node, rec, first, second, hit_or_add)
            ids.append(rec.node_id)
        assert len(ids) == 1
        # Evict only once the whole tree is interned: children created
        # moments ago must not vanish before their parent references them.
        self._evict_if_needed(protect=ids[0])
        self._maybe_flush_memo()
        return ids[0]

    def intern_many(self, exprs: Iterable[Expr], engine: str = "auto") -> list[int]:
        """Batch :meth:`intern`: one id per input, duplicates collapse.

        ``engine="arena"`` (or ``"auto"``, the default) answers items
        already interned as the same object with one root hit each, as
        the serial path does, and resolves every unique
        subtree class of the rest against the intern table directly,
        reusing the compile of a :meth:`hash_corpus` call over the same
        items -- same classes, hashes and ids as the serial path.
        ``hits``/``misses`` count one per repeated item and one per
        unique arena node of the rest, not per subtree occurrence (see
        :mod:`repro.store.arena_intern`).  LRU-bounded stores enforce
        their bound once at the end of the batch (arena child links
        need every class live mid-batch), so the table may transiently
        exceed ``max_entries`` by the batch's unique-class count.
        ``engine="tree"`` interns each item with :meth:`intern`.
        """
        corpus = exprs if isinstance(exprs, list) else list(exprs)
        if resolve_engine(engine) == "arena" and corpus:
            from repro.store.arena_intern import intern_corpus_arena

            return intern_corpus_arena(self, corpus)
        return [self.intern(e) for e in corpus]

    def intern_arena(
        self,
        arena: ExprArena,
        roots: Sequence[int],
        check: Optional[Callable[[list[int]], None]] = None,
    ) -> tuple[list[int], list[int]]:
        """Intern a corpus already compiled into ``arena``; return
        ``(ids, hashes)``, one of each per root.

        The bulk-intern arena step of :meth:`intern_many`, without the
        compile: ids, classes and stats come out as ``intern_many``
        with ``engine="arena"`` would produce them.  ``check`` receives
        the root hashes before anything is interned and refuses the
        batch by raising.
        """
        from repro.store.arena_intern import intern_arena

        return intern_arena(self, arena, roots, check=check)

    def merge_store(self, other: "ExprStore") -> dict[int, int]:
        """Fold every canonical class of ``other`` into this store.

        Returns the id remapping ``{other_node_id: self_node_id}``.  One
        arena intern (:meth:`intern_arena`) of an arena built from
        ``other``'s columns (:meth:`InternTable.arena`), every class a
        root: hashes are preserved bit-for-bit, ids are assigned by this
        store in the arena's order (by size), and neither store gains a
        tree or a memo record.  ``other`` is not modified.  (The
        service's snapshot-upload endpoint and the coordinator's merged
        snapshot merge through it.)
        """
        self.resolve_combiners(other.combiners)
        arena, at = other._table.arena(other._table.row_of)
        ids, _hashes = self.intern_arena(arena, range(len(arena)))
        return {node_id: ids[row] for node_id, row in at.items()}

    # -- the intern table's write steps ----------------------------------------
    #
    # Nothing outside this module writes the table; every write is one
    # of InternTable's steps, reached through the methods below.

    def _hit_by_id(self, node_id: Optional[int]) -> bool:
        """The intern hit by id: if ``node_id`` names a live class,
        touch its LRU recency, count one hit and return ``True``.

        The tree walk (:meth:`intern`) takes it for every subtree object
        interned before, the arena bulk intern for every repeated corpus
        item (:mod:`repro.store.arena_intern`).  ``None`` (never
        interned) and evicted ids miss.
        """
        if not self._table.touch(node_id):
            return False
        self.stats.hits += 1
        return True

    def _hit_or_add_step(self, reserve: int = 0) -> Callable[..., int]:
        """The hit-or-add step by hash, bound once per batch with at
        least ``reserve`` new classes: ``hit_or_add(top, op, size, first,
        second, label, leaf=None)`` -> class id (see
        :meth:`InternTable.hit_or_add_step`).  Binding once keeps the tree
        walk and the arena resolve loop off per-row attribute lookups."""
        return self._table.hit_or_add_step(self, reserve)

    def _resolve_arena(self, arena: ExprArena, tops: list) -> Sequence[int]:
        """The hit-or-add step over every row of ``arena`` in one call
        into C: one class id per row (see
        :meth:`InternTable.resolve_arena`)."""
        return self._table.resolve_arena(self, arena, tops)

    def _intern_one(
        self,
        node: Expr,
        rec: MemoRecord,
        first: int,
        second: int,
        hit_or_add: Callable[..., int],
    ) -> int:
        """One tree node, with child class ids ``first`` and ``second``
        (-1 where absent), through the hit-or-add step.  A leaf class it
        creates adopts ``node`` itself, which already has its memo
        record; an interior one gets its canonical tree built at once,
        with the tree's record seeded from ``rec`` (the canonical tree is
        made of canonical subtrees, so hashing it later can be a pure
        memo hit) -- but only while the memo covers every canonical
        child: a record must imply full-subtree coverage (hashing and
        interning resume above cached roots without descending), and a
        flush may have dropped the children's records."""
        version = self.version
        leaf = first < 0
        node_id = hit_or_add(
            rec.top,
            OP_OF_KIND[node.kind],
            node.size,
            first,
            second,
            node_label(node),
            node if leaf else None,
        )
        if not leaf and self.version != version:  # a class was created
            tree, memo = self._tree(node_id), self._memo
            if all(id(kid) in memo for kid in tree.children()):
                seeded = MemoRecord(
                    tree, rec.s_hash, dict(rec.vm_entries), rec.vm_hash, rec.top
                )
                seeded.node_id = node_id
                memo[id(tree)] = seeded
        return node_id

    def _restore(self, columns: Sequence[Sequence]) -> None:
        """Install checked classes under their known ids, with no tree
        and no memo record (:meth:`InternTable.insert`, which takes
        ``columns``); each counts one miss, and the store version moves
        past every class's.  A hash maps to the id restored last, even
        while an older live id holds it."""
        self._table.insert(columns)
        self.stats.misses += len(columns[0])
        self.version = max([self.version, *columns[-1]])

    def _restore_counters(self, stats: dict, next_id: int) -> None:
        """Adopt a loaded snapshot's saved counters.

        ``stats`` replaces the store's counters.  ``next_id`` is the
        saved id counter; the counter only ever advances, since restoring
        already moved it past every restored id.
        """
        self.stats = saved_stats(stats)
        table = self._table
        table.next_id = max(table.next_id, next_id)

    def _unlink(self, node_id: int) -> None:
        """Drop the eviction victim ``node_id`` from the table
        (:meth:`InternTable.unlink`) and count one eviction."""
        released = self._table.unlink(node_id)
        self.stats.evictions += 1
        self._release(*released)

    def _release(self, kid_ids: tuple[int, ...], tree: Optional[Expr]) -> None:
        """An unlinked entry's last step: its children lose a reference
        and its canonical tree's memo record, if any, forgets the id."""
        table = self._table
        for kid in kid_ids:
            table.refcounts[table.row_of[kid]] -= 1
        rec = None if tree is None else self._memo.get(id(tree))
        if rec is not None:
            rec.node_id = None

    # -- eviction --------------------------------------------------------------

    def _evict_if_needed(self, protect: Optional[int] = None) -> None:
        """Unlink LRU victims (:meth:`InternTable.lru_victims`) until the
        table is back within ``max_entries``.  With no victim left, every
        remaining entry is the protected fresh root, pinned by a session
        or referenced by a live parent: the table cannot shrink further
        without breaking child links."""
        table = self._table
        if self.max_entries is None or len(table) <= self.max_entries:
            return
        with closing(table.lru_victims(protect, self._pinned)) as victims:
            for victim in victims:
                self._unlink(victim)
                if len(table) <= self.max_entries:
                    break
