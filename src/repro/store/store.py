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
classes in per-class columns, not one Python object per class: plain
lists of hashes, kinds, sizes, child ids, labels (:func:`node_label`),
version stamps, refcounts and optional canonical trees, indexed by row.
An ``OrderedDict`` maps each live id to its row in LRU order, and a dict
maps each alpha-hash to its id.  A class interned without a tree leaves
no GC-tracked object behind, so a large table costs the collector
nothing.  An evicted class's row is cleared and reused.

* **Trees on demand.**  The arena bulk intern stores no tree.
  :meth:`ExprStore.expr_of` (and :attr:`StoreEntry.expr`) build a
  class's tree from the columns, children first, reusing every subtree
  already built, and keep it in the tree column.  The tree walk
  (:meth:`ExprStore.intern`) builds its trees at once: a leaf class
  adopts the caller's node, an interior one gets a canonical tree whose
  memo record makes re-interning it free.  The loaders keep the trees
  they rebuild.  Encoders that need trees the table lacks build them
  only for their own pass (:meth:`ExprStore._build_trees`).
* **Views.**  :class:`StoreEntry` is a read-only view of one class's
  columns, built when :meth:`~ExprStore.entry` or
  :meth:`~ExprStore.entries` asks for it.  Readers that walk the whole
  table (the snapshot and delta encoders, the content checksum) read the
  columns instead (:meth:`ExprStore._records`).  A delta's fresh classes
  come from an id log in version order, so selecting them costs the
  window, not the table.

Every write goes through one of four steps, each written once against
the table: hit by id (:meth:`InternTable.touch`, through
:meth:`~ExprStore._hit_by_id`), hit-or-add by hash
(:meth:`InternTable.hit_or_add_step`, a closure bound once per batch),
restore an entry with a known id (:meth:`InternTable.insert`, through
:meth:`~ExprStore._restore`, for the snapshot and delta loaders) and
unlink an eviction victim (:meth:`InternTable.unlink`).  The tree walk,
the arena bulk intern (:mod:`repro.store.arena_intern`), the loaders
(:mod:`repro.store.snapshot`) and the eviction loop all call them.
A store has one table and mints ids counting up from 0.  Scaling out is
separate processes, each with its own store (:mod:`repro.cluster`).

Two capacity modes:

* **eviction-free** (``max_entries=None``) -- entries live forever;
* **LRU-bounded** (``max_entries=N``) -- least-recently-used root
  entries are evicted once the table exceeds ``N``; entries still
  referenced as children of live entries are pinned.  The summary memo
  is flushed wholesale when it exceeds ``memo_limit`` objects.

Long-lived consumers (the streaming edit sessions of
:mod:`repro.api.stream`, most notably) can additionally :meth:`~ExprStore.pin`
individual classes: a pinned entry is never an eviction victim, and
neither are its descendants (children of live entries carry a positive
refcount).  Pins are counted, so overlapping sessions compose; they are
in-memory state and do not survive snapshots.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass, fields
from typing import Callable, Iterable, Iterator, Optional, Sequence

from repro.core.arena import ExprArena, plan_corpus_engine
from repro.core.combiners import HashCombiners, default_combiners
from repro.core.hashed import AlphaHashes
from repro.core.kernel import MemoRecord, summarise_tree
from repro.core.position_tree import pt_here_hash
from repro.core.statshape import StatsDictMixin
from repro.core.structure import svar_hash
from repro.core.varmap import HashedVarMap
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


def canonical_node(kind: str, label, kids: Sequence[Expr]) -> Expr:
    """Build a canonical node from its kind, its :func:`node_label` and
    its children's canonical trees ``kids``.

    The one constructor of canonical trees: the intern steps and the
    snapshot rebuild both call it.  Raises ``ValueError`` on an unknown
    kind."""
    if kind == "App":
        return App(kids[0], kids[1])
    if kind == "Var":
        return Var(label)
    if kind == "Lam":
        return Lam(label, kids[0])
    if kind == "Let":
        return Let(label, kids[0], kids[1])
    if kind == "Lit":
        return Lit(label)
    raise ValueError(f"unknown node kind {kind!r}")


def saved_stats(saved: dict) -> StoreStats:
    """A :class:`StoreStats` holding the counters a snapshot saved
    (unknown keys ignored, missing ones zero)."""
    return StoreStats(
        **{f.name: saved[f.name] for f in fields(StoreStats) if f.name in saved}
    )


class InternTable:
    """One intern table: canonical classes kept in per-class columns.

    Row ``r`` holds one class: ``hashes[r]``, ``kinds[r]``, ``sizes[r]``,
    ``kids[r]`` (child ids), ``labels[r]`` (:func:`node_label`),
    ``versions[r]``, ``refcounts[r]`` and ``trees[r]`` (the canonical
    tree, ``None`` until built).  ``order`` maps each live id to its row
    in LRU order (oldest first); ``by_hash`` maps an alpha-hash to its
    id.  Rows of evicted classes are cleared and listed in ``free`` for
    reuse, so a bounded table's columns stay near its bound; new rows
    come in chunks of an eighth of the table.  A class created here gets
    id ``next_id``, so ids count up from 0.

    ``log_versions`` and ``log_ids`` log the classes in version order,
    for :meth:`records` to select a window by bisection.  The first such
    read builds the log from the live classes; from then on each class
    created or restored is appended.  A restore out of version order, or
    evicted classes making up most of the log (``log_dead`` counts them),
    drop it (``None``) until the next read rebuilds it, so it never
    outgrows the live classes and costs nothing where no delta is read.

    The four write steps are :meth:`touch`, :meth:`hit_or_add_step`,
    :meth:`insert` and :meth:`unlink`; :meth:`link` moves refcounts.
    """

    __slots__ = (
        "order", "by_hash", "hashes", "kinds", "sizes", "kids", "labels",
        "versions", "refcounts", "trees", "free", "next_id",
        "log_versions", "log_ids", "log_dead",
    )

    def __init__(self):
        self.order: "OrderedDict[int, int]" = OrderedDict()
        self.by_hash: dict[int, int] = {}
        self.hashes: list = []
        self.kinds: list = []
        self.sizes: list = []
        self.kids: list = []
        self.labels: list = []
        self.versions: list = []
        self.refcounts: list[int] = []
        self.trees: list = []
        self.free: list[int] = []
        self.next_id = 0
        self.log_versions: Optional[list[int]] = None
        self.log_ids: Optional[list[int]] = None
        self.log_dead = 0

    def __len__(self) -> int:
        return len(self.order)

    def _start_log(self) -> None:
        """Build the id log from the live classes, in version order."""
        versions = self.versions
        live = sorted(
            zip([versions[row] for row in self.order.values()], self.order)
        )
        self.log_versions = [version for version, _ in live]
        self.log_ids = [node_id for _, node_id in live]
        self.log_dead = 0

    def _cleared(self) -> tuple[list, ...]:
        """The columns whose empty rows hold ``None`` (all but refcounts,
        which hold 0)."""
        return (
            self.hashes, self.kinds, self.sizes, self.kids, self.labels,
            self.versions, self.trees,
        )

    def _grow(self) -> None:
        """Add a chunk of empty rows to every column and to ``free``."""
        start = len(self.hashes)
        extra = max(64, start >> 3)
        for column in self._cleared():
            column.extend([None] * extra)
        self.refcounts.extend([0] * extra)
        self.free.extend(range(start + extra - 1, start - 1, -1))

    # -- reads -----------------------------------------------------------------

    def view(self, store: "ExprStore", node_id: int) -> StoreEntry:
        """A :class:`StoreEntry` of the live class ``node_id``."""
        row = self.order[node_id]
        return StoreEntry(
            store, node_id, self.hashes[row], self.kinds[row], self.sizes[row],
            self.kids[row], self.refcounts[row], self.versions[row],
        )

    def records(self, since: int = -1) -> list[tuple]:
        """``(node_id, hash, kind, size, kids, label, version, tree)`` of
        every live class in LRU order, or, for ``since >= 0``, of those
        whose version is above ``since`` in version order: the id log's
        tail past ``since``, so the cost is the window's, not the
        table's.  Classes that share a version keep their LRU order."""
        if since < 0:
            return self._scan(self.order.items(), since)
        if self.log_ids is None:
            self._start_log()
        start = bisect_right(self.log_versions, since)
        order, versions = self.order, self.versions
        window = []
        for version, node_id in zip(
            self.log_versions[start:], self.log_ids[start:]
        ):
            row = order.get(node_id)
            # An evicted class, or an older entry of one restored again.
            if row is not None and versions[row] == version:
                window.append((node_id, row))
        picked = self._scan(window, since)
        if any(a[6] == b[6] for a, b in zip(picked, picked[1:])):
            # Rare (two sources stamped independently): order by version,
            # then LRU, off the whole table.
            scanned = self._scan(self.order.items(), since)
            return sorted(scanned, key=lambda record: record[6])
        return picked

    def _scan(self, rows: Iterable[tuple[int, int]], since: int) -> list[tuple]:
        """The :meth:`records` tuple of each ``(node_id, row)`` whose
        version is above ``since``."""
        hashes, kinds, sizes, kids = self.hashes, self.kinds, self.sizes, self.kids
        labels, versions, trees = self.labels, self.versions, self.trees
        return [
            (node_id, hashes[row], kinds[row], sizes[row], kids[row], labels[row],
             versions[row], trees[row])
            for node_id, row in rows
            if versions[row] > since
        ]

    def lru_victim(self, protect: Optional[int], pinned) -> Optional[int]:
        """The least-recently-used class that may be evicted: no live
        parent, not ``protect`` and not pinned; ``None`` if there is none."""
        refcounts = self.refcounts
        for node_id, row in self.order.items():
            if refcounts[row] == 0 and node_id != protect and node_id not in pinned:
                return node_id
        return None

    # -- the write steps -------------------------------------------------------

    def touch(self, node_id: Optional[int]) -> bool:
        """The hit by id: move a live ``node_id`` to the LRU end and
        return ``True``; ``False`` for ``None`` or an id not live here."""
        order = self.order
        if node_id is None or node_id not in order:
            return False
        order.move_to_end(node_id)
        return True

    def hit_or_add_step(self, store: "ExprStore") -> Callable[..., int]:
        """The hit-or-add step by hash, bound once per batch over local
        column references.

        Returns ``hit_or_add(top, kind, size, kid_ids, label, leaf=None)``
        -> class id.  A hit on a class already keyed by ``top`` passes
        :func:`check_same_class` against the kind and size columns,
        touches its recency and counts one hit on ``store.stats``.  A miss
        writes a new row from ``kid_ids`` and ``label`` with
        ``store.version`` bumped as its stamp, adopts ``leaf`` as its tree
        when the caller has one (a Var/Lit node of the tree walk), adds
        one reference to each child, and counts one miss.
        """
        order, by_hash, free = self.order, self.by_hash, self.free
        hashes, kinds, sizes, kids = self.hashes, self.kinds, self.sizes, self.kids
        labels, versions, refcounts = self.labels, self.versions, self.refcounts
        trees, stats = self.trees, store.stats
        find, touch, take_row, grow = by_hash.get, order.move_to_end, free.pop, self._grow

        def hit_or_add(top, kind, size, kid_ids, label, leaf=None) -> int:
            node_id = find(top)
            if node_id is not None:
                row = order[node_id]
                check_same_class(kinds[row], sizes[row], top, kind, size)
                touch(node_id)
                stats.hits += 1
                return node_id
            if not free:
                grow()
            row = take_row()
            node_id = self.next_id
            self.next_id = node_id + 1
            store.version = version = store.version + 1
            hashes[row] = top
            kinds[row] = kind
            sizes[row] = size
            kids[row] = kid_ids
            labels[row] = label
            versions[row] = version
            trees[row] = leaf
            order[node_id] = row
            by_hash[top] = node_id
            log = self.log_ids
            if log is not None:
                log.append(node_id)
                self.log_versions.append(version)
            for kid in kid_ids:
                refcounts[order[kid]] += 1
            stats.misses += 1
            return node_id

        return hit_or_add

    def insert(
        self, node_id: int, top: int, kind: str, size: int,
        kid_ids: tuple[int, ...], label, tree: Expr, version: int,
    ) -> None:
        """The restore step's write: a new row for ``node_id``, its hash
        mapped to it, the id counter moved past it.  References to the
        children are the caller's (:meth:`link`)."""
        if not self.free:
            self._grow()
        row = self.free.pop()
        self.hashes[row] = top
        self.kinds[row] = kind
        self.sizes[row] = size
        self.kids[row] = kid_ids
        self.labels[row] = label
        self.versions[row] = version
        self.trees[row] = tree
        self.order[node_id] = row
        self.by_hash[top] = node_id
        self.next_id = max(self.next_id, node_id + 1)
        log = self.log_ids
        if log is not None:
            if log and version < self.log_versions[-1]:
                self.log_ids = self.log_versions = None
            else:
                log.append(node_id)
                self.log_versions.append(version)

    def unlink(self, node_id: int) -> tuple[tuple[int, ...], Optional[Expr]]:
        """Drop the live class ``node_id``; return its child ids and tree.

        Its hash is unmapped only while the mapping names it: a replayed
        store can hold an evicted-then-recreated class under two ids, and
        the newer one keeps the mapping.  The row is cleared and freed."""
        row = self.order.pop(node_id)
        top = self.hashes[row]
        if self.by_hash.get(top) == node_id:
            del self.by_hash[top]
        released = self.kids[row], self.trees[row]
        for column in self._cleared():
            column[row] = None
        self.refcounts[row] = 0
        self.free.append(row)
        if self.log_ids is not None:
            self.log_dead += 1
            if self.log_dead > 64 and 2 * self.log_dead > len(self.log_ids):
                self.log_ids = self.log_versions = None
        return released

    def link(self, kid_ids: Iterable[int], delta: int) -> None:
        """Add ``delta`` to the refcount of each live class in ``kid_ids``."""
        order, refcounts = self.order, self.refcounts
        for kid in kid_ids:
            refcounts[order[kid]] += delta


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
        return node_id in self._table.order

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
        return iter([table.view(self, node_id) for node_id in table.order])

    # -- the columns, read ------------------------------------------------------

    def _records(self, since: int = -1) -> list[tuple]:
        """:meth:`InternTable.records`: every live class in LRU order,
        or those created after the version stamp ``since`` in version
        order."""
        return self._table.records(since)

    def _tree(self, node_id: int) -> Expr:
        """The canonical tree of the live class ``node_id``: the tree
        column's, or built from the columns and kept there."""
        table = self._table
        tree = table.trees[table.order[node_id]]
        if tree is None:
            tree = self._build_trees([node_id], keep=True)[0]
        return tree

    def _build_trees(self, node_ids: Sequence[int], keep: bool) -> list[Expr]:
        """The canonical tree of each live class in ``node_ids``.

        A class whose tree column is empty is built from its kind, label
        and children's trees by one iterative walk, children first, that
        reuses every tree already built or kept, so the result is one
        shared DAG.  ``keep`` stores each built tree in the tree column;
        without it the trees are the caller's alone (the encoders'
        transient trees) and the table is only read."""
        table = self._table
        order, trees = table.order, table.trees
        built: dict[int, Expr] = {}
        for root in node_ids:
            stack = [root]
            while stack:
                node_id = stack[-1]
                if node_id in built:
                    stack.pop()
                    continue
                row = order[node_id]
                tree = trees[row]
                if tree is None:
                    kid_ids = table.kids[row]
                    kids = []
                    for kid in kid_ids:
                        kid_tree = built.get(kid)
                        if kid_tree is None:
                            kid_tree = trees[order[kid]]
                        if kid_tree is None:
                            stack.append(kid)
                        else:
                            kids.append(kid_tree)
                    if len(kids) < len(kid_ids):
                        continue  # back here once the missing children are built
                    tree = canonical_node(table.kinds[row], table.labels[row], kids)
                    if keep:
                        trees[row] = tree
                built[node_id] = tree
                stack.pop()
        return [built[node_id] for node_id in node_ids]

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

    def cached_summary(
        self, node: Expr
    ) -> Optional[tuple[int, HashedVarMap, int]]:
        """``(structure_hash, varmap, top_hash)`` for a subtree object
        this store has hashed before, else ``None``.

        The returned map wraps the record's frozen entries without a
        copy, so callers must never mutate it: take a
        :meth:`~repro.core.varmap.HashedVarMap.snapshot` first, as the
        incremental hasher's ancestor re-summarise does.
        """
        rec = self._memo.get(id(node))
        if rec is None:
            return None
        return rec.s_hash, HashedVarMap(rec.vm_entries, rec.vm_hash), rec.top

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

        ``engine`` picks the batch strategy: ``"tree"`` walks each item
        through the memoised summariser; ``"arena"`` compiles the corpus
        into a post-order array arena and runs the array kernel
        (bit-identical hashes, no per-node memo warming -- see
        :mod:`repro.store.arena_intern`); ``"auto"`` (default) takes the arena above the planner's one
        threshold constant (:data:`repro.api.plan.ARENA_NODE_THRESHOLD`,
        resolved through :func:`repro.core.arena.plan_corpus_engine`).
        """
        corpus = exprs if isinstance(exprs, list) else list(exprs)
        planned = plan_corpus_engine(engine, corpus) if corpus else engine
        if corpus and planned == "arena":
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
        warmth is the only cost of a flush.
        """
        if self.memo_limit is not None:
            if len(self._memo) > self.memo_limit:
                self._memo.clear()
            if len(self._arena_root_memo) > self.memo_limit:
                self._arena_root_memo.clear()
            # The compile cache pins a whole corpus: a memo-bounded
            # store gives up the hash->intern reuse to keep its
            # memory contract.
            self._arena_compile_cache = None

    # -- persistence -----------------------------------------------------------

    def save(self, path: str, meta: Optional[dict] = None) -> None:
        """Snapshot this store to ``path`` (intern table + summary memo).

        See :mod:`repro.store.snapshot` for the versioned, checksummed
        JSON-lines format; ``meta`` rides along in the header.
        """
        from repro.store.snapshot import write_snapshot

        write_snapshot(self, path, meta)

    @classmethod
    def load(cls, path: str) -> "ExprStore":
        """Rebuild a store saved with :meth:`save` (fully warm)."""
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
            kid_ids = tuple(ids[len(ids) - arity :]) if arity else ()
            if arity:
                del ids[len(ids) - arity :]
            rec.node_id = self._intern_one(node, rec, kid_ids, hit_or_add)
            ids.append(rec.node_id)
        assert len(ids) == 1
        # Evict only once the whole tree is interned: children created
        # moments ago must not vanish before their parent references them.
        self._evict_if_needed(protect=ids[0])
        self._maybe_flush_memo()
        return ids[0]

    def intern_many(self, exprs: Iterable[Expr], engine: str = "auto") -> list[int]:
        """Batch :meth:`intern`: one id per input, duplicates collapse.

        ``engine="arena"`` (or ``"auto"`` above the node threshold)
        answers items already interned as the same object with one root
        hit each, as the serial path does, and resolves every unique
        subtree class of the rest against the intern table directly,
        reusing the compile of a :meth:`hash_corpus` call over the same
        items -- same classes, hashes and ids as the serial path.
        ``hits``/``misses`` count one per repeated item and one per
        unique arena node of the rest, not per subtree occurrence (see
        :mod:`repro.store.arena_intern`).  LRU-bounded stores enforce
        their bound once at the end of the batch (arena child links
        need every class live mid-batch), so the table may transiently
        exceed ``max_entries`` by the batch's unique-class count.
        """
        corpus = exprs if isinstance(exprs, list) else list(exprs)
        planned = plan_corpus_engine(engine, corpus) if corpus else engine
        if corpus and planned == "arena":
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

        Returns the id remapping ``{other_node_id: self_node_id}``.
        Interning the canonical representatives largest-first lets the
        smaller classes resolve as memo/intern hits inside the larger
        trees; hashes are preserved bit-for-bit, ids are re-assigned by
        this store.  ``other`` is not modified.  (The service's
        snapshot-upload endpoint merges client stores through it.)
        """
        self.resolve_combiners(other.combiners)
        mapping: dict[int, int] = {}
        for entry in sorted(
            other.entries(), key=lambda e: e.size, reverse=True
        ):
            mapping[entry.node_id] = self.intern(entry.expr)
        return mapping

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

    def _hit_or_add_step(self) -> Callable[..., int]:
        """The hit-or-add step by hash, bound once per batch:
        ``hit_or_add(top, kind, size, kid_ids, label, leaf=None)`` -> class
        id (see :meth:`InternTable.hit_or_add_step`).  Binding once keeps
        the tree walk and the arena resolve loop off per-row attribute
        lookups."""
        return self._table.hit_or_add_step(self)

    def _intern_one(
        self,
        node: Expr,
        rec: MemoRecord,
        kid_ids: tuple[int, ...],
        hit_or_add: Callable[..., int],
    ) -> int:
        """One tree node through the hit-or-add step.  A leaf class it
        creates adopts ``node`` itself, which already has its memo
        record; an interior one gets its canonical tree built at once,
        with the tree's record seeded from ``rec`` (the canonical tree is
        made of canonical subtrees, so hashing it later can be a pure
        memo hit)."""
        version = self.version
        node_id = hit_or_add(
            rec.top,
            node.kind,
            node.size,
            kid_ids,
            node_label(node),
            None if kid_ids else node,
        )
        if kid_ids and self.version != version:  # a class was created
            self._seed_memo(
                MemoRecord(
                    self._tree(node_id),
                    rec.s_hash,
                    dict(rec.vm_entries),
                    rec.vm_hash,
                    rec.top,
                ),
                node_id,
            )
        return node_id

    def _seed_memo(self, record: MemoRecord, node_id: int) -> None:
        """Install ``record`` (a canonical tree's summary) as the memo
        record of class ``node_id``.

        Only when the memo still covers every canonical child, though --
        a record must always imply full-subtree coverage (hashing and
        interning resume above cached roots without descending), and a
        flush may have dropped the children's records.  A tree that
        already has a record keeps it."""
        memo, node = self._memo, record.node
        if id(node) in memo or not all(
            id(kid) in memo for kid in node.children()
        ):
            return
        record.node_id = node_id
        memo[id(node)] = record

    def _holds(self, node_id: int, hash_value: int, kind: str, size: int) -> bool:
        """Whether the live entry ``node_id`` already has this content
        (``False`` if the id is not live).  A live entry with another
        hash, kind or size raises
        :class:`~repro.store.snapshot.SnapshotError`: the document does
        not describe this store."""
        table = self._table
        row = table.order.get(node_id)
        if row is None:
            return False
        if (table.hashes[row], table.kinds[row], table.sizes[row]) != (
            hash_value,
            kind,
            size,
        ):
            from repro.store.snapshot import SnapshotError

            raise SnapshotError(
                f"entry {node_id} disagrees with the store's existing "
                "entry (hash/kind/size mismatch): the receiver does not "
                "mirror the emitting store"
            )
        return True

    def _live_size(self, node_id: int) -> Optional[int]:
        """The size of the live class ``node_id``, or ``None`` if it is
        not live; no LRU touch."""
        table = self._table
        row = table.order.get(node_id)
        return None if row is None else table.sizes[row]

    def _restore(
        self,
        node_id: int,
        kind: str,
        size: int,
        kid_ids: tuple[int, ...],
        version: int,
        summary: MemoRecord,
    ) -> bool:
        """Install a saved entry under its known id; ``True`` if installed.

        ``summary`` is the entry's saved memo record: its ``node`` is
        the canonical tree, its ``top`` the class hash.  An entry
        already live with the same content is skipped (``False``), so
        replays are idempotent; other content raises (:meth:`_holds`).
        The id counter and the store version advance past the entry,
        the hash maps to it even when an older live id holds the same
        hash (the newest id wins), the children gain a reference and
        the record is seeded under :meth:`_seed_memo`'s coverage rule.
        Callers restore children before parents (ascending size).
        """
        if self._holds(node_id, summary.top, kind, size):
            return False
        for kid in kid_ids:
            if kid not in self:
                raise KeyError(kid)
        table = self._table
        table.link(kid_ids, 1)
        tree = summary.node
        table.insert(
            node_id, summary.top, kind, size, kid_ids, node_label(tree), tree, version
        )
        self.stats.misses += 1
        self.version = max(self.version, version)
        self._seed_memo(summary, node_id)
        return True

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
        self._table.link(kid_ids, -1)
        rec = None if tree is None else self._memo.get(id(tree))
        if rec is not None:
            rec.node_id = None

    # -- eviction --------------------------------------------------------------

    def _evict_if_needed(self, protect: Optional[int] = None) -> None:
        if self.max_entries is None:
            return
        table = self._table
        while len(table) > self.max_entries:
            victim = table.lru_victim(protect, self._pinned)
            if victim is None:
                # Every remaining entry is either the protected fresh root,
                # pinned by a session, or referenced by a live parent; the
                # table cannot shrink further without breaking child links.
                break
            self._unlink(victim)
