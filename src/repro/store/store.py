"""A hash-consed expression store keyed by alpha-hashes.

The paper's O(n log n) alpha-hash (Section 5) annotates every
subexpression with a code that is equal iff the subtrees are
alpha-equivalent -- exactly the key a content-addressed store needs.
:class:`ExprStore` builds on that in two layers:

* **Canonical entries.**  Interning an expression assigns every
  alpha-equivalence class of its subexpressions one integer node id and
  one canonical representative tree whose children are themselves
  canonical (a maximally-shared DAG).  ``\\x. x+7`` and ``\\y. y+7``
  intern to the same id.

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

This module owns the intern table.  Every write goes through one of
four :class:`ExprStore` steps, each written against the flat table:
hit by id (:meth:`~ExprStore._hit_by_id`), hit-or-add by hash
(:meth:`~ExprStore._hit_or_add_step`, bound once per batch), restore an
entry with a known id (:meth:`~ExprStore._restore`, for the snapshot and
delta loaders) and unlink an eviction victim
(:meth:`~ExprStore._unlink`).  The tree walk, the arena bulk intern
(:mod:`repro.store.arena_intern`), the loaders
(:mod:`repro.store.snapshot`) and the eviction loops all call them;
:class:`~repro.store.sharded.ShardedExprStore` overrides them only for
shard routing, shard-encoded ids, shard locks and per-shard counters.

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

from collections import OrderedDict
from dataclasses import dataclass, fields
from typing import Callable, Iterable, Iterator, Optional, Sequence

from repro.core.arena import (
    ExprArena,
    engine_family,
    engine_kernel,
    plan_corpus_engine,
)
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


@dataclass
class StoreEntry:
    """One canonical node: an alpha-equivalence class representative.

    ``children`` are node ids of canonical children; ``expr`` is the
    canonical representative tree (its subtrees are the canonical
    representatives of the child entries, so entries form a DAG).
    ``refcount`` counts parent entries referencing this one -- the LRU
    mode only evicts entries with ``refcount == 0``.  ``version`` is the
    store's monotonic intern stamp at creation time: entry ``version``
    values are unique and strictly increasing in creation order, which
    is what incremental snapshot deltas
    (:func:`repro.store.snapshot.delta_to_bytes`) select on.
    """

    node_id: int
    hash: int
    kind: str
    size: int
    children: tuple[int, ...]
    expr: Expr
    refcount: int = 0
    version: int = 0


def check_same_class(entry: StoreEntry, top: int, kind: str, size: int) -> None:
    """The collision guard: an intern hit on ``entry`` by the alpha-hash
    ``top`` must have the entry's kind and size.

    The one copy of this check; a mismatch is a hash collision between
    two terms that are not alpha-equivalent, and raises
    :class:`StoreCollisionError` instead of conflating them."""
    if entry.kind != kind or entry.size != size:
        raise StoreCollisionError(
            f"alpha-hash 0x{top:x} maps both a {entry.kind} of "
            f"size {entry.size} and a {kind} of size {size}"
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
        #: node_id -> entry, in LRU order (oldest first).
        self._entries: "OrderedDict[int, StoreEntry]" = OrderedDict()
        #: alpha-hash -> node_id.
        self._by_hash: dict[int, int] = {}
        #: node_id -> pin count; pinned classes are never LRU victims.
        self._pinned: dict[int, int] = {}
        self._next_id = 0
        #: Monotonic intern stamp: +1 per canonical entry ever created
        #: (never reused, never decremented -- evictions leave gaps).
        #: ``delta_to_bytes(store, since)`` ships exactly the live
        #: entries with ``entry.version > since``; replicas track the
        #: primary's counter through snapshots and deltas.
        self.version = 0

    # -- queries ---------------------------------------------------------------

    def __len__(self) -> int:
        """Number of live canonical entries."""
        return len(self._entries)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._entries

    def entry(self, node_id: int) -> StoreEntry:
        """The canonical entry for ``node_id`` (touches LRU recency)."""
        entry = self._entries[node_id]
        self._entries.move_to_end(node_id)
        return entry

    def expr_of(self, node_id: int) -> Expr:
        """Canonical representative tree of the class ``node_id``."""
        return self.entry(node_id).expr

    def hash_of(self, node_id: int) -> int:
        """The alpha-hash keying the class ``node_id``."""
        return self.entry(node_id).hash

    def size_of(self, node_id: int) -> int:
        """Node count of any member of the class ``node_id``."""
        return self.entry(node_id).size

    def lookup_hash(self, hash_value: int) -> Optional[int]:
        """Node id of the class with this alpha-hash, if interned."""
        return self._by_hash.get(hash_value)

    def entries(self) -> Iterator[StoreEntry]:
        """All live entries, least-recently-used first."""
        return iter(list(self._entries.values()))

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
        :mod:`repro.store.arena_intern`), with ``"arena-vec"`` /
        ``"arena-scalar"`` forcing the vectorized or scalar kernel;
        ``"auto"`` (default) takes the arena above the planner's one
        threshold constant (:data:`repro.api.plan.ARENA_NODE_THRESHOLD`,
        resolved through :func:`repro.core.arena.plan_corpus_engine`).
        """
        corpus = exprs if isinstance(exprs, list) else list(exprs)
        planned = plan_corpus_engine(engine, corpus) if corpus else engine
        if corpus and engine_family(planned) == "arena":
            from repro.store.arena_intern import hash_corpus_arena

            return hash_corpus_arena(self, corpus, kernel=engine_kernel(planned))
        return [self.hash_expr(e) for e in corpus]

    def hash_arena(
        self, arena: ExprArena, roots: Sequence[int], kernel: str = "auto"
    ) -> list[int]:
        """Root alpha-hashes of a corpus already compiled into ``arena``
        (one index per item in ``roots``), through the arena kernel.

        The wire path's entry point: the server compiles request
        documents with :meth:`~repro.core.arena.ExprArena.extend_wire`
        and hashes them here without building a tree.  No cache keeps
        the items (see :func:`repro.store.arena_intern.hash_arena`).
        """
        from repro.store.arena_intern import hash_arena

        return hash_arena(self, arena, roots, kernel=kernel)

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
        if corpus and engine_family(planned) == "arena":
            from repro.store.arena_intern import intern_corpus_arena

            return intern_corpus_arena(self, corpus, kernel=engine_kernel(planned))
        return [self.intern(e) for e in corpus]

    def intern_arena(
        self,
        arena: ExprArena,
        roots: Sequence[int],
        kernel: str = "auto",
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

        return intern_arena(self, arena, roots, kernel=kernel, check=check)

    def merge_store(self, other: "ExprStore") -> dict[int, int]:
        """Fold every canonical class of ``other`` into this store.

        Returns the id remapping ``{other_node_id: self_node_id}``.
        Interning the canonical representatives largest-first lets the
        smaller classes resolve as memo/intern hits inside the larger
        trees; hashes are preserved bit-for-bit, ids are re-assigned by
        this store.  ``other`` is not modified.  (The sharded store
        inherits this as-is -- ``self.intern`` is the override point
        that routes every class through its lock-striped shards; the
        service's snapshot-upload endpoint merges client stores through
        it.)
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
    # Nothing outside this module and repro.store.sharded writes the
    # table; every write is one of the steps below.  The sharded store
    # overrides each one only for routing, ids, locks and counters.

    def _get_entry(self, node_id: int) -> Optional[StoreEntry]:
        """The live entry ``node_id`` or ``None``, without LRU side effects."""
        return self._entries.get(node_id)

    def _hit_by_id(self, node_id: Optional[int]) -> bool:
        """The intern hit by id: if ``node_id`` names a live class,
        touch its LRU recency, count one hit and return ``True``.

        The tree walk (:meth:`intern`) takes it for every subtree object
        interned before, the arena bulk intern for every repeated corpus
        item (:mod:`repro.store.arena_intern`).  ``None`` (never
        interned) and evicted ids miss.
        """
        entries = self._entries
        if node_id is None or node_id not in entries:
            return False
        entries.move_to_end(node_id)
        self.stats.hits += 1
        return True

    def _hit_or_add_step(self) -> Callable[..., int]:
        """The hit-or-add step by hash, bound once per batch.

        Returns ``hit_or_add(top, kind, size, kid_ids, label, leaf=None)``
        -> class id.  A hit on a class already keyed by ``top`` passes
        :func:`check_same_class`, touches its recency and counts one
        hit.  A miss creates the class from ``kid_ids`` (its children's
        ids) and ``label`` (see :func:`canonical_node`), or adopts
        ``leaf`` as a Var/Lit class's canonical tree when the caller
        has one, and counts one miss.  Binding once keeps the tree walk
        and the arena resolve loop off per-row attribute lookups.
        """
        entries, by_hash, stats = self._entries, self._by_hash, self.stats

        def hit_or_add(top, kind, size, kid_ids, label, leaf=None) -> int:
            node_id = by_hash.get(top)
            if node_id is not None:
                check_same_class(entries[node_id], top, kind, size)
                entries.move_to_end(node_id)
                stats.hits += 1
                return node_id
            tree = leaf
            if tree is None:
                tree = canonical_node(
                    kind, label, [entries[kid].expr for kid in kid_ids]
                )
            node_id = self._next_id
            self._next_id = node_id + 1
            self.version += 1
            entries[node_id] = StoreEntry(
                node_id, top, kind, size, kid_ids, tree, 0, self.version
            )
            by_hash[top] = node_id
            for kid in kid_ids:
                entries[kid].refcount += 1
            stats.misses += 1
            return node_id

        return hit_or_add

    def _intern_one(
        self,
        node: Expr,
        rec: MemoRecord,
        kid_ids: tuple[int, ...],
        hit_or_add: Callable[..., int],
    ) -> int:
        """One tree node through the hit-or-add step.  A leaf class it
        creates adopts ``node`` itself, which already has its memo
        record; an interior one gets its canonical tree's record seeded
        from ``rec`` (the canonical tree is made of canonical subtrees,
        so hashing it later can be a pure memo hit)."""
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
            canonical = self._get_entry(node_id).expr
            self._seed_memo(
                MemoRecord(
                    canonical, rec.s_hash, dict(rec.vm_entries), rec.vm_hash, rec.top
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
        present = self._get_entry(node_id)
        if present is None:
            return False
        if (present.hash, present.kind, present.size) != (hash_value, kind, size):
            from repro.store.snapshot import SnapshotError

            raise SnapshotError(
                f"entry {node_id} disagrees with the store's existing "
                "entry (hash/kind/size mismatch): the receiver does not "
                "mirror the emitting store"
            )
        return True

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
            if self._get_entry(kid) is None:
                raise KeyError(kid)
        version_after = max(self.version, version)
        self._adjust_refcounts(kid_ids, 1)
        self._install(
            StoreEntry(
                node_id, summary.top, kind, size, kid_ids, summary.node, 0, version
            )
        )
        self.version = version_after
        self._seed_memo(summary, node_id)
        return True

    def _install(self, entry: StoreEntry) -> None:
        """Restore's table write: insert ``entry``, map its hash to it,
        move the id counter past it and count one miss."""
        self._entries[entry.node_id] = entry
        self._by_hash[entry.hash] = entry.node_id
        self._next_id = max(self._next_id, entry.node_id + 1)
        self.stats.misses += 1

    def _restore_counters(
        self,
        stats: dict,
        next_ids: Sequence[int],
        shard_stats: Sequence[dict] = (),
    ) -> None:
        """Adopt a loaded snapshot's saved counters.

        ``stats`` replaces the store's counters.  ``next_ids`` holds
        each table's saved id counter (the flat store has one table);
        a counter only ever advances, since restoring already moved it
        past every restored id.  ``shard_stats`` is for sharded stores.
        """
        self.stats = saved_stats(stats)
        for next_id in next_ids:
            self._next_id = max(self._next_id, next_id)

    def _adjust_refcounts(self, kid_ids: Iterable[int], delta: int) -> None:
        """Add ``delta`` to the refcount of each live child in ``kid_ids``."""
        entries = self._entries
        for kid in kid_ids:
            entries[kid].refcount += delta

    def _unlink(self, node_id: int) -> None:
        """Drop the eviction victim ``node_id`` from the table.

        Its hash is unmapped only while the mapping names the victim: a
        replayed store can hold an evicted-then-recreated class under
        two ids, and the newer one keeps the mapping."""
        entry = self._entries.pop(node_id)
        if self._by_hash.get(entry.hash) == node_id:
            del self._by_hash[entry.hash]
        self.stats.evictions += 1
        self._release(entry)

    def _release(self, entry: StoreEntry) -> None:
        """An unlinked entry's last step: its children lose a reference
        and its canonical tree's memo record forgets the id."""
        self._adjust_refcounts(entry.children, -1)
        rec = self._memo.get(id(entry.expr))
        if rec is not None:
            rec.node_id = None

    # -- eviction --------------------------------------------------------------

    def _evict_if_needed(self, protect: Optional[int] = None) -> None:
        if self.max_entries is None:
            return
        while len(self._entries) > self.max_entries:
            victim = None
            for node_id, entry in self._entries.items():
                if (
                    entry.refcount == 0
                    and node_id != protect
                    and node_id not in self._pinned
                ):
                    victim = node_id
                    break
            if victim is None:
                # Every remaining entry is either the protected fresh root,
                # pinned by a session, or referenced by a live parent; the
                # table cannot shrink further without breaking child links.
                break
            self._unlink(victim)
