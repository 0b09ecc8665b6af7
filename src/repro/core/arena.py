"""Arena-compiled corpora: post-order struct-of-arrays + an array-speed kernel.

The serial hashing paths walk a Python object graph: every node costs
attribute lookups, a tuple push/pop on an explicit stack, and dict-keyed
memo probes by ``id()``.  For large corpora that interpreter overhead --
not the O(n log n) map work the paper bounds -- dominates wall time.
This module *compiles* a corpus once into an :class:`ExprArena`:

* **Post-order struct-of-arrays.**  One flat index space; node ``i``'s
  children always sit at indices ``< i``.  Per node the arena stores an
  opcode (``op``), child indices (``left``/``right``), an interned
  name/literal id (``aux``), and the subtree's ``sizes``/``depths`` --
  six contiguous arrays instead of a tree of objects.

* **Flatten-time deduplication.**  Structurally identical subtrees
  collapse to one arena node while flattening (alpha-hash summaries are
  compositional, Section 3, so hashing each structural class once is
  sound).  Real corpora repeat small subtrees massively -- the 600k-node
  benchmark corpus compiles to ~41% unique nodes -- and every duplicate
  is work the kernel never does.

* **An iterative single-pass kernel.**  :func:`arena_hash` runs the
  paper's Section 5 algorithm over the arrays: integer-indexed memo
  lists instead of ``id()``-keyed dicts, no recursion, no per-node
  memo-record snapshots, and (at the default single-lane widths) the
  splitmix64 combiner chains inlined into the loop.  Hashes are
  **bit-identical** to :func:`repro.core.hashed.alpha_hash_all` -- the
  test wall checks this on adversarial corpora at several widths.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Optional, Sequence

from repro.core.combiners import (
    _GOLDEN,
    _M0,
    _M1,
    _MASK64,
    HashCombiners,
    default_combiners,
)
from repro.core.kernel import combine_chain
from repro.core.position_tree import pt_here_hash
from repro.core.structure import slit_hash, svar_hash
from repro.lang.expr import App, Expr, Lam, Let, Lit, Var
from repro.lang.sexpr import WIRE_FORMAT, SexprError, literal_value

try:  # NumPy is an optional extra (``repro[vec]``): the vectorized
    import numpy as _np  # kernel needs it, everything else falls back.
except ImportError:  # pragma: no cover - exercised via the no-numpy CI leg
    _np = None

#: True when the vectorized kernel is available in this interpreter.
HAVE_NUMPY = _np is not None

__all__ = [
    "ExprArena",
    "arena_hash",
    "arena_summaries",
    "arena_hash_vec",
    "arena_hash_any",
    "flatten_corpus",
    "ARENA_MIN_NODES",
    "VEC_MIN_WIDTH",
    "ARENA_ENGINES",
    "ENGINE_CHOICES",
    "HAVE_NUMPY",
    "engine_family",
    "engine_kernel",
    "resolve_kernel",
    "resolve_engine",
    "plan_corpus_engine",
    "OP_VAR",
    "OP_LIT",
    "OP_LAM",
    "OP_APP",
    "OP_LET",
]

OP_VAR, OP_LIT, OP_LAM, OP_APP, OP_LET = 0, 1, 2, 3, 4

#: The kind name (``Expr.kind``) of each opcode, by opcode.
OP_KINDS = ("Var", "Lit", "Lam", "App", "Let")

#: The node classes :meth:`ExprArena.flatten` compiles (exact types).
_NODE_TYPES = (Var, Lit, Lam, App, Let)


def _foreign_node(node: object) -> TypeError:
    return TypeError(
        f"cannot flatten non-expression node of type {type(node).__name__}"
    )


#: Engine names that select the arena family.  ``"arena"`` lets the
#: kernel auto-pick (:func:`resolve_kernel`'s width rule, scalar without
#: NumPy); the suffixed forms force one kernel -- ``arena-vec``
#: errors without NumPy, ``arena-scalar`` exists mostly so benchmarks
#: and the differential wall can pin the fallback.
ARENA_ENGINES = ("arena", "arena-vec", "arena-scalar")

#: Every value accepted where an ``engine`` is requested (CLI, requests,
#: session config).  One tuple so the choice lists cannot drift.
ENGINE_CHOICES = ("auto", "tree") + ARENA_ENGINES


def engine_family(engine: str) -> str:
    """Collapse an engine name to its family: ``"arena"`` or ``"tree"``.

    Call sites that only care *which pipeline* runs (the store's batch
    gates, the planner) compare against the family, so ``arena-vec``
    and ``arena-scalar`` route exactly like ``arena``.
    """
    return "arena" if engine in ARENA_ENGINES else engine


def engine_kernel(engine: str) -> str:
    """The kernel request carried by an engine name.

    ``"auto"`` for the bare families (:func:`resolve_kernel` then
    applies the width rule), ``"vec"``/``"scalar"`` for the pinned
    forms.
    """
    if engine == "arena-vec":
        return "vec"
    if engine == "arena-scalar":
        return "scalar"
    return "auto"


#: Corpus size (total nodes) from which ``engine="auto"`` picks the
#: arena; the arena's kernel is then chosen by width
#: (:data:`VEC_MIN_WIDTH`).  The sweep below shows the best arena
#: kernel ahead of the tree engine at every size it measures (from ~540
#: nodes of 60-node items, ``Expr`` and wire input; 2-CPU host, NumPy
#: 2.4)::
#:
#:     PYTHONPATH=src python benchmarks/run_bench.py --cells threshold \
#:         --repeats 5 --out /tmp/threshold.json
#:
#: Small requests still plan the tree engine, pending a measurement on
#: a workload that sends small interns.  Override per call with
#: ``engine="arena"`` / ``engine="tree"``.  This is the **one**
#: auto-engine literal in the repository: the planner
#: re-exports it as :data:`repro.api.plan.ARENA_NODE_THRESHOLD` (the
#: policy-level name), and every batch entry point resolves ``"auto"``
#: against it through :func:`resolve_engine` / :func:`plan_corpus_engine`.
ARENA_MIN_NODES = 4_000

#: Walked nodes per level from which the ``auto`` arena kernel is the
#: vectorized one (the width rule, applied by :func:`resolve_kernel`).
#: A corpus' walked nodes per level is its total node count divided by
#: the depth of its deepest root.  The vectorized kernel pays a fixed
#: number of NumPy calls per level and the scalar kernel a fixed cost
#: per node, so on deep, thin corpora the scalar kernel wins by ~20x (a
#: ``let`` chain of 4k-8k nodes walks two nodes per level: scalar 12-31
#: ms, vec 330-680 ms for the kernel alone), and on wide ones the
#: vectorized kernel does (~1k walked nodes per level, 35k nodes: 15 ms
#: against 54-75).  Set just above the crossover of the kernels alone that
#: the same sweep measures: two runs put it at 79 and at 94 walked nodes
#: per level of 60-node items, and scalar still wins at 66 (2-CPU host,
#: NumPy 2.4).  ``service`` requests walk 131-176 nodes per level and
#: ``corpus`` batches ~1,400.
VEC_MIN_WIDTH = 100


def resolve_kernel(
    kernel: str = "auto", nodes: Optional[int] = None, depth: int = 1
) -> str:
    """Normalise a kernel request to ``"vec"`` or ``"scalar"``.

    The one place the ``auto`` kernel is chosen: the planner and the
    store's arena steps both call it.  ``"auto"`` picks the vectorized
    kernel when NumPy imported and the corpus -- ``nodes`` walked nodes,
    ``depth`` the height of its deepest root -- has at least
    :data:`VEC_MIN_WIDTH` walked nodes per level; without ``nodes`` the
    shape is unknown and counts as wide.  Forcing ``"vec"`` without
    NumPy is an error rather than a silent fallback (the caller asked
    for a specific performance envelope).
    """
    if kernel == "auto":
        if HAVE_NUMPY and (nodes is None or nodes >= VEC_MIN_WIDTH * depth):
            return "vec"
        return "scalar"
    if kernel == "vec":
        if not HAVE_NUMPY:
            raise ValueError(
                "kernel 'vec' (engine 'arena-vec') requires NumPy; "
                "install the repro[vec] extra or use 'arena-scalar'"
            )
        return "vec"
    if kernel == "scalar":
        return "scalar"
    raise ValueError(
        f"kernel must be 'auto', 'vec' or 'scalar', got {kernel!r}"
    )


def resolve_engine(
    engine: str, total_nodes: int, threshold: Optional[int] = None
) -> str:
    """Normalise an ``engine`` request to ``"arena"`` or ``"tree"``.

    ``threshold`` defaults to :data:`ARENA_MIN_NODES`; the planner
    passes its own (same value unless deliberately retuned) so policy
    stays swappable in exactly one place.
    """
    if engine == "auto":
        limit = ARENA_MIN_NODES if threshold is None else threshold
        return "arena" if total_nodes >= limit else "tree"
    if engine == "tree" or engine in ARENA_ENGINES:
        return engine
    raise ValueError(
        f"engine must be one of {', '.join(ENGINE_CHOICES)}, got {engine!r}"
    )


def plan_corpus_engine(engine: str, corpus: Sequence[Expr]) -> str:
    """The concrete engine for hashing/interning ``corpus``.

    The one shared ``auto`` decision point for the store's batch entry
    points: total nodes are counted here (``Expr.size`` is O(1) per
    root) and compared against the single threshold constant, so no
    call site carries its own size loop or literal."""
    if engine == "auto":
        return resolve_engine(engine, sum(expr.size for expr in corpus))
    return resolve_engine(engine, 0)  # validates the name


class ExprArena:
    """A corpus compiled to post-order struct-of-arrays form.

    Node ``i`` is described by:

    ``op[i]``
        One of :data:`OP_VAR`, :data:`OP_LIT`, :data:`OP_LAM`,
        :data:`OP_APP`, :data:`OP_LET`.
    ``left[i]`` / ``right[i]``
        Child arena indices (always ``< i``); ``-1`` when absent.  Lam
        keeps its body in ``left``; Let keeps ``bound`` in ``left`` and
        ``body`` in ``right``.
    ``aux[i]``
        Interned id: a ``names`` index for Var occurrences and Lam/Let
        binders, a ``literals`` index for Lit, ``-1`` for App.
    ``sizes[i]`` / ``depths[i]``
        Node count and height of the subtree (the structure tag of
        Section 4.8 is ``sizes[i]``; ``depths`` orders the vectorized
        kernel's levels).

    The columns are ``array`` objects of signed ints: ``"q"`` here, and
    ``"i"`` for ``left``/``right``/``aux`` in an arena decoded from a
    request body (:func:`repro.service.arena_body.decode_body`).

    Structurally identical subtrees share one index, so the arena is a
    maximally-shared DAG over *syntactic* classes (finer than the
    store's alpha-classes: two alpha-equivalent-but-renamed subtrees
    keep distinct arena nodes and collapse later, at intern time).

    Instances grow append-only through :meth:`flatten` and may be reused
    across corpora.
    """

    __slots__ = (
        "op",
        "left",
        "right",
        "aux",
        "sizes",
        "depths",
        "names",
        "literals",
        "_name_ids",
        "_lit_ids",
        "_struct",
    )

    def __init__(self) -> None:
        self.op = bytearray()
        self.left = array("q")
        self.right = array("q")
        self.aux = array("q")
        self.sizes = array("q")
        self.depths = array("q")
        self.names: list[str] = []
        self.literals: list = []
        self._name_ids: dict[str, int] = {}
        self._lit_ids: dict[tuple, int] = {}
        self._struct: dict = {}

    # -- queries -------------------------------------------------------------

    def __len__(self) -> int:
        """Number of unique arena nodes."""
        return len(self.op)

    def stats(self) -> dict:
        """Shape accounting: unique nodes and leaf-table sizes."""
        return {
            "nodes": len(self.op),
            "names": len(self.names),
            "literals": len(self.literals),
            "bytes": (
                len(self.op)
                + sum(
                    arr.itemsize * len(arr)
                    for arr in (self.left, self.right, self.aux, self.sizes, self.depths)
                )
            ),
        }

    # -- compilation ---------------------------------------------------------

    def flatten(self, exprs: Iterable[Expr]) -> list[int]:
        """Compile ``exprs`` into the arena; return one root index each.

        Deduplicates three ways while walking: by object identity within
        the call (a shared interior object is walked once), by
        structural identity against everything already in the arena, and
        by leaf-table interning of names and literal values.  The walk
        is iterative and pops each node once (see :meth:`_flatten_walk`),
        so degenerate depth-50k chains compile fine.  A failed flatten
        (a foreign node kind) raises ``TypeError`` and leaves the arena
        exactly as it was (see :meth:`_compile`).
        """
        return self._compile(self._flatten_walk, exprs)

    def extend_wire(self, docs: Iterable) -> list[int]:
        """Compile ``repro-expr-v1`` wire documents straight into the
        arena; return one root index each.

        The flat postorder form of :func:`repro.lang.sexpr.to_wire` is
        already the arena's order, so each entry becomes one row (or a
        structural-dedup hit) with no :class:`Expr` built on the way:
        exactly the columns, ``names`` and ``literals`` that
        ``flatten([from_wire(doc) for doc in docs])`` produces.  Input is
        accepted and rejected exactly as :func:`~repro.lang.sexpr.from_wire`
        does, with the same :class:`~repro.lang.sexpr.SexprError` text,
        and a rejected call leaves the arena as it was.
        """
        return self._compile(self._wire_walk, docs)

    def _compile(self, walk, source) -> list[int]:
        """Run one compile ``walk`` over ``source``: flush or roll back.

        The walk writes the new rows into plain-list column buffers
        (list appends are cheaper than ``array`` ones), flushed into the
        arrays once at the end, while it writes the structural index
        and leaf tables inline -- so on error those tables are rolled
        back, and the arena is left exactly as it was, safe to keep
        using.
        """
        struct = self._struct
        count0 = len(self.op)
        n_names0 = len(self.names)
        n_lits0 = len(self.literals)

        buffers: tuple[list[int], ...] = ([], [], [], [], [], [])
        roots: list[int] = []
        try:
            walk(source, roots, *buffers)
        except BaseException:
            # The buffered columns are simply dropped; the tables would
            # otherwise point at rows that never get flushed.
            from repro.core.hashed import lit_cache_key

            for name in self.names[n_names0:]:
                del self._name_ids[name]
            del self.names[n_names0:]
            for value in self.literals[n_lits0:]:
                del self._lit_ids[lit_cache_key(value)]
            del self.literals[n_lits0:]
            self._struct = {
                key: idx for key, idx in struct.items() if idx < count0
            }
            raise

        op_b, left_b, right_b, aux_b, sizes_b, depths_b = buffers
        self.op.extend(op_b)
        self.left.extend(left_b)
        self.right.extend(right_b)
        self.aux.extend(aux_b)
        self.sizes.extend(sizes_b)
        self.depths.extend(depths_b)
        return roots

    def _flatten_walk(
        self, exprs, roots, op_b, left_b, right_b, aux_b, sizes_b, depths_b
    ) -> None:
        """The flatten loop proper, writing into the column buffers.

        Each node is popped once.  A leaf resolves where it is popped;
        an interior node pushes an ``(opcode, node)`` exit marker below
        its children, and the marker pops its children's indices off an
        operand stack, as :meth:`_wire_walk` does.  ``memo`` maps interior
        node objects already compiled in this call to their index (nodes
        hash by identity), so a shared object is walked once.  The type
        is checked before a node is hashed.  Mutates the structural index
        and leaf tables inline; :meth:`_compile` owns the flush-or-rollback
        around it.
        """
        from repro.core.hashed import lit_cache_key

        struct = self._struct
        struct_get = struct.get
        name_ids, names = self._name_ids, self.names
        lit_ids, literals = self._lit_ids, self.literals
        memo: dict[Expr, int] = {}
        memo_get = memo.get
        count = len(self.op)
        stack: list = []
        push, pop = stack.append, stack.pop
        operands: list[int] = []
        opush, opop = operands.append, operands.pop

        for root in exprs:
            # Roots are checked up front: a foreign tuple must not pass
            # for an exit marker (children are Exprs by construction).
            if type(root) not in _NODE_TYPES:
                raise _foreign_node(root)
            push(root)
            while stack:
                node = pop()
                cls = type(node)
                if cls is tuple:
                    opc, node = node
                    if opc == OP_LAM:
                        body = opop()
                        binder = node.binder
                        nid = name_ids.get(binder)
                        if nid is None:
                            name_ids[binder] = nid = len(names)
                            names.append(binder)
                        key = (OP_LAM, nid, body)
                        idx = struct_get(key)
                        if idx is None:
                            struct[key] = idx = count
                            count += 1
                            op_b.append(OP_LAM)
                            left_b.append(body)
                            right_b.append(-1)
                            aux_b.append(nid)
                            sizes_b.append(node.size)
                            depths_b.append(node.depth)
                    elif opc == OP_APP:
                        arg = opop()
                        fn = opop()
                        key = (OP_APP, fn, arg)
                        idx = struct_get(key)
                        if idx is None:
                            struct[key] = idx = count
                            count += 1
                            op_b.append(OP_APP)
                            left_b.append(fn)
                            right_b.append(arg)
                            aux_b.append(-1)
                            sizes_b.append(node.size)
                            depths_b.append(node.depth)
                    else:
                        body = opop()
                        bound = opop()
                        binder = node.binder
                        nid = name_ids.get(binder)
                        if nid is None:
                            name_ids[binder] = nid = len(names)
                            names.append(binder)
                        key = (OP_LET, nid, bound, body)
                        idx = struct_get(key)
                        if idx is None:
                            struct[key] = idx = count
                            count += 1
                            op_b.append(OP_LET)
                            left_b.append(bound)
                            right_b.append(body)
                            aux_b.append(nid)
                            sizes_b.append(node.size)
                            depths_b.append(node.depth)
                    memo[node] = idx
                    opush(idx)
                elif cls is Var:
                    name = node.name
                    nid = name_ids.get(name)
                    if nid is None:
                        name_ids[name] = nid = len(names)
                        names.append(name)
                    key = nid * 8
                    idx = struct_get(key)
                    if idx is None:
                        struct[key] = idx = count
                        count += 1
                        op_b.append(OP_VAR)
                        left_b.append(-1)
                        right_b.append(-1)
                        aux_b.append(nid)
                        sizes_b.append(1)
                        depths_b.append(1)
                    opush(idx)
                elif cls is Lam:
                    idx = memo_get(node)
                    if idx is None:
                        push((OP_LAM, node))
                        push(node.body)
                    else:
                        opush(idx)
                elif cls is App:
                    idx = memo_get(node)
                    if idx is None:
                        push((OP_APP, node))
                        push(node.arg)
                        push(node.fn)
                    else:
                        opush(idx)
                elif cls is Let:
                    idx = memo_get(node)
                    if idx is None:
                        push((OP_LET, node))
                        push(node.body)
                        push(node.bound)
                    else:
                        opush(idx)
                elif cls is Lit:
                    value = node.value
                    lkey = lit_cache_key(value)
                    lid = lit_ids.get(lkey)
                    if lid is None:
                        lit_ids[lkey] = lid = len(literals)
                        literals.append(value)
                    key = lid * 8 + 1
                    idx = struct_get(key)
                    if idx is None:
                        struct[key] = idx = count
                        count += 1
                        op_b.append(OP_LIT)
                        left_b.append(-1)
                        right_b.append(-1)
                        aux_b.append(lid)
                        sizes_b.append(1)
                        depths_b.append(1)
                    opush(idx)
                else:
                    raise _foreign_node(node)
            roots.append(opop())

    def _wire_walk(
        self, docs, roots, op_b, left_b, right_b, aux_b, sizes_b, depths_b
    ) -> None:
        """The wire compile loop, writing into the column buffers.

        Entries arrive children-first, so an operand stack of
        ``(index, size, depth)`` triples stands in for the tree: each
        operator pops its operands, derives its size and depth from
        theirs and pushes its own row.  Keys, leaf tables and row order
        are :meth:`_flatten_walk`'s; the checks and messages are
        :func:`~repro.lang.sexpr.from_wire`'s.
        """
        from repro.core.hashed import lit_cache_key

        struct = self._struct
        struct_get = struct.get
        name_ids, names = self._name_ids, self.names
        lit_ids, literals = self._lit_ids, self.literals
        count = len(self.op)

        for doc in docs:
            if not isinstance(doc, dict) or doc.get("format") != WIRE_FORMAT:
                raise SexprError(f"not a {WIRE_FORMAT} document")
            post = doc.get("post")
            if not isinstance(post, list) or not post:
                raise SexprError("missing postorder node list")
            stack: list[tuple[int, int, int]] = []
            push, pop = stack.append, stack.pop
            for entry in post:
                if not isinstance(entry, list) or not entry:
                    raise SexprError(f"malformed entry {entry!r}")
                # Branches in entry-frequency order; the name checks
                # are from_wire's, inlined (this loop runs per node).
                tag = entry[0]
                if tag == "v":
                    if (
                        len(entry) != 2
                        or not isinstance(name := entry[1], str)
                        or not name
                    ):
                        raise SexprError(f"malformed variable {entry!r}")
                    nid = name_ids.get(name)
                    if nid is None:
                        name_ids[name] = nid = len(names)
                        names.append(name)
                    key = nid * 8
                    idx = struct_get(key)
                    if idx is None:
                        struct[key] = idx = count
                        count += 1
                        op_b.append(OP_VAR)
                        left_b.append(-1)
                        right_b.append(-1)
                        aux_b.append(nid)
                        sizes_b.append(1)
                        depths_b.append(1)
                    push((idx, 1, 1))
                elif tag == "l":
                    if (
                        len(entry) != 2
                        or not isinstance(binder := entry[1], str)
                        or not binder
                        or not stack
                    ):
                        raise SexprError(f"malformed lambda entry {entry!r}")
                    body, body_size, body_depth = pop()
                    nid = name_ids.get(binder)
                    if nid is None:
                        name_ids[binder] = nid = len(names)
                        names.append(binder)
                    size = 1 + body_size
                    depth = 1 + body_depth
                    key = (OP_LAM, nid, body)
                    idx = struct_get(key)
                    if idx is None:
                        struct[key] = idx = count
                        count += 1
                        op_b.append(OP_LAM)
                        left_b.append(body)
                        right_b.append(-1)
                        aux_b.append(nid)
                        sizes_b.append(size)
                        depths_b.append(depth)
                    push((idx, size, depth))
                elif tag == "a":
                    if len(stack) < 2:
                        raise SexprError(
                            "application entry with too few operands"
                        )
                    arg, arg_size, arg_depth = pop()
                    fn, fn_size, fn_depth = pop()
                    size = 1 + fn_size + arg_size
                    depth = 1 + (fn_depth if fn_depth > arg_depth else arg_depth)
                    key = (OP_APP, fn, arg)
                    idx = struct_get(key)
                    if idx is None:
                        struct[key] = idx = count
                        count += 1
                        op_b.append(OP_APP)
                        left_b.append(fn)
                        right_b.append(arg)
                        aux_b.append(-1)
                        sizes_b.append(size)
                        depths_b.append(depth)
                    push((idx, size, depth))
                elif tag == "t":
                    if (
                        len(entry) != 2
                        or not isinstance(binder := entry[1], str)
                        or not binder
                        or len(stack) < 2
                    ):
                        raise SexprError(f"malformed let entry {entry!r}")
                    body, body_size, body_depth = pop()
                    bound, bound_size, bound_depth = pop()
                    nid = name_ids.get(binder)
                    if nid is None:
                        name_ids[binder] = nid = len(names)
                        names.append(binder)
                    size = 1 + bound_size + body_size
                    depth = 1 + (
                        bound_depth if bound_depth > body_depth else body_depth
                    )
                    key = (OP_LET, nid, bound, body)
                    idx = struct_get(key)
                    if idx is None:
                        struct[key] = idx = count
                        count += 1
                        op_b.append(OP_LET)
                        left_b.append(bound)
                        right_b.append(body)
                        aux_b.append(nid)
                        sizes_b.append(size)
                        depths_b.append(depth)
                    push((idx, size, depth))
                elif tag == "c":
                    value = literal_value(entry)
                    lkey = lit_cache_key(value)
                    lid = lit_ids.get(lkey)
                    if lid is None:
                        lit_ids[lkey] = lid = len(literals)
                        literals.append(value)
                    key = lid * 8 + 1
                    idx = struct_get(key)
                    if idx is None:
                        struct[key] = idx = count
                        count += 1
                        op_b.append(OP_LIT)
                        left_b.append(-1)
                        right_b.append(-1)
                        aux_b.append(lid)
                        sizes_b.append(1)
                        depths_b.append(1)
                    push((idx, 1, 1))
                else:
                    raise SexprError(f"unknown entry tag {tag!r}")
            if len(stack) != 1:
                raise SexprError("unbalanced postorder stream")
            roots.append(stack[0][0])

    # -- decompilation -------------------------------------------------------

    def closure(self, roots: Iterable[int]) -> bytearray:
        """Byte mask of every arena node reachable from ``roots``."""
        mask = bytearray(len(self.op))
        left, right = self.left, self.right
        stack = list(roots)
        while stack:
            i = stack.pop()
            if mask[i]:
                continue
            mask[i] = 1
            child = left[i]
            if child >= 0 and not mask[child]:
                stack.append(child)
            child = right[i]
            if child >= 0 and not mask[child]:
                stack.append(child)
        return mask

    def rebuild_many(self, roots: Sequence[int]) -> list[Expr]:
        """Reconstruct the expression rooted at each index in ``roots``.

        Shared arena nodes come back as shared :class:`Expr` objects (a
        maximally-shared tree, within and across roots); alpha-hashes
        are preserved by construction -- the round-trip test wall pins
        this.  One closure mark and one ascending sweep serve all roots,
        so the cost is O(arena) however many roots there are.
        """
        if not roots:
            return []
        mask = self.closure(roots)
        op, left, right, aux = self.op, self.left, self.right, self.aux
        names, literals = self.names, self.literals
        built: list = [None] * (max(roots) + 1)
        for i in range(len(built)):
            if not mask[i]:
                continue
            opc = op[i]
            if opc == OP_VAR:
                built[i] = Var(names[aux[i]])
            elif opc == OP_LIT:
                built[i] = Lit(literals[aux[i]])
            elif opc == OP_LAM:
                built[i] = Lam(names[aux[i]], built[left[i]])
            elif opc == OP_APP:
                built[i] = App(built[left[i]], built[right[i]])
            else:
                built[i] = Let(names[aux[i]], built[left[i]], built[right[i]])
        return [built[i] for i in roots]


def flatten_corpus(
    exprs: Iterable[Expr], arena: Optional[ExprArena] = None
) -> tuple[ExprArena, list[int]]:
    """Compile a corpus: ``(arena, one root index per input)``."""
    if arena is None:
        arena = ExprArena()
    return arena, arena.flatten(exprs)


def arena_hash(
    arena: ExprArena,
    combiners: Optional[HashCombiners] = None,
) -> list[int]:
    """Alpha-hash every arena node; ``tops[i]`` is node ``i``'s hash.

    The single post-order pass of Section 5 run at array speed: children
    sit at lower indices, so one ``for i in range(n)`` loop replaces the
    scheduling stack, and the per-node memo is three integer-indexed
    lists.  Free-variable maps are dicts keyed by interned name id; each
    map is consumed destructively by its *last* referencing parent and
    copied for earlier ones (``uses`` counts references), which keeps
    the Lemma 6.1 merge bound while letting deduplicated nodes feed any
    number of parents.

    Bit-identical to :func:`~repro.core.hashed.alpha_hash_all` at every
    width; the single-lane fast path below inlines the splitmix64
    chains, the multi-lane widths go through the same recipes via
    :func:`~repro.core.kernel.combine_chain`.
    """
    return _arena_pass(arena, combiners, ())[0]


def arena_summaries(
    arena: ExprArena,
    roots: Sequence[int],
    combiners: Optional[HashCombiners] = None,
) -> list[tuple[int, int, dict[str, int]]]:
    """Each root's hashed e-summary ``(s, v, m)``: structure hash,
    free-variable-map hash and map (name -> position hash), bit-identical
    to a tree memo record's.  One scalar :func:`arena_hash` pass in which
    each root row counts one extra use, so no parent steals its map.
    """
    _tops, shs, vmhs, vms = _arena_pass(arena, combiners, roots)
    names = arena.names
    return [
        (shs[row], vmhs[row], {names[nid]: pos for nid, pos in vms[row].items()})
        for row in roots
    ]


def _arena_pass(
    arena: ExprArena, combiners: Optional[HashCombiners], keep: Sequence[int]
) -> tuple[list, list, list, list]:
    """The scalar pass behind :func:`arena_hash`: ``(tops, shs, vmhs,
    vms)``.  The maps of the ``keep`` rows survive it; any other map
    may have been consumed by a parent."""
    if combiners is None:
        combiners = default_combiners()
    n = len(arena.op)

    # Plain lists index faster than array('q') (no per-access int
    # materialisation); the one-shot conversion is C-speed, cheap next
    # to the kernel.
    op = bytes(arena.op)
    left, right = arena.left.tolist(), arena.right.tolist()
    aux, sizes = arena.aux.tolist(), arena.sizes.tolist()

    indices = range(n)
    # Leaf tables: one hash per interned name / literal, not per node.
    name_h = [combiners.hash_name(name) for name in arena.names]
    lit_s = [slit_hash(combiners, value) for value in arena.literals]

    HERE = pt_here_hash(combiners)
    SVAR = svar_hash(combiners)
    NONE = combiners.NONE_HASH
    TRUE = combiners.TRUE_HASH
    FALSE = combiners.FALSE_HASH
    entry2 = combine_chain(combiners, "entry", 2)
    var_entry = [entry2(h, HERE) for h in name_h]

    # Integer-indexed memo arrays: structure hash, map hash, map, top.
    shs: list = [0] * n
    vmhs: list = [0] * n
    vms: list = [None] * n
    tops: list = [None] * n

    # Reference counts: how many parents will consume each node's map,
    # plus one per kept row, whose map no parent may then steal.
    uses = [0] * n
    for i in indices:
        child = left[i]
        if child >= 0:
            uses[child] += 1
        child = right[i]
        if child >= 0:
            uses[child] += 1
    for row in keep:
        uses[row] += 1

    if combiners._lanes == 1:
        _arena_hash_lane1(
            combiners, indices, op, left, right, aux, sizes,
            name_h, var_entry, lit_s, HERE, SVAR, NONE, TRUE, FALSE,
            shs, vmhs, vms, tops, uses,
        )
    else:
        _arena_hash_generic(
            combiners, indices, op, left, right, aux, sizes,
            name_h, var_entry, lit_s, HERE, SVAR, NONE, TRUE, FALSE,
            shs, vmhs, vms, tops, uses,
        )
    return tops, shs, vmhs, vms


def _arena_hash_lane1(
    combiners, indices, op, left, right, aux, sizes,
    name_h, var_entry, lit_s, HERE, SVAR, NONE, TRUE, FALSE,
    shs, vmhs, vms, tops, uses,
):
    """Single-lane (bits <= 64) kernel with the combiner chains inlined.

    Every ``x = ...; h = x ^ (x >> 31)`` block below is one absorb step
    of :meth:`HashCombiners.combine`'s single-lane path; a chain masks
    once at the end, exactly like ``combine`` does.  Two extra tricks,
    both exact (they cache *chain states*, never outputs):

    * **Prefix caches.**  A chain's first absorbs often see a tiny value
      space -- ``sapp``/``slet``/``pt_join`` start with the structure
      tag (subtree sizes repeat massively across a corpus), ``slam``
      with the size, ``entry`` with one of a handful of name hashes --
      so the partially-absorbed state is memoised and the chain resumes
      from it.
    * **List-backed arrays.**  The ``array``/``bytearray`` columns are
      converted to plain lists once per pass: indexing a list returns a
      cached object where ``array('q')`` materialises a fresh int.

    Keep this in sync with ``_arena_hash_generic`` -- the differential
    wall runs both.
    """
    hmask = combiners.mask
    salts = combiners._salts
    S_ENTRY = salts["entry"][0]
    S_JOIN = salts["pt_join"][0]
    S_TOP = salts["top"][0]
    S_LAM = salts["slam"][0]
    S_APP = salts["sapp"][0]
    S_LET = salts["slet"][0]
    G, M64, M0, M1 = _GOLDEN, _MASK64, _M0, _M1

    # Per-name entry-chain states: entry(name, pos) resumes after the
    # name absorb, halving the per-entry work in merges and removals.
    entry_pre = []
    for nh in name_h:
        x = ((S_ENTRY ^ nh) + G) & M64
        x = ((x ^ (x >> 30)) * M0) & M64
        x = ((x ^ (x >> 27)) * M1) & M64
        entry_pre.append(x ^ (x >> 31))

    app_pre = {}  # (size << 1) | left_bigger -> state after size, flag
    lam_pre = {}  # size -> state after size
    let_pre = {}  # size -> state after size
    join_pre = {}  # tag -> state after tag

    for i in indices:
        opc = op[i]
        if opc == OP_APP:
            fn, arg = left[i], right[i]
            vm_fn, vm_arg = vms[fn], vms[arg]
            left_bigger = len(vm_fn) >= len(vm_arg)
            if left_bigger:
                big, small = fn, arg
            else:
                big, small = arg, fn
            # Take the big map for writing: steal on last use, copy else.
            ub = uses[big]
            if ub == 1:
                bvm = vms[big]
                vms[big] = None
            else:
                bvm = dict(vms[big])
            uses[big] = ub - 1
            bh = vmhs[big]
            svm = vms[small]
            tag = sizes[i]
            if svm:
                jp = join_pre.get(tag)
                if jp is None:
                    x = ((S_JOIN ^ tag) + G) & M64
                    x = ((x ^ (x >> 30)) * M0) & M64
                    x = ((x ^ (x >> 27)) * M1) & M64
                    join_pre[tag] = jp = x ^ (x >> 31)
                bvm_get = bvm.get
                for nid, spos in svm.items():
                    old = bvm_get(nid)
                    # pt_join(tag, maybe(old), spos), resumed after tag
                    x = ((jp ^ (NONE if old is None else old)) + G) & M64
                    x = ((x ^ (x >> 30)) * M0) & M64
                    x = ((x ^ (x >> 27)) * M1) & M64
                    h = x ^ (x >> 31)
                    x = ((h ^ spos) + G) & M64
                    x = ((x ^ (x >> 30)) * M0) & M64
                    x = ((x ^ (x >> 27)) * M1) & M64
                    new = (x ^ (x >> 31)) & hmask
                    ep = entry_pre[nid]
                    if old is not None:
                        # XOR out entry(name, old)
                        x = ((ep ^ old) + G) & M64
                        x = ((x ^ (x >> 30)) * M0) & M64
                        x = ((x ^ (x >> 27)) * M1) & M64
                        bh ^= (x ^ (x >> 31)) & hmask
                    bvm[nid] = new
                    # XOR in entry(name, new)
                    x = ((ep ^ new) + G) & M64
                    x = ((x ^ (x >> 30)) * M0) & M64
                    x = ((x ^ (x >> 27)) * M1) & M64
                    bh ^= (x ^ (x >> 31)) & hmask
            us = uses[small] - 1
            uses[small] = us
            if us == 0:
                vms[small] = None
            # sapp(size, flag, s_fn, s_arg), resumed after size + flag
            key = (tag << 1) | left_bigger
            h = app_pre.get(key)
            if h is None:
                x = ((S_APP ^ tag) + G) & M64
                x = ((x ^ (x >> 30)) * M0) & M64
                x = ((x ^ (x >> 27)) * M1) & M64
                h = x ^ (x >> 31)
                x = ((h ^ (TRUE if left_bigger else FALSE)) + G) & M64
                x = ((x ^ (x >> 30)) * M0) & M64
                x = ((x ^ (x >> 27)) * M1) & M64
                h = x ^ (x >> 31)
                app_pre[key] = h
            x = ((h ^ shs[fn]) + G) & M64
            x = ((x ^ (x >> 30)) * M0) & M64
            x = ((x ^ (x >> 27)) * M1) & M64
            h = x ^ (x >> 31)
            x = ((h ^ shs[arg]) + G) & M64
            x = ((x ^ (x >> 30)) * M0) & M64
            x = ((x ^ (x >> 27)) * M1) & M64
            s = (x ^ (x >> 31)) & hmask
            vm, vh = bvm, bh
        elif opc == OP_VAR:
            nid = aux[i]
            s = SVAR
            vm = {nid: HERE}
            vh = var_entry[nid]
        elif opc == OP_LAM:
            body = left[i]
            ub = uses[body]
            if ub == 1:
                vm = vms[body]
                vms[body] = None
            else:
                vm = dict(vms[body])
            uses[body] = ub - 1
            vh = vmhs[body]
            pos = vm.pop(aux[i], None)
            if pos is not None:
                # XOR out entry(binder, pos)
                x = ((entry_pre[aux[i]] ^ pos) + G) & M64
                x = ((x ^ (x >> 30)) * M0) & M64
                x = ((x ^ (x >> 27)) * M1) & M64
                vh ^= (x ^ (x >> 31)) & hmask
            # slam(size, maybe(pos), s_body), resumed after size
            tag = sizes[i]
            h = lam_pre.get(tag)
            if h is None:
                x = ((S_LAM ^ tag) + G) & M64
                x = ((x ^ (x >> 30)) * M0) & M64
                x = ((x ^ (x >> 27)) * M1) & M64
                lam_pre[tag] = h = x ^ (x >> 31)
            x = ((h ^ (NONE if pos is None else pos)) + G) & M64
            x = ((x ^ (x >> 30)) * M0) & M64
            x = ((x ^ (x >> 27)) * M1) & M64
            h = x ^ (x >> 31)
            x = ((h ^ shs[body]) + G) & M64
            x = ((x ^ (x >> 30)) * M0) & M64
            x = ((x ^ (x >> 27)) * M1) & M64
            s = (x ^ (x >> 31)) & hmask
        elif opc == OP_LIT:
            s = lit_s[aux[i]]
            vm = {}
            vh = 0
        else:  # OP_LET
            bound, body = left[i], right[i]
            # The binder scopes over the body only: remove it from the
            # body map first, then merge (matching the tree kernel).
            ub = uses[body]
            if ub == 1:
                vm_body = vms[body]
                vms[body] = None
            else:
                vm_body = dict(vms[body])
            uses[body] = ub - 1
            bh_body = vmhs[body]
            pos = vm_body.pop(aux[i], None)
            if pos is not None:
                x = ((entry_pre[aux[i]] ^ pos) + G) & M64
                x = ((x ^ (x >> 30)) * M0) & M64
                x = ((x ^ (x >> 27)) * M1) & M64
                bh_body ^= (x ^ (x >> 31)) & hmask
            vm_bound = vms[bound]
            left_bigger = len(vm_bound) >= len(vm_body)
            tag = sizes[i]
            if left_bigger:
                # bound is big: take it for writing, read the body map.
                ub = uses[bound]
                if ub == 1:
                    bvm = vms[bound]
                    vms[bound] = None
                else:
                    bvm = dict(vms[bound])
                uses[bound] = ub - 1
                bh = vmhs[bound]
                svm = vm_body
                small_slot = -1
            else:
                # body (already owned) is big; bound is read-only.
                bvm, bh = vm_body, bh_body
                svm = vm_bound
                small_slot = bound
            if svm:
                jp = join_pre.get(tag)
                if jp is None:
                    x = ((S_JOIN ^ tag) + G) & M64
                    x = ((x ^ (x >> 30)) * M0) & M64
                    x = ((x ^ (x >> 27)) * M1) & M64
                    join_pre[tag] = jp = x ^ (x >> 31)
                bvm_get = bvm.get
                for nid, spos in svm.items():
                    old = bvm_get(nid)
                    x = ((jp ^ (NONE if old is None else old)) + G) & M64
                    x = ((x ^ (x >> 30)) * M0) & M64
                    x = ((x ^ (x >> 27)) * M1) & M64
                    h = x ^ (x >> 31)
                    x = ((h ^ spos) + G) & M64
                    x = ((x ^ (x >> 30)) * M0) & M64
                    x = ((x ^ (x >> 27)) * M1) & M64
                    new = (x ^ (x >> 31)) & hmask
                    ep = entry_pre[nid]
                    if old is not None:
                        x = ((ep ^ old) + G) & M64
                        x = ((x ^ (x >> 30)) * M0) & M64
                        x = ((x ^ (x >> 27)) * M1) & M64
                        bh ^= (x ^ (x >> 31)) & hmask
                    bvm[nid] = new
                    x = ((ep ^ new) + G) & M64
                    x = ((x ^ (x >> 30)) * M0) & M64
                    x = ((x ^ (x >> 27)) * M1) & M64
                    bh ^= (x ^ (x >> 31)) & hmask
            if small_slot >= 0:
                us = uses[small_slot] - 1
                uses[small_slot] = us
                if us == 0:
                    vms[small_slot] = None
            # slet(size, maybe(pos), flag, s_bound, s_body), resumed
            h = let_pre.get(tag)
            if h is None:
                x = ((S_LET ^ tag) + G) & M64
                x = ((x ^ (x >> 30)) * M0) & M64
                x = ((x ^ (x >> 27)) * M1) & M64
                let_pre[tag] = h = x ^ (x >> 31)
            x = ((h ^ (NONE if pos is None else pos)) + G) & M64
            x = ((x ^ (x >> 30)) * M0) & M64
            x = ((x ^ (x >> 27)) * M1) & M64
            h = x ^ (x >> 31)
            x = ((h ^ (TRUE if left_bigger else FALSE)) + G) & M64
            x = ((x ^ (x >> 30)) * M0) & M64
            x = ((x ^ (x >> 27)) * M1) & M64
            h = x ^ (x >> 31)
            x = ((h ^ shs[bound]) + G) & M64
            x = ((x ^ (x >> 30)) * M0) & M64
            x = ((x ^ (x >> 27)) * M1) & M64
            h = x ^ (x >> 31)
            x = ((h ^ shs[body]) + G) & M64
            x = ((x ^ (x >> 30)) * M0) & M64
            x = ((x ^ (x >> 27)) * M1) & M64
            s = (x ^ (x >> 31)) & hmask
            vm, vh = bvm, bh

        shs[i] = s
        vmhs[i] = vh
        vms[i] = vm
        # top(s, vh)
        x = ((S_TOP ^ s) + G) & M64
        x = ((x ^ (x >> 30)) * M0) & M64
        x = ((x ^ (x >> 27)) * M1) & M64
        h = x ^ (x >> 31)
        x = ((h ^ vh) + G) & M64
        x = ((x ^ (x >> 30)) * M0) & M64
        x = ((x ^ (x >> 27)) * M1) & M64
        tops[i] = (x ^ (x >> 31)) & hmask


def _arena_hash_generic(
    combiners, indices, op, left, right, aux, sizes,
    name_h, var_entry, lit_s, HERE, SVAR, NONE, TRUE, FALSE,
    shs, vmhs, vms, tops, uses,
):
    """Any-width reference kernel: same pass, recipes via combine_chain."""
    entry2 = combine_chain(combiners, "entry", 2)
    join3 = combine_chain(combiners, "pt_join", 3)
    top2 = combine_chain(combiners, "top", 2)
    lam3 = combine_chain(combiners, "slam", 3)
    app4 = combine_chain(combiners, "sapp", 4)
    let5 = combine_chain(combiners, "slet", 5)

    def take_for_write(idx):
        ub = uses[idx]
        if ub == 1:
            owned = vms[idx]
            vms[idx] = None
        else:
            owned = dict(vms[idx])
        uses[idx] = ub - 1
        return owned, vmhs[idx]

    def release(idx):
        us = uses[idx] - 1
        uses[idx] = us
        if us == 0:
            vms[idx] = None

    def merge(bvm, bh, svm, tag):
        for nid, spos in svm.items():
            old = bvm.get(nid)
            new = join3(tag, NONE if old is None else old, spos)
            nh = name_h[nid]
            if old is not None:
                bh ^= entry2(nh, old)
            bvm[nid] = new
            bh ^= entry2(nh, new)
        return bvm, bh

    for i in indices:
        opc = op[i]
        if opc == OP_VAR:
            nid = aux[i]
            s, vm, vh = SVAR, {nid: HERE}, var_entry[nid]
        elif opc == OP_LIT:
            s, vm, vh = lit_s[aux[i]], {}, 0
        elif opc == OP_LAM:
            body = left[i]
            vm, vh = take_for_write(body)
            pos = vm.pop(aux[i], None)
            if pos is not None:
                vh ^= entry2(name_h[aux[i]], pos)
            s = lam3(sizes[i], NONE if pos is None else pos, shs[body])
        elif opc == OP_APP:
            fn, arg = left[i], right[i]
            left_bigger = len(vms[fn]) >= len(vms[arg])
            big, small = (fn, arg) if left_bigger else (arg, fn)
            bvm, bh = take_for_write(big)
            vm, vh = merge(bvm, bh, vms[small], sizes[i])
            release(small)
            s = app4(
                sizes[i], TRUE if left_bigger else FALSE, shs[fn], shs[arg]
            )
        else:  # OP_LET
            bound, body = left[i], right[i]
            vm_body, bh_body = take_for_write(body)
            pos = vm_body.pop(aux[i], None)
            if pos is not None:
                bh_body ^= entry2(name_h[aux[i]], pos)
            left_bigger = len(vms[bound]) >= len(vm_body)
            if left_bigger:
                bvm, bh = take_for_write(bound)
                vm, vh = merge(bvm, bh, vm_body, sizes[i])
            else:
                vm, vh = merge(vm_body, bh_body, vms[bound], sizes[i])
                release(bound)
            s = let5(
                sizes[i],
                NONE if pos is None else pos,
                TRUE if left_bigger else FALSE,
                shs[bound],
                shs[body],
            )

        shs[i], vmhs[i], vms[i] = s, vh, vm
        tops[i] = top2(s, vh)


def arena_hash_any(
    arena: ExprArena,
    combiners: Optional[HashCombiners] = None,
    kernel: str = "auto",
) -> list[int]:
    """Run the arena kernel named by ``kernel`` (``auto``/``vec``/``scalar``).

    With no roots to size, ``auto`` applies the width rule to the arena
    itself: its rows per level.
    """
    if kernel == "auto" and len(arena):
        kernel = resolve_kernel(kernel, len(arena), max(arena.depths))
    if resolve_kernel(kernel) == "vec":
        return arena_hash_vec(arena, combiners)
    return arena_hash(arena, combiners)


def arena_hash_vec(
    arena: ExprArena,
    combiners: Optional[HashCombiners] = None,
) -> list[int]:
    """Vectorized arena kernel: the same pass, level-by-level in NumPy.

    ``depths`` orders the arena into levels (a node's children are
    strictly shallower), so one level's combiner chains run as a few
    ``uint64`` array operations instead of per-node Python bytecode.
    The level's cost is a fixed number of NumPy calls, whatever kinds
    it holds, plus a small per-row term:

    * **Sorted slices.**  The interior rows are sorted once by
      ``(depth, kind)`` with Lam < Let < App, so each level is one
      contiguous slice whose Lam+Let rows and Let+App rows are
      sub-slices.  The leaf rows (all at depth 1) are written once
      before the loop.
    * **One binder removal** per level over the Lam and Let bodies, as
      a batched ``searchsorted`` over their concatenated maps.
    * **One merge** per level over the Let and App pairs: Lemma 6.1's
      small-into-big merge as one stable sort + last-wins dedup, the
      ``entry`` hashes of the removed binders and of every merged name's
      new and old position computed in one chain, and the map-hash
      deltas folded with ``bitwise_xor.reduceat``.
    * **One S-hash chain** per level with a salt per row (``slam``,
      ``slet`` or ``sapp``): steps 1-3 over every row, step 4 over
      Let+App, step 5 over Let.  Its steps run in the same arrays as the
      merge's ``pt_join`` chain, and every chain's first absorb (salt,
      then size or name) is computed once, before the loop.

    The free-variable maps live in one append-only columnar pool -- per
    node a ``(start, len)`` slice of ``(name_id, pos)`` rows sorted by
    name id -- and are never mutated in place.

    Bit-identical to :func:`arena_hash` (and hence to the tree paths)
    at every width.  A value is only ever absorbed as ``lo ^ hi`` of
    its 64-bit words (see
    :meth:`~repro.core.combiners.HashCombiners.combine`), so the kernel
    carries that folded word alone; chains of two lanes (widths above
    64 bits) run both lanes as the rows of one array, and only the
    final ``top`` chain splits its output back into words.

    Trade-off: the pool is append-only, so peak memory is the total map
    traffic (the O(n log n) merge bound) rather than the scalar
    kernel's live-map footprint.  Same signature and result contract as
    :func:`arena_hash`; requires NumPy.
    """
    if _np is None:  # pragma: no cover - vec callers gate on HAVE_NUMPY
        raise RuntimeError(
            "arena_hash_vec requires NumPy; install the repro[vec] extra "
            "or call arena_hash (the scalar kernel)"
        )
    np = _np
    if combiners is None:
        combiners = default_combiners()
    n = len(arena.op)
    if n == 0:
        return []

    U, I64 = np.uint64, np.int64
    lanes, salts = combiners._lanes, combiners._salts
    G, M0, M1 = U(_GOLDEN), U(_M0), U(_M1)
    C30, C27, C31 = U(30), U(27), U(31)
    mask_lo = U(combiners.mask & _MASK64)
    mask_hi = U((combiners.mask >> 64) & _MASK64)

    def mix(h, v):
        # One splitmix64 absorb step; h is (lanes, k), v broadcasts.
        x = (h ^ v) + G
        x = (x ^ (x >> C30)) * M0
        x = (x ^ (x >> C27)) * M1
        return x ^ (x >> C31)

    def salt(*salt_names):
        # (lanes, len(salt_names)) chain starts.
        return np.array(
            [[salts[s][lane] for s in salt_names] for lane in range(lanes)],
            dtype=U,
        )

    def fold(h):
        # A finished chain's b-bit output, as the folded word lo ^ hi.
        return h[0] & mask_lo if lanes == 1 else h[1] ^ (h[0] & mask_hi)

    def folded(values):
        if lanes == 2:
            values = [(v & _MASK64) ^ (v >> 64) for v in values]
        return np.array(values, dtype=U)

    iota = np.arange(max(n, 1024), dtype=I64)

    def gather(starts, lens, ids):
        """Pool positions of the concatenated slices: ``(seg, pos,
        offs, total)``, with the ``ids`` entry of each entry's slice and
        each slice's flat offset."""
        nonlocal iota
        ends = np.cumsum(lens)
        total = int(ends[-1]) if len(ends) else 0
        if total > len(iota):
            iota = np.arange(2 * total, dtype=I64)
        offs = ends - lens
        pos = np.repeat(starts - offs, lens) + iota[:total]
        return np.repeat(ids, lens), pos, offs, total

    pool_nid = np.empty(max(1024, 2 * n), dtype=I64)
    pool_pos = np.empty(len(pool_nid), dtype=U)
    pool_used = 0

    def append(nid, pos, lens):
        """Append maps to the pool; the start of each of ``lens``' slices."""
        nonlocal pool_nid, pool_pos, pool_used
        start, pool_used = pool_used, pool_used + len(nid)
        if pool_used > len(pool_nid):
            cap = max(2 * len(pool_nid), pool_used)
            pool_nid = np.concatenate((pool_nid[:start], np.empty(cap - start, I64)))
            pool_pos = np.concatenate((pool_pos[:start], np.empty(cap - start, U)))
        pool_nid[start:pool_used] = nid
        pool_pos[start:pool_used] = pos
        return start + np.cumsum(lens) - lens

    opc = np.frombuffer(arena.op, dtype=np.uint8)
    left, right, aux, sizes, depths = (
        np.asarray(col, dtype=I64)
        for col in (arena.left, arena.right, arena.aux, arena.sizes, arena.depths)
    )
    K = len(arena.names) + 1  # (row, name id) sort-key stride

    # -- leaf tables (Python-speed, but per unique name/literal only) --------
    name_h = folded([combiners.hash_name(name) for name in arena.names])
    lit_s = folded([slit_hash(combiners, value) for value in arena.literals])
    here, svar, none, true, false = folded(
        [
            pt_here_hash(combiners),
            svar_hash(combiners),
            combiners.NONE_HASH,
            combiners.TRUE_HASH,
            combiners.FALSE_HASH,
        ]
    )
    entry1 = mix(salt("entry"), name_h)  # entry chains after the name
    var_entry = fold(mix(entry1, here))  # entry(name, PTHere)

    # -- per-node state, leaf rows written once --------------------------------
    shs = np.zeros(n, dtype=U)
    vmh = np.zeros(n, dtype=U)
    map_start = np.zeros(n, dtype=I64)
    map_len = np.zeros(n, dtype=I64)
    var = np.nonzero(opc == OP_VAR)[0]
    lit = np.nonzero(opc == OP_LIT)[0]
    shs[var] = svar
    vmh[var] = var_entry[aux[var]]
    map_start[var] = append(aux[var], here, np.ones(len(var), dtype=I64))
    map_len[var] = 1
    shs[lit] = lit_s[aux[lit]]

    # -- interior rows sorted by (depth, kind), Lam < Let < App ----------------
    key = depths * 8 + np.array([0, 1, 2, 4, 3], dtype=I64)[opc]
    rows = np.argsort(key)[len(var) + len(lit) :]
    key = key[rows]
    kind = opc[rows]
    lc, rc, binder = left[rows], right[rows], aux[rows]
    is_let = kind == OP_LET
    # Per row: the map its binder leaves (Lam body, Let body); a merge's
    # right side (Let: its body less the binder, parked in the row
    # itself; App: the argument); the S-hash's step 4 (Let bound, App
    # argument); the (row, binder) search key; the S-hash and pt_join
    # chains after their salt and size.
    body = np.where(is_let, rc, lc)
    merge_right = np.where(is_let, rows, rc)
    step4 = np.where(is_let, lc, rc)
    want = iota[: len(rows)] * K + binder
    size = sizes[rows].astype(U)
    s_salts = salt("svar", "slit", "slam", "sapp", "slet")  # by opcode
    s_chain = mix(s_salts[:, kind], size)
    join_chain = mix(salt("pt_join"), size)
    levels = int(key[-1]) // 8 - 1 if len(rows) else 0
    cuts = np.searchsorted(
        key, (np.arange(2, levels + 3)[:, None] * 8 + [2, 3, 4]).ravel()
    ).tolist()
    no_ids, no_vals = iota[:0], np.empty(0, dtype=U)

    for at in range(0, 3 * levels, 3):
        # The level's rows: Lam [a, b), Let [b, c), App [c, e).
        a, b, c, e = cuts[at : at + 4]
        lvl = rows[a:e]
        k = c - a

        # -- one binder removal over the Lam and Let bodies ----------------
        found = np.zeros(k, dtype=bool)
        maybe = binder_pos = no_vals
        if k:
            src = body[a:c]
            lens, starts = map_len[src], map_start[src]
            seg, pos, _, total = gather(starts, lens, iota[a:c])
            if total:
                keys = seg * K + pool_nid[pos]
                loc = np.minimum(np.searchsorted(keys, want[a:c]), total - 1)
                found = keys[loc] == want[a:c]
                maybe = np.where(found, pool_pos[pos[loc]], none)
                binder_pos = maybe[found]
                keep = np.ones(total, dtype=bool)
                keep[loc[found]] = False
                pos = pos[keep]
                lens = lens - found
                starts = append(pool_nid[pos], pool_pos[pos], lens)
            else:
                maybe = np.full(k, none, dtype=U)
            vmh[lvl[:k]] = vmh[src]
            map_start[lvl[:k]] = starts
            map_len[lvl[:k]] = lens

        # -- one small-into-big merge over the Let and App pairs -----------
        s_total = 0
        s_nid, s_val, old = no_ids, no_vals, no_vals
        old_found = found[:0]
        if e > b:
            pair = lvl[b - a :]
            lf, rt = lc[b:e], merge_right[b:e]
            l_len, r_len = map_len[lf], map_len[rt]
            left_bigger = l_len >= r_len
            big = np.where(left_bigger, lf, rt)
            flag = np.where(left_bigger, true, false)
            small_len = np.minimum(l_len, r_len)
            act = np.nonzero(small_len)[0]
            merged = act + b
            big_act = big[act]
            s_seg, s_pos, s_offs, s_total = gather(
                map_start[np.where(left_bigger, rt, lf)[act]], small_len[act], merged
            )
            b_seg, b_pos, _, b_total = gather(
                map_start[big_act], map_len[big_act], merged
            )
            s_nid, s_val = pool_nid[s_pos], pool_pos[s_pos]
            s_keys = s_seg * K + s_nid
            b_keys = b_seg * K + pool_nid[b_pos]
            if b_total:
                loc = np.minimum(np.searchsorted(b_keys, s_keys), b_total - 1)
                old_found = b_keys[loc] == s_keys
                old = np.where(old_found, pool_pos[b_pos[loc]], none)
            else:
                old_found = np.zeros(s_total, dtype=bool)
                old = np.full(s_total, none, dtype=U)
            step2 = np.concatenate((maybe, flag[c - b :], old))
        else:
            step2 = maybe

        # -- one chain: the S-hash per row, pt_join per merged entry -------
        n_lvl = e - a
        step3 = shs[lc[a:e]]
        if e > b:
            step3[b - a : k] = flag[: c - b]
            step3 = np.concatenate((step3, s_val))
            h = np.concatenate((s_chain[:, a:e], join_chain[:, s_seg]), axis=1)
        else:
            h = s_chain[:, a:e]
        h = mix(mix(h, step2), step3)
        new = fold(h[:, n_lvl:])
        h = h[:, :n_lvl]
        if e > b:
            h[:, b - a :] = mix(h[:, b - a :], shs[step4[b:e]])
            if c > b:
                h[:, b - a : k] = mix(h[:, b - a : k], shs[rc[b:c]])
        shs[lvl] = fold(h)

        # -- one entry chain: new and old positions, removed binders -------
        n_old = int(old_found.sum())
        names = np.concatenate((s_nid, s_nid[old_found], binder[a:c][found]))
        entry = fold(
            mix(entry1[:, names], np.concatenate((new, old[old_found], binder_pos)))
        )
        if e > b:
            # Each pair aliases its big slice, then the pairs whose small
            # map is not empty get the merged map.
            pair_vmh = vmh[big]
            map_start[pair] = map_start[big]
            map_len[pair] = np.maximum(l_len, r_len)
            if s_total:
                delta = entry[:s_total]
                delta[old_found] ^= entry[s_total : s_total + n_old]
                pair_vmh[act] ^= np.bitwise_xor.reduceat(delta, s_offs)
                keys = np.concatenate((b_keys, s_keys))
                order = np.argsort(keys, kind="stable")
                keys = keys[order]
                last = np.empty(len(keys), dtype=bool)
                last[:-1] = keys[:-1] != keys[1:]
                last[-1] = True
                order = order[last]
                lens = map_len[big_act] + small_len[act] - np.add.reduceat(
                    old_found, s_offs
                )
                dest = rows[merged]
                map_start[dest] = append(
                    np.concatenate((pool_nid[b_pos], s_nid))[order],
                    np.concatenate((pool_pos[b_pos], new))[order],
                    lens,
                )
                map_len[dest] = lens
            vmh[pair] = pair_vmh
        if len(binder_pos):
            # A removed binder's entry leaves the Lam's map, and the
            # Let's when its body was the big side.
            removed = np.zeros(k, dtype=U)
            removed[found] = entry[s_total + n_old :]
            if c > b:
                removed[b - a :][left_bigger[: c - b]] = 0
            vmh[lvl[:k]] ^= removed

    # -- tops ------------------------------------------------------------------
    h = mix(mix(salt("top"), shs), vmh)
    if lanes == 1:
        return (h[0] & mask_lo).tolist()
    return [
        (hi << 64) | lo for hi, lo in zip((h[0] & mask_hi).tolist(), h[1].tolist())
    ]
