"""Arena-compiled corpora: post-order struct-of-arrays + a native kernel.

The serial hashing paths walk a Python object graph: every node costs
attribute lookups, a tuple push/pop on an explicit stack, and dict-keyed
memo probes by ``id()``.  For large corpora that interpreter overhead --
not the O(n log n) map work the paper bounds -- dominates wall time.
This module *compiles* a corpus once into an :class:`ExprArena`:

* **Post-order struct-of-arrays.**  One flat index space; node ``i``'s
  children always sit at indices ``< i``.  Per node the arena stores an
  opcode (``op``), child indices (``left``/``right``), an interned
  name/literal id (``aux``), and the subtree's size (``sizes``) --
  five contiguous arrays instead of a tree of objects.

* **Flatten-time deduplication.**  Structurally identical subtrees
  collapse to one arena node while flattening (alpha-hash summaries are
  compositional, Section 3, so hashing each structural class once is
  sound).  Real corpora repeat small subtrees massively -- the 600k-node
  benchmark corpus compiles to ~41% unique nodes -- and every duplicate
  is work the kernel never does.

* **One compile walk, two tiers.**  :meth:`ExprArena.flatten` runs the
  walk in C (``arena_flatten.c``, built against the interpreter's
  headers and loaded by :mod:`repro.core.native`) when its library
  loaded, and :meth:`ExprArena._flatten_walk` otherwise.  Both build the
  same arena, byte for byte; the Python walk is the oracle.

* **One single-pass kernel, two tiers.**  :func:`arena_hash` runs the
  paper's Section 5 algorithm over the arrays: integer-indexed memo
  lists instead of ``id()``-keyed dicts, no recursion, no per-node
  memo-record snapshots, and (at the default single-lane widths) the
  splitmix64 combiner chains inlined into the loop.
  :func:`arena_hash_any` runs the same pass in C
  (``arena_kernel.c``, built and loaded by :mod:`repro.core.native` when
  this module is imported) and falls back to :func:`arena_hash` when no
  library loaded.  Hashes are **bit-identical** to
  :func:`repro.core.hashed.alpha_hash_all` -- the test wall checks both
  tiers on adversarial corpora at every width.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Optional, Sequence

from repro.core import native
from repro.core.combiners import (
    _GOLDEN,
    _M0,
    _M1,
    _MASK64,
    HashCombiners,
    default_combiners,
)
from repro.core.kernel import combine_chain
from repro.core.native import _FAILURES, ArenaKernelError
from repro.core.position_tree import pt_here_hash
from repro.core.structure import slit_hash, svar_hash
from repro.lang.expr import App, Expr, Lam, Let, Lit, Var
from repro.lang.sexpr import WIRE_FORMAT, SexprError, literal_value

__all__ = [
    "ExprArena",
    "ArenaKernelError",
    "arena_hash",
    "arena_hash_any",
    "flatten_corpus",
    "ENGINE_CHOICES",
    "resolve_engine",
    "OP_VAR",
    "OP_LIT",
    "OP_LAM",
    "OP_APP",
    "OP_LET",
]

OP_VAR, OP_LIT, OP_LAM, OP_APP, OP_LET = 0, 1, 2, 3, 4

#: The kind name (``Expr.kind``) of each opcode, by opcode.
OP_KINDS = ("Var", "Lit", "Lam", "App", "Let")

#: The opcode of each kind name.
OP_OF_KIND = {kind: op for op, kind in enumerate(OP_KINDS)}

#: The node classes :meth:`ExprArena.flatten` compiles (exact types).
_NODE_TYPES = (Var, Lit, Lam, App, Let)


def _foreign_node(node: object) -> TypeError:
    return TypeError(
        f"cannot flatten non-expression node of type {type(node).__name__}"
    )


#: Every value accepted where an ``engine`` is requested (CLI, requests,
#: session config).  One tuple so the choice lists cannot drift.  The
#: arena engine has one kernel: native when its library loaded, scalar
#: otherwise (:func:`arena_hash_any`).
ENGINE_CHOICES = ("auto", "tree", "arena")


def resolve_engine(engine: str) -> str:
    """Normalise an ``engine`` request to ``"arena"`` or ``"tree"``:
    ``"auto"`` is the arena, and a name outside :data:`ENGINE_CHOICES`
    is a ``ValueError``.

    On fresh input the arena is at least as fast as the tree engine at
    every corpus size on every tier, down to one 60-node item (where the
    scalar tier ties on ``Expr`` hashing) and faster everywhere else::

        PYTHONPATH=src python benchmarks/run_bench.py --cells threshold \\
            --repeats 5 --out /tmp/threshold.json

    The tree engine wins only on a warm store, re-hashing edited trees
    whose interior objects its per-object memo already holds: pin
    ``engine="tree"`` or stream the edits (``Session.open_stream``).
    """
    if engine == "auto":
        return "arena"
    if engine in ENGINE_CHOICES:
        return engine
    raise ValueError(
        f"engine must be one of {', '.join(ENGINE_CHOICES)}, got {engine!r}"
    )


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
    ``sizes[i]``
        Node count of the subtree (the structure tag of Section 4.8).

    The columns are ``array`` objects of signed ints: ``"q"`` here, and
    ``"i"`` for ``left``/``right``/``aux`` in an arena decoded from a
    request body (:func:`repro.service.arena_body.decode_body`).

    Structurally identical subtrees share one index, so the arena is a
    maximally-shared DAG over *syntactic* classes (finer than the
    store's alpha-classes: two alpha-equivalent-but-renamed subtrees
    keep distinct arena nodes and collapse later, at intern time).

    Instances grow append-only through :meth:`flatten` and may be reused
    across corpora, whoever built them (a decoded request body, say).
    No index persists: each compile derives the structural index from
    the rows already there and the name and literal maps from the
    tables (none, for a fresh arena), and drops them when it returns.
    """

    __slots__ = (
        "op",
        "left",
        "right",
        "aux",
        "sizes",
        "names",
        "literals",
    )

    def __init__(self) -> None:
        self.op = bytearray()
        self.left = array("q")
        self.right = array("q")
        self.aux = array("q")
        self.sizes = array("q")
        self.names: list[str] = []
        self.literals: list = []

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
                    for arr in (self.left, self.right, self.aux, self.sizes)
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
        so degenerate depth-50k chains compile fine.  It runs in C when
        the compile library loaded (:func:`repro.core.native.compile_tier`)
        and in Python otherwise, to the same arena.  A failed flatten
        (a foreign node kind) raises ``TypeError`` and leaves the arena
        exactly as it was (see :meth:`_compile`).
        """
        walk = ExprArena._flatten_walk if native.FLATTEN is None else native.native_flatten
        return self._compile(walk, exprs)

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

        The walk runs in C when the compile library loaded
        (:func:`repro.core.native.native_wire`), over ``docs`` read into
        a list once.  At the first document it does not take as it is
        (a subclass where ``json.loads`` gives an exact type, a
        malformed entry, a literal it does not read unchanged) the
        compile is rolled back and :meth:`_wire_walk`, the oracle, reads
        the same list: it builds the same arena or raises its error.
        """
        if native.WIRE is None:
            return self._compile(ExprArena._wire_walk, docs)
        docs = list(docs)
        try:
            return self._compile(native.native_wire, docs)
        except native.WireFallback:
            return self._compile(ExprArena._wire_walk, docs)

    def _compile(self, walk, source) -> list[int]:
        """Run one compile ``walk`` over ``source``: flush or roll back.

        ``walk(self, source, roots)`` appends a root index per item to
        ``roots`` and returns the new rows' five columns, flushed into
        the arrays here, while it writes the leaf tables inline -- so on
        error, in the walk or in the flush (a ``size`` that is not an
        int), the columns and those tables are rolled back, and the
        arena is left exactly as it was, safe to keep using.
        """
        columns = (self.op, self.left, self.right, self.aux, self.sizes)
        count0 = len(self.op)
        n_names0 = len(self.names)
        n_lits0 = len(self.literals)
        roots: list[int] = []
        try:
            for column, new in zip(columns, walk(self, source, roots)):
                column.extend(new)
        except BaseException:
            # The tables would otherwise name entries no row uses.
            for column in columns:
                del column[count0:]
            del self.names[n_names0:]
            del self.literals[n_lits0:]
            raise
        return roots

    def _struct_index(self) -> dict:
        """The structural index of the rows already in the arena, as the
        walks key it: a Var row by ``nid * 8``, a Lit row by ``lid * 8 +
        1``, and Lam, App and Let rows by ``(op, nid, body)``, ``(op, fn,
        arg)`` and ``(op, nid, bound, body)``.  A key's first row wins."""
        struct: dict = {}
        for i, opc, lo, hi, x in zip(
            range(len(self.op)), self.op, self.left, self.right, self.aux
        ):
            if opc == OP_VAR:
                key = x * 8
            elif opc == OP_LIT:
                key = x * 8 + 1
            elif opc == OP_LAM:
                key = (OP_LAM, x, lo)
            elif opc == OP_APP:
                key = (OP_APP, lo, hi)
            else:
                key = (OP_LET, x, lo, hi)
            struct.setdefault(key, i)
        return struct

    def _leaf_ids(self) -> tuple[dict, dict]:
        """The name and literal maps of the tables already in the arena,
        as the walks key them: a name by itself, a literal by
        :func:`~repro.core.hashed.lit_cache_key`.  An entry's first
        index wins."""
        from repro.core.hashed import lit_cache_key

        name_ids: dict = {}
        for i, name in enumerate(self.names):
            name_ids.setdefault(name, i)
        lit_ids: dict = {}
        for i, value in enumerate(self.literals):
            lit_ids.setdefault(lit_cache_key(value), i)
        return name_ids, lit_ids

    def _flatten_walk(self, exprs, roots) -> tuple[list[int], ...]:
        """The flatten loop proper: the new rows' columns, as lists.

        Each node is popped once.  A leaf resolves where it is popped;
        an interior node pushes an ``(opcode, node)`` exit marker below
        its children, and the marker pops its children's indices off an
        operand stack, as :meth:`_wire_walk` does.  ``memo`` maps interior
        node objects already compiled in this call to their index (nodes
        hash by identity), so a shared object is walked once.  The type
        is checked before a node is hashed.  Mutates the leaf tables
        inline; :meth:`_compile` owns the flush-or-rollback around it.
        ``arena_flatten.c`` is this loop in C.
        """
        from repro.core.hashed import lit_cache_key

        op_b, left_b, right_b, aux_b, sizes_b = columns = ([], [], [], [], [])
        struct = self._struct_index()
        struct_get = struct.get
        name_ids, lit_ids = self._leaf_ids()
        names, literals = self.names, self.literals
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
                    opush(idx)
                else:
                    raise _foreign_node(node)
            roots.append(opop())
        return columns

    def _wire_walk(self, docs, roots) -> tuple[list[int], ...]:
        """The wire compile loop: the new rows' columns, as lists.

        Entries arrive children-first, so an operand stack of
        ``(index, size)`` pairs stands in for the tree: each operator
        pops its operands, derives its size from theirs and pushes its
        own row.  Keys, leaf tables and row order
        are :meth:`_flatten_walk`'s; the checks and messages are
        :func:`~repro.lang.sexpr.from_wire`'s.
        """
        from repro.core.hashed import lit_cache_key

        op_b, left_b, right_b, aux_b, sizes_b = columns = ([], [], [], [], [])
        struct = self._struct_index()
        struct_get = struct.get
        name_ids, lit_ids = self._leaf_ids()
        names, literals = self.names, self.literals
        count = len(self.op)

        for doc in docs:
            if not isinstance(doc, dict) or doc.get("format") != WIRE_FORMAT:
                raise SexprError(f"not a {WIRE_FORMAT} document")
            post = doc.get("post")
            if not isinstance(post, list) or not post:
                raise SexprError("missing postorder node list")
            stack: list[tuple[int, int]] = []
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
                    push((idx, 1))
                elif tag == "l":
                    if (
                        len(entry) != 2
                        or not isinstance(binder := entry[1], str)
                        or not binder
                        or not stack
                    ):
                        raise SexprError(f"malformed lambda entry {entry!r}")
                    body, body_size = pop()
                    nid = name_ids.get(binder)
                    if nid is None:
                        name_ids[binder] = nid = len(names)
                        names.append(binder)
                    size = 1 + body_size
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
                    push((idx, size))
                elif tag == "a":
                    if len(stack) < 2:
                        raise SexprError(
                            "application entry with too few operands"
                        )
                    arg, arg_size = pop()
                    fn, fn_size = pop()
                    size = 1 + fn_size + arg_size
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
                    push((idx, size))
                elif tag == "t":
                    if (
                        len(entry) != 2
                        or not isinstance(binder := entry[1], str)
                        or not binder
                        or len(stack) < 2
                    ):
                        raise SexprError(f"malformed let entry {entry!r}")
                    body, body_size = pop()
                    bound, bound_size = pop()
                    nid = name_ids.get(binder)
                    if nid is None:
                        name_ids[binder] = nid = len(names)
                        names.append(binder)
                    size = 1 + bound_size + body_size
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
                    push((idx, size))
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
                    push((idx, 1))
                else:
                    raise SexprError(f"unknown entry tag {tag!r}")
            if len(stack) != 1:
                raise SexprError("unbalanced postorder stream")
            roots.append(stack[0][0])
        return columns

    # -- reachability --------------------------------------------------------

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
    :func:`~repro.core.kernel.combine_chain`.  Checks every row first,
    as the native pass does (:func:`_check_rows`).
    """
    _check_rows(arena)
    return _arena_pass(arena, combiners, ())[0]


def _check_rows(arena: ExprArena) -> None:
    """The C ``check_rows`` for the scalar pass: refuse what the native
    pass refuses, with its text -- columns of unequal length, or a row
    whose opcode is above ``OP_LET``, whose ``left`` is not a row below
    it for Lam, App and Let (-1 otherwise), whose ``right`` is not a row
    below it for App and Let (-1 otherwise), or whose ``aux`` lies
    outside the literals for Lit or the names for Var, Lam and Let.
    Raises :class:`ArenaKernelError` naming the first bad row."""
    op, left, right, aux = arena.op, arena.left, arena.right, arena.aux
    n = len(op)
    if n and any(len(column) != n for column in (left, right, aux, arena.sizes)):
        raise ArenaKernelError(f"arena columns differ in length from its {n} rows")
    n_names, n_lits = len(arena.names), len(arena.literals)
    for i, opc, lo, hi, x in zip(range(n), op, left, right, aux):
        # The C file's ST_OPCODE, ST_CHILD and ST_AUX, in its order.
        if opc > OP_LET:
            failure = 1
        elif not (0 <= lo < i if opc >= OP_LAM else lo == -1) or not (
            0 <= hi < i if opc >= OP_APP else hi == -1
        ):
            failure = 2
        elif not (
            0 <= x < n_lits if opc == OP_LIT else opc == OP_APP or 0 <= x < n_names
        ):
            failure = 3
        else:
            continue
        raise ArenaKernelError(f"row {i}: {_FAILURES[failure]}")


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
) -> list[int]:
    """Every node's top hash, as :func:`arena_hash` computes it: one
    call into the native kernel when its library loaded
    (:func:`repro.core.native.kernel`), else the scalar pass.

    Either pass checks every row first and raises
    :class:`ArenaKernelError` for a malformed arena.
    """
    if combiners is None:
        combiners = default_combiners()
    if native.LIB is None:
        return arena_hash(arena, combiners)
    return native.native_tops(arena, combiners)
