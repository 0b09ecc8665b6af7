"""The ``repro-arena-v1`` request body: a compiled corpus as columns.

``/v1/hash`` and ``/v1/intern`` accept a corpus in one of two bodies,
chosen by ``Content-Type``: a JSON object of ``repro-expr-v1`` wire
documents (:func:`repro.lang.sexpr.to_wire`), or this one -- the
client's :class:`~repro.core.arena.ExprArena` itself, so neither side
builds or parses one JSON value per node::

    <header JSON>\\n
    op      rows x uint8        (OP_VAR..OP_LET)
    left    rows x int32 LE     (-1 when absent)
    right   rows x int32 LE
    aux     rows x int32 LE     (a names index, a literals index, or -1)
    roots   roots x int32 LE    (one row per item)

The header is one line of JSON: ``{"format": "repro-arena-v1",
"rows": N, "roots": R, "names": [...], "literals": [[tag, value],
...]}`` plus the request's hints (``backend``, ``engine``, ``bits``,
``seed``) as top-level keys, as a JSON body carries them.  Literal
tags are those of the wire documents (``int``/``float``/``bool``/
``str``), read by the same :func:`~repro.lang.sexpr.literal_value`.

:func:`decode_body` trusts nothing: stdlib checks over the columns and
one pass over the rows recompute each row's size from its children (see its docstring for the rules), so a body it accepts is an
arena the kernels, the intern step and :func:`unshared_items` can take
as is.  Rows may repeat: duplicates hash alike and intern as hits.
"""

from __future__ import annotations

import json
from array import array
from itertools import compress, count
from typing import Sequence

from repro.core.arena import OP_APP, OP_KINDS, OP_LAM, OP_LET, OP_LIT, OP_VAR, ExprArena
from repro.core.columns import I32, check_literals, check_names, column_bytes, read_column
from repro.lang.expr import App, Expr, Lam, Let, Lit, Var
from repro.lang.sexpr import literal_tag

__all__ = [
    "ARENA_CONTENT_TYPE",
    "ARENA_FORMAT",
    "ArenaBodyError",
    "MAX_BODY_BYTES",
    "MAX_ITEM_NODES",
    "closure_arena",
    "decode_body",
    "encode_body",
    "unshared_items",
]

#: Format tag in the header line.
ARENA_FORMAT = "repro-arena-v1"

#: The ``Content-Type`` that selects this body.
ARENA_CONTENT_TYPE = "application/x-repro-arena-v1"

#: Cap on request bodies (snapshot uploads included): a stray client
#: must not be able to balloon the server's memory.  Generous -- a
#: million-node corpus is a few tens of MB on the wire.
MAX_BODY_BYTES = 256 * 1024 * 1024

#: Cap on the items' total tree size in an arena body: what a JSON body
#: under :data:`MAX_BODY_BYTES` can carry, as no ``repro-expr-v1`` entry
#: is shorter than ``["a"],``.  An arena body shares subtrees, so without
#: it a 101-row chain of ``App(r, r)`` would describe 2**100 nodes.
MAX_ITEM_NODES = MAX_BODY_BYTES // 6

class ArenaBodyError(ValueError):
    """A body that is not a well-formed ``repro-arena-v1`` corpus."""


def encode_body(
    arena: ExprArena, roots: Sequence[int], hints: dict | None = None
) -> bytes:
    """Encode every row of ``arena`` and one root per item as a body.

    The caller guarantees that every row is reachable from ``roots``, as
    a fresh :meth:`~repro.core.arena.ExprArena.flatten` of exactly these
    items is; :func:`closure_arena` makes such an arena from any other.
    ``hints`` with a ``None`` value are left out.
    """
    header = {k: v for k, v in (hints or {}).items() if v is not None}
    header.update(
        format=ARENA_FORMAT,
        rows=len(arena),
        roots=len(roots),
        names=arena.names,
        literals=[[literal_tag(value) or "str", value] for value in arena.literals],
    )
    return b"".join(
        (
            json.dumps(header, separators=(",", ":"), sort_keys=True).encode(),
            b"\n",
            bytes(arena.op),
            column_bytes(I32, arena.left),
            column_bytes(I32, arena.right),
            column_bytes(I32, arena.aux),
            column_bytes(I32, roots),
        )
    )


def decode_body(data: bytes) -> tuple[dict, ExprArena, list[int]]:
    """Validate a body; return ``(header, arena, roots)``.

    Raises :class:`ArenaBodyError` when

    * the header is not a JSON object with the format tag, a count is
      not a non-negative ``int``, or the body's length differs from the
      one the counts declare;
    * a name is not a non-empty ``str`` or is listed twice (the kernels
      key free-variable maps by name id), or a literal breaks
      :func:`~repro.lang.sexpr.literal_value`'s rules;
    * a row's opcode is not one of the five, it lacks a child its
      opcode has or has one its opcode lacks, a child is not below the
      row, or ``aux`` does not index the names (Var, Lam, Let) or the
      literals (Lit), or is not ``-1`` (App);
    * a root is out of range, or a row is unreachable from every root
      (the intern step interns every row);
    * the items' total tree size exceeds :data:`MAX_ITEM_NODES`.

    Sizes are recomputed, children first.
    """
    end = data.find(b"\n")
    if end < 0:
        raise ArenaBodyError("no header line")
    try:
        header = json.loads(data[:end])
    except (ValueError, RecursionError) as exc:
        raise ArenaBodyError(f"header is not JSON: {exc}") from None
    if not isinstance(header, dict) or header.get("format") != ARENA_FORMAT:
        raise ArenaBodyError(f"header is not a {ARENA_FORMAT} object")
    rows, n_roots = header.get("rows"), header.get("roots")
    for key, value in (("rows", rows), ("roots", n_roots)):
        if type(value) is not int or value < 0:
            raise ArenaBodyError(
                f"'{key}' must be a non-negative integer, got {value!r}"
            )
    start = end + 1
    expected = start + 13 * rows + 4 * n_roots
    if len(data) != expected:
        raise ArenaBodyError(
            f"body is {len(data)} bytes, its header declares {expected}"
        )
    names = check_names(header.get("names"), ArenaBodyError)
    literals = check_literals(header.get("literals"), ArenaBodyError)

    op = bytes(data[start : start + rows])
    columns = [
        read_column(I32, data, start + offset * rows, rows) for offset in (1, 5, 9)
    ]
    left, right, aux = (column.tolist() for column in columns)
    roots = read_column(I32, data, start + 13 * rows, n_roots).tolist()
    sizes = _check_rows(op, left, right, aux, len(names), len(literals))
    _check_reach(roots, left, right, sizes)

    arena = ExprArena()
    arena.op = bytearray(op)
    arena.left, arena.right, arena.aux = columns
    arena.sizes = array("q", sizes)
    arena.names, arena.literals = names, literals
    return header, arena, roots


def _table(*ops: int) -> bytes:
    """A ``bytes.translate`` table: 1 for the given opcodes, else 0."""
    return bytes(code in ops for code in range(256))


_NAMED, _IS_LIT, _IS_APP = _table(OP_VAR, OP_LAM, OP_LET), _table(OP_LIT), _table(OP_APP)


def _check_rows(op, left, right, aux, n_names, n_lits):
    """Each row's shape, children first; the rows' sizes."""
    n = len(op)
    if n and max(op) > OP_LET:
        i = next(i for i, opc in enumerate(op) if opc > OP_LET)
        raise ArenaBodyError(f"row {i}: unknown opcode {op[i]}")
    for table, low, high in (
        (_NAMED, 0, n_names - 1),
        (_IS_LIT, 0, n_lits - 1),
        (_IS_APP, -1, -1),
    ):
        picked = list(compress(aux, op.translate(table)))
        if picked and (min(picked) < low or max(picked) > high):
            i = next(
                i for i, x in enumerate(aux)
                if table[op[i]] and not low <= x <= high
            )
            raise ArenaBodyError(
                f"row {i}: {OP_KINDS[op[i]]} with aux {aux[i]}, outside {low}..{high}"
            )
    sizes = [1] * n
    # Literal opcodes keep this loop tight: 2 is OP_LAM, 3 and 4 are
    # OP_APP and OP_LET, 0 and 1 the leaves.
    for i, opc, lo, hi in zip(count(), op, left, right):
        if opc > 2:
            if not (0 <= lo < i and 0 <= hi < i):
                raise _bad_children(i, opc, lo, hi)
            size = sizes[lo] + sizes[hi] + 1
            if size > MAX_ITEM_NODES:
                raise ArenaBodyError(
                    f"row {i}: subtree of {size} nodes exceeds {MAX_ITEM_NODES}"
                )
            sizes[i] = size
        elif opc == 2:
            if not 0 <= lo < i or hi != -1:
                raise _bad_children(i, opc, lo, hi)
            # Below the cap plus the row count: only a binary row doubles.
            sizes[i] = sizes[lo] + 1
        elif lo != -1 or hi != -1:
            raise _bad_children(i, opc, lo, hi)
    return sizes


def _bad_children(i: int, opc: int, lo: int, hi: int) -> ArenaBodyError:
    expected = ("-1, -1", "-1, -1", f"a row below {i}, -1")
    return ArenaBodyError(
        f"row {i}: {OP_KINDS[opc]} with children {lo}, {hi}; expected "
        + (expected[opc] if opc < OP_APP else f"two rows below {i}")
    )


def _check_reach(roots, left, right, sizes) -> None:
    """Every root in range, every row reachable, the items under the cap."""
    n = len(sizes)
    if roots and (min(roots) < 0 or max(roots) >= n):
        k = next(k for k, root in enumerate(roots) if not 0 <= root < n)
        raise ArenaBodyError(f"root {k} is row {roots[k]}, outside 0..{n - 1}")
    # A row that is a root or some row's child is reachable: a parent
    # sits above its child, so induct down from the top row.  The extra
    # slot takes the -1 of an absent child.
    marked = bytearray(n + 1)
    for column in (roots, left, right):
        for row in column:
            marked[row] = 1
    if marked.count(0, 0, n):
        raise ArenaBodyError(
            f"row {marked.index(0, 0, n)} is unreachable from every root"
        )
    total = sum(sizes[root] for root in roots)
    if total > MAX_ITEM_NODES:
        raise ArenaBodyError(f"items total {total} nodes, over {MAX_ITEM_NODES}")


def closure_arena(
    arena: ExprArena, roots: Sequence[int]
) -> tuple[ExprArena, list[int]]:
    """The rows reachable from ``roots``, renumbered in order into a new
    arena, with the names and literals they use; ``(arena, roots)``.

    What one shard receives of a compiled corpus: the new arena is
    ready for :func:`encode_body`.
    """
    mask = arena.closure(roots)
    # One slot past the end maps a -1 child to -1.
    renumber = [-1] * (len(mask) + 1)
    name_ids: dict[int, int] = {}
    lit_ids: dict[int, int] = {}
    op_b, left_b, right_b, aux_b, sizes_b = [], [], [], [], []
    columns = zip(
        count(), mask, arena.op, arena.left, arena.right, arena.aux, arena.sizes
    )
    for i, kept, opc, lo, hi, x, size in columns:
        if not kept:
            continue
        renumber[i] = len(op_b)
        if opc == OP_LIT:
            x = lit_ids.setdefault(x, len(lit_ids))
        elif opc != OP_APP:
            x = name_ids.setdefault(x, len(name_ids))
        op_b.append(opc)
        left_b.append(renumber[lo])
        right_b.append(renumber[hi])
        aux_b.append(x)
        sizes_b.append(size)
    out = ExprArena()
    out.op = bytearray(op_b)
    out.left, out.right, out.aux = array("q", left_b), array("q", right_b), array("q", aux_b)
    out.sizes = array("q", sizes_b)
    out.names = [arena.names[k] for k in name_ids]
    out.literals = [arena.literals[k] for k in lit_ids]
    return out, [renumber[root] for root in roots]


def unshared_items(arena: ExprArena, roots: Sequence[int]) -> list[Expr]:
    """One tree per root with no node object shared, within an item or
    across items, as :func:`~repro.lang.sexpr.from_wire` builds them.

    The one way back from an arena to trees: the server lowers a
    request the arena does not run (a ``tree`` pin, or a backend with
    its own pass, which may key values by node identity as ``debruijn``
    does) through it.
    """
    op, left, right, aux = arena.op, arena.left, arena.right, arena.aux
    names, literals = arena.names, arena.literals
    items = []
    for root in roots:
        built: list[Expr] = []
        # A row to visit, or ~row (negative) to build from its children.
        stack = [root]
        while stack:
            i = stack.pop()
            if i < 0:
                i = ~i
                opc = op[i]
                if opc == OP_LAM:
                    built.append(Lam(names[aux[i]], built.pop()))
                else:
                    second = built.pop()
                    first = built.pop()
                    if opc == OP_APP:
                        built.append(App(first, second))
                    else:
                        built.append(Let(names[aux[i]], first, second))
                continue
            opc = op[i]
            if opc == OP_VAR:
                built.append(Var(names[aux[i]]))
            elif opc == OP_LIT:
                built.append(Lit(literals[aux[i]]))
            else:
                stack.append(~i)
                if right[i] >= 0:
                    stack.append(right[i])
                stack.append(left[i])
        items.append(built[0])
    return items
