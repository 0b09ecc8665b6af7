"""Little-endian columns and the name and literal tables of the column codecs.

Two formats carry expression rows as fixed-width little-endian columns
after a JSON header line: the ``repro-arena-v1`` request body
(:mod:`repro.service.arena_body`) and the ``repro-store-delta-v2``
journal and delta frame (:mod:`repro.store.snapshot`).  Both index
variable names and literals through two header tables, ``names`` (a
list of distinct non-empty strings) and ``literals`` (``[tag, value]``
pairs read by :func:`~repro.lang.sexpr.literal_value`).  The column
helpers, the table builder and the table checks below are their one
copy; each check raises the caller's error type.
"""

from __future__ import annotations

import sys
from array import array

from repro.core.arena import OP_APP, OP_LIT
from repro.core.hashed import lit_cache_key
from repro.lang.sexpr import SexprError, literal_value

__all__ = [
    "I32",
    "check_literals",
    "check_names",
    "column_bytes",
    "label_indices",
    "read_column",
]

#: An array typecode of 4-byte signed ints.
I32 = next(code for code in "ilh" if array(code).itemsize == 4)

#: Whether this host must swap columns to and from little-endian.
_SWAP = sys.byteorder == "big"


def column_bytes(typecode: str, values) -> bytes:
    """``values`` as one little-endian column of ``typecode`` items."""
    column = array(typecode, values)
    if _SWAP:  # pragma: no cover - little-endian hosts
        column.byteswap()
    return column.tobytes()


def read_column(typecode: str, data: bytes, start: int, n: int) -> array:
    """The ``n`` little-endian ``typecode`` items at ``data[start:]``;
    the caller has checked that they are there."""
    column = array(typecode)
    column.frombytes(data[start : start + column.itemsize * n])
    if _SWAP:  # pragma: no cover - little-endian hosts
        column.byteswap()
    return column


def label_indices(ops, labels) -> tuple[list[int], list[str], list]:
    """Index each row's label, given its ``OP_*`` code, into a name
    table and a literal table built here by first occurrence: ``(indices,
    names, literals)``.  An App row gets -1.  Literals are keyed by
    :func:`~repro.core.hashed.lit_cache_key`, so ``1``, ``1.0`` and
    ``True`` (and ``-0.0`` and ``0.0``) stay apart."""
    names: dict[str, int] = {}
    literals: dict[tuple, tuple[int, object]] = {}  # key -> (index, value)
    indices = [
        -1 if op == OP_APP
        else literals.setdefault(lit_cache_key(label), (len(literals), label))[0]
        if op == OP_LIT
        else names.setdefault(label, len(names))
        for op, label in zip(ops, labels)
    ]
    return indices, list(names), [value for _index, value in literals.values()]


def check_names(names, error: type[Exception]) -> list[str]:
    """``names`` if it is a list of distinct non-empty ``str`` (the
    kernels key free-variable maps by name index); else raise ``error``."""
    if not isinstance(names, list):
        raise error("'names' must be a list")
    for name in names:
        if type(name) is not str or not name:
            raise error(f"malformed name {name!r}")
    if len(set(names)) != len(names):
        seen: set[str] = set()
        twice = next(name for name in names if name in seen or seen.add(name))
        raise error(f"name {twice!r} is listed twice")
    return names


def check_literals(entries, error: type[Exception]) -> list:
    """The literal values of a list of ``[tag, value]`` entries; raise
    ``error`` on any entry :func:`~repro.lang.sexpr.literal_value`
    refuses."""
    if not isinstance(entries, list):
        raise error("'literals' must be a list")
    values = []
    for entry in entries:
        if not isinstance(entry, list) or len(entry) != 2:
            raise error(f"malformed literal {entry!r}")
        try:
            values.append(literal_value(["c", *entry]))
        except SexprError as exc:
            raise error(str(exc)) from None
    return values
