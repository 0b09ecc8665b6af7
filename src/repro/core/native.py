"""The native arena libraries: two C files, built, cached and called.

Importing this module (``repro.core.arena`` does) runs :func:`load`
once.  It compiles the C sources that sit next to this file with the
system ``cc`` into a per-user cache and opens the results:

* ``arena_kernel.c``, the hashing pass behind :func:`native_tops`, with
  :class:`ctypes.CDLL`, whose calls release the GIL.  It includes only
  C99 headers.
* ``arena_flatten.c``, the compile library, with :class:`ctypes.PyDLL`,
  whose calls hold the GIL.  It has three entry points, all run through
  the CPython C API, so it builds against the interpreter's headers
  (:data:`PY_INCLUDE`): the compile walk behind :meth:`ExprArena.flatten
  <repro.core.arena.ExprArena.flatten>` (:func:`native_flatten`), which
  walks ``Expr`` objects; the wire walk behind
  :meth:`ExprArena.extend_wire <repro.core.arena.ExprArena.extend_wire>`
  (:func:`native_wire`), which walks the lists and dicts of
  ``repro-expr-v1`` documents; and the arena resolve step behind the
  store's bulk intern (:func:`native_resolve`), which resolves every
  arena row against the intern table's columns and dicts.

A cache file is named by the sha256 of its source bytes, the compile
flags and the machine, and the compile library's also by the
interpreter's ABI (``sys.implementation.cache_tag`` and
``sys.abiflags``).  So a cache hit costs one hash and one ``dlopen`` per
library; a cold cache costs one compile each (a fraction of a second)
at import, never inside a call.  Each load refreshes its file's mtime,
and after a build the loader removes this user's other builds of that
library last modified more than :data:`PRUNE_AGE` ago: old source
versions go, while checkouts that share the cache keep each other's
builds.

The cache directory is ``$XDG_CACHE_HOME/repro``, else
``~/.cache/repro``, else ``<tempdir>/repro-<uid>``, created with mode
0700.  Nothing is loaded from a directory or a file that another user
owns or that is group- or world-writable: a planted shared object
would run as the caller.  Concurrent first imports each build into a
temp file and ``os.replace`` it into place.

A library that does not build or load is ``None`` (:data:`LIB`, and
:data:`FLATTEN`, :data:`WIRE` and :data:`RESOLVE` for the compile
library's three entries), and one ``repro`` warning per import names
each such library and why (:data:`REASONS`).  Without the kernel
:func:`repro.core.arena.arena_hash_any` runs the scalar pass; without
the compile library ``flatten`` and ``extend_wire`` run their Python
walks and the bulk intern the Python resolve loop
(:func:`repro.store.arena_intern._resolve_loop`).  Each stays the
oracle its native tier is tested against, and a host without the
Python headers keeps the native kernel.
"""

from __future__ import annotations

import ctypes
import fnmatch
import hashlib
import logging
import os
import platform
import shutil
import stat
import subprocess
import sys
import sysconfig
import tempfile
from array import array
from itertools import accumulate
from typing import Optional

from repro.core.combiners import _MASK64, HashCombiners
from repro.core.position_tree import pt_here_hash
from repro.core.structure import slit_hash, svar_hash

__all__ = [
    "ArenaKernelError",
    "FLATTEN",
    "LIB",
    "REASONS",
    "RESOLVE",
    "WIRE",
    "WireFallback",
    "cache_dir",
    "compile_tier",
    "kernel",
    "load",
    "native_flatten",
    "native_resolve",
    "native_tops",
    "native_wire",
]

_HERE = os.path.dirname(os.path.abspath(__file__))

#: The kernel's C source, shipped in the package next to this loader.
SOURCE = os.path.join(_HERE, "arena_kernel.c")

#: The compile walk's C source, next to it.
FLATTEN_SOURCE = os.path.join(_HERE, "arena_flatten.c")

#: Compile flags (part of the cache key).  No ``-march=native``: a cache
#: directory may be shared by machines of one architecture.
CFLAGS = ("-O2", "-std=c99", "-shared", "-fPIC")

#: Where the compile library finds ``Python.h``: this interpreter's
#: include directory, added to its flags.
PY_INCLUDE = sysconfig.get_paths()["include"]

#: A cached build of a library that is not the current one is removed
#: after a build once it has not been loaded for this long (seconds).
PRUNE_AGE = 7 * 24 * 3600

#: What runs when each library did not load, for the warning.
_FALLBACKS = {
    "arena_kernel": "the scalar kernel runs",
    "arena_flatten": "flatten, extend_wire and the resolve step run in Python",
}

_log = logging.getLogger("repro")


class ArenaKernelError(ValueError):
    """An arena the kernels refuse: a row whose opcode, children or
    ``aux`` are out of range, or columns of unequal length."""


class WireFallback(Exception):
    """The native wire walk met a document it does not take as it is;
    the Python walk reads the documents instead."""


def cache_dir() -> str:
    """Where built kernels are cached for this user."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if os.path.isabs(base):
        return os.path.join(base, "repro")
    home = os.path.expanduser("~")
    if os.path.isabs(home):
        return os.path.join(home, ".cache", "repro")
    return os.path.join(tempfile.gettempdir(), f"repro-{os.getuid()}")


def _untrusted(path: str) -> Optional[str]:
    """Why ``path`` must not be loaded from, or ``None``."""
    info = os.stat(path)
    if info.st_uid != os.getuid():
        return f"{path} is owned by uid {info.st_uid}, not {os.getuid()}"
    if info.st_mode & (stat.S_IWGRP | stat.S_IWOTH):
        return f"{path} is group- or world-writable"
    return None


def _build(source: bytes, directory: str, stem: str, target: str, flags) -> Optional[str]:
    """Compile ``source`` into ``target``; why not, or ``None``."""
    compiler = shutil.which("cc")
    if compiler is None:
        return "no C compiler (cc) on PATH"
    fd, tmp = tempfile.mkstemp(prefix=f".{stem}-", suffix=".so", dir=directory)
    os.close(fd)
    try:
        subprocess.run(
            [compiler, *flags, "-x", "c", "-o", tmp, "-"],
            input=source,
            check=True,
            capture_output=True,
            timeout=120,
        )
        os.chmod(tmp, 0o700)
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return None


def _prune(directory: str, stem: str, target: str) -> None:
    """Remove this user's regular files named like builds of ``stem``,
    other than ``target``, last modified more than :data:`PRUNE_AGE`
    before ``target`` (just built); a failed removal is ignored."""
    cutoff = os.stat(target).st_mtime - PRUNE_AGE
    for name in os.listdir(directory):
        path = os.path.join(directory, name)
        if path == target or not fnmatch.fnmatch(name, f"{stem}-*.so"):
            continue
        try:
            info = os.lstat(path)
            if (
                stat.S_ISREG(info.st_mode)
                and info.st_uid == os.getuid()
                and info.st_mtime < cutoff
            ):
                os.unlink(path)
        except OSError:
            pass


def _open(directory: str, stem: str, path: str, python: bool):
    """Build library ``stem`` from the C source at ``path`` on a cache
    miss and open it: ``(library, None)`` or ``(None, reason)``.
    ``python`` marks the compile library, built against the
    interpreter's headers and opened with ``PyDLL``."""
    with open(path, "rb") as handle:
        source = handle.read()
    flags = [*CFLAGS, f"-I{PY_INCLUDE}"] if python else list(CFLAGS)
    key = [source, " ".join(flags).encode(), platform.machine().encode()]
    if python:
        key += [str(sys.implementation.cache_tag).encode(), sys.abiflags.encode()]
    digest = hashlib.sha256(b"\0".join(key)).hexdigest()[:24]
    target = os.path.join(directory, f"{stem}-{digest}.so")
    os.makedirs(directory, mode=0o700, exist_ok=True)
    why = _untrusted(directory)
    if why is None and not os.path.exists(target):
        if python and not os.path.isfile(os.path.join(PY_INCLUDE, "Python.h")):
            return None, f"no Python.h in {PY_INCLUDE}"
        why = _build(source, directory, stem, target, flags)
        if why is None:
            _prune(directory, stem, target)
    if why is None:
        why = _untrusted(target)
    if why is not None:
        return None, why
    lib = (ctypes.PyDLL if python else ctypes.CDLL)(target)
    os.utime(target)
    return lib, None


def _kernel_entry(lib: ctypes.CDLL):
    entry = lib.repro_arena_tops
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    entry.argtypes = [
        i64, ctypes.c_char_p, ptr, ptr, ptr, ctypes.c_int,  # rows
        ptr,  # sizes
        i64, ctypes.c_char_p, i64, ptr,  # names
        i64, ptr,  # literals
        ptr, ptr, ctypes.c_int, ctypes.c_uint64, ctypes.c_uint64,  # combiners
        ptr, ptr, ctypes.POINTER(i64),  # out
    ]
    entry.restype = ctypes.c_int
    return lib


def _compile_entries(lib: ctypes.PyDLL):
    for entry, arity in (
        (lib.repro_flatten, 11), (lib.repro_wire, 11), (lib.repro_resolve, 5)
    ):
        entry.argtypes = [ctypes.py_object] * arity
        entry.restype = ctypes.py_object
    return lib


def load(directory: Optional[str] = None):
    """Build on a cache miss, then open both libraries: ``(kernel,
    compile, reasons)``, the kernel's library and the compile library
    (its ``repro_flatten``, ``repro_wire`` and ``repro_resolve`` entries
    set up), each
    ``None`` when it did not load, and ``reasons`` mapping each library
    that did not load to why.  One warning names them all."""
    directory = directory or cache_dir()
    opened, reasons = [], {}
    for stem, path, python, entry in (
        ("arena_kernel", SOURCE, False, _kernel_entry),
        ("arena_flatten", FLATTEN_SOURCE, True, _compile_entries),
    ):
        try:
            lib, why = _open(directory, stem, path, python)
            if lib is not None:
                lib = entry(lib)
        except subprocess.CalledProcessError as exc:
            detail = exc.stderr.decode("utf-8", "replace").strip() if exc.stderr else ""
            lib, why = None, f"cc exited with status {exc.returncode}: {detail}"
        except (OSError, subprocess.TimeoutExpired, AttributeError) as exc:
            lib, why = None, f"{type(exc).__name__}: {exc}"
        opened.append(lib)
        if lib is None:
            reasons[stem] = why
    if reasons:
        _log.warning(
            "native arena libraries unavailable: %s",
            "; ".join(f"{stem} ({_FALLBACKS[stem]}): {why}" for stem, why in reasons.items()),
        )
    kernel_lib, compile_lib = opened
    return kernel_lib, compile_lib, reasons


#: The loaded kernel library, ``None`` when it did not load;
#: :data:`REASONS` maps each library that did not load
#: (``"arena_kernel"``, ``"arena_flatten"``) to why.
LIB, _COMPILE, REASONS = load()

#: The compile library's entry points, the compile walk, the wire walk
#: and the resolve step, all ``None`` when it did not load.
FLATTEN = WIRE = RESOLVE = None
if _COMPILE is not None:
    FLATTEN, WIRE, RESOLVE = (
        _COMPILE.repro_flatten, _COMPILE.repro_wire, _COMPILE.repro_resolve
    )


def kernel() -> str:
    """The arena kernel that runs: ``"native"`` or ``"scalar"``."""
    return "scalar" if LIB is None else "native"


def compile_tier() -> str:
    """The tier of the compile library's three steps, the walks
    ``ExprArena.flatten`` and ``ExprArena.extend_wire`` run and the bulk
    intern's resolve step: ``"native"`` or ``"python"``."""
    return "python" if FLATTEN is None else "native"


#: The salts the pass reads, in the C file's ``S_*`` order.
_SALTS = ("name", "entry", "pt_join", "top", "slam", "sapp", "slet")

#: The C file's ``ST_*`` codes.
_FAILURES = {
    1: "unknown opcode",
    2: "child index not below its row, or not -1 where absent",
    3: "aux outside the names or literals",
    4: "name offsets outside the name blob",
}


def _fold(value: int) -> int:
    # A chain absorbs a value as the XOR of its two 64-bit words.
    return (value & _MASK64) ^ (value >> 64)


def _int_column(column, itemsizes=(4, 8)) -> array:
    if not (isinstance(column, array) and column.typecode in "ilq"
            and column.itemsize in itemsizes):
        column = array("q", column)
    return column


def native_tops(arena, combiners: HashCombiners) -> list[int]:
    """Every arena row's top hash, from one call into the library;
    bit-identical to :func:`repro.core.arena.arena_hash`.

    Raises :class:`ArenaKernelError` for a malformed arena, as the C
    pass checks every row first, and ``UnicodeEncodeError`` for a name
    that is not encodable as UTF-8 (a lone surrogate), as
    :meth:`~repro.core.combiners.HashCombiners.hash_name` does.
    """
    op = bytes(arena.op)
    n = len(op)
    if n == 0:
        return []
    rows = [_int_column(arena.left), _int_column(arena.right), _int_column(arena.aux)]
    sizes = _int_column(arena.sizes, (8,))
    widths = sum(1 << k for k, column in enumerate(rows) if column.itemsize == 8)

    names = arena.names
    joined = "".join(names)
    blob = joined.encode("utf-8")
    if len(blob) == len(joined):  # every name is ASCII: a byte per char
        lengths = map(len, names)
    else:
        lengths = (len(name.encode("utf-8")) for name in names)
    offsets = array("q", [0])
    offsets.extend(accumulate(lengths))
    lit_s = array("Q", [_fold(slit_hash(combiners, v)) for v in arena.literals])
    consts = array("Q", map(_fold, (
        pt_here_hash(combiners),
        svar_hash(combiners),
        combiners.NONE_HASH,
        combiners.TRUE_HASH,
        combiners.FALSE_HASH,
    )))
    salts = array("Q", [combiners._salts[s][lane] for s in _SALTS for lane in (0, 1)])
    two = combiners._lanes == 2
    mask = combiners.mask
    out_lo = array("Q", bytes(8 * n))
    out_hi = array("Q", bytes(8 * n)) if two else out_lo
    bad = ctypes.c_int64(-1)

    def at(column: array) -> int:
        return column.buffer_info()[0]

    # Exported views pin the columns: another thread resizing one while
    # the call runs without the GIL gets a BufferError, not a dangling
    # pointer.  Their lengths are checked once pinned.
    pins = [memoryview(column) for column in (*rows, sizes)]
    try:
        if any(len(pin) != n for pin in pins):
            raise ArenaKernelError(f"arena columns differ in length from its {n} rows")
        status = LIB.repro_arena_tops(
            n, op, at(rows[0]), at(rows[1]), at(rows[2]), widths,
            at(sizes),
            len(names), blob, len(blob), at(offsets),
            len(lit_s), at(lit_s),
            at(consts), at(salts), two, mask & _MASK64, mask >> 64,
            at(out_lo), at(out_hi), ctypes.byref(bad),
        )
    finally:
        for pin in pins:
            pin.release()
    if status:
        if status not in _FAILURES:
            raise MemoryError(f"native arena kernel: no memory for {n} rows")
        raise ArenaKernelError(f"row {bad.value}: {_FAILURES[status]}")
    if not two:
        return out_lo.tolist()
    return [(hi << 64) | lo for hi, lo in zip(out_hi.tolist(), out_lo.tolist())]


def native_flatten(arena, exprs, roots: list) -> tuple:
    """:meth:`ExprArena._flatten_walk
    <repro.core.arena.ExprArena._flatten_walk>` in one call into the
    compile library: the new rows' ``(op, left, right, aux, sizes)``
    columns, ``bytes`` and four int arrays, each root's row appended to
    ``roots``, and the new names and literals appended to the arena's
    tables, exactly as the Python walk leaves them, from the same name
    and literal maps.  Raises what the Python walk raises
    (``TypeError`` for a foreign node)."""
    from repro.core.arena import _NODE_TYPES, _foreign_node
    from repro.core.hashed import lit_cache_key

    return _new_rows(arena, FLATTEN, exprs, roots, (
        _NODE_TYPES, lit_cache_key, _foreign_node, sys.getswitchinterval(),
    ))


def native_wire(arena, docs: list, roots: list) -> tuple:
    """:meth:`ExprArena._wire_walk
    <repro.core.arena.ExprArena._wire_walk>` over the list ``docs`` in
    one call into the compile library, as :func:`native_flatten` runs
    the compile walk.  Raises :class:`WireFallback`, with rows, names
    and literals left for the caller to roll back, at the first
    document it does not take as it is: a type that is not exact, a
    malformed entry or document, or a literal other than an exact
    ``int``, ``float`` or ``str`` or a ``bool`` under its own tag (or
    an exact ``int`` in the float range under ``float``)."""
    from repro.core.hashed import lit_cache_key
    from repro.lang.sexpr import WIRE_FORMAT

    rows = _new_rows(arena, WIRE, docs, roots, (
        lit_cache_key, WIRE_FORMAT, sys.getswitchinterval(),
    ))
    if rows is None:
        raise WireFallback
    return rows


def _new_rows(arena, entry, source, roots: list, helpers: tuple):
    """Run the library's compile walk ``entry`` over ``source`` into
    ``arena``: the new rows' columns, ``bytes`` and four int arrays, or
    ``None`` when the walk returned it."""
    columns = (arena.left, arena.right, arena.aux)
    name_ids, lit_ids = arena._leaf_ids()
    rows = entry(
        source, roots, arena.names, name_ids, arena.literals, lit_ids,
        arena.op, *(_int_column(column, (8,)) for column in columns), helpers,
    )
    if rows is None:
        return None
    op, *new = rows
    new = [array("q", data) for data in new]
    # The columns extend by their own typecode (a body-decoded arena's
    # left, right and aux are int32).
    return op, *(
        data if column.typecode == "q" else array(column.typecode, data)
        for column, data in zip((*columns, arena.sizes), new)
    )


def native_resolve(arena, tops: list, table: tuple, state: array) -> int:
    """The bulk intern's resolve step in one call into the compile
    library: every row of ``arena``, given its top hash in ``tops``,
    found in or added to the intern table, as
    :meth:`repro.store.store.InternTable.resolve_arena` describes.

    ``table`` holds the table's ``by_hash``, ``row_of``, ``hashes``,
    ``labels``, ``ops``, ``lefts``, ``rights``, ``sizes``, ``versions``,
    ``stamps``, ``refcounts`` and ``free``, then the int64 array that
    receives each row's class id.  ``state`` holds ``next_id``, the store
    version, the clock and the table's first spare row, which the call
    advances, then the rows it took (from the end of ``free``, then
    spare ones) and the hits, which it counts from 0; it is written back
    however the call ends.  Returns -1, or the row
    whose hit failed the collision guard (nothing of it written).
    Raises ``ValueError`` for a malformed arena or columns of unequal
    length, as nothing is written before every column is checked."""
    columns = (_int_column(column, (8,)) for column in (
        arena.left, arena.right, arena.aux, arena.sizes,
    ))
    return RESOLVE(
        (arena.op, *columns, arena.names, arena.literals),
        tops, table, state, sys.getswitchinterval(),
    )
