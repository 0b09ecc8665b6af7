"""The native arena kernel: ``arena_kernel.c``, built, cached and called.

Importing this module (``repro.core.arena`` does) runs :func:`load`
once: it compiles the C source that sits next to this file with the
system ``cc`` into a per-user cache and opens the result with
:class:`ctypes.CDLL`, whose calls release the GIL.  The cache file is
named by the sha256 of the source bytes, the compile flags and the
machine, so a cache hit costs one hash and one ``dlopen``; a cold
cache costs one compile (a fraction of a second) at import, never
inside a hashing call.

The cache directory is ``$XDG_CACHE_HOME/repro``, else
``~/.cache/repro``, else ``<tempdir>/repro-<uid>``, created with mode
0700.  Nothing is loaded from a directory or a file that another user
owns or that is group- or world-writable: a planted shared object
would run as the caller.  Concurrent first imports each build into a
temp file and ``os.replace`` it into place.

With no compiler, a failed build or a failed load, :data:`LIB` is
``None``, one ``repro`` warning says why (:data:`REASON`), and
:func:`repro.core.arena.arena_hash_any` runs the scalar kernel, which
stays the oracle the native pass is tested against.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import platform
import shutil
import stat
import subprocess
import tempfile
from array import array
from itertools import accumulate
from typing import Optional

from repro.core.combiners import _MASK64, HashCombiners
from repro.core.position_tree import pt_here_hash
from repro.core.structure import slit_hash, svar_hash

__all__ = ["ArenaKernelError", "LIB", "REASON", "cache_dir", "kernel", "load", "native_tops"]

#: The C source, shipped in the package next to this loader.
SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "arena_kernel.c")

#: Compile flags (part of the cache key).  No ``-march=native``: a cache
#: directory may be shared by machines of one architecture.
CFLAGS = ("-O2", "-std=c99", "-shared", "-fPIC")

_log = logging.getLogger("repro")


class ArenaKernelError(ValueError):
    """An arena the kernels refuse: a row whose opcode, children or
    ``aux`` are out of range, or columns of unequal length."""


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


def _build(source: bytes, directory: str, target: str) -> Optional[str]:
    """Compile ``source`` into ``target``; why not, or ``None``."""
    compiler = shutil.which("cc")
    if compiler is None:
        return "no C compiler (cc) on PATH"
    fd, tmp = tempfile.mkstemp(prefix=".arena_kernel-", suffix=".so", dir=directory)
    os.close(fd)
    try:
        subprocess.run(
            [compiler, *CFLAGS, "-x", "c", "-o", tmp, "-"],
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


def _open(directory: str):
    with open(SOURCE, "rb") as handle:
        source = handle.read()
    key = b"\0".join([source, " ".join(CFLAGS).encode(), platform.machine().encode()])
    target = os.path.join(
        directory, f"arena_kernel-{hashlib.sha256(key).hexdigest()[:24]}.so"
    )
    os.makedirs(directory, mode=0o700, exist_ok=True)
    why = _untrusted(directory)
    if why is None and not os.path.exists(target):
        why = _build(source, directory, target)
    if why is None:
        why = _untrusted(target)
    if why is not None:
        return None, why
    lib = ctypes.CDLL(target)
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
    return lib, None


def load(directory: Optional[str] = None) -> tuple[Optional[ctypes.CDLL], Optional[str]]:
    """Build on a cache miss, then open the kernel: ``(library, None)``,
    or ``(None, reason)`` after logging one warning with the reason."""
    try:
        lib, why = _open(directory or cache_dir())
    except subprocess.CalledProcessError as exc:
        detail = exc.stderr.decode("utf-8", "replace").strip() if exc.stderr else ""
        lib, why = None, f"cc exited with status {exc.returncode}: {detail}"
    except (OSError, subprocess.TimeoutExpired, AttributeError) as exc:
        lib, why = None, f"{type(exc).__name__}: {exc}"
    if lib is None:
        _log.warning("native arena kernel unavailable, the scalar kernel runs: %s", why)
    return lib, why


#: The loaded library, or ``None`` (then :data:`REASON` says why).
LIB, REASON = load()


def kernel() -> str:
    """The arena kernel that runs: ``"native"`` or ``"scalar"``."""
    return "scalar" if LIB is None else "native"


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
