"""The native arena kernel's own mechanics.

``test_arena_vec`` holds the bit-identity wall against the scalar
kernel; this module covers what only the native tier has:

* **Names** hashed in C equal ``HashCombiners.hash_name`` for
  non-ASCII, astral and NUL-holding names; a lone surrogate still fails
  to encode, and the service answers 400 without touching its store.
* **Columns**: body-decoded arenas (int32 ``left``/``right``/``aux``)
  hash and intern through the store's arena steps.
* **Malformed arenas** handed straight to the native entry or to the
  scalar :func:`~repro.core.arena.arena_hash` raise
  :class:`~repro.core.arena.ArenaKernelError` with the same text; a
  seeded wall of one-cell mutations is refused by both tiers alike or
  hashed by both as the unchecked scalar pass hashes it, and the
  process survives every case.
* **The loader**: a build in a fresh cache directory, a cache hit, a
  failing build or no compiler (one warning, the scalar kernel
  answers), and cache directories or files another user could write.
* **Packaging**: the C source ships next to its loader.
"""

from __future__ import annotations

import ast
import fnmatch
import logging
import os
import random
import subprocess
from array import array
from pathlib import Path

import pytest

import repro
from repro.core import native
from repro.core.arena import (
    OP_APP,
    OP_LAM,
    OP_LET,
    OP_LIT,
    ArenaKernelError,
    ExprArena,
    _arena_pass,
    arena_hash,
    arena_hash_any,
    flatten_corpus,
)
from repro.core.combiners import HashCombiners
from repro.lang.expr import App, Lam, Let, Lit, Var
from repro.service import ReproServer, ServiceClient
from repro.service.arena_body import decode_body, encode_body
from repro.store import ExprStore

from test_arena import mixed_corpus, tree_hashes
from test_arena_body import post_raw

needs_native = pytest.mark.skipif(
    native.LIB is None, reason=f"native kernel not loaded: {native.REASON}"
)

REPO = Path(__file__).resolve().parent.parent


def native_tops(arena, bits=64):
    return native.native_tops(arena, HashCombiners(bits=bits))


#: The two kernel tiers that refuse malformed arenas: the native entry,
#: and the scalar pass ``arena_hash_any`` runs without the library.
TIERS = [pytest.param("native", marks=needs_native), "scalar"]


def tier_tops(tier, arena, combiners=None):
    combiners = combiners or HashCombiners()
    if tier == "native":
        return native.native_tops(arena, combiners)
    return arena_hash(arena, combiners)


# -- names ---------------------------------------------------------------------

ODD_NAMES = ["é", "λx", "\U0001d4b3", "a\x00b", "\x00", "名前", "x" * 300, "y"]


@needs_native
@pytest.mark.parametrize("bits", [8, 64, 128])
def test_names_hash_like_hash_name(bits):
    corpus = [Lam(name, App(Var(name), Var("y"))) for name in ODD_NAMES]
    corpus += [Let(ODD_NAMES[0], Var(ODD_NAMES[3]), Var(ODD_NAMES[0]))]
    arena, roots = flatten_corpus(corpus)
    combiners = HashCombiners(bits=bits)
    tops = native.native_tops(arena, combiners)
    assert tops == arena_hash(arena, combiners)
    assert [tops[r] for r in roots] == tree_hashes(corpus, combiners)
    # A Var row's top depends on its name hash alone: compare each one
    # with the Python FNV-1a directly.
    for name in ODD_NAMES:
        single, (root,) = flatten_corpus([Var(name)])
        assert native.native_tops(single, combiners)[root] == tree_hashes(
            [Var(name)], combiners
        )[0]


@needs_native
def test_lone_surrogate_name_fails_to_encode():
    arena, _roots = flatten_corpus([Lam("\ud800", Var("\ud800"))])
    with pytest.raises(UnicodeEncodeError):
        native_tops(arena)
    with pytest.raises(UnicodeEncodeError):
        arena_hash(arena)


@pytest.mark.parametrize("path", ["/v1/hash", "/v1/intern"])
def test_lone_surrogate_answers_400_and_leaves_the_store(path):
    bad = [Lam("\ud800", Var("\ud800")), App(Var("f"), Var("x"))]
    with ReproServer(port=0) as server:
        client = ServiceClient(server.url)
        try:
            client.intern_many([App(Var("a"), Lit(1))])
            store = server.session.store
            before = (store.version, len(store))
            arena = ExprArena()
            body = encode_body(arena, arena.flatten(bad), {"engine": "arena"})
            status, reply = post_raw(server.url, path, body)
            assert status == 400 and "UnicodeEncodeError" in reply["error"]
            assert (store.version, len(store)) == before
            assert client.hash_corpus([Var("z")]) == tree_hashes([Var("z")])
        finally:
            client.close()


# -- columns -------------------------------------------------------------------


def test_body_decoded_arenas_hash_and_intern():
    corpus = mixed_corpus(80, seed=21)
    source = ExprArena()
    _header, arena, roots = decode_body(encode_body(source, source.flatten(corpus)))
    assert {arena.left.itemsize, arena.right.itemsize, arena.aux.itemsize} == {4}
    assert arena_hash_any(arena) == arena_hash(arena)
    store = ExprStore()
    assert store.hash_arena(arena, roots) == tree_hashes(corpus)
    ids, hashes = ExprStore().intern_arena(arena, roots)
    assert hashes == tree_hashes(corpus)
    assert ids == ExprStore().intern_many(corpus, engine="arena")


# -- malformed arenas ----------------------------------------------------------


def small_arena():
    corpus = [
        Let("x", Lit(1), App(Lam("y", Var("y")), Var("x"))),
        App(Var("f"), Lit("s")),
    ]
    return flatten_corpus(corpus)[0]


def copy_arena(arena: ExprArena) -> ExprArena:
    out = ExprArena()
    out.op = bytearray(arena.op)
    out.left, out.right = array("q", arena.left), array("q", arena.right)
    out.aux, out.sizes = array("q", arena.aux), array("q", arena.sizes)
    out.names, out.literals = list(arena.names), list(arena.literals)
    return out


MALFORMED = [
    ("child-at-row", "left", OP_APP, "row", "child index not below its row"),
    ("child-above-row", "right", OP_LET, "row+1", "child index not below its row"),
    ("missing-child", "left", OP_LAM, -1, "child index not below its row"),
    ("negative-child", "left", OP_APP, -2, "child index not below its row"),
    ("aux-past-names", "aux", OP_LAM, "names", "aux outside the names or literals"),
    ("aux-past-literals", "aux", OP_LIT, "literals", "aux outside the names or literals"),
    ("opcode", "op", OP_APP, 7, "unknown opcode"),
]


@pytest.mark.parametrize(
    "tier,column,row_of,value,message",
    # The native cases keep their ids from before the scalar tier checked.
    [pytest.param("native", *case, id=name, marks=needs_native) for name, *case in MALFORMED]
    + [pytest.param("scalar", *case, id=f"scalar-{name}") for name, *case in MALFORMED],
)
def test_malformed_arena_raises_a_typed_error(tier, column, row_of, value, message):
    arena = copy_arena(small_arena())
    row = list(arena.op).index(row_of)
    value = {
        "row": row,
        "row+1": row + 1,
        "names": len(arena.names),
        "literals": len(arena.literals),
    }.get(value, value)
    getattr(arena, column)[row] = value
    with pytest.raises(ArenaKernelError, match=f"row {row}: {message}"):
        tier_tops(tier, arena)
    assert tier_tops(tier, small_arena()) == arena_hash(small_arena())


@pytest.mark.parametrize("tier", TIERS)
def test_columns_of_unequal_length_are_refused(tier):
    arena = copy_arena(small_arena())
    arena.sizes.pop()
    with pytest.raises(ArenaKernelError, match="differ in length"):
        tier_tops(tier, arena)


def well_formed(arena: ExprArena) -> bool:
    """The rows the kernels are defined on: the opcode's children below
    the row, absent ones -1, and aux in range."""
    for i, (opc, lo, hi, x) in enumerate(
        zip(arena.op, arena.left, arena.right, arena.aux)
    ):
        if opc > OP_LET:
            return False
        if not (0 <= lo < i if opc >= OP_LAM else lo == -1):
            return False
        if not (0 <= hi < i if opc >= OP_APP else hi == -1):
            return False
        if opc == OP_LIT and not 0 <= x < len(arena.literals):
            return False
        if opc not in (OP_LIT, OP_APP) and not 0 <= x < len(arena.names):
            return False
    return True


@pytest.mark.parametrize("tier", TIERS)
def test_mutation_wall_refused_or_identical(tier):
    """Each tier hashes a well-formed mutant as the unchecked scalar
    pass does and refuses every other one; the native tier's refusal
    text is the scalar tier's."""
    base = flatten_corpus(mixed_corpus(12, seed=5, size=20))[0]
    rng = random.Random(2024)
    refused = 0
    for case in range(400):
        arena = copy_arena(base)
        column = rng.choice(["op", "left", "right", "aux"])
        row = rng.randrange(len(arena))
        if column == "op":
            arena.op[row] = rng.randrange(8)
        else:
            getattr(arena, column)[row] = rng.randint(-3, len(arena) + 3)
        if well_formed(arena):
            for bits in (16, 128):
                combiners = HashCombiners(bits=bits)
                assert tier_tops(tier, arena, combiners) == _arena_pass(
                    arena, combiners, ()
                )[0], case
        else:
            refused += 1
            with pytest.raises(ArenaKernelError, match=r"^row \d+: ") as raised:
                tier_tops(tier, arena)
            if tier == "native":
                with pytest.raises(ArenaKernelError) as scalar:
                    arena_hash(arena)
                assert str(scalar.value) == str(raised.value), case
    assert refused > 100


# -- the loader ----------------------------------------------------------------


@pytest.fixture
def fresh(tmp_path):
    """An empty cache directory of this user's, mode 0700."""
    directory = tmp_path / "cache"
    directory.mkdir(mode=0o700)
    return str(directory)


def built(directory: str) -> list[str]:
    return sorted(n for n in os.listdir(directory) if n.endswith(".so"))


@needs_native
def test_build_then_cache_hit(fresh, monkeypatch):
    lib, why = native.load(fresh)
    assert lib is not None and why is None
    assert len(built(fresh)) == 1 and not [
        n for n in os.listdir(fresh) if n.startswith(".arena_kernel-")
    ]

    def no_compile(*args, **kwargs):
        raise AssertionError("a cache hit compiled")

    monkeypatch.setattr(subprocess, "run", no_compile)
    again, why = native.load(fresh)
    assert again is not None and why is None


def assert_fell_back(lib, caplog, reason: str):
    """No library, and one ``repro`` warning that gives ``reason``."""
    assert lib is None
    warnings = [r for r in caplog.records if r.name == "repro"]
    assert len(warnings) == 1 and warnings[0].levelno == logging.WARNING
    assert reason in warnings[0].getMessage()


def test_failing_build_falls_back_with_one_warning(fresh, tmp_path, monkeypatch, caplog):
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    fake = bin_dir / "cc"
    fake.write_text("#!/bin/sh\necho 'cc: error: no such luck' >&2\nexit 1\n")
    fake.chmod(0o755)
    monkeypatch.setenv("PATH", str(bin_dir))
    with caplog.at_level(logging.WARNING, logger="repro"):
        lib, why = native.load(fresh)
    assert_fell_back(lib, caplog, "no such luck")
    assert "status 1" in why and built(fresh) == [] and os.listdir(fresh) == []
    # The scalar kernel answers, with the same hashes.
    monkeypatch.setattr(native, "LIB", lib)
    arena, roots = flatten_corpus(mixed_corpus(30, seed=9))
    assert [arena_hash_any(arena)[r] for r in roots] == tree_hashes(
        mixed_corpus(30, seed=9)
    )


def test_no_compiler_falls_back(fresh, tmp_path, monkeypatch, caplog):
    monkeypatch.setenv("PATH", str(tmp_path))
    with caplog.at_level(logging.WARNING, logger="repro"):
        lib, why = native.load(fresh)
    assert_fell_back(lib, caplog, "no C compiler (cc) on PATH")
    assert why == "no C compiler (cc) on PATH"


@pytest.mark.parametrize("mode", [0o770, 0o707, 0o777])
def test_writable_cache_directory_is_not_loaded_from(fresh, mode, monkeypatch, caplog):
    os.chmod(fresh, mode)
    monkeypatch.setattr(subprocess, "run", pytest.fail)
    with caplog.at_level(logging.WARNING, logger="repro"):
        lib, why = native.load(fresh)
    assert_fell_back(lib, caplog, "group- or world-writable")
    assert built(fresh) == []


def test_cache_directory_of_another_user_is_not_loaded_from(fresh, monkeypatch, caplog):
    uid = os.getuid()
    monkeypatch.setattr(os, "getuid", lambda: uid + 1)
    monkeypatch.setattr(subprocess, "run", pytest.fail)
    with caplog.at_level(logging.WARNING, logger="repro"):
        lib, why = native.load(fresh)
    assert_fell_back(lib, caplog, f"owned by uid {uid}")


@needs_native
def test_writable_cached_library_is_not_loaded(fresh, caplog):
    assert native.load(fresh)[0] is not None
    (name,) = built(fresh)
    os.chmod(os.path.join(fresh, name), 0o666)
    with caplog.at_level(logging.WARNING, logger="repro"):
        lib, why = native.load(fresh)
    assert_fell_back(lib, caplog, "group- or world-writable")


def test_cache_dir_follows_xdg_then_home(monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert native.cache_dir() == str(tmp_path / "repro")
    monkeypatch.setenv("XDG_CACHE_HOME", "relative/path")
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    assert native.cache_dir() == str(tmp_path / "home" / ".cache" / "repro")


# -- packaging -----------------------------------------------------------------


def package_data_globs() -> list[str]:
    tree = ast.parse((REPO / "setup.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg == "package_data":
            return ast.literal_eval(node.value)["repro"]
    raise AssertionError("setup.py has no package_data")


def test_the_c_source_ships_next_to_its_loader():
    source = Path(native.SOURCE)
    assert source.is_file()
    assert source.parent == Path(native.__file__).resolve().parent
    package = Path(repro.__file__).resolve().parent
    relative = source.resolve().relative_to(package).as_posix()
    assert any(fnmatch.fnmatch(relative, glob) for glob in package_data_globs())
