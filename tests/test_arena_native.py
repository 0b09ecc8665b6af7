"""The native arena libraries' own mechanics.

``test_arena_vec`` holds the bit-identity wall against the scalar
kernel; this module covers what only the native tiers have:

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
* **The native compile walk** builds the Python walk's arena state on
  a seeded differential wall (``corpus``-shaped and let-heavy batches,
  literal spellings, odd names, a depth-50k chain, repeated and shared
  roots, foreign nodes anywhere), leaks no reference, and lets other
  threads run.
* **The native wire walk** builds ``ExprArena._wire_walk``'s arena
  state from the same cases sent as ``repro-expr-v1`` documents, into
  fresh arenas and into arenas ``flatten`` already grew; a subclass
  where ``json.loads`` gives an exact type falls back to the Python
  walk and its result; it leaks no reference and lets other threads
  run.
* **The loader**: both libraries built in a fresh cache directory, a
  cache hit, a failing build or no compiler (one warning naming both,
  the scalar kernel and the Python walk answer), a build without
  ``Python.h`` (the kernel stays native), cache directories or files
  another user could write, and the pruning of stale builds.
* **Packaging**: the C sources ship next to their loader.
"""

from __future__ import annotations

import ast
import fnmatch
import json
import logging
import os
import random
import struct
import subprocess
import sys
import threading
import time
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
from repro.gen.random_exprs import alpha_rename, random_expr
from repro.lang.expr import App, Expr, Lam, Let, Lit, Var
from repro.lang.sexpr import WIRE_FORMAT, to_wire
from repro.service import ReproServer, ServiceClient
from repro.service.arena_body import decode_body, encode_body
from repro.store import ExprStore

from test_arena import arena_state, mixed_corpus, tree_hashes
from test_arena_body import post_raw

needs_native = pytest.mark.skipif(
    native.LIB is None,
    reason=f"native kernel not loaded: {native.REASONS.get('arena_kernel')}",
)
needs_native_walk = pytest.mark.skipif(
    native.FLATTEN is None,
    reason=f"native compile walk not loaded: {native.REASONS.get('arena_flatten')}",
)
needs_native_wire = pytest.mark.skipif(
    native.WIRE is None,
    reason=f"native wire walk not loaded: {native.REASONS.get('arena_flatten')}",
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


# -- the compile walk ----------------------------------------------------------


def walk_both(corpus, grown=()):
    """Each tier's ``(roots, arena state)`` for ``corpus``, flattened into
    an arena the same tier first grew by ``grown``; or each tier's
    ``(error type and text, arena state)`` when the compile raises."""
    out = []
    for walk in (native.native_flatten, ExprArena._flatten_walk):
        arena = ExprArena()
        for batch in grown:
            arena._compile(walk, batch)
        try:
            result = arena._compile(walk, corpus)
        except Exception as exc:  # the tiers must raise alike
            result = (type(exc), str(exc))
        out.append((result, arena_state(arena)))
    return out


def assert_same_arena(corpus, grown=()):
    native_side, python_side = walk_both(corpus, grown)
    assert native_side == python_side
    return native_side


def corpus_batch(rng: random.Random, n_items: int) -> list[Expr]:
    """A ``corpus``-workload-shaped batch: let-heavy 30-90-node items, a
    quarter repeated as the same object, a quarter alpha-renamed."""
    batch: list[Expr] = []
    for _ in range(n_items):
        roll = rng.random()
        if batch and roll < 0.25:
            batch.append(rng.choice(batch))
        elif batch and roll < 0.5:
            batch.append(alpha_rename(rng.choice(batch), seed=rng.randrange(1 << 20)))
        else:
            batch.append(
                random_expr(
                    rng.randint(30, 90),
                    rng=rng,
                    shape=rng.choice(("balanced", "unbalanced")),
                    p_let=0.35,
                    p_lit=0.1,
                )
            )
    return batch


def nan(payload: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", 0x7FF0000000000000 | payload))[0]


#: Literal values a value-keyed table would conflate, or that stress the
#: key: signed zeros, NaN payloads, bool/int/float spellings of one, ints
#: past 64 bits, and strings holding NUL or astral characters.
EDGE_LITERALS = [
    -0.0, 0.0, nan(1), nan(2), nan(1 << 51), True, 1, 1.0, False, 0,
    2**63, 2**64 + 1, -(2**70), "", "a\x00b", "\U0001F600", "1",
]

def copy_value(value):
    """An equal literal value in a new object where one can be made."""
    if type(value) is float:
        return struct.unpack("<d", struct.pack("<d", value))[0]
    if type(value) is int:
        return int(str(value))
    if type(value) is str:
        return "".join(["", value])
    return value


ODD_BINDERS = ["λx", "名前", "é", "\U0001d4b3", "a\x00b", "x"]


class Foreign:
    """Not an expression node."""


class SubApp(App):
    """An App subclass: foreign to both walks' exact type checks."""

    __slots__ = ()


@needs_native_walk
@pytest.mark.parametrize("seed", [1, 7, 13])
def test_corpus_batches_compile_alike(seed):
    rng = random.Random(seed)
    batches = [corpus_batch(rng, 300) for _ in range(3)]
    assert_same_arena(batches[0])
    # Into arenas already holding rows: the derived structural index.
    assert_same_arena(batches[2], grown=batches[:2])
    arena, fresh_roots = flatten_corpus(batches[2])
    tops = arena_hash_any(arena)
    assert [tops[r] for r in fresh_roots] == tree_hashes(batches[2])


@needs_native_walk
@pytest.mark.parametrize("seed", [2, 3])
def test_let_heavy_corpora_compile_alike(seed):
    rng = random.Random(seed)
    corpus = [
        random_expr(rng.randint(1, 120), rng=rng, p_let=0.6, p_lit=0.2)
        for _ in range(200)
    ]
    assert_same_arena(corpus)
    assert_same_arena(corpus[100:], grown=[corpus[:150]])


@needs_native_walk
def test_literal_edge_cases_compile_alike():
    # A second object per value, so the per-object key cache and the
    # key table are both exercised.
    values = EDGE_LITERALS + [copy_value(v) for v in EDGE_LITERALS]
    corpus = [Lit(v) for v in values]
    corpus += [App(Lit(a), Lit(b)) for a, b in zip(values, reversed(values))]
    corpus += [Let("k", Lit(v), App(Var("k"), Lit(v))) for v in values]
    assert_same_arena(corpus)
    arena, roots = flatten_corpus(corpus)
    assert len(arena.literals) == len(EDGE_LITERALS)
    tops = arena_hash_any(arena)
    assert [tops[r] for r in roots] == tree_hashes(corpus)


@needs_native_walk
def test_odd_names_compile_alike():
    corpus = [Lam(name, App(Var(name), Var("y"))) for name in ODD_BINDERS]
    corpus += [Let(a, Var(b), Lam(b, Var(a))) for a, b in zip(ODD_BINDERS, ODD_BINDERS[1:])]
    assert_same_arena(corpus)


@needs_native_walk
def test_depth_50k_chains_compile_alike():
    lam: Expr = Var("v0")
    app: Expr = Var("x")
    let: Expr = Var("x0")
    for i in range(50_000):
        lam = Lam(f"v{i % 7}", lam)
        app = App(app, Lit(i % 3))
        let = Let(f"x{i % 5}", Var(f"x{(i + 1) % 5}"), let)
    assert_same_arena([lam, app, let])
    arena, roots = flatten_corpus([lam, app, let])
    assert [arena.sizes[r] for r in roots] == [lam.size, app.size, let.size]


@needs_native_walk
def test_repeated_and_shared_roots_compile_alike():
    shared = random_expr(40, seed=2, p_let=0.3, p_lit=0.2)
    outer = App(shared, Lam("z", shared))
    corpus = [shared, outer, shared, outer.fn, Lam("z", shared), outer]
    assert_same_arena(corpus)
    arena, roots = flatten_corpus(corpus)
    assert roots[0] == roots[2] == roots[3] and roots[1] == roots[5]
    # The doubling DAG: 2**50 tree nodes, 52 objects, 52 rows.
    dag: Expr = Lam("a", Var("a"))
    for _ in range(50):
        dag = App(dag, dag)
    arena, (root,) = flatten_corpus([dag])
    assert len(arena) == 52 and arena.sizes[root] == dag.size


@needs_native_walk
@pytest.mark.parametrize("seed", range(6))
def test_foreign_nodes_raise_alike_and_roll_back(seed):
    """A foreign object or an App subclass at a random place: both tiers
    raise the same TypeError and leave the same (unchanged) arena."""
    rng = random.Random(seed)
    grown = [corpus_batch(rng, 40)]
    corpus = corpus_batch(rng, 40)
    cls = (Foreign, SubApp)[seed % 2]
    bad = Foreign() if cls is Foreign else SubApp(Var("f"), Lit(2.5))
    if seed % 3 == 0:
        corpus.insert(rng.randrange(len(corpus) + 1), bad)
    else:
        parents = [e for e in corpus if isinstance(e, App) and e is not corpus[0]]
        parent = rng.choice(parents)
        parent.arg = bad
    error, state = assert_same_arena(corpus, grown)
    assert error == (TypeError, f"cannot flatten non-expression node of type {cls.__name__}")
    before = ExprArena()
    before.flatten(grown[0])
    assert state == arena_state(before)


@needs_native_walk
def test_a_size_that_is_not_an_int_rolls_back_alike():
    """The Python walk meets the bad size in the flush, the native walk
    while reading it: either way the same TypeError, and the arena is
    left as it was."""
    rng = random.Random(8)
    grown = [corpus_batch(rng, 30)]
    corpus = corpus_batch(rng, 30)
    bad = Lam("q", App(Var("fresh_name"), Lit(0.25)))
    corpus.insert(rng.randrange(len(corpus)), App(Var("f"), bad))
    bad.size = "three"
    error, state = assert_same_arena(corpus, grown)
    assert error[0] is TypeError
    before = ExprArena()
    before.flatten(grown[0])
    assert state == arena_state(before)


@needs_native_walk
def test_no_reference_leaks():
    """200 compiles, half of them failing on a foreign root, leave every
    input node, name and literal value with the references it had."""
    names = ["".join(("nm", str(i))) for i in range(4)]
    values = [float(i) + 0.5 for i in range(3)] + [2**80 + 7, "".join(("s", "\x00"))]
    leaf = Lit(values[0])
    inner = App(Var(names[0]), leaf)
    corpus = [
        Lam(names[1], App(inner, Var(names[1]))),
        Let(names[2], Lit(values[1]), App(inner, Lit(values[2]))),
        inner,
        App(Lit(values[3]), Lam(names[3], Lit(values[4]))),
    ]
    watched = [*corpus, inner, leaf, *names, *values]
    before = [sys.getrefcount(obj) for obj in watched]
    for call in range(200):
        arena = ExprArena()
        if call % 2:
            arena.flatten(corpus)
        else:
            with pytest.raises(TypeError):
                arena.flatten([*corpus, Foreign()])
        del arena
    assert [sys.getrefcount(obj) for obj in watched] == before


@needs_native_walk
def test_other_threads_run_during_a_long_compile():
    rng = random.Random(5)
    # No literal: lit_cache_key is Python code, which would hand the GIL
    # over by itself.
    corpus = [random_expr(100, rng=rng, p_let=0.3, p_lit=0.0) for _ in range(3000)]
    assert sum(e.size for e in corpus) >= 300_000
    resumed: list[float] = []
    stop = threading.Event()

    def counter():
        last = time.perf_counter()
        while not stop.is_set():
            now = time.perf_counter()
            if now - last > 1e-3:  # it had been waiting for the GIL
                resumed.append(now)
            last = now

    # At the default 5 ms switch interval a ~100 ms compile leaves the
    # count near the bar by chance alone; at 1 ms it clears it many times.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(0.001)
    thread = threading.Thread(target=counter)
    thread.start()
    try:
        time.sleep(0.05)
        start = time.perf_counter()
        ExprArena().flatten(corpus)
        end = time.perf_counter()
    finally:
        stop.set()
        thread.join()
        sys.setswitchinterval(interval)
    # Without the walk's handovers the Python around the call still lets
    # the counter in a couple of times (2 seen); with them, dozens (34-50).
    assert sum(start < t < end for t in resumed) >= 10


@needs_native_walk
def test_concurrent_compiles_build_their_own_arenas():
    """Four threads compile their own corpora at once, with a short
    switch interval so the walks hand the GIL back and forth: each
    arena equals the Python walk's."""
    rng = random.Random(11)
    corpora = [corpus_batch(rng, 150) for _ in range(4)]
    expected = []
    for corpus in corpora:
        arena = ExprArena()
        expected.append((arena._compile(ExprArena._flatten_walk, corpus), arena_state(arena)))
    results: list = [None] * len(corpora)

    def work(k):
        for _ in range(5):
            arena = ExprArena()
            results[k] = (arena.flatten(corpora[k]), arena_state(arena))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(corpora))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == expected


# -- the wire walk -------------------------------------------------------------


def wire_both(docs, grown=()):
    """Each wire walk's ``(roots, arena state)`` for ``docs``, compiled
    into an arena that ``flatten`` first grew by each of ``grown``: the
    native walk, which must take every document as it is, then the
    Python walk."""
    out = []
    for walk in (native.native_wire, ExprArena._wire_walk):
        arena = ExprArena()
        for batch in grown:
            arena.flatten(batch)
        out.append((arena._compile(walk, docs), arena_state(arena)))
    return out


def assert_same_wire_arena(docs, grown=()):
    native_side, python_side = wire_both(docs, grown)
    assert native_side == python_side
    return native_side


def sent(corpus) -> list:
    """``corpus`` as the documents a server reads: ``to_wire``, then
    through JSON text."""
    return json.loads(json.dumps([to_wire(expr) for expr in corpus]))


def doc_of(*post) -> dict:
    return {"format": WIRE_FORMAT, "post": list(post)}


@needs_native_wire
@pytest.mark.parametrize("seed", [1, 7, 13])
def test_corpus_batches_compile_alike_as_documents(seed):
    rng = random.Random(seed)
    batches = [corpus_batch(rng, 300) for _ in range(3)]
    assert_same_wire_arena(sent(batches[0]))
    (roots, state), _python = wire_both(sent(batches[2]), grown=batches[:2])
    arena = ExprArena()
    for batch in batches[:2]:
        arena.flatten(batch)
    assert arena.extend_wire(sent(batches[2])) == roots
    assert arena_state(arena) == state
    tops = arena_hash_any(arena)
    assert [tops[r] for r in roots] == tree_hashes(batches[2])


@needs_native_wire
@pytest.mark.parametrize("seed", [2, 3])
def test_let_heavy_documents_compile_alike(seed):
    rng = random.Random(seed)
    corpus = [
        random_expr(rng.randint(1, 120), rng=rng, p_let=0.6, p_lit=0.2)
        for _ in range(200)
    ]
    assert_same_wire_arena(sent(corpus))
    assert_same_wire_arena(sent(corpus[100:]), grown=[corpus[:150]])


@needs_native_wire
def test_literal_edge_case_documents_compile_alike():
    """Signed zeros, NaN payloads and the spellings of one as they are
    (``to_wire`` keeps the objects) and through JSON; and integral
    numbers under ``float``, which both walks read as floats."""
    values = EDGE_LITERALS + [copy_value(v) for v in EDGE_LITERALS]
    corpus = [Lit(v) for v in values]
    corpus += [App(Lit(a), Lit(b)) for a, b in zip(values, reversed(values))]
    corpus += [Let("k", Lit(v), App(Var("k"), Lit(v))) for v in values]
    _roots, state = assert_same_wire_arena([to_wire(e) for e in corpus])
    assert len(state[-1]) == len(EDGE_LITERALS)
    assert_same_wire_arena(sent(corpus), grown=[corpus[:20]])
    integral = [0, 1, -1, 2**53 + 1, -(2**70), 10**300]
    docs = [doc_of(["c", "float", n]) for n in integral]
    docs += [doc_of(["c", "int", 1], ["c", "float", 1], ["a"]), doc_of(["c", "bool", True])]
    roots, state = assert_same_wire_arena(json.loads(json.dumps(docs)))
    arena = ExprArena()
    arena.extend_wire(docs)
    assert [type(v) for v in arena.literals] == [float] * 6 + [int, bool]
    assert arena.literals[:6] == [float(n) for n in integral]
    tops = arena_hash_any(arena)
    assert tops[roots[-2]] == tree_hashes([App(Lit(1), Lit(1.0))])[0]


@needs_native_wire
def test_odd_name_documents_compile_alike():
    corpus = [Lam(name, App(Var(name), Var("y"))) for name in ODD_BINDERS]
    corpus += [Let(a, Var(b), Lam(b, Var(a))) for a, b in zip(ODD_BINDERS, ODD_BINDERS[1:])]
    assert_same_wire_arena(sent(corpus))
    assert_same_wire_arena([to_wire(e) for e in corpus], grown=[corpus[3:]])


@needs_native_wire
def test_depth_50k_chain_documents_compile_alike():
    lam: Expr = Var("v0")
    app: Expr = Var("x")
    let: Expr = Var("x0")
    for i in range(50_000):
        lam = Lam(f"v{i % 7}", lam)
        app = App(app, Lit(i % 3))
        let = Let(f"x{i % 5}", Var(f"x{(i + 1) % 5}"), let)
    roots, state = assert_same_wire_arena([to_wire(e) for e in (lam, app, let)])
    assert [state[4][r] for r in roots] == [lam.size, app.size, let.size]


@needs_native_wire
def test_repeated_root_documents_compile_alike():
    shared = random_expr(40, seed=2, p_let=0.3, p_lit=0.2)
    outer = App(shared, Lam("z", shared))
    doc = to_wire(outer)
    docs = [to_wire(shared), doc, doc, sent([outer])[0], to_wire(outer.fn), doc]
    roots, _state = assert_same_wire_arena(docs)
    assert roots[0] == roots[4] and roots[1] == roots[2] == roots[3] == roots[5]
    assert_same_wire_arena(docs, grown=[[outer]])


class Name(str):
    """A str subclass, where ``json.loads`` gives an exact str."""


class Count(int):
    """An int subclass."""


class Doc(dict):
    """A dict subclass."""


#: Documents holding a subclass where JSON gives an exact type: each is
#: read by the Python walk, which takes it.
SUBCLASS_DOCS = {
    "str-name": doc_of(["v", Name("x")], ["l", Name("y")]),
    "int-value": doc_of(["c", "int", Count(3)], ["c", "float", Count(4)], ["a"]),
    "dict-document": Doc(doc_of(["v", "f"], ["c", "str", "s"], ["a"])),
}


@needs_native_wire
@pytest.mark.parametrize("case", sorted(SUBCLASS_DOCS))
def test_subclasses_take_the_python_walk(case):
    rng = random.Random(4)
    grown = corpus_batch(rng, 30)
    good = sent(corpus_batch(rng, 30))
    docs = [*good[:15], SUBCLASS_DOCS[case], *good[15:]]
    arena = ExprArena()
    arena.flatten(grown)
    before = arena_state(arena)
    with pytest.raises(native.WireFallback):
        arena._compile(native.native_wire, docs)
    assert arena_state(arena) == before
    roots = arena.extend_wire(iter(docs))
    python = ExprArena()
    python.flatten(grown)
    assert python._compile(ExprArena._wire_walk, docs) == roots
    assert arena_state(arena) == arena_state(python)


@needs_native_wire
def test_the_wire_walk_leaks_no_reference():
    """200 wire compiles, half of them falling back at a last document
    with an int-subclass value, leave every document, entry, name and
    literal value with the references it had."""
    names = ["".join(("nm", str(i))) for i in range(4)]
    values = [float(i) + 0.5 for i in range(3)] + [2**80 + 7, "".join(("s", "\x00"))]
    inner = App(Var(names[0]), Lit(values[0]))
    corpus = [
        Lam(names[1], App(inner, Var(names[1]))),
        Let(names[2], Lit(values[1]), App(inner, Lit(values[2]))),
        inner,
        App(Lit(values[3]), Lam(names[3], Lit(values[4]))),
    ]
    docs = [to_wire(e) for e in corpus] + [doc_of(["c", "float", 2**70 + 1])]
    bad = doc_of(["v", names[0]], ["c", "int", Count(5)], ["a"])
    watched = [
        *docs, *names, *values, bad,
        *(doc["post"] for doc in (*docs, bad)),
        *(entry for doc in (*docs, bad) for entry in doc["post"]),
    ]
    before = [sys.getrefcount(obj) for obj in watched]
    for call in range(200):
        arena = ExprArena()
        if call % 2:
            arena._compile(native.native_wire, docs)
        else:
            with pytest.raises(native.WireFallback):
                arena._compile(native.native_wire, [*docs, bad])
        del arena
    assert [sys.getrefcount(obj) for obj in watched] == before


@needs_native_wire
def test_other_threads_run_during_a_long_wire_compile():
    rng = random.Random(5)
    # No literal: lit_cache_key is Python code, which would hand the GIL
    # over by itself.
    corpus = [random_expr(100, rng=rng, p_let=0.3, p_lit=0.0) for _ in range(4000)]
    docs = [to_wire(expr) for expr in corpus]
    assert sum(len(doc["post"]) for doc in docs) >= 400_000
    resumed: list[float] = []
    stop = threading.Event()

    def counter():
        last = time.perf_counter()
        while not stop.is_set():
            now = time.perf_counter()
            if now - last > 1e-3:  # it had been waiting for the GIL
                resumed.append(now)
            last = now

    interval = sys.getswitchinterval()
    sys.setswitchinterval(0.001)
    thread = threading.Thread(target=counter)
    thread.start()
    try:
        time.sleep(0.05)
        start = time.perf_counter()
        ExprArena()._compile(native.native_wire, docs)
        end = time.perf_counter()
    finally:
        stop.set()
        thread.join()
        sys.setswitchinterval(interval)
    # Without the walk's handovers the Python around the call still lets
    # the counter in a few times (3-4 seen); with them, dozens (30-50).
    assert sum(start < t < end for t in resumed) >= 10


@needs_native_wire
def test_concurrent_wire_compiles_survive_rewritten_documents():
    """Three threads compile their own documents at once, with a short
    switch interval so the walks hand the GIL back and forth, while a
    fourth keeps replacing each document's post list and entries with
    equal fresh ones, dropping the objects a walk that did not hold them
    would read after they are freed: each arena equals the Python
    walk's."""
    rng = random.Random(12)
    corpora = [sent(corpus_batch(rng, 150)) for _ in range(3)]
    expected = []
    for docs in corpora:
        arena = ExprArena()
        expected.append((arena._compile(ExprArena._wire_walk, docs), arena_state(arena)))
    results: list = [None] * len(corpora)
    done = threading.Event()

    def work(k):
        for _ in range(20):
            arena = ExprArena()
            results[k] = (arena._compile(native.native_wire, corpora[k]), arena_state(arena))

    def rewrite():
        while not done.is_set():
            for docs in corpora:
                for doc in docs:
                    doc["post"] = [list(entry) for entry in doc["post"]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        rewriter = threading.Thread(target=rewrite)
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(corpora))]
        rewriter.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        done.set()
        rewriter.join(timeout=60)
    finally:
        done.set()
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in (*threads, rewriter))
    assert results == expected


# -- the loader ----------------------------------------------------------------


@pytest.fixture
def fresh(tmp_path):
    """An empty cache directory of this user's, mode 0700."""
    directory = tmp_path / "cache"
    directory.mkdir(mode=0o700)
    return str(directory)


def built(directory: str) -> list[str]:
    return sorted(n for n in os.listdir(directory) if n.endswith(".so"))


LIBRARIES = ("arena_kernel", "arena_flatten")


@needs_native
@needs_native_walk
def test_build_then_cache_hit(fresh, monkeypatch):
    lib, flatten, why = native.load(fresh)
    assert lib is not None and flatten is not None and why == {}
    assert [name.split("-")[0] for name in built(fresh)] == sorted(LIBRARIES)
    assert not [n for n in os.listdir(fresh) if n.startswith(".")]

    def no_compile(*args, **kwargs):
        raise AssertionError("a cache hit compiled")

    monkeypatch.setattr(subprocess, "run", no_compile)
    again, flatten, why = native.load(fresh)
    assert again is not None and flatten is not None and why == {}


def assert_fell_back(loaded, caplog, reason: str, libraries=LIBRARIES):
    """The named libraries did not load, and one ``repro`` warning names
    each of them with ``reason``."""
    lib, flatten, why = loaded
    assert (lib is None, flatten is None) == tuple(n in libraries for n in LIBRARIES)
    assert sorted(why) == sorted(libraries)
    warnings = [r for r in caplog.records if r.name == "repro"]
    assert len(warnings) == 1 and warnings[0].levelno == logging.WARNING
    message = warnings[0].getMessage()
    assert all(f"{name} (" in message for name in libraries)
    assert message.count(reason) == len(libraries)


def test_failing_build_falls_back_with_one_warning(fresh, tmp_path, monkeypatch, caplog):
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    fake = bin_dir / "cc"
    fake.write_text("#!/bin/sh\necho 'cc: error: no such luck' >&2\nexit 1\n")
    fake.chmod(0o755)
    monkeypatch.setenv("PATH", str(bin_dir))
    with caplog.at_level(logging.WARNING, logger="repro"):
        loaded = native.load(fresh)
    assert_fell_back(loaded, caplog, "no such luck")
    assert all("status 1" in why for why in loaded[2].values())
    assert built(fresh) == [] and os.listdir(fresh) == []
    # The scalar kernel and the Python walk answer, with the same hashes.
    monkeypatch.setattr(native, "LIB", loaded[0])
    monkeypatch.setattr(native, "FLATTEN", loaded[1])
    monkeypatch.setattr(native, "WIRE", loaded[1])
    assert (native.kernel(), native.compile_tier()) == ("scalar", "python")
    arena, roots = flatten_corpus(mixed_corpus(30, seed=9))
    assert [arena_hash_any(arena)[r] for r in roots] == tree_hashes(
        mixed_corpus(30, seed=9)
    )


def test_no_compiler_falls_back(fresh, tmp_path, monkeypatch, caplog):
    monkeypatch.setenv("PATH", str(tmp_path))
    with caplog.at_level(logging.WARNING, logger="repro"):
        loaded = native.load(fresh)
    assert_fell_back(loaded, caplog, "no C compiler (cc) on PATH")
    assert set(loaded[2].values()) == {"no C compiler (cc) on PATH"}


@needs_native
def test_build_without_python_headers_keeps_the_native_kernel(
    fresh, tmp_path, monkeypatch, caplog
):
    monkeypatch.setattr(native, "PY_INCLUDE", str(tmp_path))
    with caplog.at_level(logging.WARNING, logger="repro"):
        loaded = native.load(fresh)
    assert_fell_back(loaded, caplog, f"no Python.h in {tmp_path}", ("arena_flatten",))
    assert [name.split("-")[0] for name in built(fresh)] == ["arena_kernel"]
    # The kernel stays native; flatten and extend_wire run the Python
    # walks.
    monkeypatch.setattr(native, "LIB", loaded[0])
    monkeypatch.setattr(native, "FLATTEN", loaded[1])
    monkeypatch.setattr(native, "WIRE", loaded[1])
    walked = []
    python_walk, python_wire = ExprArena._flatten_walk, ExprArena._wire_walk

    def spy(arena, exprs, roots):
        walked.append(len(exprs))
        return python_walk(arena, exprs, roots)

    def wire_spy(arena, docs, roots):
        walked.append(("wire", len(docs)))
        return python_wire(arena, docs, roots)

    monkeypatch.setattr(ExprArena, "_flatten_walk", spy)
    monkeypatch.setattr(ExprArena, "_wire_walk", wire_spy)
    corpus = mixed_corpus(30, seed=10)
    arena, roots = flatten_corpus(corpus)
    assert ExprArena().extend_wire([to_wire(e) for e in corpus]) == roots
    assert walked == [30, ("wire", 30)]
    assert (native.kernel(), native.compile_tier()) == ("native", "python")
    assert [native_tops(arena)[r] for r in roots] == tree_hashes(corpus)


@pytest.mark.parametrize("mode", [0o770, 0o707, 0o777])
def test_writable_cache_directory_is_not_loaded_from(fresh, mode, monkeypatch, caplog):
    os.chmod(fresh, mode)
    monkeypatch.setattr(subprocess, "run", pytest.fail)
    with caplog.at_level(logging.WARNING, logger="repro"):
        loaded = native.load(fresh)
    assert_fell_back(loaded, caplog, "group- or world-writable")
    assert built(fresh) == []


def test_cache_directory_of_another_user_is_not_loaded_from(fresh, monkeypatch, caplog):
    uid = os.getuid()
    monkeypatch.setattr(os, "getuid", lambda: uid + 1)
    monkeypatch.setattr(subprocess, "run", pytest.fail)
    with caplog.at_level(logging.WARNING, logger="repro"):
        loaded = native.load(fresh)
    assert_fell_back(loaded, caplog, f"owned by uid {uid}")


@needs_native
@needs_native_walk
def test_writable_cached_library_is_not_loaded(fresh, caplog):
    assert native.load(fresh)[2] == {}
    for name in built(fresh):
        os.chmod(os.path.join(fresh, name), 0o666)
    with caplog.at_level(logging.WARNING, logger="repro"):
        loaded = native.load(fresh)
    assert_fell_back(loaded, caplog, "group- or world-writable")


@needs_native
@needs_native_walk
def test_stale_builds_are_pruned_after_a_build(fresh):
    """After a build, this user's builds of a library last loaded more
    than a week ago go; a recent one (another checkout's), another
    name and a symlink stay, and the current builds load."""
    day = 24 * 3600
    now = time.time()

    def plant(name: str, age_days: float) -> str:
        path = os.path.join(fresh, name)
        with open(path, "wb") as handle:
            handle.write(b"stale")
        os.utime(path, (now - age_days * day, now - age_days * day))
        return name

    stale = [plant(f"{stem}-{'0' * 24}.so", 8) for stem in LIBRARIES]
    recent = [plant(f"{stem}-{'1' * 24}.so", 1) for stem in LIBRARIES]
    other = plant(f"other_kernel-{'0' * 24}.so", 30)
    link = f"arena_kernel-{'2' * 24}.so"
    os.symlink(other, os.path.join(fresh, link))
    os.utime(os.path.join(fresh, link), (now - 30 * day, now - 30 * day), follow_symlinks=False)

    lib, flatten, why = native.load(fresh)
    assert lib is not None and flatten is not None and why == {}
    left = set(os.listdir(fresh))
    assert not left & set(stale)
    assert {*recent, other, link} <= left
    assert len(left) == len(recent) + 2 + len(LIBRARIES)
    # A load refreshes the current builds' mtimes; a cache hit prunes
    # nothing.
    current = sorted(left - {*recent, other, link})
    assert all(os.stat(os.path.join(fresh, n)).st_mtime >= now - 60 for n in current)
    plant(stale[0], 8)
    assert native.load(fresh)[2] == {}
    assert stale[0] in os.listdir(fresh)


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
    package = Path(repro.__file__).resolve().parent
    for path in (native.SOURCE, native.FLATTEN_SOURCE):
        source = Path(path)
        assert source.is_file()
        assert source.parent == Path(native.__file__).resolve().parent
        relative = source.resolve().relative_to(package).as_posix()
        assert any(fnmatch.fnmatch(relative, glob) for glob in package_data_globs())
