"""Native arena kernel wall: bit-identity against the scalar kernel.

The module and class names predate the native kernel (they named the
NumPy kernel it replaced); they stay so the wall's test ids stay
stable.  The native library's own mechanics -- the loader, its cache
and fallback, names, malformed arenas -- are in ``test_arena_native``.

* **Differential wall** -- :func:`repro.core.native.native_tops` is
  bit-identical to the scalar kernel (and through it to
  ``alpha_hash_all``) at every combiner width, on mixed/adversarial/
  depth-5000 corpora, and on the shape cases the level-by-level NumPy
  kernel needed: levels of one kind or every kind, unused and shadowed
  binders, ``let x = x in x``, and an arena grown by two compiles.
* **Scalar fallback** -- without the library ``arena_hash_any`` is the
  scalar pass, and a plan records ``kernel="scalar"`` and why.
* **Engine surface** -- ``auto``, ``tree`` and ``arena``; the old
  kernel-pinning names are refused with the choices listed.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.api import HashRequest, PlanError, Session
from repro.api.request import ENGINES
from repro.core import native
from repro.core.arena import (
    ENGINE_CHOICES,
    OP_APP,
    OP_LAM,
    OP_LET,
    ExprArena,
    arena_hash,
    arena_hash_any,
    flatten_corpus,
)
from repro.core.combiners import HashCombiners, default_combiners
from repro.lang.expr import App, Lam, Let, Lit, Var
from repro.lang.sexpr import to_wire
from repro.store import ExprStore

from strategies import exprs
from test_arena import (
    DEPTH_DEEP,
    lam_chain,
    left_skewed_app,
    let_chain,
    mixed_corpus,
    right_skewed_app,
    tree_hashes,
)

needs_native = pytest.mark.skipif(
    native.LIB is None, reason=f"native kernel not loaded: {native.REASONS.get('arena_kernel')}"
)

WIDTHS = [8, 16, 32, 64, 96, 128]

OLD_ENGINES = ["arena-vec", "arena-scalar"]


def native_hashes(arena, combiners=None):
    return native.native_tops(arena, combiners or default_combiners())


def native_root_hashes(corpus, combiners=None):
    arena, roots = flatten_corpus(corpus)
    tops = native_hashes(arena, combiners)
    return [tops[r] for r in roots]


@needs_native
class TestVecDifferential:
    """Bit-identity of the native kernel against the scalar oracle."""

    @pytest.fixture(scope="class")
    def corpus(self):
        return mixed_corpus(400, seed=11)

    @pytest.fixture(scope="class")
    def flat(self, corpus):
        return flatten_corpus(corpus)

    @pytest.mark.parametrize("bits", WIDTHS)
    def test_every_width_matches_scalar(self, flat, bits):
        arena, _roots = flat
        combiners = HashCombiners(bits=bits)
        assert native_hashes(arena, combiners) == arena_hash(arena, combiners)

    def test_tree_oracle(self, corpus):
        assert native_root_hashes(corpus) == tree_hashes(corpus)

    def test_depth_5000_chains(self):
        corpus = [
            left_skewed_app(DEPTH_DEEP),
            right_skewed_app(DEPTH_DEEP),
            lam_chain(DEPTH_DEEP),
            let_chain(DEPTH_DEEP),
        ]
        arena, _roots = flatten_corpus(corpus)
        for bits in WIDTHS:
            combiners = HashCombiners(bits=bits)
            assert native_hashes(arena, combiners) == arena_hash(arena, combiners)

    def test_adversarial_corpus(self):
        corpus = mixed_corpus(120, seed=31, size=120)
        for bits in WIDTHS:
            combiners = HashCombiners(bits=bits)
            assert native_root_hashes(corpus, combiners) == tree_hashes(
                corpus, combiners
            ), bits

    def test_empty_and_tiny_corpora(self):
        assert native_hashes(flatten_corpus([])[0]) == []
        for item in (Var("x"), Lit(7)):
            assert native_root_hashes([item]) == tree_hashes([item])


def row_depths(arena):
    """Each row's height, from the child columns."""
    depths: list[int] = []
    for lo, hi in zip(arena.left, arena.right):
        depth = 1
        for child in (lo, hi):
            if child >= 0:
                depth = max(depth, depths[child] + 1)
        depths.append(depth)
    return depths


def level_kinds(arena):
    """Interior depth -> the set of kinds at that depth."""
    names = {OP_LAM: "Lam", OP_LET: "Let", OP_APP: "App"}
    levels: dict[int, set] = {}
    for opc, depth in zip(arena.op, row_depths(arena)):
        if opc in names:
            levels.setdefault(depth, set()).add(names[opc])
    return levels


def assert_native_wall(arena, roots, corpus):
    """native == scalar on every row at every width, and the roots
    equal the tree oracle."""
    for bits in WIDTHS:
        combiners = HashCombiners(bits=bits)
        tops = native_hashes(arena, combiners)
        assert tops == arena_hash(arena, combiners), bits
        assert [tops[r] for r in roots] == tree_hashes(corpus, combiners), bits


@needs_native
class TestLevelMix:
    """Shape cases: levels of one kind or of every kind, unused and
    shadowed binders, ``let x = x in x``, and arenas grown twice."""

    @given(st.lists(exprs(), min_size=1, max_size=8))
    def test_packed_corpora_match_scalar(self, corpus):
        arena, _roots = flatten_corpus(corpus)
        for bits in (8, 64, 96, 128):
            combiners = HashCombiners(bits=bits)
            assert native_hashes(arena, combiners) == arena_hash(arena, combiners)

    @pytest.mark.parametrize(
        "corpus,kinds",
        [
            (
                [Lam("x", Lam("y", Var("x"))), Lam("z", Lam("w", Lit(1)))],
                [{"Lam"}, {"Lam"}],
            ),
            (
                [
                    Let("x", Var("a"), Let("y", Var("x"), Var("y"))),
                    Let("z", Lit(2), Let("w", Var("z"), Var("q"))),
                ],
                [{"Let"}, {"Let"}],
            ),
            (
                [
                    App(App(Var("f"), Var("a")), Lit(3)),
                    App(App(Var("g"), Var("f")), Var("f")),
                ],
                [{"App"}, {"App"}],
            ),
            (
                [App(Lam("x", Var("x")), Var("y")), Lam("y", App(Var("y"), Var("z")))],
                [{"Lam", "App"}, {"Lam", "App"}],
            ),
        ],
        ids=["only-lam", "only-let", "only-app", "lam-and-app"],
    )
    def test_single_kind_and_lam_app_levels(self, corpus, kinds):
        arena, roots = flatten_corpus(corpus)
        assert list(level_kinds(arena).values()) == kinds
        assert_native_wall(arena, roots, corpus)

    def test_every_mix_in_one_level(self):
        corpus = [
            Lam("x", App(Var("x"), Var("y"))),
            Let("x", Var("y"), App(Var("x"), Var("x"))),
            App(App(Var("x"), Var("y")), Var("x")),
            Lam("y", Let("z", Var("y"), Var("z"))),
        ]
        arena, roots = flatten_corpus(corpus)
        assert level_kinds(arena)[3] == {"Lam", "Let", "App"}
        assert_native_wall(arena, roots, corpus)

    @pytest.mark.parametrize(
        "expr",
        [
            Let("x", Var("y"), Var("z")),
            Let("x", App(Var("x"), Var("y")), App(Var("y"), Var("y"))),
            Lam("x", App(Var("y"), Lit(1))),
        ],
        ids=["let-unused", "let-unused-bound-mentions-binder", "lam-unused"],
    )
    def test_unused_binders(self, expr):
        corpus = [expr, App(expr, expr)]
        arena, roots = flatten_corpus(corpus)
        assert_native_wall(arena, roots, corpus)

    def test_let_x_is_x_in_x(self):
        corpus = [
            Let("x", Var("x"), Var("x")),
            Lam("x", Let("x", Var("x"), Var("x"))),
            Let("x", Let("x", Var("x"), Var("x")), Var("x")),
        ]
        arena, roots = flatten_corpus(corpus)
        assert_native_wall(arena, roots, corpus)

    def test_shadowed_binders(self):
        corpus = [
            Lam("x", Lam("x", Var("x"))),
            Lam("x", App(Lam("x", Var("x")), Var("x"))),
            Let("x", Lit(1), Let("x", Var("x"), App(Var("x"), Var("x")))),
            Lam("x", Let("x", Var("x"), Lam("x", App(Var("x"), Var("y"))))),
        ]
        arena, roots = flatten_corpus(corpus)
        assert_native_wall(arena, roots, corpus)

    def test_arena_grown_by_two_compiles(self):
        first = mixed_corpus(30, seed=7)
        second = mixed_corpus(30, seed=8) + first[:5]
        arena = ExprArena()
        roots = arena.flatten(first)
        roots += arena.extend_wire([to_wire(expr) for expr in second])
        assert_native_wall(arena, roots, first + second)


@pytest.fixture
def no_native(monkeypatch):
    """This process as if neither library had loaded."""
    why = "no C compiler (cc) on PATH"
    monkeypatch.setattr(native, "LIB", None)
    monkeypatch.setattr(native, "FLATTEN", None)
    monkeypatch.setattr(native, "WIRE", None)
    monkeypatch.setattr(native, "REASONS", {"arena_kernel": why, "arena_flatten": why})


class TestScalarFallback:
    """Every layer without the native library, and the old engine
    names that once forced a kernel."""

    def test_forced_vec_is_an_error(self):
        for engine in OLD_ENGINES:
            with pytest.raises(PlanError, match="engine must be one of auto, tree, arena"):
                HashRequest(mixed_corpus(4, seed=1), engine=engine)

    def test_arena_hash_any_auto_falls_back(self, no_native, monkeypatch):
        corpus = mixed_corpus(40, seed=3)
        arena, _roots = flatten_corpus(corpus)

        def refuse(*args):
            raise AssertionError("the native entry ran without a library")

        monkeypatch.setattr(native, "native_tops", refuse)
        assert native.kernel() == "scalar"
        assert arena_hash_any(arena) == arena_hash(arena)

    def test_planner_rejects_forced_vec(self):
        with Session() as session:
            for engine in OLD_ENGINES:
                with pytest.raises(PlanError, match=engine):
                    session.plan(HashRequest(mixed_corpus(4, seed=1), engine=engine))

    def test_planner_auto_reason_records_fallback(self, no_native):
        corpus = mixed_corpus(4, seed=1)
        request = HashRequest(corpus, engine="arena")
        with Session() as session:
            plan = session.plan(request)
            assert plan.kernel == "scalar"
            assert "arena kernel -> scalar: no C compiler (cc) on PATH" in plan.reasons
            assert session.execute(request, plan=plan) == tree_hashes(corpus)


class TestEngineSurface:
    """The engine names the API and CLI share."""

    def test_engine_choices_cover_the_family(self):
        assert ENGINE_CHOICES == ENGINES == ("auto", "tree", "arena")

    def test_session_rejects_unknown_engine(self):
        for engine in ["arena-warp", *OLD_ENGINES]:
            with pytest.raises(ValueError, match="engine must be one of"):
                Session(engine=engine)

    def test_store_accepts_kernel_engines(self):
        corpus = mixed_corpus(60, seed=13)
        want = [ExprStore().hash_expr(e) for e in corpus]
        for engine in ENGINE_CHOICES:
            assert ExprStore().hash_corpus(corpus, engine=engine) == want
        for engine in OLD_ENGINES:
            with pytest.raises(ValueError, match="engine must be one of"):
                ExprStore().hash_corpus(corpus, engine=engine)

    @needs_native
    def test_forced_kernels_agree_through_the_session(self, monkeypatch):
        corpus = mixed_corpus(60, seed=13)
        with Session() as session:
            request = HashRequest(corpus, engine="arena")
            assert session.plan(request).kernel == "native"
            with_native = session.execute(request)
        monkeypatch.setattr(native, "LIB", None)
        with Session() as session:
            assert session.plan(request).kernel == "scalar"
            assert session.execute(request) == with_native == tree_hashes(corpus)
