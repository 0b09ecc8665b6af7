"""Vectorized arena kernel wall.

The contract has three legs, each pinned here:

* **Differential wall** -- :func:`repro.core.arena.arena_hash_vec` is
  bit-identical to the scalar kernel (and through it to
  ``alpha_hash_all``) at every combiner width, on mixed/adversarial/
  depth-5000 corpora, and on levels of every mix of kinds (the kernel
  slices each level by kind).
* **Width rule** -- ``auto`` runs the vectorized kernel only on corpora
  with at least ``VEC_MIN_WIDTH`` walked nodes per level, and the
  kernel a plan records is the one that runs.
* **No-NumPy fallback** -- ``kernel="auto"`` degrades to the scalar
  kernel, and forcing ``vec`` fails loudly (``ValueError`` at the kernel
  layer, :class:`~repro.api.PlanError` at the planner).
"""

import dataclasses
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.api import HashRequest, InternRequest, PlanError, Session
from repro.core import arena as arena_mod
from repro.core.arena import (
    ARENA_ENGINES,
    ARENA_MIN_NODES,
    ENGINE_CHOICES,
    HAVE_NUMPY,
    OP_APP,
    OP_LAM,
    OP_LET,
    VEC_MIN_WIDTH,
    ExprArena,
    arena_hash,
    arena_hash_any,
    arena_hash_vec,
    engine_family,
    engine_kernel,
    flatten_corpus,
    resolve_kernel,
)
from repro.core.combiners import HashCombiners
from repro.gen.random_exprs import random_expr
from repro.lang.expr import App, Lam, Let, Lit, Var
from repro.lang.sexpr import to_wire
from repro.store import ExprStore
from repro.store import arena_intern

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

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="vec kernel needs NumPy")

WIDTHS = [8, 16, 32, 64, 96, 128]


def vec_root_hashes(corpus, combiners=None):
    arena, roots = flatten_corpus(corpus)
    tops = arena_hash_vec(arena, combiners)
    return [tops[r] for r in roots]


@needs_numpy
class TestVecDifferential:
    """Bit-identity of the vectorized kernel against the scalar oracle."""

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
        assert arena_hash_vec(arena, combiners) == arena_hash(arena, combiners)

    def test_tree_oracle(self, corpus):
        assert vec_root_hashes(corpus) == tree_hashes(corpus)

    def test_depth_5000_chains(self):
        corpus = [
            left_skewed_app(DEPTH_DEEP),
            right_skewed_app(DEPTH_DEEP),
            lam_chain(DEPTH_DEEP),
            let_chain(DEPTH_DEEP),
        ]
        arena, roots = flatten_corpus(corpus)
        assert arena_hash_vec(arena) == arena_hash(arena)

    def test_adversarial_corpus(self):
        corpus = mixed_corpus(120, seed=31, size=120)
        assert vec_root_hashes(corpus) == tree_hashes(corpus)

    def test_empty_and_tiny_corpora(self):
        from repro.lang.expr import Lit, Var

        assert arena_hash_vec(flatten_corpus([])[0]) == []
        for item in (Var("x"), Lit(7)):
            assert vec_root_hashes([item]) == tree_hashes([item])


def level_kinds(arena):
    """Interior depth -> the set of kinds at that depth."""
    names = {OP_LAM: "Lam", OP_LET: "Let", OP_APP: "App"}
    levels: dict[int, set] = {}
    for opc, depth in zip(arena.op, arena.depths):
        if opc in names:
            levels.setdefault(depth, set()).add(names[opc])
    return levels


def assert_vec_wall(arena, roots, corpus):
    """vec == scalar on every row at every width, and the roots equal
    the tree oracle."""
    for bits in WIDTHS:
        combiners = HashCombiners(bits=bits)
        tops = arena_hash_vec(arena, combiners)
        assert tops == arena_hash(arena, combiners), bits
        assert [tops[r] for r in roots] == tree_hashes(corpus, combiners), bits


@needs_numpy
class TestLevelMix:
    """Levels of every mix of kinds: the vec kernel sorts each level's
    rows Lam < Let < App and works on the Lam+Let and Let+App slices,
    so a slicing bug shows only on some mixes."""

    @given(st.lists(exprs(), min_size=1, max_size=8))
    def test_packed_corpora_match_scalar(self, corpus):
        arena, _roots = flatten_corpus(corpus)
        for bits in (8, 64, 128):
            combiners = HashCombiners(bits=bits)
            assert arena_hash_vec(arena, combiners) == arena_hash(arena, combiners)

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
        assert_vec_wall(arena, roots, corpus)

    def test_every_mix_in_one_level(self):
        corpus = [
            Lam("x", App(Var("x"), Var("y"))),
            Let("x", Var("y"), App(Var("x"), Var("x"))),
            App(App(Var("x"), Var("y")), Var("x")),
            Lam("y", Let("z", Var("y"), Var("z"))),
        ]
        arena, roots = flatten_corpus(corpus)
        assert level_kinds(arena)[3] == {"Lam", "Let", "App"}
        assert_vec_wall(arena, roots, corpus)

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
        assert_vec_wall(arena, roots, corpus)

    def test_let_x_is_x_in_x(self):
        corpus = [
            Let("x", Var("x"), Var("x")),
            Lam("x", Let("x", Var("x"), Var("x"))),
            Let("x", Let("x", Var("x"), Var("x")), Var("x")),
        ]
        arena, roots = flatten_corpus(corpus)
        assert_vec_wall(arena, roots, corpus)

    def test_shadowed_binders(self):
        corpus = [
            Lam("x", Lam("x", Var("x"))),
            Lam("x", App(Lam("x", Var("x")), Var("x"))),
            Let("x", Lit(1), Let("x", Var("x"), App(Var("x"), Var("x")))),
            Lam("x", Let("x", Var("x"), Lam("x", App(Var("x"), Var("y"))))),
        ]
        arena, roots = flatten_corpus(corpus)
        assert_vec_wall(arena, roots, corpus)

    def test_arena_grown_by_two_compiles(self):
        first = mixed_corpus(30, seed=7)
        second = mixed_corpus(30, seed=8) + first[:5]
        arena = ExprArena()
        roots = arena.flatten(first)
        roots += arena.extend_wire([to_wire(expr) for expr in second])
        assert_vec_wall(arena, roots, first + second)


def wire_request(cls, expr_corpus, **hints):
    arena = ExprArena()
    roots = arena.extend_wire([to_wire(expr) for expr in expr_corpus])
    return cls.compiled(arena, roots, **hints)


@pytest.fixture
def kernel_spy(monkeypatch):
    """Record the kernel every arena step hands the dispatcher."""
    seen = []
    real = arena_intern.arena_hash_any

    def spy(arena, combiners=None, kernel="auto"):
        seen.append(kernel)
        return real(arena, combiners, kernel=kernel)

    monkeypatch.setattr(arena_intern, "arena_hash_any", spy)
    return seen


class TestWidthRule:
    """``auto`` picks vec only from VEC_MIN_WIDTH walked nodes per level."""

    CHAINS = {
        "let_chain": let_chain(DEPTH_DEEP),
        "left_skewed_app": left_skewed_app(DEPTH_DEEP),
    }

    @staticmethod
    def wide_corpus():
        rng = random.Random(2024)
        return [
            random_expr(rng.randint(30, 90), rng=rng, p_let=0.3) for _ in range(100)
        ]

    def test_resolve_kernel_by_width(self, monkeypatch):
        monkeypatch.setattr(arena_mod, "HAVE_NUMPY", True)
        assert resolve_kernel("auto", VEC_MIN_WIDTH * 40, 40) == "vec"
        assert resolve_kernel("auto", VEC_MIN_WIDTH * 40 - 1, 40) == "scalar"
        assert resolve_kernel("auto") == "vec"  # unknown shape counts as wide
        assert resolve_kernel("scalar", 10**6, 1) == "scalar"
        assert resolve_kernel("vec", 1, 10**6) == "vec"

    @pytest.mark.parametrize("name", sorted(CHAINS))
    def test_deep_chains_plan_scalar(self, name, kernel_spy):
        chain = self.CHAINS[name]
        assert chain.size >= ARENA_MIN_NODES
        want = tree_hashes([chain])
        with Session() as session:
            for request in (
                HashRequest([chain]),
                wire_request(HashRequest, [chain]),
                InternRequest([chain]),
            ):
                plan = session.plan(request)
                assert (plan.engine, plan.kernel) == ("arena", "scalar")
                if HAVE_NUMPY:
                    assert any(
                        f"< width threshold {VEC_MIN_WIDTH}" in r for r in plan.reasons
                    )
                result = session.execute(request, plan=plan)
                if request.kind == "hash":
                    assert result == want
        assert kernel_spy and set(kernel_spy) == {"scalar"}

    @pytest.mark.parametrize("name", sorted(CHAINS))
    def test_store_auto_path_applies_the_rule(self, name, kernel_spy):
        chain = self.CHAINS[name]
        assert ExprStore().hash_corpus([chain]) == tree_hashes([chain])
        assert ExprStore().hash_corpus([chain], engine="arena") == tree_hashes([chain])
        assert kernel_spy == ["scalar", "scalar"]

    @needs_numpy
    def test_wide_request_plans_vec(self, kernel_spy):
        corpus = self.wide_corpus()
        assert sum(e.size for e in corpus) >= ARENA_MIN_NODES
        with Session() as session:
            for request in (HashRequest(corpus), wire_request(HashRequest, corpus)):
                plan = session.plan(request)
                assert (plan.engine, plan.kernel) == ("arena", "vec")
                assert any(
                    f">= width threshold {VEC_MIN_WIDTH}" in r for r in plan.reasons
                )
                assert session.execute(request, plan=plan) == tree_hashes(corpus)
        assert kernel_spy == ["vec", "vec"]

    @needs_numpy
    def test_plan_kernel_is_the_one_that_runs(self, kernel_spy):
        # A forced plan reaches the Expr path's store call too.
        corpus = self.wide_corpus()
        with Session() as session:
            for kernel in ("scalar", "vec"):
                request = HashRequest(corpus, engine="arena")
                plan = dataclasses.replace(session.plan(request), kernel=kernel)
                session.store.clear_memo()
                assert session.execute(request, plan=plan) == tree_hashes(corpus)
        assert kernel_spy == ["scalar", "vec"]


class TestScalarFallback:
    """Behaviour of every layer when NumPy is (simulated) absent."""

    def test_resolve_kernel_auto_degrades(self, monkeypatch):
        monkeypatch.setattr(arena_mod, "HAVE_NUMPY", False)
        assert resolve_kernel("auto") == "scalar"

    def test_forced_vec_is_an_error(self, monkeypatch):
        monkeypatch.setattr(arena_mod, "HAVE_NUMPY", False)
        with pytest.raises(ValueError, match="requires NumPy"):
            resolve_kernel("vec")

    def test_arena_hash_any_auto_falls_back(self, monkeypatch):
        corpus = mixed_corpus(40, seed=3)
        arena, roots = flatten_corpus(corpus)
        reference = arena_hash(arena)
        monkeypatch.setattr(arena_mod, "HAVE_NUMPY", False)
        assert arena_hash_any(arena, kernel="auto") == reference

    def test_planner_rejects_forced_vec(self, monkeypatch):
        monkeypatch.setattr(arena_mod, "HAVE_NUMPY", False)
        with Session() as session:
            with pytest.raises(PlanError, match="requires NumPy"):
                session.plan(
                    HashRequest(mixed_corpus(4, seed=1), engine="arena-vec")
                )

    def test_planner_auto_reason_records_fallback(self, monkeypatch):
        monkeypatch.setattr(arena_mod, "HAVE_NUMPY", False)
        with Session() as session:
            plan = session.plan(
                HashRequest(mixed_corpus(4, seed=1), engine="arena")
            )
        assert plan.kernel == "scalar"
        assert any("scalar fallback" in reason for reason in plan.reasons)

class TestEngineSurface:
    """The engine/kernel naming layer the API and CLI share."""

    def test_engine_choices_cover_the_family(self):
        assert set(ARENA_ENGINES) == {"arena", "arena-vec", "arena-scalar"}
        assert set(ARENA_ENGINES) < set(ENGINE_CHOICES)
        assert "tree" in ENGINE_CHOICES and "auto" in ENGINE_CHOICES

    @pytest.mark.parametrize(
        "engine,family,kernel",
        [
            ("arena", "arena", "auto"),
            ("arena-vec", "arena", "vec"),
            ("arena-scalar", "arena", "scalar"),
            ("tree", "tree", "auto"),
        ],
    )
    def test_family_and_kernel_split(self, engine, family, kernel):
        assert engine_family(engine) == family
        assert engine_kernel(engine) == kernel

    def test_session_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="engine must be one of"):
            Session(engine="arena-warp")

    @needs_numpy
    def test_store_accepts_kernel_engines(self):
        corpus = mixed_corpus(60, seed=13)
        store = ExprStore()
        want = [store.hash_expr(e) for e in corpus]
        for engine in ARENA_ENGINES:
            assert ExprStore().hash_corpus(corpus, engine=engine) == want

    @needs_numpy
    def test_forced_kernels_agree_through_the_session(self):
        corpus = mixed_corpus(60, seed=13)
        with Session() as session:
            vec = session.execute(HashRequest(corpus, engine="arena-vec"))
            scalar = session.execute(HashRequest(corpus, engine="arena-scalar"))
        assert vec == scalar
