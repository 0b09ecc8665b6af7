"""Vectorized arena kernel wall.

The contract has two legs, each pinned here:

* **Differential wall** -- :func:`repro.core.arena.arena_hash_vec` is
  bit-identical to the scalar kernel (and through it to
  ``alpha_hash_all``) at every combiner width, on mixed/adversarial/
  depth-5000 corpora.
* **No-NumPy fallback** -- ``kernel="auto"`` degrades to the scalar
  kernel, and forcing ``vec`` fails loudly (``ValueError`` at the kernel
  layer, :class:`~repro.api.PlanError` at the planner).
"""

import pytest

from repro.api import HashRequest, PlanError, Session
from repro.core import arena as arena_mod
from repro.core.arena import (
    ARENA_ENGINES,
    ENGINE_CHOICES,
    HAVE_NUMPY,
    arena_hash,
    arena_hash_any,
    arena_hash_vec,
    engine_family,
    engine_kernel,
    flatten_corpus,
    resolve_kernel,
)
from repro.core.combiners import HashCombiners
from repro.store import ExprStore

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

WIDTHS = [16, 32, 64, 96, 128]


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
