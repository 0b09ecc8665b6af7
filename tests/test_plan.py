"""Tests for the request -> plan -> execute pipeline.

The contract under test: the ``HashRequest`` -> ``ExecutionPlan`` ->
execute path is bit-identical to ``alpha_hash_all`` across engines
(tree/arena) and through the async bridge, the removed fan-out knobs
(``workers`` / ``mode``) are rejected rather than silently ignored,
and third-party backends register through the ``repro.backends``
entry-point group.
"""

import random

import pytest

from repro.api import (
    BACKENDS,
    AsyncExecutor,
    ExecutionPlan,
    HashRequest,
    InternRequest,
    PlanError,
    Session,
    SessionConfig,
    get_backend,
)
from repro.api.backends import _ALIASES, load_entry_point_backends
from repro.core import native
from repro.core.arena import ExprArena
from repro.core.hashed import alpha_hash_all
from repro.gen.random_exprs import random_expr
from repro.lang.expr import Var
from repro.lang.parser import parse
from repro.lang.sexpr import to_wire
from repro.service.server import _corpus_request
from repro.store import ExprStore


def small_corpus(n_items: int = 40, seed: int = 3):
    rng = random.Random(seed)
    corpus = []
    for _ in range(n_items):
        if corpus and rng.random() < 0.2:
            corpus.append(rng.choice(corpus))
        else:
            corpus.append(random_expr(30, rng=rng, p_let=0.2, p_lit=0.2))
    return corpus


@pytest.fixture(scope="module")
def corpus():
    return small_corpus()


@pytest.fixture(scope="module")
def expected(corpus):
    return [alpha_hash_all(e).root_hash for e in corpus]


class TestRequests:
    def test_request_freezes_corpus(self, corpus):
        request = HashRequest(iter(corpus))
        assert len(request) == len(corpus)
        assert request.total_nodes == sum(e.size for e in corpus)

    def test_request_rejects_bad_hints(self, corpus):
        with pytest.raises(ValueError, match="engine"):
            HashRequest(corpus, engine="warp")
        with pytest.raises(TypeError, match="unknown request hint"):
            HashRequest(corpus, warp_factor=9)
        with pytest.raises(TypeError, match="expressions"):
            HashRequest(["not an expr"])

    def test_hints_view(self, corpus):
        assert HashRequest(corpus).hints() == {}
        assert HashRequest(corpus, engine="tree", bits=64).hints() == {
            "engine": "tree",
            "bits": 64,
        }

    def test_intern_request_kind(self, corpus):
        assert HashRequest(corpus).kind == "hash"
        assert InternRequest(corpus).kind == "intern"


class TestPlanner:
    def test_auto_plans_arena_unless_tree_is_pinned(self):
        """Every size plans arena on ``auto``; only a ``tree`` pin, of
        the request or the session, plans tree."""
        one_node = [Var("x")]
        big = small_corpus(200, seed=4)
        assert sum(e.size for e in big) >= 5_000
        for kind in (HashRequest, InternRequest):
            for items in (one_node, big):
                assert Session().plan(kind(items)).engine == "arena"
                assert Session().plan(kind(items, engine="arena")).engine == "arena"
                plan = Session().plan(kind(items, engine="tree"))
                assert plan.engine == "tree" and plan.kernel is None
                assert "engine 'tree' pinned by the request" in plan.reasons
                pinned = Session(engine="tree")
                plan = pinned.plan(kind(items))
                assert plan.engine == "tree"
                assert "engine 'tree' pinned by the session" in plan.reasons
                assert pinned.plan(kind(items, engine="auto")).engine == "arena"

    def test_store_auto_runs_the_planned_engine(self):
        """The store layer runs the engine the plan names: the arena
        leaves the per-object memo cold, the tree walk fills it."""
        one_node = [Var("x")]
        big = small_corpus(200, seed=4)
        for items in (one_node, big):
            for engine in ("auto", "tree"):
                planned = Session().plan(HashRequest(items, engine=engine)).engine
                hashed, interned = ExprStore(), ExprStore()
                hashed.hash_corpus(items, engine=engine)
                interned.intern_many(items, engine=engine)
                assert bool(hashed._memo) == bool(interned._memo) == (planned == "tree")

    def test_own_pass_plans_tree_without_a_kernel(self):
        big = small_corpus(200, seed=4)
        assert sum(e.size for e in big) > 4_000
        for engine in (None, "auto", "arena"):
            plan = Session(backend="debruijn").plan(HashRequest(big, engine=engine))
            assert (plan.engine, plan.kernel, plan.store_backed) == ("tree", None, False)
            assert any("its own pass" in r for r in plan.reasons)
        plan = Session(use_store=False).plan(HashRequest(big))
        assert (plan.engine, plan.kernel) == ("tree", None)

    def test_plan_is_concrete_and_inspectable(self, corpus):
        plan = Session().plan(HashRequest(corpus))
        assert isinstance(plan, ExecutionPlan)
        assert plan.engine in ("tree", "arena")
        assert plan.corpus_items == len(corpus)
        text = plan.explain()
        assert "engine=" in text and "backend=ours" in text
        as_dict = plan.as_dict()
        assert not {"workers", "mode", "executor"} & set(as_dict)
        assert isinstance(as_dict["reasons"], list) or isinstance(
            as_dict["reasons"], tuple
        )

    def test_removed_fanout_knobs_are_type_errors(self, corpus):
        """The in-process fan-out is gone: its knobs fail loudly at
        construction instead of being accepted and ignored."""
        with pytest.raises(TypeError, match="workers"):
            Session(workers=2)
        with pytest.raises(TypeError, match="parallel_mode"):
            SessionConfig(parallel_mode="spawn")
        with pytest.raises(TypeError, match="unknown request hint"):
            HashRequest(corpus, workers=2)
        with pytest.raises(TypeError, match="unknown request hint"):
            InternRequest(corpus, mode="thread")
        with pytest.raises(TypeError):
            Session().hash_corpus(corpus, workers=2)
        with pytest.raises(TypeError, match="num_shards"):
            Session(num_shards=4)

    def test_non_store_backend_stays_serial(self, corpus):
        plan = Session(backend="debruijn").plan(HashRequest(corpus))
        assert not plan.store_backed
        assert any("its own pass" in r for r in plan.reasons)

    def test_determinism_hints_enforced(self, corpus):
        session = Session(bits=64)
        ok = HashRequest(corpus, bits=64)
        assert session.plan(ok).bits == 64
        with pytest.raises(PlanError, match="bits"):
            session.plan(HashRequest(corpus, bits=32))
        with pytest.raises(PlanError, match="seed"):
            session.plan(HashRequest(corpus, seed=123))

    def test_intern_needs_store(self, corpus):
        with pytest.raises(PlanError, match="use_store"):
            Session(use_store=False).plan(InternRequest(corpus))

    def test_unknown_backend_is_a_plan_error(self, corpus):
        with pytest.raises(PlanError, match="unknown backend"):
            Session().plan(HashRequest(corpus, backend="warp"))


class TestExecuteBitIdentity:
    """The acceptance matrix: every engine, sync or async, ==
    alpha_hash_all."""

    @pytest.mark.parametrize("engine", ["tree", "arena"])
    def test_serial_executor(self, corpus, expected, engine):
        session = Session()
        assert session.execute(HashRequest(corpus, engine=engine)) == expected

    def test_async_executor_runs_the_plan(self, corpus, expected):
        session = Session()
        request = HashRequest(corpus)
        plan = session.plan(request)
        with AsyncExecutor(max_workers=2) as bridge:
            assert bridge.run(session, request, plan) == expected

    def test_execute_without_store(self, corpus, expected):
        assert Session(use_store=False).execute(HashRequest(corpus)) == expected

    def test_intern_request_matches_intern_many(self, corpus):
        serial = Session()
        ids = serial.execute(InternRequest(corpus))
        assert ids == Session().intern_many(corpus)
        hashes = [serial.store.entry(i).hash for i in ids]
        assert hashes == [alpha_hash_all(e).root_hash for e in corpus]


def compile_wire(corpus):
    """The server's decode: wire documents straight into an arena."""
    arena = ExprArena()
    return arena, arena.extend_wire([to_wire(expr) for expr in corpus])


def lowered(request_type, corpus, session, engine):
    """``corpus`` as the server lowers a JSON body of its documents
    pinned to ``engine``: compiled for the arena, else unshared trees."""
    body = {"exprs": [to_wire(expr) for expr in corpus], "engine": engine}
    request = _corpus_request(request_type, body, session)
    assert (request.compiled_corpus is not None) == (engine == "arena")
    return request


class TestCompiledRequests:
    """Requests lowered from wire documents as the server lowers them
    run the same plans, and return the same bits and ids, as ``Expr``
    requests: a compiled corpus on the arena, unshared trees on a
    ``tree`` pin."""

    def test_shape_matches_the_expr_request(self, corpus):
        compiled = HashRequest.compiled(*compile_wire(corpus))
        plain = HashRequest(corpus)
        assert len(compiled) == len(plain) == len(corpus)
        assert compiled.total_nodes == plain.total_nodes
        assert compiled.hints() == plain.hints() == {}
        assert compiled.exprs == () and plain.compiled_corpus is None
        session = Session()
        assert session.plan(compiled) == session.plan(plain)

    @pytest.mark.parametrize(
        "engine,scalar",
        [("tree", False), ("arena", False), ("arena", True)],
        ids=["tree", "arena", "arena-scalar"],
    )
    def test_hash_is_bit_identical(self, corpus, expected, engine, scalar, monkeypatch):
        if scalar:  # the arena engine without the native library
            monkeypatch.setattr(native, "LIB", None)
        session = Session()
        request = lowered(HashRequest, corpus, session, engine)
        assert session.execute(request) == expected

    @pytest.mark.parametrize("engine", ["tree", "arena"])
    def test_intern_lands_on_the_same_ids(self, corpus, expected, engine):
        session = Session()
        request = lowered(InternRequest, corpus, session, engine)
        ids, hashes = session.intern_with_hashes(request)
        assert hashes == expected
        assert ids == Session().execute(InternRequest(corpus, engine=engine))
        entries = len(session.store)
        assert session.execute(request) == ids  # a repeat is all hits
        assert len(session.store) == entries

    @pytest.mark.parametrize("engine", ["tree", "arena"])
    def test_check_refuses_before_anything_is_interned(self, corpus, engine):
        session = Session()
        request = lowered(InternRequest, corpus, session, engine)
        seen = []

        def refuse(hashes):
            seen.append(hashes)
            raise LookupError("not ours")

        with pytest.raises(LookupError):
            session.intern_with_hashes(request, check=refuse)
        assert seen == [[alpha_hash_all(e).root_hash for e in corpus]]
        assert len(session.store) == 0 and session.store.version == 0

    def test_tree_pins_refuse_compiled_corpora(self, corpus):
        compiled = compile_wire(corpus)
        for kind in (HashRequest, InternRequest):
            with pytest.raises(PlanError, match="pinned by the request"):
                Session().plan(kind.compiled(*compiled, engine="tree"))
            with pytest.raises(PlanError, match="pinned by the session"):
                Session(engine="tree").plan(kind.compiled(*compiled))
            with pytest.raises(PlanError, match="arena engine"):
                Session().execute(kind.compiled(*compiled, engine="tree"))

    def test_non_store_backends_refuse_compiled_corpora(self, corpus):
        compiled = compile_wire(corpus)
        with pytest.raises(PlanError, match="store-backed"):
            Session().plan(HashRequest.compiled(*compiled, backend="debruijn"))
        with pytest.raises(PlanError, match="store-backed"):
            Session(use_store=False).plan(HashRequest.compiled(*compiled))


class _EntryPointStub:
    def __init__(self, name, target):
        self.name = name
        self._target = target

    def load(self):
        if isinstance(self._target, Exception):
            raise self._target
        return self._target


@pytest.fixture
def clean_registry():
    """Let a test register plugin backends and always clean them up."""
    added = []
    yield added
    for name in added:
        BACKENDS.pop(name, None)
        _ALIASES.pop(name, None)


class TestEntryPointBackends:
    def test_plain_callable_is_wrapped(self, monkeypatch, clean_registry):
        import repro.api.backends as backends_module

        def fake_hash_all(expr, combiners=None):
            return alpha_hash_all(expr, combiners)

        monkeypatch.setattr(
            backends_module,
            "_iter_entry_points",
            lambda: (_EntryPointStub("plugin_hash", fake_hash_all),),
        )
        clean_registry.append("plugin_hash")
        loaded = load_entry_point_backends(refresh=True)
        assert loaded == ("plugin_hash",)
        backend = get_backend("plugin_hash")
        assert backend.kind == "plugin"
        assert not backend.store_backed
        expr = parse(r"\x. x + 7")
        assert (
            backend.hash_all(expr).root_hash == alpha_hash_all(expr).root_hash
        )
        # The Session front door sees it like any registered backend.
        assert Session(backend="plugin_hash").hash(expr) == alpha_hash_all(
            expr
        ).root_hash

    def test_ready_backend_passes_through(self, monkeypatch, clean_registry):
        import repro.api.backends as backends_module
        from repro.api import FunctionBackend

        ready = FunctionBackend(
            name="plugin_ready",
            label="ready-made",
            kind="plugin",
            section="entry-point",
            store_backed=False,
            run=lambda e, c=None: alpha_hash_all(e, c),
        )
        monkeypatch.setattr(
            backends_module,
            "_iter_entry_points",
            lambda: (_EntryPointStub("plugin_ready", ready),),
        )
        clean_registry.append("plugin_ready")
        assert load_entry_point_backends(refresh=True) == ("plugin_ready",)
        assert get_backend("plugin_ready") is ready

    def test_broken_plugin_warns_and_is_skipped(
        self, monkeypatch, clean_registry
    ):
        import repro.api.backends as backends_module

        monkeypatch.setattr(
            backends_module,
            "_iter_entry_points",
            lambda: (
                _EntryPointStub("plugin_broken", RuntimeError("boom")),
                _EntryPointStub("plugin_shapeless", object()),
            ),
        )
        with pytest.warns(RuntimeWarning):
            assert load_entry_point_backends(refresh=True) == ()
        assert "plugin_broken" not in BACKENDS
        assert "plugin_shapeless" not in BACKENDS

    def test_builtins_are_never_clobbered(self, monkeypatch, clean_registry):
        import repro.api.backends as backends_module

        monkeypatch.setattr(
            backends_module,
            "_iter_entry_points",
            lambda: (_EntryPointStub("ours", lambda e, c=None: None),),
        )
        assert load_entry_point_backends(refresh=True) == ()
        assert get_backend("ours").kind == "table1"

    def test_scan_is_lazy_and_idempotent(self, monkeypatch, clean_registry):
        import repro.api.backends as backends_module

        calls = []

        def fake_iter():
            calls.append(1)
            return ()

        monkeypatch.setattr(
            backends_module, "_iter_entry_points", fake_iter
        )
        load_entry_point_backends(refresh=True)
        load_entry_point_backends()
        assert len(calls) == 1  # second call short-circuits
