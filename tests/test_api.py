"""Tests for the ``repro.api`` facade: Session + unified backend registry."""

import pytest

from repro.api import (
    ABLATION_ORDER,
    BACKENDS,
    TABLE1_ORDER,
    FunctionBackend,
    HasherBackend,
    Session,
    SessionConfig,
    SessionError,
    backend_names,
    get_backend,
    register_backend,
)
from repro.core.hashed import alpha_hash_all
from repro.gen.random_exprs import alpha_rename, random_expr
from repro.lang.alpha import alpha_equivalent
from repro.lang.parser import parse
from repro.lang.traversal import preorder


class TestRegistryCompleteness:
    def test_every_table1_row_registered(self):
        for name in TABLE1_ORDER:
            backend = get_backend(name)
            assert backend.kind == "table1"
            assert backend.algorithm is not None
            assert backend.algorithm.name == name

    def test_every_ablation_registered(self):
        assert {"always_left", "recompute_vm"} <= set(BACKENDS)
        assert get_backend("always_left").kind == "ablation"
        assert get_backend("recompute_vm").kind == "ablation"

    def test_lazy_variant_and_aliases(self):
        assert get_backend("ours_lazy").kind == "variant"
        assert get_backend("lazy") is get_backend("ours_lazy")
        assert get_backend("default") is get_backend("ours")

    def test_ablation_order_resolves(self):
        for name in ABLATION_ORDER:
            assert isinstance(get_backend(name), FunctionBackend)

    def test_unknown_backend_lists_options(self):
        with pytest.raises(KeyError, match="ours"):
            get_backend("nope")

    def test_only_ours_is_store_backed(self):
        assert [n for n, b in BACKENDS.items() if b.store_backed] == ["ours"]

    def test_backends_satisfy_protocol(self):
        for backend in BACKENDS.values():
            assert isinstance(backend, HasherBackend)

    def test_backend_names(self):
        names = backend_names()
        assert "ours" in names and "always_left" in names
        assert "lazy" not in names
        assert "lazy" in backend_names(include_aliases=True)

    def test_register_backend_rejects_duplicates(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend(
                FunctionBackend(
                    name="ours",
                    label="dup",
                    kind="variant",
                    section="-",
                    store_backed=False,
                    run=lambda e, c=None: alpha_hash_all(e, c),
                )
            )

    def test_every_backend_reachable_via_session(self):
        e = parse(r"\x. foo (\y. y + x) (\z. z + x)")
        for name in BACKENDS:
            session = Session(backend=name)
            hashes = session.hashes(e)
            assert hashes.root_hash == session.hash(e)

    def test_every_backend_alpha_invariant_except_debruijn_probe(self):
        # every true-negative backend must collapse alpha-renamings
        e = random_expr(80, seed=3, p_let=0.2)
        renamed = alpha_rename(e, seed=9)
        assert not e is renamed
        for name in ("ours", "ours_lazy", "always_left", "recompute_vm",
                     "locally_nameless"):
            session = Session(backend=name)
            assert session.hash(e) == session.hash(renamed), name


class TestSessionHashing:
    def test_differential_against_alpha_hash_all(self):
        """Session.hashes(e) == alpha_hash_all(e), node for node."""
        session = Session()
        for seed in range(8):
            e = random_expr(150 + seed * 37, seed=seed, p_let=0.25)
            through_store = session.hashes(e)
            fresh = alpha_hash_all(e)
            for node in preorder(e):
                assert through_store.hash_of(node) == fresh.hash_of(node)

    def test_hash_corpus_matches_per_item(self):
        corpus = [random_expr(60, seed=i) for i in range(20)]
        expected = [alpha_hash_all(e).root_hash for e in corpus]
        assert Session().hash_corpus(corpus) == expected
        assert Session(use_store=False).hash_corpus(corpus) == expected

    def test_storeless_session_matches_store_backed(self):
        e = random_expr(200, seed=11)
        assert Session(use_store=False).hash(e) == Session().hash(e)

    def test_non_default_backend_bypasses_store(self):
        session = Session(backend="structural")
        e = random_expr(50, seed=2)
        session.hash(e)
        # the structural pass must not touch the store's hashing memo
        assert session.store is not None
        assert session.store.stats.hashed_nodes == 0

    def test_custom_bits_and_seed(self):
        e = random_expr(40, seed=5)
        narrow = Session(bits=16, seed=123)
        assert narrow.hash(e) < (1 << 16)
        assert narrow.hash(e) != Session(bits=16, seed=124).hash(e)

    def test_config_object_and_overrides_conflict(self):
        with pytest.raises(TypeError):
            Session(SessionConfig(), backend="ours")


class TestSessionApps:
    def test_intern_requires_store(self):
        session = Session(use_store=False)
        with pytest.raises(SessionError, match="use_store"):
            session.intern(parse("a b"))
        with pytest.raises(SessionError, match="use_store"):
            session.save("/tmp/never-written.snap")

    def test_intern_collapses_alpha_equivalent(self):
        session = Session()
        a = session.intern(parse(r"\x. x + 7"))
        b = session.intern(parse(r"\y. y + 7"))
        assert a == b

    def test_cse_through_session(self):
        session = Session()
        expr = parse(r"(a + (v + 7)) * (v + 7)")
        result = session.cse(expr)
        assert result.final_size < result.original_size
        assert session.store.stats.hashed_nodes > 0

    def test_share_single_and_corpus(self):
        session = Session()
        one = session.share(parse(r"foo (\x. x + 1) (\y. y + 1)"))
        assert one.sharing_ratio > 1.0
        many = session.share([parse(r"\x. x + 1"), parse(r"\q. q + 1")])
        assert len(many) == 2
        # corpus pooling: both items landed on the same canonical tree
        assert many[0].root is many[1].root

    def test_apps_session_kwarg(self):
        from repro.apps.cse import cse
        from repro.apps.sharing import share_alpha

        session = Session()
        expr = parse(r"(a + (v + 7)) * (v + 7)")
        assert cse(expr, session=session).final_size < expr.size
        assert share_alpha(expr, session=session).unique_nodes < expr.size
        with pytest.raises(ValueError, match="not both"):
            cse(expr, store=session.store, session=session)
        with pytest.raises(ValueError, match="not both"):
            share_alpha(expr, store=session.store, session=session)

    def test_ml_graph_session_kwarg(self):
        pytest.importorskip("networkx")
        from repro.apps.ml_graph import ast_to_graph, graph_stats

        session = Session()
        expr = parse(r"foo (\x. x + 7) (\y. y + 7)")
        stats = graph_stats(ast_to_graph(expr, session=session))
        assert stats.equality_edges >= 1
        with pytest.raises(ValueError, match="not both"):
            ast_to_graph(expr, combiners=session.combiners, session=session)

    def test_stats_shape(self):
        session = Session()
        session.hash(parse("a b"))
        stats = session.stats()
        assert stats["backend"] == "ours"
        assert stats["store_enabled"] is True
        assert "hit_rate" in stats["store"]
        storeless = Session(use_store=False).stats()
        assert storeless["store_enabled"] is False
        assert "store" not in storeless


class TestDeprecatedAblationRegistry:
    def test_unknown_attribute_still_raises(self):
        import repro.evalharness.ablations as ablations

        with pytest.raises(AttributeError):
            ablations.NOT_A_THING

    def test_api_internals_are_warning_free(self, recwarn):
        """Nothing inside repro.api may route through deprecated code."""
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            session = Session(backend="always_left")
            session.hash(parse(r"\x. x"))
            Session().hash_corpus([parse("a b"), parse("b a")])


class TestTable1ThroughRegistry:
    def test_run_table1_uses_unified_registry(self):
        from repro.evalharness.table1 import run_table1

        rows = run_table1(random_trials=2, seed=0)
        assert [r.name for r in rows] == list(TABLE1_ORDER)
        assert all(r.consistent for r in rows)

    def test_run_table1_rejects_metadata_free_backend(self):
        from repro.evalharness.table1 import run_table1

        with pytest.raises(ValueError, match="Table 1 metadata"):
            run_table1(algorithms=("always_left",), random_trials=0)
