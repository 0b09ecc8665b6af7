"""Degenerate-input coverage across summarise / rebuild / store.

The satellite contract: literal-only expressions, a single free
variable, deeply left- and right-skewed chains (~depth 2000 -- far past
CPython's default recursion limit, so any accidental recursion fails
loudly), and shadowed binders, pushed through the Step-1 summarisers,
their rebuild inverses, the fast hasher, the incremental hasher and the
store.

``TestVeryDeepChains`` raises the ceiling to depth 5000: the
summarisers, both rebuilds, the CEK evaluator and the store are all
explicit-stack / explicit-continuation, so the *only*
recursion-limited path near a corpus is pickling the trees, whose
failure mode is pinned here as a regression canary.
"""

import pickle

import pytest

from repro.core.esummary import (
    esummary_equal,
    hash_esummary_tree,
    rebuild_naive,
    rebuild_tagged,
    summarise_naive,
    summarise_tagged,
)
from repro.core.combiners import default_combiners
from repro.core.hashed import alpha_hash_all, alpha_hash_root
from repro.core.incremental import IncrementalHasher
from repro.lang.alpha import alpha_equivalent
from repro.lang.evaluator import evaluate
from repro.lang.expr import App, Lam, Let, Lit, Var
from repro.store import ExprStore

DEPTH = 2000
#: The PR-3 ceiling: ~5x CPython's default recursion limit, so any
#: accidental recursion anywhere in the pipeline fails loudly.
DEPTH_DEEP = 5000


def check_summarise_rebuild_store(expr, store=None):
    """The full degenerate gauntlet for one expression."""
    combiners = default_combiners()
    tagged = summarise_tagged(expr)
    naive = summarise_naive(expr)
    # the two summarisers agree on alpha-equivalence partitions via
    # their rebuilds being alpha-equivalent to the original
    assert alpha_equivalent(rebuild_tagged(tagged), expr)
    assert alpha_equivalent(rebuild_naive(naive), expr)
    # round-trip: summarising the rebuild reproduces the summary
    assert esummary_equal(summarise_tagged(rebuild_tagged(tagged)), tagged)
    # the fast hash equals the hash of the materialised summary
    root = alpha_hash_root(expr, combiners)
    assert root == hash_esummary_tree(combiners, tagged)
    # store-memoized hashing and interning agree
    store = store if store is not None else ExprStore(combiners)
    assert store.hash_expr(expr) == root
    node_id = store.intern(expr)
    assert store.hash_of(node_id) == root
    assert alpha_equivalent(store.expr_of(node_id), expr)
    return node_id


class TestLiteralOnly:
    def test_single_literal(self):
        check_summarise_rebuild_store(Lit(7))

    def test_literal_tree(self):
        e = App(App(Lit(1), Lit(2)), App(Lit(1), Lit(2)))
        store = ExprStore()
        check_summarise_rebuild_store(e, store)
        # identical literal subtrees collapse to single canonical entries
        assert store.intern(App(Lit(1), Lit(2))) == store.intern(
            App(Lit(1), Lit(2))
        )

    def test_literal_types_not_conflated(self):
        store = ExprStore()
        assert store.intern(Lit(1)) != store.intern(Lit(1.0))
        assert store.intern(Lit(True)) != store.intern(Lit(1))
        assert store.intern(Lit("1")) != store.intern(Lit(1))

    def test_empty_varmap_everywhere(self):
        e = App(Lit(1), Lit(2))
        assert summarise_tagged(e).varmap.entries == {}


class TestSingleFreeVariable:
    def test_bare_var(self):
        check_summarise_rebuild_store(Var("x"))

    def test_free_var_summary_is_singleton(self):
        summary = summarise_tagged(Var("x"))
        assert summary.varmap.find_singleton() == "x"

    def test_same_name_same_class_distinct_name_distinct_class(self):
        store = ExprStore()
        a = store.intern(Var("x"))
        assert store.intern(Var("x")) == a
        assert store.intern(Var("y")) != a

    def test_free_under_binder_chain(self):
        e = Lam("a", Lam("b", Var("x")))
        node_id = check_summarise_rebuild_store(e)
        store = ExprStore()
        # free variables must match by name across classes
        assert store.intern(Lam("p", Lam("q", Var("x")))) == store.intern(e)
        assert store.intern(Lam("p", Lam("q", Var("y")))) != store.intern(e)
        assert node_id is not None


def left_skewed_app(depth: int):
    e = Var("f")
    for _ in range(depth):
        e = App(e, Var("x"))
    return e


def right_skewed_app(depth: int):
    e = Var("x")
    for _ in range(depth):
        e = App(Var("f"), e)
    return e


def lam_chain(depth: int):
    e = Var("x0")
    for i in range(depth):
        e = Lam(f"x{i}", e)
    return e


def let_chain(depth: int):
    e = Var(f"v{DEPTH - 1}")
    for i in range(depth - 1, -1, -1):
        e = Let(f"v{i}", Lit(i) if i == 0 else Var(f"v{i - 1}"), e)
    return e


class TestDeepChains:
    def test_left_skewed_app_chain(self):
        check_summarise_rebuild_store(left_skewed_app(DEPTH))

    def test_right_skewed_app_chain(self):
        check_summarise_rebuild_store(right_skewed_app(DEPTH))

    def test_lambda_chain(self):
        check_summarise_rebuild_store(lam_chain(DEPTH))

    def test_let_chain(self):
        check_summarise_rebuild_store(let_chain(DEPTH))

    def test_deep_chains_share_suffixes_in_store(self):
        # every level of a right-skewed chain is its own class; interning
        # two copies hits all of them
        store = ExprStore()
        a = store.intern(right_skewed_app(DEPTH))
        misses = store.stats.misses
        assert store.intern(right_skewed_app(DEPTH)) == a
        assert store.stats.misses == misses

    def test_incremental_replace_at_depth(self):
        e = right_skewed_app(DEPTH)
        store = ExprStore()
        inc = IncrementalHasher(e, store=store)
        path = (1,) * (DEPTH - 1)
        stats = inc.replace(path, Var("z"))
        assert stats.path_nodes == DEPTH - 1
        assert inc.root_hash == alpha_hash_root(inc.expr)

    def test_alpha_oracle_on_deep_chains(self):
        assert alpha_equivalent(lam_chain(DEPTH), lam_chain(DEPTH))
        assert not alpha_equivalent(
            left_skewed_app(DEPTH), right_skewed_app(DEPTH)
        )


class TestVeryDeepChains:
    """Depth-5000 regression wall (the PR-3 satellite contract).

    Everything on the hashing pipeline -- summarise (both variants),
    rebuild (both variants), the fast hasher, the store, the CEK
    evaluator -- must survive ~5x the default recursion limit without
    touching ``sys.setrecursionlimit``.
    """

    def test_summarise_and_rebuild_both_variants(self):
        e = lam_chain(DEPTH_DEEP)
        tagged = summarise_tagged(e)
        naive = summarise_naive(e)
        assert alpha_equivalent(rebuild_tagged(tagged), e)
        assert alpha_equivalent(rebuild_naive(naive), e)
        assert esummary_equal(summarise_tagged(rebuild_tagged(tagged)), tagged)

    def test_full_gauntlet_on_skewed_chains(self):
        check_summarise_rebuild_store(left_skewed_app(DEPTH_DEEP))
        check_summarise_rebuild_store(right_skewed_app(DEPTH_DEEP))

    def test_evaluator_deep_let_chain(self):
        # let v0 = 0 in let v1 = v0 in ... in v_{n-1}  ==> 0
        e = Var(f"v{DEPTH_DEEP - 1}")
        for i in range(DEPTH_DEEP - 1, -1, -1):
            e = Let(f"v{i}", Lit(i) if i == 0 else Var(f"v{i - 1}"), e)
        assert evaluate(e) == 0

    def test_evaluator_deep_application_chain(self):
        identity = Lam("y", Var("y"))
        e = Lit(1)
        for _ in range(DEPTH_DEEP):
            e = App(identity, e)
        assert evaluate(e, fuel=20 * DEPTH_DEEP) == 1

    def test_store_interns_deep_chain(self):
        store = ExprStore()
        a = store.intern(lam_chain(DEPTH_DEEP))
        assert store.intern(lam_chain(DEPTH_DEEP)) == a

    def test_pickle_is_the_recursive_path(self):
        """Canary: pickling deep trees recurses, so nothing in the
        pipeline may ship trees by pickle."""
        with pytest.raises(RecursionError):
            pickle.dumps(lam_chain(DEPTH_DEEP))


class TestShadowedBinders:
    def test_shadowed_lambda_still_alpha_correct(self):
        shadowed = Lam("x", Lam("x", Var("x")))  # inner binder wins
        distinct = Lam("a", Lam("b", Var("b")))
        outer_ref = Lam("a", Lam("b", Var("a")))
        store = ExprStore()
        assert store.intern(shadowed) == store.intern(distinct)
        assert store.intern(shadowed) != store.intern(outer_ref)

    def test_shadowed_let(self):
        shadowed = Let("x", Lit(1), Let("x", Lit(2), Var("x")))
        distinct = Let("a", Lit(1), Let("b", Lit(2), Var("b")))
        store = ExprStore()
        assert store.intern(shadowed) == store.intern(distinct)

    def test_let_bound_refers_to_outer_binding(self):
        # in Let x = e1 in e2 the binder scopes over e2 only: an x inside
        # the bound expression is the *outer* x
        inner_shadow = Lam("x", Let("x", Var("x"), Var("x")))
        spelled_out = Lam("y", Let("z", Var("y"), Var("z")))
        store = ExprStore()
        assert store.intern(inner_shadow) == store.intern(spelled_out)

    def test_shadowed_summaries_agree_with_hash(self):
        combiners = default_combiners()
        shadowed = Lam("x", Lam("x", Var("x")))
        assert hash_esummary_tree(
            combiners, summarise_tagged(shadowed)
        ) == alpha_hash_root(shadowed, combiners)

    def test_deep_shadowed_chain(self):
        e = Var("x")
        for _ in range(DEPTH):
            e = Lam("x", e)  # same binder name the whole way down
        check_summarise_rebuild_store(e)

    @pytest.mark.parametrize("depth", [0, 1, 2, DEPTH])
    def test_equivalence_classes_tolerate_depth(self, depth):
        from repro.core.equivalence import equivalence_classes

        e = right_skewed_app(max(depth, 1))
        classes = equivalence_classes(e, min_count=2, min_size=1, verify=True)
        # the repeated Var("f") occurrences form the only repeated class
        if depth >= 2:
            assert any(cls.representative.kind == "Var" for cls in classes)
