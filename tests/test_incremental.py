"""Tests for incremental re-hashing (Section 6.3).

Ground truth: after any sequence of subtree replacements, every node
hash reported by the incremental hasher must equal a from-scratch batch
re-hash of the current expression.
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.hashed import alpha_hash_all
from repro.core.incremental import IncrementalHasher
from repro.gen.random_exprs import random_expr
from repro.lang.expr import App, Lam, Lit, Var
from repro.lang.parser import parse
from repro.lang.traversal import preorder, preorder_with_paths, replace_at
from repro.store import ExprStore

from strategies import exprs


def assert_matches_batch(hasher: IncrementalHasher) -> None:
    fresh = alpha_hash_all(hasher.expr)
    for node, value in hasher.iter_hashes():
        assert value == fresh.hash_of(node)


def assert_memo_within_tree(hasher: IncrementalHasher) -> None:
    """The hasher's memo holds records of its current tree's nodes only,
    so never more records than the tree has distinct nodes."""
    assert hasher._memo.keys() <= {id(node) for node in preorder(hasher.expr)}


def put_back(hasher: IncrementalHasher, rng: random.Random) -> None:
    """Replace a random subtree of the hasher's tree with itself."""
    path, node = rng.choice(list(preorder_with_paths(hasher.expr)))
    hasher.replace(path, node)
    assert_memo_within_tree(hasher)


class TestConstruction:
    def test_initial_hashes_match_batch(self):
        e = parse("let w = v + 7 in (a + w) * w")
        hasher = IncrementalHasher(e)
        assert_matches_batch(hasher)

    def test_root_hash(self):
        e = parse(r"\x. x")
        assert IncrementalHasher(e).root_hash == alpha_hash_all(e).root_hash

    def test_hash_at_path(self):
        e = parse("f (g x)")
        hasher = IncrementalHasher(e)
        batch = alpha_hash_all(e)
        assert hasher.hash_at((1,)) == batch.hash_of(e.arg)
        assert hasher.hash_at(()) == batch.root_hash

    def test_hashes_view(self):
        e = parse("f x x")
        view = IncrementalHasher(e).hashes()
        assert view.root_hash == alpha_hash_all(e).root_hash


class TestReplace:
    def test_single_replace(self):
        e = parse("(a + (v + 7)) * (v + 7)")
        hasher = IncrementalHasher(e)
        stats = hasher.replace((0, 1), parse("q * 2"))
        assert stats.subtree_nodes == 5
        assert_matches_batch(hasher)

    def test_replace_at_root(self):
        hasher = IncrementalHasher(parse("a b"))
        stats = hasher.replace((), parse(r"\x. x"))
        assert stats.path_nodes == 0
        assert hasher.root_hash == alpha_hash_all(parse(r"\y. y")).root_hash

    def test_replace_changes_free_vars(self):
        # new subtree introduces a new free variable: ancestors' maps
        # must all pick it up.
        e = parse(r"\x. x + 1")
        hasher = IncrementalHasher(e)
        hasher.replace((0, 1), Var("brandnew"))
        assert_matches_batch(hasher)

    def test_replace_removes_binder_occurrences(self):
        e = parse(r"\x. x + x")
        hasher = IncrementalHasher(e)
        hasher.replace((0,), Lit(0))  # body no longer mentions x
        assert_matches_batch(hasher)

    def test_sequential_replaces(self):
        e = random_expr(200, seed=5, shape="balanced", p_let=0.2)
        for store in (None, ExprStore()):
            hasher = IncrementalHasher(e, store=store)
            rng = random.Random(0)
            for step in range(10):
                paths = [
                    p for p, n in preorder_with_paths(hasher.expr) if n.size <= 7
                ]
                path = rng.choice(paths)
                hasher.replace(path, Lit(step))
                assert_memo_within_tree(hasher)
                put_back(hasher, rng)
                assert_matches_batch(hasher)

    def test_equivalent_rewrite_preserves_root_hash(self):
        e = parse(r"foo (\x. x + 7) (\y. y + 7)")
        hasher = IncrementalHasher(e)
        before = hasher.root_hash
        # replace one lambda by an alpha-equivalent copy
        hasher.replace((1,), parse(r"\zz. zz + 7"))
        assert hasher.root_hash == before

    def test_invalid_path(self):
        hasher = IncrementalHasher(parse("a"))
        with pytest.raises(IndexError):
            hasher.replace((0,), Lit(1))

    @given(exprs(max_size=60), st.integers(0, 10**6))
    def test_random_rewrite_matches_batch(self, e, pick):
        hasher = IncrementalHasher(e)
        paths = list(preorder_with_paths(e))
        path, _node = paths[pick % len(paths)]
        replacement = parse("let fresh_b = 3 in fresh_b + zq")
        hasher.replace(path, replacement)
        expected = replace_at(e, path, replacement)
        batch = alpha_hash_all(expected)
        assert hasher.root_hash == batch.root_hash


class TestStatsAccounting:
    def test_partition_covers_tree(self):
        e = random_expr(500, seed=2, shape="balanced")
        hasher = IncrementalHasher(e)
        paths = [p for p, n in preorder_with_paths(e) if n.size <= 5 and p]
        stats = hasher.replace(paths[0], Lit(1))
        total = hasher.expr.size
        assert stats.path_nodes + stats.subtree_nodes + stats.unchanged_nodes == total
        assert stats.touched_nodes == stats.path_nodes + stats.subtree_nodes

    def test_locality_on_balanced_tree(self):
        e = random_expr(8192, seed=3, shape="balanced")
        hasher = IncrementalHasher(e)
        deep_paths = [
            p for p, n in preorder_with_paths(e) if n.size <= 3 and len(p) >= 5
        ]
        stats = hasher.replace(deep_paths[0], Lit(1))
        # the point of Section 6.3: touched work is tiny vs the tree
        assert stats.touched_nodes < e.size * 0.05

    def test_expr_is_fresh_tree(self):
        e = parse("f (g x)")
        hasher = IncrementalHasher(e)
        hasher.replace((1, 0), Var("h"))
        assert hasher.expr is not e
        assert e.arg.fn.name == "g"  # original untouched


class TestInteractionWithLets:
    def test_rewrite_inside_let_bound(self):
        e = parse("let w = v + 7 in w * w")
        hasher = IncrementalHasher(e)
        hasher.replace((0,), parse("v * 8"))
        assert_matches_batch(hasher)

    def test_rewrite_inside_let_body(self):
        e = parse("let w = v + 7 in w * w")
        hasher = IncrementalHasher(e)
        hasher.replace((1,), parse("w + w + w"))
        assert_matches_batch(hasher)


class TestBoundedStoreEviction:
    """Regression guards for bounded stores feeding the hasher.

    A memo- or LRU-bounded :class:`~repro.store.ExprStore` evicts
    entries at will between edits; the incremental rehash path must
    fall back to recomputing evicted hashes -- never raise, never
    drift from the from-scratch result.
    """

    def test_memo_flush_between_replaces_recomputes(self):
        from repro.gen.random_exprs import alpha_rename

        store = ExprStore(memo_limit=32)
        e = random_expr(300, seed=11, shape="balanced")
        hasher = IncrementalHasher(e, store=store)
        rng = random.Random(12)
        for index in range(12):
            paths = [p for p, _n in preorder_with_paths(hasher.expr)]
            path = rng.choice(paths)
            repl = alpha_rename(random_expr(5, rng=rng), seed=1_000 + index)
            store._memo.clear()  # wholesale memo eviction mid-stream
            hasher.replace(path, repl)
            assert_memo_within_tree(hasher)
            store._memo.clear()
            put_back(hasher, rng)
            assert_matches_batch(hasher)

    def test_lru_churn_between_replaces_stays_bit_identical(self):
        from repro.gen.random_exprs import alpha_rename

        store = ExprStore(max_entries=8, memo_limit=16)
        e = random_expr(200, seed=21, shape="balanced")
        hasher = IncrementalHasher(e, store=store)
        rng = random.Random(22)
        for index in range(10):
            # Foreign traffic cycles the tiny LRU several times over,
            # evicting any class the hasher may have leaned on.
            for extra in range(12):
                store.intern(
                    alpha_rename(
                        random_expr(6, rng=rng), seed=9_000 + index * 100 + extra
                    )
                )
            paths = [p for p, _n in preorder_with_paths(hasher.expr)]
            path = rng.choice(paths)
            repl = alpha_rename(random_expr(4, rng=rng), seed=2_000 + index)
            hasher.replace(path, repl)
            assert_memo_within_tree(hasher)
            put_back(hasher, rng)
            assert_matches_batch(hasher)
