"""Unit tests for the hash-consed expression store."""

import pytest

from repro.apps.cse import cse
from repro.apps.sharing import share_alpha
from repro.cli import main as cli_main
from repro.core.combiners import HashCombiners
from repro.core.hashed import alpha_hash_all, alpha_hash_root
from repro.core.incremental import IncrementalHasher, ReplaceStats
from repro.gen.random_exprs import alpha_rename, random_balanced, random_expr
from repro.lang.alpha import alpha_equivalent
from repro.lang.expr import App, Lam, Lit, Var, syntactic_eq
from repro.lang.names import uniquify_binders
from repro.lang.parser import parse
from repro.lang.pretty import pretty
from repro.store import ExprStore, StoreCollisionError, StoreStats


def p(text: str):
    return uniquify_binders(parse(text))


class TestIntern:
    def test_alpha_variants_same_id(self):
        store = ExprStore()
        a = store.intern(p(r"\x. x + 7"))
        b = store.intern(p(r"\y. y + 7"))
        assert a == b
        assert len(store) > 0
        assert store.stats.hits >= 1

    def test_distinct_classes_distinct_ids(self):
        store = ExprStore()
        a = store.intern(p(r"\x. x + 7"))
        b = store.intern(p(r"\x. x + 8"))
        assert a != b

    def test_subexpressions_interned_along_the_way(self):
        store = ExprStore()
        store.intern(p("f (v + 7)"))
        inner = store.intern(p("v + 7"))
        assert store.size_of(inner) == parse("v + 7").size

    def test_intern_same_object_is_an_identity_hit(self):
        store = ExprStore()
        e = p("f x y")
        a = store.intern(e)
        hits_before = store.stats.hits
        assert store.intern(e) == a
        assert store.stats.hits == hits_before + 1

    def test_intern_many_collapses_duplicates(self):
        store = ExprStore()
        e = p(r"\x. x + 1")
        ids = store.intern_many([e, p(r"\y. y + 1"), p(r"\z. z + 2")])
        assert ids[0] == ids[1] != ids[2]

    def test_canonical_expr_is_alpha_equivalent(self):
        store = ExprStore()
        e = p(r"pair (\x. x + 7) (\y. y + 7)")
        root = store.expr_of(store.intern(e))
        assert alpha_equivalent(root, e)

    def test_canonical_expr_is_a_shared_dag(self):
        store = ExprStore()
        e = p(r"pair (\x. x + 7) (\y. y + 7)")
        root = store.expr_of(store.intern(e))
        assert root.fn.arg is root.arg

    def test_entry_metadata(self):
        store = ExprStore()
        e = p(r"\x. x + 7")
        entry = store.entry(store.intern(e))
        assert entry.kind == "Lam"
        assert entry.size == e.size
        assert len(entry.children) == 1
        assert store.entry(entry.children[0]).kind == "App"

    def test_lookup_hash(self):
        store = ExprStore()
        e = p("v + 7")
        node_id = store.intern(e)
        assert store.lookup_hash(alpha_hash_root(e)) == node_id
        assert store.lookup_hash(12345) is None
        assert store.hash_of(node_id) == alpha_hash_root(e)

    def test_interning_canonical_expr_is_free(self):
        store = ExprStore()
        node_id = store.intern(p(r"\x. x + 7"))
        canonical = store.expr_of(node_id)
        hashed_before = store.stats.hashed_nodes
        assert store.intern(canonical) == node_id
        assert store.stats.hashed_nodes == hashed_before


class TestHashing:
    def test_hash_expr_matches_fresh(self):
        store = ExprStore()
        e = p(r"let a = v + 1 in (\x. x + a) a")
        assert store.hash_expr(e) == alpha_hash_root(e)

    def test_hash_corpus_matches_fresh(self):
        store = ExprStore()
        corpus = [random_expr(80, seed=s, p_let=0.3, p_lit=0.1) for s in range(6)]
        corpus += corpus[:3]  # literal repeats
        assert store.hash_corpus(corpus) == [
            alpha_hash_root(e) for e in corpus
        ]
        assert store.stats.hit_rate > 0

    def test_hashes_view_matches_fresh_per_node(self):
        store = ExprStore()
        e = random_expr(120, seed=11, p_let=0.3)
        view = store.hashes(e)
        fresh = alpha_hash_all(e)
        for _, node, value in fresh.items():
            assert view.hash_of(node) == value

    def test_memoization_skips_shared_subtrees(self):
        store = ExprStore()
        sub = random_balanced(100, seed=3)
        store.hash_expr(sub)
        hashed_before = store.stats.hashed_nodes
        store.hash_expr(App(sub, Lit(1)))
        # only the new App and Lit were summarised
        assert store.stats.hashed_nodes == hashed_before + 2
        assert store.stats.memo_skipped_nodes >= sub.size

    def test_custom_combiners(self):
        combiners = HashCombiners(bits=32, seed=99)
        store = ExprStore(combiners)
        e = p(r"\x. f x")
        assert store.hash_expr(e) == alpha_hash_root(e, combiners)

    def test_memo_limit_flush_keeps_answers_correct(self):
        store = ExprStore(memo_limit=10)
        exprs = [random_expr(60, seed=s) for s in range(4)]
        for e in exprs:
            assert store.hash_expr(e) == alpha_hash_root(e)
            assert store.intern(e) in store

    def test_clear_memo(self):
        store = ExprStore()
        e = p("f x")
        store.hash_expr(e)
        assert store.cached_top(e) is not None
        store.clear_memo()
        assert store.cached_top(e) is None
        assert store.hash_expr(e) == alpha_hash_root(e)

    def test_prune_memo_keeps_reachable_drops_rest(self):
        store = ExprStore()
        a = p("f x")
        b = p("g y")
        store.hash_expr(a)
        store.hash_expr(b)
        dropped = store.prune_memo([a])
        assert dropped == b.size
        assert store.cached_top(a) is not None
        assert store.cached_top(b) is None
        assert store.hash_expr(b) == alpha_hash_root(b)

    def test_hashes_view_correct_after_memo_flush_between_interns(self):
        # regression: canonical-record seeding must not claim subtree
        # coverage the memo no longer has (previously a raw KeyError)
        store = ExprStore()
        store.intern(p("v + 1"))
        store.intern(p("w + 2"))
        store.clear_memo()
        new_id = store.intern(p("(v + 1) * (w + 2)"))
        canonical = store.expr_of(new_id)
        view = store.hashes(canonical)
        fresh = alpha_hash_all(canonical)
        for _, node, value in fresh.items():
            assert view.hash_of(node) == value
        assert store.intern(canonical) == new_id


class TestLRU:
    def test_bounded_table(self):
        # capacity must exceed one tree's DAG closure (live roots pin
        # their children); beyond that the LRU bound holds
        store = ExprStore(max_entries=40)
        for s in range(12):
            store.intern(random_expr(30, seed=s))
        assert len(store) <= 40 + 1  # fresh root may be protected
        assert store.stats.evictions > 0

    def test_single_tree_larger_than_capacity_stays_whole(self):
        # pinning wins over the bound: the last interned tree's DAG
        # survives intact even when it alone exceeds max_entries
        store = ExprStore(max_entries=4)
        e = random_expr(30, seed=0)
        node_id = store.intern(e)
        assert node_id in store
        for entry in store.entries():
            for kid in entry.children:
                assert kid in store

    def test_children_of_live_entries_are_pinned(self):
        store = ExprStore(max_entries=6)
        for s in range(8):
            store.intern(random_expr(25, seed=s))
        for entry in store.entries():
            for kid in entry.children:
                assert kid in store

    def test_refcounts_consistent(self):
        store = ExprStore(max_entries=6)
        for s in range(8):
            store.intern(random_expr(25, seed=s))
        counts = {entry.node_id: 0 for entry in store.entries()}
        for entry in store.entries():
            for kid in entry.children:
                counts[kid] += 1
        for entry in store.entries():
            assert entry.refcount == counts[entry.node_id]

    def test_reinterning_after_eviction(self):
        store = ExprStore(max_entries=4)
        e = p(r"\x. x + 7")
        store.intern(e)
        for s in range(8):
            store.intern(random_expr(20, seed=s))
        # whether or not e survived, interning again must work and agree
        # with the hash key
        node_id = store.intern(e)
        assert store.lookup_hash(alpha_hash_root(e)) == node_id

    def test_touch_on_hit_protects_hot_entries(self):
        store = ExprStore(max_entries=4)
        hot = p("1 + 2")
        store.intern(hot)
        for s in range(12):
            store.intern(random_expr(8, seed=s, p_lit=0.5))
            store.intern(hot)  # keep it recent
        assert store.lookup_hash(alpha_hash_root(hot)) is not None

    def test_max_entries_validation(self):
        with pytest.raises(ValueError):
            ExprStore(max_entries=0)


class TestCollisionGuard:
    def test_collision_detected_or_absorbed_at_tiny_width(self):
        # At 8 bits collisions are certain over a few hundred interns.
        # Cross-kind/size collisions must raise StoreCollisionError
        # (never silently conflate); same-shape collisions are beyond
        # the cheap guard and simply conflate, as documented.
        store = ExprStore(HashCombiners(bits=8, seed=1))
        saw_collision_error = False
        try:
            for s in range(120):
                store.intern(random_expr(1 + s % 17, seed=1000 + s, p_lit=0.3))
        except StoreCollisionError:
            saw_collision_error = True
        assert saw_collision_error or store.stats.hits > 0

    @staticmethod
    def colliding_var(combiners, target):
        """A free variable whose alpha-hash is ``target``, by search."""
        for n in range(1 << 16):
            var = Var(f"v{n}")
            if alpha_hash_all(var, combiners).root_hash == target:
                return var
        raise AssertionError(f"no variable hashes to 0x{target:x}")

    @pytest.mark.parametrize("make", [ExprStore], ids=["flat"])
    @pytest.mark.parametrize("path", ["intern", "intern_many", "intern_arena"])
    def test_collision_raises_on_every_intern_path(self, make, path):
        """At 8 bits a Var can share the alpha-hash of ``\\x. x``: every
        intern path reaches the one guard and raises the same text."""
        from repro.core.arena import ExprArena
        from repro.lang.sexpr import to_wire

        combiners = HashCombiners(bits=8, seed=1)
        store = make(combiners)
        top = store.hash_of(store.intern(parse(r"\x. x")))
        var = self.colliding_var(combiners, top)
        with pytest.raises(StoreCollisionError) as raised:
            if path == "intern":
                store.intern(var)
            elif path == "intern_many":
                store.intern_many([var], engine="arena")
            else:
                arena = ExprArena()
                store.intern_arena(arena, arena.extend_wire([to_wire(var)]))
        assert str(raised.value) == (
            f"alpha-hash 0x{top:x} maps both a Lam of size 2 and a Var of size 1"
        )


class TestMerge:
    """``merge_store`` folds another store's classes into this one (the
    snapshot-upload endpoint and the coordinator's stats merge use it)."""

    @staticmethod
    def source():
        items = [random_expr(40, seed=s, p_let=0.3, p_lit=0.1) for s in range(40)]
        items += [alpha_rename(item, seed=s) for s, item in enumerate(items[:10])]
        store = ExprStore()
        store.intern_many(items)
        return store

    def test_mapping_preserves_hashes(self):
        other = self.source()
        store = ExprStore()
        store.intern(random_expr(40, seed=7, p_let=0.3, p_lit=0.1))
        mapping = store.merge_store(other)
        assert set(mapping) == {entry.node_id for entry in other.entries()}
        for entry in other.entries():
            assert store.hash_of(mapping[entry.node_id]) == entry.hash
        assert len(store) == len(other)

    def test_second_merge_changes_nothing(self):
        other, store = self.source(), ExprStore()
        mapping = store.merge_store(other)
        before = len(store), store.version
        assert store.merge_store(other) == mapping
        assert (len(store), store.version) == before

    def test_mismatched_combiners_refused(self):
        with pytest.raises(ValueError, match="disagree"):
            ExprStore().merge_store(ExprStore(HashCombiners(bits=32)))


class TestStatsShape:
    def test_store_stats_dict_shape(self):
        store = ExprStore()
        store.intern(p("f (v + 1) (v + 1)"))
        d = store.stats.as_dict()
        for key in (
            "hits",
            "misses",
            "memo_hits",
            "hashed_nodes",
            "memo_skipped_nodes",
            "evictions",
            "hit_rate",
            "intern_hit_rate",
            "touched_nodes",
        ):
            assert key in d

    def test_replace_stats_dict_shape(self):
        stats = ReplaceStats(
            path_nodes=2, path_map_entries=5, subtree_nodes=3, unchanged_nodes=7
        )
        d = stats.as_dict()
        assert d["touched_nodes"] == 5
        assert d["store_memo_nodes"] == 0

    def test_common_touched_nodes_key(self):
        # the satellite contract: both stats kinds report touched-node
        # counts under the same key, so harnesses can assert uniformly
        store = ExprStore()
        e = p("f (v + 1)")
        store.intern(e)
        replace = ReplaceStats(1, 2, 3, 4).as_dict()
        assert {"touched_nodes"} <= set(store.stats.as_dict()) & set(replace)

    def test_fresh_store_rates_never_divide_by_zero(self):
        # regression: on a store that has done no work at all, both
        # rate properties (and the dict/repr that evaluate them) must
        # return 0.0 rather than raising ZeroDivisionError
        stats = ExprStore().stats
        assert stats.hit_rate == 0.0
        assert stats.intern_hit_rate == 0.0
        d = stats.as_dict()
        assert d["hit_rate"] == 0.0 and d["intern_hit_rate"] == 0.0
        assert "hit_rate=0.0" in repr(stats)

    def test_fresh_session_stats_never_divide_by_zero(self):
        from repro.api import Session

        stats = Session().stats()
        assert stats["store"]["hit_rate"] == 0.0
        assert stats["store"]["intern_hit_rate"] == 0.0

    def test_repr_matches_dict(self):
        stats = StoreStats(hits=3, misses=1)
        text = repr(stats)
        assert text.startswith("StoreStats(")
        assert "hits=3" in text and "misses=1" in text
        inc = ReplaceStats(1, 2, 3, 4)
        assert repr(inc).startswith("ReplaceStats(")
        assert "touched_nodes=" in repr(inc)


class TestConsumers:
    def test_share_alpha_with_shared_store(self):
        store = ExprStore()
        r1 = share_alpha(p(r"\x. x + 7"), store=store)
        r2 = share_alpha(p(r"\y. y + 7"), store=store)
        # both calls resolve to the same canonical object
        assert r1.root is r2.root

    def test_cse_with_explicit_store_matches_default(self):
        e = p("(a + (v + 7)) * (v + 7)")
        store = ExprStore()
        with_store = cse(e, store=store)
        default = cse(e)
        assert pretty(with_store.expr) == pretty(default.expr)
        assert store.stats.hashed_nodes > 0

    def test_cse_store_combiners_mismatch_rejected(self):
        store = ExprStore(HashCombiners(bits=32, seed=5))
        with pytest.raises(ValueError):
            cse(p("v + 1"), combiners=HashCombiners(), store=store)

    def test_cse_rounds_reuse_the_memo(self):
        e = p("(f (a + (v + 7)) (v + 7)) * (g (a + (v + 7)) (b + (w + 9)) (b + (w + 9)))")
        store = ExprStore()
        result = cse(e, store=store)
        assert len(result.rounds) >= 2
        # later rounds must hit the memo for off-spine subtrees
        assert store.stats.memo_skipped_nodes > 0

    def test_incremental_with_store_cold_and_warm(self):
        e = uniquify_binders(random_expr(200, seed=5, p_let=0.3))
        store = ExprStore()
        store.hashes(e)
        inc = IncrementalHasher(e, store=store)
        assert inc.root_hash == alpha_hash_root(e)
        replacement = p("qq + 1")
        store.hash_expr(replacement)
        stats = inc.replace((0,), replacement)
        assert stats.store_memo_nodes == replacement.size
        fresh = alpha_hash_all(inc.expr)
        for node, value in inc.iter_hashes():
            assert value == fresh.hash_of(node)

    def test_incremental_store_combiners_mismatch_rejected(self):
        store = ExprStore(HashCombiners(bits=32, seed=5))
        with pytest.raises(ValueError):
            IncrementalHasher(p("f x"), combiners=HashCombiners(), store=store)

    def test_incremental_navigation_into_collapsed_subtree(self):
        e = uniquify_binders(random_expr(150, seed=9, p_let=0.2))
        store = ExprStore()
        store.hashes(e)  # warm: construction adopts the root's record
        inc = IncrementalHasher(e, store=store)
        fresh = alpha_hash_all(e)
        deep = (0, 1) if len(e.children()) > 1 else (0,)
        node = e
        for index in deep:
            node = node.children()[index]
        assert inc.hash_at(deep) == fresh.hash_of(node)
        inc.replace(deep, Lit(42))
        assert inc.root_hash == alpha_hash_root(inc.expr)

    def test_incremental_iter_hashes_after_memo_flush(self):
        e = uniquify_binders(random_expr(80, seed=13))
        store = ExprStore()
        store.hashes(e)
        inc = IncrementalHasher(e, store=store)
        store.clear_memo()  # records never adopted are summarised once
        fresh = alpha_hash_all(e)
        for node, value in inc.iter_hashes():
            assert value == fresh.hash_of(node)


class TestCli:
    @pytest.fixture()
    def corpus_files(self, tmp_path):
        a = tmp_path / "a.lam"
        a.write_text("(a + (v + 7)) * (v + 7)\n")
        b = tmp_path / "b.lam"
        b.write_text(r"pair (\x. x + 7) (\y. y + 7)" + "\n")
        return [str(a), str(b)]

    def test_store_command(self, capsys, corpus_files):
        assert cli_main(["store", *corpus_files]) == 0
        out = capsys.readouterr().out
        assert "canonical entries" in out
        assert "hit-rate" in out

    def test_store_command_json(self, capsys, corpus_files):
        import json

        assert cli_main(["store", "--json", *corpus_files]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["files"] == 2
        assert report["entries"] > 0
        assert report["hits"] + report["misses"] > 0

    def test_store_command_bounded(self, capsys, corpus_files):
        assert cli_main(["store", "--max-entries", "4", *corpus_files]) == 0
        assert "eviction" in capsys.readouterr().out

    def test_help_mentions_store(self, capsys):
        cli_main([])
        assert "store" in capsys.readouterr().out


class TestSharingParity:
    def test_share_alpha_still_beats_syntactic(self):
        from repro.apps.sharing import share_syntactic

        e = p(r"pair (\x. x + 7) (\y. y + 7)")
        assert share_alpha(e).unique_nodes < share_syntactic(e).unique_nodes

    def test_share_alpha_result_syntactic_shape(self):
        e = p("g (v + 1) (v + 1)")
        result = share_alpha(e)
        assert syntactic_eq(result.root, e)
        assert result.sharing_ratio > 1.0
