"""ShardedExprStore: API parity with the flat store, striping invariants.

The sharded store's contract: identical *hashes and class partitions*
to a flat :class:`ExprStore` over any corpus (node ids may differ --
they encode the owning shard), per-shard counters that always sum to
the store totals, refcount-safe cross-shard LRU eviction, a shard-merge
operation, and flat-format snapshots that round-trip in both
directions.
"""

import random
import sys
import threading

import pytest

from repro.core.combiners import HashCombiners
from repro.gen.adversarial import adversarial_pair
from repro.gen.random_exprs import random_expr
from repro.lang.alpha import alpha_equivalent
from repro.lang.expr import App, Lam, Lit, Var
from repro.store import DEFAULT_NUM_SHARDS, ExprStore, ShardedExprStore


def mixed_corpus(n_items: int, seed: int = 11, size: int = 60):
    """Random + adversarial + duplicated items, the differential diet."""
    rng = random.Random(seed)
    corpus = []
    for index in range(n_items):
        roll = rng.random()
        if roll < 0.15 and corpus:
            corpus.append(rng.choice(corpus))  # duplicate object
        elif roll < 0.3:
            a, b = adversarial_pair(size, seed=rng.randrange(1 << 30))
            corpus.append(a)
            corpus.append(b)
        else:
            corpus.append(
                random_expr(
                    size,
                    rng=rng,
                    shape=rng.choice(("balanced", "unbalanced")),
                    p_let=0.3,
                    p_lit=0.1,
                )
            )
    return corpus


def partition(ids):
    """Canonical shape of an id sequence (first-occurrence indices)."""
    return [ids.index(i) for i in ids]


class TestFlatParity:
    def test_hashes_bit_identical(self):
        corpus = mixed_corpus(80)
        assert ShardedExprStore(num_shards=4).hash_corpus(
            corpus
        ) == ExprStore().hash_corpus(corpus)

    def test_class_partition_matches_flat(self):
        corpus = mixed_corpus(60)
        flat_ids = ExprStore().intern_many(corpus)
        sharded_ids = ShardedExprStore(num_shards=4).intern_many(corpus)
        assert partition(sharded_ids) == partition(flat_ids)

    def test_entry_lookups(self):
        store = ShardedExprStore(num_shards=4)
        expr = Lam("x", App(Var("x"), Lit(7)))
        node_id = store.intern(expr)
        assert node_id in store
        assert store.hash_of(node_id) == store.hash_expr(expr)
        assert store.size_of(node_id) == expr.size
        assert alpha_equivalent(store.expr_of(node_id), expr)
        assert store.lookup_hash(store.hash_of(node_id)) == node_id

    def test_alpha_equivalent_trees_share_class(self):
        store = ShardedExprStore(num_shards=4)
        assert store.intern(Lam("x", Var("x"))) == store.intern(
            Lam("y", Var("y"))
        )

    def test_entry_count_matches_flat(self):
        corpus = mixed_corpus(40)
        flat = ExprStore()
        flat.intern_many(corpus)
        sharded = ShardedExprStore(num_shards=8)
        sharded.intern_many(corpus)
        assert len(sharded) == len(flat)

    def test_ids_encode_their_shard(self):
        store = ShardedExprStore(num_shards=4)
        store.intern_many(mixed_corpus(30))
        for entry in store.entries():
            assert entry.node_id % 4 == entry.hash % 4

    def test_num_shards_validation(self):
        with pytest.raises(ValueError):
            ShardedExprStore(num_shards=0)


class TestShardStats:
    def test_hits_and_misses_conserved_across_shards(self):
        store = ShardedExprStore(num_shards=8)
        store.intern_many(mixed_corpus(120))
        per_shard = store.shard_stats()
        assert sum(s.hits for s in per_shard) == store.stats.hits
        assert sum(s.misses for s in per_shard) == store.stats.misses
        assert sum(s.evictions for s in per_shard) == store.stats.evictions
        assert store.stats.hits > 0 and store.stats.misses > 0

    def test_shard_misses_equal_shard_occupancy_when_unbounded(self):
        store = ShardedExprStore(num_shards=8)
        store.intern_many(mixed_corpus(60))
        for shard_stats, size in zip(store.shard_stats(), store.shard_sizes()):
            assert shard_stats.misses == size

    def test_occupancy_spreads_over_shards(self):
        store = ShardedExprStore(num_shards=8)
        store.intern_many(mixed_corpus(120))
        sizes = store.shard_sizes()
        assert sum(sizes) == len(store)
        # splitmix-mixed hashes spread evenly; no shard should dominate
        assert max(sizes) <= 3 * (sum(sizes) / len(sizes))


class TestEviction:
    def test_lru_bound_evicts_everything_unpinned(self):
        store = ShardedExprStore(num_shards=4, max_entries=40)
        store.intern_many(mixed_corpus(60))
        assert store.stats.evictions > 0
        unbounded = ShardedExprStore(num_shards=4)
        unbounded.intern_many(mixed_corpus(60))
        assert len(store) < len(unbounded)
        # The bound is soft exactly like the flat store's: a shard over
        # its ceil-split bound (10) may hold only entries pinned by live
        # parents (refcount > 0), plus at most the protected fresh root.
        for shard_index in range(4):
            over = [
                e
                for e in store.entries()
                if e.node_id % 4 == shard_index
            ]
            if len(over) > 10:
                unpinned = [e for e in over if e.refcount == 0]
                assert len(unpinned) <= 1

    def test_referenced_children_survive_eviction(self):
        store = ShardedExprStore(num_shards=2, max_entries=8)
        store.intern_many(mixed_corpus(40, size=30))
        for entry in store.entries():
            for kid in entry.children:
                assert kid in store  # no dangling child links

    def test_eviction_never_changes_hashes(self):
        corpus = mixed_corpus(30, size=20)
        bounded = ShardedExprStore(num_shards=2, max_entries=6)
        bounded.intern_many(corpus)
        assert bounded.hash_corpus(corpus) == ExprStore().hash_corpus(corpus)


class TestMerge:
    def test_merge_flat_store(self):
        corpus = mixed_corpus(50)
        flat = ExprStore()
        flat.intern_many(corpus)
        sharded = ShardedExprStore(num_shards=4)
        mapping = sharded.merge_store(flat)
        assert len(sharded) == len(flat)
        assert set(mapping) == {e.node_id for e in flat.entries()}
        for entry in flat.entries():
            assert sharded.hash_of(mapping[entry.node_id]) == entry.hash

    def test_merge_sharded_store(self):
        left = ShardedExprStore(num_shards=4)
        right = ShardedExprStore(num_shards=2)
        corpus = mixed_corpus(40)
        left.intern_many(corpus[: len(corpus) // 2])
        right.intern_many(corpus[len(corpus) // 2 :])
        left.merge_store(right)
        expected = ExprStore()
        expected.intern_many(corpus)
        assert len(left) == len(expected)

    def test_merge_is_idempotent(self):
        flat = ExprStore()
        flat.intern_many(mixed_corpus(30))
        sharded = ShardedExprStore(num_shards=4)
        sharded.merge_store(flat)
        before = len(sharded)
        sharded.merge_store(flat)
        assert len(sharded) == before

    def test_merge_rejects_mismatched_combiners(self):
        other = ExprStore(HashCombiners(bits=32))
        with pytest.raises(ValueError):
            ShardedExprStore(num_shards=2).merge_store(other)


class TestSnapshots:
    def test_save_load_round_trip(self, tmp_path):
        corpus = mixed_corpus(40)
        store = ShardedExprStore(num_shards=4)
        hashes = store.hash_corpus(corpus)
        store.intern_many(corpus)
        path = str(tmp_path / "sharded.snap")
        store.save(path)
        restored = ShardedExprStore.load(path)
        assert restored.num_shards == 4
        assert len(restored) == len(store)
        assert restored.hash_corpus(corpus) == hashes
        for value in hashes:
            assert restored.lookup_hash(value) is not None

    def test_load_into_different_shard_count(self, tmp_path):
        store = ShardedExprStore(num_shards=4)
        corpus = mixed_corpus(30)
        store.intern_many(corpus)
        path = str(tmp_path / "sharded.snap")
        store.save(path)
        restored = ShardedExprStore.load(path, num_shards=2)
        assert restored.num_shards == 2
        assert len(restored) == len(store)

    def test_flat_store_can_read_sharded_snapshot(self, tmp_path):
        store = ShardedExprStore(num_shards=4)
        corpus = mixed_corpus(30)
        hashes = store.hash_corpus(corpus)
        store.intern_many(corpus)
        path = str(tmp_path / "sharded.snap")
        store.save(path)
        flat = ExprStore.load(path)
        assert flat.hash_corpus(corpus) == hashes
        assert len(flat) == len(store)

    @staticmethod
    def bounded_over_its_share():
        """A bounded store holding more classes than ``max_entries``:
        each of its 4 shards keeps ceil(50 / 4) = 13."""
        store = ShardedExprStore(num_shards=4, max_entries=50)
        rng = random.Random(5)
        for _ in range(30):
            store.intern(random_expr(12, rng=rng))
        assert len(store) == 52
        return store

    def test_flattening_a_bounded_store_keeps_every_class(self):
        store = self.bounded_over_its_share()
        hashes = [entry.hash for entry in store.entries()]
        flat = store.to_flat_store()
        assert len(flat) == 52
        assert flat.max_entries == 50
        assert all(flat.lookup_hash(value) is not None for value in hashes)
        flat.intern(random_expr(12, seed=1))  # the bound applies from here
        assert len(flat) <= 50

    def test_resharding_a_bounded_snapshot_keeps_every_class(self, tmp_path):
        store = self.bounded_over_its_share()
        hashes = [entry.hash for entry in store.entries()]
        path = str(tmp_path / "bounded.snap")
        store.save(path)
        for num_shards in (2, 4):
            restored = ShardedExprStore.load(path, num_shards=num_shards)
            assert restored.num_shards == num_shards
            assert restored.max_entries == 50
            assert len(restored) == 52
            assert all(restored.lookup_hash(value) is not None for value in hashes)
            per_shard = restored.shard_stats()
            assert sum(s.misses for s in per_shard) == restored.stats.misses

    def test_loaded_stats_are_consistent(self, tmp_path):
        store = ShardedExprStore(num_shards=4)
        store.intern_many(mixed_corpus(30))
        path = str(tmp_path / "sharded.snap")
        store.save(path)
        restored = ShardedExprStore.load(path)
        per_shard = restored.shard_stats()
        assert sum(s.misses for s in per_shard) == restored.stats.misses
        assert restored.stats.misses == len(restored)


class TestNativeSnapshotV2:
    """The ISSUE 5 satellite: the v2 sharded layout preserves node ids,
    per-shard recency/counters, and parallel-snapshots shards."""

    def build(self, num_shards=4, n_items=60):
        corpus = mixed_corpus(n_items)
        store = ShardedExprStore(num_shards=num_shards)
        hashes = store.hash_corpus(corpus)
        ids = store.intern_many(corpus)
        return corpus, store, hashes, ids

    def test_v2_format_tag_and_id_preservation(self, tmp_path):
        from repro.store import SHARDED_SNAPSHOT_FORMAT, read_snapshot

        corpus, store, hashes, ids = self.build()
        path = str(tmp_path / "native.snap")
        store.save(path)
        restored, header = read_snapshot(path)
        assert header["format"] == SHARDED_SNAPSHOT_FORMAT
        assert isinstance(restored, ShardedExprStore)
        # Node ids survive the round-trip (v1 re-assigned them).
        assert restored.intern_many(corpus) == ids
        assert restored.hash_corpus(corpus) == hashes
        assert {e.node_id for e in restored.entries()} == {
            e.node_id for e in store.entries()
        }

    def test_bytes_round_trip_without_files(self):
        from repro.store import snapshot_from_bytes, snapshot_to_bytes

        corpus, store, hashes, ids = self.build()
        restored, _header = snapshot_from_bytes(snapshot_to_bytes(store))
        assert restored.intern_many(corpus) == ids
        assert restored.hash_corpus(corpus) == hashes

    def test_per_shard_stats_and_sizes_survive(self, tmp_path):
        corpus, store, _hashes, _ids = self.build()
        path = str(tmp_path / "native.snap")
        store.save(path)
        restored = ShardedExprStore.load(path)
        assert restored.shard_sizes() == store.shard_sizes()
        assert [s.as_dict() for s in restored.shard_stats()] == [
            s.as_dict() for s in store.shard_stats()
        ]
        assert restored.stats.as_dict() == store.stats.as_dict()

    def test_restored_canonicals_hash_as_memo_hits(self, tmp_path):
        corpus, store, _hashes, _ids = self.build()
        path = str(tmp_path / "native.snap")
        store.save(path)
        restored = ShardedExprStore.load(path)
        hits_before = restored.stats.memo_hits
        for entry in restored.entries():
            restored.hash_expr(entry.expr)
        assert restored.stats.hashed_nodes == store.stats.hashed_nodes
        assert restored.stats.memo_hits > hits_before

    def test_save_does_not_disturb_the_store(self):
        from repro.store import snapshot_to_bytes

        corpus, store, _hashes, _ids = self.build()
        stats_before = store.stats.as_dict()
        memo_before = len(store._memo)
        snapshot_to_bytes(store)
        assert store.stats.as_dict() == stats_before
        assert len(store._memo) == memo_before

    def test_tampered_v2_body_fails_loudly(self, tmp_path):
        from repro.store import SnapshotError, snapshot_from_bytes, snapshot_to_bytes

        _corpus, store, _hashes, _ids = self.build()
        data = bytearray(snapshot_to_bytes(store))
        data[-2] ^= 0xFF
        with pytest.raises(SnapshotError, match="checksum"):
            snapshot_from_bytes(bytes(data))

    def test_truncated_section_fails_loudly(self):
        from repro.store import SnapshotError, snapshot_from_bytes, snapshot_to_bytes

        _corpus, store, _hashes, _ids = self.build()
        data = snapshot_to_bytes(store)
        header, _newline, body = data.partition(b"\n")
        # Recompute the checksum over a truncated body so only the
        # shard-section accounting can catch the damage.
        import hashlib
        import json

        truncated = body[: len(body) // 2]
        doc = json.loads(header)
        doc["checksum"] = (
            "sha256:" + hashlib.sha256(truncated).hexdigest()
        )
        forged = (
            json.dumps(doc, separators=(",", ":"), sort_keys=True).encode()
            + b"\n"
            + truncated
        )
        with pytest.raises(SnapshotError):
            snapshot_from_bytes(forged)

    def test_deep_entries_snapshot_iteratively(self, tmp_path):
        # Depth-2000 canonical chains: the encoder must stay iterative.
        from repro.lang.expr import App, Var

        deep = Var("x")
        for _ in range(2000):
            deep = App(Var("f"), deep)
        store = ShardedExprStore(num_shards=2)
        node_id = store.intern(deep)
        path = str(tmp_path / "deep.snap")
        store.save(path)
        restored = ShardedExprStore.load(path)
        assert restored.intern(deep) == node_id


class TestConcurrentIntern:
    def test_threaded_writers_build_one_consistent_table(self):
        """N threads interning overlapping slices concurrently must end
        at exactly the flat store's class partition, with conserved
        counters -- the lock-striping correctness claim."""
        corpus = mixed_corpus(120)
        store = ShardedExprStore(num_shards=8)
        errors = []

        def work(slice_):
            try:
                store.intern_many(slice_)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        third = len(corpus) // 3
        slices = [
            corpus[:third],
            corpus[third : 2 * third],
            corpus[2 * third :],
            corpus[::2],  # overlaps both halves
        ]
        threads = [threading.Thread(target=work, args=(s,)) for s in slices]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        flat = ExprStore()
        flat.intern_many(corpus)
        assert len(store) == len(flat)
        per_shard = store.shard_stats()
        assert sum(s.hits for s in per_shard) == store.stats.hits
        assert sum(s.misses for s in per_shard) == store.stats.misses

    def test_threaded_arena_interns_with_root_hits(self):
        """Threads hashing then bulk-interning overlapping slices on the
        arena engine, so later slices answer repeated objects as root
        hits, end at the flat store's classes with conserved counters."""
        corpus = mixed_corpus(120)
        store = ShardedExprStore(num_shards=8)
        errors, results = [], []

        def work(slice_):
            try:
                store.hash_corpus(slice_, engine="arena")
                results.append((slice_, store.intern_many(slice_, engine="arena")))
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        slices = [corpus[:60], corpus[40:], corpus[::2], corpus[::3], corpus]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(s,)) for s in slices]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors and len(results) == len(slices)
        flat = ExprStore()
        for slice_, ids in results:
            assert [store.hash_of(i) for i in ids] == flat.hash_corpus(slice_)
        flat.intern_many(corpus)
        assert len(store) == len(flat)
        per_shard = store.shard_stats()
        assert sum(s.hits for s in per_shard) == store.stats.hits
        assert sum(s.misses for s in per_shard) == store.stats.misses

    def test_default_shard_count(self):
        assert ShardedExprStore().num_shards == DEFAULT_NUM_SHARDS
