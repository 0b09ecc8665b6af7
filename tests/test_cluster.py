"""Tests for the distributed hash cluster (ISSUE 7).

An in-process coordinator fronting two shard-identity ``ReproServer``
nodes on localhost: hashing fans out bit-identically, interning routes
by alpha-hash ownership, folded stats are conserved sums, the merged
snapshot union equals a flat store, a dead shard degrades to a bounded
503 that names it, and replicas catch up over ``/v1/snapshot/delta``.
"""

import random
import time

import pytest

from repro.api import InternRequest, RemoteSession, Session
from repro.cluster import ClusterCoordinator, ClusterTopology, TopologyError
from repro.core.hashed import alpha_hash_all
from repro.gen.random_exprs import random_expr
from repro.lang.sexpr import to_wire
from repro.service import ReproServer, ServiceClient, ServiceError
from repro.store import snapshot_from_bytes
from test_service import json_body


def mixed_corpus(n_items, seed=13, size=40):
    rng = random.Random(seed)
    corpus = []
    for _ in range(n_items):
        if corpus and rng.random() < 0.2:
            corpus.append(rng.choice(corpus))
        else:
            corpus.append(random_expr(size, rng=rng, p_let=0.2, p_lit=0.2))
    return corpus


@pytest.fixture(scope="module")
def corpus():
    return mixed_corpus(100)


@pytest.fixture(scope="module")
def expected(corpus):
    return [alpha_hash_all(e).root_hash for e in corpus]


def start_cluster(shard_count=2, **coordinator_kwargs):
    nodes = [
        ReproServer(port=0, shard_id=i, shard_count=shard_count).start()
        for i in range(shard_count)
    ]
    coordinator_kwargs.setdefault("retries", 1)
    coordinator_kwargs.setdefault("backoff", 0.05)
    coordinator_kwargs.setdefault("timeout", 30.0)
    coordinator = ClusterCoordinator(
        [node.url for node in nodes], port=0, **coordinator_kwargs
    ).start()
    return coordinator, nodes


@pytest.fixture(scope="module")
def cluster(corpus):
    coordinator, nodes = start_cluster()
    # Interned once up front: every routing/conservation test below
    # observes the same warm cluster.
    reply = ServiceClient(coordinator.url).intern_wire(
        [to_wire(e) for e in corpus]
    )
    yield coordinator, nodes, reply
    coordinator.close()
    for node in nodes:
        node.close()


class TestTopology:
    def test_ownership_is_hash_mod_count(self):
        topo = ClusterTopology(["http://a:1", "http://b:2", "http://c:3"])
        assert topo.num_shards == 3
        for digest in (0, 1, 2, 3, 12345, 2**63):
            assert topo.owner_of(digest) == digest % 3
            assert topo.url_of(topo.owner_of(digest))

    def test_rejects_empty_and_duplicates(self):
        with pytest.raises(TopologyError, match="at least one"):
            ClusterTopology([])
        with pytest.raises(TopologyError, match="duplicate"):
            ClusterTopology(["http://a:1", "http://a:1/"])
        with pytest.raises(TopologyError, match="http"):
            ClusterTopology(["ftp://a:1"])


class TestShardIdentity:
    def test_identity_validation(self):
        with pytest.raises(ValueError, match="go together"):
            ReproServer(port=0, shard_id=0)
        with pytest.raises(ValueError, match="shard_id must be in"):
            ReproServer(port=0, shard_id=2, shard_count=2)

    def test_node_rejects_foreign_keys(self, cluster, corpus, expected):
        _coordinator, nodes, _reply = cluster
        foreign = [
            e for e, h in zip(corpus, expected) if h % len(nodes) == 1
        ][:3]
        client = ServiceClient(nodes[0].url, retries=0)
        with pytest.raises(ServiceError) as excinfo:
            client.intern_many(foreign)
        assert excinfo.value.status == 409
        assert "shard 0/2 does not own" in str(excinfo.value)

    @pytest.mark.parametrize(
        "n_items, engine", [(20, "tree"), (250, "arena")]
    )
    def test_foreign_key_refused_before_anything_is_interned(
        self, n_items, engine
    ):
        corpus = mixed_corpus(n_items, seed=41)
        hashes = [alpha_hash_all(e).root_hash for e in corpus]
        owned = [e for e, h in zip(corpus, hashes) if h % 2 == 0]
        foreign = next(e for e, h in zip(corpus, hashes) if h % 2 == 1)
        batch = owned + [foreign]
        assert Session().plan(InternRequest(batch, engine=engine)).engine == engine
        with ReproServer(port=0, shard_id=0, shard_count=2) as node:
            client = ServiceClient(node.url, retries=0)
            with pytest.raises(ServiceError) as excinfo:
                client.intern_many(batch, engine=engine)
            assert excinfo.value.status == 409
            assert (
                f"does not own 1 of {len(batch)} items: item {len(owned)} "
                in str(excinfo.value)
            )
            store = node.session.store
            assert len(store) == 0 and store.version == 0
            assert client.intern_many(owned, engine=engine) == Session().execute(
                InternRequest(owned, engine=engine)
            )

    def test_health_carries_shard_identity(self, cluster):
        _coordinator, nodes, _reply = cluster
        health = ServiceClient(nodes[1].url).health()
        assert health["shard_id"] == 1
        assert health["shard_count"] == 2
        assert health["version"] > 0


class TestClusterRouting:
    def test_hash_fanout_bit_identical(self, cluster, corpus, expected):
        coordinator, _nodes, _reply = cluster
        client = ServiceClient(coordinator.url)
        assert client.hash_corpus(corpus) == expected

    def test_old_client_fanout_keys_are_ignored(self, cluster, corpus, expected):
        """A body still carrying ``workers`` / ``mode`` answers 200,
        bit-identical; ``bits`` / ``seed`` pins reach the shards."""
        coordinator, _nodes, _reply = cluster
        client = ServiceClient(coordinator.url, retries=0)
        payload = json_body(corpus, {"workers": 4, "mode": "spawn"})
        reply = client._json("POST", "/v1/hash", payload)
        assert reply["hashes"] == expected
        assert not {"workers", "mode", "executor"} & set(reply["plan"])
        with pytest.raises(ServiceError) as excinfo:
            client._json("POST", "/v1/hash", json_body(corpus, {"bits": 32}))
        assert excinfo.value.status == 400

    def test_intern_reply_shape(self, cluster, corpus, expected):
        _coordinator, _nodes, reply = cluster
        assert reply["hashes"] == expected
        assert len(reply["ids"]) == len(corpus)
        assert all(isinstance(i, int) for i in reply["ids"])
        assert reply["owners"] == [h % 2 for h in expected]

    def test_routing_invariant_owner_holds_every_root(
        self, cluster, expected
    ):
        _coordinator, nodes, _reply = cluster
        shard_hashes = []
        for node in nodes:
            store, _header = snapshot_from_bytes(
                ServiceClient(node.url).fetch_snapshot()
            )
            shard_hashes.append({e.hash for e in store.entries()})
        for digest in expected:
            assert digest in shard_hashes[digest % len(nodes)]

    def test_folded_stats_are_conserved_sums(self, cluster):
        coordinator, _nodes, _reply = cluster
        stats = ServiceClient(coordinator.url).stats()
        assert stats["shard_count"] == 2
        assert stats["entries"] == sum(
            s["entries"] for s in stats["shards"]
        )
        for key, total in stats["store"].items():
            assert total == sum(
                s["store"].get(key, 0) for s in stats["shards"]
            ), key

    def test_merged_union_equals_flat_store(self, cluster, corpus):
        coordinator, _nodes, _reply = cluster
        merged, header = snapshot_from_bytes(
            ServiceClient(coordinator.url).fetch_snapshot()
        )
        with Session() as flat:
            for expr in corpus:
                flat.intern(expr)
            flat_hashes = {e.hash for e in flat.store.entries()}
        assert {e.hash for e in merged.entries()} == flat_hashes
        assert len(merged) == len(flat_hashes)
        assert header["meta"]["cluster"]["shard_count"] == 2

    def test_coordinator_metrics_fold(self, cluster):
        coordinator, _nodes, _reply = cluster
        metrics = ServiceClient(coordinator.url).metrics()
        assert metrics["ok"] is True
        assert metrics["shard_count"] == 2
        assert len(metrics["shards"]) == 2
        for shard in metrics["shards"]:
            assert shard["ok"] is True
            assert shard["metrics"]["store"]["entries"] > 0

    def test_remote_session_facade(self, cluster, corpus, expected):
        coordinator, _nodes, _reply = cluster
        with RemoteSession(coordinator.url, retries=1) as remote:
            assert remote.ping() is True
            assert remote.hash_corpus(corpus[:10]) == expected[:10]
            assert remote.hash(corpus[0]) == expected[0]
            stats = remote.stats()
            assert stats["shard_count"] == 2
            pulled = remote.pull()
            try:
                assert pulled.hash_corpus(corpus[:10]) == expected[:10]
            finally:
                pulled.close()


class TestDegradation:
    def test_dead_shard_hash_reroutes_and_intern_503s(
        self, corpus, expected
    ):
        coordinator, nodes = start_cluster(
            timeout=5.0, retries=1, backoff=0.05, down_ttl=30.0
        )
        try:
            client = ServiceClient(coordinator.url, retries=0, timeout=30.0)
            client.intern_many(corpus[:30])
            nodes[1].close()  # SIGKILL equivalent: the listener is gone

            # Hashing is stateless: chunks re-route to the live shard.
            assert client.hash_corpus(corpus[:20]) == expected[:20]

            # Interning keys the dead shard owns is a bounded 503
            # naming it, not a hang.
            doomed = [
                e for e, h in zip(corpus, expected) if h % 2 == 1
            ][:5]
            started = time.monotonic()
            with pytest.raises(ServiceError) as excinfo:
                client.intern_many(doomed)
            elapsed = time.monotonic() - started
            assert excinfo.value.status == 503
            assert "shard 1" in str(excinfo.value)
            assert elapsed < 20

            # The down cache makes the next failure immediate.
            started = time.monotonic()
            with pytest.raises(ServiceError) as excinfo:
                client.intern_many(doomed)
            assert excinfo.value.status == 503
            assert time.monotonic() - started < 5

            # Live-shard keys still intern fine.
            alive = [
                e for e, h in zip(corpus, expected) if h % 2 == 0
            ][:5]
            assert len(client.intern_many(alive)) == 5

            health = client.health()
            assert health["ok"] is False
            assert [s["ok"] for s in health["shards"]] == [True, False]
        finally:
            coordinator.close()
            for node in nodes:
                node.close()

    def test_stats_require_every_shard(self, corpus):
        coordinator, nodes = start_cluster(
            timeout=5.0, retries=0, backoff=0.05, down_ttl=30.0
        )
        try:
            client = ServiceClient(coordinator.url, retries=0, timeout=30.0)
            client.intern_many(corpus[:10])
            nodes[0].close()
            with pytest.raises(ServiceError) as excinfo:
                client.stats()
            assert excinfo.value.status == 503
            assert "shard 0" in str(excinfo.value)
        finally:
            coordinator.close()
            for node in nodes:
                node.close()


class TestDeltaOverHTTP:
    def test_replica_catch_up_without_full_transfer(self, corpus, expected):
        with ReproServer(port=0) as node:
            client = ServiceClient(node.url)
            client.intern_many(corpus[:50])

            replica = Session.from_snapshot_bytes(client.fetch_snapshot())
            try:
                baseline = len(replica.store)
                full_before = len(client.fetch_snapshot())
                client.intern_many(corpus[50:])

                delta = client.fetch_delta(replica.store.version)
                assert len(delta) < full_before  # incremental, not full

                report = client.catch_up(replica)
                assert report["applied"] > 0
                assert len(replica.store) > baseline

                server_stats = client.stats()
                assert len(replica.store) == server_stats["entries"]
                assert (
                    replica.store.version == client.health()["version"]
                )
                # Bit-identical: the replica resolves every corpus root
                # to the same hash the server computed.
                assert replica.hash_corpus(corpus) == expected
                second = client.catch_up(replica)
                assert second == {
                    "applied": 0,
                    "skipped": 0,
                    "version": replica.store.version,
                }
            finally:
                replica.close()

    def test_delta_endpoint_validates_since(self):
        with ReproServer(port=0) as node:
            client = ServiceClient(node.url, retries=0)
            client.intern_many(mixed_corpus(5, seed=7))
            with pytest.raises(ServiceError) as excinfo:
                client.fetch_delta(10**9)
            assert excinfo.value.status == 409
            with pytest.raises(ServiceError) as excinfo:
                client._request("GET", "/v1/snapshot/delta")
            assert excinfo.value.status == 400
            with pytest.raises(ServiceError) as excinfo:
                client._request("GET", "/v1/snapshot/delta?since=nope")
            assert excinfo.value.status == 400
