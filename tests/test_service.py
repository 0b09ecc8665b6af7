"""Tests for the ``repro.service`` HTTP server/client pair (ISSUE 5).

Round-trip contract over a live localhost server: remote hashing is
bit-identical to ``alpha_hash_all``, interning lands on server node
ids, and snapshots upload/download over the existing versioned wire
format with entry-count conservation.
"""

import json
import random
import time

import pytest

from repro.api import (
    HashRequest,
    InternRequest,
    Session,
    get_backend,
)
from repro.core import native
from repro.core.hashed import alpha_hash_all
from repro.gen.random_exprs import random_expr
from repro.lang.parser import parse
from repro.lang.sexpr import SexprError, from_wire, to_wire
from repro.lang.traversal import preorder
from repro.service import ReproServer, ServiceClient, ServiceError
from repro.service.server import _corpus_request
from repro.store import snapshot_from_bytes


def echoed(plan) -> dict:
    """``plan`` as the server echoes it (JSON has lists, not tuples)."""
    return json.loads(json.dumps(plan.as_dict()))


def json_body(exprs, hints: dict) -> dict:
    """A JSON corpus body: the wire documents, with ``hints`` as keys."""
    return {"exprs": [to_wire(e) for e in exprs], **hints}


def mixed_corpus(n_items: int, seed: int = 13, size: int = 40):
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
    return mixed_corpus(120)


@pytest.fixture(scope="module")
def expected(corpus):
    return [alpha_hash_all(e).root_hash for e in corpus]


@pytest.fixture()
def server():
    with ReproServer(port=0) as live:
        yield live


@pytest.fixture()
def client(server):
    return ServiceClient(server.url)


class TestHashEndpoint:
    def test_health(self, client):
        health = client.health()
        assert health["ok"] is True
        assert health["backend"] == "ours"
        assert health["bits"] == 64

    def test_remote_hash_bit_identical_to_alpha_hash_all(
        self, client, corpus, expected
    ):
        assert client.hash_corpus(corpus) == expected

    def test_remote_hash_matches_local_session(self, client, corpus):
        assert client.hash_corpus(corpus) == Session().hash_corpus(corpus)

    def test_remote_plan_is_echoed(self, client, corpus):
        hashes, plan = client.hash_corpus(
            corpus, engine="arena", with_plan=True
        )
        assert plan["engine"] == "arena"
        assert not {"workers", "mode", "executor"} & set(plan)
        assert hashes == client.hash_corpus(corpus, engine="tree")

    def test_alternate_backend(self, client):
        expr = parse(r"\x. x + 7")
        from repro.api import get_backend

        remote = client.hash_corpus([expr], backend="debruijn")
        assert remote == [get_backend("debruijn").hash_all(expr).root_hash]

    def test_deep_expression_survives_the_wire(self, client):
        # A depth-2000 application chain: the flat postorder wire
        # encoding and the snapshot format are both iteration-only.
        from repro.lang.expr import App, Var

        deep = Var("x")
        for _ in range(2000):
            deep = App(Var("f"), deep)
        assert client.hash_corpus([deep]) == [alpha_hash_all(deep).root_hash]


class TestInternAndStats:
    def test_intern_lands_on_server_ids(self, client, corpus):
        ids = client.intern_many(corpus)
        assert len(ids) == len(corpus)
        # Duplicated corpus items collapse to one id.
        assert ids[0] == client.intern_many([corpus[0]])[0]
        stats = client.stats()
        assert stats["entries"] > 0
        assert stats["requests_served"] >= 2

    def test_stats_shape_matches_session_stats(self, client):
        stats = client.stats()
        for key in ("backend", "bits", "seed", "store_enabled", "entries"):
            assert key in stats
        assert stats["store_enabled"] is True


class TestSnapshotEndpoints:
    def test_download_restores_warm_store(self, client, corpus, expected):
        client.intern_many(corpus)
        data = client.fetch_snapshot()
        store, header = snapshot_from_bytes(data)
        assert header["format"] == "repro-store-snapshot-v1"
        assert store.hash_corpus(corpus) == expected

    def test_pull_session(self, client, corpus, expected):
        client.intern_many(corpus)
        local = client.pull_session()
        assert local.hash_corpus(corpus) == expected

    def test_upload_merge_conserves_classes(self, server, client, corpus):
        """upload -> merge -> stats conservation: server entries equal
        the union of both stores' classes, hashes intact."""
        half_a, half_b = corpus[:60], corpus[60:]
        client.intern_many(half_a)
        entries_before = client.stats()["entries"]

        local = Session()
        local.intern_many(half_b)

        reply = client.push_snapshot(local)
        assert reply["merged_classes"] == len(local.store)

        union = Session()
        union.intern_many(corpus)
        assert client.stats()["entries"] == len(union.store)
        assert client.stats()["entries"] >= entries_before

        # The merged store serves both halves bit-identically.
        assert client.hash_corpus(corpus) == [
            alpha_hash_all(e).root_hash for e in corpus
        ]

    def test_upload_raw_bytes(self, client, corpus):
        from repro.store import snapshot_to_bytes

        local = Session()
        local.intern_many(corpus[:10])
        reply = client.push_snapshot(snapshot_to_bytes(local.store))
        assert reply["uploaded_format"] == "repro-store-snapshot-v1"

    def test_bad_snapshot_is_a_client_error(self, client):
        with pytest.raises(ServiceError, match="bad snapshot") as excinfo:
            client.push_snapshot(b"definitely not a snapshot")
        assert excinfo.value.status == 400


class TestBoundedServer:
    def test_entry_bounded_server_intern_stays_clean(self, corpus):
        """A capacity-bounded store evicting mid-batch must not turn the
        intern endpoint into a KeyError/400."""
        self.check_bounded_intern(corpus)

    @pytest.mark.parametrize(
        "n_items, hints",
        # 40-node items: the service workload's request size.
        [(40, {"engine": "tree"}), (150, {})],
        ids=["1600_nodes", "6000_nodes"],
    )
    def test_entry_bounded_intern_on_either_engine(self, n_items, hints):
        self.check_bounded_intern(mixed_corpus(n_items), hints)

    @staticmethod
    def check_bounded_intern(corpus, hints=None):
        docs = [to_wire(e) for e in corpus]
        with ReproServer(port=0, max_entries=5) as server:
            client = ServiceClient(server.url)
            reply = client.intern_wire(docs, hints)
            hashes = [alpha_hash_all(e).root_hash for e in corpus]
            assert reply["hashes"] == hashes
            assert client.hash_corpus(corpus) == hashes
        # The oracle is the server's own pipeline run in process.  Under
        # eviction, ids depend on LRU recency, which a tree walk over
        # the unshared trees of a tree pin touches differently from one
        # over the original objects (items repeat), so only the arena
        # plan (no tree walk) also equals interning the ``Expr`` corpus
        # itself.
        oracle = Session(max_entries=5)
        body = {"exprs": docs, **(hints or {})}
        request = _corpus_request(InternRequest, body, oracle)
        assert reply["plan"] == echoed(oracle.plan(request))
        assert reply["ids"] == oracle.execute(request)
        if reply["plan"]["engine"] == "arena":
            assert reply["ids"] == Session(max_entries=5).intern_many(corpus)


class TestServerHardening:
    def test_old_client_fanout_keys_are_ignored(self, client, corpus, expected):
        """Bodies from clients that still send ``workers`` / ``mode``
        answer 200, bit-identical to a body without them."""
        legacy = {"workers": 5000, "mode": "spawn"}
        reply = client._json("POST", "/v1/hash", json_body(corpus, legacy))
        assert reply["hashes"] == expected
        assert not {"workers", "mode", "executor"} & set(reply["plan"])
        reply = client._json("POST", "/v1/intern", json_body(corpus, legacy))
        assert reply["hashes"] == expected
        assert not {"workers", "mode", "executor"} & set(reply["plan"])
        assert reply["ids"] == client.intern_many(corpus)
        opened = client._json(
            "POST", "/v1/session/open", json_body(corpus, legacy)
        )
        assert opened["roots"] == expected
        assert not {"workers", "mode", "executor"} & set(opened["plan"])
        client.session_close(opened["session"])

    def test_keep_alive_survives_an_unread_error_body(self, server):
        """An error reply sent before the body was read must not leave
        stale bytes on a persistent connection."""
        import http.client
        import json as json_module

        conn = http.client.HTTPConnection(server.host, server.port)
        try:
            conn.request(
                "POST",
                "/v1/nope",
                body=b'{"exprs": []}' * 100,
                headers={"Content-Type": "application/json"},
            )
            resp = conn.getresponse()
            assert resp.status == 404
            resp.read()
            # The next request on the same client object must get a
            # clean, parseable 200 -- not the leftover body bytes.
            conn.request("GET", "/v1/health")
            follow_up = conn.getresponse()
            assert follow_up.status == 200
            assert json_module.loads(follow_up.read())["ok"] is True
        finally:
            conn.close()


class TestWireToArena:
    """Store-backed ``/v1/hash`` and ``/v1/intern`` compile their wire
    documents straight into an arena: same bits, ids and plans as the
    in-process path, and no request tree left behind in the store."""

    @pytest.fixture(scope="class")
    def big(self):
        return mixed_corpus(150, seed=21)

    def test_hash_plans_arena_and_matches_the_session(self, client, big):
        hashes, plan = client.hash_corpus(big, with_plan=True)
        assert hashes == [alpha_hash_all(e).root_hash for e in big]
        assert plan == echoed(Session().plan(HashRequest(big)))
        assert plan["engine"] == "arena"

    def test_intern_matches_the_session(self, client, big):
        reply = client.intern_wire([to_wire(e) for e in big])
        local = Session()
        request = InternRequest(big)
        assert reply["plan"] == echoed(local.plan(request))
        assert reply["ids"] == local.execute(request)
        assert reply["hashes"] == [alpha_hash_all(e).root_hash for e in big]

    def test_store_keeps_no_request_objects(self, server, client, big):
        client.hash_corpus(big)
        client.intern_many(big)
        client.hash_corpus(big, engine="arena")
        store = server.session.store
        assert store._arena_root_memo == {}
        assert store._arena_compile_cache is None
        canonical = set()
        for entry in store.entries():
            canonical.update(id(node) for node in preorder(entry.expr))
        assert all(id(rec.node) in canonical for rec in store._memo.values())

    def test_tree_hint_answers_as_before(self, client, big):
        reply = client._json(
            "POST", "/v1/hash", json_body(big, {"engine": "tree"})
        )
        local = Session()
        request = HashRequest(big, engine="tree")
        assert reply == {
            "hashes": local.execute(request),
            "plan": echoed(local.plan(request)),
        }
        with ReproServer(port=0) as fresh:
            remote = ServiceClient(fresh.url)
            reply = remote.intern_wire(
                [to_wire(e) for e in big], {"engine": "tree"}
            )
            request = InternRequest(big, engine="tree")
            assert reply["plan"] == echoed(local.plan(request))
            assert reply["ids"] == Session().execute(request)
            assert reply["hashes"] == [alpha_hash_all(e).root_hash for e in big]

    def test_debruijn_backend_answers_as_before(self, client, big):
        backend = get_backend("debruijn")
        reply = client._json(
            "POST",
            "/v1/hash",
            json_body(big, {"backend": "debruijn"}),
        )
        assert reply["hashes"] == [backend.hash_all(e).root_hash for e in big]
        request = HashRequest(big, backend="debruijn")
        assert reply["plan"] == echoed(Session().plan(request))

    @pytest.mark.parametrize("path", ["/v1/hash", "/v1/intern", "/v1/session/open"])
    def test_malformed_documents_answer_400(self, server, client, path):
        from test_sexpr import wire_cases

        good = to_wire(parse(r"\x. x y"))
        for doc in wire_cases():
            with pytest.raises(SexprError) as expected:
                from_wire(doc)
            with pytest.raises(ServiceError) as excinfo:
                client._json("POST", path, {"exprs": [good, doc]})
            assert excinfo.value.status == 400
            assert f"malformed expression: {expected.value}" in str(
                excinfo.value
            )
        assert len(server.session.store) == 0

    @pytest.mark.parametrize("path", ["/v1/hash", "/v1/intern"])
    @pytest.mark.parametrize("pin", [{"bits": 32}, {"seed": 7}])
    def test_mismatched_pins_answer_400(self, server, client, big, path, pin):
        payload = json_body(big, pin)
        with pytest.raises(ServiceError) as excinfo:
            client._json("POST", path, payload)
        assert excinfo.value.status == 400
        assert len(server.session.store) == 0


class TestErrorHandling:
    def test_unknown_route_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._json("GET", "/v1/nope")
        assert excinfo.value.status == 404

    def test_malformed_body_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request(
                "POST", "/v1/hash", b"not json", "application/json"
            )
        assert excinfo.value.status == 400

    def test_unknown_backend_400(self, client, corpus):
        with pytest.raises(ServiceError, match="unknown backend") as excinfo:
            client.hash_corpus(corpus[:2], backend="warp")
        assert excinfo.value.status == 400

    @pytest.mark.parametrize("engine", ["arena-vec", "arena-scalar"])
    def test_kernel_pinning_engine_400(self, client, corpus, engine):
        for send in (client.hash_corpus, client.intern_many):
            with pytest.raises(
                ServiceError, match="PlanError: engine must be one of auto, tree, arena"
            ) as excinfo:
                send(corpus[:2], engine=engine)
            assert excinfo.value.status == 400

    def test_storeless_server_409_on_snapshot(self):
        with ReproServer(port=0, use_store=False) as server:
            client = ServiceClient(server.url)
            with pytest.raises(ServiceError) as excinfo:
                client.fetch_snapshot()
            assert excinfo.value.status == 409
            # hashing still works without a store
            expr = parse("a b")
            assert client.hash_corpus([expr]) == [
                alpha_hash_all(expr).root_hash
            ]


class TestMetricsEndpoint:
    def test_metrics_shape_and_rates(self, server, client, corpus):
        client.intern_many(corpus[:20])
        client.hash_corpus(corpus[:20])
        metrics = client.metrics()
        assert metrics["ok"] is True
        assert metrics["uptime_s"] >= 0
        assert metrics["requests_served"] >= 2
        assert metrics["backend"] == "ours"
        assert metrics["kernel"] == native.kernel()
        assert metrics["shard_id"] is None and metrics["shard_count"] is None
        store = metrics["store"]
        assert store["entries"] > 0
        assert store["version"] == store["entries"]  # eviction-free store
        assert 0 <= store["intern_hit_rate"] <= 1
        assert store["counters"]["misses"] == store["entries"]
        assert not {"num_shards", "shard_occupancy"} & set(store)


class TestClientRetry:
    def test_connection_errors_retried_then_surface(self):
        # No listener on this port: each attempt fails fast; the client
        # must give up after its bounded retries, not hang or loop.
        client = ServiceClient(
            "http://127.0.0.1:9", timeout=0.5, retries=2, backoff=0.01
        )
        started = time.monotonic()
        with pytest.raises(ServiceError):
            client.health()
        assert time.monotonic() - started < 10

    def test_4xx_not_retried(self, server):
        # A 404 is the caller's fault: it surfaces immediately even
        # with retries enabled (only 5xx/connection errors replay).
        client = ServiceClient(server.url, retries=3, backoff=0.01)
        started = time.monotonic()
        with pytest.raises(ServiceError) as excinfo:
            client._json("GET", "/v1/nope")
        assert excinfo.value.status == 404
        assert time.monotonic() - started < 1

    def test_retry_disabled_with_zero(self):
        client = ServiceClient("http://127.0.0.1:9", timeout=0.5, retries=0)
        with pytest.raises(ServiceError):
            client.health()


class TestCleanShutdown:
    def test_close_is_idempotent(self):
        server = ReproServer(port=0).start()
        ServiceClient(server.url).health()
        server.close()
        server.close()  # second close: no hang, no error
        server.shutdown()  # alias shares the guard

    def test_close_without_serving_does_not_hang(self):
        # shutdown() on a ThreadingHTTPServer whose accept loop never
        # ran would block forever; close() must special-case it.
        server = ReproServer(port=0)
        server.close()

    def test_socket_released_for_rebind(self):
        server = ReproServer(port=0).start()
        port = server.port
        server.close()
        rebound = ReproServer(port=port).start()
        try:
            assert ServiceClient(rebound.url).health()["ok"] is True
        finally:
            rebound.close()
