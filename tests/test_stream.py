"""Tests for streaming rewrite sessions.

The differential wall: every streamed edit's root hash must be
bit-identical to a from-scratch ``alpha_hash_all`` of the edited tree,
across flat and LRU-bounded stores -- plus the warm open
(first edits read the summary memo open filled, and are O(spine); the
cold build is only a fallback), the frozen memo records that warm
reads share, the eviction safety that makes that true under pressure
(session pins, the recompute-and-repin fallback), the ``/v1/session``
wire protocol (TTL expiry, capacity, 409 reopen semantics), the
keep-alive client transport, and the coordinator's sticky session
routing.
"""

import random
import socket
import time

import pytest

from repro.api import (
    PlanError,
    RemoteSession,
    Session,
    StoreThrashError,
    StreamError,
    StreamSession,
)
from repro.cluster.coordinator import ClusterCoordinator
from repro.core.hashed import alpha_hash_all
from repro.core import incremental
from repro.core.incremental import PathError
from repro.core.kernel import summarise_tree
from repro.core.position_tree import pt_here_hash
from repro.core.structure import svar_hash
from repro.core.varmap import HashedVarMap
from repro.gen.random_exprs import alpha_rename, random_expr
from repro.lang.traversal import preorder_with_paths, replace_at
from repro.service import ReproServer, ServiceClient, ServiceError
from test_service import json_body


def build_corpus(n_items, seed=17, size=90):
    rng = random.Random(seed)
    return [
        random_expr(size, rng=rng, p_let=0.15, p_lit=0.1)
        for _ in range(n_items)
    ]


def seeded_edits(stream_exprs, n_edits, seed=23, max_repl=12):
    """A deterministic (item, path, replacement) trace.

    Paths are re-picked against the *current* tree of each item, and
    every replacement is alpha-renamed with a distinct seed so binders
    stay unique within each item (the ``replace`` contract).
    """
    rng = random.Random(seed)
    current = list(stream_exprs)
    for index in range(n_edits):
        item = rng.randrange(len(current))
        paths = [path for path, _node in preorder_with_paths(current[item])]
        path = rng.choice(paths)
        replacement = alpha_rename(
            random_expr(rng.randint(3, max_repl), rng=rng),
            seed=10_000 + index,
        )
        current[item] = replace_at(current[item], path, replacement)
        yield item, path, replacement, current[item]


@pytest.fixture()
def summarised(monkeypatch):
    """``summarised(store, edit)`` runs ``edit()`` and returns its result
    with the nodes summarised meanwhile: the hasher's kernel passes,
    through a spy on ``summarise_tree``, plus the store's
    ``hashed_nodes``."""
    counted = [0]
    real = incremental.summarise_tree

    def spy(root, combiners, **hooks):
        tally = hooks["store_stats"]
        before = tally.hashed_nodes
        try:
            return real(root, combiners, **hooks)
        finally:
            counted[0] += tally.hashed_nodes - before

    monkeypatch.setattr(incremental, "summarise_tree", spy)

    def run(store, edit):
        before = counted[0] + store.stats.hashed_nodes
        result = edit()
        return result, counted[0] + store.stats.hashed_nodes - before

    return run


STORE_CONFIGS = [
    pytest.param({}, id="flat"),
    pytest.param({"max_entries": 60, "memo_limit": 300}, id="lru-bounded"),
]

#: The configurations no bound flushes the summary memo on: open must
#: leave every item of these warm.
UNBOUNDED_CONFIGS = [
    config for config in STORE_CONFIGS if "max_entries" not in config.values[0]
]


class TestDifferentialWall:
    @pytest.mark.parametrize("config", STORE_CONFIGS)
    def test_every_edit_matches_from_scratch(self, config):
        corpus = build_corpus(3)
        with Session(**config) as session:
            with session.open_stream(corpus) as stream:
                for item, path, repl, expected_tree in seeded_edits(
                    corpus, n_edits=24
                ):
                    report = stream.edit(item, path, repl)
                    oracle = alpha_hash_all(expected_tree).root_hash
                    assert report.root_hash == oracle
                    assert stream.root_hashes[item] == oracle
                    # The perf receipt: never more work than the corpus.
                    assert report.nodes_rehashed <= stream.corpus_nodes

    def test_storeless_session_streams(self):
        corpus = build_corpus(2, seed=5)
        with Session(use_store=False) as session:
            with session.open_stream(corpus) as stream:
                assert stream.intern_classes is False
                for item, path, repl, expected_tree in seeded_edits(
                    corpus, n_edits=8, seed=6
                ):
                    report = stream.edit(item, path, repl)
                    assert (
                        report.root_hash
                        == alpha_hash_all(expected_tree).root_hash
                    )
                    assert report.class_id is None

    def test_rehash_is_spine_not_corpus(self):
        corpus = build_corpus(1, seed=40, size=4000)
        with Session() as session:
            with session.open_stream(corpus) as stream:
                deep = max(
                    (p for p, _ in preorder_with_paths(corpus[0])), key=len
                )
                repl = alpha_rename(random_expr(4, seed=77), seed=20_001)
                report = stream.edit(0, deep, repl)
                assert report.spine_depth == len(deep)
                # Dirty spine + tiny subtree, nowhere near the corpus.
                assert report.nodes_rehashed <= len(deep) + 4
                assert report.nodes_rehashed < stream.corpus_nodes / 10


class TestWarmOpen:
    """Open fills the store's summary memo in one serial tree pass, so an
    item's first edit starts from its memoised root: O(spine), not
    O(item)."""

    @pytest.mark.parametrize(
        "intern_classes", [True, False], ids=["interned", "hash-only"]
    )
    @pytest.mark.parametrize("config", UNBOUNDED_CONFIGS)
    def test_first_touch_is_spine_not_item(
        self, config, intern_classes, summarised
    ):
        # An "auto" plan would pick the arena engine, whose per-root
        # results leave the memo empty; open pins the tree engine.
        corpus = build_corpus(2, seed=110, size=2_001)
        with Session(**config) as session:
            with session.open_stream(
                corpus, intern_classes=intern_classes
            ) as stream:
                touched = set()
                for item, path, repl, expected_tree in seeded_edits(
                    corpus, n_edits=5, seed=111
                ):
                    report, nodes = summarised(
                        session.store, lambda: stream.edit(item, path, repl)
                    )
                    assert (
                        report.root_hash
                        == alpha_hash_all(expected_tree).root_hash
                    )
                    assert report.built is False
                    assert nodes <= report.spine_depth + report.subtree_nodes
                    touched.add(item)
                assert touched == {0, 1}
                assert stream.report()["built_items"] == 0

    @pytest.mark.parametrize("flush", ["memo-cleared", "memo-limit"])
    def test_cold_fallback_stays_exact(self, flush, summarised):
        corpus = build_corpus(2, seed=112, size=200)
        config = {"memo_limit": 50} if flush == "memo-limit" else {}
        with Session(**config) as session:
            with session.open_stream(corpus) as stream:
                if flush == "memo-cleared":
                    session.store._memo.clear()
                touched = set()
                for item, path, repl, expected_tree in seeded_edits(
                    corpus, n_edits=8, seed=113
                ):
                    report, nodes = summarised(
                        session.store, lambda: stream.edit(item, path, repl)
                    )
                    assert (
                        report.root_hash
                        == alpha_hash_all(expected_tree).root_hash
                    )
                    assert report.built is (item not in touched)
                    if item in touched:
                        # The hasher kept the records the store memo
                        # lost: after the cold build, only the spine
                        # and the new subtree are summarised.
                        assert nodes <= (
                            report.spine_depth + report.subtree_nodes
                        )
                    touched.add(item)
                assert stream.report()["built_items"] == len(touched) == 2

    def test_open_hints_cannot_skip_the_warm_pass(self):
        corpus = build_corpus(2, seed=114, size=120)
        with Session() as session:
            with StreamSession(
                corpus, session=session, hints={"engine": "arena"}
            ) as stream:
                assert stream.plan.engine == "tree"
                for item, path, repl, expected_tree in seeded_edits(
                    corpus, n_edits=4, seed=115
                ):
                    report = stream.edit(item, path, repl)
                    assert report.built is False
                    assert (
                        report.root_hash
                        == alpha_hash_all(expected_tree).root_hash
                    )

    @pytest.mark.parametrize("pin", ["bits", "seed"])
    def test_family_pins_still_checked(self, pin):
        corpus = build_corpus(1, seed=116, size=20)
        with Session() as session:
            wrong = {"bits": 32, "seed": session.combiners.seed + 1}[pin]
            with pytest.raises(PlanError):
                StreamSession(corpus, session=session, hints={pin: wrong})


class TestMemoRecordsStayFrozen:
    """The incremental hasher adopts the store memo's records as they
    are, into a memo of its own: a stream of edits must leave every
    record exactly as summarised."""

    @pytest.mark.parametrize("config", UNBOUNDED_CONFIGS)
    def test_edit_stream_never_mutates_a_record(self, config):
        corpus = build_corpus(3, seed=119)
        rng = random.Random(121)
        with Session(**config) as session:
            with session.open_stream(corpus) as stream:
                for item, path, repl, expected_tree in seeded_edits(
                    corpus, n_edits=24, seed=120
                ):
                    stream.edit(item, path, repl)
                    # Put a subtree of the item back in place: the edit
                    # reads memoised summaries (the subtree's own, or its
                    # descendants') and combines its spine over them.
                    path, node = rng.choice(
                        list(preorder_with_paths(stream.expr(item)))
                    )
                    report = stream.edit(item, path, node)
                    assert (
                        report.root_hash
                        == alpha_hash_all(expected_tree).root_hash
                    )
            combiners = session.combiners
            records = list(session.store._memo.values())
            assert len(records) >= sum(item.size for item in corpus)
            for rec in records:
                frozen = HashedVarMap(rec.vm_entries, rec.vm_hash)
                assert frozen.recomputed_hash(combiners) == rec.vm_hash
                s_hash, varmap = summarise_tree(
                    rec.node,
                    combiners,
                    here=pt_here_hash(combiners),
                    svar=svar_hash(combiners),
                    var_entry_cache={},
                    lit_cache={},
                )
                assert (s_hash, varmap.entries, varmap.hash) == (
                    rec.s_hash,
                    rec.vm_entries,
                    rec.vm_hash,
                )


class TestEvictionSafety:
    def test_pins_survive_foreign_eviction_pressure(self):
        corpus = build_corpus(2, seed=9, size=60)
        with Session(max_entries=50, memo_limit=200) as session:
            with session.open_stream(corpus) as stream:
                assert session.store.pinned_count >= len(corpus)
                # Foreign traffic on the shared store: enough distinct
                # classes to cycle the LRU bound many times over.
                rng = random.Random(1234)
                for index in range(30):
                    session.intern(
                        alpha_rename(
                            random_expr(20, rng=rng), seed=30_000 + index
                        )
                    )
                for item, expr in enumerate(corpus):
                    node_id = stream.root_ids[item]
                    assert node_id is not None
                    assert node_id in session.store
                    assert session.store.is_pinned(node_id)
            assert session.store.pinned_count == 0  # close unpinned all

    def test_eviction_pressure_fuzz_tiny_lru(self):
        corpus = build_corpus(2, seed=31, size=50)
        with Session(max_entries=12, memo_limit=40) as session:
            with session.open_stream(corpus) as stream:
                for item, path, repl, expected_tree in seeded_edits(
                    corpus, n_edits=60, seed=32, max_repl=8
                ):
                    report = stream.edit(item, path, repl)
                    assert (
                        report.root_hash
                        == alpha_hash_all(expected_tree).root_hash
                    )
                assert stream.edits == 60
            assert session.store.pinned_count == 0

    def test_repin_fallback_recovers_evicted_class(self):
        """Satellite-6 regression guard: a class evicted between intern
        and pin must be recomputed and repinned, never a KeyError."""
        corpus = build_corpus(1, seed=50, size=30)
        with Session() as session:
            with session.open_stream(corpus) as stream:
                expr = alpha_rename(random_expr(6, seed=51), seed=40_000)
                bogus = 10**9  # evicted-by-the-time-we-pin stand-in
                node_id = stream._pin_class(expr, bogus)
                assert node_id != bogus
                assert node_id in session.store
                assert session.store.is_pinned(node_id)
                assert stream.repins == 1

    def test_memo_flush_between_edits_stays_bit_identical(self):
        """Memo entries evicted *between* edits (wholesale flush on a
        memo-bounded store) must fall back to recompute, not raise."""
        corpus = build_corpus(1, seed=60, size=80)
        with Session(memo_limit=64) as session:
            with session.open_stream(corpus) as stream:
                trace = list(seeded_edits(corpus, n_edits=10, seed=61))
                for item, path, repl, expected_tree in trace:
                    # Force memo churn mid-stream.
                    session.store._memo.clear()
                    report = stream.edit(item, path, repl)
                    assert (
                        report.root_hash
                        == alpha_hash_all(expected_tree).root_hash
                    )

    @pytest.mark.parametrize("flush", ["between-edits", "memo-limit"])
    def test_memo_flush_costs_a_later_edit_only_its_spine(
        self, flush, summarised
    ):
        """The hasher keeps every record of a replacement, so once the
        store memo is flushed, an edit inside the last replacement still
        summarises only its spine and its own new subtree.  A bounded
        memo is flushed before the replacement's pass, never between it
        and the intern, so the intern never summarises it again."""
        corpus = build_corpus(1, seed=62, size=200)
        rng = random.Random(63)
        config = {"memo_limit": 20} if flush == "memo-limit" else {}
        with Session(**config) as session:
            with session.open_stream(corpus) as stream:
                path = (0,) * min(4, corpus[0].depth - 1)
                for index in range(16):
                    if flush == "between-edits":
                        session.store._memo.clear()
                    repl = alpha_rename(
                        random_expr(rng.randint(5, 12), rng=rng),
                        seed=80_000 + index,
                    )
                    report, nodes = summarised(
                        session.store, lambda: stream.edit(0, path, repl)
                    )
                    assert (
                        report.root_hash
                        == alpha_hash_all(stream.expr(0)).root_hash
                    )
                    if index:  # the first is the cold build
                        assert nodes <= report.spine_depth + report.subtree_nodes
                    if repl.children():
                        path += (len(repl.children()) - 1,)

    def test_store_thrash_error_after_bounded_retries(self):
        corpus = build_corpus(1, seed=70, size=20)
        with Session() as session:
            with session.open_stream(corpus) as stream:
                original_pin = session.store.pin
                session.store.pin = lambda node_id: (_ for _ in ()).throw(
                    KeyError(node_id)
                )
                try:
                    with pytest.raises(StoreThrashError):
                        stream._pin_class(corpus[0], 1)
                finally:
                    session.store.pin = original_pin


class TestStreamSessionSurface:
    def test_closed_session_refuses_edits(self):
        corpus = build_corpus(1, seed=80, size=20)
        with Session() as session:
            stream = session.open_stream(corpus)
            stream.close()
            with pytest.raises(StreamError):
                stream.edit(0, (), corpus[0])
            stream.close()  # idempotent

    def test_bad_targets(self):
        corpus = build_corpus(1, seed=81, size=20)
        repl = alpha_rename(random_expr(4, seed=82), seed=50_000)
        with Session() as session:
            with session.open_stream(corpus) as stream:
                with pytest.raises(IndexError):
                    stream.edit(5, (), repl)
                with pytest.raises(PathError):
                    stream.edit(0, (9, 9, 9, 9), repl)
                with pytest.raises(TypeError):
                    stream.edit(0, (), "not an expr")

    def test_report_shape_and_sharing(self):
        corpus = build_corpus(2, seed=83, size=40)
        with Session() as session:
            with session.open_stream(corpus) as stream:
                repl = alpha_rename(random_expr(6, seed=84), seed=60_000)
                first = stream.edit(0, (0,), repl)
                # The same class again (alpha-renamed): now shared.
                again = alpha_rename(repl, seed=60_001)
                second = stream.edit(1, (0,), again)
                assert first.edit_hash == second.edit_hash
                assert second.shared is True
                report = stream.report()
                assert report["edits"] == 2
                assert 0 < report["rehash_ratio"] < 1
                assert report["root_hashes"] == stream.root_hashes


@pytest.fixture()
def server():
    with ReproServer(port=0, max_sessions=2, session_ttl=30.0) as live:
        yield live


class TestSessionWireProtocol:
    def test_remote_round_trip_bit_identical(self, server):
        corpus = build_corpus(2, seed=90, size=70)
        remote = RemoteSession(server.url)
        try:
            with remote.open_stream(corpus) as stream:
                assert stream.items == 2
                for item, path, repl, expected_tree in seeded_edits(
                    corpus, n_edits=10, seed=91
                ):
                    reply = stream.edit(item, path, repl)
                    oracle = alpha_hash_all(expected_tree).root_hash
                    assert reply["root_hash"] == oracle
                    assert stream.root_hashes[item] == oracle
                report = stream.report()
                assert report["edits"] == 10
        finally:
            remote.close()

    def test_open_hints_cannot_skip_the_warm_pass(self, server):
        corpus = build_corpus(2, seed=117, size=70)
        client = ServiceClient(server.url)

        def open_with(hints):
            payload = json_body(corpus, hints)
            return client._json("POST", "/v1/session/open", payload)

        try:
            # An old client's "workers" key is ignored like any unknown key.
            opened = open_with({"engine": "arena", "workers": 2})
            plan = opened["plan"]
            assert plan["engine"] == "tree" and "workers" not in plan
            for item, path, repl, expected_tree in seeded_edits(
                corpus, n_edits=4, seed=118
            ):
                reply = client.session_edit(opened["session"], item, path, repl)
                assert reply["built"] is False
                assert (
                    reply["root_hash"]
                    == alpha_hash_all(expected_tree).root_hash
                )
            client.session_close(opened["session"])
            seed = server.session.combiners.seed
            for pin in ({"bits": 32}, {"seed": seed + 1}):
                with pytest.raises(ServiceError) as err:
                    open_with(pin)
                assert err.value.status == 400
        finally:
            client.close()

    def test_unknown_session_409(self, server):
        client = ServiceClient(server.url)
        try:
            with pytest.raises(ServiceError) as err:
                client.session_report("deadbeef")
            assert err.value.status == 409
        finally:
            client.close()

    def test_ttl_expiry_409_and_unpin(self, server):
        server.session_ttl = 0.2
        corpus = build_corpus(1, seed=92, size=30)
        remote = RemoteSession(server.url)
        try:
            with remote.open_stream(corpus) as stream:
                assert server.session.store.pinned_count > 0
                time.sleep(0.4)
                repl = alpha_rename(random_expr(4, seed=93), seed=70_000)
                with pytest.raises(ServiceError) as err:
                    stream.edit(0, (), repl)
                assert err.value.status == 409
                # The sweep closed the stream server-side: pins released.
                assert server.session.store.pinned_count == 0
            # __exit__ swallowed the 409 from close(): already gone.
        finally:
            remote.close()

    def test_capacity_429(self, server):
        corpus = build_corpus(1, seed=94, size=20)
        remote = RemoteSession(server.url)
        try:
            s1 = remote.open_stream(corpus)
            s2 = remote.open_stream(corpus)
            with pytest.raises(ServiceError) as err:
                remote.open_stream(corpus)
            assert err.value.status == 429
            s1.close()
            s2.close()
        finally:
            remote.close()

    def test_bad_path_400(self, server):
        corpus = build_corpus(1, seed=95, size=20)
        remote = RemoteSession(server.url)
        try:
            with remote.open_stream(corpus) as stream:
                repl = alpha_rename(random_expr(4, seed=96), seed=80_000)
                with pytest.raises(ServiceError) as err:
                    stream.edit(0, (7, 7, 7, 7), repl)
                assert err.value.status == 400
                with pytest.raises(ServiceError) as err:
                    stream.edit(9, (), repl)
                assert err.value.status == 400
        finally:
            remote.close()

    def test_metrics_sessions_block(self, server):
        corpus = build_corpus(1, seed=97, size=30)
        remote = RemoteSession(server.url)
        try:
            with remote.open_stream(corpus) as stream:
                repl = alpha_rename(random_expr(5, seed=98), seed=90_000)
                stream.edit(0, (0,), repl)
                block = remote.metrics()["sessions"]
                assert block["open"] == 1
                assert block["opened"] == 1
                assert block["edits_served"] == 1
                assert block["pinned_nodes"] == server.session.store.pinned_count
                assert 0 < block["rehash_ratio"] < 1
            block = remote.metrics()["sessions"]
            assert block["open"] == 0
            assert block["closed"] == 1
            # Totals survive the close.
            assert block["edits_served"] == 1
        finally:
            remote.close()


class TestKeepAliveTransport:
    def test_one_connection_many_requests(self, server):
        client = ServiceClient(server.url)
        try:
            for _ in range(8):
                client.health()
            assert client.counters["requests"] == 8
            assert client.counters["connections_opened"] == 1
            assert client.counters["retries"] == 0
        finally:
            client.close()

    def test_stale_keepalive_replays_without_burning_retry(self, server):
        client = ServiceClient(server.url, retries=0)
        try:
            assert client.health()["ok"] is True
            # Emulate a server-side keep-alive timeout: kill the pooled
            # socket under the client so the next send hits a dead
            # connection.  retries=0, so only the free stale-connection
            # replay can make the second call succeed.
            client._local.conn.sock.shutdown(socket.SHUT_RDWR)
            assert client.health()["ok"] is True
            assert client.counters["retries"] == 0
            assert client.counters["failures"] == 0
            assert client.counters["connections_opened"] == 2
        finally:
            client.close()

    def test_error_replies_fail_fast_and_reconnect(self, server):
        client = ServiceClient(server.url, retries=3)
        try:
            with pytest.raises(ServiceError) as err:
                client._json("GET", "/v1/nonesuch")
            assert err.value.status == 404
            assert client.counters["retries"] == 0  # 4xx never retries
            # The server closed that connection (error replies carry
            # Connection: close); the next call transparently reopens.
            assert client.health()["ok"] is True
        finally:
            client.close()


class TestClusterSessions:
    def test_sticky_routing_and_failover_409(self):
        corpus = build_corpus(2, seed=99, size=60)
        n0 = ReproServer(port=0, shard_id=0, shard_count=2).start()
        n1 = ReproServer(port=0, shard_id=1, shard_count=2).start()
        coord = ClusterCoordinator(
            [n0.url, n1.url], port=0, retries=0, down_ttl=0.3, timeout=10
        ).start()
        remote = RemoteSession(coord.url)
        try:
            stream = remote.open_stream(corpus)
            # Shard nodes stream hash-only: no foreign-class 409s.
            assert stream.opened["intern_classes"] is False
            owner_url = stream.opened["node"]
            for item, path, repl, expected_tree in seeded_edits(
                corpus, n_edits=6, seed=100
            ):
                reply = stream.edit(item, path, repl)
                assert (
                    reply["root_hash"]
                    == alpha_hash_all(expected_tree).root_hash
                )
            folded = remote.metrics()["sessions"]
            assert folded["edits_served"] == 6
            assert folded["routed"] == 1

            victim = n0 if owner_url == n0.url else n1
            victim.close()
            repl = alpha_rename(random_expr(4, seed=101), seed=99_000)
            with pytest.raises(ServiceError) as err:
                stream.edit(0, (), repl)
            assert err.value.status == 409
            # Reopen lands on the survivor and streams on.
            stream2 = remote.open_stream(corpus)
            assert stream2.opened["node"] != owner_url
            reply = stream2.edit(0, (), repl)
            assert reply["root_hash"] == alpha_hash_all(repl).root_hash
            stream2.close()
        finally:
            remote.close()
            coord.close()
            n0.close()
            n1.close()
