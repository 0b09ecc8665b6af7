"""The ``repro-arena-v1`` body equals the JSON path, and refuses what it must.

* Codec: a client body decodes to exactly the arena
  ``ExprArena().extend_wire`` compiles from the same corpus' documents,
  on a Hypothesis wall and on hand-picked degenerate corpora.
* Live servers: ``hash_corpus`` and ``intern_many`` (arena bodies) give
  the hashes, ids, stats and content of ``hash_wire`` and
  ``intern_wire`` (JSON documents), on flat and bounded stores and
  through a 2-shard coordinator; every other path a JSON body
  serves (tree plans, own-pass backends, pins, store-less servers,
  foreign keys) answers alike.
* Fuzz wall: seeded truncations, byte flips and one broken rule at a
  time, against a node and a coordinator.  Each answers 400, leaves the
  store as it was, and the next request is served.
"""

from __future__ import annotations

import json
import random
import socket
import struct
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterCoordinator
from repro.core.arena import ExprArena
from repro.core.hashed import alpha_hash_all
from repro.gen.random_exprs import random_expr
from repro.lang.expr import App, Lam, Let, Lit, Var
from repro.lang.sexpr import from_wire, to_wire
from repro.lang.traversal import preorder
from repro.service import ReproServer, ServiceClient, ServiceError
from repro.service.arena_body import (
    ARENA_CONTENT_TYPE,
    ARENA_FORMAT,
    MAX_ITEM_NODES,
    ArenaBodyError,
    closure_arena,
    decode_body,
    encode_body,
    unshared_items,
)
from repro.store import content_checksum
from strategies import exprs


def mixed_corpus(n_items: int, seed: int = 5, size: int = 40) -> list:
    """Random items with same-object repeats and shadowed binders."""
    rng = random.Random(seed)
    corpus: list = []
    for _ in range(n_items):
        if corpus and rng.random() < 0.25:
            corpus.append(rng.choice(corpus))
        else:
            corpus.append(random_expr(size, rng=rng, p_let=0.2, p_lit=0.2))
    return corpus


def literal_corpus() -> list:
    values = [
        True, 1, 1.0, False, 0, 0.0, -0.0, 2**70, -(2**70), 1e300,
        float("inf"), "", 'a "quoted" \\ string', "λx. x", "\U0001f600", "\n",
    ]
    return [Lam("x", App(Var("x"), Lit(value))) for value in values] + [
        Lit(value) for value in values
    ]


def let_chain(depth: int):
    expr = Var("v0")
    for index in range(1, depth):
        expr = Let(f"v{index}", Lit(index), App(expr, Var(f"v{index}")))
    return expr


def shadowed_corpus() -> list:
    inner = Lam("x", Lam("x", App(Var("x"), Var("y"))))
    return [
        inner,
        Lam("x", App(inner, Var("x"))),
        Let("x", Var("x"), Let("x", Var("x"), Var("x"))),
        Lam("y", Let("y", Lam("y", Var("y")), App(Var("y"), Var("z")))),
    ]


def json_arena(corpus) -> tuple[ExprArena, list]:
    arena = ExprArena()
    return arena, arena.extend_wire([to_wire(e) for e in corpus])


def assert_same_arena(a: ExprArena, b: ExprArena) -> None:
    assert bytes(a.op) == bytes(b.op)
    for column in ("left", "right", "aux", "sizes"):
        assert list(getattr(a, column)) == list(getattr(b, column)), column
    assert a.names == b.names
    assert [(type(v), repr(v)) for v in a.literals] == [
        (type(v), repr(v)) for v in b.literals
    ]


def client_body(corpus, hints=None) -> bytes:
    return ServiceClient._corpus_payload(corpus, hints or {})


def post_raw(url: str, path: str, body: bytes, ctype=ARENA_CONTENT_TYPE):
    """One request on a fresh connection: ``(status, reply)``."""
    import http.client
    from urllib.parse import urlsplit

    split = urlsplit(url)
    conn = http.client.HTTPConnection(split.hostname, split.port, timeout=10)
    try:
        conn.request("POST", path, body=body, headers={"Content-Type": ctype})
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read() or b"{}")
    finally:
        conn.close()


@pytest.fixture
def connect():
    """A ``ServiceClient`` factory whose clients close after the test."""
    clients: list[ServiceClient] = []

    def make(url: str) -> ServiceClient:
        clients.append(ServiceClient(url))
        return clients[-1]

    yield make
    for client in clients:
        client.close()


# -- the codec -----------------------------------------------------------------


class TestCodec:
    @settings(max_examples=60)
    @given(st.lists(exprs(), min_size=1, max_size=6), st.data())
    def test_decoded_arena_equals_extend_wire(self, corpus, data):
        # Same-object repeats, drawn from the corpus itself.
        repeats = data.draw(st.lists(st.sampled_from(corpus), max_size=3))
        corpus = corpus + repeats
        header, arena, roots = decode_body(client_body(corpus))
        wire, wire_roots = json_arena(corpus)
        assert_same_arena(arena, wire)
        assert roots == wire_roots
        assert header["format"] == ARENA_FORMAT

    @pytest.mark.parametrize(
        "corpus",
        [
            pytest.param([let_chain(5000)], id="let-chain-5000"),
            pytest.param(shadowed_corpus(), id="shadowed"),
            pytest.param(literal_corpus(), id="literals"),
            pytest.param(mixed_corpus(60), id="same-object-repeats"),
            pytest.param([], id="empty"),
        ],
    )
    def test_degenerate_corpora(self, corpus):
        header, arena, roots = decode_body(client_body(corpus))
        wire, wire_roots = json_arena(corpus)
        assert_same_arena(arena, wire)
        assert roots == wire_roots
        for item, tree in zip(corpus, unshared_items(arena, roots)):
            assert alpha_hash_all(tree).root_hash == alpha_hash_all(item).root_hash

    def test_hints_ride_in_the_header(self):
        body = client_body([Var("x")], {"engine": "tree", "bits": None})
        header, _arena, _roots = decode_body(body)
        assert header["engine"] == "tree" and "bits" not in header

    def test_an_encoded_body_carries_its_own_hints(self):
        client = ServiceClient("http://127.0.0.1:9")
        with pytest.raises(TypeError):
            client.hash_wire(client_body([Var("x")]), {"engine": "tree"})

    def test_literal_tags_survive(self):
        header, arena, _roots = decode_body(client_body(literal_corpus()))
        assert [type(v) for v in arena.literals][:3] == [bool, int, float]
        assert struct.pack("<d", arena.literals[6]) == struct.pack("<d", -0.0)
        assert arena.literals[7] == 2**70

    def test_unshared_items_share_no_node(self):
        corpus = mixed_corpus(20)
        _header, arena, roots = decode_body(client_body(corpus))
        items = unshared_items(arena, roots)
        nodes = [node for item in items for node in preorder(item)]
        assert len({id(node) for node in nodes}) == len(nodes)
        for item, tree in zip(corpus, items):
            assert to_wire(tree) == to_wire(item)
            assert to_wire(from_wire(to_wire(item))) == to_wire(tree)

    def test_closure_arena_keeps_only_what_the_roots_use(self):
        corpus = mixed_corpus(30)
        arena, roots = json_arena(corpus)
        picked = roots[5:12]
        sub, sub_roots = closure_arena(arena, picked)
        assert len(sub) == sum(arena.closure(picked))
        _header, decoded, decoded_roots = decode_body(encode_body(sub, sub_roots))
        want = [alpha_hash_all(e).root_hash for e in corpus[5:12]]
        got = [
            alpha_hash_all(tree).root_hash
            for tree in unshared_items(decoded, decoded_roots)
        ]
        assert got == want
        used = {sub.aux[i] for i in range(len(sub)) if sub.op[i] in (0, 2, 4)}
        assert used == set(range(len(sub.names)))


# -- live servers --------------------------------------------------------------


@pytest.fixture(scope="module")
def corpus():
    return mixed_corpus(150, seed=21)


#: Store shapes for the intern equality walls, and overlapping batches
#: (the second repeats classes of the first, the third all of them).
STORES = [{}, {"max_entries": 300}]
STORE_IDS = ["flat", "bounded"]
BATCHES = [(0, 60), (40, 150), (0, 150)]


class TestLiveEquality:
    @pytest.mark.parametrize("bits", [8, 64, 128])
    def test_hash_corpus_equals_hash_wire(self, connect, corpus, bits):
        docs = [to_wire(e) for e in corpus]
        with ReproServer(port=0, bits=bits) as server:
            client = connect(server.url)
            combiners = server.session.combiners
            expected = [alpha_hash_all(e, combiners).root_hash for e in corpus]
            hashes, plan = client.hash_corpus(corpus, with_plan=True)
            reply = client.hash_wire(docs)
            assert hashes == reply["hashes"] == expected
            assert plan == reply["plan"]
            for engine in ("tree", "arena"):
                assert client.hash_corpus(corpus, engine=engine) == expected

    @pytest.mark.parametrize("store", STORES, ids=STORE_IDS)
    def test_intern_many_equals_intern_wire_on_a_twin(self, connect, corpus, store):
        docs = [to_wire(e) for e in corpus]
        with ReproServer(port=0, **store) as a, ReproServer(port=0, **store) as b:
            ca, cb = connect(a.url), connect(b.url)
            for lo, hi in BATCHES:
                reply = ca._post_corpus("/v1/intern", client_body(corpus[lo:hi]))
                assert reply == cb.intern_wire(docs[lo:hi])
            assert ca.intern_many(corpus) == cb.intern_wire(docs)["ids"]
            assert ca.stats()["store"] == cb.stats()["store"]
            assert content_checksum(a.session.store) == content_checksum(
                b.session.store
            )

    def test_duplicate_rows_answer_like_the_deduplicated_body(self, connect, corpus):
        arena, roots = json_arena(corpus)
        with ReproServer(port=0) as a, ReproServer(port=0) as b:
            ca, cb = connect(a.url), connect(b.url)
            plain = ca.intern_wire(encode_body(arena, roots))
            twice = cb.intern_wire(encode_body(*doubled(arena, roots)))
            assert twice["ids"] == plain["ids"] * 2
            assert twice["hashes"] == plain["hashes"] * 2
            assert plain["hashes"] == [alpha_hash_all(e).root_hash for e in corpus]
            assert cb.hash_wire(encode_body(*doubled(arena, roots)))["hashes"] == (
                plain["hashes"] * 2
            )
            assert content_checksum(a.session.store) == content_checksum(
                b.session.store
            )

    def test_alternate_backend_gets_unshared_trees(self, connect, corpus):
        from repro.api import get_backend

        backend = get_backend("debruijn")
        with ReproServer(port=0) as server:
            client = connect(server.url)
            hashes = client.hash_corpus(corpus, backend="debruijn")
            assert hashes == [backend.hash_all(e).root_hash for e in corpus]

    @pytest.mark.parametrize("path", ["/v1/hash", "/v1/intern"])
    @pytest.mark.parametrize("pin", [{"bits": 32}, {"seed": 7}])
    def test_mismatched_pins_answer_400(self, corpus, path, pin):
        with ReproServer(port=0) as server:
            status, reply = post_raw(server.url, path, client_body(corpus, pin))
            assert status == 400, reply
            assert len(server.session.store) == 0
            matching = {"bits": 64, "seed": server.session.combiners.seed}
            status, _ = post_raw(server.url, path, client_body(corpus, matching))
            assert status == 200

    def test_storeless_server(self, connect, corpus):
        with ReproServer(port=0, use_store=False) as server:
            client = connect(server.url)
            assert client.hash_corpus(corpus) == [
                alpha_hash_all(e).root_hash for e in corpus
            ]
            with pytest.raises(ServiceError) as excinfo:
                client.intern_many(corpus)
            assert excinfo.value.status == 409

    def test_foreign_keys_answer_409(self, connect, corpus):
        hashes = [alpha_hash_all(e).root_hash for e in corpus]
        mine = [e for e, h in zip(corpus, hashes) if h % 2 == 0]
        with ReproServer(port=0, shard_id=0, shard_count=2) as server:
            client = connect(server.url)
            with pytest.raises(ServiceError) as excinfo:
                client.intern_many(corpus)
            assert excinfo.value.status == 409
            assert len(server.session.store) == 0
            assert len(client.intern_many(mine)) == len(mine)


def doubled(arena: ExprArena, roots) -> tuple[ExprArena, list]:
    """Every row of ``arena`` twice: a second copy follows the first,
    its children shifted into it, and each item is rooted once per copy."""
    n = len(arena)
    out = ExprArena()
    out.op = arena.op * 2
    for column in ("left", "right"):
        values = list(getattr(arena, column))
        getattr(out, column).extend(values + [c + n if c >= 0 else -1 for c in values])
    for column in ("aux", "sizes"):
        getattr(out, column).extend(list(getattr(arena, column)) * 2)
    out.names, out.literals = list(arena.names), list(arena.literals)
    return out, list(roots) + [root + n for root in roots]


class TestCoordinator:
    @pytest.fixture(
        scope="class",
        params=[{}, {"bits": 8}, {"bits": 128}, {"max_entries": 300}],
        ids=["flat", "8-bit", "128-bit", "bounded"],
    )
    def cluster(self, request):
        groups = [
            [
                ReproServer(port=0, shard_id=index, shard_count=2, **request.param).start()
                for index in range(2)
            ]
            for _ in range(2)
        ]
        coordinators = [
            ClusterCoordinator([n.url for n in group], port=0, retries=0).start()
            for group in groups
        ]
        yield coordinators, groups
        for server in coordinators + groups[0] + groups[1]:
            server.close()

    def test_hash_and_intern_equal_the_json_path(self, connect, cluster, corpus):
        (coord, twin), (nodes, twins) = cluster
        docs = [to_wire(e) for e in corpus]
        combiners = nodes[0].session.combiners
        expected = [alpha_hash_all(e, combiners).root_hash for e in corpus]
        client, json_client = connect(coord.url), connect(twin.url)
        assert client.hash_corpus(corpus) == expected
        assert json_client.hash_wire(docs)["hashes"] == expected
        if combiners.bits != 64:
            return  # narrow widths collide: hashing only
        for lo, hi in BATCHES:
            reply = client._post_corpus("/v1/intern", client_body(corpus[lo:hi]))
            assert reply == json_client.intern_wire(docs[lo:hi])
            assert reply["owners"] == [h % 2 for h in expected[lo:hi]]
        assert client.stats()["store"] == json_client.stats()["store"]
        for a, b in zip(nodes, twins):
            assert content_checksum(a.session.store) == content_checksum(
                b.session.store
            )

    def test_duplicate_rows_through_the_coordinator(self, connect, cluster, corpus):
        (coord, twin), (nodes, twins) = cluster
        client, twin_client = connect(coord.url), connect(twin.url)
        arena, roots = json_arena(corpus)
        # A shard's share may fall under the arena threshold while its
        # doubled share does not, and the tree walk mints ids in another
        # order: pin the engine.
        pin = {"engine": "arena"}
        body = encode_body(arena, roots, pin)
        twice_body = encode_body(*doubled(arena, roots), pin)
        plain = client.hash_wire(body)["hashes"]
        assert client.hash_wire(twice_body)["hashes"] == plain * 2
        if nodes[0].session.combiners.bits == 64:
            # The twins hold the same classes; a bounded store's ids
            # depend on what it evicted, so each body goes to one twin.
            plain = client.intern_wire(body)
            twice = twin_client.intern_wire(twice_body)
            assert twice["ids"] == plain["ids"] * 2
            assert twice["hashes"] == plain["hashes"] * 2
            for a, b in zip(nodes, twins):
                assert content_checksum(a.session.store) == content_checksum(
                    b.session.store
                )


# -- the fuzz wall -------------------------------------------------------------


def _body(header: dict, op: bytes, left, right, aux, roots) -> bytes:
    from repro.core.columns import I32, column_bytes

    line = json.dumps(header, separators=(",", ":"), sort_keys=True).encode()
    return b"".join(
        (line, b"\n", op, column_bytes(I32, left), column_bytes(I32, right),
         column_bytes(I32, aux), column_bytes(I32, roots))
    )


def _parts(body: bytes):
    end = body.index(b"\n")
    header = json.loads(body[:end])
    n = header["rows"]
    start = end + 1
    op = body[start : start + n]
    columns = []
    for offset in (1, 5, 9):
        columns.append(list(struct.unpack(f"<{n}i", body[start + offset * n : start + (offset + 4) * n])))
    roots = list(struct.unpack(f"<{header['roots']}i", body[start + 13 * n :]))
    return header, op, *columns, roots


def broken_bodies(seed: int = 2024) -> list[tuple[str, bytes]]:
    """Seeded malformed bodies, each breaking one rule (or many, for the
    truncations and byte flips)."""
    rng = random.Random(seed)
    good = client_body(mixed_corpus(12, seed=seed))
    header, op, left, right, aux, roots = _parts(good)
    n, end = header["rows"], good.index(b"\n")
    cases: list[tuple[str, bytes]] = []

    def with_header(**changes):
        return _body({**header, **changes}, op, left, right, aux, roots)

    # A one-row body, and a two-name body, each valid but for one rule.
    tiny = {"format": ARENA_FORMAT, "rows": 1, "roots": 1, "names": ["x"], "literals": []}
    two = {**tiny, "rows": 3}

    # Truncation at every column boundary, and at random offsets.
    for cut in sorted({end, end + 1, end + 1 + n, end + 1 + 5 * n,
                       end + 1 + 9 * n, end + 1 + 13 * n, len(good) - 1}):
        cases.append((f"truncated@{cut}", good[:cut]))
    for cut in rng.sample(range(1, len(good)), 12):
        cases.append((f"truncated@{cut}", good[:cut]))
    # Byte flips in the columns (a flip in the header may stay valid JSON
    # of the same shape, so it is covered by the header cases).
    for _ in range(40):
        at = rng.randrange(end + 1, len(good))
        flipped = bytearray(good)
        flipped[at] ^= 1 << rng.randrange(8)
        candidate = bytes(flipped)
        try:
            decode_body(candidate)
        except ArenaBodyError:
            cases.append((f"flip@{at}", candidate))
    # The header.
    cases += [
        ("no-header-line", b"{}"),
        ("header-not-json", b"{nope\n"),
        ("header-not-object", b"[1, 2]\n"),
        ("deeply-nested-header", b"[" * 100_000 + b"\n"),
        ("wrong-format", with_header(format="repro-arena-v0")),
        ("rows-negative", with_header(rows=-1)),
        ("rows-bool", _body({**tiny, "rows": True}, b"\x00", [-1], [-1], [0], [0])),
        ("roots-bool", _body({**tiny, "roots": True}, b"\x00", [-1], [-1], [0], [0])),
        ("roots-float", with_header(roots=float(header["roots"]))),
        ("more-rows-than-carried", with_header(rows=n + 5)),
        ("fewer-rows-than-carried", with_header(rows=n - 1)),
        ("trailing-byte", good + b"\x00"),
        ("names-not-list", with_header(names="x")),
        ("empty-name", with_header(names=header["names"][:-1] + [""])),
        ("name-not-str", with_header(names=header["names"][:-1] + [7])),
        ("literal-tag", with_header(literals=[["complex", 1]] + header["literals"][1:])),
        ("literal-bool-as-int", with_header(literals=[["int", True]] + header["literals"][1:])),
        ("literal-shape", with_header(literals=[["int"]] + header["literals"][1:])),
    ]
    # The names table ["x", "x"]: lambda x. x would hash as lambda z. x.
    cases.append(
        ("duplicate-name", _body(
            {"format": ARENA_FORMAT, "rows": 2, "roots": 1,
             "names": ["x", "x"], "literals": []},
            bytes([0, 2]), [-1, 0], [-1, -1], [0, 1], [1],
        ))
    )
    # The rows.
    first_interior = next(i for i in range(n) if op[i] >= 2)
    app = next(i for i in range(n) if op[i] == 3)
    var = next(i for i in range(n) if op[i] == 0)

    def with_row(name, i, column, value):
        cols = {"left": list(left), "right": list(right), "aux": list(aux)}
        ops = bytearray(op)
        if column == "op":
            ops[i] = value
        else:
            cols[column][i] = value
        cases.append((name, _body(header, bytes(ops), cols["left"],
                                  cols["right"], cols["aux"], roots)))

    with_row("opcode-5", first_interior, "op", 5)
    with_row("opcode-255", var, "op", 255)
    cases.append(("child-self", _body(
        {**two, "roots": 2}, bytes([0, 3, 0]), [-1, 0, -1], [-1, 1, -1], [0, -1, 0], [1, 2]
    )))
    cases.append(("child-above", _body(
        two, bytes([0, 3, 0]), [-1, 0, -1], [-1, 2, -1], [0, -1, 0], [1]
    )))
    with_row("child-below-minus-one", app, "left", -2)
    with_row("app-missing-child", app, "right", -1)
    with_row("var-with-child", var, "left", 0 if var else 1)
    with_row("aux-name-out-of-range", var, "aux", len(header["names"]))
    with_row("aux-negative", var, "aux", -1)
    with_row("app-aux-not-minus-one", app, "aux", 0)
    lam = next((i for i in range(n) if op[i] == 2), None)
    if lam is not None:
        with_row("lam-with-right", lam, "right", 0)
    cases.append(("root-out-of-range", _body(header, op, left, right, aux, roots[:-1] + [n])))
    cases.append(("root-negative", _body(header, op, left, right, aux, [-1] + roots[1:])))
    cases.append(("unreachable-row", _body(
        {**header, "rows": n + 1}, op + b"\x00", left + [-1], right + [-1], aux + [0], roots,
    )))
    cases.append(("no-roots", _body({**header, "roots": 0}, op, left, right, aux, [])))
    # The 101-row doubling chain: 2**100 nodes.
    chain = 101
    cases.append(("doubling-chain", _body(
        {"format": ARENA_FORMAT, "rows": chain, "roots": 1, "names": ["x"], "literals": []},
        bytes([0] + [3] * (chain - 1)),
        [-1] + list(range(chain - 1)), [-1] + list(range(chain - 1)),
        [0] + [-1] * (chain - 1), [chain - 1],
    )))
    return cases


def test_every_rule_is_exercised():
    names = {name for name, _ in broken_bodies()}
    assert {"duplicate-name", "doubling-chain", "more-rows-than-carried",
            "unreachable-row", "opcode-5", "rows-bool"} <= names
    assert sum(name.startswith("flip@") for name in names) >= 10
    for name, body in broken_bodies():
        with pytest.raises(ArenaBodyError):
            decode_body(body)


def test_the_doubling_chain_is_refused_by_its_size_cap():
    body = dict(broken_bodies())["doubling-chain"]
    with pytest.raises(ArenaBodyError, match="exceeds"):
        decode_body(body)
    assert MAX_ITEM_NODES < 2**30


class TestFuzzWall:
    @pytest.mark.parametrize("path", ["/v1/hash", "/v1/intern"])
    def test_node_refuses_and_stays_unchanged(self, connect, path):
        corpus = mixed_corpus(30, seed=3)
        with ReproServer(port=0, journal=None) as server:
            client = connect(server.url)
            client.intern_many(corpus[:10])
            store = server.session.store
            before = (store.version, len(store), content_checksum(store))
            for name, body in broken_bodies():
                started = time.monotonic()
                status, reply = post_raw(server.url, path, body)
                assert status == 400, (name, reply)
                assert time.monotonic() - started < 5, name
                assert (store.version, len(store), content_checksum(store)) == before, name
            assert client.hash_corpus(corpus) == [
                alpha_hash_all(e).root_hash for e in corpus
            ]

    @pytest.mark.parametrize("path", ["/v1/hash", "/v1/intern"])
    def test_coordinator_refuses_and_shards_stay_unchanged(self, connect, path):
        corpus = mixed_corpus(30, seed=4)
        nodes = [
            ReproServer(port=0, shard_id=index, shard_count=2).start()
            for index in range(2)
        ]
        try:
            with ClusterCoordinator([n.url for n in nodes], port=0) as coord:
                client = connect(coord.url)
                client.intern_many(corpus[:10])

                def state():
                    return [
                        (s.version, len(s), content_checksum(s))
                        for s in (n.session.store for n in nodes)
                    ]

                before = state()
                for name, body in broken_bodies(seed=7):
                    status, reply = post_raw(coord.url, path, body)
                    assert status == 400, (name, reply)
                    assert state() == before, name
                assert client.hash_corpus(corpus) == [
                    alpha_hash_all(e).root_hash for e in corpus
                ]
        finally:
            for node in nodes:
                node.close()


# -- Content-Length ------------------------------------------------------------


def _negative_length_reply(host: str, port: int) -> bytes:
    with socket.create_connection((host, port), timeout=1.0) as sock:
        sock.sendall(
            b"POST /v1/hash HTTP/1.1\r\nHost: x\r\n"
            b"Content-Type: application/json\r\nContent-Length: -1\r\n\r\n"
            b'{"exprs": []}'
        )
        return sock.recv(4096)


def test_negative_content_length_answers_400_at_once(connect):
    nodes = [ReproServer(port=0, shard_id=i, shard_count=2).start() for i in range(2)]
    try:
        with ClusterCoordinator([n.url for n in nodes], port=0) as coord:
            for url, host, port in (
                (nodes[0].url, nodes[0].host, nodes[0].port),
                (coord.url, coord.host, coord.port),
            ):
                reply = _negative_length_reply(host, port)
                assert reply.startswith(b"HTTP/1.1 400"), reply
                assert connect(url).hash_corpus([Var("x")]) == [
                    alpha_hash_all(Var("x")).root_hash
                ]
    finally:
        for node in nodes:
            node.close()


def test_deeply_nested_json_body_answers_400():
    """``json.loads`` raises ``RecursionError`` on deep nesting; that is
    the client's malformed body, not a server fault."""
    nodes = [ReproServer(port=0, shard_id=i, shard_count=2).start() for i in range(2)]
    try:
        with ClusterCoordinator([n.url for n in nodes], port=0) as coord:
            for url in (nodes[0].url, coord.url):
                status, reply = post_raw(url, "/v1/hash", b"[" * 100_000, "application/json")
                assert status == 400, reply
    finally:
        for node in nodes:
            node.close()
