"""Tests for store snapshots (``repro.store.snapshot``) and Session
save/load, including the CLI ``repro session`` verb."""

import json
import os
import signal
import subprocess
import sys
from dataclasses import asdict

import pytest

from repro.api import Session
from repro.cli import main
from repro.core.combiners import HashCombiners
from repro.core.hashed import alpha_hash_all
from repro.gen.random_exprs import random_expr
from repro.lang.alpha import alpha_equivalent
from repro.lang.expr import App, Lit, Var
from repro.lang.parser import parse
from repro.lang.traversal import preorder
from repro.store import (
    ExprStore,
    SnapshotError,
    content_checksum,
    delta_to_bytes,
    read_snapshot,
    snapshot_from_bytes,
    snapshot_to_bytes,
    write_snapshot,
)
from test_codec_bytes import (
    _document,
    join_frame,
    reference_snapshot_v1,
    split_frame,
    wall_items,
)


@pytest.fixture()
def snap_path(tmp_path):
    return str(tmp_path / "store.snap")


class TestStoreRoundTrip:
    def test_round_trip_1k_corpus_bit_identical(self, snap_path):
        """Acceptance: 1k random expressions reload with bit-identical
        root hashes and identical stats."""
        corpus = [
            random_expr(10 + (i % 40), seed=i, p_let=0.2) for i in range(1000)
        ]
        session = Session()
        roots = session.hash_corpus(corpus)
        session.intern_many(corpus)
        session.save(snap_path)

        loaded = Session.load(snap_path)
        assert loaded.store.stats.as_dict() == session.store.stats.as_dict()
        assert len(loaded.store) == len(session.store)
        assert loaded.hash_corpus(corpus) == roots
        # every class saved is findable without re-interning
        assert all(loaded.store.lookup_hash(h) is not None for h in roots)
        # and interning again creates nothing new
        before = len(loaded.store)
        loaded.intern_many(corpus)
        assert len(loaded.store) == before

    def test_deep_entries_snapshot_iteratively(self, snap_path):
        """A depth-2000 canonical chain saves and loads: the encoder and
        the loader stay iterative."""
        deep = Var("x")
        for _ in range(2000):
            deep = App(Var("f"), deep)
        store = ExprStore()
        node_id = store.intern(deep)
        store.save(snap_path)
        restored = ExprStore.load(snap_path)
        assert restored.intern(deep) == node_id
        assert restored.hash_of(node_id) == store.hash_of(node_id)

    def test_canonical_trees_survive(self, snap_path):
        store = ExprStore()
        node_id = store.intern(parse(r"\x. x + (let y = 2 in y * x)"))
        original = store.expr_of(node_id)
        store.save(snap_path)
        loaded = ExprStore.load(snap_path)
        assert alpha_equivalent(loaded.expr_of(node_id), original)
        assert loaded.hash_of(node_id) == store.hash_of(node_id)

    def test_literal_kinds_round_trip(self, snap_path):
        store = ExprStore()
        exprs = [
            parse(r"\x. x + 7"),
            parse('"s"'),
        ]
        ids = [store.intern(e) for e in exprs]
        bool_id = store.intern(Lit(True))
        float_id = store.intern(Lit(2.5))
        int_id = store.intern(Lit(1))
        store.save(snap_path)
        loaded = ExprStore.load(snap_path)
        for e, i in zip(exprs, ids):
            assert loaded.intern(e) == i
        assert loaded.expr_of(bool_id).value is True
        assert loaded.expr_of(float_id).value == 2.5
        assert loaded.expr_of(int_id).value == 1
        # bool/int stay distinct classes after the round trip
        assert bool_id != int_id

    def test_memo_is_cold_after_load(self, snap_path):
        store = ExprStore()
        expr = random_expr(300, seed=7)
        store.intern(expr)
        root_hash = store.hash_expr(expr)  # memo hit, counted before save
        store.save(snap_path)
        loaded = ExprStore.load(snap_path)
        # the canonical representative is built on request, unmemoised
        canonical = loaded.expr_of(loaded.lookup_hash(root_hash))
        assert loaded._memo == {}
        # and hashes to its class, each shared subtree summarised once
        assert loaded.hash_expr(canonical) == root_hash
        shared = {id(node) for node in preorder(canonical)}
        assert loaded.stats.hashed_nodes == store.stats.hashed_nodes + len(shared)
        assert set(loaded._memo) == shared

    def test_save_does_not_disturb_stats(self, snap_path):
        store = ExprStore()
        store.intern(random_expr(100, seed=1))
        store.clear_memo()  # force the save-time memo backfill
        before = store.stats.as_dict()
        store.save(snap_path)
        assert store.stats.as_dict() == before
        loaded = ExprStore.load(snap_path)
        assert loaded.stats.as_dict() == before

    def test_save_does_not_disturb_memo(self, snap_path):
        # the backfill must be invisible: same memoised objects before
        # and after save, even when a small memo_limit would otherwise
        # trigger a wholesale flush of legitimately warm records
        store = ExprStore(memo_limit=50)
        store.intern(random_expr(200, seed=3))
        store.clear_memo()
        warm = random_expr(20, seed=4)
        store.hash_expr(warm)  # a few warm records, well under the limit
        before = set(store._memo)
        store.save(snap_path)
        assert set(store._memo) == before

    def test_lru_capacity_mode_survives(self, snap_path):
        store = ExprStore(max_entries=64)
        for i in range(30):
            store.intern(random_expr(12, seed=i))
        store.save(snap_path)
        loaded = ExprStore.load(snap_path)
        assert loaded.max_entries == 64
        assert loaded.memo_limit == store.memo_limit
        assert len(loaded) == len(store)

    def test_meta_rides_along(self, snap_path):
        store = ExprStore()
        store.intern(parse("a b"))
        write_snapshot(store, snap_path, meta={"backend": "ours", "tag": 3})
        _loaded, header = read_snapshot(snap_path)
        assert header["meta"] == {"backend": "ours", "tag": 3}


class TestSnapshotIntegrity:
    def _saved(self, path, legacy=False):
        """A small store saved to ``path``; ``legacy`` writes it as the
        ``repro-store-snapshot-v1`` file earlier releases wrote."""
        store = ExprStore()
        store.intern(random_expr(60, seed=0))
        if legacy:
            with open(path, "wb") as handle:
                handle.write(reference_snapshot_v1(store))
        else:
            store.save(path)
        return store

    def test_tampered_body_fails_checksum(self, snap_path):
        self._saved(snap_path, legacy=True)
        with open(snap_path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        lines[1] = lines[1].replace(":", ";", 1)
        with open(snap_path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        with pytest.raises(SnapshotError, match="checksum"):
            read_snapshot(snap_path)

    def test_tampered_v3_body_fails_checksum(self, snap_path):
        self._saved(snap_path)
        with open(snap_path, "rb") as handle:
            data = handle.read()
        start = data.index(b"\n") + 1
        for offset in (start, (start + len(data)) // 2, len(data) - 1):
            flipped = data[:offset] + bytes([data[offset] ^ 1]) + data[offset + 1 :]
            with pytest.raises(SnapshotError, match="checksum"):
                snapshot_from_bytes(flipped)

    def test_truncated_body_fails(self, snap_path):
        for legacy in (False, True):
            self._saved(snap_path, legacy)
            with open(snap_path, "rb") as handle:
                data = handle.read()
            with open(snap_path, "wb") as handle:
                handle.write(data[: int(len(data) * 0.8)])
            with pytest.raises(SnapshotError):
                read_snapshot(snap_path)

    def test_wrong_format_rejected(self, snap_path):
        with open(snap_path, "w", encoding="utf-8") as handle:
            handle.write('{"format": "something-else"}\n')
        with pytest.raises(SnapshotError, match="not a repro-store-snapshot"):
            read_snapshot(snap_path)
        # A delta frame shares the snapshot's columns, not its tag.
        store = self._saved(snap_path)
        with pytest.raises(SnapshotError, match="not a repro-store-snapshot"):
            snapshot_from_bytes(delta_to_bytes(store, 0))

    def test_garbage_header_rejected(self, snap_path):
        with open(snap_path, "w", encoding="utf-8") as handle:
            handle.write("not json at all\n")
        with pytest.raises(SnapshotError, match="header"):
            read_snapshot(snap_path)

    def test_malformed_record_with_valid_checksum_rejected(self, snap_path):
        # schema breaches that slip past the checksum (e.g. a dangling
        # child id, or a summary field of the wrong type, with a
        # recomputed checksum) must fail as SnapshotError, not leak a
        # bare KeyError, load a memo record of the wrong types or fail
        # later inside an unrelated hash_expr.  The same records under a
        # v2 sharded header are refused for their format tag.
        import hashlib

        var = {"i": 0, "h": 1, "k": "Var", "z": 1, "c": [], "p": "x",
               "s": 1, "v": 1, "m": {"x": 1}, "t": 1}
        records = [
            {"i": 0, "h": 1, "k": "App", "z": 3, "c": [998, 999],
             "p": None, "s": 1, "v": 1, "m": {}},
            {**var, "s": "12"},
            {**var, "v": 1.5},
            {**var, "m": [["x", 1]]},
            {**var, "m": {"x": "1"}},
            {**var, "i": 2**64},
            {**var, "t": 2**63},
            {"i": 1, "h": 1, "k": "Lam", "z": 2, "c": [2**64], "p": "x",
             "s": 1, "v": 1, "m": {}},
        ]
        for record in records:
            body = (
                json.dumps(record, separators=(",", ":"), sort_keys=True)
                + "\n"
            ).encode("utf-8")
            checksum = "sha256:" + hashlib.sha256(body).hexdigest()
            flat = {
                "format": "repro-store-snapshot-v1",
                "bits": 64, "seed": 1, "next_id": 1, "entries": 1,
                "max_entries": None, "memo_limit": None, "stats": {},
                "meta": {}, "checksum": checksum,
            }
            sharded = {
                "format": "repro-store-snapshot-v2-sharded",
                "bits": 64, "seed": 1, "num_shards": 1, "entries": 1,
                "shards": [{"entries": 1, "next_local": 1,
                            "bytes": len(body), "stats": {}}],
                "max_entries": None, "memo_limit": None, "stats": {},
                "meta": {}, "checksum": checksum,
            }
            for header, refusal in (
                (flat, "malformed snapshot entry|names neither a row|'c' is not"),
                (sharded, "not a repro-store-snapshot-v3"),
            ):
                with open(snap_path, "wb") as handle:
                    handle.write(json.dumps(header).encode() + b"\n" + body)
                with pytest.raises(SnapshotError, match=refusal):
                    read_snapshot(snap_path)
                with pytest.raises(SnapshotError, match=refusal):
                    Session.load(snap_path)

    def test_malformed_v3_row_with_valid_checksum_rejected(self, snap_path):
        # The v3 twin: rows that slip past the checksum (recomputed) fail
        # as SnapshotError.
        store = self._saved(snap_path)
        header, columns = split_frame(snapshot_to_bytes(store))
        top = max(range(header["rows"]), key=lambda row: columns["size"][row])
        leaf = columns["kind"].index(0)
        for column, row, value, refusal in (
            ("first", top, 998, "names neither a row"),
            ("kind", leaf, 7, "unknown kind"),
            ("label", leaf, len(header["names"]), "outside"),
            ("first", leaf, columns["id"][top], "a Var has 0"),
            ("size", top, columns["size"][top] + 1, "1 plus its children"),
            ("version", top, header["version"] + 1, "window"),
        ):
            edited = {name: list(values) for name, values in columns.items()}
            edited[column][row] = value
            with open(snap_path, "wb") as handle:
                handle.write(join_frame(header, edited))
            with pytest.raises(SnapshotError, match=refusal):
                read_snapshot(snap_path)
            with pytest.raises(SnapshotError, match=refusal):
                Session.load(snap_path)

    def test_header_missing_required_field_rejected(self, snap_path):
        # a well-formed header that lacks e.g. "bits" must fail as
        # SnapshotError, not leak a KeyError
        import hashlib

        for fmt in ("repro-store-snapshot-v1", "repro-store-snapshot-v3"):
            header = {
                "format": fmt,
                "checksum": "sha256:" + hashlib.sha256(b"").hexdigest(),
            }
            with open(snap_path, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(header) + "\n")
            with pytest.raises(SnapshotError, match="missing required"):
                read_snapshot(snap_path)


def with_header(data: bytes, **changes) -> bytes:
    """``data`` with header fields set to ``changes``; the body, and so
    the checksum, as they were."""
    head, _, body = data.partition(b"\n")
    header = dict(json.loads(head), **changes)
    return json.dumps(header).encode("utf-8") + b"\n" + body


def redo_v1(data: bytes, edit) -> bytes:
    """A v1 document with ``edit(header, records)`` applied to its parsed
    header and records, its count and checksum recomputed."""
    head, _, body = data.partition(b"\n")
    header = json.loads(head)
    records = [json.loads(line) for line in body.splitlines()]
    edit(header, records)
    new_body = "".join(
        json.dumps(rec, separators=(",", ":"), sort_keys=True) + "\n"
        for rec in records
    ).encode("utf-8")
    return _document(dict(header, entries=len(records)), new_body)


def small_store():
    store = ExprStore()
    for seed in range(4):
        store.intern(random_expr(15, seed=seed, p_let=0.2, p_lit=0.2))
    return store


#: Header fields of the wrong type or range.  Unchecked, the first six
#: escape as TypeError or ValueError and the last three load, to fail
#: later far from the document.
BAD_HEADER_FIELDS = [
    ("bits", "64"),
    ("bits", 7),
    ("seed", None),
    ("max_entries", "5"),
    ("max_entries", 0),
    ("version", "3"),
    ("max_entries", 2.5),
    ("memo_limit", "x"),
    ("stats", {"hits": "many"}),
]


class TestHeaderWall:
    """Every header field is checked before the store is built, on the
    v3 and the legacy v1 reader alike."""

    @pytest.mark.parametrize("legacy", [False, True], ids=["v3", "v1"])
    @pytest.mark.parametrize("field, value", BAD_HEADER_FIELDS)
    def test_malformed_field_is_refused(self, field, value, legacy):
        store = small_store()
        data = reference_snapshot_v1(store) if legacy else snapshot_to_bytes(store)
        with pytest.raises(SnapshotError, match=field):
            snapshot_from_bytes(with_header(data, **{field: value}))
        assert snapshot_from_bytes(data)[0].stats == store.stats

    @pytest.mark.parametrize("legacy", [False, True], ids=["v3", "v1"])
    def test_a_forged_literal_is_refused(self, legacy):
        """An integral number under ``float`` beyond the float range, in
        the v3 header's ``literals`` (which the checksum does not cover)
        or a v1 record's payload (checksum recomputed), is a
        SnapshotError."""
        store = small_store()
        store.intern(App(Var("f"), Lit(2.5)))
        forged = ["float", 10**400]
        if legacy:
            def forge(header, records):
                next(rec for rec in records if rec["k"] == "Lit")["p"] = forged

            data = redo_v1(reference_snapshot_v1(store), forge)
        else:
            data = with_header(snapshot_to_bytes(store), literals=[forged])
        with pytest.raises(SnapshotError, match="float literal out of range"):
            snapshot_from_bytes(data)

    @pytest.mark.parametrize("legacy", [False, True], ids=["v3", "v1"])
    def test_unknown_stats_keys_are_ignored(self, legacy):
        store = small_store()
        data = reference_snapshot_v1(store) if legacy else snapshot_to_bytes(store)
        stats = dict(store.stats.as_dict(), hits=3, later_counter="x")
        loaded, _header = snapshot_from_bytes(with_header(data, stats=stats))
        assert loaded.stats.hits == 3
        assert content_checksum(loaded) == content_checksum(store)


class TestNoSilentMerge:
    """A snapshot that would install ``\\y. f y 2`` under the hash of
    ``\\y. g y 3`` is refused: the loaded store's intern of the second
    term must never return the first's class.  A reader that takes the
    file's hashes on trust loads the v1 case cleanly."""

    F, G = r"\y. f y 2", r"\y. g y 3"

    @pytest.mark.parametrize("legacy", [False, True], ids=["v3", "v1"])
    def test_another_terms_hash_is_refused(self, legacy):
        primary = ExprStore()
        primary.intern(parse(self.F))
        other = ExprStore()
        g_hash = other.hash_of(other.intern(parse(self.G)))
        if legacy:

            def forge(_header, records):
                max(records, key=lambda rec: rec["z"])["h"] = g_hash

            forged = redo_v1(reference_snapshot_v1(primary), forge)
        else:
            header, columns = split_frame(snapshot_to_bytes(primary))
            top = max(range(header["rows"]), key=lambda row: columns["size"][row])
            columns["hash"][top] = g_hash
            forged = join_frame(header, columns)
        with pytest.raises(SnapshotError, match="hashes to"):
            snapshot_from_bytes(forged)


class TestV3FuzzWall:
    """Mutations of one v3 snapshot, each refused whole with
    :class:`SnapshotError` (a repeated id: :class:`TestRepeatedIds`)."""

    @staticmethod
    def _cases(data: bytes):
        header, columns = split_frame(data)
        head_len = data.index(b"\n") + 1
        top = max(range(header["rows"]), key=lambda row: columns["size"][row])
        flipped = {name: list(values) for name, values in columns.items()}
        flipped["hash"][top] ^= 1 << 17
        cases = [("hash flip", join_frame(header, flipped))]
        boundary = head_len
        for name, width in (("id", 8), ("hash", 8), ("version", 8), ("size", 8), ("kind", 1)):
            boundary += width * len(columns[name])
            cases.append((f"cut in {name}", data[: boundary - 3]))
        cases.append(("rows one too high", with_header(data, rows=header["rows"] + 1)))
        return cases

    @pytest.mark.parametrize("bits", [64, 128])
    def test_every_case_is_refused(self, bits):
        store = ExprStore(HashCombiners(bits=bits, seed=3))
        for seed in range(6):
            store.intern(random_expr(20, seed=seed, p_let=0.2, p_lit=0.2))
        data = snapshot_to_bytes(store)
        for name, doc in self._cases(data):
            with pytest.raises(SnapshotError):
                snapshot_from_bytes(doc)
        assert snapshot_to_bytes(snapshot_from_bytes(data)[0]) == data


def loaded_state(store) -> tuple:
    """What a load restores: content, LRU order, stats, id counter,
    version, shape, and the classes whose canonical tree has a memo
    record."""
    table = store._table
    warm = sorted(
        node_id
        for node_id, row in table.row_of.items()
        if id(table.trees[row]) in store._memo
    )
    return (
        content_checksum(store),
        [entry.node_id for entry in store.entries()],
        store.stats.as_dict(),
        table.next_id,
        store.version,
        (store.max_entries, store.memo_limit),
        warm,
    )


class TestCrossFormat:
    """A store's legacy v1 file and its v3 file load to the same store."""

    @staticmethod
    def _store(bits, bound):
        store = ExprStore(HashCombiners(bits=bits, seed=5), max_entries=bound)
        for index, item in enumerate(wall_items(bits)):
            store.intern_many([item], engine="tree" if index % 2 else "arena")
        if bound is not None:
            assert store.stats.evictions > 0
        return store

    @pytest.mark.parametrize("bound", [None, 10], ids=["flat", "lru"])
    @pytest.mark.parametrize("bits", [8, 64, 128])
    def test_v1_and_v3_files_load_alike(self, bits, bound):
        store = self._store(bits, bound)
        saved = loaded_state(store)[:6]
        v3 = snapshot_to_bytes(store)
        from_v1, _ = snapshot_from_bytes(reference_snapshot_v1(store))
        from_v3, _ = snapshot_from_bytes(v3)
        state = loaded_state(from_v1)
        assert state == loaded_state(from_v3)
        assert state[:6] == saved
        # No tree is built and nothing is memoised until it is hashed.
        assert state[6] == [] and from_v1._memo == {} and not any(from_v1._table.trees)
        assert snapshot_to_bytes(from_v1) == snapshot_to_bytes(from_v3) == v3
        for entry in list(from_v1.entries()):
            assert from_v1.hash_expr(entry.expr) == entry.hash

    def test_an_unstamped_v1_file_saves_as_v3_and_reloads(self):
        store = self._store(64, None)

        def unstamp(header, records):
            del header["version"]
            for rec in records:
                del rec["t"]

        loaded, _ = snapshot_from_bytes(redo_v1(reference_snapshot_v1(store), unstamp))
        assert loaded.version == 0
        assert {entry.version for entry in loaded.entries()} == {0}
        assert [e.hash for e in loaded.entries()] == [e.hash for e in store.entries()]
        again, _ = snapshot_from_bytes(snapshot_to_bytes(loaded))
        assert loaded_state(again) == loaded_state(loaded)


def repeat_record(data: bytes, index: int) -> bytes:
    """A snapshot with body record ``index`` repeated, its hash flipped,
    with the entry count and checksum recomputed."""
    import hashlib

    head, _, body = data.partition(b"\n")
    header = json.loads(head)
    lines = body.decode("utf-8").splitlines(keepends=True)
    rec = json.loads(lines[index])
    rec["h"] ^= 1
    copy = json.dumps(rec, separators=(",", ":"), sort_keys=True) + "\n"
    lines.append(copy)
    new_body = "".join(lines).encode("utf-8")
    header["entries"] += 1
    header["checksum"] = "sha256:" + hashlib.sha256(new_body).hexdigest()
    return (
        json.dumps(header, separators=(",", ":"), sort_keys=True).encode()
        + b"\n"
        + new_body
    )


class TestRepeatedIds:
    @pytest.mark.parametrize("make", [ExprStore], ids=["flat"])
    def test_snapshot_naming_one_id_twice_is_refused(self, make):
        """Loading such a file used to succeed with ``lookup_hash(h)``
        naming an entry that carries ``h ^ 1``."""
        store = make()
        for seed in range(12):
            store.intern(random_expr(15, seed=seed, p_let=0.2, p_lit=0.2))
        data = reference_snapshot_v1(store)
        before = (
            len(store),
            store.version,
            store.stats.as_dict(),
            content_checksum(store),
        )
        for index in (0, len(store) // 2, len(store) - 1):
            with pytest.raises(SnapshotError, match="twice"):
                snapshot_from_bytes(repeat_record(data, index))
        assert (
            len(store),
            store.version,
            store.stats.as_dict(),
            content_checksum(store),
        ) == before
        assert snapshot_to_bytes(snapshot_from_bytes(data)[0]) == (
            snapshot_to_bytes(store)
        )

    @pytest.mark.parametrize("make", [ExprStore], ids=["flat"])
    def test_v3_snapshot_naming_one_id_twice_is_refused(self, make):
        store = make()
        for seed in range(12):
            store.intern(random_expr(15, seed=seed, p_let=0.2, p_lit=0.2))
        data = snapshot_to_bytes(store)
        header, columns = split_frame(data)
        for index in (0, len(store) // 2, len(store) - 1):
            twice = {name: list(values) for name, values in columns.items()}
            for name in twice:
                if name != "hash":
                    twice[name].append(columns[name][index])
            twice["hash"].append(columns["hash"][index] ^ 1)
            with pytest.raises(SnapshotError, match="twice"):
                snapshot_from_bytes(join_frame(header, twice))
        assert snapshot_to_bytes(snapshot_from_bytes(data)[0]) == data


class TestSessionLoad:
    def test_backend_persisted_and_overridable(self, snap_path):
        session = Session()
        session.intern(parse("a b"))
        session.save(snap_path)
        assert Session.load(snap_path).backend.name == "ours"
        assert Session.load(snap_path, backend="ours_lazy").backend.name == (
            "ours_lazy"
        )

    def test_bits_and_seed_persisted(self, snap_path):
        session = Session(bits=32, seed=99)
        expr = parse(r"\x. x + 7")
        value = session.hash(expr)
        session.intern(expr)
        session.save(snap_path)
        loaded = Session.load(snap_path)
        assert loaded.combiners.bits == 32
        assert loaded.hash(parse(r"\y. y + 7")) == value

    @pytest.mark.parametrize(
        "meta, reason",
        [
            ({"config": 5}, "'config' must be an object"),
            ({"config": ["engine"]}, "'config' must be an object"),
            ({"backend": "nope"}, "is not registered"),
            ({"backend": 7}, "is not registered"),
            ({"backend": ["ours"]}, "is not registered"),
            ({"config": {"engine": "warp"}}, "'engine' must be one of"),
        ],
        ids=["config-int", "config-list", "backend-unknown", "backend-int",
             "backend-list", "engine-unknown"],
    )
    def test_meta_it_cannot_adopt_is_refused(self, meta, reason):
        store = ExprStore()
        store.intern(parse("a b"))
        data = snapshot_to_bytes(store, meta=meta)
        with pytest.raises(SnapshotError, match=reason):
            Session.from_snapshot_bytes(data)

    def test_a_backend_override_ignores_the_saved_name(self):
        store = ExprStore()
        store.intern(parse("a b"))
        data = snapshot_to_bytes(store, meta={"backend": "nope"})
        assert Session.from_snapshot_bytes(data, backend="ours").backend.name == "ours"


class TestLegacyFanoutConfig:
    """Snapshots written while sessions still carried ``workers`` /
    ``parallel_mode`` load on the one serial path; the keys are
    ignored."""

    @pytest.fixture()
    def legacy_snapshot(self, snap_path):
        corpus = [random_expr(40, seed=i, p_let=0.2) for i in range(12)]
        session = Session(engine="tree")
        hashes = session.hash_corpus(corpus)
        session.intern_many(corpus)
        config = {**asdict(session.config), "workers": 4, "parallel_mode": "spawn"}
        session.store.save(snap_path, meta={"backend": "ours", "config": config})
        return snap_path, corpus, hashes

    def _assert_serial_session(self, session, corpus, hashes):
        assert not hasattr(session.config, "workers")
        assert session.config.engine == "tree"
        assert "workers" not in session.stats()
        assert session.hash_corpus(corpus) == hashes

    def test_session_load(self, legacy_snapshot):
        path, corpus, hashes = legacy_snapshot
        self._assert_serial_session(Session.load(path), corpus, hashes)

    def test_session_from_snapshot_bytes(self, legacy_snapshot):
        path, corpus, hashes = legacy_snapshot
        with open(path, "rb") as handle:
            session = Session.from_snapshot_bytes(handle.read())
        self._assert_serial_session(session, corpus, hashes)

    def test_repro_serve_load(self, legacy_snapshot):
        from repro.service import ServiceClient

        path, corpus, hashes = legacy_snapshot
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--load", path, "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            banner = proc.stdout.readline()
            assert banner.startswith("repro serve: http://"), (
                banner + proc.stderr.read()
            )
            client = ServiceClient(banner.split()[2])
            assert client.hash_corpus(corpus) == hashes
            assert "workers" not in client.metrics()
        finally:
            proc.send_signal(signal.SIGTERM)
            try:
                returncode = proc.wait(timeout=30)
            finally:
                if proc.poll() is None:  # pragma: no cover - cleanup
                    proc.kill()
                proc.stdout.close()
                proc.stderr.close()
        assert returncode == 0


class TestSessionCLI:
    @pytest.fixture()
    def corpus_files(self, tmp_path):
        a = tmp_path / "a.lam"
        b = tmp_path / "b.lam"
        a.write_text(r"\x. x + 7")
        b.write_text(r"\y. y + 7")
        return [str(a), str(b)]

    def test_session_emits_json_records(self, capsys, corpus_files):
        assert main(["session", *corpus_files]) == 0
        records = [
            json.loads(line) for line in capsys.readouterr().out.splitlines()
        ]
        assert len(records) == 2
        # alpha-equivalent corpus: same hash, same canonical node id
        assert records[0]["hash"] == records[1]["hash"]
        assert records[0]["node_id"] == records[1]["node_id"]
        # "known" means present before this invocation's corpus was
        # added, so both copies of the fresh class report False
        assert records[0]["known"] is False and records[1]["known"] is False

    def test_session_save_load_check(self, capsys, corpus_files, tmp_path):
        snap = str(tmp_path / "session.snap")
        assert main(["session", *corpus_files, "--save", snap]) == 0
        capsys.readouterr()
        assert main(["session", "--load", snap, *corpus_files, "--check"]) == 0
        out = capsys.readouterr()
        for line in out.out.splitlines():
            assert json.loads(line)["known"] is True

    def test_session_check_fails_on_unknown_expr(self, capsys, corpus_files, tmp_path):
        snap = str(tmp_path / "session.snap")
        assert main(["session", corpus_files[0], "--save", snap]) == 0
        other = tmp_path / "other.lam"
        other.write_text("a (b c)")
        assert main(
            ["session", "--load", snap, str(other), "--check"]
        ) == 1
        assert "CHECK FAILED" in capsys.readouterr().err

    def test_session_check_counts_all_copies_of_a_missing_class(
        self, capsys, corpus_files, tmp_path
    ):
        # regression: known flags are computed before any interning, so
        # the second alpha-equivalent copy of a class absent from the
        # snapshot must also report known=false
        snap = str(tmp_path / "session.snap")
        known_file = tmp_path / "known.lam"
        known_file.write_text("k1 k2")
        assert main(["session", str(known_file), "--save", snap]) == 0
        capsys.readouterr()
        assert main(
            ["session", "--load", snap, *corpus_files, "--check"]
        ) == 1
        out = capsys.readouterr()
        records = [json.loads(line) for line in out.out.splitlines()]
        assert [r["known"] for r in records] == [False, False]
        assert "2 expression(s) not present" in out.err

    def test_session_hashes_match_hash_command(self, capsys, corpus_files):
        main(["session", corpus_files[0]])
        session_hash = json.loads(capsys.readouterr().out.splitlines()[0])["hash"]
        main(["hash", corpus_files[0]])
        assert capsys.readouterr().out.strip() == session_hash

    def test_session_stats_flag(self, capsys, corpus_files):
        assert main(["session", *corpus_files, "--stats"]) == 0
        last = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert last["backend"] == "ours" and last["entries"] > 0

    def test_session_backend_flag(self, capsys, corpus_files):
        assert main(["session", *corpus_files, "--backend", "structural"]) == 0
        records = [
            json.loads(line) for line in capsys.readouterr().out.splitlines()
        ]
        assert all(r["backend"] == "structural" for r in records)

    def test_check_works_with_non_default_backend(self, capsys, corpus_files, tmp_path):
        # regression: known/--check must be decided on the canonical
        # store hash, not the selected backend's hash
        snap = str(tmp_path / "session.snap")
        assert main(["session", *corpus_files, "--save", snap]) == 0
        capsys.readouterr()
        assert main(
            ["session", "--load", snap, "--backend", "ours_lazy",
             *corpus_files, "--check"]
        ) == 0
        records = [
            json.loads(line) for line in capsys.readouterr().out.splitlines()
        ]
        assert all(r["known"] is True for r in records)
        assert all(r["backend"] == "ours_lazy" for r in records)

    @pytest.mark.parametrize(
        "argv",
        [
            ["--no-store", "--save", "x.snap"],
            ["--no-store", "--check"],
            ["--check"],  # without --load
            ["--load", "x.snap", "--bits", "32"],
            ["--load", "x.snap", "--no-store"],
            ["--load", "x.snap", "--seed", "1"],
            ["--load", "x.snap", "--max-entries", "4"],
        ],
    )
    def test_conflicting_flags_rejected(self, capsys, corpus_files, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(["session", *corpus_files, *argv])
        assert excinfo.value.code == 2
        capsys.readouterr()
