"""Tests for incremental snapshot deltas.

A delta ships only the canonical entries interned after a version
stamp; applied to a replica seeded from a full snapshot it must
reproduce the source store bit-identically -- same classes, same
hashes, same ids -- while being idempotent under replay and loud about
truncation, tampering and mismatched stores.  The receiver recomputes
every class's summary and hash, so a frame that would install a class
under another term's hash is refused whole (the fuzz wall below), and
legacy ``repro-store-delta-v1`` frames take the same checks.
"""

import json
import random

import pytest

from repro.core.combiners import HashCombiners
from repro.gen.random_exprs import random_expr
from repro.lang.expr import App, Lit, Var
from repro.store import (
    DELTA_FORMAT,
    ExprStore,
    SnapshotError,
    apply_delta_bytes,
    content_checksum,
    delta_to_bytes,
    snapshot_from_bytes,
    snapshot_to_bytes,
)
from test_codec_bytes import reference_delta_v1


def corpus(n, seed=29, size=30):
    rng = random.Random(seed)
    return [random_expr(size, rng=rng, p_let=0.2, p_lit=0.2) for _ in range(n)]


def make_store(layout: str):
    """An empty store of ``layout``: ``flat``, the one layout there is."""
    return ExprStore(HashCombiners(bits=64, seed=7))


def entry_map(store):
    return {e.node_id: (e.hash, e.kind, e.size, e.children)
            for e in store.entries()}


#: One layout; the parameter keeps the delta tests' ids.
@pytest.fixture(params=["flat"])
def layout(request):
    return request.param


class TestVersionStamps:
    def test_version_monotonic_per_fresh_class(self, layout):
        store = make_store(layout)
        assert store.version == 0
        for expr in corpus(20):
            store.intern(expr)
        assert store.version == len(store)
        versions = sorted(e.version for e in store.entries())
        assert versions == list(range(1, len(store) + 1))

    def test_rehash_does_not_advance_version(self, layout):
        store = make_store(layout)
        items = corpus(10)
        for expr in items:
            store.intern(expr)
        before = store.version
        for expr in items:
            store.intern(expr)
        assert store.version == before

    def test_snapshot_roundtrip_preserves_versions(self, layout):
        store = make_store(layout)
        for expr in corpus(15):
            store.intern(expr)
        restored, _header = snapshot_from_bytes(snapshot_to_bytes(store))
        assert restored.version == store.version
        assert {e.node_id: e.version for e in restored.entries()} == {
            e.node_id: e.version for e in store.entries()
        }


class TestDeltaRoundTrip:
    def test_empty_delta(self, layout):
        store = make_store(layout)
        for expr in corpus(8):
            store.intern(expr)
        replica, _ = snapshot_from_bytes(snapshot_to_bytes(store))
        report = apply_delta_bytes(
            replica, delta_to_bytes(store, store.version)
        )
        assert report == {
            "applied": 0, "skipped": 0, "version": store.version
        }

    def test_since_zero_equals_full_snapshot(self, layout):
        store = make_store(layout)
        for expr in corpus(25):
            store.intern(expr)
        # An empty same-shape store at version 0 catches up from nothing.
        replica = make_store(layout)
        report = apply_delta_bytes(replica, delta_to_bytes(store, 0))
        assert report["applied"] == len(store)
        assert replica.version == store.version
        assert entry_map(replica) == entry_map(store)

    def test_incremental_catch_up_is_bit_identical(self, layout):
        store = make_store(layout)
        first, second = corpus(20, seed=3), corpus(20, seed=4)
        for expr in first:
            store.intern(expr)
        replica, _ = snapshot_from_bytes(snapshot_to_bytes(store))
        stamp = replica.version
        for expr in second:
            store.intern(expr)
        delta = delta_to_bytes(store, stamp)
        seeded = len(replica)
        report = apply_delta_bytes(replica, delta)
        assert report["applied"] == len(store) - seeded
        assert replica.version == store.version
        assert entry_map(replica) == entry_map(store)
        # The caught-up replica hashes and interns like the source:
        # every second-wave root resolves to the same id, no growth.
        before = len(replica)
        for expr in second:
            assert replica.intern(expr) == store.intern(expr)
        assert len(replica) == before

    def test_delta_smaller_than_full_snapshot(self, layout):
        store = make_store(layout)
        for expr in corpus(40, seed=5):
            store.intern(expr)
        stamp = store.version
        for expr in corpus(6, seed=6):
            store.intern(expr)
        assert len(delta_to_bytes(store, stamp)) < len(snapshot_to_bytes(store))

    def test_idempotent_replay(self, layout):
        store = make_store(layout)
        for expr in corpus(12):
            store.intern(expr)
        replica = make_store(layout)
        delta = delta_to_bytes(store, 0)
        first = apply_delta_bytes(replica, delta)
        second = apply_delta_bytes(replica, delta)
        assert second["applied"] == 0
        assert second["skipped"] == first["applied"]
        assert entry_map(replica) == entry_map(store)

    def test_overlapping_deltas(self, layout):
        store = make_store(layout)
        for expr in corpus(10, seed=8):
            store.intern(expr)
        replica = make_store(layout)
        apply_delta_bytes(replica, delta_to_bytes(store, 0))
        early_stamp = store.version // 2
        for expr in corpus(10, seed=9):
            store.intern(expr)
        # Window (early_stamp, version] overlaps what the replica holds:
        # the overlap verifies-and-skips, the tail applies.
        report = apply_delta_bytes(replica, delta_to_bytes(store, early_stamp))
        assert report["skipped"] > 0 and report["applied"] > 0
        assert entry_map(replica) == entry_map(store)


class TestDeltaValidation:
    def _pair(self, layout):
        store = make_store(layout)
        for expr in corpus(10):
            store.intern(expr)
        replica, _ = snapshot_from_bytes(snapshot_to_bytes(store))
        for expr in corpus(5, seed=11):
            store.intern(expr)
        return store, replica

    def test_since_ahead_of_history_rejected(self, layout):
        store = make_store(layout)
        store.intern(corpus(1)[0])
        with pytest.raises(SnapshotError, match="outside this store's history"):
            delta_to_bytes(store, store.version + 1)
        with pytest.raises(SnapshotError, match="outside this store's history"):
            delta_to_bytes(store, -1)

    def test_truncated_delta_rejected(self, layout):
        store, replica = self._pair(layout)
        delta = delta_to_bytes(store, replica.version)
        with pytest.raises(SnapshotError):
            apply_delta_bytes(replica, delta[: len(delta) // 2])

    def test_tampered_body_rejected(self, layout):
        store, replica = self._pair(layout)
        delta = delta_to_bytes(store, replica.version)
        head, _, body = delta.partition(b"\n")
        flipped = bytes([body[0] ^ 1]) + body[1:]
        with pytest.raises(SnapshotError, match="checksum"):
            apply_delta_bytes(replica, head + b"\n" + flipped)

    def test_garbage_header_rejected(self, layout):
        _store, replica = self._pair(layout)
        with pytest.raises(SnapshotError):
            apply_delta_bytes(replica, b"not json\n")

    def test_wrong_format_rejected(self, layout):
        store, replica = self._pair(layout)
        with pytest.raises(SnapshotError, match="not a repro-store-delta"):
            apply_delta_bytes(replica, snapshot_to_bytes(store))

    def test_combiner_mismatch_rejected(self, layout):
        store, _replica = self._pair(layout)
        delta = delta_to_bytes(store, 0)
        other = ExprStore(HashCombiners(bits=64, seed=99))
        with pytest.raises(SnapshotError, match="seed"):
            apply_delta_bytes(other, delta)

    def test_store_shape_mismatch_rejected(self, layout):
        """A frame whose header names shards came from an in-process
        sharded store: its ids are shard-encoded, so it is refused before
        any write."""
        store, replica = self._pair(layout)
        head, _, body = delta_to_bytes(store, replica.version).partition(b"\n")
        header = json.loads(head)
        assert header["num_shards"] is None
        header["num_shards"] = 4
        edited = json.dumps(header, separators=(",", ":"), sort_keys=True)
        before = content_checksum(replica), replica.version
        with pytest.raises(SnapshotError, match="sharded store"):
            apply_delta_bytes(replica, edited.encode("utf-8") + b"\n" + body)
        assert (content_checksum(replica), replica.version) == before
        apply_delta_bytes(replica, head + b"\n" + body)
        assert entry_map(replica) == entry_map(store)

    @pytest.mark.parametrize("legacy", [False, True], ids=["v2", "v1"])
    def test_a_forged_literal_is_refused_whole(self, layout, legacy):
        """An integral number under ``float`` beyond the float range, in
        the v2 header's ``literals`` (outside the checksum) or a v1
        record's payload (checksum recomputed), is a SnapshotError, and
        the replica is left as it was."""
        store, replica = self._pair(layout)
        store.intern(App(Var("f"), Lit(2.5)))
        forged = ["float", 10**400]
        if legacy:
            delta = reference_delta_v1(store, replica.version)
            head, _, body = delta.partition(b"\n")
            records = [json.loads(line) for line in body.splitlines()]
            next(rec for rec in records if rec["k"] == "Lit")["p"] = forged
            new_body = "".join(
                json.dumps(rec, separators=(",", ":"), sort_keys=True) + "\n"
                for rec in records
            ).encode("utf-8")
            import hashlib

            header = dict(
                json.loads(head),
                checksum="sha256:" + hashlib.sha256(new_body).hexdigest(),
            )
            data = json.dumps(header).encode() + b"\n" + new_body
        else:
            delta = delta_to_bytes(store, replica.version)
            head, _, body = delta.partition(b"\n")
            header = dict(json.loads(head), literals=[forged])
            data = json.dumps(header).encode() + b"\n" + body
        before = (len(replica), replica.version, content_checksum(replica))
        with pytest.raises(SnapshotError, match="float literal out of range"):
            apply_delta_bytes(replica, data)
        assert (len(replica), replica.version, content_checksum(replica)) == before

    def test_gap_rejected(self, layout):
        store, replica = self._pair(layout)
        # Emit a window starting beyond what the replica has seen.
        gap_delta = delta_to_bytes(store, replica.version + 2)
        with pytest.raises(SnapshotError, match="missing in between"):
            apply_delta_bytes(replica, gap_delta)

    @pytest.mark.parametrize(
        "field, value",
        [("s", "12"), ("v", 1.5), ("m", [["x", 1]]), ("m", {"x": "1"})],
    )
    def test_summary_field_of_wrong_type_rejected(self, layout, field, value):
        """A re-checksummed legacy delta whose biggest record carries a
        summary field of the wrong type is refused whole: no record
        applies."""
        store, replica = self._pair(layout)
        delta = reference_delta_v1(store, replica.version)
        head, _, body = delta.partition(b"\n")
        records = [json.loads(line) for line in body.splitlines()]
        biggest = max(range(len(records)), key=lambda k: records[k]["z"])
        records[biggest][field] = value
        new_body = "".join(
            json.dumps(rec, separators=(",", ":"), sort_keys=True) + "\n"
            for rec in records
        ).encode("utf-8")
        header = json.loads(head)
        import hashlib

        header["checksum"] = "sha256:" + hashlib.sha256(new_body).hexdigest()
        doc = (
            json.dumps(header, separators=(",", ":"), sort_keys=True).encode()
            + b"\n"
            + new_body
        )
        before = (len(replica), replica.version, content_checksum(replica))
        with pytest.raises(SnapshotError, match=f"'{field}' is not"):
            apply_delta_bytes(replica, doc)
        assert (
            len(replica), replica.version, content_checksum(replica)
        ) == before
        apply_delta_bytes(replica, delta)
        assert entry_map(replica) == entry_map(store)

    def test_present_entry_divergence_rejected(self, layout):
        store, replica = self._pair(layout)
        delta = reference_delta_v1(store, 0)
        head, _, body = delta.partition(b"\n")
        lines = body.decode("utf-8").splitlines()
        rec = json.loads(lines[0])
        rec["h"] ^= 1  # same id, different hash: a different store
        lines[0] = json.dumps(rec, separators=(",", ":"), sort_keys=True)
        new_body = ("\n".join(lines) + "\n").encode("utf-8")
        header = json.loads(head)
        import hashlib

        header["checksum"] = (
            "sha256:" + hashlib.sha256(new_body).hexdigest()
        )
        doc = (
            json.dumps(header, separators=(",", ":"), sort_keys=True).encode()
            + b"\n"
            + new_body
        )
        with pytest.raises(SnapshotError):
            apply_delta_bytes(replica, doc)


def repeat_record(doc: bytes, index: int) -> bytes:
    """``doc`` with body record ``index`` repeated at the end, its hash
    flipped; the header's entry count and checksum are recomputed."""
    import hashlib

    head, _, body = doc.partition(b"\n")
    lines = body.decode("utf-8").splitlines()
    rec = json.loads(lines[index])
    rec["h"] ^= 1
    lines.append(json.dumps(rec, separators=(",", ":"), sort_keys=True))
    new_body = ("\n".join(lines) + "\n").encode("utf-8")
    header = json.loads(head)
    header["entries"] += 1
    header["checksum"] = "sha256:" + hashlib.sha256(new_body).hexdigest()
    return (
        json.dumps(header, separators=(",", ":"), sort_keys=True).encode()
        + b"\n"
        + new_body
    )


class TestRepeatedIds:
    def test_delta_naming_one_id_twice_is_refused_whole(self, layout):
        """All-or-nothing: a legacy document repeating an id (the second
        copy with another hash) applies nothing, not a prefix."""
        store = make_store(layout)
        for expr in corpus(10):
            store.intern(expr)
        delta = reference_delta_v1(store, 0)
        replica = make_store(layout)
        before = (
            len(replica),
            replica.version,
            replica.stats.as_dict(),
            content_checksum(replica),
        )
        for index in (0, len(store) // 2, len(store) - 1):
            with pytest.raises(SnapshotError):
                apply_delta_bytes(replica, repeat_record(delta, index))
            assert (
                len(replica),
                replica.version,
                replica.stats.as_dict(),
                content_checksum(replica),
            ) == before
        apply_delta_bytes(replica, delta)
        assert entry_map(replica) == entry_map(store)


class TestLiveChildren:
    """A window's new rows are hashed together with the live classes
    they reach, so a name or a literal the two share must mean the same
    thing on both sides, and one they do not share must stay apart."""

    @staticmethod
    def replayed(windows, fmt):
        """Intern each window of items into a primary, replay its frames
        one by one into a fresh replica; ``(primary, replica)``."""
        primary, replica = make_store("flat"), make_store("flat")
        for items in windows:
            since = primary.version
            primary.intern_many(items, engine="tree")
            frame = (
                delta_to_bytes(primary, since)
                if fmt == "v2"
                else reference_delta_v1(primary, since)
            )
            apply_delta_bytes(replica, frame)
        return primary, replica

    @pytest.mark.parametrize("fmt", ["v2", "v1"])
    def test_a_new_binder_over_a_live_free_name(self, fmt):
        from repro.lang.parser import parse

        primary, replica = self.replayed([[parse("f x")], [parse(r"\x. f x")]], fmt)
        # The second window is the Lam alone, over the live class f x.
        assert len(primary) == 4
        assert content_checksum(replica) == content_checksum(primary)

    @pytest.mark.parametrize("fmt", ["v2", "v1"])
    def test_literals_that_compare_equal_stay_apart(self, fmt):
        from repro.lang.expr import App, Lam, Lit, Var

        def g(value):
            return App(Var("g"), Lit(value))

        windows = [
            [g(1), g(-0.0)],
            [App(g(1), Lit(1.0)), App(g(-0.0), Lit(0.0)), App(Lit(True), g(1))],
            [App(Lit(True), Lit(1.0)), Lam("x", App(Lit(0.0), Lit(-0.0)))],
        ]
        primary, replica = self.replayed(windows, fmt)
        literals = {(type(e.expr.value), str(e.expr.value)) for e in primary.entries()
                    if e.kind == "Lit"}
        assert len(literals) == 5
        assert content_checksum(replica) == content_checksum(primary)

    def test_a_row_below_size_1_is_refused_whole(self):
        """A row naming itself as both children with size -1 passes the
        size sum; it is refused, not left to fail in the install."""
        from test_codec_bytes import KIND_CODES, join_frame, split_frame

        from repro.lang.parser import parse

        primary = make_store("flat")
        primary.intern(parse("f x"))
        header, columns = split_frame(delta_to_bytes(primary, 0))
        row = columns["kind"].index(KIND_CODES["App"])
        node_id = columns["id"][row]
        columns["first"][row] = columns["second"][row] = node_id
        columns["size"][row] = -1
        replica = make_store("flat")
        with pytest.raises(SnapshotError, match="below 1"):
            apply_delta_bytes(replica, join_frame(header, columns))
        assert _state(replica) == _state(make_store("flat"))


class TestDeltaAccounting:
    def test_hash_only_traffic_between_stamps_is_invisible(self):
        # Hashing does not create entries, so a stamp window spanning
        # heavy hash traffic ships only the genuinely fresh classes.
        store = ExprStore(HashCombiners(bits=64, seed=7))
        base = corpus(10, seed=21)
        for expr in base:
            store.intern(expr)
        replica, _ = snapshot_from_bytes(snapshot_to_bytes(store))
        stamp = replica.version
        for expr in corpus(30, seed=22):
            store.hash_expr(expr)  # hashing only: no new entries
        for expr in corpus(8, seed=23):
            store.intern(expr)
        seeded = len(replica)
        report = apply_delta_bytes(replica, delta_to_bytes(store, stamp))
        assert report["applied"] == len(store) - seeded
        assert entry_map(replica) == entry_map(store)

    def test_delta_counts_fold_into_stats(self):
        store = ExprStore(HashCombiners(bits=64, seed=7))
        for expr in corpus(10, seed=31):
            store.intern(expr)
        replica = ExprStore(HashCombiners(bits=64, seed=7))
        report = apply_delta_bytes(replica, delta_to_bytes(store, 0))
        # Applied entries are accounted as misses.
        assert replica.stats.misses == report["applied"]

    def test_format_constant_in_header(self):
        store = ExprStore(HashCombiners(bits=64, seed=7))
        store.intern(corpus(1)[0])
        header = json.loads(delta_to_bytes(store, 0).partition(b"\n")[0])
        assert header["format"] == DELTA_FORMAT
        assert header["since"] == 0
        assert header["version"] == store.version


class _TouchCountingMemo(dict):
    """A memo dict counting the keys handed out by iteration."""

    touched = 0

    def __iter__(self):
        for key in super().__iter__():
            self.touched += 1
            yield key

    def __reversed__(self):
        for key in super().__reversed__():
            self.touched += 1
            yield key


class TestMemoBackfillCost:
    def test_delta_touches_only_the_fresh_records(self):
        """A journaled intern encodes a delta, which reads no memo record
        and leaves the memo as it was."""
        store = ExprStore()
        for expr in corpus(1700, seed=41):
            store.hash_expr(expr)
        assert len(store._memo) >= 50_000
        warm = dict(store._memo)
        since = store.version
        fresh = random_expr(12, seed=43, p_let=0.2)
        store.intern_many([fresh], engine="arena")  # leaves the memo cold
        store._memo = _TouchCountingMemo(store._memo)
        data = delta_to_bytes(store, since)
        assert json.loads(data.split(b"\n", 1)[0])["rows"] >= 1
        assert store._memo.touched == 0  # a frame carries no summaries
        assert store._memo == warm
        assert all(store._memo[key] is rec for key, rec in warm.items())


# -- every class's hash is checked -----------------------------------------------


def _frame_with(doc: bytes, **changes) -> bytes:
    """``doc`` (delta-v2) with its largest row's columns changed."""
    from test_codec_bytes import join_frame, split_frame

    header, columns = split_frame(doc)
    row = max(range(header["rows"]), key=lambda r: columns["size"][r])
    for name, value in changes.items():
        columns[name][row] = value
    return join_frame(header, columns)


def _v1_with(doc: bytes, **changes) -> bytes:
    """``doc`` (delta-v1) with its largest record's fields changed and
    the checksum recomputed."""
    import hashlib

    head, _, body = doc.partition(b"\n")
    records = [json.loads(line) for line in body.splitlines()]
    biggest = max(records, key=lambda rec: rec["z"])
    biggest.update(changes)
    new_body = "".join(
        json.dumps(rec, separators=(",", ":"), sort_keys=True) + "\n"
        for rec in records
    ).encode("utf-8")
    header = dict(
        json.loads(head), checksum="sha256:" + hashlib.sha256(new_body).hexdigest()
    )
    return json.dumps(header, separators=(",", ":"), sort_keys=True).encode() + (
        b"\n" + new_body
    )


def _state(store):
    return len(store), store.version, content_checksum(store)


class TestNoSilentMerge:
    """A frame that would install ``\\y. f y 2`` under the hash of
    ``\\y. g y 3`` is refused whole, in either format: the replica's
    intern of the second term must never return the first's class."""

    F, G = r"\y. f y 2", r"\y. g y 3"

    def _pair(self):
        from repro.lang.parser import parse

        primary = make_store("flat")
        primary.intern(parse(self.F))
        other = make_store("flat")
        g_hash = other.hash_of(other.intern(parse(self.G)))
        return primary, g_hash

    @pytest.mark.parametrize("fmt", ["v1", "v2"])
    def test_another_terms_hash_is_refused(self, fmt):
        from repro.lang.alpha import alpha_equivalent
        from repro.lang.parser import parse

        primary, g_hash = self._pair()
        doc = (
            _frame_with(delta_to_bytes(primary, 0), hash=g_hash)
            if fmt == "v2"
            else _v1_with(reference_delta_v1(primary, 0), h=g_hash)
        )
        replica = make_store("flat")
        with pytest.raises(SnapshotError, match="hashes to"):
            apply_delta_bytes(replica, doc)
        assert _state(replica) == (0, 0, content_checksum(make_store("flat")))
        node_id = replica.intern(parse(self.G))
        assert alpha_equivalent(replica.expr_of(node_id), parse(self.G))

    @pytest.mark.parametrize("field", ["h", "s", "v", "m"])
    def test_legacy_summary_or_hash_change_is_refused(self, field):
        primary, _g_hash = self._pair()
        doc = reference_delta_v1(primary, 0)
        records = [json.loads(line) for line in doc.partition(b"\n")[2].splitlines()]
        biggest = max(records, key=lambda rec: rec["z"])
        value = (
            {**biggest["m"], "y": 1} if field == "m" else biggest[field] ^ 1
        )
        replica = make_store("flat")
        with pytest.raises(SnapshotError, match="hashes to|summary"):
            apply_delta_bytes(replica, _v1_with(doc, **{field: value}))
        assert len(replica) == 0 and replica.version == 0
        apply_delta_bytes(replica, doc)
        assert entry_map(replica) == entry_map(primary)


class _Feed:
    """Stands in for a follower's primary: serves one fixed frame."""

    doc = b""

    def fetch_delta(self, since):
        return self.doc


def _fuzz_cases(frame: bytes, primary, since: int, seed: int = 2024):
    """``(name, doc)`` mutations of the delta-v2 ``frame`` (window
    ``(since, primary.version]``), each of which must be refused whole.

    Byte flips (checksum recomputed) hit the columns the receiver can
    check against content: hash, size, kind, children, and the labels
    of Var and Lit rows.  An id, a version stamp or a binder's name can
    be rewritten into another valid frame (a binder's name does not
    change the alpha-hash), so those get the domain cases only."""
    from test_codec_bytes import V2_COLUMNS, join_frame, split_frame

    rng = random.Random(seed)
    header, columns = split_frame(frame)
    rows = header["rows"]
    head_len = frame.index(b"\n") + 1
    words = 1 if header["bits"] <= 64 else 2
    cases = []

    # Truncation at every column boundary, inside the header, at random.
    boundary = head_len
    for name, code in V2_COLUMNS:
        boundary += len(columns[name]) * (1 if code == "B" else 8)
        if boundary < len(frame):
            cases.append((f"cut@{name}", frame[:boundary]))
    cases.append(("cut@header", frame[: head_len // 2]))
    cases.append(("cut@newline", frame[: head_len - 1]))
    for _ in range(6):
        cut = rng.randrange(head_len, len(frame))
        cases.append((f"cut@{cut}", frame[:cut]))

    def mutated(edits):
        cols = {name: list(values) for name, values in columns.items()}
        for (name, row), value in edits.items():
            cols[name][row] = value
        return join_frame(header, cols)

    def flip(value, bits, signed):
        value = (value & (1 << 64) - 1) ^ 1 << rng.randrange(bits)
        if signed and value >= 1 << 63:
            value -= 1 << 64
        return value

    checkable = [r for r in range(rows) if columns["kind"][r] in (0, 1)]
    for _ in range(40):
        name = rng.choice(["hash", "size", "kind", "first", "second", "label"])
        row = rng.choice(checkable if name == "label" else range(rows))
        if name == "hash":
            index = row * words + rng.randrange(words)
            value = flip(columns["hash"][index], 64, False)
            cols = {n: list(v) for n, v in columns.items()}
            cols["hash"][index] = value
            cases.append((f"flip hash[{row}]", join_frame(header, cols)))
            continue
        bits = 8 if name == "kind" else 64
        value = flip(columns[name][row], bits, name != "kind")
        cases.append((f"flip {name}[{row}]", mutated({(name, row): value})))

    top = max(range(rows), key=lambda r: columns["size"][r])
    leaf = next(r for r in range(rows) if columns["kind"][r] == 0)
    held = next(iter(primary.entries()))
    cases += [
        ("hash of a live class", mutated({("hash", top * words): held.hash})),
        ("size off by one", mutated({("size", top): columns["size"][top] + 1})),
        ("unknown child", mutated({("first", top): 10**9})),
        ("kind 5", mutated({("kind", leaf): 5})),
        ("label past names", mutated({("label", leaf): len(header["names"])})),
        ("Var with a child", mutated({("first", leaf): columns["id"][top]})),
        ("version at since", mutated({("version", top): since})),
        ("version past header", mutated({("version", top): primary.version + 1})),
        ("negative id", mutated({("id", top): -5})),
    ]
    twice = {name: list(values) for name, values in columns.items()}
    for name in twice:
        if name == "hash":
            twice[name] += columns[name][top * words : (top + 1) * words]
        else:
            twice[name].append(columns[name][top])
    cases.append(("id given twice", join_frame(header, twice)))
    return cases


class TestFrameFuzzWall:
    """Seeded mutations of one delta-v2 frame, each refused whole through
    ``apply_delta_bytes``, ``Journal.replay`` and a follower's
    ``sync_once``: ``store.version``, ``len(store)`` and the content
    checksum are as before each refusal, and the intact frame then
    applies through all three."""

    @staticmethod
    def _primary():
        """The primary, the frame up to a mid stamp, and that stamp."""
        store = make_store("flat")
        for expr in corpus(12, seed=61):
            store.intern(expr)
        first, since = delta_to_bytes(store, 0), store.version
        for expr in corpus(12, seed=62):
            store.intern(expr)
        return store, first, since

    def test_every_case_is_refused_whole(self, tmp_path):
        from repro.service.server import ReproServer
        from repro.store import Journal, JournalError
        from repro.store.journal import _frame_bytes

        primary, first, since = self._primary()
        frame = delta_to_bytes(primary, since)
        cases = _fuzz_cases(frame, primary, since)
        assert len(cases) > 60

        replica = make_store("flat")
        apply_delta_bytes(replica, first)
        before = _state(replica)
        follower = ReproServer(port=0, follow="http://127.0.0.1:9", bits=64, seed=7)
        feed = _Feed()
        try:
            follower._follower.client = feed
            apply_delta_bytes(follower.session.store, first)
            follower_before = _state(follower.session.store)
            for index, (name, doc) in enumerate(cases):
                with pytest.raises(SnapshotError):
                    apply_delta_bytes(replica, doc)
                assert _state(replica) == before, name

                wal = tmp_path / f"wal{index}"
                wal.mkdir()
                (wal / "journal-00000001.wal").write_bytes(
                    _frame_bytes(first) + _frame_bytes(doc)
                )
                with pytest.raises((SnapshotError, JournalError)):
                    Journal(str(wal), fsync=False).replay(replica)
                assert _state(replica) == before, name

                feed.doc = doc
                with pytest.raises(SnapshotError):
                    follower.sync_from_primary()
                assert _state(follower.session.store) == follower_before, name

            feed.doc = frame
            assert follower.sync_from_primary()["applied"] > 0
            assert content_checksum(follower.session.store) == content_checksum(primary)
        finally:
            follower.close()
        wal = tmp_path / "intact"
        wal.mkdir()
        (wal / "journal-00000001.wal").write_bytes(
            _frame_bytes(first) + _frame_bytes(frame)
        )
        Journal(str(wal), fsync=False).replay(replica)
        assert content_checksum(replica) == content_checksum(primary)
