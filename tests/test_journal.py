"""Tests for the write-ahead journal.

The journal's contract: every acknowledged intern batch is a
checksummed delta frame on disk, and any crash -- mid-frame, mid-apply,
mid-checkpoint -- recovers to either the exact pre-crash store or a
verified prefix of it, never a half-applied hybrid.  Differential
tests compare a recovered store's content fingerprint against the
original; corruption that is *not* a crash artefact must fail loudly.
"""

import errno
import json
import os
import random

import pytest

from repro.core.combiners import HashCombiners
from repro.gen.random_exprs import random_expr
from repro.lang.parser import parse
from repro.store import (
    ExprStore,
    Journal,
    JournalError,
    SnapshotError,
    apply_delta_bytes,
    content_checksum,
    delta_to_bytes,
)
from repro.store.journal import FRAME_MAGIC, _frame_bytes


def corpus(n, seed=31, size=30):
    rng = random.Random(seed)
    return [random_expr(size, rng=rng, p_let=0.2, p_lit=0.2) for _ in range(n)]


def make_store():
    return ExprStore(HashCombiners(bits=64, seed=7))


def journaled_store(tmp_path, batches=4, per_batch=10):
    """A store built in batches, each batch journaled as one frame."""
    directory = str(tmp_path / "wal")
    journal = Journal(directory, fsync=False)
    store = make_store()
    items = corpus(batches * per_batch)
    for batch in range(batches):
        for expr in items[batch * per_batch : (batch + 1) * per_batch]:
            store.intern(expr)
        journal.append_delta(store)
    journal.close()
    return store, directory


class TestAppendReplay:
    def test_replay_rebuilds_exact_store(self, tmp_path):
        store, directory = journaled_store(tmp_path)
        recovered = make_store()
        report = Journal(directory, fsync=False).replay(recovered)
        assert report["applied"] == len(store)
        assert report["truncated_bytes"] == 0
        assert recovered.version == store.version
        assert content_checksum(recovered) == content_checksum(store)

    def test_replay_is_idempotent(self, tmp_path):
        store, directory = journaled_store(tmp_path)
        recovered = make_store()
        journal = Journal(directory, fsync=False)
        journal.replay(recovered)
        again = journal.replay(recovered)
        assert again["applied"] == 0
        assert again["skipped_frames"] == again["frames"]
        assert content_checksum(recovered) == content_checksum(store)

    def test_empty_window_appends_nothing(self, tmp_path):
        journal = Journal(str(tmp_path / "wal"), fsync=False)
        store = make_store()
        assert journal.append_delta(store) is None
        store.intern(corpus(1)[0])
        assert journal.append_delta(store) is not None
        assert journal.append_delta(store) is None  # window already covered

    def test_segment_rotation_and_order(self, tmp_path):
        directory = str(tmp_path / "wal")
        journal = Journal(directory, max_segment_bytes=1, fsync=False)
        store = make_store()
        for expr in corpus(12):
            store.intern(expr)
            journal.append_delta(store)
        assert len(journal.segments()) >= 3  # 1-byte cap: every frame rotates
        recovered = make_store()
        Journal(directory, fsync=False).replay(recovered)
        assert content_checksum(recovered) == content_checksum(store)


class TestCrashArtefacts:
    def test_torn_tail_truncates_to_last_good_frame(self, tmp_path):
        store, directory = journaled_store(tmp_path)
        last = Journal(directory, fsync=False).segments()[-1]
        size = os.path.getsize(last)
        with open(last, "r+b") as handle:
            handle.truncate(size - 7)  # crash mid-frame-write
        recovered = make_store()
        report = Journal(directory, fsync=False).replay(recovered)
        assert report["truncated_bytes"] > 0
        # The torn frame is gone; everything before it survived intact.
        assert 0 < recovered.version < store.version
        # Differential: recovered == the intact frame prefix re-applied
        # to a fresh store.
        replayed = make_store()
        for _path, payload in Journal(directory, fsync=False).iter_frames():
            apply_delta_bytes(replayed, payload)
        assert content_checksum(recovered) == content_checksum(replayed)

    def test_torn_tail_then_append_then_recover(self, tmp_path):
        """Crash, truncate on boot, keep writing, recover again."""
        store, directory = journaled_store(tmp_path)
        last = Journal(directory, fsync=False).segments()[-1]
        with open(last, "r+b") as handle:
            handle.truncate(os.path.getsize(last) - 3)
        node = make_store()
        journal = Journal(directory, fsync=False)
        journal.replay(node)
        for expr in corpus(10, seed=91):
            node.intern(expr)
        journal.append_delta(node)
        journal.close()
        recovered = make_store()
        Journal(directory, fsync=False).replay(recovered)
        assert content_checksum(recovered) == content_checksum(node)

    def test_fresh_journal_never_appends_to_unverified_tail(self, tmp_path):
        """Without replay(), appends open a NEW segment: a torn tail in
        the previous one must stay a *tail* until recovery truncates it."""
        store, directory = journaled_store(tmp_path, batches=2)
        before = Journal(directory, fsync=False).segments()
        journal = Journal(directory, fsync=False)  # no replay()
        store.intern(corpus(1, seed=55)[0])
        journal.append_delta(store, since=store.version - 1)
        after = journal.segments()
        journal.close()
        assert len(after) == len(before) + 1

    def test_duplicated_frame_skips_cleanly(self, tmp_path):
        store, directory = journaled_store(tmp_path, batches=2)
        journal = Journal(directory, fsync=False)
        frames = [payload for _path, payload in journal.iter_frames()]
        # Re-append the first frame at the end: version goes backwards.
        journal.append_bytes(frames[0])
        journal.close()
        recovered = make_store()
        report = Journal(directory, fsync=False).replay(recovered)
        assert report["skipped_frames"] == 1
        assert content_checksum(recovered) == content_checksum(store)


class TestNonTailCorruption:
    def test_non_final_segment_damage_fails_loudly(self, tmp_path):
        directory = str(tmp_path / "wal")
        journal = Journal(directory, max_segment_bytes=1, fsync=False)
        store = make_store()
        for expr in corpus(6):
            store.intern(expr)
            journal.append_delta(store)
        journal.close()
        first = Journal(directory, fsync=False).segments()[0]
        data = bytearray(open(first, "rb").read())
        data[len(FRAME_MAGIC) + 8 + 32 + 5] ^= 0xFF  # payload byte of frame 0
        open(first, "wb").write(bytes(data))
        # Damage in a non-final segment is not a crash artefact.
        with pytest.raises(JournalError, match="corrupt frame"):
            Journal(directory, fsync=False).replay(make_store())

    def test_reordered_segment_fails_loudly(self, tmp_path):
        _store, directory = journaled_store(tmp_path, batches=3, per_batch=4)
        journal = Journal(directory, max_segment_bytes=1, fsync=False)
        # Force multiple segments by rewriting the journal 1-frame-per-segment.
        frames = [payload for _path, payload in journal.iter_frames()]
        for path in journal.segments():
            os.remove(path)
        for payload in frames:
            journal.append_bytes(payload)
        journal.close()
        paths = Journal(directory, fsync=False).segments()
        assert len(paths) >= 3
        # Drop a middle segment: the sequence gap must be detected.
        os.remove(paths[1])
        with pytest.raises(JournalError, match="sequence gap"):
            Journal(directory, fsync=False).replay(make_store())

    def test_swapped_segment_contents_fail_as_version_gap(self, tmp_path):
        _store, directory = journaled_store(tmp_path, batches=3, per_batch=4)
        journal = Journal(directory, max_segment_bytes=1, fsync=False)
        frames = [payload for _path, payload in journal.iter_frames()]
        for path in journal.segments():
            os.remove(path)
        # Segments renumbered contiguously but holding reordered
        # history: the delta version chain must refuse the gap.
        for payload in [frames[1], frames[0]] + frames[2:]:
            journal.append_bytes(payload)
        journal.close()
        with pytest.raises(SnapshotError, match="delta starts at version"):
            Journal(directory, fsync=False).replay(make_store())


class TestCrashMidApply:
    """apply_delta_bytes is all-or-nothing per frame: a frame that
    cannot fully apply must leave the store untouched."""

    def _delta_with_bad_record(self, source, mutate):
        """``source``'s delta from 0 with its middle row changed by
        ``mutate(columns, row)``; the checksum is recomputed so the
        *row validation* layer is what must catch it."""
        from test_codec_bytes import join_frame, split_frame

        header, columns = split_frame(delta_to_bytes(source, 0))
        mutate(columns, header["rows"] // 2)
        return join_frame(header, columns)

    def test_malformed_record_leaves_store_untouched(self):
        source = make_store()
        for expr in corpus(8, seed=77):
            source.intern(expr)
        data = self._delta_with_bad_record(
            source, lambda columns, row: columns["kind"].__setitem__(row, 9)
        )
        target = make_store()
        for expr in corpus(3, seed=5):
            target.intern(expr)
        before = content_checksum(target)
        version = target.version
        with pytest.raises(SnapshotError, match="unknown kind"):
            apply_delta_bytes(target, data)
        assert content_checksum(target) == before
        assert target.version == version

    def test_conflicting_record_leaves_store_untouched(self):
        """A row disagreeing with an entry the store already holds
        (split-brain artefact) is rejected before any mutation."""
        source = make_store()
        items = corpus(6, seed=7)
        for expr in items:
            source.intern(expr)
        # Target already holds the same classes; corrupt one row's hash
        # so it conflicts with the existing entry.
        target = make_store()
        for expr in items:
            target.intern(expr)
        data = self._delta_with_bad_record(
            source, lambda columns, row: columns["hash"].__setitem__(
                row, columns["hash"][row] ^ 1
            )
        )
        before = content_checksum(target)
        with pytest.raises(SnapshotError, match="disagrees"):
            apply_delta_bytes(target, data)
        assert content_checksum(target) == before


class TestCheckpointGC:
    def test_checkpoint_covers_and_gcs_segments(self, tmp_path):
        directory = str(tmp_path / "wal")
        journal = Journal(directory, max_segment_bytes=1, fsync=False)
        store = make_store()
        for expr in corpus(10):
            store.intern(expr)
            journal.append_delta(store)
        segments_before = len(journal.segments())
        report = journal.checkpoint(store)
        assert journal.load_checkpoint_bytes() is not None
        # Everything but the open segment is covered and removed.
        assert len(report["removed"]) == segments_before - 1
        journal.close()

    def test_recovery_from_checkpoint_plus_tail(self, tmp_path):
        from repro.api import Session

        directory = str(tmp_path / "wal")
        journal = Journal(directory, max_segment_bytes=1, fsync=False)
        store = make_store()
        items = corpus(12, seed=3)
        for expr in items[:8]:
            store.intern(expr)
            journal.append_delta(store)
        journal.checkpoint(store)
        for expr in items[8:]:
            store.intern(expr)
            journal.append_delta(store)
        journal.close()
        # Boot path: seed from the checkpoint, replay the tail.
        recovery = Journal(directory, fsync=False)
        session = Session.from_snapshot_bytes(recovery.load_checkpoint_bytes())
        report = recovery.replay(session.store)
        assert report["applied"] > 0
        assert session.store.version == store.version
        assert content_checksum(session.store) == content_checksum(store)
        session.close()

    def test_gc_never_removes_uncovered_segments(self, tmp_path):
        directory = str(tmp_path / "wal")
        journal = Journal(directory, max_segment_bytes=1, fsync=False)
        store = make_store()
        for expr in corpus(6):
            store.intern(expr)
            journal.append_delta(store)
        # Covered only up to an early version: later segments survive.
        report = journal.gc(covered_version=1)
        journal.close()
        recovered = make_store()
        Journal(directory, fsync=False).replay(recovered)
        assert recovered.version == store.version

    def test_concurrent_appends_and_checkpoint_gc_stay_consistent(
        self, tmp_path
    ):
        """Appends (with segment rotation) race checkpoint writes and
        their GC on purpose: the journal's internal mutex must keep the
        segment layout settled, and replay must still rebuild the exact
        store."""
        import threading

        directory = str(tmp_path / "wal")
        journal = Journal(directory, max_segment_bytes=1, fsync=False)
        store = make_store()
        # Plays the service lock: serializes appends and snapshot
        # encodes, exactly like ReproServer does -- checkpoint *writes*
        # deliberately run outside it.
        lock = threading.Lock()
        stop = threading.Event()
        failures = []

        def checkpointer():
            try:
                while not stop.is_set():
                    with lock:
                        data = journal.encode_checkpoint(store)
                        version = store.version
                    journal.write_checkpoint(data, version)
            except Exception as exc:  # surfaces in the main thread
                failures.append(exc)

        thread = threading.Thread(target=checkpointer)
        thread.start()
        try:
            for expr in corpus(40, seed=5):
                with lock:
                    store.intern(expr)
                    journal.append_delta(store)
        finally:
            stop.set()
            thread.join()
        journal.close()
        assert not failures, failures

        from repro.api import Session

        recovery = Journal(directory, fsync=False)
        checkpoint_bytes = recovery.load_checkpoint_bytes()
        assert checkpoint_bytes is not None
        session = Session.from_snapshot_bytes(checkpoint_bytes)
        recovery.replay(session.store)
        assert session.store.version == store.version
        assert content_checksum(session.store) == content_checksum(store)
        session.close()


class TestStaleCheckpointFlusher:
    def test_stale_flusher_never_overwrites_newer_checkpoint(self, tmp_path):
        """The lost-update interleaving: flusher A swaps out checkpoint
        vN and stalls; flusher B swaps a later vM, writes it, and GC
        drops the segments vM covers; A wakes up.  A's older snapshot
        must be skipped, not ``os.replace``'d over B's -- recovery
        would otherwise start from vN with the frames for (N, M]
        already deleted."""
        from repro.api import Session
        from repro.service.server import ReproServer

        directory = str(tmp_path / "wal")
        server = ReproServer(port=0, journal=directory, checkpoint_every=1)
        try:
            store = server.session.store
            items = corpus(8, seed=11)
            with server.lock:
                for expr in items[:4]:
                    store.intern(expr)
                server.journal_commit()
                # Flusher A: swaps the pending checkpoint out, then
                # stalls before writing it.
                stale, server._pending_checkpoint = (
                    server._pending_checkpoint,
                    None,
                )
            assert stale is not None
            # Flusher B: a later batch comes due and is fully flushed.
            with server.lock:
                for expr in items[4:]:
                    store.intern(expr)
                server.journal_commit()
            assert server.flush_checkpoint() is not None
            newer = server.journal.load_checkpoint_bytes()
            # Flusher A wakes up and tries to write its older snapshot.
            with server.lock:
                server._pending_checkpoint = stale
            assert server.flush_checkpoint() is None
            assert server.journal.load_checkpoint_bytes() == newer
            # Recovery from what is on disk reproduces the full store.
            recovery = Journal(directory, fsync=False)
            session = Session.from_snapshot_bytes(
                recovery.load_checkpoint_bytes()
            )
            recovery.replay(session.store)
            assert content_checksum(session.store) == content_checksum(store)
            session.close()
        finally:
            server.close()


class TestContentChecksum:
    def test_checksum_ignores_recency_and_stats(self):
        a = make_store()
        b = make_store()
        items = corpus(10, seed=41)
        for expr in items:
            a.intern(expr)
        for expr in items:
            b.intern(expr)
        for expr in items:  # extra touches: stats/LRU differ, content equal
            b.intern(expr)
        assert content_checksum(a) == content_checksum(b)

    def test_checksum_sees_content(self):
        a = make_store()
        b = make_store()
        items = corpus(10, seed=43)
        for expr in items:
            a.intern(expr)
        for expr in items[:-1]:
            b.intern(expr)
        assert content_checksum(a) != content_checksum(b)


class TestBoundedReplay:
    """Deltas carry no evictions: a replayed bounded store still holds a
    class the primary evicted, next to the id that re-created it."""

    @staticmethod
    def assert_lookup_sound(store, hashes):
        live = {entry.node_id: entry.hash for entry in store.entries()}
        for hash_value in hashes:
            found = store.lookup_hash(hash_value)
            assert found is None or live.get(found) == hash_value

    @pytest.mark.parametrize("make", [lambda: ExprStore(max_entries=6)], ids=["flat"])
    def test_replayed_store_interns_past_a_recreated_class(self, tmp_path, make):
        directory = str(tmp_path / "wal")
        journal = Journal(directory, fsync=False)
        primary = make()

        def intern(text):
            node_id = primary.intern(parse(text))
            journal.append_delta(primary)
            return node_id

        first = intern(r"\q. q + 99")
        for i in range(10):
            intern(f"f{i} (g{i} {i})")  # evicts the class above
        recreated = intern(r"\z. z + 99")  # the same class, a new id
        journal.close()
        assert recreated != first

        replica = make()
        Journal(directory, fsync=False).replay(replica)
        assert first in replica and recreated in replica
        assert replica.lookup_hash(primary.hash_of(recreated)) == recreated
        hashes = {entry.hash for entry in replica.entries()}
        self.assert_lookup_sound(replica, hashes)
        for i in range(20):
            node_id = replica.intern(parse(f"k{i} (m{i} {i})"))
            hashes.add(replica.hash_of(node_id))
            self.assert_lookup_sound(replica, hashes)


def mixed_corpus(n, seed=53, size=40):
    """``n`` items with same-object repeats and alpha-renamed copies."""
    from repro.gen.random_exprs import alpha_rename

    rng = random.Random(seed)
    items = []
    for index in range(n):
        draw = rng.random()
        if items and draw < 0.15:
            items.append(rng.choice(items))
        elif items and draw < 0.4:
            items.append(alpha_rename(rng.choice(items), seed=index))
        else:
            items.append(random_expr(size, rng=rng, p_let=0.2, p_lit=0.2))
    return items


class TestArenaInternedWindows:
    """An arena intern leaves the summary memo cold; its window must be
    the frame a tree intern writes, and replay like one -- the replaying
    store's own arena pass checks every hash, and like the arena intern
    it leaves the memo cold and builds no tree."""

    @pytest.mark.parametrize("make", [ExprStore], ids=["flat"])
    def test_arena_windows_equal_tree_windows(self, make):
        items = mixed_corpus(200)
        frames = {}
        for engine in ("tree", "arena"):
            store = make(HashCombiners(bits=64, seed=7))
            frames[engine] = []
            for lo in range(0, len(items), 25):
                since = store.version
                store.intern_many(items[lo : lo + 25], engine=engine)
                frames[engine].append(delta_to_bytes(store, since))
        assert len(frames["arena"]) == 8
        assert frames["arena"] == frames["tree"]

    @pytest.mark.parametrize("shape", [{}], ids=["flat"])
    def test_server_restarts_from_arena_planned_frames(self, tmp_path, shape):
        from repro.core.hashed import alpha_hash_all
        from repro.lang.expr import App
        from repro.lang.sexpr import to_wire
        from repro.service import ServiceClient
        from repro.service.server import ReproServer

        directory = str(tmp_path / "wal")
        items = mixed_corpus(330, seed=59)
        with ReproServer(
            port=0, journal=Journal(directory, fsync=False), **shape
        ) as server:
            client = ServiceClient(server.url)
            ids = []
            for lo in range(0, len(items), 110):
                batch = items[lo : lo + 110]
                assert sum(expr.size for expr in batch) >= 4_000
                reply = client.intern_wire([to_wire(e) for e in batch])
                assert reply["plan"]["engine"] == "arena"
                ids += reply["ids"]
            checksum = content_checksum(server.session.store)

        with ReproServer(
            port=0, journal=Journal(directory, fsync=False), **shape
        ) as restarted:
            store = restarted.session.store
            assert restarted.replay_report["applied"] == len(store)
            assert content_checksum(store) == checksum
            # Replay builds no tree and memoises nothing: each journaled
            # class's tree is built on request and hashes to its class.
            assert not any(store._table.trees)
            trees = [store.expr_of(node_id) for node_id in ids]
            assert store._memo == {}
            for node_id, tree in zip(ids, trees):
                assert store.hash_expr(tree) == store.hash_of(node_id)
            # And the journaled summaries resume a parent's hash exactly.
            probe = App(store.expr_of(ids[0]), store.expr_of(ids[-1]))
            assert store.hash_expr(probe) == (
                alpha_hash_all(probe, store.combiners).root_hash
            )


def small_journal(tmp_path, frames=3):
    """One segment of ``frames`` small frames; ``(directory, path,
    extents, acked)`` with each frame's ``(start, end)`` byte extent and
    the version each append acknowledged."""
    directory = str(tmp_path / "wal")
    journal = Journal(directory, fsync=False)
    store = make_store()
    acked = []
    for index in range(frames):
        store.intern(parse(f"f{index} (\\y. g y {index})"))
        acked.append(journal.append_delta(store)["version"])
    journal.close()
    [path] = journal.segments()
    data = open(path, "rb").read()
    extents, offset = [], 0
    while offset < len(data):
        end = offset + 44 + int.from_bytes(data[offset + 4 : offset + 12], "big")
        extents.append((offset, end))
        offset = end
    return directory, path, extents, acked


class TestTailRule:
    """Only damage that runs to the end of the last segment is a torn
    tail; damage with an intact frame after it raises and leaves the
    file as it was, so no acknowledged frame is truncated away."""

    def test_a_flip_in_any_frame_but_the_last_raises(self, tmp_path):
        directory, path, extents, _acked = small_journal(tmp_path)
        data = open(path, "rb").read()
        for start, end in extents[:-1]:
            for position in range(start, end):
                damaged = bytearray(data)
                damaged[position] ^= 0x40
                open(path, "wb").write(bytes(damaged))
                with pytest.raises(JournalError, match="corrupt frame"):
                    Journal(directory, fsync=False).replay(make_store())
                assert open(path, "rb").read() == bytes(damaged), position

    def test_a_cut_last_frame_recovers_the_prefix_at_every_offset(self, tmp_path):
        directory, path, extents, acked = small_journal(tmp_path)
        data = open(path, "rb").read()
        start, end = extents[-1]
        prefix = make_store()
        for payload in (data[s + 44 : e] for s, e in extents[:-1]):
            apply_delta_bytes(prefix, payload)
        for cut in range(start, end):
            open(path, "wb").write(data[:cut])
            store = make_store()
            report = Journal(directory, fsync=False).replay(store)
            assert report["truncated_bytes"] == cut - start, cut
            assert store.version == acked[-2]
            assert content_checksum(store) == content_checksum(prefix)
            assert os.path.getsize(path) == start

    def test_a_zero_filled_or_mismatched_tail_is_torn(self, tmp_path):
        directory, path, extents, acked = small_journal(tmp_path)
        data = open(path, "rb").read()
        start, end = extents[-1]
        damaged = bytearray(data)
        damaged[end - 1] ^= 1  # digest mismatch on the frame ending at EOF
        for tail in (bytes(damaged), data[:start] + bytes(end - start)):
            open(path, "wb").write(tail)
            store = make_store()
            report = Journal(directory, fsync=False).replay(store)
            assert report["truncated_bytes"] == end - start
            assert store.version == acked[-2]


class _HalfWrite:
    """A segment handle whose first write stops halfway with ENOSPC."""

    def __init__(self, handle):
        self.handle = handle
        self.failed = False

    def write(self, data):
        if not self.failed:
            self.failed = True
            self.handle.write(bytes(data[: len(data) // 2]))
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.handle.write(data)

    def __getattr__(self, name):
        return getattr(self.handle, name)


class TestFailedAppend:
    def test_a_half_written_frame_is_cut_off_before_the_next(self, tmp_path):
        directory = str(tmp_path / "wal")
        journal = Journal(directory, fsync=False)
        store = make_store()
        items = corpus(9, seed=17)
        acked = []
        for expr in items[:3]:
            store.intern(expr)
        acked.append(journal.append_delta(store)["version"])
        journal._handle = _HalfWrite(journal._handle)
        for expr in items[3:6]:
            store.intern(expr)
        with pytest.raises(OSError, match="No space"):
            journal.append_delta(store)
        for expr in items[6:]:
            store.intern(expr)
        acked.append(journal.append_delta(store)["version"])
        journal.close()
        recovered = make_store()
        report = Journal(directory, fsync=False).replay(recovered)
        assert report["truncated_bytes"] == 0
        assert report["frames"] == 2
        assert recovered.version == acked[-1] == store.version
        assert content_checksum(recovered) == content_checksum(store)

    def test_an_undo_that_fails_refuses_later_appends(self, tmp_path):
        directory = str(tmp_path / "wal")
        journal = Journal(directory, fsync=False)
        store = make_store()
        store.intern(corpus(1, seed=19)[0])
        acked = journal.append_delta(store)["version"]

        class _Stuck(_HalfWrite):
            def truncate(self, size):
                raise OSError(errno.EIO, "I/O error")

        journal._handle = _Stuck(journal._handle)
        store.intern(corpus(1, seed=20)[0])
        with pytest.raises(OSError, match="No space"):
            journal.append_delta(store)
        with pytest.raises(JournalError, match="refuses appends"):
            journal.append_delta(store)
        journal.close()
        recovered = make_store()
        report = Journal(directory, fsync=False).replay(recovered)
        assert report["truncated_bytes"] > 0  # the half frame, a torn tail
        assert recovered.version == acked


class TestLegacyFrames:
    """Journals written before the column frames hold delta-v1 frames;
    they replay to the store a v2 journal of the same batches gives."""

    def test_v1_and_v2_journals_replay_alike(self, tmp_path):
        from test_codec_bytes import reference_delta_v1

        directories = {fmt: str(tmp_path / fmt) for fmt in ("v1", "v2")}
        journals = {fmt: Journal(d, fsync=False) for fmt, d in directories.items()}
        store = make_store()
        items = mixed_corpus(60, seed=23)
        for lo in range(0, len(items), 15):
            since = journals["v2"].version
            store.intern_many(items[lo : lo + 15], engine="arena" if lo % 2 else "tree")
            journals["v2"].append_delta(store)
            journals["v1"].append_bytes(
                reference_delta_v1(store, since, meta={"journal": True})
            )
        for journal in journals.values():
            journal.close()
        checksums = {}
        for fmt, directory in directories.items():
            recovered = make_store()
            Journal(directory, fsync=False).replay(recovered)
            checksums[fmt] = content_checksum(recovered)
            trees = [(entry.expr, entry.hash) for entry in recovered.entries()]
            assert recovered._memo == {}  # nothing memoised before it is hashed
            for tree, top in trees:
                assert recovered.hash_expr(tree) == top
        assert checksums["v1"] == checksums["v2"] == content_checksum(store)
