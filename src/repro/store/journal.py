"""Write-ahead durability for an :class:`~repro.store.ExprStore`.

A :class:`Journal` is a directory of segment-rotated, checksummed
frames, each frame holding one incremental snapshot delta
(:func:`repro.store.delta_to_bytes`).  A server that appends the delta
of every intern batch *before acknowledging it* can be SIGKILLed at any
instant and recover its exact pre-crash store by replaying the journal
on boot -- the delta's version stamps give every frame a natural,
gap-checked position in the store's history.

Directory layout::

    DIR/
      journal-00000001.wal     # frames, oldest segment first
      journal-00000002.wal
      checkpoint.snap          # optional full snapshot covering a prefix

Frame layout (binary, back to back inside a segment)::

    magic    b"RJNL"                      4 bytes
    length   payload byte count           8 bytes big-endian
    digest   sha256(payload)             32 bytes
    payload  delta_to_bytes() document    `length` bytes

The payload is a ``repro-store-delta-v2`` document: a JSON header line,
then the window's classes as little-endian columns, with no summaries
(see :mod:`repro.store.snapshot`).  Replay recomputes every class's
summary and hash and refuses a frame whose hashes differ.  Journals of
``repro-store-delta-v1`` frames, written before, still replay.

The checkpoint is a ``repro-store-snapshot-v3`` document: the same
columns over every live class, rows in LRU order, under a header that
adds the store's shape and counters.  Loading it recomputes and checks
every hash like a frame; checkpoints written as
``repro-store-snapshot-v1`` still load, through the same checks.

Guarantees:

* **Durability before acknowledgement.**  :meth:`Journal.append_delta`
  writes and ``fsync``\\ s the frame before returning; callers ack
  only after it returns.
* **A failed append leaves no frame behind.**  When the write, flush or
  fsync of a frame raises (a full disk), the segment is truncated back
  to the last acknowledged frame and fsync'd before the ``OSError``
  propagates, so the next append follows that frame -- and carries the
  failed window, since its default window starts at the last journaled
  version.  If the truncation fails too, the journal drops its handle
  and every later append raises :class:`JournalError`; replay then
  recovers the partial frame as a torn tail.
* **Torn tails truncate, corruption fails loudly.**  A crash mid-write
  leaves a partial final frame; :meth:`replay` truncates the file back
  to the last good frame and continues.  A bad frame is a torn tail
  only when it runs to the end of the last segment -- a partial header,
  a payload shorter than its declared length, a digest mismatch on a
  frame whose declared extent ends exactly at EOF, or zero bytes
  through EOF -- and no intact frame starts after it.  Any other damage
  -- a bad frame with bytes after it, a torn frame in a non-final
  segment, segments replayed out of order (a version gap) -- is not a
  crash artefact: :class:`JournalError` is raised and the file is left
  as it was.
* **Idempotent replay.**  Frames are deltas, and
  :func:`repro.store.apply_delta_bytes` verifies-and-skips entries the
  store already holds, so duplicated frames and overlapping windows
  re-apply cleanly; replaying an already-recovered journal is a no-op.
* **Bounded disk.**  Segments rotate at ``max_segment_bytes``;
  :meth:`checkpoint` writes a full snapshot (atomic rename) and
  :meth:`gc` drops every segment the snapshot's version already
  covers.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from typing import TYPE_CHECKING, Iterator, Optional

from repro.store.snapshot import (
    SnapshotError,
    apply_delta_bytes,
    delta_to_bytes,
    snapshot_to_bytes,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.store.store import ExprStore

__all__ = ["Journal", "JournalError", "FRAME_MAGIC"]

FRAME_MAGIC = b"RJNL"
_FRAME_HEADER_BYTES = len(FRAME_MAGIC) + 8 + 32
_SEGMENT_PREFIX = "journal-"
_SEGMENT_SUFFIX = ".wal"
_CHECKPOINT_NAME = "checkpoint.snap"


class JournalError(RuntimeError):
    """A journal directory that cannot be safely recovered or appended."""


def _frame_bytes(payload: bytes) -> bytes:
    return (
        FRAME_MAGIC
        + len(payload).to_bytes(8, "big")
        + hashlib.sha256(payload).digest()
        + payload
    )


def _parse_frame(data: bytes, offset: int) -> tuple[bytes, int, Optional[str]]:
    """The frame at ``data[offset:]``: ``(payload, end, reason)``, where
    ``end`` is the offset its header declares it ends at (``len(data)``
    for a partial header, -1 for a bad magic) and ``reason`` says why it
    is bad, or is ``None`` for an intact frame."""
    head = data[offset : offset + _FRAME_HEADER_BYTES]
    if len(head) < _FRAME_HEADER_BYTES:
        return b"", len(data), "partial frame header"
    if not head.startswith(FRAME_MAGIC):
        return b"", -1, "bad frame magic"
    start = offset + _FRAME_HEADER_BYTES
    end = start + int.from_bytes(head[4:12], "big")
    payload = data[start:end]
    if end > len(data):
        return payload, end, "frame shorter than its declared length"
    if hashlib.sha256(payload).digest() != head[12:44]:
        return payload, end, "frame digest mismatch"
    return payload, end, None


def _intact_frame_after(data: bytes, offset: int) -> bool:
    """Whether an intact frame starts at or after ``offset``: a bad frame
    followed by one is damage, not a torn write (say, a length field
    changed so that the frame seems to run to EOF)."""
    at = data.find(FRAME_MAGIC, offset)
    while at >= 0:
        if _parse_frame(data, at)[2] is None:
            return True
        at = data.find(FRAME_MAGIC, at + 1)
    return False


def _delta_header(payload: bytes) -> dict:
    """The JSON header line of a delta document, cheaply."""
    newline = payload.find(b"\n")
    head = payload if newline < 0 else payload[:newline]
    try:
        header = json.loads(head)
    except json.JSONDecodeError as exc:
        raise JournalError(f"frame payload has no delta header: {exc}") from None
    if not isinstance(header, dict) or "version" not in header:
        raise JournalError("frame payload is not a snapshot delta document")
    return header


def _fsync_dir(path: str) -> None:
    """Make a rename/create in ``path`` itself durable (POSIX)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic filesystems
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class Journal:
    """A write-ahead log of snapshot deltas in one directory.

    >>> journal = Journal(dirname)
    >>> journal.replay(store)                 # crash-safe recovery on boot
    >>> ...
    >>> since = journal.version
    >>> store.intern_many(batch)
    >>> journal.append_delta(store)           # durable *before* the ack

    ``fsync=False`` trades durability for test speed (the frames still
    flush to the OS); production callers keep the default.
    """

    def __init__(
        self,
        directory: str,
        *,
        max_segment_bytes: int = 8 * 1024 * 1024,
        fsync: bool = True,
    ):
        if max_segment_bytes < 1:
            raise ValueError(
                f"max_segment_bytes must be >= 1, got {max_segment_bytes}"
            )
        self.directory = os.path.abspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.max_segment_bytes = max_segment_bytes
        self.fsync = fsync
        #: The store version the last appended/replayed frame reached;
        #: `append_delta` defaults its window to ``(version, now]``, so
        #: a failed append self-heals on the next successful one.
        self.version = 0
        self._handle = None
        self._seq = 0
        self._size = 0
        #: Appending to an existing final segment is only safe after
        #: replay() has verified (and possibly truncated) its tail.
        self._tail_verified = False
        self._closed = False
        #: Why appends are refused, once a failed append could not be
        #: undone (:meth:`_undo_partial_frame`); ``None`` while healthy.
        self._broken: Optional[str] = None
        #: Guards the open-segment state (``_handle``/``_seq``/``_size``)
        #: and segment-file scans.  Appends rotate segments while
        #: :meth:`gc` lists, re-reads and unlinks them, and a service
        #: deliberately runs checkpoint GC *off* the lock that
        #: serializes its appends -- so the journal must not rely on
        #: callers for that mutual exclusion.  The checkpoint body
        #: write itself (the multi-megabyte fsync in
        #: :meth:`write_checkpoint`) stays outside this mutex: it only
        #: touches ``checkpoint.snap``, never the segment state.
        self._mutex = threading.Lock()

    # -- directory layout ------------------------------------------------------

    def _segment_path(self, seq: int) -> str:
        return os.path.join(
            self.directory, f"{_SEGMENT_PREFIX}{seq:08d}{_SEGMENT_SUFFIX}"
        )

    def segments(self) -> list[str]:
        """Existing segment paths, oldest first."""
        names = [
            name
            for name in os.listdir(self.directory)
            if name.startswith(_SEGMENT_PREFIX)
            and name.endswith(_SEGMENT_SUFFIX)
        ]
        return [os.path.join(self.directory, name) for name in sorted(names)]

    @staticmethod
    def _seq_of(path: str) -> int:
        name = os.path.basename(path)
        return int(name[len(_SEGMENT_PREFIX) : -len(_SEGMENT_SUFFIX)])

    @property
    def checkpoint_path(self) -> str:
        return os.path.join(self.directory, _CHECKPOINT_NAME)

    def load_checkpoint_bytes(self) -> Optional[bytes]:
        """The checkpoint snapshot's bytes, if one has been written."""
        try:
            with open(self.checkpoint_path, "rb") as handle:
                return handle.read()
        except FileNotFoundError:
            return None

    # -- appending -------------------------------------------------------------

    def _open_for_append(self) -> None:
        if self._handle is not None:
            return
        existing = self.segments()
        if not existing:
            self._seq = 1
        elif self._tail_verified:
            self._seq = self._seq_of(existing[-1])
        else:
            # Never append to an unverified tail: a torn final frame
            # followed by a fresh valid frame would read as mid-segment
            # corruption on the next recovery.  A new segment is always
            # safe.
            self._seq = self._seq_of(existing[-1]) + 1
        self._open_segment()

    def _open_segment(self) -> None:
        """Open segment ``_seq`` for appending, unbuffered: a failed
        write leaves nothing buffered to land after the undo."""
        self._handle = open(self._segment_path(self._seq), "ab", buffering=0)
        self._size = self._handle.tell()
        if self._size == 0:
            _fsync_dir(self.directory)

    def _rotate_if_needed(self) -> None:
        if self._size < self.max_segment_bytes:
            return
        self._handle.close()
        self._handle = None
        self._seq += 1
        self._open_segment()

    def _write_frame(self, frame: bytes) -> None:
        """Write ``frame`` at the segment's end and make it durable; on
        an ``OSError`` cut the segment back to its last acknowledged
        frame (:meth:`_undo_partial_frame`) and re-raise."""
        handle = self._handle
        try:
            view = memoryview(frame)
            while view:
                view = view[handle.write(view) :]
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
        except OSError:
            self._undo_partial_frame()
            raise

    def _undo_partial_frame(self) -> None:
        """Truncate the open segment back to ``_size`` and fsync it, so
        the next frame follows the last acknowledged one.  If that fails
        too, drop the handle and refuse every later append."""
        handle = self._handle
        try:
            handle.truncate(self._size)
            if self.fsync:
                os.fsync(handle.fileno())
        except OSError as exc:
            self._handle = None
            self._broken = (
                f"a failed append left a partial frame in "
                f"{os.path.basename(self._segment_path(self._seq))} that "
                f"could not be cut off ({exc}); replay recovers it as a "
                "torn tail"
            )
            try:
                handle.close()
            except OSError:
                pass

    # repro-lint: allow[lock-blocking] reason=fsync-before-ack: callers hold the service lock across the append on purpose; the client ack must not outrun the durable journal write, or a crash acks data that was never persisted
    def append_bytes(self, payload: bytes) -> dict:
        """Append one already-encoded delta document as a frame.

        Durable (written + fsync'd) before returning.  Returns the
        delta's header.  Used directly by follower nodes: the delta
        bytes fetched from a primary journal verbatim.  A write, flush
        or fsync that fails raises its ``OSError`` after the segment is
        cut back to the previous frame, so the next append follows the
        last acknowledged frame; if the cut fails too, this and every
        later append raise :class:`JournalError`.
        """
        if self._closed:
            raise JournalError("journal is closed")
        header = _delta_header(payload)
        with self._mutex:
            if self._broken is not None:
                raise JournalError(f"journal refuses appends: {self._broken}")
            self._open_for_append()
            self._rotate_if_needed()
            frame = _frame_bytes(payload)
            self._write_frame(frame)
            self._size += len(frame)
            self.version = max(self.version, header["version"])
        return header

    def append_delta(self, store: "ExprStore", since: Optional[int] = None):
        """Journal the entries interned after ``since`` (default: the
        last journaled version).  No frame is written for an empty
        window.  Returns the delta header, or ``None`` if nothing new.
        """
        if since is None:
            since = self.version
        if store.version <= since:
            return None
        data = delta_to_bytes(store, since, meta={"journal": True})
        return self.append_bytes(data)

    # -- reading / recovery ----------------------------------------------------

    def _read_frames(
        self, path: str, tolerate_torn_tail: bool
    ) -> tuple[list[bytes], Optional[int]]:
        """All frame payloads of one segment.

        Returns ``(payloads, torn_offset)``: ``torn_offset`` is the
        byte offset of a torn tail to truncate at (only ever non-None
        when ``tolerate_torn_tail``), a crash artefact.  A bad frame is
        a torn tail only when it runs to the end of the file -- a
        partial header, a payload shorter than its declared length, a
        digest mismatch on a frame that ends exactly at EOF, or nothing
        but zero bytes through EOF -- and no intact frame starts after
        it (a torn write is the last one).  Any other damage, or any bad
        frame in a segment that is not the journal's last, raises
        :class:`JournalError`.
        """
        with open(path, "rb") as handle:
            data = handle.read()
        payloads: list[bytes] = []
        offset = 0
        while offset < len(data):
            payload, end, reason = _parse_frame(data, offset)
            if reason is None:
                payloads.append(payload)
                offset = end
                continue
            if (
                tolerate_torn_tail
                and (end >= len(data) or data.count(0, offset) == len(data) - offset)
                and not _intact_frame_after(data, offset + 1)
            ):
                return payloads, offset
            raise JournalError(
                f"corrupt frame in {os.path.basename(path)} at byte "
                f"{offset}: {reason} (not the journal tail, so not "
                "a crash artefact -- refusing to guess)"
            )
        return payloads, None

    def iter_frames(self) -> Iterator[tuple[str, bytes]]:
        """``(segment_path, payload)`` for every intact frame, in order.

        Read-only: torn tails are reported as if already truncated, but
        the files are untouched.
        """
        paths = self.segments()
        for index, path in enumerate(paths):
            payloads, _torn = self._read_frames(
                path, tolerate_torn_tail=index == len(paths) - 1
            )
            for payload in payloads:
                yield path, payload

    def replay(self, store: "ExprStore") -> dict:
        """Recover ``store`` from the journal; returns a report dict.

        Frames whose version the store has already reached are skipped
        wholesale (idempotent); the rest apply through
        :func:`repro.store.apply_delta_bytes`, which is all-or-nothing
        per frame and validates the version chain -- a gap (a missing
        or reordered segment) fails loudly as :class:`SnapshotError`
        rather than silently skipping history.  A torn final frame in
        the final segment is truncated away first.
        """
        report = {
            "segments": 0,
            "frames": 0,
            "applied": 0,
            "skipped_entries": 0,
            "skipped_frames": 0,
            "truncated_bytes": 0,
            "version": store.version,
        }
        paths = self.segments()
        last_seq = None
        for index, path in enumerate(paths):
            seq = self._seq_of(path)
            if last_seq is not None and seq != last_seq + 1:
                raise JournalError(
                    f"segment sequence gap: {last_seq:08d} is followed by "
                    f"{seq:08d} (missing or misnamed segment)"
                )
            last_seq = seq
            report["segments"] += 1
            payloads, torn_offset = self._read_frames(
                path, tolerate_torn_tail=index == len(paths) - 1
            )
            if torn_offset is not None:
                size = os.path.getsize(path)
                with open(path, "r+b") as handle:
                    handle.truncate(torn_offset)
                    handle.flush()
                    if self.fsync:
                        os.fsync(handle.fileno())
                report["truncated_bytes"] = size - torn_offset
            for payload in payloads:
                report["frames"] += 1
                header = _delta_header(payload)
                if header["version"] <= store.version:
                    report["skipped_frames"] += 1
                    continue
                applied = apply_delta_bytes(store, payload)
                report["applied"] += applied["applied"]
                report["skipped_entries"] += applied["skipped"]
        report["version"] = store.version
        self.version = max(self.version, store.version)
        self._tail_verified = True
        return report

    # -- checkpoint + GC -------------------------------------------------------

    def checkpoint(self, store: "ExprStore", meta: Optional[dict] = None):
        """Write a full snapshot covering the store's history, then GC.

        The snapshot lands atomically (tmp + rename), so a crash during
        the checkpoint leaves the previous one intact; segments fully
        covered by the new snapshot's version are removed.  Returns the
        GC report.

        This is ``encode_checkpoint`` + ``write_checkpoint`` in one
        call; services that serialize store access with a lock should
        use the two halves so only the *encode* (which reads the store)
        runs under the lock, keeping snapshot disk I/O off the hot path.
        """
        data = self.encode_checkpoint(store, meta=meta)
        return self.write_checkpoint(data, store.version)

    def encode_checkpoint(
        self, store: "ExprStore", meta: Optional[dict] = None
    ) -> bytes:
        """Encode a checkpoint snapshot of the store; no disk I/O.

        Safe (and intended) to call while holding whatever lock
        guarantees store consistency: it reads the table's columns only
        (:func:`repro.store.snapshot_to_bytes`), with no tree, memo
        record or summary pass.
        """
        meta = dict(meta or {})
        meta.setdefault("journal_checkpoint", True)
        return snapshot_to_bytes(store, meta=meta)

    def write_checkpoint(self, data: bytes, covered_version: int) -> dict:
        """Persist pre-encoded checkpoint bytes atomically, then GC.

        The store is not touched: the bytes and the version they cover
        were fixed by ``encode_checkpoint``, so this may run outside
        the store lock -- a checkpoint is only ever a prefix of the
        fsync'd journal, so a concurrent intern landing between encode
        and write is replayed from the surviving segments on recovery.
        """
        tmp = self.checkpoint_path + ".tmp"
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
        os.replace(tmp, self.checkpoint_path)
        _fsync_dir(self.directory)
        return self.gc(covered_version)

    def _segment_last_version(self, path: str, is_last: bool) -> Optional[int]:
        payloads, _torn = self._read_frames(path, tolerate_torn_tail=is_last)
        if not payloads:
            return None
        return _delta_header(payloads[-1])["version"]

    # repro-lint: allow[lock-blocking] reason=the segment scan and unlink must not interleave with append-side rotation; the mutex covers one directory fsync, never the checkpoint body write
    def gc(self, covered_version: int) -> dict:
        """Remove segments whose every frame is ``<= covered_version``.

        The open (current) segment is never removed.  Returns
        ``{"removed": [paths], "kept": N}``.  Runs under the journal
        mutex: a concurrent append may be rotating segments, and the
        open-segment guard and last-version reads below must see a
        settled layout.
        """
        with self._mutex:
            removed = []
            paths = self.segments()
            for index, path in enumerate(paths):
                if self._handle is not None and self._seq_of(path) == self._seq:
                    break
                last = self._segment_last_version(
                    path, is_last=index == len(paths) - 1
                )
                if last is not None and last > covered_version:
                    break
                removed.append(path)
            for path in removed:
                os.remove(path)
            if removed:
                _fsync_dir(self.directory)
            return {"removed": removed, "kept": len(paths) - len(removed)}

    # -- lifecycle -------------------------------------------------------------

    # repro-lint: allow[lock-blocking] reason=final flush+fsync at shutdown; holds the journal mutex so a late checkpoint GC cannot observe the handle mid-close
    def close(self) -> None:
        with self._mutex:
            if self._handle is not None:
                self._handle.flush()
                if self.fsync:
                    os.fsync(self._handle.fileno())
                self._handle.close()
                self._handle = None
            self._closed = True

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"Journal({self.directory!r}, version={self.version}, "
            f"segments={len(self.segments())})"
        )
