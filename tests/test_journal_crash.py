"""Crash-point enumeration for the write-ahead journal (after ALICE,
Pillai et al., OSDI 2014).

A recorder wraps the file operations of :mod:`repro.store.journal` --
``open`` and the handle's ``write``, ``flush`` and ``truncate``, and
``os.fsync``, ``os.replace`` and ``os.remove`` -- while a scripted
workload runs: interns, each followed by a commit (a journal append),
segments rotating at a small ``max_segment_bytes``, one append whose
write stops halfway with ENOSPC (answered as a failed request, so not
acknowledged), and a checkpoint with its GC.  After every operation the
recorder keeps what a crash right then could leave on disk, in three
modes:

* ``all``: every write survives;
* ``drop``: the bytes written after a file's last fsync are lost;
* ``tear``: those bytes survive up to a seeded offset.

Names (create, rename, unlink) count as durable once the call returns;
the journal fsyncs the directory after each.  Every state is recovered
as a node boots -- the checkpoint, then the journal replayed -- into a
fresh store, which must hold every version acknowledged before the
crash and exactly the primary's content at the version it reached.
"""

import builtins
import errno
import os
import random

import pytest

import repro.store.journal as journal_module
from repro.core.combiners import HashCombiners
from repro.gen.random_exprs import random_expr
from repro.store import ExprStore, Journal, content_checksum, snapshot_from_bytes

MODES = ("all", "drop", "tear")


def make_store():
    return ExprStore(HashCombiners(bits=64, seed=7))


class _Handle:
    """A journal file handle whose writes, flushes and truncations are
    recorded; the recorder's scripted write stops halfway."""

    def __init__(self, recorder, handle, name):
        self._recorder = recorder
        self._handle = handle
        self._name = name

    def write(self, data):
        recorder = self._recorder
        recorder.writes += 1
        if recorder.writes == recorder.fail_at:
            self._handle.write(bytes(data[: len(data) // 2]))
            recorder.record(f"write {self._name} (stops halfway: ENOSPC)")
            raise OSError(errno.ENOSPC, "No space left on device")
        written = self._handle.write(data)
        recorder.record(f"write {self._name}")
        return written

    def flush(self):
        self._handle.flush()
        self._recorder.record(f"flush {self._name}")

    def truncate(self, size):
        self._handle.truncate(size)
        self._recorder.record(f"truncate {self._name} to {size}")

    def __getattr__(self, name):
        return getattr(self._handle, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._handle.close()


class _Os:
    """The journal module's ``os``, with fsync, replace and remove
    recorded (fsync only marks a file's bytes durable)."""

    def __init__(self, recorder):
        self._recorder = recorder

    def __getattr__(self, name):
        return getattr(os, name)

    def open(self, path, flags, *args):
        fd = os.open(path, flags, *args)
        self._recorder.fds[fd] = None  # the directory
        return fd

    def fsync(self, fd):
        recorder = self._recorder
        name = recorder.fds.get(fd)
        if name is not None:
            recorder.durable[name] = recorder.read(name)
        recorder.record(f"fsync {name or 'directory'}")

    def replace(self, src, dst):
        os.replace(src, dst)
        durable = self._recorder.durable
        durable[os.path.basename(dst)] = durable.pop(os.path.basename(src), b"")
        self._recorder.record(f"replace {os.path.basename(dst)}")

    def remove(self, path):
        os.remove(path)
        self._recorder.durable.pop(os.path.basename(path), None)
        self._recorder.record(f"remove {os.path.basename(path)}")


class Recorder:
    """The crash states of one workload run: after every recorded
    operation, ``(label, acked, {mode: {file name: bytes}})``."""

    def __init__(self, directory, seed):
        self.directory = directory
        self.rng = random.Random(seed)
        self.durable = {}  # file name -> its bytes at its last fsync
        self.fds = {}  # fd -> file name (None: the directory)
        self.states = []
        self.acked = 0  # the last version an append acknowledged
        self.writes = 0
        self.fail_at = None  # the write that stops halfway

    def read(self, name):
        with builtins.open(os.path.join(self.directory, name), "rb") as handle:
            return handle.read()

    def open(self, path, mode="r", buffering=-1):
        handle = builtins.open(path, mode, buffering)
        if mode == "rb":
            return handle  # reads change nothing on disk
        name = os.path.basename(path)
        if "w" in mode:
            self.durable[name] = b""
        self.durable.setdefault(name, b"")
        self.fds[handle.fileno()] = name
        self.record(f"open {name} {mode!r}")
        return _Handle(self, handle, name)

    def record(self, label):
        current = {name: self.read(name) for name in sorted(os.listdir(self.directory))}
        drop, tear = {}, {}
        for name, data in current.items():
            base = self.durable.get(name, b"")
            if not data.startswith(base):
                base = data[: len(base)]  # cut below its durable bytes
            extra = len(data) - len(base)
            drop[name] = base
            tear[name] = data[: len(base) + (self.rng.randrange(extra) if extra else 0)]
        self.states.append(
            (label, self.acked, {"all": current, "drop": drop, "tear": tear})
        )


def run_workload(directory, recorder, fail_step=5, checkpoint_step=8, steps=14):
    """Interns, each committed by an append; ``fail_step``'s append stops
    halfway; a checkpoint (with GC) after ``checkpoint_step``.  Returns
    the primary's content checksum at every version it reached."""
    journal = Journal(directory, max_segment_bytes=1500, fsync=True)
    store = make_store()
    checksums = {0: content_checksum(store)}
    rng = random.Random(2014)
    for step in range(steps):
        store.intern(random_expr(12, rng=rng, p_let=0.2, p_lit=0.2))
        checksums[store.version] = content_checksum(store)
        if step == fail_step:
            recorder.fail_at = recorder.writes + 1
        try:
            header = journal.append_delta(store)
        except OSError:
            continue  # the request fails: nothing acknowledged
        if header is not None:
            recorder.acked = header["version"]
        if step == checkpoint_step:
            journal.write_checkpoint(journal.encode_checkpoint(store), store.version)
    journal.close()
    return checksums


def recover(files, directory):
    """Boot on ``files``: the checkpoint, then the journal; the store."""
    os.makedirs(directory)
    for name, data in files.items():
        with open(os.path.join(directory, name), "wb") as handle:
            handle.write(data)
    journal = Journal(directory, fsync=False)
    checkpoint = journal.load_checkpoint_bytes()
    store = make_store() if checkpoint is None else snapshot_from_bytes(checkpoint)[0]
    journal.replay(store)
    journal.close()
    return store


@pytest.mark.parametrize("seed", [1, 2])
def test_every_crash_point_recovers_every_acknowledged_version(
    tmp_path, monkeypatch, seed
):
    directory = str(tmp_path / "wal")
    os.makedirs(directory)
    recorder = Recorder(directory, seed)
    with monkeypatch.context() as patch:
        patch.setattr(journal_module, "open", recorder.open, raising=False)
        patch.setattr(journal_module, "os", _Os(recorder))
        checksums = run_workload(directory, recorder)
    labels = [label for label, _acked, _states in recorder.states]
    assert any("ENOSPC" in label for label in labels)
    assert any(label.startswith("replace") for label in labels)
    assert any(label.startswith("remove") for label in labels)
    assert len({label for label in labels if label.startswith("open journal")}) > 3

    outcomes = {}
    failures = []
    for point, (label, acked, states) in enumerate(recorder.states):
        for mode in MODES:
            files = states[mode]
            key = tuple(sorted(files.items()))
            if key not in outcomes:
                try:
                    store = recover(files, str(tmp_path / f"boot{len(outcomes)}"))
                    outcomes[key] = (store.version, content_checksum(store))
                except Exception as exc:  # a node that cannot boot
                    outcomes[key] = exc
            outcome = outcomes[key]
            where = f"crash point {point} (after {label}), mode {mode}, seed {seed}"
            if isinstance(outcome, Exception):
                failures.append(f"{where}: recovery raised {outcome!r}")
            elif outcome[0] < acked:
                failures.append(
                    f"{where}: recovered version {outcome[0]}, but {acked} "
                    "was acknowledged"
                )
            elif checksums.get(outcome[0]) != outcome[1]:
                failures.append(
                    f"{where}: content at version {outcome[0]} differs from "
                    "the primary's"
                )
    assert not failures, "\n".join(failures[:10])
