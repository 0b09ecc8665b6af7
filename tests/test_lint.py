"""The self-hosted static analyzer (`repro lint`) and its runtime witness.

Fixture snippets are written into a throwaway ``repro/``-shaped tree so
kernel/wire scoping applies, then analyzed with the real pipeline; the
witness tests drive the actual locks of a journaled
:class:`~repro.service.ReproServer` under :mod:`repro.testing.lockcheck`
and cross-check the record against the static lock-order graph of the
installed source tree.
"""

from __future__ import annotations

import json

import pytest

from repro.lint.findings import fingerprint
from repro.lint.runner import analyze, default_root, main

# -- fixture trees -------------------------------------------------------------


def write_tree(root, files: dict) -> str:
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    return str(root)


CYCLE = """\
import threading


class Pair:
    def __init__(self):
        self.first = threading.Lock()
        self.second = threading.Lock()

    def forward(self):
        with self.first:
            with self.second:
                pass

    def backward(self):
        with self.second:
            with self.first:
                pass
"""

FSYNC_UNDER_LOCK = """\
import os
import threading


class Writer:
    def __init__(self):
        self.lock = threading.Lock()

    def flush(self, fd):
        with self.lock:
            os.fsync(fd)
"""

SET_ITER = """\
def combine(values):
    out = 0
    seen = set(values)
    for item in seen:
        out = out * 31 + item
    return out
"""

GUARDED = """\
import threading


class Table:
    def __init__(self):
        self.lock = threading.Lock()
        self.rows = {}  # guarded-by: lock

    def bad_put(self, key, value):
        self.rows[key] = value

    def good_put(self, key, value):
        with self.lock:
            self.rows[key] = value
"""

POPITEM = """\
def drain(table):
    while table:
        key, value = table.popitem()
        yield key, value
"""

TIME_IN_KERNEL = """\
import time


def stamp():
    return time.time()
"""

WIRE_DUMPS = """\
import json


def encode(payload):
    return json.dumps(payload).encode("utf-8")
"""

BROAD_EXCEPT = """\
def swallow(job):
    try:
        return job()
    except Exception:
        return None
"""


def findings_by_rule(result):
    table = {}
    for finding in result.findings:
        table.setdefault(finding.rule, []).append(finding)
    return table


# -- one test per rule ---------------------------------------------------------


def test_lock_cycle(tmp_path):
    root = write_tree(tmp_path, {"repro/svc/pair.py": CYCLE})
    rules = findings_by_rule(analyze(root))
    cycles = rules.get("lock-cycle", [])
    assert cycles, "opposite-order nesting must raise lock-cycle"
    text = " ".join(f.message for f in cycles)
    assert "Pair.first" in text and "Pair.second" in text


def test_blocking_under_lock(tmp_path):
    root = write_tree(tmp_path, {"repro/svc/writer.py": FSYNC_UNDER_LOCK})
    rules = findings_by_rule(analyze(root))
    blocking = rules.get("lock-blocking", [])
    assert len(blocking) == 1
    assert "os.fsync" in blocking[0].message
    assert "Writer.lock" in blocking[0].message


def test_set_iteration_in_kernel(tmp_path):
    root = write_tree(tmp_path, {"repro/core/fold.py": SET_ITER})
    rules = findings_by_rule(analyze(root))
    assert len(rules.get("det-set-iter", [])) == 1


def test_set_iteration_ignored_outside_kernel(tmp_path):
    root = write_tree(tmp_path, {"repro/evalharness/fold.py": SET_ITER})
    rules = findings_by_rule(analyze(root))
    assert "det-set-iter" not in rules


def test_guarded_by(tmp_path):
    root = write_tree(tmp_path, {"repro/svc/table.py": GUARDED})
    rules = findings_by_rule(analyze(root))
    guarded = rules.get("guarded-by", [])
    assert len(guarded) == 1, "only the unlocked write may be flagged"
    assert guarded[0].context == "Table.bad_put"


def test_popitem(tmp_path):
    root = write_tree(tmp_path, {"repro/store/drain.py": POPITEM})
    rules = findings_by_rule(analyze(root))
    assert len(rules.get("det-popitem", [])) == 1


def test_time_in_kernel(tmp_path):
    root = write_tree(tmp_path, {"repro/core/clock.py": TIME_IN_KERNEL})
    rules = findings_by_rule(analyze(root))
    assert rules.get("det-time-random")


def test_wire_dict_order(tmp_path):
    root = write_tree(tmp_path, {"repro/service/enc.py": WIRE_DUMPS})
    rules = findings_by_rule(analyze(root))
    assert len(rules.get("wire-dict-order", [])) == 1


def test_broad_except(tmp_path):
    root = write_tree(tmp_path, {"repro/svc/guard.py": BROAD_EXCEPT})
    rules = findings_by_rule(analyze(root))
    assert len(rules.get("broad-except", [])) == 1


def test_broad_except_reraise_is_fine(tmp_path):
    source = BROAD_EXCEPT.replace("        return None", "        raise")
    root = write_tree(tmp_path, {"repro/svc/guard.py": source})
    assert "broad-except" not in findings_by_rule(analyze(root))


# -- pragmas -------------------------------------------------------------------


def test_pragma_suppresses_with_reason(tmp_path):
    source = FSYNC_UNDER_LOCK.replace(
        "            os.fsync(fd)",
        "            os.fsync(fd)  # repro-lint: allow[lock-blocking]"
        " reason=fsync-before-ack by design",
    )
    root = write_tree(tmp_path, {"repro/svc/writer.py": source})
    result = analyze(root)
    assert not result.findings
    assert len(result.suppressed) == 1
    assert result.suppressed[0].rule == "lock-blocking"


def test_reasonless_pragma_is_a_finding(tmp_path):
    source = FSYNC_UNDER_LOCK.replace(
        "            os.fsync(fd)",
        "            os.fsync(fd)  # repro-lint: allow[lock-blocking]",
    )
    root = write_tree(tmp_path, {"repro/svc/writer.py": source})
    rules = findings_by_rule(analyze(root))
    assert "lock-blocking" not in rules, "the allow still suppresses"
    assert rules.get("pragma-reason"), "but the missing reason is flagged"


def test_def_pragma_covers_callers(tmp_path):
    source = FSYNC_UNDER_LOCK.replace(
        "    def flush(self, fd):",
        "    # repro-lint: allow[lock-blocking] reason=durability contract\n"
        "    def flush(self, fd):",
    ) + (
        "\n"
        "class Caller:\n"
        "    def __init__(self):\n"
        "        self.lock = threading.Lock()\n"
        "        self.writer = Writer()\n"
        "\n"
        "    def commit(self, fd):\n"
        "        with self.lock:\n"
        "            self.writer.flush(fd)\n"
    )
    root = write_tree(tmp_path, {"repro/svc/writer.py": source})
    result = analyze(root)
    assert not result.findings, [f.format() for f in result.findings]


# -- CLI: exit codes + baseline ------------------------------------------------


def test_cli_exit_codes(tmp_path, capsys):
    bad = write_tree(tmp_path / "bad", {"repro/svc/writer.py": FSYNC_UNDER_LOCK})
    clean = write_tree(tmp_path / "clean", {"repro/svc/ok.py": "X = 1\n"})
    assert main(["--root", clean]) == 0
    assert main(["--root", bad]) == 1
    assert main(["--witness", str(tmp_path / "missing.json")]) == 2
    assert main(["--rules"]) == 0
    capsys.readouterr()


def test_cli_json_report(tmp_path, capsys):
    root = write_tree(tmp_path, {"repro/svc/writer.py": FSYNC_UNDER_LOCK})
    assert main(["--root", root, "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["summary"]["findings"] == 1
    assert report["findings"][0]["rule"] == "lock-blocking"
    assert report["lock_graph"]["sites"], "acquisition sites are exported"


def test_baseline_diffing(tmp_path, capsys):
    files = {"repro/svc/writer.py": FSYNC_UNDER_LOCK}
    root = write_tree(tmp_path, files)
    baseline = str(tmp_path / "baseline.json")
    assert main(["--root", root, "--write-baseline", baseline]) == 0
    # every pre-existing finding is fingerprinted away ...
    assert main(["--root", root, "--baseline", baseline]) == 0
    # ... but a new finding still gates
    write_tree(tmp_path, {"repro/core/fold.py": SET_ITER})
    assert main(["--root", root, "--baseline", baseline]) == 1
    capsys.readouterr()


def test_fingerprints_survive_line_drift(tmp_path):
    root_a = write_tree(
        tmp_path / "a", {"repro/svc/writer.py": FSYNC_UNDER_LOCK}
    )
    root_b = write_tree(
        tmp_path / "b", {"repro/svc/writer.py": "# moved\n\n" + FSYNC_UNDER_LOCK}
    )
    fp_a = [fingerprint(f) for f in analyze(root_a).findings]
    fp_b = [fingerprint(f) for f in analyze(root_b).findings]
    assert fp_a == fp_b


# -- the repo gates itself -----------------------------------------------------


@pytest.fixture(scope="module")
def repo_result():
    return analyze(default_root())


def test_repo_is_clean(repo_result):
    assert not repo_result.findings, "\n".join(
        f.format() for f in repo_result.findings
    )


def test_repo_lock_graph_has_the_server_journal_edge(repo_result):
    """An intern appends its journal frame under the service lock."""
    edges = set(repo_result.edges)
    assert ("ReproServer.lock", "Journal._mutex") in edges


def test_every_repo_pragma_has_a_reason(repo_result):
    for mod in repo_result.modules.values():
        for allow in mod.pragmas.all_allows:
            assert allow.reason, f"{mod.path}:{allow.line} reasonless pragma"


# -- runtime witness -----------------------------------------------------------


def test_witness_round_trip_on_journaled_server(tmp_path, repo_result):
    from repro.lang.parser import parse
    from repro.service import ReproServer, ServiceClient
    from repro.testing import lockcheck

    recorder = lockcheck.install()
    try:
        with ReproServer(port=0, journal=str(tmp_path / "wal")) as server:
            corpus = [
                parse("a b"),
                parse("let t = a + b in t * t"),
                parse("f (g x)"),
            ]
            ServiceClient(server.url).intern_many(corpus)
    finally:
        lockcheck.uninstall()

    out = tmp_path / "witness.json"
    doc = lockcheck.dump(str(out), recorder)
    assert doc["format"] == "repro-lockcheck-v1"
    assert doc["sites"], "interning must acquire labeled server locks"
    assert any(
        path == "repro/service/server.py" for path, _line in doc["sites"]
    )

    result = analyze(default_root(), witness=doc)
    gaps = [
        f
        for f in result.findings
        if f.rule in ("witness-gap-site", "witness-gap-edge")
    ]
    assert not gaps, "\n".join(f.format() for f in gaps)


def test_witness_gap_edge_is_detected(repo_result):
    # Fabricate an observation the static graph cannot have: a real
    # edge reversed.  The analyzer must refuse to absorb it silently.
    edges = set(repo_result.edges)
    outer_label, inner_label = next(
        (a, b) for a, b in sorted(edges) if a != b and (b, a) not in edges
    )
    site_of = {label: site for site, label in repo_result.site_table.items()}
    outer_site = site_of[inner_label]
    inner_site = site_of[outer_label]
    witness = {
        "format": "repro-lockcheck-v1",
        "sites": [list(outer_site), list(inner_site)],
        "edges": [[list(outer_site), list(inner_site)]],
    }
    result = analyze(default_root(), witness=witness)
    rules = {f.rule for f in result.findings}
    assert "witness-gap-edge" in rules


def test_witness_gap_site_is_detected():
    witness = {
        "format": "repro-lockcheck-v1",
        "sites": [["repro/store/store.py", 2]],
        "edges": [],
    }
    result = analyze(default_root(), witness=witness)
    rules = {f.rule for f in result.findings}
    assert "witness-gap-site" in rules


def test_witness_cross_thread_release_leaves_no_stale_hold():
    # Legal for threading.Lock: acquire on one thread, release on
    # another.  The acquirer's TLS stack must not keep the hold around
    # seeding spurious witness edges (false CI witness-gap failures).
    import threading

    from repro.testing import lockcheck

    recorder = lockcheck.install()
    try:
        lock = lockcheck._WitnessLock(recorder, reentrant=False)
        lock.acquire()
        stack = recorder.held_stack()
        assert any(entry[1] is lock for entry in stack)
        releaser = threading.Thread(target=lock.release)
        releaser.start()
        releaser.join()
        assert not any(entry[1] is lock for entry in stack)
        assert not lock.locked()
    finally:
        lockcheck.uninstall()


def test_witness_rlock_locked_works_before_py314():
    # RLock only grew .locked() in Python 3.14; the wrapper must answer
    # from its own owner tracking instead of delegating.
    from repro.testing import lockcheck

    recorder = lockcheck.install()
    try:
        rlock = lockcheck._WitnessLock(recorder, reentrant=True)
        assert rlock.locked() is False
        with rlock:
            assert rlock.locked() is True
            with rlock:  # reentry keeps it held
                assert rlock.locked() is True
            assert rlock.locked() is True
        assert rlock.locked() is False
    finally:
        lockcheck.uninstall()


def test_witness_wraps_only_repro_locks():
    import threading

    from repro.testing import lockcheck

    recorder = lockcheck.install()
    try:
        foreign = threading.Lock()  # created from test code, not repro/
        with foreign:
            pass
        assert not isinstance(foreign, lockcheck._WitnessLock)
        # The recorder may be shared with a session-wide witness
        # (REPRO_LOCKCHECK=1), so sites need not be empty -- but every
        # one must be attributed inside the package, never to test code.
        assert all(
            path.startswith("repro/")
            for path, _line in recorder.as_dict()["sites"]
        )
    finally:
        lockcheck.uninstall()
