"""Tests for the command-line interface."""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.store.journal import _frame_bytes

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture()
def expr_file(tmp_path):
    path = tmp_path / "program.lam"
    path.write_text("(a + (v + 7)) * (v + 7)\n")
    return str(path)


class TestDispatch:
    def test_no_args_prints_help(self, capsys):
        assert main([]) == 0
        assert "table1" in capsys.readouterr().out

    def test_help_flag(self, capsys):
        assert main(["--help"]) == 0
        assert "fig2" in capsys.readouterr().out

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
        assert "unknown command" in capsys.readouterr().err


class TestHashCommand:
    def test_hash_prints_hex(self, capsys, expr_file):
        assert main(["hash", expr_file]) == 0
        out = capsys.readouterr().out.strip()
        assert out.startswith("0x")
        int(out, 16)

    def test_hash_deterministic(self, capsys, expr_file):
        main(["hash", expr_file])
        first = capsys.readouterr().out
        main(["hash", expr_file])
        assert capsys.readouterr().out == first

    def test_hash_bits(self, capsys, expr_file):
        assert main(["hash", expr_file, "--bits", "16"]) == 0
        value = int(capsys.readouterr().out.strip(), 16)
        assert value < (1 << 16)

    def test_hash_seed_changes_value(self, capsys, expr_file):
        main(["hash", expr_file, "--seed", "1"])
        a = capsys.readouterr().out
        main(["hash", expr_file, "--seed", "2"])
        assert capsys.readouterr().out != a

    def test_hash_algorithm_choice(self, capsys, expr_file):
        assert main(["hash", expr_file, "--algorithm", "structural"]) == 0
        capsys.readouterr()

    def test_alpha_invariance_through_cli(self, capsys, tmp_path):
        f1 = tmp_path / "a.lam"
        f2 = tmp_path / "b.lam"
        f1.write_text(r"\x. x + 7")
        f2.write_text(r"\y. y + 7")
        main(["hash", str(f1)])
        first = capsys.readouterr().out
        main(["hash", str(f2)])
        assert capsys.readouterr().out == first

    def test_hash_batch_mode_emits_json_records(self, capsys, tmp_path):
        import json

        files = []
        for name, text in (("a.lam", r"\x. x + 7"), ("b.lam", r"\y. y + 7"),
                           ("c.lam", "a b")):
            f = tmp_path / name
            f.write_text(text)
            files.append(str(f))
        assert main(["hash", *files]) == 0
        records = [
            json.loads(line) for line in capsys.readouterr().out.splitlines()
        ]
        assert [r["file"] for r in records] == files
        # the two alpha-equivalent inputs agree, the third differs
        assert records[0]["hash"] == records[1]["hash"] != records[2]["hash"]
        assert all(r["backend"] == "ours" and r["bits"] == 64 for r in records)

    def test_hash_batch_matches_single_file_mode(self, capsys, tmp_path):
        import json

        f1 = tmp_path / "a.lam"
        f2 = tmp_path / "b.lam"
        f1.write_text(r"\x. x + 7")
        f2.write_text("q r")
        main(["hash", str(f1)])
        single = capsys.readouterr().out.strip()
        main(["hash", str(f1), str(f2)])
        batch = json.loads(capsys.readouterr().out.splitlines()[0])
        assert batch["hash"] == single

    def test_hash_batch_ablation_backend(self, capsys, tmp_path):
        f = tmp_path / "a.lam"
        f.write_text(r"\x. x + 7")
        # ablations are reachable through the unified registry
        assert main(["hash", str(f), "--algorithm", "recompute_vm"]) == 0
        recompute = capsys.readouterr().out
        main(["hash", str(f)])
        assert capsys.readouterr().out == recompute  # bit-identical variant

    @pytest.mark.parametrize(
        "argv",
        [
            ["hash", "{f}", "--workers", "2"],
            ["hash", "{f}", "--parallel-mode", "spawn"],
            ["session", "{f}", "--workers", "2"],
            ["serve", "--workers", "2"],
            ["session", "{f}", "--num-shards", "4"],
            ["serve", "--num-shards", "4"],
        ],
    )
    def test_removed_fanout_flags_exit_2(self, capsys, expr_file, argv):
        with pytest.raises(SystemExit) as excinfo:
            main([arg.format(f=expr_file) for arg in argv])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestServeRefusals:
    """A store or journal ``repro serve`` cannot load ends start-up with
    one line on stderr and exit status 1, before any port is bound."""

    @staticmethod
    def serve(*args: str) -> subprocess.CompletedProcess:
        env = dict(os.environ, PYTHONPATH=SRC)
        return subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--port", "0", *args],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )

    def assert_refused(self, result, path, reason: str):
        assert result.returncode == 1
        assert "Traceback" not in result.stderr
        # Without a compiler the import also warns that the native
        # libraries did not load.
        (line,) = [
            line for line in result.stderr.splitlines()
            if not line.startswith("native arena libraries unavailable")
        ]
        assert line.startswith(f"repro serve: {path}: ") and reason in line
        assert result.stdout == ""

    def test_unreadable_checkpoint(self, tmp_path):
        (tmp_path / "checkpoint.snap").write_bytes(b"garbage")
        result = self.serve("--journal", str(tmp_path))
        self.assert_refused(
            result, tmp_path / "checkpoint.snap", "unreadable snapshot header"
        )

    def test_unreadable_load_file(self, tmp_path):
        path = tmp_path / "store.snap"
        path.write_bytes(b"garbage")
        result = self.serve("--load", str(path))
        self.assert_refused(result, path, "unreadable snapshot header")

    def test_load_file_with_a_malformed_header(self, tmp_path):
        from repro.lang.expr import Var
        from repro.store import ExprStore, snapshot_to_bytes

        store = ExprStore()
        store.intern(Var("x"))
        head, _, body = snapshot_to_bytes(store).partition(b"\n")
        header = dict(json.loads(head), max_entries=0)
        path = tmp_path / "store.snap"
        path.write_bytes(json.dumps(header).encode() + b"\n" + body)
        result = self.serve("--load", str(path))
        self.assert_refused(result, path, "'max_entries' must be an integer >= 1")

    def test_load_file_saving_an_unknown_engine(self, tmp_path):
        from repro.lang.expr import Var
        from repro.store import ExprStore, write_snapshot

        store = ExprStore()
        store.intern(Var("x"))
        path = tmp_path / "store.snap"
        write_snapshot(store, str(path), meta={"config": {"engine": "warp"}})
        result = self.serve("--load", str(path))
        self.assert_refused(result, path, "'engine' must be one of")

    def test_load_file_saving_an_unregistered_backend(self, tmp_path):
        from repro.lang.expr import Var
        from repro.store import ExprStore, write_snapshot

        store = ExprStore()
        store.intern(Var("x"))
        path = tmp_path / "store.snap"
        write_snapshot(store, str(path), meta={"backend": "nope"})
        result = self.serve("--load", str(path))
        self.assert_refused(
            result, path, "snapshot meta 'backend' 'nope' is not registered"
        )

    def test_journal_that_does_not_replay(self, tmp_path):
        (tmp_path / "journal-00000001.wal").write_bytes(_frame_bytes(b"garbage"))
        result = self.serve("--journal", str(tmp_path))
        self.assert_refused(result, tmp_path, "frame payload has no delta header")


class TestServeBackend:
    """``repro serve --load`` serves the backend the snapshot saved,
    unless ``--backend`` names another."""

    @staticmethod
    def banner(*args: str) -> str:
        """The start-up line of ``repro serve`` with ``args``; the server
        is stopped once it is read."""
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", *args],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            banner = proc.stdout.readline()
        finally:
            proc.send_signal(signal.SIGTERM)
            try:
                _out, err = proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:  # pragma: no cover - cleanup
                proc.kill()
                _out, err = proc.communicate()
        assert banner.startswith("repro serve: http://"), err
        return banner

    def test_saved_backend_is_served(self, tmp_path):
        from repro.api import Session
        from repro.lang.expr import Var

        path = str(tmp_path / "store.snap")
        with Session(backend="debruijn") as session:
            session.intern(Var("x"))
            session.save(path)
        assert "(backend=debruijn," in self.banner("--load", path)
        assert "(backend=ours," in self.banner("--load", path, "--backend", "ours")


class TestClassesCommand:
    def test_lists_classes(self, capsys, expr_file):
        assert main(["classes", expr_file]) == 0
        out = capsys.readouterr().out
        assert "2 occurrences" in out
        assert "v + 7" in out

    def test_no_classes(self, capsys, tmp_path):
        path = tmp_path / "p.lam"
        path.write_text("a b")
        main(["classes", str(path)])
        assert "no repeated" in capsys.readouterr().out


class TestCseCommand:
    def test_transforms(self, capsys, expr_file):
        assert main(["cse", expr_file]) == 0
        captured = capsys.readouterr()
        assert "let cse0 = v + 7 in" in captured.out
        assert "rounds" in captured.err


class TestExperimentDispatch:
    def test_table1_runs(self, capsys):
        assert main(["table1", "--trials", "2"]) == 0
        assert "Table 1" in capsys.readouterr().out
