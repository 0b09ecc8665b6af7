"""Child server processes and scratch directories, torn down on every exit.

:class:`Children` starts ``repro serve`` / ``repro cluster`` through
``launcher.py``, reads each child's URL from its log, and stops every
child (SIGTERM, then SIGKILL) when the run ends, however it ends.
:func:`stray_processes` finds any process the run left behind, and
:func:`stale_launchers` any server an earlier run left behind, so a run
never measures next to an orphan.
"""

from __future__ import annotations

import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LAUNCHER = os.path.join(HERE, "launcher.py")
SCRATCH = os.path.join(ROOT, ".perfbench_tmp")

_URL = re.compile(r"(http://[0-9.]+:[0-9]+)")


@dataclass
class Child:
    name: str
    process: subprocess.Popen
    log_path: str
    spans_path: Optional[str]
    url: Optional[str] = None


def _read(path: str) -> str:
    with open(path, errors="replace") as handle:
        return handle.read()


class Children:
    """Every child process of one run, and its scratch directory."""

    def __init__(self) -> None:
        os.makedirs(SCRATCH, exist_ok=True)
        _remove_dead_runs()
        self.workdir = tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=SCRATCH)
        self.children: list[Child] = []
        self._serial = 0

    def tempdir(self, prefix: str) -> str:
        return tempfile.mkdtemp(prefix=prefix, dir=self.workdir)

    def spawn(self, name: str, argv: list[str], trace: bool) -> Child:
        """Start ``launcher.py`` with ``argv``; :meth:`ready` waits for it."""
        self._serial += 1
        stem = os.path.join(self.workdir, f"{self._serial:03d}-{name}")
        spans_path = f"{stem}.spans.json" if trace else None
        command = [sys.executable, LAUNCHER, "--parent", str(os.getpid())]
        if spans_path:
            command += ["--spans", spans_path]
        command += ["--", *argv]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(ROOT, "src"), ROOT]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        log_path = f"{stem}.log"
        with open(log_path, "wb") as log:
            process = subprocess.Popen(
                command, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT
            )
        child = Child(name, process, log_path, spans_path)
        self.children.append(child)
        return child

    @staticmethod
    def ready(child: Child, timeout: float = 60.0) -> str:
        """Wait until ``child`` prints the URL it serves on; returns it."""
        deadline = time.monotonic() + timeout
        while child.url is None:
            match = _URL.search(_read(child.log_path))
            if match:
                child.url = match.group(1)
            elif child.process.poll() is not None:
                raise RuntimeError(
                    f"{child.name} exited with {child.process.returncode}: "
                    f"{_read(child.log_path)[-2000:]}"
                )
            elif time.monotonic() > deadline:
                raise RuntimeError(f"{child.name} printed no URL within {timeout}s")
            else:
                time.sleep(0.005)
        return child.url

    def stop(self, children: Optional[list[Child]] = None, grace: float = 10.0) -> list[str]:
        """SIGTERM, wait, SIGKILL what is left, reap.  Returns problems
        (a child that had to be killed or exited non-zero)."""
        targets = list(self.children if children is None else children)
        for child in targets:
            if child.process.poll() is None:
                child.process.send_signal(signal.SIGTERM)
        problems = []
        deadline = time.monotonic() + grace
        for child in targets:
            try:
                child.process.wait(max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                child.process.kill()
                child.process.wait()
                problems.append(f"{child.name} ignored SIGTERM and was killed")
            if child.process.returncode not in (0, -signal.SIGTERM):
                problems.append(
                    f"{child.name} exited with {child.process.returncode}: "
                    f"{_read(child.log_path)[-1000:]}"
                )
            self.children.remove(child)
        return problems

    def close(self) -> list[str]:
        """Stop every child and delete the scratch directory."""
        problems = self.stop()
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            os.rmdir(SCRATCH)
        except OSError:
            pass  # another run's directory is still there
        if os.path.exists(self.workdir):
            problems.append(f"scratch directory {self.workdir} survived")
        return problems


def _remove_dead_runs() -> None:
    """Delete scratch directories of runs that were killed outright."""
    for entry in os.listdir(SCRATCH):
        match = re.fullmatch(r"run-(\d+)-.*", entry)
        if match is None:
            continue
        try:
            os.kill(int(match.group(1)), 0)
        except ProcessLookupError:
            shutil.rmtree(os.path.join(SCRATCH, entry), ignore_errors=True)
        except PermissionError:
            pass  # alive, someone else's


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a live process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def _processes():
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            yield int(entry)


def stray_processes() -> list[str]:
    """Live children of this process (there should be none at exit)."""
    me = os.getpid()
    found = []
    for pid in _processes():
        try:
            with open(f"/proc/{pid}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == me:
            found.append(f"pid {pid} (state {fields[0]})")
    return found


def stale_launchers() -> list[str]:
    """Servers started by an earlier run from this checkout and still alive."""
    me = os.getpid()
    found = []
    for pid in _processes():
        if pid == me:
            continue
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                argv = handle.read().split(b"\0")
        except OSError:
            continue
        if LAUNCHER.encode() in argv:
            found.append(f"pid {pid}")
    return found


def filesystem_of(path: str) -> str:
    """The filesystem type holding ``path``, from ``/proc/mounts``."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    with open("/proc/mounts") as handle:
        for line in handle:
            fields = line.split()
            mount = fields[1]
            if (path == mount or path.startswith(mount.rstrip("/") + "/")) and len(mount) > len(best):
                best, kind = mount, fields[2]
    return kind
