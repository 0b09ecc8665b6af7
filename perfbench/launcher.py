"""Run ``repro serve`` or ``repro cluster`` as the benchmark's child process.

    python perfbench/launcher.py [--parent PID] [--spans FILE] -- serve --port 0 ...
    python perfbench/launcher.py [--parent PID] [--spans FILE] -- cluster serve --port 0 ...

Everything after ``--`` is handed to the program's own entry point
unchanged.  With ``--spans``, the launcher first installs the tracing
wrappers for the node's role (:mod:`perfbench.trace`) and writes the
recorded spans to FILE when the server shuts down (SIGTERM or Ctrl-C).
"""

from __future__ import annotations

import argparse
import ctypes
import os
import signal
import sys

PR_SET_PDEATHSIG = 1


def die_with(parent: int) -> None:
    """Ask the kernel to SIGTERM this process when ``parent`` exits, so
    no server outlives a benchmark that was killed outright."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong, ctypes.c_ulong, ctypes.c_ulong]
    libc.prctl.restype = ctypes.c_int
    if libc.prctl(PR_SET_PDEATHSIG, signal.SIGTERM, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_PDEATHSIG) failed")
    if os.getppid() != parent:  # the parent died before the request took effect
        sys.exit(1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", metavar="FILE", help="trace, and dump spans here at exit")
    parser.add_argument("--parent", type=int, metavar="PID", help="exit when PID exits")
    parser.add_argument("program", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    if args.parent is not None:
        die_with(args.parent)
    program = args.program[1:] if args.program[:1] == ["--"] else args.program
    if not program or program[0] not in ("serve", "cluster"):
        parser.error("expected '-- serve ...' or '-- cluster serve ...'")

    tracer = None
    if args.spans:
        from perfbench import trace

        tracer = trace.Tracer()
        if program[0] == "serve":
            trace.install_server(tracer)
        else:
            trace.install_coordinator(tracer)
    try:
        if program[0] == "serve":
            from repro.service.server import serve

            return serve(program[1:])
        from repro.cluster.coordinator import cluster

        return cluster(program[1:])
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
