"""Host speed, measured with a fixed reference task timed alongside the program.

The benchmark runs on a few cores of a shared host.  Each virtual CPU
flips between a fast and a slow state (the task below takes about 7
or about 13 ms), independently of the other and every few seconds, so one
run's raw wall times say as much about its neighbours as about the
program.  Each workload therefore times this module's reference task
whenever no call of the program is in flight: before and after every
set-up, and between calls.  Every time metric is reported **at
reference speed**: a call that took 100 ms between two samples
averaging ``2 * NOMINAL_MS`` reports 50 ms.  The raw times stay in the
record.

The reference task is the benchmark's own code and calls nothing of the
program, so no change to the program can move it.  It hash-conses a
seeded forest of small objects into a fresh table -- method calls,
walking, allocating keys and probing a dict, as interning does -- which
tracks the host's swings as the program feels them more closely than an
arithmetic loop.  It tracks them less well for work bound by memory,
such as a full collection of a large heap.
"""

from __future__ import annotations

import bisect
import gc
import os
import random
import time
from statistics import median

#: The reference speed: the task taking this long, in ms.  On the host
#: the benchmark was tuned on (2 vCPUs, Python 3.11.7) it took 7-14 ms.
#: Only the unit of the reported times depends on it.
NOMINAL_MS = 10.0

#: The forest: 150 trees of 60 nodes, about 6k distinct keys.
TREES = 150
TREE_NODES = 60

#: Untimed runs of the task first: its first runs are slower.
WARM_UP = 3


class _Leaf:
    __slots__ = ("atom",)

    def __init__(self, atom: int):
        self.atom = atom

    def children(self) -> tuple:
        return ()


class _Bind:
    __slots__ = ("atom", "body")

    def __init__(self, atom: int, body):
        self.atom = atom
        self.body = body

    def children(self) -> tuple:
        return (self.body,)


class _Pair:
    __slots__ = ("left", "right")
    atom = None

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def children(self) -> tuple:
        return (self.left, self.right)


def _tree(rng: random.Random, size: int):
    if size == 1:
        return _Leaf(rng.randrange(1000))
    if size == 2 or rng.random() < 0.2:
        return _Bind(rng.randrange(40), _tree(rng, size - 1))
    left = rng.randint(1, size - 2)
    return _Pair(_tree(rng, left), _tree(rng, size - 1 - left))


def forest() -> list:
    rng = random.Random("perfbench:hostspeed")
    return [_tree(rng, TREE_NODES) for _ in range(TREES)]


def reference(trees: list) -> int:
    """Hash-cons every tree into a fresh table; returns its size."""
    table: dict = {}

    def walk(node) -> int:
        key = (type(node).__name__, node.atom, tuple(walk(child) for child in node.children()))
        return table.setdefault(key, len(table))

    for tree in trees:
        walk(tree)
    return len(table)


class HostSpeed:
    """The reference task's timings over one run."""

    def __init__(self, every_cpu: bool = False) -> None:
        #: Time the task on each CPU in turn and keep the mean: for
        #: workloads whose threads and processes spread over every CPU.
        #: Otherwise it runs where the calling thread runs, as the
        #: program's next call most likely will.
        self.every_cpu = every_cpu
        self.trees = forest()
        self.samples: list[float] = []
        #: ``time.monotonic_ns()`` at the end of each sample.
        self.ends: list[int] = []
        for _ in range(WARM_UP):
            reference(self.trees)

    def _time_once(self) -> float:
        start = time.perf_counter_ns()
        reference(self.trees)
        return (time.perf_counter_ns() - start) / 1e6

    def sample(self) -> float:
        """Time the reference task, with the collector off so the
        program's heap does not decide how long it takes; returns ms."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            if self.every_cpu:
                cpus = os.sched_getaffinity(0)
                times = []
                try:
                    for cpu in sorted(cpus):
                        os.sched_setaffinity(0, {cpu})
                        times.append(self._time_once())
                finally:
                    os.sched_setaffinity(0, cpus)
                ms = sum(times) / len(times)
            else:
                ms = self._time_once()
        finally:
            if enabled:
                gc.enable()
        self.samples.append(ms)
        self.ends.append(time.monotonic_ns())
        return ms

    def around(self, start: int, end: int) -> float:
        """The host's speed over ``[start, end]`` (``monotonic_ns``): the
        mean of the last sample before it and the first one after.  No
        sample overlaps a call, since none is taken while one is in flight."""
        before = bisect.bisect_right(self.ends, start) - 1
        bracket = [self.samples[i] for i in (before, before + 1) if 0 <= i < len(self.samples)]
        return sum(bracket) / len(bracket)

    def record(self) -> dict:
        return {
            "nominal_ms": NOMINAL_MS,
            "every_cpu": self.every_cpu,
            "reference_ms": median(self.samples),
            "samples": len(self.samples),
        }


def factor(reference_ms: float) -> float:
    """Factor from a raw time to a time at reference speed."""
    return NOMINAL_MS / reference_ms
