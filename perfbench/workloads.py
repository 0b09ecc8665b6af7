"""The four workloads, each a closed loop through a public entry point.

=========== ============================================== ==============
workload    entry point                                    primary call
=========== ============================================== ==============
corpus      in-process ``Session``                         hash_corpus
service     ``ServiceClient`` -> ``repro serve --journal``  /v1/hash
edit_stream ``Session.open_stream`` -> ``StreamSession``    edit
cluster     ``ServiceClient`` -> ``repro cluster``          /v1/hash
=========== ============================================== ==============

A run is a sequence of **cycles**.  Each cycle sets up from scratch (a
new ``Session``, or new server processes), makes a fixed number of
timed calls, and tears down; cycles repeat until the run's time is up,
and the last one always completes.  A cycle's work, and so the state
the program builds up (store size, heap, journal), never depends on how
fast the program is: a faster program runs more cycles of the same
distribution rather than a different one.

Every output is checked against :func:`repro.core.hashed.alpha_hash_all`
after the run, outside the timed region.  Between cycles the benchmark
freezes what it keeps for that check (``gc.freeze``), so the collector
pauses the program pays are for the program's own objects.
"""

from __future__ import annotations

import contextlib
import gc
import os
import shutil
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Hashable, Optional

from perfbench import procs
from perfbench.gen import EditTrace, Item, ItemStream, edit_corpus
from perfbench.hostspeed import HostSpeed
from perfbench.trace import Tracer
from repro.api import Session
from repro.core.combiners import default_combiners
from repro.core.hashed import alpha_hash_all
from repro.core.kernel import summarise_tree
from repro.core.position_tree import pt_here_hash
from repro.core.structure import svar_hash, top_hash
from repro.lang.sexpr import to_wire
from repro.service.client import ServiceClient

#: Consecutive failed calls after which a run stops (the program is
#: down; spinning would only pile up identical failures).
MAX_CONSECUTIVE_FAILURES = 5

now_ns = time.monotonic_ns


@dataclass
class Call:
    """One timed call: its kind, wall interval and input size, and the
    host's speed around it (``HostSpeed.around``, filled in after the run)."""

    kind: str
    start: int
    end: int
    nodes: int
    cycle: int
    error: str = ""
    ref_ms: float = 0.0
    wrong: bool = False

    @property
    def ok(self) -> bool:
        return not self.error

    @property
    def ms(self) -> float:
        return (self.end - self.start) / 1e6


@dataclass
class Env:
    seed: int
    smoke: bool
    children: procs.Children
    tracer: Optional[Tracer] = None


# -- the oracle --------------------------------------------------------------


class Oracle:
    """Expected root hashes, by item origin.

    Runs ``alpha_hash_all``'s summariser (:func:`~repro.core.kernel.
    summarise_tree`, then ``top_hash`` of the root) with its leaf caches
    shared across items, which halves the cost of calling
    ``alpha_hash_all`` per item; :meth:`full` is the literal call, used
    as a cross-check.  Repeats and renamed copies are alpha-equivalent
    to their origin, so each origin is hashed once.
    """

    def __init__(self) -> None:
        self.combiners = default_combiners()
        self._here = pt_here_hash(self.combiners)
        self._svar = svar_hash(self.combiners)
        self._var_entries: dict = {}
        self._literals: dict = {}
        self._fresh: dict[Hashable, object] = {}
        self._hash: dict[Hashable, int] = {}

    def learn(self, items: list[Item]) -> None:
        for item in items:
            if item.kind == "fresh":
                self._fresh[item.origin] = item.expr

    def expected(self, item: Item) -> int:
        value = self._hash.get(item.origin)
        if value is None:
            s_hash, varmap = summarise_tree(
                self._fresh[item.origin],
                self.combiners,
                here=self._here,
                svar=self._svar,
                var_entry_cache=self._var_entries,
                lit_cache=self._literals,
            )
            value = top_hash(self.combiners, s_hash, varmap.hash)
            self._hash[item.origin] = value
        return value

    def full(self, item: Item) -> int:
        return alpha_hash_all(self._fresh[item.origin]).root_hash


class IdBook:
    """Interning is right when equal hashes share one id and different
    hashes never do (ids are per store, so one book per cycle)."""

    def __init__(self) -> None:
        self._id_of: dict[int, Hashable] = {}
        self._hash_of: dict[Hashable, int] = {}

    def consistent(self, expected_hash: int, node_id: Hashable) -> bool:
        known_id = self._id_of.setdefault(expected_hash, node_id)
        known_hash = self._hash_of.setdefault(node_id, expected_hash)
        return known_id == node_id and known_hash == expected_hash


class TreeOracle(Oracle):
    """The same summariser, memoised over unchanged subtrees.

    Checking an edit from scratch costs O(item) -- 8k nodes for a
    sub-millisecond edit.  Each shadow version shares every off-spine
    subtree object with the version before, so summarising it with a
    memo keyed by object redoes only the new spine and subtree.  The
    memo pins every object it keys, so an id is never reused.
    """

    memo_hits = memo_skipped_nodes = hashed_nodes = 0  # the memo's counters

    def __init__(self) -> None:
        super().__init__()
        self._memo: dict = {}

    def root(self, expr) -> int:
        summarise_tree(
            expr,
            self.combiners,
            here=self._here,
            svar=self._svar,
            var_entry_cache=self._var_entries,
            lit_cache=self._literals,
            memo=self._memo,
            store_stats=self,
        )
        return self._memo[id(expr)].top


def check_hashes(call: Call, items: list[Item], hashes, oracle: Oracle, problems: list[str]) -> None:
    expected = [oracle.expected(item) for item in items]
    hashes = list(hashes)
    if hashes == expected:
        return
    call.wrong = True
    if len(hashes) != len(expected):
        problems.append(f"{call.kind} call: {len(hashes)} hashes for {len(items)} items")
        return
    bad = next(i for i, (a, b) in enumerate(zip(hashes, expected)) if a != b)
    problems.append(f"{call.kind} call: item {bad} hash differs from alpha_hash_all")


def check_ids(call: Call, items: list[Item], ids, oracle: Oracle, book: IdBook, problems: list[str]) -> None:
    if len(ids) != len(items):
        call.wrong = True
        problems.append(f"intern call returned {len(ids)} ids for {len(items)} items")
        return
    for index, (item, node_id) in enumerate(zip(items, ids)):
        if not book.consistent(oracle.expected(item), node_id):
            call.wrong = True
            problems.append(
                f"intern call: item {index} ({item.kind}) got id {node_id!r}, "
                "inconsistent with an earlier item of the same or another class"
            )
            return


def check_literal(call: Call, item: Item, value: int, oracle: Oracle, problems: list[str]) -> None:
    """Tie the oracle to a literal ``alpha_hash_all`` call, once per run."""
    if value != oracle.full(item):
        call.wrong = True
        problems.append("first hash differs from a direct alpha_hash_all call")


# -- the shared loop machinery -----------------------------------------------


class Workload:
    name = ""
    primary = ""
    #: Whether the program's work spreads over every CPU (see ``HostSpeed``).
    every_cpu = False

    def __init__(self, env: Env):
        self.env = env
        self.tracer = env.tracer
        self.calls: list[Call] = []
        self.setups: list[float] = []
        #: The mean of the host-speed samples taken before and after each set-up.
        self.setup_refs: list[float] = []
        self.peaks: list[float] = []
        self.store = Counter()
        self.counts = Counter()
        self.details: dict = {}
        #: Server processes that had to be killed or exited non-zero.
        self.process_problems: list[str] = []
        self.cycle = 0
        self.failures = 0
        #: Timed at every set-up and between calls; see ``hostspeed``.
        self.host = HostSpeed(self.every_cpu)

    # Subclasses implement these.
    def make_inputs(self) -> None:  # pragma: no cover - interface
        """Generate every input of the next cycle."""
        raise NotImplementedError

    def start_program(self) -> float:  # pragma: no cover - interface
        """Create the session or start the servers; returns the seconds
        that count as set-up."""
        raise NotImplementedError

    def run_cycle(self, hard_deadline: float) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def end_cycle(self, measured: bool) -> None:  # pragma: no cover - interface
        """Collect the cycle's figures (when ``measured``) and tear down."""
        raise NotImplementedError

    def verify(self) -> list[str]:  # pragma: no cover - interface
        raise NotImplementedError

    def server_traces(self) -> list[str]:
        return []

    def set_up(self) -> float:
        """One cycle's set-up; returns its seconds.

        The inputs are frozen out of the collector (``gc.freeze``) before
        the program starts, so the collections the program pays for scan
        only what the program builds, however much input the benchmark
        generated ahead."""
        before = self.host.sample()
        start = time.perf_counter()
        self.make_inputs()
        generated = time.perf_counter() - start
        gc.collect()
        gc.freeze()
        seconds = generated + self.start_program()
        self.setup_refs.append((before + self.host.sample()) / 2)
        return seconds

    def measure(self, seconds: float, min_setups: int = 0) -> None:
        """Run whole cycles until ``seconds`` have passed, then set up
        (and tear down) again until there are ``min_setups`` set-ups."""
        start = time.monotonic()
        hard_deadline = start + 3 * seconds + 60
        try:
            while True:
                self.setups.append(self.set_up())
                gc.collect()
                try:
                    self.run_cycle(hard_deadline)
                finally:
                    self.host.sample()  # closes the bracket of the cycle's last calls
                    self.end_cycle(measured=True)
                    gc.collect()
                    gc.freeze()
                self.cycle += 1
                if time.monotonic() - start >= seconds or self.stopped(hard_deadline):
                    break
            while len(self.setups) < min_setups:
                self.setups.append(self.set_up())
                self.end_cycle(measured=False)
        finally:
            gc.unfreeze()
        for call in self.calls:
            call.ref_ms = self.host.around(call.start, call.end)

    # Helpers.
    def stopped(self, hard_deadline: float) -> bool:
        return self.failures >= MAX_CONSECUTIVE_FAILURES or time.monotonic() > hard_deadline

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def timed(self, kind: str, nodes: int, fn: Callable):
        """Run one call, timed; a raised error is a failed call."""
        result = None
        error = ""
        start = now_ns()
        try:
            if self.tracer is None:
                result = fn()
            else:
                with self.tracer.operation(f"op.{kind}"):
                    result = fn()
        except Exception as exc:  # the call failed; record it and go on
            error = f"{type(exc).__name__}: {exc}"
        call = Call(kind, start, now_ns(), nodes, self.cycle, error)
        self.calls.append(call)
        self.failures = 0 if call.ok else self.failures + 1
        return call, result


# -- corpus ------------------------------------------------------------------


class CorpusWorkload(Workload):
    """In-process default Session(); each 1000-item batch is hashed, then interned into the session's store."""

    name = "corpus"
    primary = "hash"

    def __init__(self, env: Env):
        super().__init__(env)
        self.batch_items = 600 if env.smoke else 1000
        self.batches_per_cycle = 2 if env.smoke else 6
        self.stream = ItemStream(env.seed, 0, p_same=0.25, p_renamed=0.25)
        #: [cycle, batch, hash call, hashes, intern call, ids, stored hashes]
        self.batches: list[list] = []

    def make_inputs(self) -> None:
        self.inputs = [self.stream.batch(self.batch_items) for _ in range(self.batches_per_cycle)]

    def start_program(self) -> float:
        start = time.perf_counter()
        self.session = Session()
        return time.perf_counter() - start

    def run_cycle(self, hard_deadline: float) -> None:
        session = self.session
        for batch in self.inputs:
            if self.stopped(hard_deadline):
                return
            self.host.sample()
            exprs = [item.expr for item in batch]
            nodes = sum(expr.size for expr in exprs)
            hashed, hashes = self.timed("hash", nodes, lambda: session.hash_corpus(exprs))
            interned, ids = self.timed("intern", nodes, lambda: session.intern_many(exprs))
            self.batches.append([self.cycle, batch, hashed, hashes, interned, ids, None])

    def end_cycle(self, measured: bool) -> None:
        store = self.session.store
        if measured:
            for record in self.batches:
                if record[0] == self.cycle and record[4].ok:
                    try:
                        record[6] = [store.hash_of(node_id) for node_id in record[5]]
                    except (KeyError, TypeError):
                        record[6] = []  # an id the store does not know
            if not self.peaks:
                self.peaks.append(procs.peak_rss_mb(os.getpid()))
            self.store.update(_store_counters(store.stats.as_dict()))
        self.session.close()
        self.session = self.inputs = None

    def verify(self) -> list[str]:
        oracle, problems = Oracle(), []
        for record in self.batches:
            oracle.learn(record[1])
        books: dict[int, IdBook] = {}
        for cycle, batch, hashed, hashes, interned, ids, stored in self.batches:
            if hashed.ok:
                check_hashes(hashed, batch, hashes, oracle, problems)
            if interned.ok:
                check_ids(interned, batch, ids, oracle, books.setdefault(cycle, IdBook()), problems)
                if not interned.wrong:
                    check_hashes(interned, batch, stored, oracle, problems)
        if self.batches and self.batches[0][2].ok:
            _, batch, call, hashes, *_ = self.batches[0]
            check_literal(call, batch[0], hashes[0], oracle, problems)
        return problems


def _store_counters(stats: dict) -> dict:
    return {name: stats.get(name, 0) for name in ("hits", "misses", "memo_hits", "hashed_nodes")}


# -- service and cluster -----------------------------------------------------


class _HttpWorkload(Workload):
    """Client side shared by the two HTTP workloads.

    Each client thread sends ``requests_per_cycle / threads`` requests
    per cycle, every fourth an intern; a request's items are encoded
    inside the timed call.  The clients go in lock-step rounds, one
    request each, so every request meets the same contention and the
    host's speed is sampled between rounds, with no request in flight."""

    threads = 1
    items_per_request = 100
    requests_per_cycle = 8
    every_cpu = True
    p_same = 0.25
    p_renamed = 0.25

    def __init__(self, env: Env):
        super().__init__(env)
        if env.smoke:
            self.requests_per_cycle = 4 * self.threads
        self.streams = [
            ItemStream(env.seed, index, self.p_same, self.p_renamed)
            for index in range(self.threads)
        ]
        self.serials = [0] * self.threads
        #: (cycle, items, call, reply)
        self.requests: list[tuple[int, list[Item], Call, object]] = []
        self.nodes: list[procs.Child] = []
        self.clients: list[ServiceClient] = []
        self.span_files: list[str] = []

    def start_nodes(self) -> str:  # pragma: no cover - interface
        """Start the server processes; returns the URL clients talk to."""
        raise NotImplementedError

    def make_inputs(self) -> None:
        per_client = self.requests_per_cycle // self.threads
        self.inputs = [
            [stream.batch(self.items_per_request) for _ in range(per_client)]
            for stream in self.streams
        ]

    def start_program(self) -> float:
        start = time.perf_counter()
        url = self.start_nodes()
        self.clients = [ServiceClient(url, timeout=120.0) for _ in range(self.threads)]
        return time.perf_counter() - start

    def encode(self, exprs) -> list:
        with self.span("sexpr.encode"):
            return [to_wire(expr) for expr in exprs]

    def send(self, index: int, batch: list[Item]) -> None:
        client = self.clients[index]
        exprs = [item.expr for item in batch]
        nodes = sum(expr.size for expr in exprs)
        if self.serials[index] % 4 == 3:
            call, reply = self.timed(
                "intern", nodes, lambda: client.intern_wire(self.encode(exprs))
            )
        else:
            call, reply = self.timed("hash", nodes, lambda: client.hash_corpus(exprs))
        self.serials[index] += 1
        self.requests.append((self.cycle, batch, call, reply))

    def run_cycle(self, hard_deadline: float) -> None:
        errors: list[BaseException] = []

        def client(index: int, batch: list[Item]) -> None:
            try:
                self.send(index, batch)
            except BaseException as exc:  # re-raised on the main thread below
                errors.append(exc)

        for batches in zip(*self.inputs):
            if self.stopped(hard_deadline):
                return
            self.host.sample()
            threads = [
                threading.Thread(target=client, args=(index, batch))
                for index, batch in enumerate(batches)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            if errors:
                raise errors[0]

    def end_cycle(self, measured: bool) -> None:
        try:
            if measured:
                self.peaks.append(max(procs.peak_rss_mb(n.process.pid) for n in self.nodes))
                self.store.update(self.node_counters())
                self.counts["client.retries"] += sum(c.counters["retries"] for c in self.clients)
        finally:
            for client in self.clients:
                client.close()
            self.process_problems += self.env.children.stop(self.nodes)
            self.span_files += [n.spans_path for n in self.nodes if n.spans_path]
            self.nodes = []
            self.inputs = None

    def node_counters(self) -> dict:  # pragma: no cover - interface
        raise NotImplementedError

    def verify(self) -> list[str]:
        oracle, problems = Oracle(), []
        for _cycle, batch, _call, _reply in self.requests:
            oracle.learn(batch)
        books: dict[int, IdBook] = {}
        for cycle, batch, call, reply in self.requests:
            if not call.ok:
                continue
            if call.kind == "hash":
                check_hashes(call, batch, reply, oracle, problems)
                continue
            check_hashes(call, batch, reply["hashes"], oracle, problems)
            ids = reply["ids"]
            if "owners" in reply:  # cluster ids are shard-local
                ids = list(zip(reply["owners"], ids))
            check_ids(call, batch, ids, oracle, books.setdefault(cycle, IdBook()), problems)
        first = next((r for r in self.requests if r[2].kind == "hash" and r[2].ok), None)
        if first is not None:
            check_literal(first[2], first[1][0], first[3][0], oracle, problems)
        return problems

    def server_traces(self) -> list[str]:
        return self.span_files


class ServiceWorkload(_HttpWorkload):
    """One repro serve --journal process; two keep-alive clients, ~6k-node requests, 3 hash : 1 intern."""

    name = "service"
    primary = "hash"
    threads = 2
    items_per_request = 100
    requests_per_cycle = 48
    p_same = 0.15

    def start_nodes(self) -> str:
        self.journal = self.env.children.tempdir("journal-")
        self.details["journal_fs"] = procs.filesystem_of(self.journal)
        node = self.env.children.spawn(
            "serve",
            ["serve", "--port", "0", "--journal", self.journal],
            trace=self.tracer is not None,
        )
        self.nodes = [node]
        return self.env.children.ready(node)

    def node_counters(self) -> dict:
        return _store_counters(self.clients[0].metrics()["store"]["counters"])

    def end_cycle(self, measured: bool) -> None:
        try:
            super().end_cycle(measured)
        finally:
            shutil.rmtree(self.journal, ignore_errors=True)


class ClusterWorkload(_HttpWorkload):
    """A repro cluster coordinator over two shard processes; one client, ~60k-node requests, 3 hash : 1 intern."""

    name = "cluster"
    primary = "hash"
    threads = 1
    requests_per_cycle = 16

    def __init__(self, env: Env):
        super().__init__(env)
        self.items_per_request = 200 if env.smoke else 1000

    def start_nodes(self) -> str:
        children = self.env.children
        traced = self.tracer is not None
        shards = [
            children.spawn(
                f"shard{index}",
                ["serve", "--port", "0", "--shard-id", str(index), "--shard-count", "2"],
                trace=traced,
            )
            for index in range(2)
        ]
        self.nodes = list(shards)
        argv = ["cluster", "serve", "--port", "0"]
        for shard in shards:
            argv += ["--shard", children.ready(shard)]
        coordinator = children.spawn("coordinator", argv, trace=traced)
        self.nodes.append(coordinator)
        return children.ready(coordinator)

    def node_counters(self) -> dict:
        total = Counter()
        for shard in self.clients[0].metrics()["shards"]:
            total.update(_store_counters(shard["metrics"]["store"]["counters"]))
        return total


# -- edit stream -------------------------------------------------------------


class EditStreamWorkload(Workload):
    """Session().open_stream over 12 balanced 8192-node items, then seeded subtree replacements at spine depth >= 12."""

    name = "edit_stream"
    primary = "edit"
    #: Edits between two samples of the host's speed (about 0.1 s).
    edits_per_sample = 200

    def __init__(self, env: Env):
        super().__init__(env)
        self.item_size = 1024 if env.smoke else 8192
        self.edits_per_cycle = 300
        self.opens: list[float] = []
        #: (cycle, call, item, shadow tree after the edit, reported root hash)
        self.edits: list[tuple[int, Call, int, object, Optional[int]]] = []
        #: cycle -> the stream's root hashes at cycle end
        self.finals: dict[int, list] = {}

    def make_inputs(self) -> None:
        """The corpus and the cycle's whole edit trace: each edit's path
        is drawn from the shadow tree as the earlier edits left it."""
        self.corpus = edit_corpus(self.env.seed, 12, self.item_size)
        self.trace = EditTrace(self.env.seed, self.cycle, self.corpus)
        self.plan = []
        for _ in range(self.edits_per_cycle):
            item, path, replacement = self.trace.next_edit()
            shadow = self.trace.apply(item, path, replacement)
            self.plan.append((item, path, replacement, shadow))

    def start_program(self) -> float:
        start = time.perf_counter()
        self.session = Session()
        elapsed = time.perf_counter() - start
        # Users pay the open once per session: measured, but not set-up.
        opened = time.perf_counter()
        self.stream = self.session.open_stream(self.corpus)
        self.opens.append(time.perf_counter() - opened)
        self.report_before = self.stream.report()
        return elapsed

    def run_cycle(self, hard_deadline: float) -> None:
        stream = self.stream
        touched: set[int] = set()
        cold = False
        for index, (item, path, replacement, shadow) in enumerate(self.plan):
            if self.stopped(hard_deadline):
                return
            # Each item's first edit builds its hasher (0.1-0.3 s): it
            # gets samples of its own on either side.
            first_touch = item not in touched
            if index % self.edits_per_sample == 0 or first_touch or cold:
                self.host.sample()
            touched.add(item)
            cold = first_touch
            call, report = self.timed(
                "edit", replacement.size, lambda: stream.edit(item, path, replacement)
            )
            self.edits.append((self.cycle, call, item, shadow, report and report.root_hash))
            if not call.ok:
                return  # the program's tree is unknown after a failed edit

    def end_cycle(self, measured: bool) -> None:
        if measured:
            report = self.stream.report()
            for name in ("edits", "nodes_rehashed", "built_items"):
                self.counts[f"stream.{name}"] += report[name] - self.report_before[name]
            self.store.update(_store_counters(self.session.store.stats.as_dict()))
            if not self.peaks:
                self.peaks.append(procs.peak_rss_mb(os.getpid()))
            self.finals[self.cycle] = list(self.stream.root_hashes)
        self.stream.close()
        self.session.close()
        self.stream = self.session = self.trace = self.corpus = self.plan = None

    def verify(self) -> list[str]:
        problems: list[str] = []
        oracles: dict[int, TreeOracle] = {}
        last_edit: dict[int, tuple[int, Call, object]] = {}
        for cycle, call, item, shadow, root_hash in self.edits:
            if not call.ok:
                continue
            last_edit[cycle] = (item, call, shadow)
            if root_hash != oracles.setdefault(cycle, TreeOracle()).root(shadow):
                call.wrong = True
                problems.append(f"edit of item {item}: root hash differs from alpha_hash_all")
        # The stream's final state against a direct alpha_hash_all call,
        # for the last item each cycle edited.
        for cycle, (item, call, shadow) in last_edit.items():
            if alpha_hash_all(shadow).root_hash != self.finals[cycle][item]:
                call.wrong = True
                problems.append(f"cycle {cycle} item {item}: final root differs from alpha_hash_all")
        return problems


WORKLOADS = {
    cls.name: cls
    for cls in (CorpusWorkload, ServiceWorkload, EditStreamWorkload, ClusterWorkload)
}
