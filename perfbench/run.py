"""The repository benchmark: one command, four seeded workloads.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seconds 10     # every workload

Runs a workload from :mod:`perfbench.workloads` against the program in
``src/``, checks every output against ``alpha_hash_all``, prints every
metric by name and unit, a ``record:`` line with the full record, and
as its last line one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (``END_TO_END``) from an
untraced run.  Every time is reported at reference speed, each call
scaled by the host-speed samples taken around it (``hostspeed.py``);
the record keeps the raw times.  ``--trace 1`` runs the workload twice for half the time
each, untraced and then traced, and reports the per-layer metrics
(``PER_LAYER``) with the tracing overhead.  See ``DESIGN.md`` for what
each metric means and which change it should show.

Exit status: 0 when every output was right and every child process and
scratch directory was cleaned up; 1 otherwise; 2 when the checkout has
no program to measure.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import signal
import sys
from collections import defaultdict
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: An untraced run sets up at least this many times; ``setup_s`` is the
#: median.
MIN_SETUPS = 7

END_TO_END = {
    "setup_s": "s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Span name -> per-layer metric (mean attributed ms per operation).
#: The coordinator's two layers only run on the ``cluster`` workload,
#: which ``BENCHMARK.json`` does not list (see ``DESIGN.md``); they are
#: in its record, not in ``PER_LAYER``.
LAYER_SPANS = {
    "arena.compile": "arena.compile_ms",
    "arena.kernel": "arena.kernel_ms",
    "kernel.tree": "kernel.tree_ms",
    "sexpr.encode": "sexpr.encode_ms",
    "sexpr.decode": "sexpr.decode_ms",
    "server.handler": "server.handler_ms",
    "server.lock_wait": "server.lock_wait_ms",
    "client.transport": "client.transport_ms",
    "plan": "plan.ms",
    "store.hash": "store.hash_ms",
    "store.intern": "store.intern_ms",
    "journal.append": "journal.append_ms",
    "journal.fsync": "journal.fsync_ms",
    "incremental.build": "incremental.build_ms",
    "incremental.replace": "incremental.replace_ms",
    "coordinator.route": "coordinator.route_ms",
    "coordinator.fanout": "coordinator.fanout_ms",
    "gc": "gc.pause_ms",
    "other": "other_ms",
}

#: Counters summed over a traced operation, reported as a mean per operation.
PER_OP_COUNTS = {
    "arena.walked_nodes": "count",
    "arena.unique_nodes": "count",
    "journal.fsyncs": "count",
    "journal.bytes": "bytes",
    "wire.request_bytes": "bytes",
    "wire.response_bytes": "bytes",
    "gc.collections": "count",
}

COORDINATOR_LAYERS = ("coordinator.route_ms", "coordinator.fanout_ms")

PER_LAYER = {
    **{metric: "ms" for metric in LAYER_SPANS.values() if metric not in COORDINATOR_LAYERS},
    "op_ms": "ms",
    "trace.overhead_ms": "ms",
    **PER_OP_COUNTS,
    "arena.dedup_ratio": "ratio",
    "store.intern_hit_rate": "ratio",
    "store.memo_hit_rate": "ratio",
    "stream.nodes_rehashed_per_edit": "count",
    "stream.built_items": "count",
    "client.retries": "count",
}


def _host() -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


def _at_reference(call) -> float:
    """A call's time at reference speed (see ``hostspeed.py``)."""
    from perfbench.hostspeed import factor

    return call.ms * factor(call.ref_ms)


def _busy_factor(calls) -> float:
    """Factor from raw busy time to busy time at reference speed: the
    calls' own factors, weighted by their length."""
    done = [call for call in calls if call.ok]
    return sum(_at_reference(call) for call in done) / sum(call.ms for call in done)


def _latency(calls, kind: str, ms=lambda call: call.ms) -> dict:
    from perfbench.stats import tail

    values = [ms(call) for call in calls if call.kind == kind and call.ok]
    if not values:
        return {"samples": 0}
    tail_ms, percentile = tail(values)
    return {
        "samples": len(values),
        "p50_ms": median(values),
        "tail_ms": tail_ms,
        "tail_percentile": percentile,
    }


def _throughput(calls) -> dict:
    from perfbench.stats import busy_ns

    done = [call for call in calls if call.ok]
    busy_s = busy_ns((call.start, call.end) for call in done) / 1e9
    return {
        "busy_s": busy_s,
        "ops_per_s": len(done) / busy_s,
        "nodes_per_s": sum(call.nodes for call in done) / busy_s,
    }


def _outcome(calls) -> dict:
    attempted = len(calls)
    failed = sum(1 for call in calls if not call.ok or call.wrong)
    return {
        "attempted": attempted,
        "refused_or_failed": sum(1 for call in calls if not call.ok),
        "wrong": sum(1 for call in calls if call.wrong),
        "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
    }


def _phase(cls, env, seconds: float, min_setups: int = 0, install=None):
    """Measure and verify one workload instance; returns it and the
    problems the oracle found."""
    workload = cls(env)
    if install is not None:
        install(env.tracer)
    try:
        workload.measure(seconds, min_setups)
    finally:
        if env.tracer is not None:
            env.tracer.uninstall()
    return workload, workload.verify()


def run_untraced(cls, env, seconds: float) -> dict:
    from perfbench.hostspeed import factor

    workload, problems = _phase(cls, env, seconds, min_setups=MIN_SETUPS)
    kinds = ("hash", "intern", "edit")
    latency = {kind: _latency(workload.calls, kind) for kind in kinds}
    at_reference = {kind: _latency(workload.calls, kind, _at_reference) for kind in kinds}
    throughput = _throughput(workload.calls)
    # Every time metric is at reference speed (see hostspeed.py); the
    # record keeps the raw times too.
    setups = [s * factor(ref) for s, ref in zip(workload.setups, workload.setup_refs)]
    call_factor = _busy_factor(workload.calls)
    primary = at_reference[cls.primary]
    metrics = {
        "setup_s": median(setups),
        "p50_ms": primary["p50_ms"],
        "tail_ms": primary["tail_ms"],
        "ops_per_s": throughput["ops_per_s"] / call_factor,
        "peak_rss_mb": median(workload.peaks),
    }
    record = {
        "primary_call": cls.primary,
        "host_speed": {**workload.host.record(), "busy_time_factor": call_factor},
        "latency_at_reference": {kind: value for kind, value in at_reference.items() if value["samples"]},
        "setup_s_at_reference_samples": setups,
        "cycles": workload.cycle,
        "setup_s_samples": workload.setups,
        "peak_rss_mb_samples": workload.peaks,
        "latency": {kind: value for kind, value in latency.items() if value["samples"]},
        "throughput": throughput,
        "outcome": _outcome(workload.calls),
        "problems": problems[:20],
        "process_problems": workload.process_problems,
        "details": workload.details,
    }
    if cls.primary == "edit":
        record["edits_per_s"] = throughput["ops_per_s"]
        record["open_s"] = median(workload.opens)
        record["open_s_samples"] = workload.opens
    return {"metrics": metrics, "record": record}


def layer_table(spans, counts) -> dict:
    """Mean per traced operation of each layer's attributed time and of
    each counter; the times plus ``other_ms`` sum to ``op_ms``."""
    from perfbench.stats import self_times

    by_op = defaultdict(list)
    for span in spans:
        by_op[span.op].append(span)
    roots = [span for span in spans if span.parent is None]
    totals: dict[str, float] = defaultdict(float)
    by_kind: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    ops_by_kind: dict[str, int] = defaultdict(int)
    for root in roots:
        names = {span.sid: span.name for span in by_op[root.sid]}
        kind = root.name
        ops_by_kind[kind] += 1
        for sid, ns in self_times(by_op[root.sid]).items():
            name = names[sid]
            layer = LAYER_SPANS["other" if name.startswith("op.") else name]
            totals[layer] += ns
            by_kind[kind][layer] += ns
    ops = len(roots)
    if not ops:
        raise RuntimeError("the traced phase recorded no operations")
    op_ns = sum(root.end - root.start for root in roots)
    table = {metric: totals.get(metric, 0.0) / ops / 1e6 for metric in LAYER_SPANS.values()}
    table["op_ms"] = op_ns / ops / 1e6

    root_ops = {root.sid for root in roots}
    summed: dict[str, float] = defaultdict(float)
    for op, name, value in counts:
        if op in root_ops:
            summed[name] += value
    for name in PER_OP_COUNTS:
        table[name] = summed.get(name, 0.0) / ops
    walked = summed.get("arena.walked_nodes", 0.0)
    table["arena.dedup_ratio"] = summed.get("arena.unique_nodes", 0.0) / walked if walked else 0.0
    breakdown = {
        kind: {
            "ops": ops_by_kind[kind],
            **{metric: ns / ops_by_kind[kind] / 1e6 for metric, ns in sorted(layers.items())},
        }
        for kind, layers in by_kind.items()
    }
    bases = {
        "operations": ops,
        "walked_nodes": walked,
        "unique_nodes": summed.get("arena.unique_nodes", 0.0),
        "sum_check_ms": (sum(totals.values()) - op_ns) / 1e6,
        "by_operation_kind": breakdown,
    }
    return {"table": table, "bases": bases}


def run_traced(cls, env_factory, seconds: float) -> dict:
    from perfbench import trace

    half = seconds / 2
    untraced, problems = _phase(cls, env_factory(None), half)
    untraced_calls, untraced_process_problems = untraced.calls, untraced.process_problems
    del untraced  # its store and inputs must not weigh on the traced phase
    gc.collect()
    tracer = trace.Tracer()
    install = trace.install_program if cls.name in ("corpus", "edit_stream") else trace.install_client
    traced, traced_problems = _phase(cls, env_factory(tracer), half, install=install)

    spans, counts = list(tracer.spans), list(tracer.counts)
    for path in traced.server_traces():
        server_spans, server_counts = trace.load(path)
        spans += server_spans
        counts += server_counts
    layers = layer_table(spans, counts)
    table = layers["table"]

    # Times at reference speed (see hostspeed.py), each half's calls
    # scaled by their own samples.
    scale = _busy_factor(traced.calls)
    for metric in LAYER_SPANS.values():
        table[metric] *= scale
    table["op_ms"] *= scale

    def primary_p50(calls, ms=lambda call: call.ms):
        return median([ms(c) for c in calls if c.kind == cls.primary and c.ok])

    untraced_p50 = primary_p50(untraced_calls, _at_reference)
    traced_p50 = primary_p50(traced.calls, _at_reference)
    table["trace.overhead_ms"] = traced_p50 - untraced_p50
    store, totals = traced.store, traced.counts
    probes = store["hits"] + store["misses"]
    table["store.intern_hit_rate"] = store["hits"] / probes if probes else 0.0
    summaries = store["memo_hits"] + store["hashed_nodes"]
    table["store.memo_hit_rate"] = store["memo_hits"] / summaries if summaries else 0.0
    edits = totals["stream.edits"]
    table["stream.nodes_rehashed_per_edit"] = totals["stream.nodes_rehashed"] / edits if edits else 0.0
    table["stream.built_items"] = totals["stream.built_items"] / max(1, traced.cycle)
    table["client.retries"] = totals["client.retries"]

    calls = untraced_calls + traced.calls
    record = {
        "primary_call": cls.primary,
        "untraced_p50_ms": untraced_p50,
        "traced_p50_ms": traced_p50,
        "raw_untraced_p50_ms": primary_p50(untraced_calls),
        "raw_traced_p50_ms": primary_p50(traced.calls),
        "host_speed": {**traced.host.record(), "busy_time_factor": scale},
        "traced_cycles": traced.cycle,
        "layer_bases": layers["bases"],
        "store_counters": dict(store),
        "counters": dict(totals),
        "coordinator_layers": {metric: table[metric] for metric in COORDINATOR_LAYERS},
        "spans": len(spans),
        "outcome": _outcome(calls),
        "problems": (problems + traced_problems)[:20],
        "process_problems": untraced_process_problems + traced.process_problems,
    }
    return {"metrics": table, "record": record}


def run_workload(name: str, seed: int, seconds: float, traced: bool, smoke: bool = False) -> dict:
    """One workload, measured and checked.  ``smoke`` shrinks the inputs
    so the benchmark's own tests run in seconds."""
    from perfbench import procs
    from perfbench.workloads import WORKLOADS, Env

    cls = WORKLOADS[name]
    children = procs.Children()
    try:
        def env_factory(tracer):
            return Env(seed, smoke, children, tracer)

        if traced:
            result = run_traced(cls, env_factory, seconds)
        else:
            result = run_untraced(cls, env_factory(None), seconds)
    finally:
        cleanup = children.close()
    cleanup += [f"child process still alive: {p}" for p in procs.stray_processes()]
    record = result["record"]
    cleanup += record.pop("process_problems")
    record.update(
        workload=name,
        seed=seed,
        seconds=seconds,
        trace=int(traced),
        smoke=smoke,
        host=_host(),
        cleanup_problems=cleanup,
        why=cls.__doc__.strip().splitlines()[0],
    )
    outcome = record["outcome"]
    result["correct"] = outcome["failed"] == 0 and not cleanup
    result["attempted"] = outcome["attempted"]
    result["failed"] = outcome["failed"]
    return result


def _print_result(name: str, result: dict, units: dict) -> None:
    print(f"perfbench {name}")
    for metric, unit in units.items():
        print(f"  {metric:<34} {result['metrics'][metric]:>16.6g} {unit}")
    print("record: " + json.dumps(result["record"], sort_keys=True, default=str))


def main(argv=None) -> int:
    workloads = ["corpus", "service", "edit_stream", "cluster"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads + ["all"], required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program to measure: {ROOT}/src/repro is missing", file=sys.stderr)
        return 2
    for path in (os.path.join(ROOT, "src"), ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench import procs

    stale = procs.stale_launchers()
    if stale:
        print(f"perfbench: servers from an earlier run are still alive: {stale}", file=sys.stderr)
        return 1

    def _on_sigterm(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _on_sigterm)
    units = PER_LAYER if args.trace else END_TO_END
    names = workloads if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
            _print_result(name, results[name], units)
    except KeyboardInterrupt:
        print("perfbench: interrupted; child processes stopped", file=sys.stderr)
        return 130

    def metrics_of(name):
        metrics = results[name]["metrics"]
        return {metric: {"value": metrics[metric], "unit": unit} for metric, unit in units.items()}

    if len(names) == 1:
        metrics = metrics_of(names[0])
    else:
        metrics = {
            f"{name}.{metric}": value
            for name in names
            for metric, value in metrics_of(name).items()
        }
    correct = all(result["correct"] for result in results.values())
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
