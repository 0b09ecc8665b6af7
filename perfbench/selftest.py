"""Tests for the benchmark's own logic.

    python3 -m pytest -q perfbench/selftest.py

(The file name keeps it out of the repository's default test
collection: it starts server processes and takes about a minute.)
"""

from __future__ import annotations

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import run  # noqa: E402
from perfbench.gen import EditTrace, ItemStream, edit_corpus, rename  # noqa: E402
from perfbench.hostspeed import NOMINAL_MS, HostSpeed, forest, reference  # noqa: E402
from perfbench.stats import Span, busy_ns, self_times, tail  # noqa: E402
from perfbench.workloads import Call  # noqa: E402
from repro.core.hashed import alpha_hash_all  # noqa: E402
from repro.lang.sexpr import dumps  # noqa: E402


def _batch(seed: int, stream: int = 0) -> list[tuple[str, object, str]]:
    items = ItemStream(seed, stream, p_same=0.25, p_renamed=0.25).batch(300)
    return [(dumps(item.expr), item.origin, item.kind) for item in items]


# -- generators --------------------------------------------------------------


def test_item_stream_is_deterministic_per_seed():
    assert _batch(7) == _batch(7)
    assert _batch(7) != _batch(8)
    assert _batch(7, stream=0) != _batch(7, stream=1)


def test_item_sizes_are_bounded_and_repeats_are_alpha_equivalent():
    items = ItemStream(3, 0, p_same=0.25, p_renamed=0.25).batch(2000)
    fresh = {item.origin: item.expr for item in items if item.kind == "fresh"}
    assert all(30 <= item.expr.size <= 90 for item in items)
    kinds = {kind: sum(item.kind == kind for item in items) for kind in ("fresh", "same", "renamed")}
    assert kinds["same"] > 300 and kinds["renamed"] > 300 and kinds["fresh"] > 800
    for item in items[:400]:
        original = fresh[item.origin]
        if item.kind == "same":
            assert item.expr is original
        elif item.kind == "renamed":
            assert item.expr is not original and dumps(item.expr) != dumps(original)
            assert alpha_hash_all(item.expr).root_hash == alpha_hash_all(original).root_hash


def test_rename_keeps_free_variables():
    expr = ItemStream(1, 0, 0.0, 0.0).next_item().expr
    assert alpha_hash_all(rename(expr, "t")).root_hash == alpha_hash_all(expr).root_hash


def test_edit_trace_is_deterministic_and_deep():
    def trace(seed):
        corpus = edit_corpus(seed, 3, 512)
        edits = EditTrace(seed, 0, corpus)
        out = []
        for _ in range(40):
            item, path, replacement = edits.next_edit()
            edits.apply(item, path, replacement)
            out.append((item, path, dumps(replacement)))
        return out

    first = trace(5)
    assert first == trace(5)
    assert first != trace(6)
    assert all(len(path) >= 12 for _item, path, _r in first)
    assert [e.size for e in edit_corpus(5, 3, 512)] == [512, 512, 512]


# -- statistics --------------------------------------------------------------


@pytest.mark.parametrize(
    "count, index, percentile",
    [(5, 4, 100.0), (10, 9, 100.0), (11, 0, 100.0 / 11), (20, 9, 50.0), (100, 89, 90.0), (1000, 989, 99.0)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(count, index, percentile):
    values = list(range(count, 0, -1))  # order must not matter
    value, got = tail(values)
    assert value == sorted(values)[index]
    assert got == pytest.approx(percentile)
    if count > 10:
        assert sum(v > value for v in values) == 10


def test_busy_time_is_the_union_of_intervals():
    assert busy_ns([(0, 10), (5, 15), (20, 30), (30, 31)]) == 26
    assert busy_ns([]) == 0


def _span(sid, parent, name, start, end):
    return Span(sid, parent, "op", name, start, end)


def test_self_time_of_serial_nesting():
    spans = [
        _span("r", None, "op.hash", 0, 100),
        _span("a", "r", "x", 10, 40),
        _span("a1", "a", "y", 20, 30),
        _span("b", "r", "z", 50, 90),
    ]
    shares = self_times(spans)
    assert shares == {"r": 30, "a": 20, "a1": 10, "b": 40}
    assert sum(shares.values()) == 100


def test_self_time_shares_parallel_children_and_clips_overhang():
    spans = [
        _span("r", None, "op.hash", 0, 100),
        _span("b", "r", "fanout", 50, 90),
        _span("b1", "b", "shard", 60, 70),
        _span("b2", "b", "shard", 65, 80),
        # A child whose end overhangs its parent by a clock skew.
        _span("c", "r", "late", 95, 104),
    ]
    shares = self_times(spans)
    assert shares["b1"] == pytest.approx(7.5)  # 60-65 alone, 65-70 shared
    assert shares["b2"] == pytest.approx(12.5)  # 65-70 shared, 70-80 alone
    assert shares["b"] == pytest.approx(20)
    assert shares["c"] == pytest.approx(5)
    assert shares["r"] == pytest.approx(55)
    assert sum(shares.values()) == pytest.approx(100)


def test_self_time_needs_one_root():
    with pytest.raises(ValueError):
        self_times([_span("a", None, "x", 0, 1), _span("b", None, "y", 0, 1)])


def test_layer_table_sums_to_operation_time():
    spans = [
        Span("r", None, "r", "op.hash", 0, 1_000_000),
        Span("p", "r", "r", "plan", 0, 100_000),
        Span("k", "r", "r", "arena.kernel", 200_000, 700_000),
        Span("g", "k", "r", "gc", 300_000, 400_000),
    ]
    layers = run.layer_table(spans, [("r", "gc.collections", 1)])
    table = layers["table"]
    assert table["plan.ms"] == pytest.approx(0.1)
    assert table["arena.kernel_ms"] == pytest.approx(0.4)
    assert table["gc.pause_ms"] == pytest.approx(0.1)
    assert table["other_ms"] == pytest.approx(0.4)
    assert table["gc.collections"] == 1
    assert layers["bases"]["sum_check_ms"] == pytest.approx(0.0)


# -- host speed ----------------------------------------------------------------


def test_host_speed_is_the_mean_of_the_samples_around_a_call():
    host = HostSpeed()
    host.samples, host.ends = [10.0, 20.0, 40.0], [100, 200, 300]
    assert host.around(150, 180) == 15.0
    assert host.around(200, 250) == 30.0  # a sample ending as the call starts is before it
    assert host.around(50, 60) == 10.0  # nothing before: the sample after alone
    assert host.around(350, 400) == 40.0  # nothing after: the sample before alone


def test_calls_are_reported_at_reference_speed():
    call = Call("hash", 0, 100_000_000, 1, 0, ref_ms=2 * NOMINAL_MS)
    assert run._at_reference(call) == pytest.approx(50.0)


def test_reference_task_is_fixed_and_samples_every_cpu():
    host = HostSpeed(every_cpu=True)
    cpus = os.sched_getaffinity(0)
    assert host.sample() > 0
    assert os.sched_getaffinity(0) == cpus
    assert reference(forest()) == reference(host.trees)


# -- smoke runs of every workload ----------------------------------------------


@pytest.mark.parametrize("name", ["corpus", "service", "edit_stream", "cluster"])
def test_smoke_run_has_no_failures(name):
    result = run.run_workload(name, seed=11, seconds=0.5, traced=False, smoke=True)
    record = result["record"]
    assert record["outcome"]["failed_frac"] == 0, record["problems"]
    assert result["correct"], record["cleanup_problems"]
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(value > 0 for value in result["metrics"].values())


@pytest.mark.parametrize("name", ["corpus", "service"])
def test_smoke_traced_run_reports_every_layer(name):
    result = run.run_workload(name, seed=11, seconds=1.0, traced=True, smoke=True)
    assert result["correct"], result["record"]["problems"]
    table = result["metrics"]
    assert set(run.PER_LAYER) <= set(table)
    layer_sum = sum(table[m] for m in run.LAYER_SPANS.values())
    assert layer_sum == pytest.approx(table["op_ms"], rel=1e-6)
    busy = "arena.compile_ms" if name == "corpus" else "server.handler_ms"
    assert table[busy] > 0
