"""Streaming-session latency lab: the dirty-spine perf receipt.

CI / release entry point for the PR-9 gate::

    PYTHONPATH=src python benchmarks/session_bench.py --json-out BENCH_PR9.json
    PYTHONPATH=src python benchmarks/session_bench.py --smoke   # CI-sized

Replays a seeded rewrite trace against a :class:`repro.api.StreamSession`
over a ~100k-node corpus (deep balanced items, so every edit has spine
depth >= 12) and records per-edit latency (p50 / p90 / p99) plus
rehashed-nodes-per-edit.  The baseline is what the batch API would pay
per edit: a from-scratch ``alpha_hash_all`` of the whole corpus.

Open, first touch and warm edits are reported separately: ``open_s``
is the one-time open (the pass that warms the store's summary memo),
a *first touch* is an item's first edit, and every later edit is warm.

Hard gates (exit 1 on failure):

1. **bit_identical** -- every edit's root hash equals a from-scratch
   ``alpha_hash_all`` of the shadow-rewritten item (always enforced,
   smoke or full);
2. **depth_floor** -- mean spine depth of the trace >= 12 (the edits
   are deep enough for the claim to mean anything);
3. **speedup_10x** -- mean per-edit latency at least 10x faster than
   one full-corpus rehash.  Enforced on full-size runs; on ``--smoke``
   corpora below the floor the gate is *skipped, not failed* -- small
   corpora make the fixed per-edit overhead dominate, so the ratio
   measures the harness, not the algorithm.  Skips are annotated in
   the JSON (``speedup_gate.enforced`` / ``.reason``), the same
   honesty rule as ``cpu_bound`` cells in ``run_bench.py``;
4. **first_touch_3x** -- first-touch p50 at most 3x the warm p50
   (always enforced, smoke or full): open leaves every item warm, so
   a first edit costs O(spine) like any other; a cold O(item) first
   touch coming back fails this gate;
5. **footprint** -- at most 60 GC-tracked objects kept alive per warm
   edit (always enforced, smoke or full), counted as ``bench_store.py``'s
   footprint gate counts them: ``gc.collect()``, then
   ``len(gc.get_objects())``, after open and after the last edit, less
   what the first touches kept (counted the same way around each).  The
   trace, its shadow trees and its oracle hashes are built before the
   first count, so they stay out of it.  Every object an edit keeps is
   one more for each generation-1 collection to scan.

The committed ``BENCH_PR9.json`` is a full-size run.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import statistics
import sys
import time

FULL_GATE_MIN_NODES = 50_000
SPEEDUP_FLOOR = 10.0
DEPTH_FLOOR = 12.0
FIRST_TOUCH_CEILING = 3.0
FOOTPRINT_CEILING = 60.0


def build_corpus(n_items: int, item_size: int, seed: int):
    from repro.gen.random_exprs import random_expr

    rng = random.Random(seed)
    return [
        random_expr(item_size, rng=rng, shape="balanced", p_let=0.1, p_lit=0.1)
        for _ in range(n_items)
    ]


def deep_paths(expr, min_depth: int):
    from repro.lang.traversal import preorder_with_paths

    paths = [p for p, _node in preorder_with_paths(expr) if len(p) >= min_depth]
    if paths:
        return paths
    # Fall back to the deepest decile so tiny smoke items still edit
    # their deepest spines.
    every = sorted((p for p, _node in preorder_with_paths(expr)), key=len)
    return every[-max(1, len(every) // 10):]


def percentile(sorted_values, q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(q * (len(sorted_values) - 1)))
    return sorted_values[index]


def run(args) -> dict:
    from repro.api import Session
    from repro.core.hashed import alpha_hash_all
    from repro.gen.random_exprs import alpha_rename, random_expr
    from repro.lang.traversal import replace_at

    corpus = build_corpus(args.items, args.item_size, args.seed)
    corpus_nodes = sum(item.size for item in corpus)
    print(
        f"corpus: {args.items} items x {args.item_size} nodes "
        f"= {corpus_nodes} nodes"
    )

    # Baseline: one full-corpus from-scratch rehash (what the batch API
    # pays per edit), repeated to steady the clock.
    baseline_runs = []
    for _ in range(args.baseline_reps):
        started = time.perf_counter()
        for item in corpus:
            alpha_hash_all(item)
        baseline_runs.append(time.perf_counter() - started)
    baseline_s = statistics.fmean(baseline_runs)
    print(f"baseline full-corpus rehash: {baseline_s * 1e3:.1f} ms")

    # The trace, and the differential oracle for every edit: each item
    # shadow-rewritten and hashed from scratch, all before the edits run.
    rng = random.Random(args.seed + 1)
    shadow = list(corpus)
    trace = []
    for index in range(args.edits):
        item = rng.randrange(len(shadow))
        path = rng.choice(deep_paths(shadow[item], args.min_depth))
        replacement = alpha_rename(
            random_expr(rng.randint(4, 16), rng=rng),
            seed=500_000 + index,
        )
        shadow[item] = replace_at(shadow[item], path, replacement)
        oracle = alpha_hash_all(shadow[item]).root_hash
        trace.append((item, path, replacement, oracle))

    latencies = []
    first_touch = []
    warm = []
    touched = set()
    rehashed = []
    spine_depths = []
    mismatches = 0

    session = Session()
    started = time.perf_counter()
    stream = session.open_stream(corpus)
    open_s = time.perf_counter() - started
    print(f"open: {open_s * 1e3:.0f} ms")
    try:
        gc.collect()
        tracked = len(gc.get_objects())
        for item, path, replacement, oracle in trace:
            first = item not in touched
            if first:
                gc.collect()
                tracked -= len(gc.get_objects())
            started = time.perf_counter()
            report = stream.edit(item, path, replacement)
            elapsed = time.perf_counter() - started
            if first:
                # What a first touch keeps stays out of the warm count.
                gc.collect()
                tracked += len(gc.get_objects())
            latencies.append(elapsed)
            (first_touch if first else warm).append(elapsed)
            touched.add(item)
            rehashed.append(report.nodes_rehashed)
            spine_depths.append(report.spine_depth)
            if report.root_hash != oracle:
                mismatches += 1
        gc.collect()
        footprint = (len(gc.get_objects()) - tracked) / max(1, len(warm))
        totals = stream.report()
    finally:
        stream.close()
        session.close()

    ordered = sorted(latencies)
    mean_edit_s = statistics.fmean(latencies)
    p50 = percentile(ordered, 0.50)
    p90 = percentile(ordered, 0.90)
    p99 = percentile(ordered, 0.99)
    first_p50 = percentile(sorted(first_touch), 0.50)
    first_max = max(first_touch)
    warm_sorted = sorted(warm)
    warm_p50 = percentile(warm_sorted, 0.50)
    warm_p99 = percentile(warm_sorted, 0.99)
    mean_depth = statistics.fmean(spine_depths)
    mean_rehashed = statistics.fmean(rehashed)
    speedup = baseline_s / mean_edit_s if mean_edit_s else float("inf")

    enforce_speedup = corpus_nodes >= FULL_GATE_MIN_NODES
    speedup_gate = {
        "floor": SPEEDUP_FLOOR,
        "measured": round(speedup, 2),
        "enforced": enforce_speedup,
    }
    if not enforce_speedup:
        speedup_gate["reason"] = (
            f"smoke corpus ({corpus_nodes} nodes < {FULL_GATE_MIN_NODES}): "
            "fixed per-edit overhead dominates; ratio measures the "
            "harness, not the algorithm"
        )

    gates = {
        "bit_identical": mismatches == 0,
        "depth_floor": mean_depth >= DEPTH_FLOOR,
        "speedup_10x": (speedup >= SPEEDUP_FLOOR) if enforce_speedup else True,
        "first_touch_3x": first_p50 <= FIRST_TOUCH_CEILING * warm_p50,
        "footprint": footprint <= FOOTPRINT_CEILING,
    }

    result = {
        "bench": "session_bench",
        "pr": 9,
        "smoke": bool(args.smoke),
        "items": args.items,
        "item_size": args.item_size,
        "corpus_nodes": corpus_nodes,
        "edits": args.edits,
        "seed": args.seed,
        "baseline_full_rehash_s": round(baseline_s, 6),
        "open_s": round(open_s, 6),
        "first_touches": len(first_touch),
        "first_touch_p50_s": round(first_p50, 6),
        "first_touch_max_s": round(first_max, 6),
        "warm_edits": len(warm),
        "warm_p50_s": round(warm_p50, 6),
        "warm_p99_s": round(warm_p99, 6),
        "edit_mean_s": round(mean_edit_s, 6),
        "edit_p50_s": round(p50, 6),
        "edit_p90_s": round(p90, 6),
        "edit_p99_s": round(p99, 6),
        "speedup_vs_full_rehash": round(speedup, 2),
        "mean_spine_depth": round(mean_depth, 2),
        "mean_nodes_rehashed_per_edit": round(mean_rehashed, 2),
        "rehash_ratio": round(totals["rehash_ratio"], 6),
        "repins": totals["repins"],
        "mismatches": mismatches,
        "tracked_objects_per_warm_edit": round(footprint, 1),
        "max_tracked_objects_per_warm_edit": FOOTPRINT_CEILING,
        "speedup_gate": speedup_gate,
        "gates": gates,
    }

    print(
        f"edits: {args.edits}  p50 {p50 * 1e6:.0f}us  p90 {p90 * 1e6:.0f}us  "
        f"p99 {p99 * 1e6:.0f}us  mean {mean_edit_s * 1e6:.0f}us"
    )
    print(
        f"first touch ({len(first_touch)}): p50 {first_p50 * 1e6:.0f}us  "
        f"max {first_max * 1e6:.0f}us  |  warm ({len(warm)}): "
        f"p50 {warm_p50 * 1e6:.0f}us  p99 {warm_p99 * 1e6:.0f}us"
    )
    print(
        f"rehashed/edit: {mean_rehashed:.1f} nodes "
        f"(corpus {corpus_nodes}; ratio {totals['rehash_ratio']:.5f})  "
        f"mean spine depth {mean_depth:.1f}"
    )
    print(f"speedup vs full-corpus rehash: {speedup:.1f}x")
    print(
        f"footprint: {footprint:.1f} GC-tracked objects kept per warm edit "
        f"(ceiling {FOOTPRINT_CEILING:.0f})"
    )
    if not enforce_speedup:
        print(f"SKIP speedup_10x gate: {speedup_gate['reason']}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--items", type=int, default=12)
    parser.add_argument("--item-size", type=int, default=8192)
    parser.add_argument("--edits", type=int, default=200)
    parser.add_argument("--min-depth", type=int, default=12)
    parser.add_argument("--seed", type=int, default=1009)
    parser.add_argument("--baseline-reps", type=int, default=3)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized run: tiny corpus, bit-identity enforced, the "
        "speedup floor skipped (annotated) below the full-size bar",
    )
    parser.add_argument("--json-out", default=None)
    args = parser.parse_args(argv)

    if args.smoke:
        # 4 x 8192 nodes: an "auto" plan runs the arena, so an open
        # that left the memo cold would show in first_touch_3x.
        args.items = min(args.items, 4)
        args.item_size = min(args.item_size, 8192)
        args.edits = min(args.edits, 40)
        args.baseline_reps = min(args.baseline_reps, 2)

    result = run(args)
    if args.json_out:
        with open(args.json_out, "w") as handle:
            json.dump(result, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json_out}")

    failed = [name for name, ok in result["gates"].items() if not ok]
    if failed:
        print(f"FAIL: gates failed: {', '.join(failed)}")
        return 1
    print("OK: all gates hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
