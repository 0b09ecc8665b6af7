"""Unified benchmark runner: one command, one trajectory file.

Runs the store and corpus cells and writes a ``BENCH_PR6.json``
trajectory record -- corpus sizes, wall-clock times, cache hit rates
-- so the perf history of the repo is a
sequence of committed, machine-readable records instead of numbers in
PR descriptions::

    PYTHONPATH=src python benchmarks/run_bench.py --out BENCH_PR6.json
    PYTHONPATH=src python benchmarks/run_bench.py --quick   # CI-sized

Cells:

* ``store``    -- fresh re-hash vs cold vs warm :class:`ExprStore` on a
                  duplicate-heavy corpus (the PR-1 claim, re-measured).
* ``arena``    -- the tree walk vs the arena kernel
                  (:mod:`repro.core.arena`) on a duplicate-free 600k-node
                  corpus: compile + kernel wall-clock, bit-identity,
                  dedup ratio.
* ``native``   -- the native vs the scalar arena kernel on the same
                  flattened arena (flatten cost excluded: this cell
                  times the kernels alone), next to the tree walk over
                  the corpus, bit-identity checked; the smoke gate
                  (``bench_store.py --smoke --native-items N``) asserts
                  >= 2x when the native library loaded.
* ``cluster``  -- coordinator-routing overhead: the same corpus hashed
                  against one directly-addressed ``repro serve`` node
                  vs through a ``repro cluster serve`` coordinator
                  fronting two shard nodes (all on localhost), with
                  bit-identity and folded-stats conservation checked.
* ``threshold`` -- the measurement behind the planner's one engine
                  rule (a store-served corpus runs on the arena unless
                  ``tree`` is pinned): the tree engine vs the arena
                  engine on each tier (scalar, the native kernel with
                  the Python compile walk, all native), per corpus (one
                  60-node item up to ~32k nodes of them, plus ``let``
                  and left-skewed ``App`` chains of 4k-8k nodes),
                  hashing and interning, for ``Expr`` input and for wire
                  input (lowered as the server lowers a body), and each
                  arena kernel alone; median of ``--repeats`` fresh-store
                  runs each.  Plus one warm-store row, the one case the
                  tree engine wins: re-hashing a 3k-node item with one
                  deep leaf replaced.  It prints, per tier, the smallest
                  corpus from which the arena wins at every larger one.
                  Not in the default set::

                      PYTHONPATH=src python benchmarks/run_bench.py \
                          --cells threshold --repeats 5 --out /tmp/threshold.json

``--cells`` picks a subset (default: all but ``threshold``); ``--pr``
stamps the record and the default output name (``BENCH_PR<n>.json``).

Speedups are *reported* for every shape and *gated* nowhere -- gating
lives in ``bench_store.py --smoke`` (CI).  The record always includes
the host shape so a trajectory
file from a 1-CPU container is never misread as a regression against a
16-core workstation.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bench_store import make_corpus  # noqa: E402  (sibling module)

from repro.core.cpus import available_cpus  # noqa: E402
from repro.core.hashed import alpha_hash_all  # noqa: E402
from repro.store import ExprStore  # noqa: E402


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def store_cell(n_items: int, item_size: int, repeats: int) -> dict:
    corpus = make_corpus(n_items, item_size)
    nodes = sum(e.size for e in corpus)
    # engine="tree" throughout: the store cell tracks the memoised
    # tree path (the PR-1 claim); the arena cell owns the array kernel.
    fresh = _best_of(
        lambda: [alpha_hash_all(e).root_hash for e in corpus], repeats
    )
    cold = _best_of(
        lambda: ExprStore().hash_corpus(corpus, engine="tree"), repeats
    )
    warm_store = ExprStore()
    warm_store.hash_corpus(corpus, engine="tree")
    warm = _best_of(
        lambda: warm_store.hash_corpus(corpus, engine="tree"), repeats
    )
    probe = ExprStore()
    probe.hash_corpus(corpus, engine="tree")
    return {
        "items": n_items,
        "nodes": nodes,
        "fresh_s": round(fresh, 4),
        "cold_s": round(cold, 4),
        "warm_s": round(warm, 4),
        "cold_speedup": round(fresh / cold, 3) if cold else None,
        "hit_rate": round(probe.stats.hit_rate, 4),
    }


def arena_cell(n_items: int, item_size: int, repeats: int) -> dict:
    """Tree walk vs arena kernel, bit-identity checked.

    The corpus is duplicate-free, so the arena's dedup ratio reflects
    structural repetition in the expressions themselves, not
    object-identity repeats.
    """
    from repro.core.arena import flatten_corpus

    corpus = make_corpus(n_items, item_size, dup_fraction=0.0, seed=99)
    nodes = sum(e.size for e in corpus)
    tree_hashes = ExprStore().hash_corpus(corpus, engine="tree")
    arena_hashes = ExprStore().hash_corpus(corpus, engine="arena")
    tree_s = _best_of(
        lambda: ExprStore().hash_corpus(corpus, engine="tree"), repeats
    )
    arena_s = _best_of(
        lambda: ExprStore().hash_corpus(corpus, engine="arena"), repeats
    )
    arena, _roots = flatten_corpus(corpus)
    return {
        "items": n_items,
        "nodes": nodes,
        "unique_arena_nodes": len(arena),
        "dedup_ratio": round(len(arena) / nodes, 4) if nodes else None,
        "tree_s": round(tree_s, 4),
        "arena_s": round(arena_s, 4),
        "arena_speedup": round(tree_s / arena_s, 3) if arena_s else None,
        "identical": arena_hashes == tree_hashes,
    }


@contextlib.contextmanager
def arena_kernel(name: str):
    """Run the arena engine on tier ``name`` for the block: ``scalar``
    hides both native libraries (a host without a compiler, where
    flatten and extend_wire run the Python walks too), ``native_pywalk``
    hides only the compile library's walks (a host with ``cc`` but no
    ``Python.h``), and
    ``native`` runs them as loaded."""
    from repro.core import native

    loaded = native.LIB, native.FLATTEN, native.WIRE
    if name == "scalar":
        native.LIB = native.FLATTEN = native.WIRE = None
    elif name == "native_pywalk":
        native.FLATTEN = native.WIRE = None
    try:
        yield
    finally:
        native.LIB, native.FLATTEN, native.WIRE = loaded


def native_cell(n_items: int, item_size: int, repeats: int) -> dict:
    """Native vs scalar arena kernel, same arena, flatten excluded, and
    the tree walk over the corpus.

    Both kernels hash the *same* :class:`ExprArena`, so their ratio is
    a pure kernel speedup -- single-threaded, hence meaningful on any
    host shape.  Without the native library only the scalar side runs
    and the record says so (``"native": false``).
    """
    from repro.core import native
    from repro.core.arena import arena_hash, flatten_corpus
    from repro.core.combiners import default_combiners

    corpus = make_corpus(n_items, item_size, dup_fraction=0.0, seed=99)
    nodes = sum(e.size for e in corpus)
    arena, _roots = flatten_corpus(corpus)
    combiners = default_combiners()
    scalar_s = _best_of(lambda: arena_hash(arena, combiners), repeats)
    tree_s = _best_of(lambda: ExprStore().hash_corpus(corpus, engine="tree"), repeats)
    cell = {
        "items": n_items,
        "nodes": nodes,
        "unique_arena_nodes": len(arena),
        "native": native.LIB is not None,
        "scalar_s": round(scalar_s, 4),
        "tree_s": round(tree_s, 4),
    }
    if native.LIB is not None:
        native_s = _best_of(lambda: native.native_tops(arena, combiners), repeats)
        cell["native_s"] = round(native_s, 4)
        cell["native_speedup"] = round(scalar_s / native_s, 3) if native_s else None
        cell["identical"] = native.native_tops(arena, combiners) == arena_hash(
            arena, combiners
        )
    return cell


def cluster_cell(n_items: int, item_size: int, repeats: int) -> dict:
    """Coordinator-routing overhead vs a directly-addressed node.

    Everything runs on localhost in this process (threaded HTTP
    servers), so the ratio isolates what the coordinator *adds*: one
    extra hop, the chunk fan-out/reassembly, and the two-phase intern's
    hash-then-route.  Bit-identity and stats conservation are gates,
    not just observations.
    """
    from repro.cluster import ClusterCoordinator
    from repro.service import ReproServer, ServiceClient

    corpus = make_corpus(n_items, item_size, seed=7)
    nodes = sum(e.size for e in corpus)
    direct = ReproServer(port=0).start()
    shard0 = ReproServer(port=0, shard_id=0, shard_count=2).start()
    shard1 = ReproServer(port=0, shard_id=1, shard_count=2).start()
    coordinator = ClusterCoordinator(
        [shard0.url, shard1.url], port=0
    ).start()
    try:
        direct_client = ServiceClient(direct.url, timeout=300.0)
        cluster_client = ServiceClient(coordinator.url, timeout=300.0)
        reference = direct_client.hash_corpus(corpus)
        routed = cluster_client.hash_corpus(corpus)
        direct_s = _best_of(
            lambda: direct_client.hash_corpus(corpus), repeats
        )
        routed_s = _best_of(
            lambda: cluster_client.hash_corpus(corpus), repeats
        )
        intern_s = _best_of(
            lambda: cluster_client.intern_many(corpus), repeats
        )
        stats = cluster_client.stats()
        conserved = stats["entries"] == sum(
            shard["entries"] for shard in stats["shards"]
        ) and all(
            total == sum(s["store"].get(key, 0) for s in stats["shards"])
            for key, total in stats["store"].items()
        )
        return {
            "items": n_items,
            "nodes": nodes,
            "shard_count": 2,
            "direct_hash_s": round(direct_s, 4),
            "cluster_hash_s": round(routed_s, 4),
            "routing_overhead": (
                round(routed_s / direct_s, 3) if direct_s else None
            ),
            "cluster_intern_s": round(intern_s, 4),
            "identical": routed == reference,
            "entries": stats["entries"],
            "shard_entries": [s["entries"] for s in stats["shards"]],
            "stats_conserved": conserved,
        }
    finally:
        coordinator.close()
        for server in (direct, shard0, shard1):
            server.close()


def _let_chain(depth: int):
    from repro.lang.expr import Let, Var

    expr = Var("x0")
    for i in range(depth):
        expr = Let(f"x{i % 5}", Var(f"x{(i + 1) % 5}"), expr)
    return expr


def _app_chain(depth: int):
    from repro.lang.expr import App, Var

    expr = Var("x")
    for _ in range(depth):
        expr = App(expr, Var("y"))
    return expr


def threshold_cell(sizes: list[int], item_size: int, repeats: int) -> dict:
    """Tree vs the arena engine on each tier, per corpus: hashing and
    interning, ``Expr`` and wire input; the measurement behind the
    planner's one engine rule.

    Rows are ``make_corpus`` corpora of about ``sizes`` nodes
    (``item_size``-node items) plus deep, thin ones: a ``let`` chain and
    a left-skewed ``App`` chain of ~4k and ~8k nodes each, one item per
    corpus.  Per row and engine (``tree``, and ``arena`` on each tier of
    :func:`arena_kernel` that loaded): ``ExprStore().hash_corpus`` and
    ``intern_many`` (``Expr`` input), and what ``/v1/hash`` and
    ``/v1/intern`` run per request (lower the documents as the server
    does -- compiled with ``extend_wire`` for the arena, unshared trees
    for a ``tree`` pin -- then execute on a fresh session).  Also each
    arena kernel alone on the compiled arena.  Medians, in ms.

    ``warm_edit`` is the one case the tree engine wins: on a store that
    already hashed a 3k-node item, re-hash a copy with one leaf at depth
    >= 3 replaced (the spine above it new, the rest shared), so the tree
    engine's per-object memo holds all but the spine while the arena
    compiles the whole copy.  Median over 40 edits.
    """
    import statistics

    from repro.api import HashRequest, InternRequest, Session
    from repro.core import native
    from repro.core.arena import arena_hash, flatten_corpus
    from repro.core.combiners import default_combiners
    from repro.gen.random_exprs import random_expr
    from repro.lang.expr import Var
    from repro.lang.sexpr import to_wire
    from repro.lang.traversal import preorder_with_paths, replace_at
    from repro.service.server import _corpus_request

    tiers = ["scalar"]
    if native.LIB is not None:
        tiers.append("native_pywalk")
        if native.FLATTEN is not None:
            tiers.append("native")
    combiners = default_combiners()

    def median_ms(fn, rounds=repeats) -> float:
        runs = []
        for _ in range(rounds):
            start = time.perf_counter()
            fn()
            runs.append(time.perf_counter() - start)
        return round(1000 * statistics.median(runs), 2)

    def wire_run(request_type, docs, engine):
        session = Session()
        body = {"exprs": docs, "engine": engine}
        return session.execute(_corpus_request(request_type, body, session))

    def arena_only(engine, fn):
        # ``engine`` is "tree" or a tier name; a tier runs the arena.
        if engine == "tree":
            return fn("tree")
        with arena_kernel(engine):
            return fn("arena")

    corpora = [
        (
            "corpus",
            make_corpus(
                max(1, target // item_size), item_size, dup_fraction=0.15, seed=target
            ),
        )
        for target in sizes
    ]
    for depth in (2_000, 4_000):
        corpora.append(("let_chain", [_let_chain(depth)]))
        corpora.append(("app_chain", [_app_chain(depth)]))

    rows = []
    for shape, corpus in corpora:
        docs = [to_wire(expr) for expr in corpus]
        expected = ExprStore().hash_corpus(corpus, engine="tree")
        expected_ids = ExprStore().intern_many(corpus, engine="tree")
        arena, _roots = flatten_corpus(corpus)
        row = {
            "shape": shape,
            "nodes": sum(expr.size for expr in corpus),
            "items": len(corpus),
            "unique_rows": len(arena),
        }
        for engine in ("tree", *tiers):
            if arena_only(engine, lambda e: wire_run(HashRequest, docs, e)) != expected:
                raise AssertionError(f"wire {engine} hashes diverged on a {shape}")
            if arena_only(engine, lambda e: wire_run(InternRequest, docs, e)) != expected_ids:
                raise AssertionError(f"wire {engine} ids diverged on a {shape}")
            row[f"expr_{engine}_ms"] = median_ms(lambda: arena_only(
                engine, lambda e: ExprStore().hash_corpus(corpus, engine=e)
            ))
            row[f"wire_{engine}_ms"] = median_ms(lambda: arena_only(
                engine, lambda e: wire_run(HashRequest, docs, e)
            ))
            row[f"expr_intern_{engine}_ms"] = median_ms(lambda: arena_only(
                engine, lambda e: ExprStore().intern_many(corpus, engine=e)
            ))
            row[f"wire_intern_{engine}_ms"] = median_ms(lambda: arena_only(
                engine, lambda e: wire_run(InternRequest, docs, e)
            ))
        row["kernel_scalar_ms"] = median_ms(lambda: arena_hash(arena, combiners))
        if native.LIB is not None:
            row["kernel_native_ms"] = median_ms(
                lambda: native.native_tops(arena, combiners)
            )
        rows.append(row)
        print(f"  {json.dumps(row)}")

    item = random_expr(3_000, seed=3_000, p_let=0.3, p_lit=0.1)
    deep_leaves = [
        path for path, node in preorder_with_paths(item)
        if len(path) >= 3 and not node.children()
    ]
    edits = [
        replace_at(item, deep_leaves[k * len(deep_leaves) // 40], Var(f"edit{k}"))
        for k in range(40)
    ]

    def warm_rehash_ms(engine) -> float:
        store = ExprStore()
        arena_only(engine, lambda e: store.hash_corpus([item], engine=e))
        pending = iter(edits)
        return median_ms(lambda: arena_only(
            engine, lambda e: store.hash_corpus([next(pending)], engine=e)
        ), len(edits))

    warm_edit = {"nodes": item.size, "edits": len(edits)}
    for engine in ("tree", *tiers):
        warm_edit[f"expr_{engine}_ms"] = warm_rehash_ms(engine)
    print(f"  warm_edit {json.dumps(warm_edit)}")

    def crossover(source, tier):
        # The smallest corpus from which the arena engine wins at every
        # larger one.
        point = None
        for row in sorted(rows, key=lambda row: row["nodes"], reverse=True):
            if not row[f"{source}_{tier}_ms"] < row[f"{source}_tree_ms"]:
                break
            point = row["nodes"]
        return point

    return {
        "item_size": item_size,
        "repeats": repeats,
        "tiers": tiers,
        "rows": rows,
        "warm_edit": warm_edit,
        "crossover_nodes": {
            tier: {
                source: crossover(source, tier)
                for source in ("expr", "wire", "expr_intern", "wire_intern")
            }
            for tier in tiers
        },
    }


ALL_CELLS = ("store", "arena", "native", "cluster", "threshold")
DEFAULT_CELLS = ALL_CELLS[:-1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default=None,
        help="trajectory file to write (default BENCH_PR<n>.json)",
    )
    parser.add_argument(
        "--pr", type=int, default=7, help="PR number stamped on the record"
    )
    parser.add_argument(
        "--cells",
        nargs="*",
        choices=ALL_CELLS,
        default=None,
        help="cells to run (default: all but threshold)",
    )
    parser.add_argument(
        "--quick", action="store_true", help="CI-sized corpora (seconds)"
    )
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    out_path = args.out or f"BENCH_PR{args.pr}.json"
    cells = tuple(args.cells) if args.cells else DEFAULT_CELLS

    if args.quick:
        store_shape = (40, 200)
        arena_shape = (1500, 60)
        cluster_shape = (300, 60)
        threshold_sizes = [500, 2_000, 4_000, 8_000, 16_000]
    else:
        store_shape = (60, 400)
        arena_shape = (10_000, 60)
        cluster_shape = (1_000, 60)
        threshold_sizes = [
            60, 120, 250, 500, 1_000, 1_500, 2_000, 2_500, 3_000, 4_000,
            5_000, 6_000, 8_000, 12_000, 16_000, 24_000, 32_000,
        ]

    record = {
        "schema": "repro-bench-trajectory-v1",
        "pr": args.pr,
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": available_cpus(),
        },
        "cells": {},
    }
    if "store" in cells:
        print(
            f"store cell ({store_shape[0]} items x {store_shape[1]} nodes)..."
        )
        record["cells"]["store"] = store_cell(*store_shape, args.repeats)
        print(f"  {json.dumps(record['cells']['store'])}")

    if "arena" in cells:
        print(
            f"arena cell ({arena_shape[0]} items x {arena_shape[1]} nodes)..."
        )
        record["cells"]["arena"] = arena_cell(*arena_shape, args.repeats)
        print(f"  {json.dumps(record['cells']['arena'])}")

    if "native" in cells:
        print(f"native cell ({arena_shape[0]} items x {arena_shape[1]} nodes)...")
        record["cells"]["native"] = native_cell(*arena_shape, args.repeats)
        print(f"  {json.dumps(record['cells']['native'])}")

    if "cluster" in cells:
        print(
            f"cluster cell ({cluster_shape[0]} items x "
            f"{cluster_shape[1]} nodes, 2 shard nodes)..."
        )
        record["cells"]["cluster"] = cluster_cell(
            *cluster_shape, args.repeats
        )
        print(f"  {json.dumps(record['cells']['cluster'])}")

    if "threshold" in cells:
        print(f"threshold cell ({len(threshold_sizes)} corpus sizes, 60-node items)...")
        record["cells"]["threshold"] = threshold_cell(
            threshold_sizes, 60, args.repeats
        )
        cell = record["cells"]["threshold"]
        print(
            "  smallest corpus from which the arena wins at every larger one "
            f"(nodes, per tier): {json.dumps(cell['crossover_nodes'])}"
        )

    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {out_path}")
    if not record["cells"].get("arena", {"identical": True})["identical"]:
        print("FAIL: arena kernel hashes diverged from the tree path")
        return 1
    if not record["cells"].get("native", {}).get("identical", True):
        print("FAIL: native kernel hashes diverged from the scalar kernel")
        return 1
    cluster_record = record["cells"].get("cluster")
    if cluster_record is not None:
        if not cluster_record["identical"]:
            print("FAIL: cluster-routed hashes diverged from the direct node")
            return 1
        if not cluster_record["stats_conserved"]:
            print("FAIL: folded cluster stats not conserved across shards")
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
