"""Store benchmark: corpus re-hashing through :class:`ExprStore`.

The store's claim: a corpus whose items repeat and overlap (shared
subtree objects -- what any hash-consing pipeline produces, and what CSE
rounds leave behind after spine-only rewrites) is hashed once per unique
subtree, not once per occurrence.  This harness builds such a corpus
(>= 50% duplicate items by construction) and compares

* **fresh** -- an :func:`alpha_hash_all` pass per corpus item, the
  pre-store behaviour;
* **store (cold)** -- one :meth:`ExprStore.hash_corpus` over the same
  corpus with an empty store;
* **store (warm)** -- the same call again, everything memoised.

Run under pytest-benchmark like the rest of the suite, or standalone as
a CI smoke gate::

    PYTHONPATH=src python benchmarks/bench_store.py --smoke

which fails loudly (exit 1) unless the cold store pass beats the fresh
passes, the cache hit-rate is > 0, and a session snapshot round-trip
keeps every root hash.

``--arena-items N`` adds the arena-kernel gate (the PR-4 acceptance
bar): on an ``N``-item duplicate-free corpus the arena engine must be
bit-identical to the tree path and >= 2x faster -- a single-process
gate, so it holds on any host shape.  The same cell interns the corpus
with ``engine="arena"`` into a fresh store and gates the intern table's
footprint: GC-tracked objects left per canonical entry must stay at or
below :data:`FOOTPRINT_CEILING` (a count, so the gate gives the same
result on any host); the time of one full collection afterwards is
reported only.  ``--native-items N`` adds the native-kernel gate: on
the same kind of corpus the native arena kernel must hash the arena
bit-identically to the scalar kernel and >= 2x faster (the kernels
alone; the tree walk's time is reported); without the native library
the cell reports the scalar time and skips the gate.  The same cell
times the native compile walk against the Python walk on its corpus:
``flatten`` must build the identical arena state >= 2x faster, and
without the compile library that half reports SKIP.  ``--json-out``
appends the measured cells to a JSON trajectory file (see
``benchmarks/run_bench.py``).
"""

from __future__ import annotations

import gc
import os
import random
import tempfile
import time

from repro.api import Session
from repro.core.cpus import available_cpus
from repro.core.hashed import alpha_hash_all
from repro.gen.random_exprs import random_expr
from repro.lang.expr import App, Expr
from repro.store import ExprStore

#: Fraction of corpus items that repeat or recombine earlier items.
DUP_FRACTION = 0.6

#: The arena gate: the array kernel must beat the tree walk by this
#: factor on the smoke corpus (PR-4 acceptance bar).
ARENA_SMOKE_FLOOR = 2.0

#: The native gate: the native kernel must beat the scalar kernel by
#: this factor on the same arena.  Single-threaded by construction, so
#: it holds on any host shape; it is only skipped when the native
#: library did not load.
NATIVE_SMOKE_FLOOR = 2.0

#: The compile gate: the native walk must beat the Python walk by this
#: factor flattening the native cell's corpus into a fresh arena.
FLATTEN_SMOKE_FLOOR = 2.0

#: The footprint gate: GC-tracked objects an arena bulk intern may leave
#: per canonical entry.  The columnar intern table keeps no Python
#: object per class; one per class (two, with a canonical tree) would
#: be ~1-2.
FOOTPRINT_CEILING = 0.1


def make_corpus(
    n_items: int, item_size: int, dup_fraction: float = DUP_FRACTION, seed: int = 42
) -> list[Expr]:
    """A corpus with ``dup_fraction`` duplicate/overlapping items.

    Duplicates reuse earlier items as shared objects -- half verbatim,
    half recombined under a fresh ``App`` so overlap (not just repetition)
    is exercised.  The rest are fresh random expressions in the
    Section 7.1 families.
    """
    rng = random.Random(seed)
    pool: list[Expr] = []
    for _ in range(n_items):
        if pool and rng.random() < dup_fraction:
            if rng.random() < 0.5:
                expr: Expr = rng.choice(pool)
            else:
                expr = App(rng.choice(pool), rng.choice(pool))
        else:
            expr = random_expr(
                item_size,
                rng=rng,
                shape=rng.choice(("balanced", "unbalanced")),
                p_let=0.3,
                p_lit=0.1,
            )
        pool.append(expr)
    return pool


def fresh_hash_corpus(corpus: list[Expr]) -> list[int]:
    """The pre-store behaviour: one full hashing pass per item."""
    return [alpha_hash_all(expr).root_hash for expr in corpus]


# ---------------------------------------------------------------------------
# pytest-benchmark cells
# ---------------------------------------------------------------------------

_N_ITEMS = 60
_ITEM_SIZE = 400


def _bench_corpus() -> list[Expr]:
    return make_corpus(_N_ITEMS, _ITEM_SIZE)


def test_fresh_rehash(benchmark):
    corpus = _bench_corpus()
    benchmark.extra_info["corpus_nodes"] = sum(e.size for e in corpus)
    benchmark.pedantic(
        fresh_hash_corpus, args=(corpus,), rounds=3, iterations=1, warmup_rounds=1
    )


def test_store_rehash_cold(benchmark):
    corpus = _bench_corpus()
    benchmark.extra_info["corpus_nodes"] = sum(e.size for e in corpus)

    def cold():
        return ExprStore().hash_corpus(corpus, engine="tree")

    benchmark.pedantic(cold, rounds=3, iterations=1, warmup_rounds=1)
    stats = ExprStore()
    stats.hash_corpus(corpus, engine="tree")
    benchmark.extra_info["hit_rate"] = round(stats.stats.hit_rate, 4)


def test_store_rehash_warm(benchmark):
    corpus = _bench_corpus()
    store = ExprStore()
    store.hash_corpus(corpus, engine="tree")
    benchmark.pedantic(
        store.hash_corpus,
        args=(corpus,),
        kwargs={"engine": "tree"},
        rounds=3,
        iterations=1,
        warmup_rounds=1,
    )


def test_session_rehash_cold(benchmark):
    corpus = _bench_corpus()
    benchmark.extra_info["corpus_nodes"] = sum(e.size for e in corpus)

    def cold():
        return Session().hash_corpus(corpus)

    benchmark.pedantic(cold, rounds=3, iterations=1, warmup_rounds=1)


def test_session_snapshot_reload(benchmark):
    """Load-from-snapshot vs re-hashing: the cross-process reuse path."""
    corpus = _bench_corpus()
    session = Session()
    session.intern_many(corpus)
    handle, path = tempfile.mkstemp(suffix=".snap")
    os.close(handle)
    try:
        session.save(path)
        benchmark.extra_info["snapshot_bytes"] = os.path.getsize(path)
        benchmark.pedantic(
            Session.load, args=(path,), rounds=3, iterations=1, warmup_rounds=1
        )
    finally:
        os.unlink(path)


def test_store_matches_fresh():
    corpus = _bench_corpus()
    assert ExprStore().hash_corpus(corpus, engine="tree") == fresh_hash_corpus(corpus)
    assert Session().hash_corpus(corpus) == fresh_hash_corpus(corpus)


def test_arena_rehash_cold(benchmark):
    corpus = _bench_corpus()
    benchmark.extra_info["corpus_nodes"] = sum(e.size for e in corpus)

    def cold():
        return ExprStore().hash_corpus(corpus, engine="arena")

    benchmark.pedantic(cold, rounds=3, iterations=1, warmup_rounds=1)


def test_arena_matches_tree():
    corpus = _bench_corpus()
    assert ExprStore().hash_corpus(corpus, engine="arena") == fresh_hash_corpus(
        corpus
    )


# ---------------------------------------------------------------------------
# standalone smoke gate (CI)
# ---------------------------------------------------------------------------


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def smoke(n_items: int, item_size: int, repeats: int) -> int:
    corpus = make_corpus(n_items, item_size)
    total_nodes = sum(e.size for e in corpus)

    expected = fresh_hash_corpus(corpus)
    if ExprStore().hash_corpus(corpus, engine="tree") != expected:
        print("FAIL: store hashes disagree with fresh AlphaHashes passes")
        return 1

    # engine="tree" throughout: this gate protects the memoised tree
    # path (the PR-1 claim); the arena engine has its own gate below.
    fresh_time = _best_of(lambda: fresh_hash_corpus(corpus), repeats)
    cold_time = _best_of(
        lambda: ExprStore().hash_corpus(corpus, engine="tree"), repeats
    )
    warm_store = ExprStore()
    warm_store.hash_corpus(corpus, engine="tree")
    warm_time = _best_of(
        lambda: warm_store.hash_corpus(corpus, engine="tree"), repeats
    )

    probe = ExprStore()
    probe.hash_corpus(corpus, engine="tree")
    hit_rate = probe.stats.hit_rate

    print(
        f"corpus: {n_items} items, {total_nodes} nodes "
        f"({DUP_FRACTION:.0%} duplicate/overlapping items)"
    )
    print(
        f"fresh {fresh_time * 1e3:8.1f} ms   "
        f"store cold {cold_time * 1e3:8.1f} ms ({fresh_time / cold_time:.2f}x)   "
        f"store warm {warm_time * 1e3:8.1f} ms"
    )
    print(f"cache hit-rate {hit_rate:.1%}  stats {probe.stats}")

    ok = True
    if not cold_time < fresh_time:
        print("FAIL: cold store pass not faster than fresh passes")
        ok = False
    if not hit_rate > 0:
        print("FAIL: cache hit-rate is zero")
        ok = False

    # Session snapshot round-trip: a corpus hashed once must reload with
    # bit-identical root hashes and a store that already knows every class.
    session = Session()
    roots = session.hash_corpus(corpus)
    session.intern_many(corpus)
    handle, path = tempfile.mkstemp(suffix=".snap")
    os.close(handle)
    try:
        session.save(path)
        loaded = Session.load(path)
        if loaded.store.stats.as_dict() != session.store.stats.as_dict():
            print("FAIL: snapshot did not round-trip the store stats")
            ok = False
        if loaded.hash_corpus(corpus) != roots:
            print("FAIL: snapshot reload changed root hashes")
            ok = False
        elif any(loaded.store.lookup_hash(h) is None for h in roots):
            print("FAIL: reloaded store is missing interned classes")
            ok = False
        else:
            print(
                f"snapshot round-trip ok ({os.path.getsize(path)} bytes, "
                f"{len(loaded.store)} entries)"
            )
    finally:
        if os.path.exists(path):
            os.unlink(path)

    if ok:
        print("OK: store beats fresh re-hashing with a warm cache")
    return 0 if ok else 1


def arena_smoke(n_items: int, item_size: int, repeats: int) -> tuple[int, dict]:
    """Tree walk vs arena kernel: bit-identity always, >= 2x always.

    One process on a duplicate-free corpus, so the gate holds on any
    host shape: the win comes from array-indexed memo structure and
    flatten-time dedup, not from extra CPUs.
    """
    corpus = make_corpus(n_items, item_size, dup_fraction=0.0, seed=99)
    total_nodes = sum(e.size for e in corpus)

    tree_hashes = ExprStore().hash_corpus(corpus, engine="tree")
    arena_hashes = ExprStore().hash_corpus(corpus, engine="arena")
    tree_time = _best_of(
        lambda: ExprStore().hash_corpus(corpus, engine="tree"), repeats
    )
    arena_time = _best_of(
        lambda: ExprStore().hash_corpus(corpus, engine="arena"), repeats
    )
    speedup = tree_time / arena_time if arena_time else float("inf")
    cell = {
        "items": n_items,
        "nodes": total_nodes,
        "tree_s": round(tree_time, 4),
        "arena_s": round(arena_time, 4),
        "speedup": round(speedup, 3),
        "required_speedup": ARENA_SMOKE_FLOOR,
        "identical": arena_hashes == tree_hashes,
    }
    print(f"arena corpus: {n_items} items, {total_nodes} nodes")
    print(
        f"tree {tree_time * 1e3:8.1f} ms   "
        f"arena {arena_time * 1e3:8.1f} ms   ({speedup:.2f}x)"
    )
    if not cell["identical"]:
        print("FAIL: arena kernel hashes diverge from the tree path")
        return 1, cell
    print(f"arena hashes bit-identical to the tree path over {n_items} items")
    if speedup < ARENA_SMOKE_FLOOR:
        print(
            f"FAIL: arena speedup {speedup:.2f}x below the "
            f"{ARENA_SMOKE_FLOOR:.1f}x floor"
        )
        return 1, cell
    print(f"OK: arena speedup {speedup:.2f}x >= {ARENA_SMOKE_FLOOR:.1f}x floor")
    return footprint_smoke(corpus, cell)


def footprint_smoke(corpus: list[Expr], cell: dict) -> tuple[int, dict]:
    """Arena-intern ``corpus`` into a fresh store; gate the GC-tracked
    objects it leaves per canonical entry, and report how long one full
    collection then takes."""
    gc.collect()
    before = len(gc.get_objects())
    store = ExprStore()
    store.intern_many(corpus, engine="arena")
    gc.collect()
    per_entry = (len(gc.get_objects()) - before) / max(1, len(store))
    start = time.perf_counter()
    gc.collect()
    full_gc_ms = (time.perf_counter() - start) * 1e3
    cell["entries"] = len(store)
    cell["tracked_per_entry"] = round(per_entry, 4)
    cell["max_tracked_per_entry"] = FOOTPRINT_CEILING
    cell["full_gc_ms"] = round(full_gc_ms, 2)
    print(
        f"arena intern: {len(store)} entries, {per_entry:.3f} tracked "
        f"objects per entry, full collection {full_gc_ms:.1f} ms"
    )
    if per_entry > FOOTPRINT_CEILING:
        print(
            f"FAIL: {per_entry:.3f} tracked objects per entry above the "
            f"{FOOTPRINT_CEILING} ceiling"
        )
        return 1, cell
    print(f"OK: {per_entry:.3f} tracked objects per entry <= {FOOTPRINT_CEILING}")
    return 0, cell


def flatten_smoke(corpus, repeats: int, cell: dict) -> int:
    """Native vs Python compile walk on ``corpus``: the same arena state
    always, and >= 2x; SKIP without the compile library."""
    from repro.core import native
    from repro.core.arena import ExprArena
    from repro.core.hashed import lit_cache_key

    def state(arena):
        return (
            bytes(arena.op), arena.left.tolist(), arena.right.tolist(),
            arena.aux.tolist(), arena.sizes.tolist(), arena.names,
            [lit_cache_key(value) for value in arena.literals],
        )

    def compile_with(walk):
        arena = ExprArena()
        return arena, arena._compile(walk, corpus)

    def result(walk):
        arena, roots = compile_with(walk)
        return roots, state(arena)

    python_time = _best_of(lambda: compile_with(ExprArena._flatten_walk), repeats)
    cell["flatten_python_s"] = round(python_time, 4)
    if native.FLATTEN is None:
        print(
            "SKIP: native compile walk not loaded "
            f"({native.REASONS.get('arena_flatten')}) -- Python walk "
            f"{python_time * 1e3:.1f} ms reported, not gated"
        )
        return 0
    native_time = _best_of(lambda: compile_with(native.native_flatten), repeats)
    speedup = python_time / native_time if native_time else float("inf")
    cell["flatten_native_s"] = round(native_time, 4)
    cell["flatten_speedup"] = round(speedup, 3)
    cell["flatten_required_speedup"] = FLATTEN_SMOKE_FLOOR
    cell["flatten_identical"] = result(native.native_flatten) == result(
        ExprArena._flatten_walk
    )
    print(
        f"flatten: python {python_time * 1e3:8.1f} ms   native "
        f"{native_time * 1e3:8.1f} ms   ({speedup:.2f}x over the Python walk)"
    )
    if not cell["flatten_identical"]:
        print("FAIL: the native compile walk builds another arena than the Python walk")
        return 1
    print("native compile walk builds the Python walk's arena state")
    if speedup < FLATTEN_SMOKE_FLOOR:
        print(
            f"FAIL: native compile speedup {speedup:.2f}x below the "
            f"{FLATTEN_SMOKE_FLOOR:.1f}x floor"
        )
        return 1
    print(f"OK: native compile speedup {speedup:.2f}x >= {FLATTEN_SMOKE_FLOOR:.1f}x floor")
    return 0


def native_smoke(n_items: int, item_size: int, repeats: int) -> tuple[int, dict]:
    """Native vs scalar arena kernel: bit-identity always, >= 2x gate.

    Both kernels hash the *same* flattened arena (flatten cost is
    excluded -- the cell times the kernels alone); the tree walk over
    the corpus is reported next to them.  Without the native library
    the cell reports the scalar time and skips the gate honestly.  The
    compile walks are gated first (:func:`flatten_smoke`).
    """
    from repro.core import native
    from repro.core.arena import arena_hash, flatten_corpus
    from repro.core.combiners import default_combiners

    corpus = make_corpus(n_items, item_size, dup_fraction=0.0, seed=99)
    total_nodes = sum(e.size for e in corpus)
    arena, _roots = flatten_corpus(corpus)
    combiners = default_combiners()
    scalar_time = _best_of(lambda: arena_hash(arena, combiners), repeats)
    tree_time = _best_of(
        lambda: ExprStore().hash_corpus(corpus, engine="tree"), repeats
    )
    cell = {
        "items": n_items,
        "nodes": total_nodes,
        "unique_arena_nodes": len(arena),
        "native": native.LIB is not None,
        "scalar_s": round(scalar_time, 4),
        "tree_s": round(tree_time, 4),
    }
    print(
        f"native corpus: {n_items} items, {total_nodes} nodes "
        f"({len(arena)} unique arena nodes)"
    )
    status = flatten_smoke(corpus, repeats, cell)
    if native.LIB is None:
        print(
            f"SKIP: native kernel not loaded ({native.REASONS.get('arena_kernel')}) -- "
            "scalar time reported, not gated"
        )
        return status, cell
    native_time = _best_of(lambda: native.native_tops(arena, combiners), repeats)
    speedup = scalar_time / native_time if native_time else float("inf")
    cell["native_s"] = round(native_time, 4)
    cell["speedup"] = round(speedup, 3)
    cell["required_speedup"] = NATIVE_SMOKE_FLOOR
    cell["identical"] = native.native_tops(arena, combiners) == arena_hash(
        arena, combiners
    )
    print(
        f"tree {tree_time * 1e3:8.1f} ms   scalar {scalar_time * 1e3:8.1f} ms   "
        f"native {native_time * 1e3:8.1f} ms   ({speedup:.2f}x over scalar)"
    )
    if not cell["identical"]:
        print("FAIL: native kernel hashes diverge from the scalar kernel")
        return 1, cell
    print(f"native hashes bit-identical to the scalar kernel over {n_items} items")
    if speedup < NATIVE_SMOKE_FLOOR:
        print(
            f"FAIL: native speedup {speedup:.2f}x below the "
            f"{NATIVE_SMOKE_FLOOR:.1f}x floor"
        )
        return 1, cell
    print(f"OK: native speedup {speedup:.2f}x >= {NATIVE_SMOKE_FLOOR:.1f}x floor")
    return status, cell


def main(argv=None) -> int:
    import argparse
    import json
    import platform

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="quick pass/fail perf gate"
    )
    parser.add_argument("--items", type=int, default=60)
    parser.add_argument("--item-size", type=int, default=400)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--arena-items",
        type=int,
        default=0,
        help="corpus items for the arena-kernel gate (0 disables the cell)",
    )
    parser.add_argument(
        "--arena-item-size",
        type=int,
        default=60,
        help="nodes per item for the arena cell",
    )
    parser.add_argument(
        "--native-items",
        type=int,
        default=0,
        help="corpus items for the native-kernel gate (0 disables the cell)",
    )
    parser.add_argument(
        "--native-item-size",
        type=int,
        default=60,
        help="nodes per item for the native cell",
    )
    parser.add_argument(
        "--json-out",
        metavar="PATH",
        default=None,
        help="write the measured cells as a JSON trajectory record",
    )
    args = parser.parse_args(argv)
    if not args.smoke:
        parser.error("run under pytest for full benchmarks, or pass --smoke")
    status = smoke(args.items, args.item_size, args.repeats)
    record = {
        "schema": "repro-bench-trajectory-v1",
        "bench": "bench_store",
        "python": platform.python_version(),
        "cpus": available_cpus(),
    }
    if args.arena_items:
        arena_status, cell = arena_smoke(
            args.arena_items, args.arena_item_size, args.repeats
        )
        status = status or arena_status
        record["arena"] = cell
    if args.native_items:
        native_status, cell = native_smoke(
            args.native_items, args.native_item_size, args.repeats
        )
        status = status or native_status
        record["native"] = cell
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote trajectory record to {args.json_out}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
