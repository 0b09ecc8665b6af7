"""The bulk intern's resolve step: the C step against the Python loop.

Where the compile library loaded, the arena bulk intern resolves every
arena row against the intern table in one call into C
(:meth:`repro.store.store.InternTable.resolve_arena`); the Python loop
(:func:`repro.store.arena_intern._resolve_loop`) is its fallback and
its oracle.  This module holds them to each other:

* **The differential wall.**  After each of six ``corpus``-shaped
  batches (the shape of the benchmark's item stream: let-heavy 30-90
  node items, a quarter repeated as the same object, a quarter
  alpha-renamed; seeds 1 and 7, 1,000 items), on a flat store and on one
  bounded by ``max_entries``, the two tiers leave equal state: ids, every
  column over the live rows, ``by_hash``, the id-to-row map and the
  stamps, ``free``, ``next_id``, the version, the id log and the stats.
  It also runs at 8 bits, where batches end in collisions, and at 128.
* **A forced collision** after fresh rows in one batch raises the same
  text on both tiers and leaves the same partial write.
* **Leaks and liveness**: names, literals and top hashes keep their
  reference counts over calls that succeed and calls that fail, and
  another thread runs during a 300k-row resolve.
"""

from __future__ import annotations

import random
import sys
import threading
import time
from contextlib import contextmanager, nullcontext

import pytest

import repro.store.arena_intern as arena_intern
from repro.core import native
from repro.core.arena import arena_hash_any, flatten_corpus
from repro.core.combiners import HashCombiners
from repro.core.hashed import alpha_hash_all
from repro.gen.random_exprs import random_expr
from repro.lang.expr import App, Lam, Let, Lit, Var
from repro.lang.parser import parse
from repro.store import ExprStore, delta_to_bytes
from repro.store.store import StoreCollisionError

import test_store
from test_arena_native import corpus_batch

needs_resolve = pytest.mark.skipif(
    native.RESOLVE is None,
    reason=f"compile library not loaded: {native.REASONS.get('arena_flatten')}",
)

pytestmark = needs_resolve


@contextmanager
def python_loop():
    """The Python loop for the bulk intern's resolve step, as on a host
    where the compile library did not load."""
    saved = native.RESOLVE
    native.RESOLVE = None
    try:
        yield
    finally:
        native.RESOLVE = saved


def label_key(label):
    # 1 == True == 1.0 and 0.0 == -0.0: compare labels by type and text.
    return type(label).__name__, repr(label)


def table_state(store: ExprStore) -> dict:
    """Everything the resolve step may write, rows included."""
    table = store._table
    rows = sorted(table.row_of.items())
    return {
        "row_of": rows,
        "by_hash": sorted(table.by_hash.items()),
        "columns": [
            (
                table.hashes[row], table.ops[row], table.sizes[row], table.lefts[row],
                table.rights[row], label_key(table.labels[row]), table.versions[row],
                table.stamps[row], table.refcounts[row], table.trees[row] is None,
            )
            for _node_id, row in rows
        ],
        "lru": [node_id for node_id, _row in table.lru()],
        "free": table.free.tolist(),
        "spare": table.spare,
        "cleared": [
            (table.hashes[row], table.labels[row], table.trees[row], table.refcounts[row])
            for row in table.free
        ],
        "next_id": table.next_id,
        "clock": table.clock,
        "version": store.version,
        "log": (table.log_ids, table.log_versions),
        "stats": store.stats.as_dict(),
    }


def intern_batch(store: ExprStore, batch) -> tuple:
    """The ``corpus`` flow on one batch: hash, then intern.  Returns the
    ids, or the collision's text."""
    try:
        store.hash_corpus(batch)
        return store.intern_many(batch)
    except StoreCollisionError as exc:
        return str(exc)


def run_wall(seed: int, max_entries, bits: int = 64, batches: int = 6, items: int = 1000):
    rng = random.Random(seed)
    corpus = [corpus_batch(rng, items) for _ in range(batches)]
    combiners = HashCombiners(bits=bits)
    native_store = ExprStore(combiners, max_entries=max_entries)
    python_store = ExprStore(combiners, max_entries=max_entries)
    outcomes = []
    for k, batch in enumerate(corpus):
        if k == 2:  # start the id log mid-way on both
            delta_to_bytes(native_store, 0)
            delta_to_bytes(python_store, 0)
        got = intern_batch(native_store, batch)
        with python_loop():
            want = intern_batch(python_store, batch)
        assert got == want, k
        assert table_state(native_store) == table_state(python_store), k
        outcomes.append(got)
    return native_store, outcomes


class TestDifferentialWall:
    @pytest.mark.parametrize("seed", [1, 7])
    @pytest.mark.parametrize("max_entries", [None, 30_000], ids=["flat", "bounded"])
    def test_corpus_batches(self, seed, max_entries):
        store, outcomes = run_wall(seed, max_entries)
        assert all(isinstance(ids, list) for ids in outcomes)
        assert store.stats.misses > 100_000
        if max_entries is None:
            assert store._table.log_ids is not None
        else:
            assert store.stats.evictions > 50_000

    def test_eight_bits_ends_batches_in_collisions(self):
        _store, outcomes = run_wall(3, None, bits=8, batches=4, items=200)
        assert any(isinstance(text, str) for text in outcomes)

    @pytest.mark.parametrize("max_entries", [None, 2_000], ids=["flat", "bounded"])
    def test_128_bits(self, max_entries):
        store, _outcomes = run_wall(7, max_entries, bits=128, batches=3, items=300)
        assert max(store._table.by_hash) >= 1 << 64

    def test_ids_and_hashes_match_the_tree_walk(self):
        rng = random.Random(5)
        batch = corpus_batch(rng, 300)
        ids = ExprStore().intern_many(batch, engine="arena")
        tree = ExprStore()
        assert ids == [tree.intern(e) for e in batch]
        store = ExprStore()
        for node_id, expr in zip(store.intern_many(batch), batch):
            assert store.hash_of(node_id) == alpha_hash_all(expr).root_hash

    def test_without_the_library_the_loop_runs(self, monkeypatch):
        calls = []
        loop = arena_intern._resolve_loop

        def spy(*args):
            calls.append(1)
            return loop(*args)

        monkeypatch.setattr(arena_intern, "_resolve_loop", spy)
        ExprStore().intern_many([parse("f x")], engine="arena")
        assert calls == []
        with python_loop():
            ExprStore().intern_many([parse("f x")], engine="arena")
        assert calls == [1]


def fresh_leaves(combiners, taken: set, count: int) -> list:
    """``count`` free variables whose hashes, and those of the Apps
    pairing them, collide with nothing in ``taken`` nor each other."""
    picked: list = []
    n = 0
    while len(picked) < 2 * count:
        var = Var(f"w{n}")
        n += 1
        top = alpha_hash_all(var, combiners).root_hash
        if top in taken:
            continue
        if len(picked) % 2:
            app = App(picked[-1], var)
            app_top = alpha_hash_all(app, combiners).root_hash
            if app_top in taken | {top}:
                continue
            taken.add(app_top)
        taken.add(top)
        picked.append(var)
    return [App(a, b) for a, b in zip(picked[0::2], picked[1::2])]


class TestForcedCollision:
    def test_same_text_and_partial_write_on_both_tiers(self):
        combiners = HashCombiners(bits=8, seed=1)
        lam = parse(r"\x. x")
        states, texts = [], []
        for tier in ("native", "python"):
            store = ExprStore(combiners)
            top = store.hash_of(store.intern(lam))
            var = test_store.TestCollisionGuard.colliding_var(combiners, top)
            taken = {entry.hash for entry in store.entries()}
            batch = [*fresh_leaves(combiners, taken, 3), var]
            with python_loop() if tier == "python" else nullcontext():
                with pytest.raises(StoreCollisionError) as raised:
                    store.intern_many(batch, engine="arena")
            texts.append(str(raised.value))
            states.append(table_state(store))
            assert len(store) == 2 + 9  # \x. x, then three Apps of two fresh leaves
        assert texts[0] == texts[1] == (
            f"alpha-hash 0x{top:x} maps both a Lam of size 2 and a Var of size 1"
        )
        assert states[0] == states[1]


def leak_corpus():
    names = ["".join(("nm", str(i))) for i in range(4)]
    values = [float(i) + 0.5 for i in range(3)] + [2**80 + 7, "".join(("s", "\x00"))]
    corpus = [
        Lam(names[1], App(App(Var(names[0]), Lit(values[0])), Var(names[1]))),
        Let(names[2], Lit(values[1]), App(Var(names[0]), Lit(values[2]))),
        App(Lit(values[3]), Lam(names[3], Lit(values[4]))),
    ]
    return corpus, names, values


def test_no_reference_leaks():
    """200 resolves, half of them failing at their last row on a top that
    is not an int, leave every name, literal value and top hash with the
    references it had once the stores are gone."""
    corpus, names, values = leak_corpus()
    arena, _roots = flatten_corpus(corpus)
    tops = arena_hash_any(arena)
    bad = [*tops[:-1], float(tops[-1])]
    watched = [*arena.names, *arena.literals, *tops, *names, *values]
    before = [sys.getrefcount(obj) for obj in watched]
    for call in range(200):
        store = ExprStore()
        if call % 2:
            store._resolve_arena(arena, tops)
        else:
            with pytest.raises(TypeError):
                store._resolve_arena(arena, bad)
            assert len(store) == len(arena) - 1  # every earlier row written
        del store
    assert [sys.getrefcount(obj) for obj in watched] == before


def test_a_malformed_arena_is_refused_before_any_write():
    corpus, _names, _values = leak_corpus()
    arena, _roots = flatten_corpus(corpus)
    tops = arena_hash_any(arena)
    arena.aux[0] = len(arena.names) + 5  # row 0 is a Var
    store = ExprStore()
    with pytest.raises(ValueError, match="row 0: aux outside the names or literals"):
        store._resolve_arena(arena, tops)
    assert len(store) == 0 and store.version == 0 and store.stats.misses == 0


def test_other_threads_run_during_a_large_resolve():
    rng = random.Random(5)
    corpus = [random_expr(100, rng=rng, p_let=0.3, p_lit=0.1) for _ in range(7500)]
    arena, _roots = flatten_corpus(corpus)
    assert len(arena) >= 300_000
    tops = arena_hash_any(arena)
    resumed: list[float] = []
    stop = threading.Event()

    def counter():
        last = time.perf_counter()
        while not stop.is_set():
            now = time.perf_counter()
            if now - last > 1e-3:  # it had been waiting for the GIL
                resumed.append(now)
            last = now

    store = ExprStore()
    thread = threading.Thread(target=counter)
    thread.start()
    try:
        time.sleep(0.05)
        start = time.perf_counter()
        store._resolve_arena(arena, tops)
        end = time.perf_counter()
    finally:
        stop.set()
        thread.join(timeout=60)
    assert not thread.is_alive()
    # A switch just before the call or just after it returns resumes the
    # counter inside the window at most twice.
    assert sum(start < t < end for t in resumed) >= 3
