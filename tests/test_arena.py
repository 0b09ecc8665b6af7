"""Arena kernel wall: array-speed hashing must be bit-identical.

The arena engine (:mod:`repro.core.arena`) re-implements the paper's
single-pass hashing over a post-order struct-of-arrays compilation of
the corpus.  Its one contract is *bit-identity* with the tree path --
:func:`repro.core.hashed.alpha_hash_all` -- on every input, at every
combiner width.  This wall pins that contract on adversarial corpora
(deep chains, heavy sharing, shadowed binders, a depth-5000 degenerate
case), plus the arena's own mechanics: flatten-time dedup,
``flatten -> unshared_items`` round-trips, incremental flattening, and
``extend_wire`` compiling wire documents into the same columns.  The
flatten classes run on both compile walks, native and Python.
"""

import json
import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.api import HashRequest, Session
from repro.core import native
from repro.core.arena import (
    ExprArena,
    arena_hash,
    arena_hash_any,
    flatten_corpus,
    resolve_engine,
)
from repro.core.combiners import HashCombiners, default_combiners
from repro.core.hashed import alpha_hash_all, lit_cache_key
from repro.gen.adversarial import adversarial_pair
from repro.gen.random_exprs import alpha_rename, random_expr
from repro.lang.expr import App, Expr, Lam, Let, Lit, Var
from repro.lang.sexpr import from_wire, to_wire
from repro.service.arena_body import (
    closure_arena,
    decode_body,
    encode_body,
    unshared_items,
)
from repro.store import ExprStore

from strategies import exprs

DEPTH_DEEP = 5000


def tree_hashes(corpus, combiners=None):
    """The reference: one alpha_hash_all pass per corpus item."""
    return [alpha_hash_all(e, combiners).root_hash for e in corpus]


def kernel_hashes(corpus, combiners=None):
    """The subject: flatten once, run the array kernel, read the roots."""
    arena, roots = flatten_corpus(corpus)
    tops = arena_hash(arena, combiners)
    return [tops[r] for r in roots]


def mixed_corpus(n_items: int, seed: int = 5, size: int = 50):
    """Random + adversarial + alpha-renamed items with object-identity
    duplicates: the differential wall's diet."""
    rng = random.Random(seed)
    corpus: list[Expr] = []
    while len(corpus) < n_items:
        roll = rng.random()
        if roll < 0.2 and corpus:
            corpus.append(rng.choice(corpus))
        elif roll < 0.3 and corpus:
            corpus.append(alpha_rename(rng.choice(corpus), seed=rng.randrange(1 << 16)))
        elif roll < 0.5:
            a, b = adversarial_pair(size, seed=rng.randrange(1 << 30))
            corpus.extend((a, b))
        else:
            corpus.append(
                random_expr(
                    size,
                    rng=rng,
                    shape=rng.choice(("balanced", "unbalanced")),
                    p_let=0.25,
                    p_lit=0.15,
                )
            )
    return corpus[:n_items]


def left_skewed_app(depth: int) -> Expr:
    expr: Expr = Var("x")
    for _ in range(depth):
        expr = App(expr, Var("y"))
    return expr


def right_skewed_app(depth: int) -> Expr:
    expr: Expr = Var("x")
    for _ in range(depth):
        expr = App(Var("y"), expr)
    return expr


def lam_chain(depth: int) -> Expr:
    expr: Expr = Var("v0")
    for i in range(depth):
        expr = Lam(f"v{i % 7}", expr)
    return expr


def let_chain(depth: int) -> Expr:
    expr: Expr = Var("x0")
    for i in range(depth):
        expr = Let(f"x{i % 5}", Var(f"x{(i + 1) % 5}"), expr)
    return expr


class TestDifferential:
    """Bit-identity with alpha_hash_all, corpus shape by corpus shape."""

    @pytest.fixture(scope="class")
    def corpus(self):
        return mixed_corpus(600)

    def test_mixed_corpus_bit_identity(self, corpus):
        assert kernel_hashes(corpus) == tree_hashes(corpus)

    @pytest.mark.parametrize("bits", [16, 32, 64, 96, 128])
    def test_bit_identity_at_every_width(self, bits):
        """bits <= 64 runs the inlined lane-1 kernel, wider runs the
        generic combine_chain kernel -- both must agree with the tree."""
        corpus = mixed_corpus(120, seed=bits, size=40)
        combiners = HashCombiners(bits=bits)
        assert kernel_hashes(corpus, combiners) == tree_hashes(corpus, combiners)

    def test_deep_chains(self):
        corpus = [
            left_skewed_app(2000),
            right_skewed_app(2000),
            lam_chain(2000),
            let_chain(2000),
        ]
        assert kernel_hashes(corpus) == tree_hashes(corpus)

    def test_depth_5000_degenerate(self):
        """The degenerate ceiling: flatten and kernel are iterative, so
        a depth-5000 spine neither recurses nor diverges from the tree."""
        corpus = [left_skewed_app(DEPTH_DEEP), lam_chain(DEPTH_DEEP)]
        assert kernel_hashes(corpus) == tree_hashes(corpus)

    def test_heavy_sharing(self):
        """One shared subtree object referenced massively: the arena
        visits it once, the hashes must not notice."""
        shared = random_expr(60, seed=11, p_let=0.3)
        expr: Expr = shared
        for _ in range(200):
            expr = App(expr, shared)
        corpus = [expr, shared, App(shared, shared)]
        assert kernel_hashes(corpus) == tree_hashes(corpus)

    def test_shadowed_binders(self):
        x = Var("x")
        corpus = [
            Lam("x", Lam("x", x)),
            Lam("x", App(x, Lam("x", x))),
            Let("x", x, Let("x", x, x)),
            Lam("x", Let("x", App(x, x), App(x, x))),
        ]
        assert kernel_hashes(corpus) == tree_hashes(corpus)

    def test_alpha_equivalent_items_collide(self):
        """Alpha-equivalent-but-renamed items keep distinct arena nodes
        yet must still hash equal -- the collapse happens in hash space."""
        base = random_expr(80, seed=3, p_let=0.3)
        renamed = alpha_rename(base, seed=9)
        hashes = kernel_hashes([base, renamed])
        assert hashes[0] == hashes[1]

    def test_literal_types_not_conflated(self):
        corpus = [Lit(1), Lit(True), Lit(1.0), Lit("1"), Lit(0), Lit(False)]
        hashes = kernel_hashes(corpus)
        assert hashes == tree_hashes(corpus)
        assert len(set(hashes)) == len(corpus)


class PythonWalk:
    """Runs a compile test class on the Python walk: ``flatten`` runs it
    whenever the native compile library did not load."""

    @pytest.fixture(autouse=True)
    def python_walk(self, monkeypatch):
        monkeypatch.setattr(native, "FLATTEN", None)


class TestFlatten:
    """The compile step's own invariants, on the walk ``flatten`` runs
    (native when its library loaded; :class:`TestFlattenPythonWalk` runs
    the Python walk)."""

    def test_dedup_collapses_structural_repeats(self):
        shared = random_expr(40, seed=2)
        corpus = [App(shared, shared), shared, App(shared, shared)]
        arena, roots = flatten_corpus(corpus)
        # Both App(shared, shared) items -- distinct calls, identical
        # structure -- land on one arena node.
        assert roots[0] == roots[2]
        assert len(arena) <= shared.size + 1

    def test_incremental_flatten_reuses_nodes(self):
        corpus = mixed_corpus(50, seed=21)
        arena, roots = flatten_corpus(corpus)
        before = len(arena)
        # Re-flattening the same corpus -- and structurally identical
        # *fresh* objects -- adds nothing: dedup is structural, not
        # object-identity.
        clone = pickle.loads(pickle.dumps(corpus[0]))
        again = arena.flatten([clone, *corpus])
        assert len(arena) == before
        assert again == [roots[0], *roots]

    def test_postorder_invariant(self):
        arena, _ = flatten_corpus(mixed_corpus(80, seed=13))
        for i in range(len(arena)):
            assert arena.left[i] < i
            assert arena.right[i] < i

    def test_stats_and_max_depth(self):
        corpus = [left_skewed_app(100), Var("x")]
        arena, _ = flatten_corpus(corpus)
        stats = arena.stats()
        assert stats["nodes"] == len(arena)
        assert stats["bytes"] > 0

    def test_unknown_node_kind_rejected(self):
        arena = ExprArena()
        with pytest.raises(TypeError):
            arena.flatten([object()])

    def test_failed_flatten_rolls_back_completely(self):
        """A foreign node mid-corpus must leave no trace: no columns, no
        leaf-table entries, no dangling structural-index rows."""
        arena = ExprArena()
        good = App(Var("x"), Lit(5))
        with pytest.raises(TypeError):
            arena.flatten([good, object()])
        assert len(arena) == 0
        assert arena.names == [] and arena.literals == []
        roots = arena.flatten([good])
        tops = arena_hash(arena, default_combiners())
        assert tops[roots[0]] == alpha_hash_all(good).root_hash

    def test_failed_flatten_preserves_existing_nodes(self):
        arena, roots0 = flatten_corpus([App(Var("x"), Var("y"))])
        n0, names0 = len(arena), list(arena.names)
        with pytest.raises(TypeError):
            arena.flatten([Lam("z", Var("w")), object()])
        assert len(arena) == n0 and arena.names == names0
        assert arena.flatten([App(Var("x"), Var("y"))]) == roots0

    def test_shared_objects_are_walked_once(self):
        """A 50-level doubling DAG has 2**50 tree nodes but 52 objects:
        the walk must visit each shared interior object once (this test
        hangs if it does not)."""
        expr: Expr = Lam("a", Var("a"))
        for _ in range(50):
            expr = App(expr, expr)
        arena, roots = flatten_corpus([expr])
        assert len(arena) == 52
        assert arena.sizes[roots[0]] == expr.size

    def test_unhashable_foreign_root_rolls_back(self):
        """A foreign root is rejected by type before anything hashes it,
        even an unhashable one, and the failed call leaves no trace."""
        arena, _ = flatten_corpus(mixed_corpus(20, seed=51))
        before = arena_state(arena)
        prefix = [App(Var("fresh"), Lit(2.5)), Let("q", Var("q0"), Var("q"))]
        with pytest.raises(
            TypeError, match="^cannot flatten non-expression node of type list$"
        ):
            arena.flatten([*prefix, [1]])
        assert arena_state(arena) == before

    def test_row_order_matches_wire_compile(self):
        """flatten and extend_wire build the same arena state on a
        let-heavy corpus with same-object repeats and shared subtrees:
        rows come out in first-occurrence postorder either way."""
        rng = random.Random(53)
        corpus: list[Expr] = []
        for _ in range(60):
            shared = random_expr(
                rng.randint(3, 25), rng=rng, p_let=0.5, p_lit=0.2
            )
            body = random_expr(
                rng.randint(3, 25), rng=rng, p_let=0.5, p_lit=0.2
            )
            corpus.append(
                Let("s", shared, App(App(Var("s"), shared), Let("t", body, shared)))
            )
            if rng.random() < 0.3:
                corpus.append(rng.choice(corpus))
        via_tree, via_wire = ExprArena(), ExprArena()
        tree_roots = via_tree.flatten(corpus)
        wire_roots = via_wire.extend_wire([to_wire(expr) for expr in corpus])
        assert tree_roots == wire_roots
        assert arena_state(via_tree) == arena_state(via_wire)

    @pytest.mark.parametrize("source", ["decode_body", "closure_arena"])
    def test_compiles_into_an_arena_built_elsewhere(self, source):
        """An arena that no compile built (a decoded request body, a
        shard's closure) is extended, not duplicated: a compile derives
        its name and literal maps from the tables, as it derives the
        structural index from the rows."""
        corpus = [App(Var("f"), Lit(1)), App(Var("g"), Var("f"))]
        arena, roots = flatten_corpus(corpus)
        if source == "decode_body":
            _header, arena, roots = decode_body(encode_body(arena, roots))
        else:
            arena, roots = closure_arena(arena, roots)
        before = arena_state(arena)
        assert len(arena) == 5 and arena.names == ["f", "g"]
        assert arena.flatten(corpus) == roots
        assert arena_state(arena) == before
        assert arena.extend_wire([to_wire(expr) for expr in corpus]) == roots
        assert arena_state(arena) == before


class TestFlattenPythonWalk(PythonWalk, TestFlatten):
    """:class:`TestFlatten` on the Python walk."""


def arena_state(arena: ExprArena) -> tuple:
    """Everything an arena holds, literals keyed by type and float bits
    (``0.0 == -0.0`` and ``1 == True`` would hide a conflation).  The
    columns and tables determine the indexes a compile derives."""
    return (
        bytes(arena.op),
        arena.left.tolist(),
        arena.right.tolist(),
        arena.aux.tolist(),
        arena.sizes.tolist(),
        list(arena.names),
        [lit_cache_key(value) for value in arena.literals],
    )


class TestExtendWire:
    """Wire documents compile straight into the columns ``from_wire``
    then ``flatten`` would build, and hash like ``alpha_hash_all``; the
    ``flatten`` side runs the walk ``flatten`` runs
    (:class:`TestExtendWirePythonWalk` runs the Python walk)."""

    @staticmethod
    def both(docs, via_tree=None, via_wire=None):
        via_tree = ExprArena() if via_tree is None else via_tree
        via_wire = ExprArena() if via_wire is None else via_wire
        tree_roots = via_tree.flatten([from_wire(doc) for doc in docs])
        wire_roots = via_wire.extend_wire(docs)
        assert wire_roots == tree_roots
        assert arena_state(via_wire) == arena_state(via_tree)
        return via_wire, wire_roots

    def assert_hashes(self, corpus, widths=(64,)):
        arena, roots = self.both([to_wire(expr) for expr in corpus])
        for bits in widths:
            combiners = HashCombiners(bits=bits)
            tops = arena_hash_any(arena, combiners)
            assert [tops[r] for r in roots] == tree_hashes(corpus, combiners)

    @pytest.mark.parametrize("bits", [16, 32, 64, 96, 128])
    def test_mixed_corpus_at_every_width(self, bits):
        self.assert_hashes(mixed_corpus(150, seed=bits, size=40), widths=(bits,))

    def test_random_corpora(self):
        # An inner property, so each subclass runs its own executor.
        @given(st.lists(exprs(max_size=40), min_size=1, max_size=6))
        def check(corpus):
            self.assert_hashes(corpus)

        check()

    def test_depth_5000_chains(self):
        corpus = [
            left_skewed_app(DEPTH_DEEP),
            right_skewed_app(DEPTH_DEEP),
            lam_chain(DEPTH_DEEP),
            let_chain(DEPTH_DEEP),
        ]
        self.assert_hashes(corpus, widths=(16, 64, 128))

    def test_shadowed_binders(self):
        x = Var("x")
        corpus = [
            Lam("x", Lam("x", x)),
            Lam("x", App(x, Lam("x", x))),
            Let("x", x, Let("x", x, x)),
            Lam("x", Let("x", App(x, x), App(x, x))),
            Let("x", Lam("x", x), App(Var("x"), Var("x"))),
        ]
        self.assert_hashes(corpus, widths=(32, 64, 128))

    def test_literal_spellings_stay_apart(self):
        corpus = [
            Lit(-0.0), Lit(0.0), Lit(True), Lit(1), Lit(1.0), Lit(False),
            Lit(0), Lit("1"), App(Lit(0.0), Lit(-0.0)), App(Lit(True), Lit(1)),
        ]
        arena, roots = self.both([to_wire(expr) for expr in corpus])
        assert len(set(roots)) == len(roots)
        self.assert_hashes(corpus, widths=(16, 64, 128))

    def test_json_integral_float_reads_as_float(self):
        """JSON may render ``1.0`` as ``1``: under the ``float`` tag it
        is the float ``1.0``, never the int ``1``."""
        doc = json.loads(
            '{"format":"repro-expr-v1","post":[["c","float",1],["c","int",1],["a"]]}'
        )
        arena, roots = self.both([doc])
        assert [type(value) for value in arena.literals] == [float, int]
        tops = arena_hash_any(arena)
        assert tops[roots[0]] == alpha_hash_all(App(Lit(1.0), Lit(1))).root_hash

    def test_appends_to_a_populated_arena(self):
        base = mixed_corpus(60, seed=31)
        more = mixed_corpus(60, seed=32) + base[:10]
        via_tree, via_wire = flatten_corpus(base)[0], flatten_corpus(base)[0]
        # Grow both the same way once more, then compare the append.
        self.both([to_wire(expr) for expr in more[:20]], via_tree, via_wire)
        before = len(via_wire)
        arena, roots = self.both([to_wire(expr) for expr in more], via_tree, via_wire)
        assert len(arena) > before
        tops = arena_hash_any(arena)
        assert [tops[r] for r in roots] == tree_hashes(more)


class TestExtendWirePythonWalk(PythonWalk, TestExtendWire):
    """:class:`TestExtendWire` with ``flatten`` on the Python walk."""


class TestRoundTrip:
    """flatten -> unshared_items preserves alpha-hashes and sizes."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_rebuild_preserves_alpha_hash(self, seed):
        corpus = mixed_corpus(60, seed=seed)
        rebuilt = unshared_items(*flatten_corpus(corpus))
        assert tree_hashes(rebuilt) == tree_hashes(corpus)
        assert [e.size for e in rebuilt] == [e.size for e in corpus]

    def test_rebuild_deep_chain(self):
        (rebuilt,) = unshared_items(*flatten_corpus([lam_chain(DEPTH_DEEP)]))
        assert rebuilt.size == DEPTH_DEEP + 1


class TestKernelMechanics:
    def test_resolve_engine(self):
        assert resolve_engine("auto") == "arena"
        assert resolve_engine("arena") == "arena"
        assert resolve_engine("tree") == "tree"
        with pytest.raises(ValueError, match="auto, tree, arena"):
            resolve_engine("warp")


class TestStoreIntegration:
    """engine= plumbing through ExprStore / Session / sharing."""

    @pytest.fixture(scope="class")
    def corpus(self):
        return mixed_corpus(300, seed=31)

    def test_store_hash_corpus_engines_agree(self, corpus):
        ref = ExprStore().hash_corpus(corpus, engine="tree")
        assert ExprStore().hash_corpus(corpus, engine="arena") == ref

    def test_store_arena_root_memo_answers_repeats(self, corpus):
        store = ExprStore()
        first = store.hash_corpus(corpus, engine="arena")
        hits_before = store.stats.memo_hits
        second = store.hash_corpus(corpus, engine="arena")
        assert second == first
        assert store.stats.memo_hits > hits_before

    def test_intern_after_hash_reuses_compile(self, corpus):
        """The repro-session flow: hash_corpus then intern_many of the
        same corpus must not flatten and hash the arena twice."""
        store = ExprStore()
        hashes = store.hash_corpus(corpus, engine="arena")
        hashed_before = store.stats.hashed_nodes
        ids = store.intern_many(corpus, engine="arena")
        assert store.stats.hashed_nodes == hashed_before
        assert [store.hash_of(i) for i in ids] == hashes
        assert ids == ExprStore().intern_many(corpus, engine="tree")

    @staticmethod
    def repeating_batches(n_batches=4, n_items=300, seed=61):
        """Batches that repeat earlier batches' items as the same objects
        and as alpha-renamed copies; the rest are fresh mixed items."""
        rng = random.Random(seed)
        earlier: list[Expr] = []
        batches = []
        for number in range(n_batches):
            batch = []
            for fresh in mixed_corpus(n_items, seed=seed + number):
                roll = rng.random()
                if earlier and roll < 0.25:
                    batch.append(rng.choice(earlier))
                elif earlier and roll < 0.4:
                    batch.append(
                        alpha_rename(rng.choice(earlier), seed=rng.randrange(1 << 16))
                    )
                else:
                    batch.append(fresh)
            earlier.extend(batch)
            batches.append(batch)
        return batches

    @pytest.mark.parametrize("make", [ExprStore], ids=["flat"])
    def test_intern_after_hash_reuses_compile_across_batches(self, make, monkeypatch):
        """Hash then intern each of several batches, some items repeating
        earlier batches: intern never re-flattens or re-hashes, and ids
        match the tree engine fed the same sequence."""
        store = make()
        tree = ExprStore()
        flattens = []
        flatten = ExprArena.flatten

        def counting_flatten(arena, exprs):
            flattens.append(1)
            return flatten(arena, exprs)

        monkeypatch.setattr(ExprArena, "flatten", counting_flatten)
        for batch in self.repeating_batches():
            hashes = store.hash_corpus(batch, engine="arena")
            assert hashes == tree.hash_corpus(batch, engine="tree")
            hashed_before, flattens_before = store.stats.hashed_nodes, len(flattens)
            ids = store.intern_many(batch, engine="arena")
            assert store.stats.hashed_nodes == hashed_before
            assert len(flattens) == flattens_before
            tree_ids = tree.intern_many(batch, engine="tree")
            assert [store.hash_of(i) for i in ids] == hashes
            assert [tree.hash_of(i) for i in tree_ids] == hashes
            assert ids == tree_ids
        assert len(store) == len(tree)

    @pytest.mark.parametrize(
        "earlier, order",
        [
            (0, lambda batch: batch[: len(batch) // 2]),
            (0, lambda batch: batch[::-1]),
            (40, lambda batch: batch),
        ],
        ids=["subset", "reversed", "hashed-earlier"],
    )
    def test_intern_of_other_items_compiles_its_own(self, corpus, earlier, order):
        """Intern after hash reuses the compile only for exactly the
        items it compiled: a subset, another order, or items an earlier
        pass hashed but nobody interned are compiled afresh, so ids and
        entries still equal the tree engine's for the intern's order."""
        store = ExprStore()
        store.hash_corpus(corpus[:earlier], engine="arena")
        store.hash_corpus(corpus, engine="arena")
        ids = store.intern_many(order(corpus), engine="arena")
        tree = ExprStore()
        assert ids == tree.intern_many(order(corpus), engine="tree")
        assert len(store) == len(tree)

    @pytest.mark.parametrize("make", [ExprStore], ids=["flat"])
    def test_repeated_items_are_root_hits(self, corpus, make):
        """An item interned before as the same object is one hit, as in
        the serial path: no compile, no descent, no new entry."""
        store = make()
        tree = ExprStore()
        ids = store.intern_many(corpus, engine="arena")
        tree_ids = tree.intern_many(corpus, engine="tree")
        before, tree_before = store.stats.as_dict(), tree.stats.as_dict()
        assert store.intern_many(corpus[:50], engine="arena") == ids[:50]
        assert tree.intern_many(corpus[:50], engine="tree") == tree_ids[:50]
        for stats, start in ((store.stats, before), (tree.stats, tree_before)):
            assert stats.hits == start["hits"] + 50
            assert stats.misses == start["misses"]
            assert stats.hashed_nodes == start["hashed_nodes"]

    def test_intern_many_engines_agree(self, corpus):
        by_tree = ExprStore().intern_many(corpus, engine="tree")
        by_arena = ExprStore().intern_many(corpus, engine="arena")
        assert by_arena == by_tree

    def test_intern_many_arena_store_state_matches(self, corpus):
        tree_store, arena_store = ExprStore(), ExprStore()
        tree_store.intern_many(corpus, engine="tree")
        arena_store.intern_many(corpus, engine="arena")
        assert len(arena_store) == len(tree_store)
        for entry in tree_store.entries():
            other = arena_store.lookup_hash(entry.hash)
            assert other is not None
            assert arena_store.entry(other).kind == entry.kind

    def test_lru_bounded_store_keeps_tree_path(self, corpus):
        bounded = ExprStore(max_entries=64)
        ids = bounded.intern_many(corpus, engine="arena")
        assert len(ids) == len(corpus)
        assert len(bounded) <= 64

    def test_session_engine_plumbing(self, corpus):
        ref = Session(engine="tree").hash_corpus(corpus)
        assert Session(engine="arena").hash_corpus(corpus) == ref
        assert Session().execute(HashRequest(corpus, engine="arena")) == ref

    def test_session_rejects_unknown_engine(self):
        with pytest.raises(ValueError):
            Session(engine="warp")

    def test_share_corpus_through_arena(self):
        corpus = mixed_corpus(40, seed=41)
        session = Session()
        results = session.share(corpus)
        assert len(results) == len(corpus)
        for expr, result in zip(corpus, results):
            assert (
                alpha_hash_all(result.root).root_hash
                == alpha_hash_all(expr).root_hash
            )

    def test_share_corpus_on_lru_bounded_store(self):
        """Eviction must not strand batch-interned roots: bounded
        stores share item by item (regression: KeyError in expr_of)."""
        corpus = mixed_corpus(50, seed=43)
        results = Session(max_entries=10).share(corpus)
        assert len(results) == len(corpus)
        for expr, result in zip(corpus, results):
            assert (
                alpha_hash_all(result.root).root_hash
                == alpha_hash_all(expr).root_hash
            )

    def test_snapshot_round_trips_engine(self, tmp_path):
        session = Session(engine="tree")
        session.intern_many(mixed_corpus(5, seed=3))
        path = str(tmp_path / "s.snap")
        session.save(path)
        assert Session.load(path).config.engine == "tree"
