"""The columnar intern table: footprint, trees on demand, encoders, views.

The table keeps each canonical class in per-class columns, so a class
interned without a tree leaves no GC-tracked object behind; no intern
path stores a tree, canonical trees are built only when a caller asks
for one, and the encoders read the columns.
"""

import gc
import random

import pytest

from repro.core.arena import OP_KINDS, OP_VAR
from repro.lang.alpha import alpha_equivalent
from repro.gen.random_exprs import random_expr
from repro.lang.parser import parse
from repro.lang.sexpr import to_wire
from repro.lang.traversal import preorder
from repro.service import ReproServer, ServiceClient
from repro.store import (
    ExprStore,
    Journal,
    apply_delta_bytes,
    content_checksum,
    delta_to_bytes,
    snapshot_from_bytes,
    snapshot_to_bytes,
)

#: Tracked objects a table may leave per class it holds.
MAX_TRACKED_PER_ENTRY = 0.1

SHAPES = [pytest.param(ExprStore, id="flat")]

#: The intern engines: the arena bulk intern and the tree walk.
ENGINES = ["arena", "tree"]


def corpus(n_items, seed=17, size=40):
    rng = random.Random(seed)
    return [random_expr(size, rng=rng, p_let=0.2, p_lit=0.2) for _ in range(n_items)]


def tracked_objects() -> int:
    gc.collect()
    return len(gc.get_objects())


def live_trees(store):
    table = store._table
    return [
        table.trees[row] for row in table.row_of.values() if table.trees[row] is not None
    ]


class TestFootprint:
    @pytest.mark.parametrize("make_store", SHAPES)
    def test_arena_intern_leaves_no_object_per_class(self, make_store):
        items = corpus(2000)
        store = make_store()
        before = tracked_objects()
        store.intern_many(items, engine="arena")
        added = tracked_objects() - before
        assert len(store) > 10_000
        assert added / len(store) <= MAX_TRACKED_PER_ENTRY, (added, len(store))

    @pytest.mark.parametrize("restore", ["snapshot", "delta", "merge"])
    def test_a_restored_store_keeps_no_object_per_class(self, restore):
        items = corpus(2000)
        source, frames = ExprStore(), []
        for lo in range(0, len(items), 500):
            since = source.version
            source.intern_many(items[lo : lo + 500], engine="arena")
            frames.append(delta_to_bytes(source, since))
        data = snapshot_to_bytes(source)
        before = tracked_objects()
        if restore == "snapshot":
            store, _header = snapshot_from_bytes(data)
        else:
            store = ExprStore()
            if restore == "delta":
                for frame in frames:
                    apply_delta_bytes(store, frame)
            else:
                store.merge_store(source)
        added = tracked_objects() - before
        assert len(store) == len(source) > 10_000
        assert added / len(store) <= MAX_TRACKED_PER_ENTRY, (added, len(store))
        assert store._memo == {} and live_trees(store) == []
        if restore == "merge":  # the same classes under ids of its own
            assert {e.hash for e in store.entries()} == {e.hash for e in source.entries()}
        else:
            assert content_checksum(store) == content_checksum(source)

    def test_journaled_server_keeps_no_encoder_trees(self, tmp_path):
        items = corpus(330, seed=23)
        with ReproServer(
            port=0, journal=Journal(str(tmp_path / "wal"), fsync=False)
        ) as server:
            client = ServiceClient(server.url)
            store = server.session.store
            batches = [items[lo : lo + 110] for lo in range(0, len(items), 110)]
            docs = [[to_wire(e) for e in batch] for batch in batches]
            client.intern_wire(docs[0])  # warm the server's own state
            entries, before = len(store), tracked_objects()
            for wire in docs[1:]:
                reply = client.intern_wire(wire)
                assert reply["plan"]["engine"] == "arena"
            added = tracked_objects() - before
            fresh = len(store) - entries
            assert fresh > 1_000
            assert added / fresh <= MAX_TRACKED_PER_ENTRY, (added, fresh)
            assert live_trees(store) == []


class TestTreesOnDemand:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_intern_stores_no_tree(self, engine):
        store = ExprStore()
        ids = store.intern_many(corpus(50), engine=engine)
        assert live_trees(store) == []
        root = store.expr_of(ids[0])
        assert len(live_trees(store)) == len({id(node) for node in preorder(root)})
        assert store.expr_of(ids[0]) is root

    @pytest.mark.parametrize("make_store", SHAPES)
    def test_expr_of_builds_a_shared_canonical_tree(self, make_store):
        item = parse(r"pair (\x. x + 7) (\y. y + 7)")
        store = make_store()
        [node_id] = store.intern_many([item], engine="arena")
        root = store.expr_of(node_id)
        assert alpha_equivalent(root, item)
        assert root.fn.arg is root.arg  # the repeated class is one subtree
        assert store.expr_of(node_id) is root
        assert store.entry(node_id).expr is root
        hashed = store.stats.hashed_nodes
        assert store.intern(root) == node_id
        assert store.stats.hashed_nodes > hashed  # built trees carry no memo

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("make_store", SHAPES)
    def test_every_built_tree_interns_to_its_class(self, make_store, engine):
        items = corpus(40, seed=29)
        store = make_store()
        ids = store.intern_many(items, engine=engine)
        assert live_trees(store) == []
        for item, node_id in zip(items, ids):
            assert alpha_equivalent(store.expr_of(node_id), item)
        classes = {entry.node_id for entry in store.entries()}
        for node_id in classes:
            assert store.intern(store.expr_of(node_id)) == node_id
        assert len(store) == len(classes)

    def test_built_trees_share_subtrees_across_classes(self):
        store = ExprStore()
        ids = store.intern_many(corpus(30, seed=31), engine="arena")
        for node_id in ids:
            store.expr_of(node_id)
        nodes = {}
        for entry in store.entries():
            for node in preorder(entry.expr):
                nodes.setdefault(store.lookup_hash(store.hash_expr(node)), set()).add(
                    id(node)
                )
        assert all(len(objects) == 1 for objects in nodes.values())


class TestEncoders:
    @pytest.mark.parametrize("make_store", SHAPES)
    def test_encoders_agree_with_and_without_trees(self, make_store):
        items = corpus(60, seed=37)
        store = make_store()
        store.intern_many(items[:30], engine="arena")
        since = store.version
        store.intern_many(items[30:], engine="arena")

        def outputs():
            return (
                content_checksum(store),
                snapshot_to_bytes(store),
                delta_to_bytes(store, since),
                delta_to_bytes(store, 0),
            )

        cold = outputs()
        assert live_trees(store) == []  # the encoders keep no tree
        for entry in store.entries():
            store.expr_of(entry.node_id)
        assert len(live_trees(store)) == len(store)
        assert outputs() == cold


class TestViews:
    def test_entry_fields_are_read_only(self):
        store = ExprStore()
        node_id = store.intern(parse("f x"))
        entry = store.entry(node_id)
        for name in ("node_id", "hash", "kind", "size", "children", "refcount", "version"):
            with pytest.raises(AttributeError):
                setattr(entry, name, 0)
        with pytest.raises(AttributeError):
            entry.expr = parse("y")
        with pytest.raises(AttributeError):
            entry.note = "anything"
        assert (entry.kind, entry.size, len(entry.children)) == ("App", 3, 2)

    def test_a_view_reads_the_columns_when_built(self):
        store = ExprStore()
        leaf = store.intern(parse("x"))
        before = store.entry(leaf)
        store.intern(parse("f x"))
        assert before.refcount == 0
        assert store.entry(leaf).refcount == 1

    def test_a_size_past_int64_is_refused_whole(self):
        """A class's size lives in an int64 column, as in arena rows and
        delta frames: a DAG whose size reaches 2**63 raises, and every
        class interned before it is whole, with no id or version spent."""
        from repro.lang.expr import App, Lam, Var

        dag = Lam("a", Var("a"))
        for _ in range(64):
            dag = App(dag, dag)
        store = ExprStore()
        with pytest.raises(OverflowError):
            store.intern(dag)
        assert store.stats.misses == len(store) == store._table.next_id == store.version
        assert store.intern(parse("f x")) == len(store) - 1

    def test_evicted_rows_are_reused(self):
        store = ExprStore(max_entries=8)
        for index in range(200):
            store.intern(parse(f"f{index} (g{index} x{index})"))
        assert len(store) <= 8 + 5
        assert len(store._table.hashes) < 100


def full_scan(table, since):
    """The oracle: every live class whose version is above ``since``, read
    off the whole table in LRU order (the live rows sorted by stamp), then
    put in version order (a stable sort, so classes sharing a version keep
    their LRU order).  Kinds and child tuples come from the opcode and
    child columns."""
    lru = sorted(table.row_of.items(), key=lambda pair: table.stamps[pair[1]])
    records = [
        (node_id, table.hashes[row], OP_KINDS[table.ops[row]], table.sizes[row],
         tuple(kid for kid in (table.lefts[row], table.rights[row]) if kid >= 0),
         table.labels[row], table.versions[row], table.trees[row])
        for node_id, row in lru
        if table.versions[row] > since
    ]
    return sorted(records, key=lambda record: record[6])


def check_selection(store):
    """The delta's fresh-entry selection equals the full scan at every
    version boundary, and the id log stays proportional to the table."""
    table = store._table
    for since in range(store.version + 1):
        assert table.records(since) == full_scan(table, since), since
    assert len(table.log_ids) <= 2 * len(table) + 65


class TestDeltaSelection:
    """``InternTable.records(since)`` reads the id log's window, not the
    whole table, and selects exactly what the full scan selects."""

    @pytest.mark.parametrize("make_store", SHAPES)
    def test_no_log_until_a_delta_is_read(self, make_store):
        store = make_store()
        store.intern_many(corpus(30, seed=2), engine="arena")
        assert store._table.log_ids is None
        delta_to_bytes(store, store.version // 2)
        store.intern_many(corpus(10, seed=3), engine="tree")
        check_selection(store)

    @pytest.mark.parametrize("make_store", SHAPES)
    def test_batches_on_both_engines(self, make_store):
        store = make_store()
        items = corpus(40, seed=3)
        store.intern_many(items[:20], engine="tree")
        check_selection(store)  # the log starts here, then grows
        store.intern_many(items[20:], engine="arena")
        store.intern_many(corpus(10, seed=4), engine="tree")
        check_selection(store)

    @pytest.mark.parametrize(
        "make_store", [pytest.param(lambda: ExprStore(max_entries=60), id="flat")]
    )
    def test_bounded_store_with_evicted_and_recreated_classes(self, make_store):
        store = make_store()
        items = corpus(30, seed=5)
        delta_to_bytes(store, 0)  # log every class from the start
        for round_ in range(4):
            # Re-interning evicted classes re-creates them under new ids.
            store.intern_many(items, engine="arena" if round_ % 2 else "tree")
            store.intern_many(corpus(10, seed=100 + round_), engine="arena")
        assert store.stats.evictions > 0
        check_selection(store)

    @pytest.mark.parametrize("make_store", SHAPES)
    def test_snapshot_loaded_and_delta_fed(self, make_store):
        from repro.store import apply_delta_bytes, snapshot_from_bytes

        primary = make_store()
        primary.intern_many(corpus(25, seed=6), engine="arena")
        replica, _header = snapshot_from_bytes(snapshot_to_bytes(primary))
        loaded_at = replica.version
        # The loader restores in LRU order, not version order.
        check_selection(replica)
        for seed in (7, 8):
            since = primary.version
            primary.intern_many(corpus(10, seed=seed), engine="tree")
            apply_delta_bytes(replica, delta_to_bytes(primary, since))
        assert replica.version > loaded_at
        check_selection(replica)
        # A window reaching back before the load, byte for byte.
        for since in (0, loaded_at // 2, loaded_at, replica.version):
            assert delta_to_bytes(replica, since) == delta_to_bytes(primary, since)

    def test_classes_sharing_a_version_keep_their_lru_order(self):
        from repro.store.store import InternTable

        # Restores arrive out of version order and may share a version
        # (two sources stamping independently); some are touched, some
        # evicted and restored again.
        rng = random.Random(12)
        table = InternTable()
        versions = [rng.randrange(1, 9) for _ in range(80)]
        for node_id, version in enumerate(versions):
            if node_id == 10:
                table.records(0)  # start the log; the next restores drop it
            table.insert(var_class(node_id, f"v{node_id}", version))
        for node_id in rng.sample(range(80), 20):
            table.touch(node_id)
        for node_id in rng.sample(range(80), 12):
            table.unlink(node_id)
            if node_id % 2:
                table.insert(var_class(node_id, "w", versions[node_id]))
        for since in range(10):
            assert table.records(since) == full_scan(table, since), since


def var_class(node_id, name, version) -> list:
    """One Var class as the columns ``InternTable.insert`` takes."""
    return [[node_id], [7919 * node_id], [OP_VAR], [1], [-1], [-1], [name], [version]]


def rescan_victims(table, protect, pinned, bound) -> list:
    """The oracle: evict by scanning from the least recently used class
    for each victim, as the table did before it kept an eviction heap."""
    live = {
        node_id: [table.stamps[row], table.refcounts[row], table.children(row)]
        for node_id, row in table.row_of.items()
    }
    victims = []
    while len(live) > bound:
        victim = next(
            (
                node_id
                for node_id in sorted(live, key=lambda node_id: live[node_id][0])
                if live[node_id][1] == 0 and node_id != protect and node_id not in pinned
            ),
            None,
        )
        if victim is None:
            break
        for kid in live.pop(victim)[2]:
            live[kid][1] -= 1
        victims.append(victim)
    return victims


class TestEvictionOrder:
    """The eviction heap kept from pass to pass picks the victims a
    rescan from the oldest class picks, through tree and arena interns,
    touches, pins and unpins."""

    @pytest.mark.parametrize("seed", range(4))
    def test_victims_match_a_rescan(self, seed, monkeypatch):
        rng = random.Random(seed)
        store = ExprStore(max_entries=60)
        unlinked: list = []
        passes: list = []
        real_unlink, real_evict = store._unlink, store._evict_if_needed

        def unlink(node_id):
            unlinked.append(node_id)
            real_unlink(node_id)

        def evict(protect=None):
            expected = rescan_victims(
                store._table, protect, store._pinned, store.max_entries
            )
            del unlinked[:]
            real_evict(protect)
            assert unlinked == expected
            passes.append(len(expected))

        monkeypatch.setattr(store, "_unlink", unlink)
        monkeypatch.setattr(store, "_evict_if_needed", evict)
        pinned: list = []
        for _step in range(150):
            roll = rng.random()
            if roll < 0.4:
                store.intern(random_expr(rng.randint(1, 12), rng=rng, p_let=0.2, p_lit=0.2))
            elif roll < 0.6:
                store.intern_many(corpus(rng.randint(1, 6), seed=rng.randrange(1 << 20), size=8))
            elif roll < 0.8 and len(store):
                store.entry(rng.choice([entry.node_id for entry in store.entries()]))
            elif roll < 0.9 and len(store):
                node_id = rng.choice([entry.node_id for entry in store.entries()])
                store.pin(node_id)
                pinned.append(node_id)
            elif pinned:
                store.unpin(pinned.pop(rng.randrange(len(pinned))))
        assert sum(passes) > 100 and store.stats.evictions == sum(passes)
