"""Unit and property tests for variable maps (both flavours).

The load-bearing invariant is Section 5.2's XOR maintenance: after any
sequence of operations, a :class:`HashedVarMap`'s incrementally
maintained hash equals the XOR-of-entry-hashes recomputed from scratch.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.combiners import HashCombiners
from repro.core.position_tree import PTBoth, PTHere, PTLeftOnly, PTRightOnly
from repro.core.varmap import HashedVarMap, MapOpStats, VarMapTree, entry_hash

import pytest

C = HashCombiners(seed=55)


class TestVarMapTree:
    def test_empty_and_singleton(self):
        assert len(VarMapTree.empty()) == 0
        m = VarMapTree.singleton("x", PTHere)
        assert len(m) == 1 and "x" in m

    def test_removed_returns_pos(self):
        m = VarMapTree.singleton("x", PTHere)
        m2, pos = m.removed("x")
        assert pos is PTHere
        assert len(m2) == 0
        assert len(m) == 1  # original untouched

    def test_removed_missing(self):
        m = VarMapTree.singleton("x", PTHere)
        m2, pos = m.removed("y")
        assert pos is None and m2 is m

    def test_extended_does_not_mutate(self):
        m = VarMapTree.empty()
        m2 = m.extended("x", PTHere)
        assert "x" in m2 and "x" not in m

    def test_altered_existing_and_missing(self):
        m = VarMapTree.singleton("x", PTHere)
        m2 = m.altered("x", lambda old: PTLeftOnly(old))
        assert isinstance(m2.get("x"), PTLeftOnly)
        m3 = m.altered("y", lambda old: PTHere if old is None else old)
        assert m3.get("y") is PTHere

    def test_map_maybe_drops_nones(self):
        m = VarMapTree(
            {"a": PTLeftOnly(PTHere), "b": PTRightOnly(PTHere), "c": PTHere}
        )
        left = m.map_maybe(
            lambda p: p.child if isinstance(p, PTLeftOnly) else None
        )
        assert set(left.entries) == {"a"}

    def test_merged_three_cases(self):
        left = VarMapTree({"a": PTHere, "c": PTHere})
        right = VarMapTree({"b": PTHere, "c": PTHere})
        merged = VarMapTree.merged(
            left, right, PTLeftOnly, PTRightOnly, PTBoth
        )
        assert isinstance(merged.get("a"), PTLeftOnly)
        assert isinstance(merged.get("b"), PTRightOnly)
        assert isinstance(merged.get("c"), PTBoth)

    def test_find_singleton(self):
        assert VarMapTree.singleton("z", PTHere).find_singleton() == "z"
        with pytest.raises(ValueError):
            VarMapTree.empty().find_singleton()
        with pytest.raises(ValueError):
            VarMapTree({"a": PTHere, "b": PTHere}).find_singleton()

    def test_to_list(self):
        m = VarMapTree({"a": PTHere, "b": PTHere})
        assert sorted(name for name, _ in m.to_list()) == ["a", "b"]


class TestHashedVarMapBasics:
    def test_empty(self):
        m = HashedVarMap.empty()
        assert len(m) == 0 and m.hash == 0

    def test_singleton_hash_is_entry_hash(self):
        m = HashedVarMap.singleton(C, "x", 123)
        assert m.hash == entry_hash(C, "x", 123)

    def test_remove_restores_xor(self):
        m = HashedVarMap.singleton(C, "x", 123)
        m.set(C, "y", 456)
        pos = m.remove(C, "y")
        assert pos == 456
        assert m.hash == entry_hash(C, "x", 123)

    def test_remove_missing(self):
        m = HashedVarMap.singleton(C, "x", 1)
        before = m.hash
        assert m.remove(C, "zz") is None
        assert m.hash == before

    def test_set_overwrites(self):
        m = HashedVarMap.empty()
        m.set(C, "x", 1)
        m.set(C, "x", 2)
        assert m.get("x") == 2
        assert m.hash == entry_hash(C, "x", 2)

    def test_order_insensitive_hash(self):
        a = HashedVarMap.empty()
        a.set(C, "x", 1)
        a.set(C, "y", 2)
        b = HashedVarMap.empty()
        b.set(C, "y", 2)
        b.set(C, "x", 1)
        assert a.hash == b.hash


@st.composite
def op_sequences(draw):
    """Random sequences of set/remove operations over a small key space."""
    n = draw(st.integers(1, 40))
    ops = []
    for _ in range(n):
        kind = draw(st.sampled_from(("set", "remove")))
        key = draw(st.sampled_from(("a", "b", "c", "d", "e")))
        value = draw(st.integers(0, 2**64 - 1))
        ops.append((kind, key, value))
    return ops


class TestXORInvariant:
    @given(op_sequences())
    def test_incremental_equals_recomputed(self, ops):
        m = HashedVarMap.empty()
        for kind, key, value in ops:
            if kind == "set":
                m.set(C, key, value)
            else:
                m.remove(C, key)
            assert m.hash == m.recomputed_hash(C)

    @given(op_sequences())
    def test_16bit_space_invariant(self, ops):
        c16 = HashCombiners(bits=16, seed=3)
        m = HashedVarMap.empty()
        for kind, key, value in ops:
            if kind == "set":
                m.set(c16, key, value & 0xFFFF)
            else:
                m.remove(c16, key)
        assert m.hash == m.recomputed_hash(c16)
        assert m.hash < (1 << 16)


class TestMapOpStats:
    def test_total(self):
        stats = MapOpStats(singleton=3, remove=2, merge_entries=5)
        assert stats.total == 10

    def test_default_zero(self):
        assert MapOpStats().total == 0
