"""Free-variable maps (Section 4.4), in both flavours.

* :class:`VarMapTree` -- the Step-1 reference flavour: a plain mapping
  from free-variable name to a materialised
  :class:`~repro.core.position_tree.PosTree`.  Operations copy, so every
  node of an expression can keep its own summary alive (the quadratic
  reference algorithm and ``rebuild`` need that).

* :class:`HashedVarMap` -- the Step-2 flavour (Section 5.2): maps names to
  position-tree *hash codes* and maintains the map hash incrementally as
  the **XOR of its entry hashes**, where an entry hash is
  ``hash(name, pos)``.  Because XOR is commutative, associative and
  self-inverse, insertion, removal and alteration each update the map
  hash in O(1) -- this is the paper's key trick, and Lemma 6.5/Theorem
  6.7 prove it costs nothing in collision strength.

The fast summariser merges the smaller map into the bigger one
*destructively* (each map is consumed exactly once on the way up the
tree), which is what makes the amortised Lemma 6.1 bound real.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from repro.core.combiners import HashCombiners
from repro.core.position_tree import PosTree, pt_join_hash

__all__ = [
    "VarMapTree",
    "HashedVarMap",
    "MapOpStats",
    "entry_hash",
    "merge_tagged",
]


# ---------------------------------------------------------------------------
# Step 1: materialised variable maps
# ---------------------------------------------------------------------------


class VarMapTree:
    """Reference variable map: free name -> position tree.

    Thin wrapper over a dict; mutating ops return *new* maps so that
    summaries of different nodes never alias.  This is deliberately the
    simple-but-quadratic flavour; see :class:`HashedVarMap` for the fast
    one.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Optional[dict[str, PosTree]] = None):
        self.entries = entries if entries is not None else {}

    # -- constructors -------------------------------------------------------

    @staticmethod
    def empty() -> "VarMapTree":
        return VarMapTree()

    @staticmethod
    def singleton(name: str, pos: PosTree) -> "VarMapTree":
        return VarMapTree({name: pos})

    # -- queries ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, name: str) -> bool:
        return name in self.entries

    def get(self, name: str) -> Optional[PosTree]:
        return self.entries.get(name)

    def to_list(self) -> list[tuple[str, PosTree]]:
        """``toListVM``: the entries as (name, postree) pairs."""
        return list(self.entries.items())

    def find_singleton(self) -> str:
        """``findSingletonVM``: the unique key of a one-entry map."""
        if len(self.entries) != 1:
            raise ValueError(
                f"expected a singleton variable map, got {len(self.entries)} entries"
            )
        return next(iter(self.entries))

    # -- functional updates --------------------------------------------------

    def removed(self, name: str) -> tuple["VarMapTree", Optional[PosTree]]:
        """``removeFromVM``: drop ``name``, returning its position tree."""
        if name not in self.entries:
            return self, None
        entries = dict(self.entries)
        pos = entries.pop(name)
        return VarMapTree(entries), pos

    def extended(self, name: str, pos: PosTree) -> "VarMapTree":
        """``extendVM``: add/overwrite one entry."""
        entries = dict(self.entries)
        entries[name] = pos
        return VarMapTree(entries)

    def altered(
        self, name: str, update: Callable[[Optional[PosTree]], PosTree]
    ) -> "VarMapTree":
        """``alterVM``: replace the entry at ``name`` via ``update``, which
        receives the old position tree or ``None``."""
        entries = dict(self.entries)
        entries[name] = update(entries.get(name))
        return VarMapTree(entries)

    def map_maybe(
        self, update: Callable[[PosTree], Optional[PosTree]]
    ) -> "VarMapTree":
        """``mapMaybeVM``: apply ``update`` everywhere, dropping Nones."""
        entries: dict[str, PosTree] = {}
        for name, pos in self.entries.items():
            new_pos = update(pos)
            if new_pos is not None:
                entries[name] = new_pos
        return VarMapTree(entries)

    @staticmethod
    def merged(
        left: "VarMapTree",
        right: "VarMapTree",
        left_only: Callable[[PosTree], PosTree],
        right_only: Callable[[PosTree], PosTree],
        both: Callable[[PosTree, PosTree], PosTree],
    ) -> "VarMapTree":
        """``mergeVM``: the naive two-sided merge of Section 4.6.

        Touches every entry of both maps, which is what makes the
        reference algorithm quadratic.
        """
        entries: dict[str, PosTree] = {}
        for name, pos in left.entries.items():
            other = right.entries.get(name)
            if other is None:
                entries[name] = left_only(pos)
            else:
                entries[name] = both(pos, other)
        for name, pos in right.entries.items():
            if name not in left.entries:
                entries[name] = right_only(pos)
        return VarMapTree(entries)

    def __repr__(self) -> str:  # pragma: no cover
        return f"VarMapTree({sorted(self.entries)})"


# ---------------------------------------------------------------------------
# Step 2: hashed variable maps with XOR-maintained hash
# ---------------------------------------------------------------------------


def entry_hash(combiners: HashCombiners, name: str, pos_hash: int) -> int:
    """``entryHash``: the strong hash of one (variable, position) entry.

    This is the *strong* combiner applied before the weak XOR aggregation;
    the strength of the pair hash is what Lemma 6.5 relies on.
    """
    return combiners.combine("entry", combiners.hash_name(name), pos_hash)


@dataclass
class MapOpStats:
    """Counters for the map operations bounded by Lemmas 6.1 and 6.2.

    ``merge_entries`` counts the per-entry work at App/Let nodes (the
    quantity Lemma 6.1 bounds by O(n log n)); ``singleton`` and ``remove``
    count the per-Var and per-binder operations of Lemma 6.2.
    """

    singleton: int = 0
    remove: int = 0
    merge_entries: int = 0

    @property
    def total(self) -> int:
        return self.singleton + self.remove + self.merge_entries


class HashedVarMap:
    """Variable map whose hash is the XOR of its entry hashes.

    Invariant: ``self.hash == XOR over entries of
    entry_hash(combiners, name, pos_hash)`` -- checked from scratch by
    :meth:`recomputed_hash` in the test-suite.
    """

    __slots__ = ("entries", "hash")

    def __init__(self, entries: Optional[dict[str, int]] = None, hash_value: int = 0):
        self.entries = entries if entries is not None else {}
        self.hash = hash_value

    # -- constructors -------------------------------------------------------

    @staticmethod
    def empty() -> "HashedVarMap":
        return HashedVarMap()

    @staticmethod
    def singleton(
        combiners: HashCombiners, name: str, pos_hash: int
    ) -> "HashedVarMap":
        return HashedVarMap({name: pos_hash}, entry_hash(combiners, name, pos_hash))

    # -- queries ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, name: str) -> bool:
        return name in self.entries

    def get(self, name: str) -> Optional[int]:
        return self.entries.get(name)

    def items(self) -> Iterator[tuple[str, int]]:
        return iter(self.entries.items())

    # -- destructive updates (O(1) hash maintenance) --------------------------

    def remove(self, combiners: HashCombiners, name: str) -> Optional[int]:
        """``removeFromVM``: drop ``name`` in place; return its pos hash.

        The map hash is fixed up by XORing the removed entry's hash back
        out: ``(a XOR b) XOR a == b``.
        """
        pos_hash = self.entries.pop(name, None)
        if pos_hash is not None:
            self.hash ^= entry_hash(combiners, name, pos_hash)
        return pos_hash

    def set(self, combiners: HashCombiners, name: str, pos_hash: int) -> None:
        """``alterVM`` specialised to "store this new position hash":
        XOR out the old entry (if any), XOR in the new one."""
        old = self.entries.get(name)
        if old is not None:
            self.hash ^= entry_hash(combiners, name, old)
        self.entries[name] = pos_hash
        self.hash ^= entry_hash(combiners, name, pos_hash)

    # -- validation -----------------------------------------------------------

    def recomputed_hash(self, combiners: HashCombiners) -> int:
        """Recompute the XOR aggregate from scratch (test oracle)."""
        acc = 0
        for name, pos_hash in self.entries.items():
            acc ^= entry_hash(combiners, name, pos_hash)
        return acc

    def __repr__(self) -> str:  # pragma: no cover
        return f"HashedVarMap(n={len(self.entries)}, hash=0x{self.hash:x})"


def merge_tagged(
    combiners: HashCombiners, big: HashedVarMap, small: HashedVarMap, tag: int
) -> HashedVarMap:
    """Fold ``small`` into ``big`` destructively with tagged joins.

    The Section 4.8 smaller-subtree merge in hashed form, shared by the
    batch summariser, the incremental hasher and the expression store --
    the bit-for-bit agreement of their hashes depends on there being
    exactly one copy of this recipe.  O(len(small)) map operations, each
    updating ``big``'s XOR hash in O(1); ``small`` is left untouched and
    ``big`` is returned.
    """
    big_entries = big.entries
    big_hash = big.hash
    for name, small_pos in small.entries.items():
        old_pos = big_entries.get(name)
        new_pos = pt_join_hash(combiners, tag, old_pos, small_pos)
        if old_pos is not None:
            big_hash ^= entry_hash(combiners, name, old_pos)
        big_entries[name] = new_pos
        big_hash ^= entry_hash(combiners, name, new_pos)
    big.hash = big_hash
    return big
