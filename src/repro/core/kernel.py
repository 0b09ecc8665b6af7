"""The one tree-summarising kernel behind every alpha-hashing fast path.

PR 3 left two near-identical copies of the hot type-dispatch loop --
:func:`repro.core.hashed.alpha_hash_all` and
``ExprStore._hash_tree`` -- that had to be kept bit-for-bit in sync by
hand.  This module hosts the single shared loop
(:func:`summarise_tree`) plus the pieces the arena kernel
(:mod:`repro.core.arena`) also consumes:

* :class:`MemoRecord` -- the cached hashed e-summary of one subtree
  object (previously private to the store);
* :func:`combine_chain` -- fixed-arity specialisations of
  :meth:`~repro.core.combiners.HashCombiners.combine` with the
  splitmix64 steps inlined, bit-identical to the generic method.

``summarise_tree`` is one loop with optional hooks instead of N copies:
``memo``/``store_stats`` give the resume-above-cached-roots behaviour of
the store's summary memo and of the incremental hasher's memo (Section
6.3: a replace re-summarises only the rebuilt spine above the records it
keeps), ``by_id``/``summaries``/``map_stats`` give the
:class:`~repro.core.hashed.AlphaHashes` outputs.  The per-node cost of
the disabled hooks is a handful of ``is not None`` checks -- cheap next
to the map work -- and in exchange there is exactly one place where the
merge order, the cache discipline and the combiner recipes live.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.combiners import _GOLDEN, _M0, _M1, _MASK64, HashCombiners
from repro.core.structure import (
    sapp_hash,
    slam_hash,
    slet_hash,
    slit_hash,
    top_hash,
)
from repro.core.varmap import HashedVarMap, entry_hash, merge_tagged
from repro.lang.expr import App, Expr, Lam, Let, Lit, Var

__all__ = ["MemoRecord", "summarise_tree", "combine_chain"]



class MemoRecord:
    """Cached hashed e-summary of one subtree object.

    ``node`` pins the expression object so its ``id()`` stays valid for
    as long as the record lives.  ``vm_entries``/``vm_hash`` are a frozen
    snapshot of the free-variable map, sufficient to resume hashing in
    any parent context (summaries are context-free, Section 3).
    """

    __slots__ = ("node", "s_hash", "vm_entries", "vm_hash", "top", "node_id")

    def __init__(
        self,
        node: Expr,
        s_hash: int,
        vm_entries: dict[str, int],
        vm_hash: int,
        top: int,
    ):
        self.node = node
        self.s_hash = s_hash
        self.vm_entries = vm_entries
        self.vm_hash = vm_hash
        self.top = top
        self.node_id: Optional[int] = None


def combine_chain(
    combiners: HashCombiners, salt_name: str, arity: int
) -> Callable[..., int]:
    """A fixed-arity specialisation of ``combiners.combine(salt_name, ...)``.

    For the single-lane family (``bits <= 64``) the returned closure
    inlines the splitmix64 absorb steps -- no ``*values`` unpacking, no
    salt-table lookup, no method call -- which is where the arena
    kernel's per-node win over the generic combiner comes from.  The
    inlined arithmetic is the same as
    :meth:`HashCombiners.combine`'s single-lane path, so the outputs are
    bit-identical (the arena differential wall checks this at several
    widths).  Multi-lane families (``bits > 64``) fall back to the
    generic method.
    """
    if combiners._lanes != 1:
        if arity == 2:
            return lambda a, b: combiners.combine(salt_name, a, b)
        if arity == 3:
            return lambda a, b, c: combiners.combine(salt_name, a, b, c)
        if arity == 4:
            return lambda a, b, c, d: combiners.combine(salt_name, a, b, c, d)
        return lambda *values: combiners.combine(salt_name, *values)

    seed = combiners._salts[salt_name][0]
    mask = combiners.mask

    if arity == 2:

        def chain2(a: int, b: int) -> int:
            x = ((seed ^ a) + _GOLDEN) & _MASK64
            x = ((x ^ (x >> 30)) * _M0) & _MASK64
            x = ((x ^ (x >> 27)) * _M1) & _MASK64
            h = x ^ (x >> 31)
            x = ((h ^ b) + _GOLDEN) & _MASK64
            x = ((x ^ (x >> 30)) * _M0) & _MASK64
            x = ((x ^ (x >> 27)) * _M1) & _MASK64
            return (x ^ (x >> 31)) & mask

        return chain2

    if arity == 3:

        def chain3(a: int, b: int, c: int) -> int:
            x = ((seed ^ a) + _GOLDEN) & _MASK64
            x = ((x ^ (x >> 30)) * _M0) & _MASK64
            x = ((x ^ (x >> 27)) * _M1) & _MASK64
            h = x ^ (x >> 31)
            x = ((h ^ b) + _GOLDEN) & _MASK64
            x = ((x ^ (x >> 30)) * _M0) & _MASK64
            x = ((x ^ (x >> 27)) * _M1) & _MASK64
            h = x ^ (x >> 31)
            x = ((h ^ c) + _GOLDEN) & _MASK64
            x = ((x ^ (x >> 30)) * _M0) & _MASK64
            x = ((x ^ (x >> 27)) * _M1) & _MASK64
            return (x ^ (x >> 31)) & mask

        return chain3

    if arity == 4:

        def chain4(a: int, b: int, c: int, d: int) -> int:
            h = seed
            for v in (a, b, c, d):
                x = ((h ^ v) + _GOLDEN) & _MASK64
                x = ((x ^ (x >> 30)) * _M0) & _MASK64
                x = ((x ^ (x >> 27)) * _M1) & _MASK64
                h = x ^ (x >> 31)
            return h & mask

        return chain4

    def chain_n(*values: int) -> int:
        h = seed
        for v in values:
            x = ((h ^ v) + _GOLDEN) & _MASK64
            x = ((x ^ (x >> 30)) * _M0) & _MASK64
            x = ((x ^ (x >> 27)) * _M1) & _MASK64
            h = x ^ (x >> 31)
        return h & mask

    return chain_n


def summarise_tree(
    expr: Expr,
    combiners: HashCombiners,
    *,
    here: int,
    svar: int,
    var_entry_cache: dict[str, int],
    lit_cache: dict[tuple, int],
    memo: Optional[dict[int, MemoRecord]] = None,
    store_stats=None,
    by_id: Optional[dict[int, int]] = None,
    summaries: Optional[dict] = None,
    map_stats=None,
) -> tuple[int, HashedVarMap]:
    """Summarise ``expr`` bottom-up; the one shared hot loop.

    Dispatches on ``type(node) is ...`` (the node kinds are final) and
    pushes children by attribute, avoiding one method call and one tuple
    allocation per node.  Each ``results`` entry is ``(s_hash, varmap)``
    with the varmap owned by this call -- parents consume child maps
    destructively, which is what makes the amortised Lemma 6.1 bound
    real.

    Hooks (all optional; a disabled hook costs one ``is not None`` test
    per node):

    ``memo`` + ``store_stats``
        The memo flavour (the store's, the incremental hasher's): resume
        above cached subtree roots, snapshot every fresh node's summary
        into ``memo`` as a :class:`MemoRecord`, and count
        ``memo_hits``/``memo_skipped_nodes``/``hashed_nodes``.
    ``by_id`` / ``summaries``
        The :func:`~repro.core.hashed.alpha_hash_all` flavour: record
        every node's top hash (and optionally its
        :class:`~repro.core.hashed.NodeSummary`).
    ``map_stats``
        A :class:`~repro.core.varmap.MapOpStats` receiving the
        operation counts bounded by Lemmas 6.1/6.2.

    Returns the root's ``(s_hash, varmap)``; when ``memo`` is given the
    root's record is ``memo[id(expr)]``.
    """
    from repro.core.hashed import NodeSummary, lit_cache_key

    count_ops = map_stats is not None

    results: list[tuple[int, HashedVarMap]] = []
    stack: list[tuple[Expr, bool]] = [(expr, False)]
    push = stack.append
    while stack:
        node, visited = stack.pop()
        cls = type(node)
        if not visited:
            if memo is not None:
                rec = memo.get(id(node))
                if rec is not None:
                    store_stats.memo_hits += 1
                    store_stats.memo_skipped_nodes += node.size
                    results.append(
                        (rec.s_hash, HashedVarMap(dict(rec.vm_entries), rec.vm_hash))
                    )
                    continue
            if cls is Var or cls is Lit:
                pass  # leaves fall through to the summarise phase
            elif cls is Lam:
                push((node, True))
                push((node.body, False))
                continue
            elif cls is App:
                push((node, True))
                push((node.arg, False))
                push((node.fn, False))
                continue
            elif cls is Let:
                push((node, True))
                push((node.body, False))
                push((node.bound, False))
                continue
            else:  # pragma: no cover
                raise TypeError(f"unknown node kind {node.kind}")

        if cls is Var:
            s_hash = svar
            name = node.name
            cached = var_entry_cache.get(name)
            if cached is None:
                cached = entry_hash(combiners, name, here)
                var_entry_cache[name] = cached
            varmap = HashedVarMap({name: here}, cached)
            if count_ops:
                map_stats.singleton += 1
        elif cls is Lit:
            value = node.value
            lit_key = lit_cache_key(value)
            s_hash = lit_cache.get(lit_key)
            if s_hash is None:
                s_hash = slit_hash(combiners, value)
                lit_cache[lit_key] = s_hash
            varmap = HashedVarMap.empty()
        elif cls is Lam:
            s_body, varmap = results.pop()
            pos = varmap.remove(combiners, node.binder)
            if count_ops:
                map_stats.remove += 1
            s_hash = slam_hash(combiners, node.size, pos, s_body)
        elif cls is App:
            s_arg, vm_arg = results.pop()
            s_fn, vm_fn = results.pop()
            left_bigger = len(vm_fn.entries) >= len(vm_arg.entries)
            s_hash = sapp_hash(combiners, node.size, left_bigger, s_fn, s_arg)
            big, small = (vm_fn, vm_arg) if left_bigger else (vm_arg, vm_fn)
            if count_ops:
                map_stats.merge_entries += len(small)
            varmap = merge_tagged(combiners, big, small, node.size)
        else:  # cls is Let (the scheduling phase rejected everything else)
            s_body, vm_body = results.pop()
            s_bound, vm_bound = results.pop()
            pos_x = vm_body.remove(combiners, node.binder)
            if count_ops:
                map_stats.remove += 1
            left_bigger = len(vm_bound.entries) >= len(vm_body.entries)
            s_hash = slet_hash(
                combiners, node.size, pos_x, left_bigger, s_bound, s_body
            )
            big, small = (vm_bound, vm_body) if left_bigger else (vm_body, vm_bound)
            if count_ops:
                map_stats.merge_entries += len(small)
            varmap = merge_tagged(combiners, big, small, node.size)

        top = top_hash(combiners, s_hash, varmap.hash)
        if by_id is not None:
            by_id[id(node)] = top
        if summaries is not None:
            summaries[id(node)] = NodeSummary(
                s_hash, varmap.hash, len(varmap), top
            )
        if memo is not None:
            memo[id(node)] = MemoRecord(
                node, s_hash, dict(varmap.entries), varmap.hash, top
            )
            store_stats.hashed_nodes += 1
        results.append((s_hash, varmap))

    assert len(results) == 1
    return results[0]
