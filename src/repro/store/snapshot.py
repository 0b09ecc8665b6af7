"""Versioned on-disk snapshots of an :class:`~repro.store.ExprStore`.

A snapshot makes a corpus interned once reusable across processes: the
intern table (canonical entries, child links, LRU recency) and the
summary memo of every canonical tree are written to a JSON-lines file
and restored bit-identically.  Re-hashing the same corpus in another
process yields the same root hashes and lands on the existing classes
without growing the store.  Note the memo is keyed by Python object
identity, so freshly *re-parsed* trees are still summarised once before
their intern lookups hit; only the restored canonical representatives
themselves (``expr_of``) hash as pure memo hits.

File layout (one JSON document per line)::

    {"format": "repro-store-snapshot-v1", "bits": 64, "seed": ..,
     "max_entries": null, "memo_limit": null, "next_id": N,
     "entries": K, "stats": {..}, "meta": {..},
     "checksum": "sha256:<hex of the body bytes>"}
    {"i": 0, "h": .., "k": "Var", "z": 1, "c": [], "p": "x",
     "s": .., "v": .., "m": {"x": ..}}
    ... one line per canonical entry, in LRU order (oldest first) ...

Per entry: ``i`` node id, ``h`` alpha-hash, ``k`` kind, ``z`` size,
``c`` child node ids, ``p`` the node payload (variable name, binder, or
``["<tag>", value]`` for literals), and the memoised summary (``s``
structure hash, ``v`` variable-map hash, ``m`` name -> position-hash
entries).  Children always intern before parents, so child ids are
strictly smaller than their parent's and ascending-id order is a valid
rebuild order; the *file* order is LRU order so recency survives the
round-trip.  The header checksum is over the exact body bytes --
truncation or tampering fails loudly as :class:`SnapshotError`.

The snapshot encoders read the intern table's columns (one record tuple
per class written, no entry view).  Summaries come from each canonical
tree's memo record (tree interns seed one), or, for the classes without
one (arena interns leave the memo cold and store no tree), from one
scalar arena pass over their canonical trees, built for that pass only;
each record is then formatted straight to bytes.  Encoding only reads
the table, the memo and the stats, so snapshots and deltas leave all
three as they were.  The loaders
type-check every record (ints for ``i``/``h``/``z``/``t``/``s``/``v``,
a str -> int map for ``m``) before the first write.

Deltas (``repro-store-delta-v2``)
---------------------------------

A delta ships the live classes created after a version stamp ``since``
(:func:`delta_to_bytes`); it is what journal frames hold and what
``/v1/snapshot/delta`` serves.  One JSON header line, then one
little-endian column per field, each ``rows`` long, rows in version
order::

    {"format": "repro-store-delta-v2", "bits": 64, "seed": ..,
     "since": S, "version": V, "rows": N, "num_shards": null,
     "names": [..], "literals": [[tag, value], ..], "meta": {..},
     "checksum": "sha256:<hex of the body bytes>"}
    id       N x int64
    hash     N x uint64 (up to 64 bits), or N x 2 x uint64 (low word first)
    version  N x int64
    size     N x int64
    kind     N x uint8   (the arena's OP_VAR..OP_LET)
    first    N x int64   (first child id, -1 when absent)
    second   N x int64   (second child id, -1 when absent)
    label    N x int64   (a names index for Var/Lam/Let, a literals
                          index for Lit, -1 for App)

``names`` and ``literals`` are the arena body's tables
(:mod:`repro.core.columns`).  ``num_shards`` is always ``null``; a frame
where it is not came from an in-process sharded store, which this
package no longer has, and its shard-encoded ids mean nothing here.  A
delta carries no summaries: the paper's e-summaries are compositional
and the hash is a function of them, so the receiver recomputes both.
The sender only reads the table's id log into columns -- no memo
record, tree or summary pass.

:func:`apply_delta_bytes` refuses a frame whole, before the first write,
when the header is not a JSON object with the tag; a count is not a
non-negative ``int``; ``bits`` or ``seed`` differ from the store's,
``num_shards`` is not ``null``, or ``since`` is ahead of it; the body
length or checksum is wrong; a kind is outside 0-4, a label index is
out of range for its kind, or a row's children do not match its kind;
an id is negative or repeats; a version is outside ``(since,
version]``; a child id names neither a row nor a live class; a size is
not 1 plus its children's sizes; or an id is live with other content.  It then skips the rows the
store holds, rebuilds the others' canonical trees (a live child reuses
the store's tree), runs one arena pass for every new row's ``(s, v, m)``
and hash, refuses the frame if a hash differs from the hash column --
two terms that are not alpha-equivalent are never merged on trust --
and installs the rows children first, each with its recomputed memo
record, so restored canonical trees hash as pure memo hits.

Legacy ``repro-store-delta-v1`` frames (the snapshot's JSON-lines
records with ``t`` stamps, under a header with ``entries``) still load:
their rows take the same checks, and each record's ``s``, ``v`` and
``m`` must equal the recomputed ones.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields
from itertools import count
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Optional

from repro.core.arena import (
    OP_APP,
    OP_KINDS,
    OP_LET,
    OP_LIT,
    OP_OF_KIND,
    _arena_pass,
    arena_summaries,
    flatten_corpus,
)
from repro.core.columns import check_literals, check_names, column_bytes, read_column
from repro.core.combiners import HashCombiners
from repro.core.hashed import lit_cache_key
from repro.core.kernel import MemoRecord
from repro.lang.expr import Expr

if TYPE_CHECKING:  # pragma: no cover
    from repro.store.store import ExprStore

__all__ = [
    "SnapshotError",
    "write_snapshot",
    "read_snapshot",
    "snapshot_to_bytes",
    "snapshot_from_bytes",
    "delta_to_bytes",
    "apply_delta_bytes",
    "content_checksum",
    "SNAPSHOT_FORMAT",
    "DELTA_FORMAT",
    "DELTA_V1_FORMAT",
]

SNAPSHOT_FORMAT = "repro-store-snapshot-v1"
DELTA_FORMAT = "repro-store-delta-v2"
#: The legacy delta layout: still read, no longer written.
DELTA_V1_FORMAT = "repro-store-delta-v1"

#: The child count of each of the arena's ``OP_*`` codes.
_ARITY = (0, 0, 1, 2, 2)

#: A delta-v2 body's columns in order (``array`` typecodes; ``"Q"`` is
#: the hash, one or two words a row), and the bytes of a row but for
#: its hash words.
_V2_COLUMNS = ("q", "Q", "q", "q", "B", "q", "q", "q")
_ROW_BYTES = 6 * 8 + 1
_WORD = (1 << 64) - 1

_LIT_TAGS = {"int": int, "float": float, "bool": bool, "str": str}


class SnapshotError(ValueError):
    """Raised when a snapshot file is malformed, truncated or tampered."""


def _checksum(body: bytes) -> str:
    return "sha256:" + hashlib.sha256(body).hexdigest()


def _stats_dict(stats) -> dict:
    return {f.name: getattr(stats, f.name) for f in fields(stats)}


def _lit_payload(value: Any) -> list:
    if isinstance(value, bool):  # bool first: bool subclasses int
        return ["bool", value]
    if isinstance(value, int):
        return ["int", value]
    if isinstance(value, float):
        return ["float", value]
    if isinstance(value, str):
        return ["str", value]
    raise SnapshotError(f"cannot snapshot literal {value!r}")


def _decode_lit(payload: Any):
    """The literal value a ``["<tag>", value]`` payload carries."""
    if (
        not isinstance(payload, list)
        or len(payload) != 2
        or payload[0] not in _LIT_TAGS
    ):
        raise SnapshotError(f"malformed literal payload {payload!r}")
    tag, value = payload
    expected = _LIT_TAGS[tag]
    if expected is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)  # JSON may render 1.0 as 1
    if not isinstance(value, expected) or (
        expected is int and isinstance(value, bool)
    ):
        raise SnapshotError(f"literal value/tag mismatch {payload!r}")
    return value


def _payload(kind: str, label: Any) -> Any:
    """The ``p`` field of one entry record, from its label column."""
    return _lit_payload(label) if kind == "Lit" else label


def _summaries(store: "ExprStore", records: list) -> list[tuple]:
    """Each record's hashed e-summary ``(s, v, m)``: structure hash,
    free-variable-map hash and name -> position-hash map.

    ``records`` are :meth:`~repro.store.store.InternTable.records` rows.
    A canonical tree's memo record as is; the classes without one (arena
    interns, flushes, prunes) have their canonical trees flattened into
    one arena and summarised by one scalar pass
    (:func:`~repro.core.arena.arena_summaries`).  Trees the table lacks
    are built for that flatten only and dropped with the arena
    (:meth:`~repro.store.ExprStore._build_trees`).  Summaries are
    context-free (Section 3), so the two sources agree bit for bit.  The
    table, the memo and the stats are only read.
    """
    memo_get = store._memo.get
    summaries: list = []
    for rec in records:
        memo_rec = None if rec[7] is None else memo_get(id(rec[7]))
        summaries.append(
            None
            if memo_rec is None
            else (memo_rec.s_hash, memo_rec.vm_hash, memo_rec.vm_entries)
        )
    cold = [index for index, summary in enumerate(summaries) if summary is None]
    if cold:
        trees = store._build_trees([records[index][0] for index in cold], keep=False)
        arena, roots = flatten_corpus(trees)
        del trees
        computed = arena_summaries(arena, roots, store.combiners)
        for index, summary in zip(cold, computed):
            summaries[index] = summary
    return summaries


def _encode_entries(records: list, summaries: list) -> bytes:
    """JSON-lines encode one run of entry records, each straight from
    its table record ``(node_id, hash, kind, size, kids, label, version,
    tree)`` and its summary ``(s, v, m)``.

    Each line is the one ``json.dumps(record, separators=(",", ":"),
    sort_keys=True)`` writes: keys and map entries in sorted order, ints
    as ``str`` writes them, names through :mod:`json`'s own ASCII
    escaper, literal payloads through ``json.dumps`` itself.
    """
    quoted: dict[str, str] = {}
    lines = []
    for record, (s_hash, vm_hash, vm_entries) in zip(records, summaries):
        node_id, top, kind, size, kids, label, version, _tree = record
        parts = []
        for name, pos in sorted(vm_entries.items()):
            text = quoted.get(name)
            if text is None:
                quoted[name] = text = encode_basestring_ascii(name)
            parts.append(f"{text}:{pos}")
        if kind == "App":
            payload = "null"
        elif kind == "Lit":
            payload = json.dumps(
                _lit_payload(label), separators=(",", ":"), sort_keys=True
            )
        else:
            payload = quoted.get(label)
            if payload is None:
                quoted[label] = payload = encode_basestring_ascii(label)
        lines.append(
            f'{{"c":[{",".join(map(str, kids))}],'
            f'"h":{top},"i":{node_id},"k":"{kind}",'
            f'"m":{{{",".join(parts)}}},"p":{payload},"s":{s_hash},'
            f'"t":{version},"v":{vm_hash},"z":{size}}}\n'
        )
    return "".join(lines).encode("utf-8")


def snapshot_to_bytes(store: "ExprStore", meta: Optional[dict] = None) -> bytes:
    """Serialise ``store`` to the snapshot wire format, in memory.

    Exactly the bytes :func:`write_snapshot` would put on disk (header
    line + body).  Used by the :mod:`repro.service` endpoints to ship
    stores between machines without touching the
    filesystem -- the JSON-lines encoding is iteration-only, so
    arbitrarily deep expressions serialise without recursion (unlike
    pickling the trees).

    ``meta`` is an arbitrary JSON-compatible dict stored in the header
    (the Session facade records its backend name there).

    Each entry's summary is its canonical tree's memo record, or comes
    from the one arena pass over the entries without one (see the
    module docstring).  The table, the memo and the stats are only
    read, so the store is left observably unchanged.
    """
    records = store._records()  # LRU order, oldest first
    body = _encode_entries(records, _summaries(store, records))

    header = {
        "format": SNAPSHOT_FORMAT,
        "bits": store.combiners.bits,
        "seed": store.combiners.seed,
        "max_entries": store.max_entries,
        "memo_limit": store.memo_limit,
        "next_id": store._table.next_id,
        "version": store.version,
        "entries": len(records),
        "stats": _stats_dict(store.stats),
        "meta": meta or {},
        "checksum": _checksum(body),
    }
    header_bytes = json.dumps(
        header, separators=(",", ":"), sort_keys=True
    ).encode("utf-8")
    return header_bytes + b"\n" + body


def content_checksum(store: "ExprStore") -> str:
    """A canonical fingerprint of the store's *content*, order-free.

    Two stores hold the same classes with the same ids, hashes, shapes
    and version stamps iff their checksums match -- regardless of LRU
    recency, stats counters or memo warmth, none of which survive a
    crash anyway.  This is the equality a journal-recovered store is
    gated on: ``content_checksum(recovered) ==
    content_checksum(pre_crash)``.  Exposed over HTTP as
    ``GET /v1/health?checksum=1``.  Reads the table's columns; builds no
    entry view and no tree.
    """
    digest = hashlib.sha256()
    records = sorted(store._records(), key=itemgetter(0))
    for node_id, top, kind, size, kids, label, version, _tree in records:
        record = [node_id, top, kind, size, list(kids), _payload(kind, label), version]
        digest.update(
            json.dumps(
                record, separators=(",", ":"), sort_keys=True
            ).encode("utf-8")
        )
        digest.update(b"\n")
    return f"sha256:{digest.hexdigest()}"


def write_snapshot(
    store: "ExprStore", path: str, meta: Optional[dict] = None
) -> None:
    """Write ``store`` to ``path`` (see module docstring for the format).

    A thin file wrapper over :func:`snapshot_to_bytes`.
    """
    data = snapshot_to_bytes(store, meta)
    with open(path, "wb") as handle:
        handle.write(data)


def snapshot_from_bytes(data: bytes) -> tuple["ExprStore", dict]:
    """Rebuild a store from :func:`snapshot_to_bytes` output; return
    ``(store, header)``.

    The restored store matches the saved one bit-identically: intern
    table, node ids, LRU recency, memo records of every canonical tree,
    and the saved stats counters all survive.  Hashing a restored
    canonical representative is a pure memo hit; a re-parsed copy of a
    saved expression is summarised once (the memo is per-object) and
    then resolves to its existing class.  A document with any other
    format tag, ``repro-store-snapshot-v2-sharded`` included, is refused
    with :class:`SnapshotError`.
    """
    newline = data.find(b"\n")
    if newline < 0:
        header_line, body = data, b""
    else:
        header_line, body = data[:newline], data[newline + 1 :]
    try:
        header = json.loads(header_line)
    except json.JSONDecodeError as exc:
        raise SnapshotError(f"unreadable snapshot header: {exc}") from None
    fmt = header.get("format") if isinstance(header, dict) else None
    if fmt != SNAPSHOT_FORMAT:
        raise SnapshotError(f"not a {SNAPSHOT_FORMAT} file: {header_line[:80]!r}")
    if header.get("checksum") != _checksum(body):
        raise SnapshotError("snapshot body does not match header checksum")
    missing_fields = [
        key
        for key in ("bits", "seed", "next_id", "entries")
        if key not in header
    ]
    if missing_fields:
        raise SnapshotError(
            f"snapshot header is missing required field(s): {missing_fields}"
        )

    records = _parse_records(body, header.get("entries"))

    from repro.store.store import ExprStore

    store = ExprStore(
        HashCombiners(bits=header["bits"], seed=header["seed"]),
        max_entries=header.get("max_entries"),
        memo_limit=header.get("memo_limit"),
    )

    # Schema breaches that slip past the checksum (buggy writer,
    # hand-edited file with a recomputed checksum) must still fail as
    # SnapshotError, not leak a bare KeyError/TypeError from the rebuild.
    try:
        _restore_records(store, records, _build_exprs(records))
        _restore_recency(store, records)
        store._restore_counters(header.get("stats", {}), header["next_id"])
    except SnapshotError:
        raise
    except (KeyError, IndexError, TypeError, AttributeError) as exc:
        raise SnapshotError(
            f"malformed snapshot entry: {exc!r}"
        ) from exc
    store.version = max(store.version, header.get("version", 0))
    return store, header


def _parse_records(body: bytes, expected: Any) -> list[dict]:
    records = []
    for line in body.splitlines():
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise SnapshotError(f"unreadable snapshot entry: {exc}") from None
    if len(records) != expected:
        raise SnapshotError(
            f"snapshot holds {len(records)} entries, header says {expected}"
        )
    return records


def _build_exprs(records: list[dict]) -> dict[int, Expr]:
    """Rebuild every record's canonical tree, bottom-up.

    Ascending *size* order (ties broken by id for determinism) is valid:
    every child is strictly smaller than its parent.
    A document naming one id twice is refused here, before any loader
    writes to a store.
    """
    from repro.store.store import canonical_node

    exprs: dict[int, Expr] = {}

    def _kid(c: int) -> Expr:
        node = exprs.get(c)
        if node is None:
            raise SnapshotError(
                f"malformed snapshot entry: references unknown child id "
                f"{c} (not in this document)"
            )
        return node

    for rec in sorted(records, key=lambda r: (r["z"], r["i"])):
        kind, payload = rec["k"], rec["p"]
        if rec["i"] in exprs:
            raise SnapshotError(f"entry id {rec['i']} appears twice")
        if kind not in OP_OF_KIND:
            raise SnapshotError(f"unknown entry kind {kind!r}")
        label = _decode_lit(payload) if kind == "Lit" else payload
        exprs[rec["i"]] = canonical_node(kind, label, [_kid(c) for c in rec["c"]])
    return exprs


def _check_record_types(rec: dict) -> None:
    """Refuse a record whose ``i``, ``h``, ``z``, ``t``, ``s`` or ``v``
    is not an int (bools excluded; ``t`` may be absent) or whose ``m``
    is not an object mapping str to int: such a record would load, then
    fail far from the document or leave a memo record of the wrong
    types."""
    for key in ("i", "h", "z", "t", "s", "v"):
        value = rec.get(key, 0 if key == "t" else None)
        if type(value) is not int:
            raise SnapshotError(
                f"malformed snapshot entry: {key!r} is not an integer: "
                f"{value!r}"
            )
    vm_entries = rec.get("m")
    if not isinstance(vm_entries, dict) or not all(
        type(name) is str and type(pos) is int
        for name, pos in vm_entries.items()
    ):
        raise SnapshotError(
            f"malformed snapshot entry: 'm' is not a map of names to "
            f"integers: {vm_entries!r}"
        )


def _restore_records(store: "ExprStore", records: list[dict], exprs) -> int:
    """Restore every record into ``store`` through its restore step,
    children before parents; return how many were installed (the rest
    were live already).  Every record's fields are type-checked before
    the first write (:func:`_check_record_types`), so a malformed one
    leaves the store untouched."""
    ordered = sorted(records, key=lambda r: (r["z"], r["i"]))
    for rec in ordered:
        _check_record_types(rec)
    installed = 0
    for rec in ordered:
        summary = MemoRecord(
            exprs[rec["i"]], rec["s"], dict(rec["m"]), rec["v"], rec["h"]
        )
        installed += store._restore(
            rec["i"], rec["k"], rec["z"], tuple(rec["c"]), rec.get("t", 0), summary
        )
    return installed


def _restore_recency(store: "ExprStore", records: list[dict]) -> None:
    """Touch every record's id in file order, which is LRU order: the
    restored recency.  The hits this counts are replaced by the saved
    counters (:meth:`~repro.store.ExprStore._restore_counters`)."""
    for rec in records:
        store._hit_by_id(rec["i"])


def read_snapshot(path: str) -> tuple["ExprStore", dict]:
    """Rebuild a store saved with :func:`write_snapshot`; return
    ``(store, header)``.  A thin file wrapper over
    :func:`snapshot_from_bytes`."""
    with open(path, "rb") as handle:
        data = handle.read()
    return snapshot_from_bytes(data)


# -- incremental snapshot deltas -----------------------------------------------
#
# A delta ships the live classes created after a version stamp ``since``
# (each class's ``version`` is its creation stamp), in version order,
# with the ``(since, version]`` window in its header.  The module
# docstring gives the v2 layout and the receiver's checks.
#
# Deltas assume a shared id space: the receiver started from a full
# snapshot of the same store (snapshots preserve node ids), so child ids that predate ``since`` resolve
# against the receiver's own table.  That makes replica catch-up O(new
# entries) instead of O(store) -- the whole point.  Application is
# idempotent: entries the receiver already holds are verified (same
# hash/kind/size) and skipped, so overlapping deltas are safe to
# replay.  Deltas carry no evictions, so a replica can hold a class the
# primary evicted and later re-created under a new id: both ids stay
# live, the newest id takes the hash mapping, and evicting the stale
# one leaves that mapping alone.


def _hash_words(bits: int) -> int:
    """uint64 words per hash in a delta-v2 body."""
    return 1 if bits <= 64 else 2


def _lit_index(literals: dict, values: list, value: Any) -> int:
    """``value``'s index in a frame's literal table, added if new; keyed
    like the kernels' literal caches, so ``1``, ``1.0``, ``True`` and
    ``-0.0``/``0.0`` stay apart."""
    key = lit_cache_key(value)
    index = literals.get(key)
    if index is None:
        index = literals[key] = len(values)
        values.append(value)
    return index


def delta_to_bytes(
    store: "ExprStore", since: int, meta: Optional[dict] = None
) -> bytes:
    """Serialise the live classes created after version ``since`` as a
    ``repro-store-delta-v2`` frame (see the module docstring).

    ``since`` is a version stamp previously observed on this store (a
    replica's ``store.version`` after loading a full snapshot or an
    earlier delta); ``since == store.version`` yields a valid empty
    delta.  A ``since`` ahead of the store's version is a protocol
    breach (the caller tracked a *different* store) and raises
    :class:`SnapshotError`.

    Classes created after ``since`` and evicted again before this call
    are simply absent -- the receiver never needed them.  Children of
    every shipped class are guaranteed resolvable on a receiver at
    version >= ``since``: a child either rides in the delta (fresh) or
    was live at ``since`` (pinned by its parent's refcount ever since),
    hence present in the receiver's baseline.

    The window is the table's id log past ``since``
    (:meth:`~repro.store.store.InternTable.window`), its rows read out of
    the table's columns one comprehension each, the child columns as
    they are: no memo record is read, no tree is built and no summary is
    computed -- the receiver recomputes those.  The table, the memo and
    the stats are only read.
    """
    if since < 0 or since > store.version:
        raise SnapshotError(
            f"delta since={since} is outside this store's history "
            f"(version {store.version})"
        )
    table = store._table
    window = table.window(since)
    rows = [row for _id, row in window]

    def column(values) -> list:
        return [values[row] for row in rows]

    ops = column(table.ops)
    names: dict[str, int] = {}
    literals: dict[tuple, int] = {}
    lit_values: list = []
    labels = [
        -1 if op == OP_APP
        else _lit_index(literals, lit_values, label) if op == OP_LIT
        else names.setdefault(label, len(names))
        for op, label in zip(ops, column(table.labels))
    ]
    bits = store.combiners.bits
    tops = column(table.hashes)
    if _hash_words(bits) == 2:
        tops = [word for top in tops for word in (top & _WORD, top >> 64)]
    body = b"".join(
        (
            column_bytes("q", [node_id for node_id, _row in window]),
            column_bytes("Q", tops),
            column_bytes("q", column(table.versions)),
            column_bytes("q", column(table.sizes)),
            bytes(ops),
            column_bytes("q", column(table.lefts)),
            column_bytes("q", column(table.rights)),
            column_bytes("q", labels),
        )
    )
    header = {
        "format": DELTA_FORMAT,
        "bits": bits,
        "seed": store.combiners.seed,
        "since": since,
        "version": store.version,
        "num_shards": None,
        "rows": len(rows),
        "names": list(names),
        "literals": [_lit_payload(value) for value in lit_values],
        "meta": meta or {},
        "checksum": _checksum(body),
    }
    header_bytes = json.dumps(
        header, separators=(",", ":"), sort_keys=True
    ).encode("utf-8")
    return header_bytes + b"\n" + body


def apply_delta_bytes(store: "ExprStore", data: bytes) -> dict:
    """Apply a delta frame to ``store``; return ``{"applied": ..,
    "skipped": .., "version": ..}``.

    Reads ``repro-store-delta-v2`` (what :func:`delta_to_bytes` writes)
    and the legacy ``repro-store-delta-v1``.  ``store`` must share the
    delta's combiner family and id space (it was restored from a
    snapshot of the emitting store), and must
    have reached the delta's ``since`` stamp -- a gap means missing
    classes and fails loudly.  Classes the store already holds are
    verified and skipped (idempotent replay).  Every other class's
    summary and hash are recomputed by one arena pass, and a hash that
    differs from the frame's refuses the frame (see the module
    docstring for every check).  A refused frame raises
    :class:`SnapshotError` before the first write, so the store is left
    untouched.
    """
    newline = data.find(b"\n")
    if newline < 0:
        header_line, body = data, b""
    else:
        header_line, body = data[:newline], data[newline + 1 :]
    try:
        header = json.loads(header_line)
    except (ValueError, RecursionError) as exc:
        raise SnapshotError(f"unreadable delta header: {exc}") from None
    fmt = header.get("format") if isinstance(header, dict) else None
    if fmt not in (DELTA_FORMAT, DELTA_V1_FORMAT):
        raise SnapshotError(
            f"not a {DELTA_FORMAT} / {DELTA_V1_FORMAT} document: "
            f"{header_line[:80]!r}"
        )
    since, version = _check_delta_header(store, header, fmt)
    if fmt == DELTA_FORMAT:
        rows, claimed = _decode_v2(header, body, store.combiners.bits), None
    else:
        rows, claimed = _decode_v1(header, body)

    if since > store.version:
        raise SnapshotError(
            f"delta starts at version {since} but the store "
            f"is at {store.version}: entries are missing in between -- "
            "catch up with an older delta or a full snapshot"
        )
    applied = _apply_rows(store, since, version, rows, claimed)
    store.version = max(store.version, version)
    return {
        "applied": applied,
        "skipped": len(rows[0]) - applied,
        "version": store.version,
    }


def _check_delta_header(store: "ExprStore", header: dict, fmt: str) -> tuple:
    """Refuse a header whose counts are not non-negative ints, whose
    combiner family differs from ``store``'s or whose ``num_shards`` is
    not ``null``; return ``(since, version)``."""
    count_key = "rows" if fmt == DELTA_FORMAT else "entries"
    for key in ("bits", "seed", "since", "version", count_key):
        value = header.get(key)
        if type(value) is not int or value < 0:
            raise SnapshotError(
                f"delta header field {key!r} must be a non-negative "
                f"integer, got {value!r}"
            )
    if (
        header["bits"] != store.combiners.bits
        or header["seed"] != store.combiners.seed
    ):
        raise SnapshotError(
            f"delta combiner family (bits={header['bits']}, "
            f"seed={header['seed']}) disagrees with the store's "
            f"(bits={store.combiners.bits}, seed={store.combiners.seed})"
        )
    num_shards = header.get("num_shards")
    if num_shards is not None:
        raise SnapshotError(
            f"delta from a sharded store (num_shards={num_shards!r}): its "
            "shard-encoded ids mean nothing to this store"
        )
    return header["since"], header["version"]


def _decode_v2(header: dict, body: bytes, bits: int) -> tuple[list, ...]:
    """A delta-v2 body's rows as ``(ids, tops, kinds, sizes, kids,
    labels, versions)``, once its length, checksum, kinds, labels and
    child counts are checked."""
    rows, words = header["rows"], _hash_words(bits)
    expected = rows * (_ROW_BYTES + 8 * words)
    if len(body) != expected:
        raise SnapshotError(
            f"delta body is {len(body)} bytes, its header declares {expected}"
        )
    if header.get("checksum") != _checksum(body):
        raise SnapshotError("delta body does not match header checksum")
    names = check_names(header.get("names"), SnapshotError)
    literals = check_literals(header.get("literals"), SnapshotError)

    columns: list = []
    start = 0
    for typecode in _V2_COLUMNS:
        n = rows * words if typecode == "Q" else rows
        if typecode == "B":
            columns.append(body[start : start + n])
            start += n
        else:
            columns.append(read_column(typecode, body, start, n).tolist())
            start += 8 * n
    ids, tops, versions, sizes, ops, firsts, seconds, label_ix = columns
    if words == 2:
        tops = [lo | hi << 64 for lo, hi in zip(tops[0::2], tops[1::2])]
    if ops and max(ops) > OP_LET:
        index = next(i for i, op in enumerate(ops) if op > OP_LET)
        raise SnapshotError(f"row {index}: unknown kind code {ops[index]}")

    kids: list[tuple] = []
    labels: list = []
    tables = (names, literals, names, None, names)
    for index, op, first, second, aux in zip(count(), ops, firsts, seconds, label_ix):
        arity = _ARITY[op]
        if (first != -1) != (arity > 0) or (second != -1) != (arity == 2):
            raise SnapshotError(
                f"row {index}: {OP_KINDS[op]} with children {first}, {second}; "
                f"a {OP_KINDS[op]} has {arity}"
            )
        kids.append(() if arity == 0 else (first,) if arity == 1 else (first, second))
        table = tables[op]
        if table is None:
            if aux != -1:
                raise SnapshotError(f"row {index}: App with label {aux}, not -1")
            labels.append(None)
        elif 0 <= aux < len(table):
            labels.append(table[aux])
        else:
            raise SnapshotError(
                f"row {index}: {OP_KINDS[op]} with label {aux}, outside "
                f"0..{len(table) - 1}"
            )
    return ids, tops, [OP_KINDS[op] for op in ops], sizes, kids, labels, versions


def _decode_v1(header: dict, body: bytes) -> tuple[tuple[list, ...], list]:
    """A legacy delta-v1 body's rows, as :func:`_decode_v2` gives them,
    and each row's claimed summary ``(s, v, m)``, once every record's
    fields are type-checked."""
    if header.get("checksum") != _checksum(body):
        raise SnapshotError("delta body does not match header checksum")
    records = _parse_records(body, header["entries"])
    columns: tuple[list, ...] = ([], [], [], [], [], [], [])
    ids, tops, kinds, sizes, kids, labels, versions = columns
    claimed = []
    for rec in records:
        missing = [
            key
            for key in ("i", "h", "k", "z", "c", "p", "t", "s", "v", "m")
            if not isinstance(rec, dict) or key not in rec
        ]
        if missing:
            raise SnapshotError(
                f"delta entry is missing field(s) {missing}: {rec!r}"
            )
        _check_record_types(rec)
        kind, children, payload = rec["k"], rec["c"], rec["p"]
        if kind not in OP_OF_KIND:
            raise SnapshotError(f"unknown entry kind {kind!r}")
        if not isinstance(children, list) or not all(
            type(kid) is int for kid in children
        ):
            raise SnapshotError(f"entry {rec['i']}: 'c' is not a list of ids")
        if len(children) != _ARITY[OP_OF_KIND[kind]]:
            raise SnapshotError(
                f"entry {rec['i']}: a {kind} with {len(children)} children"
            )
        if kind == "Lit":
            label = _decode_lit(payload)
        elif kind == "App":
            if payload is not None:
                raise SnapshotError(f"entry {rec['i']}: App with payload {payload!r}")
            label = None
        elif type(payload) is str and payload:
            label = payload
        else:
            raise SnapshotError(f"entry {rec['i']}: malformed name {payload!r}")
        ids.append(rec["i"])
        tops.append(rec["h"])
        kinds.append(kind)
        sizes.append(rec["z"])
        kids.append(tuple(children))
        labels.append(label)
        versions.append(rec["t"])
        claimed.append((rec["s"], rec["v"], rec["m"]))
    return columns, claimed


def _apply_rows(
    store: "ExprStore",
    since: int,
    version: int,
    rows: tuple[list, ...],
    claimed: Optional[list] = None,
) -> int:
    """Check a decoded frame's rows against each other and ``store``,
    recompute each new class's summary and hash, and install the rows;
    return how many were installed (the rest were live already).

    Refuses, before the first write: an id that is negative or repeats;
    a version outside ``(since, version]``; a child id that names
    neither a row nor a live class; a size that is not 1 plus its
    children's; a live id with other content (:meth:`_holds`); a
    recomputed hash that differs from the row's; and, for legacy rows,
    a claimed summary (``claimed``) that differs from the recomputed
    one."""
    ids, tops, kinds, sizes, kids, labels, versions = rows
    at: dict[int, int] = {}
    for index, node_id in enumerate(ids):
        if node_id < 0:
            raise SnapshotError(f"row {index}: negative id {node_id}")
        if at.setdefault(node_id, index) != index:
            raise SnapshotError(f"entry id {node_id} appears twice")
    for index, stamp in enumerate(versions):
        if not since < stamp <= version:
            raise SnapshotError(
                f"row {index}: version {stamp} is outside the frame's "
                f"window ({since}, {version}]"
            )
    for index, pair in enumerate(kids):
        total = 1
        for kid in pair:
            row = at.get(kid)
            size = sizes[row] if row is not None else store._live_size(kid)
            if size is None:
                raise SnapshotError(
                    f"row {index}: child id {kid} names neither a row of "
                    "this frame nor a live class"
                )
            total += size
        if total != sizes[index]:
            raise SnapshotError(
                f"row {index}: size {sizes[index]}, but 1 plus its "
                f"children's sizes is {total}"
            )
    new = [
        index
        for index in range(len(ids))
        if not store._holds(ids[index], tops[index], kinds[index], sizes[index])
    ]
    # Children first: a child is strictly smaller than its parent.
    new.sort(key=lambda index: (sizes[index], ids[index]))

    from repro.store.store import canonical_node

    # The receiving store's canonical child object wins over a copy
    # rebuilt from this frame: parents must reference the store's
    # canonical subtrees, or the maximally-shared DAG (and the memo's
    # object-identity keys) would silently fork.  A live child is a
    # held row or no row at all; any other child is built before its
    # parent.
    built: dict[int, Expr] = {}
    for index in new:
        built[ids[index]] = canonical_node(
            kinds[index],
            labels[index],
            [store._tree(kid) if kid in store else built[kid] for kid in kids[index]],
        )
    if not new:
        return 0
    trees = [built[ids[index]] for index in new]
    arena, roots = flatten_corpus(trees)
    got, shs, vmhs, vms = _arena_pass(arena, store.combiners, roots)
    names = arena.names
    summaries = []
    for index, tree, root in zip(new, trees, roots):
        if got[root] != tops[index]:
            raise SnapshotError(
                f"row {index}: entry {ids[index]} hashes to {got[root]:#x}, "
                f"not the frame's {tops[index]:#x}"
            )
        vm_entries = {names[nid]: pos for nid, pos in vms[root].items()}
        if claimed is not None and claimed[index] != (
            shs[root], vmhs[root], vm_entries
        ):
            raise SnapshotError(
                f"entry {ids[index]}: its summary (s, v, m) differs from "
                "the one its tree recomputes to"
            )
        summaries.append(
            MemoRecord(tree, shs[root], vm_entries, vmhs[root], tops[index])
        )
    for index, summary in zip(new, summaries):
        store._restore(
            ids[index], kinds[index], sizes[index], kids[index], versions[index],
            summary,
        )
    return len(new)
