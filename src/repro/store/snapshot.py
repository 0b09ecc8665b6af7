"""Versioned snapshots and deltas of an :class:`~repro.store.ExprStore`.

A snapshot makes a corpus interned once reusable across processes: the
intern table's live classes, their LRU recency and the store's counters
are written to one checksummed frame and restored bit-identically.
Re-hashing the same corpus in another process yields the same root
hashes and lands on the existing classes without growing the store.  A
restored store holds its classes as every intern path leaves them, as
columns with no canonical tree (``expr_of`` builds one on request), and
its memo is cold.

Column frames
-------------

Snapshots and deltas share one layout: a JSON header line, then one
little-endian column per field, each ``rows`` long::

    id       N x int64
    hash     N x uint64 (up to 64 bits), or N x 2 x uint64 (low word first)
    version  N x int64
    size     N x int64
    kind     N x uint8   (the arena's OP_VAR..OP_LET)
    first    N x int64   (first child id, -1 when absent)
    second   N x int64   (second child id, -1 when absent)
    label    N x int64   (a names index for Var/Lam/Let, a literals
                          index for Lit, -1 for App)

Every header holds ``format``, ``bits``, ``seed``, ``version`` (the
store's version stamp), ``rows``, ``names`` and ``literals`` (the arena
body's tables, :mod:`repro.core.columns`), ``meta`` (the caller's, such
as a session's backend name) and ``checksum`` (``"sha256:<hex of the
body bytes>"``).  A frame carries no summaries: the paper's e-summaries
are compositional and the hash is a function of them, so the receiver
recomputes both.  The writer reads the table's columns only -- no memo
record, tree or summary pass -- and leaves the table, the memo and the
stats as they were.

* A **snapshot** (``repro-store-snapshot-v3``, :func:`snapshot_to_bytes`)
  holds every live class, rows in LRU order, oldest first, so the row
  order carries recency.  Its header adds the store's ``max_entries``,
  ``memo_limit``, ``next_id`` and ``stats``.
* A **delta** (``repro-store-delta-v2``, :func:`delta_to_bytes`) holds
  the live classes created after a version stamp ``since``, rows in
  version order; it is what journal frames hold and what
  ``/v1/snapshot/delta`` serves.  Its header adds ``since`` and
  ``num_shards``, always ``null``: a frame where it is not came from an
  in-process sharded store, which this package no longer has, and its
  shard-encoded ids mean nothing here.

One install path
----------------

Each reader first refuses, before the first write, a header that is not
a JSON object with its tag or has a field of the wrong type or range; a
body of the wrong length or checksum; and a row whose kind is outside
0-4, whose label index is out of range for its kind, or whose children
do not match its kind.  :func:`apply_delta_bytes` also refuses a
combiner family other than the store's, a ``num_shards`` that is not
``null`` and a ``since`` ahead of the store; :func:`snapshot_from_bytes`
builds a fresh store from the header.

Both then install through :func:`_apply_rows`, which refuses the frame
whole when an id is negative or repeats; a version is outside the
frame's window (``(since, version]`` for a delta, ``[0, version]`` for a
snapshot); a child id names neither a row nor a live class; a size is
below 1 or not 1 plus its children's sizes; or an id is live with other
content.  It then skips the rows the store holds, reads the others and
the live classes they reach into one arena, straight from the columns
(:meth:`~repro.store.store.InternTable.arena`), hashes it with the
kernel, refuses the frame if a hash differs from the hash column -- two
terms that are not alpha-equivalent are never merged on trust -- and
installs the rows children first, with no tree and no memo record.  A
snapshot's ids are then touched in row order, which restores recency,
and its saved counters adopted.

Legacy ``repro-store-snapshot-v1`` and ``repro-store-delta-v1``
documents are still read, through the same checks, and no longer
written.  Their bodies are JSON lines, one record per class (``i`` id,
``h`` hash, ``k`` kind, ``z`` size, ``c`` child ids, ``p`` payload,
``t`` version, and the summary: ``s`` structure hash, ``v``
variable-map hash, ``m`` name -> position hash), under a header that
counts ``entries`` instead of ``rows``; each record's ``s``, ``v`` and
``m`` must equal the recomputed ones too, so their arena takes the
scalar pass, which keeps each row's summary.  A snapshot record without
``t`` (written before version stamps existed) loads with version 0.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields
from itertools import count
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Optional

from repro.core.arena import OP_KINDS, OP_LET, OP_OF_KIND, _arena_pass, arena_hash_any
from repro.core.columns import (
    check_literals,
    check_names,
    column_bytes,
    label_indices,
    read_column,
)
from repro.core.combiners import HashCombiners
from repro.lang.sexpr import literal_tag

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
    "SNAPSHOT_V1_FORMAT",
    "DELTA_FORMAT",
    "DELTA_V1_FORMAT",
]

SNAPSHOT_FORMAT = "repro-store-snapshot-v3"
#: The legacy snapshot layout: still read, no longer written.
SNAPSHOT_V1_FORMAT = "repro-store-snapshot-v1"
DELTA_FORMAT = "repro-store-delta-v2"
#: The legacy delta layout: still read, no longer written.
DELTA_V1_FORMAT = "repro-store-delta-v1"

#: The child count of each of the arena's ``OP_*`` codes.
_ARITY = (0, 0, 1, 2, 2)

#: A column body's columns in order (``array`` typecodes; ``"Q"`` is
#: the hash, one or two words a row), and the bytes of a row but for
#: its hash words.
_V2_COLUMNS = ("q", "Q", "q", "q", "B", "q", "q", "q")
_ROW_BYTES = 6 * 8 + 1
_WORD = (1 << 64) - 1

#: The fields of a legacy record, ``t`` last, and those the table keeps
#: in int64 columns (as do the child ids, ``c``).
_V1_FIELDS = ("i", "h", "k", "z", "c", "p", "s", "v", "m", "t")
_INT64_FIELDS = ("i", "z", "t")
_INT64 = 1 << 63


class SnapshotError(ValueError):
    """Raised when a snapshot file is malformed, truncated or tampered."""


def _checksum(body: bytes) -> str:
    return "sha256:" + hashlib.sha256(body).hexdigest()


def _stats_dict(stats) -> dict:
    return {f.name: getattr(stats, f.name) for f in fields(stats)}


def _lit_payload(value: Any) -> list:
    tag = literal_tag(value)
    if tag is None:
        raise SnapshotError(f"cannot snapshot literal {value!r}")
    return [tag, value]


def _payload(kind: str, label: Any) -> Any:
    """A class's payload in :func:`content_checksum`, from its label
    column: the label, or a literal's ``[tag, value]``."""
    return _lit_payload(label) if kind == "Lit" else label


def _hash_words(bits: int) -> int:
    """uint64 words per hash in a column body."""
    return 1 if bits <= 64 else 2


def _frame(store: "ExprStore", window: list, header: dict) -> bytes:
    """A column frame of ``window``'s ``(node_id, row)`` pairs in their
    order, under ``header`` completed with ``bits``, ``seed``,
    ``version``, ``rows``, ``names``, ``literals`` and ``checksum``.

    Each column is one comprehension over the table's column, the child
    columns as they are; the table, the memo and the stats are only
    read."""
    table = store._table
    rows = [row for _id, row in window]

    def column(values) -> list:
        return [values[row] for row in rows]

    ops = column(table.ops)
    labels, names, literals = label_indices(ops, column(table.labels))
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
    header.update(
        bits=bits,
        seed=store.combiners.seed,
        version=store.version,
        rows=len(rows),
        names=names,
        literals=[_lit_payload(value) for value in literals],
        checksum=_checksum(body),
    )
    header_bytes = json.dumps(
        header, separators=(",", ":"), sort_keys=True
    ).encode("utf-8")
    return header_bytes + b"\n" + body


def snapshot_to_bytes(store: "ExprStore", meta: Optional[dict] = None) -> bytes:
    """Serialise ``store`` to a ``repro-store-snapshot-v3`` frame, in
    memory: every live class, rows in LRU order (see the module
    docstring).

    Exactly the bytes :func:`write_snapshot` would put on disk.  Used by
    the :mod:`repro.service` endpoints and the journal's checkpoints to
    ship stores without touching the filesystem.  ``meta`` is an
    arbitrary JSON-compatible dict stored in the header (the Session
    facade records its backend name there).  The store is left
    observably unchanged.
    """
    table = store._table
    return _frame(
        store,
        table.window(),
        {
            "format": SNAPSHOT_FORMAT,
            "max_entries": store.max_entries,
            "memo_limit": store.memo_limit,
            "next_id": table.next_id,
            "stats": _stats_dict(store.stats),
            "meta": meta or {},
        },
    )


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


def _read_header(
    data: bytes, what: str, formats: tuple[str, ...]
) -> tuple[dict, bytes]:
    """``data``'s header and body, once the header is a JSON object
    tagged with one of ``formats``; ``what`` names the document."""
    header_line, _newline, body = data.partition(b"\n")
    try:
        header = json.loads(header_line)
    except (ValueError, RecursionError) as exc:
        raise SnapshotError(f"unreadable {what} header: {exc}") from None
    if not isinstance(header, dict) or header.get("format") not in formats:
        raise SnapshotError(
            f"not a {' / '.join(formats)} document: {header_line[:80]!r}"
        )
    return header, body


def _count(header: dict, key: str, low: int = 0, high: Optional[int] = None) -> None:
    """Refuse ``header[key]`` unless it is an ``int`` (not a ``bool``) of
    at least ``low`` and at most ``high``."""
    value = header.get(key)
    if type(value) is not int or value < low or (high is not None and value > high):
        bound = f"in [{low}, {high}]" if high is not None else f">= {low}"
        raise SnapshotError(
            f"header field {key!r} must be an integer {bound}, got {value!r}"
        )


def _check_snapshot_header(header: dict, count_key: str, stat_names) -> None:
    """Refuse a snapshot header that lacks ``bits``, ``seed``,
    ``next_id`` or ``count_key``, or whose fields are not of their types
    and ranges: ``bits`` 8-128; ``seed``, ``next_id``, the count and
    ``version`` (0 when absent) non-negative; ``max_entries`` and
    ``memo_limit`` ``null`` or at least 1 and 0; ``stats`` an object
    whose ``stat_names`` keys are non-negative (other keys are
    ignored); ``meta`` an object."""
    missing = [
        key for key in ("bits", "seed", "next_id", count_key) if key not in header
    ]
    if missing:
        raise SnapshotError(
            f"snapshot header is missing required field(s): {missing}"
        )
    _count(header, "bits", 8, 128)
    for key in ("seed", "next_id", count_key):
        _count(header, key)
    if "version" in header:
        _count(header, "version")
    for key, low in (("max_entries", 1), ("memo_limit", 0)):
        if header.get(key) is not None:
            _count(header, key, low)
    stats = header.get("stats", {})
    if not isinstance(stats, dict) or any(
        type(stats[name]) is not int or stats[name] < 0
        for name in stat_names
        if name in stats
    ):
        raise SnapshotError(
            f"header field 'stats' must map counter names to integers >= 0, "
            f"got {stats!r}"
        )
    if not isinstance(header.get("meta", {}), dict):
        raise SnapshotError(
            f"header field 'meta' must be an object, got {header['meta']!r}"
        )


def snapshot_from_bytes(data: bytes) -> tuple["ExprStore", dict]:
    """Rebuild a store from :func:`snapshot_to_bytes` output, or from a
    legacy ``repro-store-snapshot-v1`` document; return ``(store,
    header)``.

    The restored store matches the saved one bit-identically: intern
    table, node ids, version stamps, LRU recency and the saved stats
    counters all survive.  It has no canonical tree and a cold memo, so
    any expression, a re-parsed copy or ``expr_of``'s tree alike, is
    summarised once and then resolves to its existing class.  Every
    class's hash is recomputed and checked (see the module docstring); a
    document that fails a check, or has any other format tag
    (``repro-store-snapshot-v2-sharded`` and the deltas included), is
    refused with :class:`SnapshotError`.
    """
    from repro.store.store import ExprStore, StoreStats

    header, body = _read_header(
        data, "snapshot", (SNAPSHOT_FORMAT, SNAPSHOT_V1_FORMAT)
    )
    v3 = header["format"] == SNAPSHOT_FORMAT
    _check_snapshot_header(
        header, "rows" if v3 else "entries", [f.name for f in fields(StoreStats)]
    )
    if v3:
        rows, claimed = _decode_v2(header, body, header["bits"]), None
    else:
        rows, claimed = _decode_v1(header, body, stamped=False)

    store = ExprStore(
        HashCombiners(bits=header["bits"], seed=header["seed"]),
        max_entries=header.get("max_entries"),
        memo_limit=header.get("memo_limit"),
    )
    version = header.get("version", 0)
    _apply_rows(store, -1, version, rows, claimed)
    # Row order is LRU order: touching the ids in it restores recency.
    # The hits this counts are replaced by the saved counters.
    for node_id in rows[0]:
        store._hit_by_id(node_id)
    store._restore_counters(header.get("stats", {}), header["next_id"])
    store.version = max(store.version, version)
    return store, header


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
# with the ``(since, version]`` window in its header.
#
# Deltas assume a shared id space: the receiver started from a full
# snapshot of the same store (snapshots preserve node ids), so child ids
# that predate ``since`` resolve against the receiver's own table.  That makes replica catch-up O(new
# entries) instead of O(store) -- the whole point.  Application is
# idempotent: entries the receiver already holds are verified (same
# hash/kind/size) and skipped, so overlapping deltas are safe to
# replay.  Deltas carry no evictions, so a replica can hold a class the
# primary evicted and later re-created under a new id: both ids stay
# live, the newest id takes the hash mapping, and evicting the stale
# one leaves that mapping alone.


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
    (:meth:`~repro.store.store.InternTable.window`), so its cost is the
    window's, not the table's.
    """
    if since < 0 or since > store.version:
        raise SnapshotError(
            f"delta since={since} is outside this store's history "
            f"(version {store.version})"
        )
    return _frame(
        store,
        store._table.window(since),
        {
            "format": DELTA_FORMAT,
            "since": since,
            "num_shards": None,
            "meta": meta or {},
        },
    )


def apply_delta_bytes(store: "ExprStore", data: bytes) -> dict:
    """Apply a delta frame to ``store``; return ``{"applied": ..,
    "skipped": .., "version": ..}``.

    Reads ``repro-store-delta-v2`` (what :func:`delta_to_bytes` writes)
    and the legacy ``repro-store-delta-v1``.  ``store`` must share the
    delta's combiner family and id space (it was restored from a
    snapshot of the emitting store), and must
    have reached the delta's ``since`` stamp -- a gap means missing
    classes and fails loudly.  Classes the store already holds are
    verified and skipped (idempotent replay).  Every other class's hash
    is recomputed by one arena pass, and a hash that differs from the
    frame's refuses the frame (see the module docstring for every
    check).  A refused frame raises
    :class:`SnapshotError` before the first write, so the store is left
    untouched.
    """
    header, body = _read_header(data, "delta", (DELTA_FORMAT, DELTA_V1_FORMAT))
    v2 = header["format"] == DELTA_FORMAT
    since, version = _check_delta_header(store, header, "rows" if v2 else "entries")
    if v2:
        rows, claimed = _decode_v2(header, body, store.combiners.bits), None
    else:
        rows, claimed = _decode_v1(header, body, stamped=True)

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


def _check_delta_header(store: "ExprStore", header: dict, count_key: str) -> tuple:
    """Refuse a header whose counts are not non-negative ints, whose
    combiner family differs from ``store``'s or whose ``num_shards`` is
    not ``null``; return ``(since, version)``."""
    for key in ("bits", "seed", "since", "version", count_key):
        _count(header, key)
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
    """A column body's rows as the columns ``(ids, tops, ops, sizes,
    firsts, seconds, labels, versions)``, each label decoded to its name
    or literal, once the body's length, checksum, kinds, labels and child
    counts are checked."""
    rows, words = header["rows"], _hash_words(bits)
    expected = rows * (_ROW_BYTES + 8 * words)
    if len(body) != expected:
        raise SnapshotError(
            f"body is {len(body)} bytes, its header declares {expected}"
        )
    if header.get("checksum") != _checksum(body):
        raise SnapshotError("body does not match header checksum")
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

    labels: list = []
    tables = (names, literals, names, None, names)
    for index, op, first, second, aux in zip(count(), ops, firsts, seconds, label_ix):
        arity = _ARITY[op]
        if (first != -1) != (arity > 0) or (second != -1) != (arity == 2):
            raise SnapshotError(
                f"row {index}: {OP_KINDS[op]} with children {first}, {second}; "
                f"a {OP_KINDS[op]} has {arity}"
            )
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
    return ids, tops, ops, sizes, firsts, seconds, labels, versions


def _parse_records(body: bytes, expected: int) -> list:
    records = []
    for line in body.splitlines():
        try:
            records.append(json.loads(line))
        except (ValueError, RecursionError) as exc:
            raise SnapshotError(f"unreadable entry: {exc}") from None
    if len(records) != expected:
        raise SnapshotError(
            f"body holds {len(records)} entries, header says {expected}"
        )
    return records


def _check_record_types(rec: dict) -> None:
    """Refuse a record whose ``i``, ``h``, ``z``, ``t``, ``s`` or ``v``
    is not an int (bools excluded; ``t`` may be absent), whose ``i``,
    ``z`` or ``t`` does not fit in int64 (the table's columns) or whose
    ``m`` is not an object mapping str to int."""
    for key in ("i", "h", "z", "t", "s", "v"):
        value = rec.get(key, 0 if key == "t" else None)
        if type(value) is not int:
            raise SnapshotError(
                f"malformed snapshot entry: {key!r} is not an integer: "
                f"{value!r}"
            )
        if key in _INT64_FIELDS and not -_INT64 <= value < _INT64:
            raise SnapshotError(
                f"malformed snapshot entry: {key!r} does not fit in int64: "
                f"{value}"
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


def _decode_v1(
    header: dict, body: bytes, stamped: bool
) -> tuple[tuple[list, ...], list]:
    """A legacy JSON-lines body's rows, as :func:`_decode_v2` gives them,
    and each row's claimed summary ``(s, v, m)``, once every record's
    fields are type-checked.  Records of an unstamped (snapshot) body
    may lack ``t``, which then reads as version 0."""
    if header.get("checksum") != _checksum(body):
        raise SnapshotError("body does not match header checksum")
    records = _parse_records(body, header["entries"])
    required = _V1_FIELDS if stamped else _V1_FIELDS[:-1]
    columns: tuple[list, ...] = ([], [], [], [], [], [], [], [])
    ids, tops, ops, sizes, firsts, seconds, labels, versions = columns
    claimed = []
    for rec in records:
        missing = [
            key for key in required if not isinstance(rec, dict) or key not in rec
        ]
        if missing:
            raise SnapshotError(
                f"malformed snapshot entry: missing field(s) {missing}: {rec!r}"
            )
        _check_record_types(rec)
        kind, children, payload = rec["k"], rec["c"], rec["p"]
        if kind not in OP_OF_KIND:
            raise SnapshotError(f"unknown entry kind {kind!r}")
        if not isinstance(children, list) or not all(
            type(kid) is int and -_INT64 <= kid < _INT64 for kid in children
        ):
            raise SnapshotError(f"entry {rec['i']}: 'c' is not a list of int64 ids")
        if len(children) != _ARITY[OP_OF_KIND[kind]]:
            raise SnapshotError(
                f"entry {rec['i']}: a {kind} with {len(children)} children"
            )
        if kind == "Lit":
            (label,) = check_literals([payload], SnapshotError)
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
        ops.append(OP_OF_KIND[kind])
        sizes.append(rec["z"])
        firsts.append(children[0] if children else -1)
        seconds.append(children[1] if len(children) == 2 else -1)
        labels.append(label)
        versions.append(rec.get("t", 0))
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
    recompute each new class's hash, and install the rows; return how
    many were installed (the rest were live already).

    Refuses, before the first write: an id that is negative or repeats;
    a version outside ``(since, version]``; a child id that names
    neither a row nor a live class; a size below 1 or not 1 plus its
    children's; a live id with another hash, kind or size (the frame
    does not describe this store); a recomputed hash that differs from
    the row's; and, for legacy rows,
    a claimed summary (``claimed``) that differs from the recomputed
    one.  The new rows, children first, and the live classes they reach
    are one arena read from their columns
    (:meth:`~repro.store.store.InternTable.arena`), hashed by the kernel
    (:func:`~repro.core.arena.arena_hash_any`); legacy rows take the
    scalar pass instead, whose kept maps give each row's summary.  The
    rows are then installed with no tree and no memo record."""
    ids, tops, ops, sizes, firsts, seconds, labels, versions = rows
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
    table = store._table
    row_of = table.row_of
    for index, op, first, second in zip(count(), ops, firsts, seconds):
        if sizes[index] < 1:
            raise SnapshotError(f"row {index}: size {sizes[index]} is below 1")
        total = 1
        for kid in (first, second)[: _ARITY[op]]:
            if kid in at:
                total += sizes[at[kid]]
            elif kid in row_of:
                total += table.sizes[row_of[kid]]
            else:
                raise SnapshotError(
                    f"row {index}: child id {kid} names neither a row of "
                    "this frame nor a live class"
                )
        if total != sizes[index]:
            raise SnapshotError(
                f"row {index}: size {sizes[index]}, but 1 plus its "
                f"children's sizes is {total}"
            )
    new = []
    for index, node_id in enumerate(ids):
        row = row_of.get(node_id)
        if row is None:
            new.append(index)
        elif (table.hashes[row], table.ops[row], table.sizes[row]) != (
            tops[index], ops[index], sizes[index]
        ):
            raise SnapshotError(
                f"entry {node_id} disagrees with the store's existing "
                "entry (hash/kind/size mismatch): the receiver does not "
                "mirror the emitting store"
            )
    if not new:
        return 0
    # Children first, by (size, id): every size is at least 1, so a
    # child is strictly smaller than its parent.
    new.sort(key=ids.__getitem__)
    new.sort(key=sizes.__getitem__)
    columns = [[column[index] for index in new] for column in rows]
    arena, _at = table.arena(
        [kid for kid in columns[4] + columns[5] if kid in row_of], columns
    )
    base = len(arena) - len(new)
    if claimed is None:
        got = arena_hash_any(arena, store.combiners)
    else:
        got, shs, vmhs, vms = _arena_pass(arena, store.combiners, range(base, len(arena)))
    for root, index in enumerate(new, base):
        if got[root] != tops[index]:
            raise SnapshotError(
                f"row {index}: entry {ids[index]} hashes to {got[root]:#x}, "
                f"not the frame's {tops[index]:#x}"
            )
        if claimed is not None and claimed[index] != (
            shs[root],
            vmhs[root],
            {arena.names[nid]: pos for nid, pos in vms[root].items()},
        ):
            raise SnapshotError(
                f"entry {ids[index]}: its summary (s, v, m) differs from "
                "the one its tree recomputes to"
            )
    store._restore(columns)
    return len(new)
