"""Byte-level pins on the snapshot and delta codec.

Three walls:

* **Golden digests.**  sha256 digests of ``snapshot_to_bytes`` (flat
  and LRU-bounded stores) and ``delta_to_bytes`` over one fixed corpus,
  interned partly with ``engine="tree"`` (warm summary memo) and partly
  with ``engine="arena"`` (cold memo), at 64 and 128 bits.  Both are
  column frames (``repro-store-snapshot-v3`` and
  ``repro-store-delta-v2``), which carry no summaries.  Any byte the
  codec changes fails here.
* **Reference encoders.**  Independent encoders kept in this file: the
  frames' columns (one ``struct.pack`` per value), rows in LRU order
  for a snapshot and in version order for a delta, against the codec on
  awkward names and literals, empty maps, three widths, and warm, cold
  and mixed memos.
* **Legacy v1 documents.**  :func:`reference_snapshot_v1` and
  :func:`reference_delta_v1` write the ``repro-store-snapshot-v1`` and
  ``repro-store-delta-v1`` documents earlier releases wrote: JSON-lines
  records, each entry's summary from the tree summariser over its
  canonical expression (no memo), each record through ``json.dumps``
  with sorted keys.  They reproduce the old golden digests byte for
  byte, so the tests that feed old documents to the readers use them as
  the old writers.
"""

import hashlib
import json
import random
import struct
from dataclasses import fields

import pytest

from repro.core.combiners import HashCombiners
from repro.core.kernel import summarise_tree
from repro.core.position_tree import pt_here_hash
from repro.core.structure import svar_hash
from repro.gen.random_exprs import random_expr
from repro.lang.expr import App, Lam, Let, Lit, Var
from repro.store import (
    ExprStore,
    delta_to_bytes,
    snapshot_to_bytes,
)


def golden_corpus():
    """400 items, every 7th a same-object repeat of an earlier one."""
    rng = random.Random(2024)
    items = []
    for i in range(400):
        if i % 7 == 6:
            items.append(items[i - 4])
        else:
            items.append(
                random_expr(10 + i % 50, rng=rng, p_let=0.2, p_lit=0.2)
            )
    return items


def golden_store(layout: str, bits: int):
    """The golden store and the mid-corpus version its delta starts at.

    Items 0-149 intern on the tree engine (the mid-corpus stamp is
    taken after item 99), items 150-399 on the arena engine in batches
    of 50."""
    combiners = HashCombiners(bits=bits, seed=11)
    if layout == "lru":
        store = ExprStore(combiners, max_entries=1500, memo_limit=2000)
    else:
        store = ExprStore(combiners)
    items = golden_corpus()
    store.intern_many(items[:100], engine="tree")
    mid = store.version
    store.intern_many(items[100:150], engine="tree")
    for lo in range(150, 400, 50):
        store.intern_many(items[lo : lo + 50], engine="arena")
    return store, mid


def golden_digests(layout: str, bits: int) -> dict:
    store, mid = golden_store(layout, bits)
    return {
        "snapshot": hashlib.sha256(snapshot_to_bytes(store)).hexdigest(),
        "delta": hashlib.sha256(delta_to_bytes(store, mid)).hexdigest(),
    }


#: The flat store ends with 5,344 entries, the LRU store with
#: 1,500 of 5,613 created; every delta starts at version 1,572.
GOLDEN = {
    ("flat", 64): {
        "snapshot": "599b30a703b7c9155b86c422bd18af21af42ed76b63ac11a2bab9f8bebe070c6",
        "delta": "4bdee88b093957ed3fe4c3405832771931006dafc95721a4e3d57cf30f24c5a0",
    },
    ("flat", 128): {
        "snapshot": "84a80a230297af7d77df0996d594bedc17dc5990d950e9e5230b1d8a4af76d22",
        "delta": "e66a23c26e81a3571b0b34af4fd959af02a989b13b32ea49fcafc198bc47f3d7",
    },
    ("lru", 64): {
        "snapshot": "4747a72f49cf606b5d4f34c59904a3a1b9d09ca2489ec76108ade98b1d0be2c4",
        "delta": "181f533fd526822ea586227701d5883ef5c077579bbd736e4cc4501e97b2ae7f",
    },
    ("lru", 128): {
        "snapshot": "45a8dc671b76021875ed93b96632118928740d34f5f120c22c4d8c507eb85061",
        "delta": "601d5b20eae2fb6a84191862ac55ca90849aef9ae57eeffb4ab897f8cf74e739",
    },
}

#: The ``repro-store-snapshot-v1`` digests of the same snapshots, pinned
#: while v1 was the written format (845 KB for the flat 64-bit snapshot,
#: against 306 KB as v3).  The ``lru`` rows were pinned again, from the
#: reference writer, when the tree walk stopped seeding memo records:
#: the golden LRU store's memo then flushes at other interns, so its LRU
#: order and saved counters moved while its classes stayed the same.  The
#: ``flat`` rows still tie the reference writer to old releases' bytes.
LEGACY_SNAPSHOT_V1 = {
    ("flat", 64): "2d44dbc899810e06f0557aa5c6bd9fa10ef079d4c39d01823a5f9e460b227e58",
    ("flat", 128): "d177df67808cefb60d537148b34a647af12e9c602f8d9d1ee81f6d14dd18663a",
    ("lru", 64): "f477a1b99c901eb1b01a3e3fc815eddfaeef70b7f3205c5537fd7fd2c775a37d",
    ("lru", 128): "403f6cb60608f15bb081767173867d6fa94fed6e9396be859c30741c30a6fa71",
}

#: The ``repro-store-delta-v1`` digests of the same deltas, pinned while
#: v1 was the written format (604 KB for the flat 64-bit delta, against
#: 216 KB as v2).
LEGACY_DELTA_V1 = {
    ("flat", 64): "4cbfc33ad5e877eeba4a13843f926dfc966bfdfb6e0e90ac24b9f7abf490182b",
    ("flat", 128): "a5f920f3a46ef6d6a1cfd70c815f01f1f252e34251ec2ca996292bf822c3a82b",
    ("lru", 64): "b6cfa96a940010215f3a7805a0740d38a28777300d99eaf68f74ba4be658472e",
    ("lru", 128): "fdde798d0dcc38a1faa1d3a04a216ebdc952daabe64e0e22294b54bd57c75685",
}


@pytest.mark.parametrize("bits", [64, 128])
@pytest.mark.parametrize("layout", ["flat", "lru"])
def test_golden_digests(layout, bits):
    assert golden_digests(layout, bits) == GOLDEN[layout, bits]


@pytest.mark.parametrize("bits", [64, 128])
@pytest.mark.parametrize("layout", ["flat", "lru"])
def test_reference_v1_writer_reproduces_legacy_goldens(layout, bits):
    store, mid = golden_store(layout, bits)
    digest = hashlib.sha256(reference_delta_v1(store, mid)).hexdigest()
    assert digest == LEGACY_DELTA_V1[layout, bits]
    digest = hashlib.sha256(reference_snapshot_v1(store)).hexdigest()
    assert digest == LEGACY_SNAPSHOT_V1[layout, bits]


# -- the reference encoder ----------------------------------------------------


def reference_payload(node):
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Lit):
        value = node.value
        for tag, kind in (("bool", bool), ("int", int), ("float", float)):
            if isinstance(value, kind):
                return [tag, value]
        return ["str", value]
    if isinstance(node, (Lam, Let)):
        return node.binder
    return None


def reference_body(entries, combiners) -> bytes:
    """Entry records from a memo-free tree summary of each canonical
    expression, one sorted-key ``json.dumps`` dict per line."""
    lines = []
    for entry in entries:
        s_hash, varmap = summarise_tree(
            entry.expr,
            combiners,
            here=pt_here_hash(combiners),
            svar=svar_hash(combiners),
            var_entry_cache={},
            lit_cache={},
        )
        record = {
            "i": entry.node_id,
            "h": entry.hash,
            "k": entry.kind,
            "z": entry.size,
            "c": list(entry.children),
            "p": reference_payload(entry.expr),
            "s": s_hash,
            "v": varmap.hash,
            "m": dict(varmap.entries),
            "t": entry.version,
        }
        lines.append(
            json.dumps(record, separators=(",", ":"), sort_keys=True) + "\n"
        )
    return "".join(lines).encode("utf-8")


def _window(store, since):
    """The entries a delta from ``since`` ships, in version order."""
    return sorted(
        (entry for entry in store.entries() if entry.version > since),
        key=lambda entry: entry.version,
    )


def _document(header: dict, body: bytes) -> bytes:
    header = dict(header, checksum="sha256:" + hashlib.sha256(body).hexdigest())
    line = json.dumps(header, separators=(",", ":"), sort_keys=True)
    return line.encode("utf-8") + b"\n" + body


def reference_delta_v1(store, since, meta=None) -> bytes:
    """A ``repro-store-delta-v1`` document of the window after ``since``:
    the legacy header over :func:`reference_body`'s records."""
    fresh = _window(store, since)
    header = {
        "format": "repro-store-delta-v1",
        "bits": store.combiners.bits,
        "seed": store.combiners.seed,
        "since": since,
        "version": store.version,
        "num_shards": None,
        "entries": len(fresh),
        "meta": meta or {},
    }
    return _document(header, reference_body(fresh, store.combiners))


#: The delta-v2 body's columns in order, each with its ``struct`` code.
V2_COLUMNS = (
    ("id", "q"),
    ("hash", "Q"),
    ("version", "q"),
    ("size", "q"),
    ("kind", "B"),
    ("first", "q"),
    ("second", "q"),
    ("label", "q"),
)
KIND_CODES = {"Var": 0, "Lit": 1, "Lam": 2, "App": 3, "Let": 4}


def _hash_words(top: int, bits: int) -> list:
    return [top] if bits <= 64 else [top & (2**64 - 1), top >> 64]


def reference_columns(entries, bits):
    """``(names, literals, columns)`` of ``entries`` in their order: one
    list per column, names and literals in first-use order over the
    rows."""
    names, literals = [], []
    columns = {name: [] for name, _code in V2_COLUMNS}
    for entry in entries:
        payload = reference_payload(entry.expr)
        if entry.kind == "App":
            label = -1
        elif entry.kind == "Lit":
            key = [payload[0], repr(payload[1])]  # repr keeps -0.0 apart
            keys = [[tag, repr(value)] for tag, value in literals]
            if key not in keys:
                literals.append(payload)
                keys.append(key)
            label = keys.index(key)
        else:
            if payload not in names:
                names.append(payload)
            label = names.index(payload)
        kids = list(entry.children) + [-1, -1]
        columns["id"].append(entry.node_id)
        columns["hash"] += _hash_words(entry.hash, bits)
        columns["version"].append(entry.version)
        columns["size"].append(entry.size)
        columns["kind"].append(KIND_CODES[entry.kind])
        columns["first"].append(kids[0])
        columns["second"].append(kids[1])
        columns["label"].append(label)
    return names, literals, columns


def reference_delta_v2(store, since, meta=None) -> bytes:
    """A ``repro-store-delta-v2`` document of the window after ``since``,
    one ``struct.pack`` per value."""
    bits = store.combiners.bits
    names, literals, columns = reference_columns(_window(store, since), bits)
    header = {
        "format": "repro-store-delta-v2",
        "bits": bits,
        "seed": store.combiners.seed,
        "since": since,
        "version": store.version,
        "num_shards": None,
        "names": names,
        "literals": literals,
        "meta": meta or {},
    }
    return join_frame(header, columns)


def _stats(store) -> dict:
    return {f.name: getattr(store.stats, f.name) for f in fields(store.stats)}


def reference_snapshot_v3(store, meta=None) -> bytes:
    """A ``repro-store-snapshot-v3`` document of ``store``: the delta-v2
    columns of every live class, rows in LRU order, under the snapshot
    header."""
    bits = store.combiners.bits
    names, literals, columns = reference_columns(list(store.entries()), bits)
    header = {
        "format": "repro-store-snapshot-v3",
        "bits": bits,
        "seed": store.combiners.seed,
        "version": store.version,
        "max_entries": store.max_entries,
        "memo_limit": store.memo_limit,
        "next_id": store._table.next_id,
        "stats": _stats(store),
        "names": names,
        "literals": literals,
        "meta": meta or {},
    }
    return join_frame(header, columns)


def reference_snapshot_v1(store, meta=None) -> bytes:
    """A ``repro-store-snapshot-v1`` document of ``store``, as earlier
    releases wrote it: the legacy header over :func:`reference_body`'s
    records, in LRU order."""
    entries = list(store.entries())
    header = {
        "format": "repro-store-snapshot-v1",
        "bits": store.combiners.bits,
        "seed": store.combiners.seed,
        "max_entries": store.max_entries,
        "memo_limit": store.memo_limit,
        "next_id": store._table.next_id,
        "version": store.version,
        "entries": len(entries),
        "stats": _stats(store),
        "meta": meta or {},
    }
    return _document(header, reference_body(entries, store.combiners))


def split_frame(doc: bytes):
    """A delta-v2 document's ``(header, columns)``, each column a list."""
    line, _, body = doc.partition(b"\n")
    header = json.loads(line)
    rows = header["rows"]
    words = 1 if header["bits"] <= 64 else 2
    columns, start = {}, 0
    for name, code in V2_COLUMNS:
        n = rows * words if name == "hash" else rows
        width = n * struct.calcsize(code)
        columns[name] = list(struct.unpack(f"<{n}{code}", body[start : start + width]))
        start += width
    assert start == len(body)
    return header, columns


def join_frame(header: dict, columns: dict) -> bytes:
    """A delta-v2 document from ``columns``: ``rows`` taken from the id
    column and the checksum recomputed."""
    body = b"".join(
        struct.pack(f"<{len(columns[name])}{code}", *columns[name])
        for name, code in V2_COLUMNS
    )
    return _document(dict(header, rows=len(columns["id"])), body)


#: Names JSON must escape: a quote, a backslash, control characters,
#: a non-ASCII letter and an astral-plane character.
AWKWARD_NAMES = (
    'q"uote',
    "back\\slash",
    "ctl\x01\x1f\n\t",
    "λ",
    "astral\U0001F600",
    "x",
)

AWKWARD_LITS = (
    0,
    -1,
    2**70,
    True,
    False,
    0.1,
    -0.0,
    1e16,
    float("inf"),
    'say "hi"',
    "line\u2028sep",
)


def awkward_corpus():
    items = []
    for i, name in enumerate(AWKWARD_NAMES):
        other = AWKWARD_NAMES[(i + 1) % len(AWKWARD_NAMES)]
        items.append(Lam(name, App(Var(name), Var(other))))
        items.append(Lam(name, Var(name)))  # closed: an empty map
        items.append(
            Let(name, Lit(AWKWARD_LITS[i]), App(Var(other), Var(name)))
        )
    for value in AWKWARD_LITS:
        items.append(App(Var(AWKWARD_NAMES[0]), Lit(value)))
    rng = random.Random(17)
    for _ in range(6):
        items.append(
            random_expr(
                25, rng=rng, p_let=0.3, p_lit=0.2, free_pool=AWKWARD_NAMES
            )
        )
    return items


def wall_items(bits: int):
    """The awkward corpus; at 8 bits only its first six items (14
    classes), since a 162-class corpus is bound to collide in 256 hash
    values (Appendix B)."""
    items = awkward_corpus()
    return items[:6] if bits == 8 else items


def wall_store(layout: str, bits: int, memo: str):
    """:func:`wall_items` interned item by item into a ``layout`` store
    (``flat``, the one layout there is): on the tree engine (``warm``:
    every canonical tree has a memo record), on the arena engine
    (``cold``: none has) or alternating (``mixed``)."""
    combiners = HashCombiners(bits=bits, seed=5)
    store = ExprStore(combiners)
    for index, item in enumerate(wall_items(bits)):
        tree = memo == "warm" or (memo == "mixed" and index % 2 == 0)
        store.intern_many([item], engine="tree" if tree else "arena")
    # No class conflated by a collision: each canonical tree is then
    # the term its hash and memo record were computed from.  (Seed 5
    # keeps the 8-bit corpus apart; the 64-bit family is the witness.)
    witness = ExprStore(HashCombiners(bits=64, seed=5))
    witness.intern_many(wall_items(bits), engine="tree")
    assert len(store) == len(witness)
    return store


WALL = pytest.mark.parametrize("memo", ["warm", "cold", "mixed"])
WIDTHS = pytest.mark.parametrize("bits", [8, 64, 128])
#: One layout; the parameter keeps the wall's test ids.
LAYOUTS = pytest.mark.parametrize("layout", ["flat"])


@WALL
@WIDTHS
@LAYOUTS
def test_snapshot_body_matches_reference(layout, bits, memo):
    store = wall_store(layout, bits, memo)
    assert snapshot_to_bytes(store) == reference_snapshot_v3(store)


@WALL
@WIDTHS
@LAYOUTS
def test_delta_body_matches_reference(layout, bits, memo):
    store = wall_store(layout, bits, memo)
    for since in (0, store.version // 3, store.version - 1):
        assert delta_to_bytes(store, since) == reference_delta_v2(store, since)


def test_wall_covers_empty_maps_and_awkward_payloads():
    store = wall_store("flat", 64, "cold")
    body = reference_snapshot_v1(store).partition(b"\n")[2].decode("ascii")
    records = [json.loads(line) for line in body.splitlines()]
    assert any(rec["m"] == {} and rec["k"] == "Lam" for rec in records)
    assert {rec["p"] for rec in records if rec["k"] == "Var"} >= set(
        AWKWARD_NAMES
    )
    lits = [rec["p"] for rec in records if rec["k"] == "Lit"]
    assert ["float", float("inf")] in lits and ["int", 2**70] in lits
    assert "\\u2028" in body and "\\ud83d\\ude00" in body
    line = snapshot_to_bytes(store).partition(b"\n")[0].decode("ascii")
    header = json.loads(line)
    assert set(header["names"]) >= set(AWKWARD_NAMES)
    assert ["float", float("inf")] in header["literals"]
    assert ["int", 2**70] in header["literals"]
    assert "\\u2028" in line and "\\ud83d\\ude00" in line
