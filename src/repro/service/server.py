"""The snapshot-wire HTTP server behind ``repro serve``.

Stdlib only (``http.server`` + ``json``): one
:class:`~repro.api.Session` served over JSON/bytes endpoints,
versioned under ``/v1``:

===========================  ==================================================
``GET  /v1/health``          liveness + combiner family + store shape
``GET  /v1/stats``           :meth:`Session.stats` (entries, hit rates)
``GET  /v1/metrics``         operational metrics: uptime, request count,
                             hit/miss rates, engine/kernel
``POST /v1/hash``            a corpus body (below) ->
                             ``{"hashes": [...], "plan": {...}}``
``POST /v1/intern``          same body -> ``{"ids": [...], "hashes": [...]}``
``GET  /v1/snapshot``        the store as versioned snapshot bytes ("save")
``POST /v1/snapshot``        upload snapshot bytes, merge into the store
                             ("load"); returns the id remapping size
``GET  /v1/snapshot/delta``  ``?since=V``: the classes interned after store
                             version ``V`` as a ``repro-store-delta-v2``
                             frame, class columns with no summaries
                             (replica catch-up; the receiver recomputes
                             the summaries and checks every hash)
``POST /v1/session/open``    upload a corpus, open a streaming edit session
                             (:class:`~repro.api.stream.StreamSession`);
                             returns the session id + root hashes + plan.
                             Open pays one tree pass that warms the
                             store's summary memo, so first edits are
                             O(spine); an ``engine`` hint does not apply
                             to it (``bits``/``seed`` pins still do)
``POST /v1/session/edit``    ``{"session", "item", "path", "expr"}`` ->
                             the edit report (root hash, nodes rehashed,
                             sharing) -- O(dirty spine), not O(corpus)
``GET  /v1/session/report``  ``?session=ID``: the session's running totals
``POST /v1/session/close``   close + unpin the session's classes
===========================  ==================================================

Sessions are the stateful exception to the otherwise request-scoped
protocol: a registry (bounded by ``max_sessions``, idle-expired after
``session_ttl`` seconds) maps ids to live
:class:`~repro.api.stream.StreamSession` objects whose pinned classes
an LRU-bounded store cannot evict mid-stream.  An unknown or expired
id answers 409 (reopen and replay); a full registry answers 429.
Shard-identity and follower nodes open sessions in hash-only mode
(``intern_classes=False``): ownership checks and the follower's
one-writer id space both forbid local interning, and incremental
hashing needs none of it.

A corpus body is either JSON, ``{"exprs": [wire...], hints...}`` with
the flat postorder documents of :func:`repro.lang.sexpr.to_wire`, or,
on ``/v1/hash`` and ``/v1/intern`` with ``Content-Type:
application/x-repro-arena-v1``, a compiled arena's columns with the
hints in its header (:mod:`repro.service.arena_body`, which
:class:`~repro.service.client.ServiceClient` sends from
``hash_corpus`` and ``intern_many``).  Session bodies are JSON.
Stores ride as the existing checksummed snapshot format
(:func:`repro.store.snapshot_to_bytes` / ``snapshot_from_bytes``).
Hash/intern hints (``backend`` / ``engine`` / ``bits`` / ``seed``)
are lowered into a :class:`~repro.api.request.HashRequest` server-side,
so a remote call and a local call run the *same* plan and return
bit-identical hashes; the resolved plan is echoed in the response for
inspectability.  Any other body key is ignored.

Ingest: ``_decode_corpus`` turns a ``/v1/hash`` or ``/v1/intern`` body
into one fresh :class:`~repro.core.arena.ExprArena` and its roots,
before the service lock: JSON documents compile straight into it
(:meth:`~repro.core.arena.ExprArena.extend_wire`), and an arena body is
validated in one pass and taken as is
(:func:`~repro.service.arena_body.decode_body`); no JSON value is
parsed per node.  A malformed body of either kind answers 400 before
the store is touched.  When the arena runs the request
(:func:`~repro.api.plan.arena_serves`, the planner's one engine rule),
the request carries ``(arena, roots)``, which the store's arena step
hashes and interns with no ``Expr`` tree built, so nothing of the
request outlives it.  A ``tree`` pin and a backend with its own pass
get one unshared tree per item instead: a JSON body's documents parse
with :func:`~repro.lang.sexpr.from_wire`, its hints being known before
any arena is built, and an arena body's rows are rebuilt as the trees
``from_wire`` would give (:func:`~repro.service.arena_body.unshared_items`).
Session open parses its documents with ``from_wire``, and session edit
its one document.

Concurrency: the listener is a ``ThreadingHTTPServer`` (slow clients
don't starve the accept loop), while store-touching work is serialised
per server -- the session is the shared resource.  Scale-out is more
server processes (cluster shards, see :mod:`repro.cluster`), each
running the whole pipeline.

Cluster membership: a server started with ``shard_id``/``shard_count``
is one node of a hash cluster (see :mod:`repro.cluster`).  It hashes
anything, but *interns* only expressions whose root alpha-hash it owns
(``hash % shard_count == shard_id``) -- a foreign key is rejected with
409, checked on the hashes the intern pass computes but before anything
is interned, so a misrouted write can never silently split an
equivalence class across nodes.
"""

from __future__ import annotations

import json
import socket
import sys
import threading
import time
import uuid
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Optional
from urllib.parse import parse_qs, urlsplit

from repro.api import HashRequest, InternRequest, PlanError, Session
from repro.api.plan import arena_serves, resolve_backend
from repro.api.stream import StreamSession
from repro.core.incremental import PathError
from repro.core import native
from repro.core.arena import ENGINE_CHOICES, ExprArena
from repro.lang.sexpr import SexprError, from_wire
from repro.service.arena_body import (
    ARENA_CONTENT_TYPE,
    MAX_BODY_BYTES,
    ArenaBodyError,
    decode_body,
    unshared_items,
)
from repro.store import (
    Journal,
    JournalError,
    SnapshotError,
    apply_delta_bytes,
    content_checksum,
    delta_to_bytes,
    snapshot_from_bytes,
    snapshot_to_bytes,
)

__all__ = ["ReproServer", "serve"]


class _RequestError(Exception):
    """A client error carrying its HTTP status."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


def _decode_corpus(
    body, arena_runs: Callable[[dict], bool]
) -> tuple[dict, Optional[ExprArena], list]:
    """A corpus body as ``(payload, arena, roots)``: one fresh
    :class:`~repro.core.arena.ExprArena` and one root row per item, with
    no tree built; or, when ``arena_runs(payload)`` is false, ``(payload,
    None, items)``, one unshared tree per item.

    ``body`` is a parsed JSON object, which is its own payload, or the
    bytes of a ``repro-arena-v1`` body, decoded and validated, whose
    header is the payload.  Either way the payload carries the hints.  A
    JSON body's hints are known before its ``exprs`` wire documents are
    read, so they compile into the arena only when it runs them and
    otherwise parse with :func:`~repro.lang.sexpr.from_wire`; an arena
    body the arena does not run is rebuilt as trees
    (:func:`~repro.service.arena_body.unshared_items`).
    """
    if isinstance(body, dict):
        docs = _wire_docs(body)
        if not arena_runs(body):
            return body, None, [_parse_wire(from_wire, doc) for doc in docs]
        arena = ExprArena()
        return body, arena, _parse_wire(arena.extend_wire, docs)
    try:
        payload, arena, roots = decode_body(body)
    except ArenaBodyError as exc:
        raise _RequestError(400, f"malformed arena body: {exc}") from None
    if not arena_runs(payload):
        return payload, None, unshared_items(arena, roots)
    return payload, arena, roots


def _wire_docs(payload: dict) -> list:
    """A JSON corpus body's ``exprs``: its list of wire documents."""
    docs = payload.get("exprs")
    if not isinstance(docs, list):
        raise _RequestError(400, "body must carry an 'exprs' list")
    return docs


def _parse_wire(parse, source):
    """``parse(source)``, a malformed document answering 400."""
    try:
        return parse(source)
    except SexprError as exc:
        raise _RequestError(400, f"malformed expression: {exc}") from None


def _corpus_request(request_type, body, session: Session):
    """Lower a ``/v1/hash`` or ``/v1/intern`` body (either kind, see
    :func:`_decode_corpus`) into a request.

    A request the arena runs (:func:`~repro.api.plan.arena_serves`)
    carries the arena (:meth:`~repro.api.request.HashRequest.compiled`).
    Any other gets one unshared tree per item: a backend with its own
    pass may key values by node identity (``debruijn`` does), which
    shared subtrees would break.
    """

    def arena_runs(payload: dict) -> bool:
        hints = _request_hints(payload)
        backend = resolve_backend(session, hints.get("backend"))
        return arena_serves(session, request_type.kind, backend, hints.get("engine"))

    payload, arena, items = _decode_corpus(body, arena_runs)
    hints = _request_hints(payload)
    if arena is None:
        return request_type(items, **hints)
    return request_type.compiled(arena, items, **hints)


def _request_hints(payload: dict) -> dict:
    return {
        name: payload[name]
        for name in ("backend", "engine", "bits", "seed")
        if payload.get(name) is not None
    }


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"

    # -- plumbing --------------------------------------------------------------

    @property
    def service(self) -> "ReproServer":
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, fmt, *args):  # pragma: no cover - log plumbing
        if self.service.verbose:
            super().log_message(fmt, *args)

    def _send(self, status: int, body: bytes, content_type: str) -> None:
        # Error replies may be sent before the request body was read
        # (unknown route, oversized body); under HTTP/1.1 keep-alive the
        # unread bytes would be parsed as the next request line, so
        # close the connection instead of corrupting it.
        if status >= 400:
            self.close_connection = True
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, obj) -> None:
        body = json.dumps(obj, sort_keys=True).encode("utf-8")
        self._send(status, body, "application/json")

    def _read_body(self) -> bytes:
        length = int(self.headers.get("Content-Length") or 0)
        if length < 0:
            # rfile.read(-1) would wait for the client to close.
            raise _RequestError(400, f"negative Content-Length {length}")
        if length > MAX_BODY_BYTES:
            raise _RequestError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
        return self.rfile.read(length)

    def _read_json(self) -> dict:
        try:
            payload = json.loads(self._read_body())
        except (json.JSONDecodeError, RecursionError) as exc:
            raise _RequestError(400, f"malformed JSON body: {exc}") from None
        if not isinstance(payload, dict):
            raise _RequestError(400, "body must be a JSON object")
        return payload

    def _read_corpus(self):
        """A ``/v1/hash`` or ``/v1/intern`` body: the bytes of an arena
        body when its ``Content-Type`` says so, else a JSON object."""
        ctype = self.headers.get("Content-Type", "")
        if ctype.partition(";")[0].strip().lower() == ARENA_CONTENT_TYPE:
            return self._read_body()
        return self._read_json()

    def _dispatch(self, handler) -> None:
        try:
            handler()
        except _RequestError as exc:
            self._send_json(exc.status, {"error": str(exc)})
        except (PlanError, ValueError, KeyError, TypeError) as exc:
            self._send_json(400, {"error": f"{type(exc).__name__}: {exc}"})
        # repro-lint: allow[broad-except] reason=last-resort 500; the keep-alive handler thread must answer the client rather than die silently mid-exchange, and the fault is logged with method+path context before the response goes out
        except Exception as exc:  # pragma: no cover - defensive 500
            self.log_error(
                "unhandled %s while handling %s %s: %s",
                type(exc).__name__,
                self.command,
                self.path,
                exc,
            )
            self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})

    # -- routes ----------------------------------------------------------------

    def do_GET(self) -> None:
        # GET paths may carry a query string (/v1/snapshot/delta?since=N):
        # route on the bare path, stash the parsed query for the handler.
        split = urlsplit(self.path)
        self.query = parse_qs(split.query)
        routes = {
            "/v1/health": self._get_health,
            "/v1/stats": self._get_stats,
            "/v1/metrics": self._get_metrics,
            "/v1/snapshot": self._get_snapshot,
            "/v1/snapshot/delta": self._get_snapshot_delta,
            "/v1/session/report": self._get_session_report,
        }
        handler = routes.get(split.path)
        if handler is None:
            self._send_json(404, {"error": f"no such endpoint {self.path!r}"})
            return
        self._dispatch(handler)

    def do_POST(self) -> None:
        routes = {
            "/v1/hash": self._post_hash,
            "/v1/intern": self._post_intern,
            "/v1/snapshot": self._post_snapshot,
            "/v1/session/open": self._post_session_open,
            "/v1/session/edit": self._post_session_edit,
            "/v1/session/close": self._post_session_close,
        }
        handler = routes.get(self.path)
        if handler is None:
            self._send_json(404, {"error": f"no such endpoint {self.path!r}"})
            return
        self._dispatch(handler)

    def _get_health(self) -> None:
        service = self.service
        session = service.session
        body = {
            "ok": True,
            "backend": session.backend.name,
            "bits": session.combiners.bits,
            "seed": session.combiners.seed,
            "store": session.store is not None,
            "entries": len(session.store) if session.store else 0,
            "shard_id": service.shard_id,
            "shard_count": service.shard_count,
            "role": service.role,
        }
        if session.store is not None:
            body["version"] = session.store.version
        if service.follow is not None:
            body["following"] = service.follow
            body["follower"] = service.follower_status()
        if service.journal is not None:
            body["journal"] = {
                "directory": service.journal.directory,
                "version": service.journal.version,
                "segments": len(service.journal.segments()),
            }
        if session.store is not None and self.query.get("checksum"):
            # O(store) -- opt-in: the durability gates compare a node's
            # exact content across a crash/recovery boundary.
            with service.lock:
                body["content_checksum"] = content_checksum(session.store)
        self._send_json(200, body)

    def _get_stats(self) -> None:
        with self.service.lock:
            stats = self.service.session.stats()
        stats["requests_served"] = self.service.requests_served
        self._send_json(200, stats)

    def _get_metrics(self) -> None:
        service = self.service
        session = service.session
        with service.lock:
            stats = session.stats()
            sessions_block = service.session_metrics()
        store_stats = stats.get("store") or {}
        hits = store_stats.get("hits", 0)
        misses = store_stats.get("misses", 0)
        memo_hits = store_stats.get("memo_hits", 0)
        hashed = store_stats.get("hashed_nodes", 0)
        probes = hits + misses
        body = {
            "ok": True,
            "uptime_s": round(time.monotonic() - service.started_at, 3),
            "requests_served": service.requests_served,
            "backend": stats.get("backend"),
            "engine": stats.get("engine", "auto"),
            "kernel": native.kernel(),
            "compile_tier": native.compile_tier(),
            "shard_id": service.shard_id,
            "shard_count": service.shard_count,
            "sessions": sessions_block,
            "store": None,
        }
        if session.store is not None:
            body["store"] = {
                "entries": stats.get("entries", 0),
                "version": session.store.version,
                "counters": store_stats,
                # Probe rates: of the intern-table probes, how many
                # landed on a known class; of the summary work, how
                # much was answered from the memo.
                "intern_hit_rate": (hits / probes) if probes else None,
                "memo_hit_rate": (
                    memo_hits / (memo_hits + hashed)
                    if (memo_hits + hashed)
                    else None
                ),
            }
        self._send_json(200, body)

    def _get_snapshot_delta(self) -> None:
        service = self.service
        store = service.session.store
        if store is None:
            raise _RequestError(409, "this server runs without a store")
        raw = self.query.get("since", [])
        if len(raw) != 1:
            raise _RequestError(400, "exactly one 'since' parameter required")
        try:
            since = int(raw[0])
        except ValueError:
            raise _RequestError(
                400, f"'since' must be an integer, got {raw[0]!r}"
            ) from None
        try:
            with service.lock:
                data = delta_to_bytes(
                    store, since, meta={"backend": service.session.backend.name}
                )
        except SnapshotError as exc:
            raise _RequestError(409, f"bad delta window: {exc}") from None
        service.count_request()
        self._send(200, data, "application/octet-stream")

    def _get_snapshot(self) -> None:
        service = self.service
        store = service.session.store
        if store is None:
            raise _RequestError(409, "this server runs without a store")
        with service.lock:
            data = snapshot_to_bytes(
                store, meta={"backend": service.session.backend.name}
            )
        service.count_request()
        self._send(200, data, "application/octet-stream")

    def _post_snapshot(self) -> None:
        service = self.service
        store = service.session.store
        if store is None:
            raise _RequestError(409, "this server runs without a store")
        data = self._read_body()
        try:
            uploaded, header = snapshot_from_bytes(data)
        except SnapshotError as exc:
            raise _RequestError(400, f"bad snapshot: {exc}") from None
        with service.lock:
            mapping = store.merge_store(uploaded)
            entries = len(store)
            service.journal_commit()
        service.flush_checkpoint()
        service.count_request()
        self._send_json(
            200,
            {
                "merged_classes": len(mapping),
                "entries": entries,
                "uploaded_format": header.get("format"),
            },
        )

    def _post_hash(self) -> None:
        service = self.service
        request = _corpus_request(HashRequest, self._read_corpus(), service.session)
        with service.lock:
            plan = service.session.plan(request)
            hashes = service.session.execute(request, plan=plan)
        service.count_request()
        self._send_json(200, {"hashes": hashes, "plan": plan.as_dict()})

    def _post_intern(self) -> None:
        service = self.service
        request = _corpus_request(InternRequest, self._read_corpus(), service.session)
        store = service.session.store
        if store is None:
            raise _RequestError(409, "this server runs without a store")
        # A cluster node refuses foreign keys *before* anything lands
        # in the intern table; the check reads the root hashes the
        # intern pass computes anyway.
        check = self._refuse_foreign if service.shard_count is not None else None
        with service.lock:
            plan = service.session.plan(request)
            # Hashes come from the hashing pass, not an id lookup: on an
            # entry-bounded store an early root can already be evicted
            # again by the end of the batch.
            ids, hashes = service.session.intern_with_hashes(
                request, plan=plan, check=check
            )
            # Write-ahead durability: the batch's delta frame reaches
            # the journal (fsync'd) *before* this 200 is sent -- an
            # acked intern survives SIGKILL.  An append failure (disk
            # full) surfaces as a 500 and the un-acked window rides in
            # the next successful append.
            service.journal_commit()
            version = store.version
        service.flush_checkpoint()
        service.count_request()
        self._send_json(
            200,
            {
                "ids": ids,
                "hashes": hashes,
                "version": version,
                "plan": plan.as_dict(),
            },
        )

    def _refuse_foreign(self, hashes: list[int]) -> None:
        """409 unless this shard owns every root hash."""
        service = self.service
        foreign = [
            index
            for index, digest in enumerate(hashes)
            if digest % service.shard_count != service.shard_id
        ]
        if foreign:
            first = foreign[0]
            raise _RequestError(
                409,
                f"shard {service.shard_id}/{service.shard_count} "
                f"does not own {len(foreign)} of {len(hashes)} "
                f"items: item {first} (hash 0x{hashes[first]:x}) "
                f"belongs to shard "
                f"{hashes[first] % service.shard_count}",
            )

    # -- streaming edit sessions -----------------------------------------------

    def _post_session_open(self) -> None:
        payload = self._read_json()
        corpus = [_parse_wire(from_wire, doc) for doc in _wire_docs(payload)]
        hints = _request_hints(payload)
        ttl = payload.get("ttl")
        service = self.service
        with service.lock:
            state = service.open_session(corpus, hints, ttl)
            # Opening interns + pins the corpus roots on a standalone
            # node: journal them before the ack, like any intern batch.
            if state.stream.intern_classes:
                service.journal_commit()
        service.flush_checkpoint()
        service.count_request()
        stream = state.stream
        self._send_json(
            200,
            {
                "session": state.sid,
                "roots": stream.root_hashes,
                "items": stream.items,
                "nodes": stream.corpus_nodes,
                "ttl": state.ttl,
                "intern_classes": stream.intern_classes,
                "plan": stream.plan.as_dict() if stream.plan else None,
            },
        )

    def _post_session_edit(self) -> None:
        payload = self._read_json()
        item = payload.get("item")
        if not isinstance(item, int) or isinstance(item, bool):
            raise _RequestError(400, "'item' must be an integer index")
        path = payload.get("path")
        if not isinstance(path, list):
            raise _RequestError(400, "'path' must be a list of child indices")
        doc = payload.get("expr")
        if doc is None:
            raise _RequestError(400, "body must carry an 'expr' document")
        new_subexpr = _parse_wire(from_wire, doc)
        service = self.service
        with service.lock:
            state = service.get_session(payload.get("session"))
            try:
                report = state.stream.edit(item, path, new_subexpr)
            except (PathError, IndexError) as exc:
                # _dispatch maps ValueError/KeyError already, but bad
                # paths surface as (subclasses of) IndexError -- a
                # client mistake, not a server fault.
                raise _RequestError(400, f"bad edit target: {exc}") from None
            service.note_edit(state, report)
            if state.stream.intern_classes:
                service.journal_commit()
            store = service.session.store
            version = store.version if store is not None else None
        service.flush_checkpoint()
        service.count_request()
        body = report.as_dict()
        body["session"] = state.sid
        body["version"] = version
        self._send_json(200, body)

    def _get_session_report(self) -> None:
        raw = self.query.get("session", [])
        if len(raw) != 1:
            raise _RequestError(400, "exactly one 'session' parameter required")
        service = self.service
        with service.lock:
            state = service.get_session(raw[0])
            body = state.stream.report()
            body["session"] = state.sid
            body["ttl"] = state.ttl
            body["intern_classes"] = state.stream.intern_classes
        service.count_request()
        self._send_json(200, body)

    def _post_session_close(self) -> None:
        payload = self._read_json()
        service = self.service
        with service.lock:
            reply = service.close_session(payload.get("session"))
        service.count_request()
        self._send_json(200, reply)


class _FollowerLoop(threading.Thread):
    """Tail a primary's ``/v1/snapshot/delta`` on a poll loop.

    Each tick fetches the window ``(store.version, primary]`` and
    applies it under the server lock; applied deltas are re-journaled
    verbatim when the follower has a journal, so a follower crash
    recovers exactly like a primary crash.  Errors (primary down, delta
    gap) are recorded and retried next tick -- a follower outlives its
    primary and keeps serving whatever it has, which is what lets the
    coordinator promote it.
    """

    def __init__(self, service: "ReproServer", primary_url: str, poll: float):
        super().__init__(name="repro-follower", daemon=True)
        from repro.service.client import ServiceClient

        self.service = service
        self.primary_url = primary_url
        self.poll = poll
        self.client = ServiceClient(primary_url, timeout=30.0, retries=0)
        self.stop_event = threading.Event()
        self.synced_at: Optional[float] = None
        self.last_error: Optional[str] = None
        self.frames_applied = 0
        self.entries_applied = 0

    def run(self) -> None:
        from repro.service.client import ServiceError

        while not self.stop_event.is_set():
            try:
                self.sync_once()
            except (ServiceError, SnapshotError) as exc:
                self.last_error = str(exc)
            self.stop_event.wait(self.poll)

    def sync_once(self) -> dict:
        """One fetch-and-apply tick; also callable synchronously from
        tests.  Raises on an unreachable primary or an inapplicable
        delta."""
        service = self.service
        store = service.session.store
        data = self.client.fetch_delta(store.version)
        with service.lock:
            report = apply_delta_bytes(store, data)
            if report["applied"] and service.journal is not None:
                service.journal.append_bytes(data)
        self.synced_at = time.monotonic()
        self.last_error = None
        if report["applied"]:
            self.frames_applied += 1
            self.entries_applied += report["applied"]
        return report

    def stop(self) -> None:
        self.stop_event.set()
        self.client.close()


class _TrackingHTTPServer(ThreadingHTTPServer):
    """A ``ThreadingHTTPServer`` that can sever live connections.

    With HTTP/1.1 keep-alive, handler threads sit in a read loop on
    their connection socket; ``shutdown()`` only stops the *accept*
    loop, so a closed server would otherwise keep answering requests
    on already-open connections indefinitely.  ``server_close`` here
    shuts every tracked connection down so close means closed.
    """

    def __init__(self, *args, **kwargs):
        self._connections: set = set()
        self._conn_lock = threading.Lock()
        super().__init__(*args, **kwargs)

    def get_request(self):
        request, client_address = super().get_request()
        with self._conn_lock:
            self._connections.add(request)
        return request, client_address

    def shutdown_request(self, request):
        with self._conn_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def server_close(self):
        super().server_close()
        with self._conn_lock:
            connections = list(self._connections)
            self._connections.clear()
        for request in connections:
            try:
                request.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass


class _SessionState:
    """One live streaming edit session and its expiry bookkeeping."""

    __slots__ = ("sid", "stream", "ttl", "created", "last_used")

    def __init__(self, sid: str, stream: StreamSession, ttl: float):
        self.sid = sid
        self.stream = stream
        self.ttl = ttl
        self.created = time.monotonic()
        self.last_used = self.created


class ReproServer:
    """One session behind a threaded HTTP endpoint.

    Usable embedded (tests spin one up on an ephemeral port) or via the
    ``repro serve`` CLI::

        with ReproServer(port=0, max_entries=50_000) as server:
            client = ServiceClient(server.url)
            client.hash_corpus(corpus)

    ``session`` may be an existing session (shared store); otherwise
    keywords build a private one, closed with the server.

    ``shard_id``/``shard_count`` (both or neither) make this server a
    cluster shard node: ``/v1/intern`` rejects expressions whose root
    alpha-hash it does not own (``hash % shard_count != shard_id``).

    ``journal`` (a directory path or a :class:`~repro.store.Journal`)
    turns on write-ahead durability: the journal is replayed into the
    store on construction and every intern/merge batch appends its
    delta frame before the request is acknowledged.
    ``checkpoint_every`` (intern batches, 0 = never) periodically
    writes a full snapshot into the journal directory and GCs the
    segments it covers.

    ``follow`` (a primary's URL) makes this server a read replica: a
    poll loop tails the primary's ``/v1/snapshot/delta`` every
    ``poll_interval`` seconds.  A follower still answers every
    endpoint (it can be promoted), and with a journal it is itself
    crash-durable.

    ``max_sessions`` bounds the streaming-session registry (429 past
    it); ``session_ttl`` is the idle expiry in seconds -- a client
    ``ttl`` may shorten it per session but never extend it.
    """

    def __init__(
        self,
        session: Optional[Session] = None,
        host: str = "127.0.0.1",
        port: int = 8655,
        verbose: bool = False,
        shard_id: Optional[int] = None,
        shard_count: Optional[int] = None,
        journal=None,
        checkpoint_every: int = 0,
        follow: Optional[str] = None,
        poll_interval: float = 0.5,
        max_sessions: int = 64,
        session_ttl: float = 600.0,
        **session_kwargs,
    ):
        if session is not None and session_kwargs:
            raise TypeError(
                "pass either an existing session or Session keywords, not both"
            )
        if (shard_id is None) != (shard_count is None):
            raise ValueError("shard_id and shard_count go together")
        if shard_count is not None:
            if shard_count < 1:
                raise ValueError(f"shard_count must be >= 1, got {shard_count}")
            if not 0 <= shard_id < shard_count:
                raise ValueError(
                    f"shard_id must be in [0, {shard_count}), got {shard_id}"
                )
        self.session = Session(**session_kwargs) if session is None else session
        self._owns_session = session is None
        self.verbose = verbose
        self.shard_id = shard_id
        self.shard_count = shard_count
        self.follow = follow
        self.poll_interval = poll_interval
        self.checkpoint_every = max(0, int(checkpoint_every))
        self._interns_since_checkpoint = 0
        #: (snapshot bytes, covered version) encoded under ``self.lock``
        #: by ``journal_commit``, written to disk outside the lock by
        #: ``flush_checkpoint``.  # guarded-by: lock
        self._pending_checkpoint: Optional[tuple[bytes, int]] = None
        self.journal: Optional[Journal] = (
            Journal(journal) if isinstance(journal, str) else journal
        )
        if self.journal is not None:
            if self.session.store is None:
                raise ValueError("a journal needs a store-backed session")
            #: Crash recovery happens before the listener exists: a
            #: request can never observe a half-replayed store.
            self.replay_report = self.journal.replay(self.session.store)
        else:
            self.replay_report = None
        if max_sessions < 1:
            raise ValueError(f"max_sessions must be >= 1, got {max_sessions}")
        if session_ttl <= 0:
            raise ValueError(f"session_ttl must be positive, got {session_ttl}")
        self.max_sessions = int(max_sessions)
        self.session_ttl = float(session_ttl)
        #: sid -> live streaming session; all access under ``self.lock``.
        self.sessions: dict[str, _SessionState] = {}  # guarded-by: lock
        #: Lifetime session counters; totals survive session close so
        #: /v1/metrics can report work already done, not just open state.
        self.session_totals = {  # guarded-by: lock
            "opened": 0,
            "closed": 0,
            "expired": 0,
            "rejected": 0,
            "edits": 0,
            "nodes_rehashed": 0,
            "corpus_nodes_edited": 0,
        }
        self.started_at = time.monotonic()
        #: Serialises store-touching work across handler threads.
        self.lock = threading.Lock()
        #: Serialises checkpoint disk writes across handler threads
        #: (``flush_checkpoint``).  Taken only after ``self.lock`` is
        #: released, never inside it, so checkpoint I/O still cannot
        #: stall the hot path.
        self._flush_lock = threading.Lock()
        #: Highest covered version already written to the checkpoint
        #: file; a flusher that stalled while a newer snapshot landed
        #: (and GC'd the segments between them) must skip its write,
        #: never replace the newer file.  # guarded-by: _flush_lock
        self._flushed_checkpoint_version = 0
        self.requests_served = 0  # guarded-by: lock
        self._httpd = _TrackingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.service = self  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None
        self._serving = False
        self._closed = False
        self._follower: Optional[_FollowerLoop] = None
        if follow is not None:
            if self.session.store is None:
                raise ValueError("a follower needs a store-backed session")
            self._follower = _FollowerLoop(self, follow, poll_interval)

    @property
    def role(self) -> str:
        if self.follow is not None:
            return "follower"
        return "shard" if self.shard_count is not None else "standalone"

    def follower_status(self) -> dict:
        loop = self._follower
        if loop is None:
            return {}
        return {
            "synced_at_age_s": (
                None
                if loop.synced_at is None
                else round(time.monotonic() - loop.synced_at, 3)
            ),
            "last_error": loop.last_error,
            "frames_applied": loop.frames_applied,
            "entries_applied": loop.entries_applied,
        }

    def sync_from_primary(self) -> dict:
        """One synchronous follower catch-up tick (tests, warm boot)."""
        if self._follower is None:
            raise ValueError("this server does not follow a primary")
        return self._follower.sync_once()

    def journal_commit(self) -> None:  # holds-lock: lock
        """Append the un-journaled window; caller holds ``self.lock``.

        When a periodic checkpoint comes due, only the snapshot
        *encode* happens here (it reads the store, so it needs the
        lock); the disk write is deferred to ``flush_checkpoint``,
        which the handler calls after releasing the lock.  Writing a
        multi-megabyte snapshot with fsync under the service lock
        would stall every other handler thread for the duration.
        """
        if self.journal is None:
            return
        self.journal.append_delta(self.session.store)
        if self.checkpoint_every:
            self._interns_since_checkpoint += 1
            if self._interns_since_checkpoint >= self.checkpoint_every:
                self._interns_since_checkpoint = 0
                self._pending_checkpoint = (
                    self.journal.encode_checkpoint(self.session.store),
                    self.session.store.version,
                )

    # repro-lint: allow[lock-blocking] reason=the flush lock exists to serialize checkpoint fsync+rename+GC among handler threads off the service lock; only concurrent flushers ever wait on it
    def flush_checkpoint(self) -> Optional[dict]:
        """Write any checkpoint ``journal_commit`` deferred; I/O off
        the service lock.

        Returns the journal GC report, or ``None`` if nothing was
        pending (or a newer checkpoint already reached disk).  Crash-
        safe at every interleaving: the pending bytes are a prefix of
        the already-fsync'd journal, so losing them merely means the
        next recovery replays a few more frames.  Concurrent flushers
        are serialized by ``_flush_lock``, and version-ordered: a
        flusher that swapped out checkpoint vN, stalled while another
        wrote vM > N (whose GC dropped the segments covering (N, M]),
        then woke up, must not ``os.replace`` the newer snapshot with
        its stale one -- recovery would start from vN with the frames
        to reach vM already deleted.
        """
        with self.lock:
            pending, self._pending_checkpoint = self._pending_checkpoint, None
        if pending is None or self.journal is None:
            return None
        data, covered_version = pending
        with self._flush_lock:
            if covered_version <= self._flushed_checkpoint_version:
                return None
            report = self.journal.write_checkpoint(data, covered_version)
            self._flushed_checkpoint_version = covered_version
            return report

    def count_request(self) -> None:
        with self.lock:
            self.requests_served += 1

    # -- streaming session registry (all methods: caller holds self.lock) ------

    def _sweep_sessions(self) -> None:  # holds-lock: lock
        """Expire sessions idle past their TTL (unpins their classes)."""
        now = time.monotonic()
        expired = [
            sid
            for sid, state in self.sessions.items()
            if now - state.last_used > state.ttl
        ]
        for sid in expired:
            self.sessions.pop(sid).stream.close()
            self.session_totals["expired"] += 1

    def open_session(self, corpus, hints, ttl) -> _SessionState:  # holds-lock: lock
        self._sweep_sessions()
        if len(self.sessions) >= self.max_sessions:
            self.session_totals["rejected"] += 1
            raise _RequestError(
                429,
                f"session registry full ({self.max_sessions} open); "
                "close a session or retry later",
            )
        if ttl is None:
            ttl = self.session_ttl
        else:
            try:
                ttl = float(ttl)
            except (TypeError, ValueError):
                raise _RequestError(400, f"bad ttl {ttl!r}") from None
            if ttl <= 0:
                raise _RequestError(400, "ttl must be positive")
            ttl = min(ttl, self.session_ttl)
        # Shard-identity nodes refuse foreign classes and followers
        # never write their primary's id space: both stream in
        # hash-only mode.  Only a standalone store interns + pins.
        intern = self.session.store is not None and self.role == "standalone"
        stream = StreamSession(
            corpus, session=self.session, intern_classes=intern, hints=hints
        )
        sid = uuid.uuid4().hex[:16]
        state = _SessionState(sid, stream, ttl)
        self.sessions[sid] = state
        self.session_totals["opened"] += 1
        return state

    def get_session(self, sid) -> _SessionState:  # holds-lock: lock
        self._sweep_sessions()
        state = self.sessions.get(sid) if isinstance(sid, str) else None
        if state is None:
            raise _RequestError(
                409, f"unknown or expired session {sid!r}: reopen and replay"
            )
        state.last_used = time.monotonic()
        return state

    def note_edit(self, state: _SessionState, report) -> None:  # holds-lock: lock
        totals = self.session_totals
        totals["edits"] += 1
        totals["nodes_rehashed"] += report.nodes_rehashed
        totals["corpus_nodes_edited"] += state.stream.corpus_nodes

    def close_session(self, sid) -> dict:  # holds-lock: lock
        state = self.get_session(sid)
        del self.sessions[sid]
        state.stream.close()
        self.session_totals["closed"] += 1
        return {"closed": True, "session": state.sid, "edits": state.stream.edits}

    def session_metrics(self) -> dict:  # holds-lock: lock
        """The ``sessions`` block of ``/v1/metrics``.

        ``rehash_ratio`` is total nodes rehashed over the corpus nodes
        that *could* have been rehashed (corpus size summed per edit):
        the fleet-level O(spine)/O(corpus) receipt, tiny when
        incremental hashing is winning.
        """
        totals = self.session_totals
        pool = totals["corpus_nodes_edited"]
        store = self.session.store
        return {
            "open": len(self.sessions),
            "max": self.max_sessions,
            "ttl_s": self.session_ttl,
            "opened": totals["opened"],
            "closed": totals["closed"],
            "expired": totals["expired"],
            "rejected": totals["rejected"],
            "edits_served": totals["edits"],
            "nodes_rehashed": totals["nodes_rehashed"],
            "corpus_nodes_edited": pool,
            "rehash_ratio": (
                totals["nodes_rehashed"] / pool if pool else None
            ),
            "pinned_nodes": store.pinned_count if store is not None else 0,
        }

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ReproServer":
        """Serve on a daemon thread; returns immediately."""
        if self._thread is None:
            self._serving = True
            self._start_follower()
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="repro-serve",
                daemon=True,
            )
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted."""
        self._serving = True
        self._start_follower()
        self._httpd.serve_forever()

    def _start_follower(self) -> None:
        if self._follower is not None and not self._follower.is_alive():
            self._follower.start()

    def close(self) -> None:
        """Stop serving, release the socket (and session, if owned).

        Idempotent, and safe on a server whose accept loop never ran
        (``ThreadingHTTPServer.shutdown`` would otherwise block forever
        waiting for a loop that isn't there) -- so signal handlers,
        ``finally`` blocks and context managers can all call it without
        coordination.
        """
        if self._closed:
            return
        self._closed = True
        if self._follower is not None and self._follower.is_alive():
            self._follower.stop()
            self._follower.join(timeout=5)
        if self._serving:
            self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        with self.lock:
            for state in self.sessions.values():
                state.stream.close()
            self.sessions.clear()
        # A checkpoint that came due on the very last request would
        # otherwise be lost to the deferred-write scheme.
        self.flush_checkpoint()
        if self.journal is not None:
            self.journal.close()
        if self._owns_session:
            self.session.close()

    #: ``shutdown`` reads better at call sites that hold a server they
    #: did not start (signal handlers, supervisors); same semantics.
    shutdown = close

    def __enter__(self) -> "ReproServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()


def serve(argv=None) -> int:
    """The ``repro serve`` entry point (see :mod:`repro.cli`)."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Serve a Session over HTTP/JSON: hash/intern corpora "
        "remotely, download the warm store as a snapshot, upload and merge "
        "client snapshots.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8655)
    parser.add_argument(
        "--backend", default="ours", help="unified-registry backend name"
    )
    parser.add_argument("--bits", type=int, default=64)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--engine", choices=ENGINE_CHOICES, default=None
    )
    parser.add_argument(
        "--load", metavar="PATH", help="warm-start from a store snapshot"
    )
    parser.add_argument(
        "--shard-id",
        type=int,
        default=None,
        help="this node's shard index within a hash cluster",
    )
    parser.add_argument(
        "--shard-count",
        type=int,
        default=None,
        help="total shards in the cluster (intern requests whose root "
        "hash this node does not own are rejected with 409)",
    )
    parser.add_argument(
        "--journal",
        metavar="DIR",
        help="write-ahead journal directory: every intern batch appends a "
        "checksummed delta frame before it is acknowledged, and the store "
        "is recovered from DIR (checkpoint + replay) on boot",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        metavar="N",
        help="with --journal: snapshot the store into the journal "
        "directory every N intern batches and GC covered segments "
        "(0 = never)",
    )
    parser.add_argument(
        "--follow",
        metavar="URL",
        help="run as a read replica tailing URL's /v1/snapshot/delta",
    )
    parser.add_argument(
        "--poll-interval",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="replica poll period for --follow (default 0.5)",
    )
    parser.add_argument(
        "--max-sessions",
        type=int,
        default=64,
        metavar="N",
        help="cap on concurrently open streaming edit sessions "
        "(/v1/session/open answers 429 past it; default 64)",
    )
    parser.add_argument(
        "--session-ttl",
        type=float,
        default=600.0,
        metavar="SECONDS",
        help="idle expiry for streaming sessions (default 600)",
    )
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    if args.journal and args.load:
        parser.error(
            "--journal recovers the store from its own checkpoint; "
            "drop --load (copy the snapshot into DIR as checkpoint.snap "
            "to seed a journaled node)"
        )
    if args.checkpoint_every and not args.journal:
        parser.error("--checkpoint-every needs --journal")

    def refuse(path: str, exc: Exception) -> int:
        # A store or journal the loaders refuse ends start-up with one
        # line; replay runs before the listener exists, so no port is
        # bound.
        if journal is not None:
            journal.close()
        print(f"repro serve: {path}: {exc}", file=sys.stderr)
        return 1

    journal = None
    checkpoint_bytes = None
    if args.journal:
        try:
            journal = Journal(args.journal)
        except JournalError as exc:
            return refuse(args.journal, exc)
        checkpoint_bytes = journal.load_checkpoint_bytes()

    if checkpoint_bytes is not None:
        if args.bits != 64 or args.seed is not None:
            parser.error(
                "--journal takes bits/seed/store shape from its checkpoint; "
                "drop --bits/--seed"
            )
        try:
            session = Session.from_snapshot_bytes(checkpoint_bytes, backend=args.backend)
        except SnapshotError as exc:
            return refuse(journal.checkpoint_path, exc)
    elif args.load:
        if args.bits != 64 or args.seed is not None:
            parser.error(
                "--load takes bits/seed/store shape from the snapshot; "
                "drop --bits/--seed"
            )
        try:
            session = Session.load(args.load, backend=args.backend)
        except SnapshotError as exc:
            return refuse(args.load, exc)
    else:
        session = Session(backend=args.backend, bits=args.bits, seed=args.seed)
    if args.engine is not None:
        # The engine is not store shape: an explicit --engine overrides
        # a snapshot's saved default rather than being ignored.
        session.config = replace(session.config, engine=args.engine)
    try:
        server = ReproServer(
            session,
            host=args.host,
            port=args.port,
            verbose=args.verbose,
            shard_id=args.shard_id,
            shard_count=args.shard_count,
            journal=journal,
            checkpoint_every=args.checkpoint_every,
            follow=args.follow,
            poll_interval=args.poll_interval,
            max_sessions=args.max_sessions,
            session_ttl=args.session_ttl,
        )
    except (SnapshotError, JournalError) as exc:
        session.close()
        return refuse(args.journal, exc)
    entries = len(session.store) if session.store is not None else 0
    shard = (
        f", shard {args.shard_id}/{args.shard_count}"
        if args.shard_count is not None
        else ""
    )
    extras = ""
    if server.replay_report is not None:
        extras += (
            f", journal replayed {server.replay_report['applied']} entries "
            f"to v{server.replay_report['version']}"
        )
    if args.follow:
        extras += f", following {args.follow}"
    print(
        f"repro serve: {server.url} (backend={session.backend.name}, "
        f"bits={session.combiners.bits}, {entries} warm entries{shard}{extras})",
        flush=True,
    )

    # SIGTERM (supervisors, CI teardown) exits through the same clean
    # path as Ctrl-C: the accept loop unwinds and the socket is
    # released.  No leaked listeners.
    import signal

    def _on_sigterm(signum, frame):
        raise KeyboardInterrupt

    installed = False
    try:
        previous = signal.signal(signal.SIGTERM, _on_sigterm)
        installed = True
    except ValueError:  # pragma: no cover - not the main thread
        pass
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        if installed and previous is not None:
            signal.signal(signal.SIGTERM, previous)
        server.close()
        session.close()
    return 0
