"""A thin stdlib client for the ``repro serve`` endpoint.

Mirrors the session surface over HTTP/JSON::

    client = ServiceClient("http://127.0.0.1:8655")
    client.hash_corpus(corpus)             # bit-identical to local hashing
    client.intern_many(corpus)             # node ids on the server store
    client.stats()                         # the server session's stats()

    data = client.fetch_snapshot()         # the warm store, snapshot bytes
    session = client.pull_session()        # ...rebuilt locally

    client.push_snapshot(local_session)    # merge local classes upstream

:meth:`ServiceClient.hash_corpus` and :meth:`~ServiceClient.intern_many`
flatten their corpus into one :class:`~repro.core.arena.ExprArena`
(identity and structural dedup, as a local session does) and send its
columns as a ``repro-arena-v1`` body (:mod:`repro.service.arena_body`):
no JSON value per node on either side, and the server hashes the arena
as it arrives -- the client needs no combiner state at all.  The
flatten runs the native compile walk when its library loaded (the
Python walk otherwise, to the same bytes), so building the body costs
the client little next to the round trip.  Session
calls, and :meth:`~ServiceClient.hash_wire` / :meth:`~ServiceClient.intern_wire`
given documents, send the flat postorder JSON documents of
:func:`repro.lang.sexpr.to_wire` instead.  Stores travel as the versioned
snapshot format; :meth:`push_snapshot` accepts raw bytes, a store, or
a session and merging preserves hashes bit-for-bit.

Connections are **persistent**: each thread of the client keeps one
``http.client.HTTPConnection`` alive across calls (the server speaks
HTTP/1.1 keep-alive), so a streaming-edit hot loop pays connection
setup once, not once per tiny request.  A keep-alive socket the server
closed between requests (restart, idle reap) is detected and replayed
once on a fresh connection *without* burning a retry -- the request
never reached a handler.  :meth:`ServiceClient.close` releases the
sockets; an unclosed client leaks nothing past process exit.

Transient failures -- connection refused/reset and 5xx replies -- are
retried with exponential backoff plus jitter, bounded by ``retries``
AND by ``deadline`` (a total wall-clock budget per public call: sleeps
are clamped to the remaining budget and no attempt starts after it is
spent, so exponential backoff can never exceed the caller's timeout).
Every endpoint here is idempotent (hashing is pure, interning and
snapshot merging converge to the same state on replay, and replaying a
subtree replacement at one path yields the same tree), so retrying
POSTs is safe.  4xx replies are the caller's fault and surface
immediately as :class:`ServiceError` with the status attached.

The client keeps a :attr:`ServiceClient.counters` dict (``requests``,
``retries``, ``failures``, ``deadline_exhausted``,
``connections_opened``) so tests and harnesses can assert exactly how
much failover work -- and how much connection churn -- a workload cost.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from typing import Iterable, Optional, Sequence, Union
from urllib.parse import urlsplit

from repro.core.arena import ExprArena
from repro.lang.expr import Expr
from repro.lang.sexpr import to_wire
from repro.service.arena_body import ARENA_CONTENT_TYPE, encode_body

__all__ = ["ServiceClient", "ServiceError"]


class ServiceError(RuntimeError):
    """An HTTP-level or server-reported failure, with its status code."""

    def __init__(self, message: str, status: Optional[int] = None):
        super().__init__(message)
        self.status = status


class ServiceClient:
    """Talk to one :class:`~repro.service.server.ReproServer`.

    ``retries`` bounds how many times a request is *re-sent* after a
    transient failure (0 disables retrying); ``backoff`` is the first
    delay in seconds, doubling per attempt and capped at
    ``max_backoff``, with each delay jittered to 50-100% of nominal so
    a fleet of clients does not retry in lockstep.

    ``deadline`` (seconds, ``None`` = unbounded) is the total budget
    one public call may spend across every attempt *including* backoff
    sleeps: per-attempt socket timeouts and sleeps are clamped to what
    remains, and once it is spent the call fails immediately with the
    last error instead of starting another attempt.  A caller with a
    10s deadline gets an answer or a :class:`ServiceError` within
    ~10s, whatever ``retries`` says.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 60.0,
        retries: int = 2,
        backoff: float = 0.1,
        max_backoff: float = 2.0,
        deadline: Optional[float] = None,
    ):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.backoff = backoff
        self.max_backoff = max_backoff
        if deadline is not None and deadline <= 0:
            raise ValueError(f"deadline must be positive, got {deadline}")
        self.deadline = deadline
        split = urlsplit(self.base_url)
        if split.scheme not in ("http", "https") or not split.hostname:
            raise ValueError(f"base_url must be http(s)://host[:port], got {base_url!r}")
        self._scheme = split.scheme
        self._host = split.hostname
        self._port = split.port
        self._path_prefix = split.path.rstrip("/")
        # One persistent connection per thread (the coordinator shares a
        # client across its fan-out pool), plus a registry so close()
        # can release every thread's socket.
        self._local = threading.local()
        self._conn_registry: list[http.client.HTTPConnection] = []
        self._registry_lock = threading.Lock()
        #: Failover accounting, cumulative over the client's lifetime:
        #: ``requests`` public calls issued, ``retries`` extra attempts
        #: after transient failures, ``failures`` calls that ultimately
        #: raised, ``deadline_exhausted`` calls cut short by the budget,
        #: ``connections_opened`` TCP connects (keep-alive means this
        #: stays far below ``requests``).
        self.counters = {
            "requests": 0,
            "retries": 0,
            "failures": 0,
            "deadline_exhausted": 0,
            "connections_opened": 0,
        }

    # -- connection management -------------------------------------------------

    def _connection(
        self, timeout: float
    ) -> tuple[http.client.HTTPConnection, bool]:
        """This thread's persistent connection (fresh flag True when it
        was just opened, i.e. it cannot be a stale keep-alive socket)."""
        conn = getattr(self._local, "conn", None)
        if conn is not None and conn.sock is not None:
            return conn, False
        cls = (
            http.client.HTTPSConnection
            if self._scheme == "https"
            else http.client.HTTPConnection
        )
        conn = cls(self._host, self._port, timeout=timeout)
        self._local.conn = conn
        with self._registry_lock:
            self._conn_registry.append(conn)
        self.counters["connections_opened"] += 1
        return conn, True

    def _drop_connection(self) -> None:
        """Close and forget this thread's connection (after an error or
        a server ``Connection: close``); the next request reconnects."""
        conn = getattr(self._local, "conn", None)
        if conn is None:
            return
        self._local.conn = None
        with self._registry_lock:
            try:
                self._conn_registry.remove(conn)
            except ValueError:
                pass
        try:
            conn.close()
        except OSError:  # pragma: no cover - close never matters
            pass

    def close(self) -> None:
        """Release every thread's persistent connection (idempotent)."""
        with self._registry_lock:
            conns, self._conn_registry = list(self._conn_registry), []
        for conn in conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- plumbing --------------------------------------------------------------

    def _sleep_before_retry(
        self, attempt: int, deadline_at: Optional[float]
    ) -> bool:
        """Back off before attempt ``attempt + 1``; False if the budget
        is already too tight for another attempt to be worth starting."""
        delay = min(self.max_backoff, self.backoff * (2**attempt))
        delay *= 0.5 + random.random() * 0.5
        if deadline_at is not None:
            remaining = deadline_at - time.monotonic()
            if remaining <= delay:
                return False
            delay = min(delay, remaining)
        time.sleep(delay)
        return True

    def _attempt_timeout(self, deadline_at: Optional[float]) -> float:
        if deadline_at is None:
            return self.timeout
        return max(0.001, min(self.timeout, deadline_at - time.monotonic()))

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        content_type: str = "application/json",
    ) -> tuple[int, bytes, str]:
        self.counters["requests"] += 1
        deadline_at = (
            None if self.deadline is None else time.monotonic() + self.deadline
        )

        def _fail(error: ServiceError, spent: bool = False):
            self.counters["failures"] += 1
            if spent:
                self.counters["deadline_exhausted"] += 1
            raise error from None

        def _spent(error: ServiceError) -> ServiceError:
            return ServiceError(
                f"{error} (deadline {self.deadline}s exhausted)",
                status=error.status,
            )

        def _retry_or_fail(attempt: int, error: ServiceError) -> bool:
            """True to go around again; raises when attempts or budget
            are spent."""
            if attempt >= self.retries:
                _fail(error)
            if deadline_at is not None and time.monotonic() >= deadline_at:
                _fail(_spent(error), spent=True)
            if not self._sleep_before_retry(attempt, deadline_at):
                _fail(_spent(error), spent=True)
            self.counters["retries"] += 1
            return True

        attempt = 0
        free_replay = True
        while True:
            timeout_s = self._attempt_timeout(deadline_at)
            conn, fresh = self._connection(timeout_s)
            conn.timeout = timeout_s
            if conn.sock is not None:
                conn.sock.settimeout(timeout_s)
            try:
                headers = {}
                if body is not None:
                    headers["Content-Type"] = content_type
                conn.request(
                    method, self._path_prefix + path, body=body, headers=headers
                )
                resp = conn.getresponse()
                data = resp.read()
                status = resp.status
                ctype = resp.headers.get("Content-Type", "")
                if resp.will_close:
                    # Server asked for Connection: close (it does on
                    # every error reply); honor it, reconnect next call.
                    self._drop_connection()
                if status < 400:
                    return status, data, ctype
                try:
                    message = json.loads(data).get("error", "")
                except (json.JSONDecodeError, AttributeError):
                    message = data.decode("utf-8", "replace")
                error = ServiceError(
                    f"{method} {path} -> {status}: {message}",
                    status=status,
                )
                if status < 500:
                    _fail(error)
            except TimeoutError:
                # The socket state is unknowable after a timeout; drop
                # it rather than risk reading a late stale reply.
                self._drop_connection()
                error = ServiceError(
                    f"{method} {path} timed out after {self.timeout}s"
                )
            except (OSError, http.client.HTTPException) as exc:
                self._drop_connection()
                if (
                    not fresh
                    and free_replay
                    and isinstance(
                        exc,
                        (
                            http.client.RemoteDisconnected,
                            http.client.BadStatusLine,
                            ConnectionResetError,
                            BrokenPipeError,
                        ),
                    )
                ):
                    # A reused keep-alive socket the server closed
                    # between requests: the request never reached a
                    # handler, so replay it immediately on a fresh
                    # connection without consuming a retry.
                    free_replay = False
                    continue
                # Connection refused/reset mid-exchange (server gone,
                # fault proxy cutting a body): normal retry path.
                error = ServiceError(f"{method} {path} failed: {exc!r}")
            _retry_or_fail(attempt, error)
            attempt += 1

    def _json(self, method: str, path: str, payload: Optional[dict] = None):
        body = (
            None
            if payload is None
            else json.dumps(
                payload, separators=(",", ":"), sort_keys=True
            ).encode("utf-8")
        )
        _status, data, _ctype = self._request(method, path, body)
        return json.loads(data)

    def _post_corpus(self, path: str, body: bytes):
        """POST a ``repro-arena-v1`` body; the decoded JSON reply."""
        _status, data, _ctype = self._request("POST", path, body, ARENA_CONTENT_TYPE)
        return json.loads(data)

    @staticmethod
    def _corpus_payload(exprs: Iterable[Expr], hints: dict) -> bytes:
        """``exprs`` flattened into one arena (:meth:`ExprArena.flatten
        <repro.core.arena.ExprArena.flatten>`, native when loaded), as a
        ``repro-arena-v1`` body carrying ``hints`` (those not ``None``)."""
        arena = ExprArena()
        return encode_body(arena, arena.flatten(exprs), hints)

    # -- the session surface, remotely -----------------------------------------

    def health(self, checksum: bool = False) -> dict:
        """Liveness probe; ``checksum=True`` asks the server to include
        its order-free store content fingerprint (crash-recovery gate)."""
        path = "/v1/health?checksum=1" if checksum else "/v1/health"
        return self._json("GET", path)

    def stats(self) -> dict:
        return self._json("GET", "/v1/stats")

    def metrics(self) -> dict:
        """The server's operational metrics (uptime, rates, occupancy)."""
        return self._json("GET", "/v1/metrics")

    def hash_corpus(
        self,
        exprs: Iterable[Expr],
        *,
        backend: Optional[str] = None,
        engine: Optional[str] = None,
        with_plan: bool = False,
    ) -> Union[list[int], tuple[list[int], dict]]:
        """Root alpha-hashes of ``exprs``, computed by the server.

        Bit-identical to hashing locally at the server's combiner
        family; hints are planned server-side exactly like a local
        request.  ``with_plan=True`` also returns the server's resolved
        :class:`~repro.api.plan.ExecutionPlan` as a dict.
        """
        reply = self._post_corpus(
            "/v1/hash",
            self._corpus_payload(exprs, {"backend": backend, "engine": engine}),
        )
        if with_plan:
            return reply["hashes"], reply["plan"]
        return reply["hashes"]

    def intern_many(
        self,
        exprs: Iterable[Expr],
        *,
        engine: Optional[str] = None,
    ) -> list[int]:
        """Intern ``exprs`` into the server store; returns node ids."""
        reply = self._post_corpus(
            "/v1/intern", self._corpus_payload(exprs, {"engine": engine})
        )
        return reply["ids"]

    # -- streaming edit sessions -----------------------------------------------

    def session_open(
        self,
        exprs: Iterable[Expr],
        *,
        ttl: Optional[float] = None,
    ) -> dict:
        """Open a server-side :class:`~repro.api.stream.StreamSession`.

        Uploads the corpus once; the reply carries the session id, the
        root hashes and the resolved plan (always one tree pass,
        which warms the server's summary memo for the first edits).
        Stream edits with :meth:`session_edit`; the server holds the
        trees.
        """
        payload: dict = {"exprs": [to_wire(e) for e in exprs]}
        if ttl is not None:
            payload["ttl"] = ttl
        return self._json("POST", "/v1/session/open", payload)

    def session_edit(
        self,
        session_id: str,
        item: int,
        path: Sequence[int],
        new_subexpr: Expr,
    ) -> dict:
        """Replace ``item``'s subtree at ``path``; returns the server's
        :class:`~repro.api.stream.EditReport` dict plus the store
        version.  Replaying the same edit converges to the same tree,
        so the transport's retry policy stays safe here."""
        return self._json(
            "POST",
            "/v1/session/edit",
            {
                "session": session_id,
                "item": int(item),
                "path": [int(step) for step in path],
                "expr": to_wire(new_subexpr),
            },
        )

    def session_report(self, session_id: str) -> dict:
        """The session's running totals (edits, rehash ratio, pins)."""
        return self._json("GET", f"/v1/session/report?session={session_id}")

    def session_close(self, session_id: str) -> dict:
        """Close the session and unpin its classes server-side."""
        return self._json(
            "POST", "/v1/session/close", {"session": session_id}
        )

    def session_wire(self, verb: str, payload: dict) -> dict:
        """POST an already-encoded body to ``/v1/session/<verb>``.

        The cluster coordinator relays session traffic to the owning
        node without a decode/re-encode round trip.
        """
        return self._json("POST", f"/v1/session/{verb}", dict(payload))

    # -- wire-level passthrough (coordinator fan-out) --------------------------

    def hash_wire(
        self, docs: Union[list, bytes], hints: Optional[dict] = None
    ) -> dict:
        """POST an already-encoded corpus to ``/v1/hash``; the full reply
        (``hashes`` + ``plan``).

        ``docs`` is a list of wire documents, sent as a JSON body with
        ``hints`` as its keys, or the bytes of a ``repro-arena-v1`` body
        (:func:`~repro.service.arena_body.encode_body`), whose header
        carries the hints.  The cluster coordinator sends each shard its
        share as an arena body.
        """
        return self._post_wire("/v1/hash", docs, hints)

    def intern_wire(
        self, docs: Union[list, bytes], hints: Optional[dict] = None
    ) -> dict:
        """POST an already-encoded corpus to ``/v1/intern`` (documents or
        an arena body, as :meth:`hash_wire`)."""
        return self._post_wire("/v1/intern", docs, hints)

    def _post_wire(self, path: str, docs, hints: Optional[dict]) -> dict:
        if isinstance(docs, (bytes, bytearray)):
            if hints:
                raise TypeError("an arena body carries its hints in its header")
            return self._post_corpus(path, bytes(docs))
        payload = {"exprs": list(docs)}
        payload.update(hints or {})
        return self._json("POST", path, payload)

    # -- snapshots over the wire -----------------------------------------------

    def fetch_snapshot(self) -> bytes:
        """The server store as versioned snapshot bytes ("save")."""
        _status, data, _ctype = self._request("GET", "/v1/snapshot")
        return data

    def fetch_delta(self, since: int) -> bytes:
        """Delta bytes covering server interns newer than ``since``.

        ``since`` is a store version stamp, normally the replica's own
        ``store.version`` (0 means "everything").  Apply the result
        with :func:`repro.store.apply_delta_bytes`, or use
        :meth:`catch_up` for the full fetch-and-apply loop.
        """
        _status, data, _ctype = self._request(
            "GET", f"/v1/snapshot/delta?since={int(since)}"
        )
        return data

    def catch_up(self, target) -> dict:
        """Bring a local replica up to date with one delta fetch.

        ``target`` is a :class:`~repro.api.Session` or a store that was
        seeded from this server's snapshot (same id space).  Returns
        the apply report: ``{"applied", "skipped", "version"}``.
        """
        store = getattr(target, "store", target)
        if store is None:
            raise ValueError("target session has no store to catch up")
        from repro.store import apply_delta_bytes

        return apply_delta_bytes(store, self.fetch_delta(store.version))

    def download_snapshot(self, path: str) -> str:
        """Write :meth:`fetch_snapshot` to ``path``; returns ``path``."""
        with open(path, "wb") as handle:
            handle.write(self.fetch_snapshot())
        return path

    def pull_session(self):
        """A local warm :class:`~repro.api.Session` over the server store.

        Goes through :meth:`Session.from_snapshot_bytes`, so the server
        store arrives with its config (store bound, saved defaults)
        intact -- exactly like :meth:`Session.load` on a snapshot file.
        """
        from repro.api import Session

        return Session.from_snapshot_bytes(self.fetch_snapshot())

    def push_snapshot(self, source) -> dict:
        """Upload a store and merge it into the server's ("load").

        ``source`` may be snapshot bytes, anything with a
        ``snapshot``-compatible store (a :class:`~repro.api.Session`),
        or a store itself.  Hashes merge bit-identically; the reply
        reports how many classes arrived and the server's new entry
        count.
        """
        if isinstance(source, (bytes, bytearray)):
            data = bytes(source)
        else:
            from repro.store import snapshot_to_bytes

            store = getattr(source, "store", source)
            if store is None:
                raise ValueError("source session has no store to push")
            data = snapshot_to_bytes(store)
        _status, reply, _ctype = self._request(
            "POST", "/v1/snapshot", data, "application/octet-stream"
        )
        return json.loads(reply)

    def __repr__(self) -> str:  # pragma: no cover
        return f"ServiceClient({self.base_url!r})"
