"""The cluster front door: one endpoint, many shard nodes.

A :class:`ClusterCoordinator` speaks the same ``/v1`` wire protocol as
a single :class:`~repro.service.server.ReproServer`, so any client
(:class:`~repro.service.client.ServiceClient`, ``RemoteSession``, curl)
can point at a coordinator instead of a node and see *one* logical
store.  Behind it, work is partitioned across whole processes by the
paper's own invariant -- alpha-hashes are canonical and uniform:

* ``/v1/hash`` and ``/v1/intern`` take either corpus body a node takes
  (JSON documents or a ``repro-arena-v1`` body, see
  :mod:`repro.service.arena_body`) and compile it once into one arena
  and its roots, as a node does.  Every shard call then carries an
  arena body holding only the closure of that call's roots, renumbered
  (:func:`~repro.service.arena_body.closure_arena`).

* ``/v1/hash`` splits the roots into contiguous chunks and fans them
  out to the live shards concurrently.  Hashing is stateless and
  bit-identical on every node (same combiner family), so a chunk whose
  shard dies mid-request is simply replayed on another live shard.

* ``/v1/intern`` is two-phase: hash first (fan-out as above), then
  group the roots by owning shard (``root_hash % shard_count``) and
  send each group to its owner.  Ownership is not negotiable -- if the
  owner is down the coordinator answers **503 naming that shard**
  rather than silently interning the class somewhere it does not
  belong.  Returned ids are shard-local; the reply carries ``owners``
  so ``(owner, id)`` is globally unique.

* ``/v1/stats`` requires every shard and folds the per-shard store
  counters elementwise, so cluster totals are conserved sums of node
  counters.  ``/v1/metrics`` and ``/v1/health`` are best-effort and
  report down shards instead of failing.

* ``/v1/snapshot`` downloads every shard's snapshot and merges the
  union into one flat store -- bit-identical hashes, coordinator-local
  ids -- so "save the cluster" degenerates to the single-node flow.

* ``/v1/session/*`` (streaming edit sessions) is **sticky**: the open
  picks a live node (hashing is ownership-free, so any node can host
  a hash-only session) and every later edit/report/close for that
  session id is forwarded to the same node, where the session's hashers
  live.  Session state is in-process on its node, so it does not
  survive that node: if the owner dies (or the node expired the
  session), the coordinator drops the route and answers **409** --
  the client reopens with its current corpus and replays, exactly the
  TTL-expiry contract of a single node.

Failure policy: every shard call is bounded (client timeout + bounded
retries with backoff, all inside an optional per-request ``budget``),
and each node carries a circuit breaker -- a failure opens it for
``down_ttl`` seconds so subsequent requests fail fast, with half-open
health probes (at most one per ``probe_interval``) so a node that
comes back early rejoins on the next touch rather than after the full
TTL.  With replicas configured (nodes started with ``--follow``),
*reads* fail over to the freshest reachable replica transparently,
and a primary that stays down for a full ``down_ttl`` is replaced by
an in-sync replica (health version >= the last acknowledged write) as
the shard's write target -- promotion is sticky and never moves
ownership, only which node answers for it.  Nothing here blocks
unboundedly.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.server import ThreadingHTTPServer
from typing import Callable, Optional
from urllib.parse import parse_qs, urlsplit

from repro.cluster.topology import ClusterTopology
from repro.core.arena import ExprArena
from repro.core.combiners import HashCombiners
from repro.service.arena_body import closure_arena, encode_body
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import (
    _decode_corpus,
    _Handler,
    _request_hints,
    _RequestError,
)
from repro.store import snapshot_from_bytes, snapshot_to_bytes
from repro.store.store import ExprStore

__all__ = ["ClusterCoordinator", "cluster"]


def _shard_body(arena: ExprArena, roots: list[int], hints: dict) -> bytes:
    """The arena body one shard call carries: the closure of ``roots``."""
    return encode_body(*closure_arena(arena, roots), hints)


class _ShardNode:
    """One endpoint serving a shard's classes, plus its circuit breaker.

    The breaker is the classic three-state machine folded into two
    timestamps: closed (``down_until`` in the past), open (``down_until``
    in the future -- calls fail fast), and half-open (``next_probe_at``
    reached -- the next touch spends one cheap health probe instead of
    serving stale 503s for the rest of the TTL).
    """

    def __init__(
        self, shard: int, url: str, client: ServiceClient,
        probe_client: ServiceClient, role: str,
    ):
        self.shard = shard
        self.url = url
        self.client = client
        #: Short-timeout, zero-retry client for liveness probes only.
        self.probe_client = probe_client
        self.role = role  # "primary" | "replica"
        #: Monotonic deadline before which the node is presumed down.
        self.down_until = 0.0  # guarded-by: ClusterCoordinator.lock
        #: When the current outage started (None while up).
        self.down_since: Optional[float] = None  # guarded-by: ClusterCoordinator.lock
        #: Earliest moment a touch may spend a health probe on this node.
        self.next_probe_at = 0.0  # guarded-by: ClusterCoordinator.lock
        self.last_error: Optional[str] = None  # guarded-by: ClusterCoordinator.lock
        self.consecutive_failures = 0  # guarded-by: ClusterCoordinator.lock
        #: Up->down transitions (circuit-breaker opens), monotone.
        self.breaker_opens = 0  # guarded-by: ClusterCoordinator.lock
        #: Highest store version observed in any of this node's replies.
        self.version = 0

    @property
    def name(self) -> str:
        if self.role == "replica":
            return f"replica of shard {self.shard} ({self.url})"
        return f"shard {self.shard} ({self.url})"


class _ShardGroup:
    """A shard's replica set: configured primary first, then replicas.

    ``active`` indexes the node currently taking *writes*.  It starts at
    the configured primary and moves only by promotion (primary down for
    a full ``down_ttl`` with an in-sync replica available).  Promotion
    is sticky: a primary that comes back after its replacement has
    acknowledged writes is stale by definition, so it rejoins as a read
    candidate only, and re-seating it is an operator action.
    """

    def __init__(self, index: int, nodes: list[_ShardNode]):
        self.index = index
        self.nodes = nodes
        self.active = 0  # guarded-by: ClusterCoordinator.lock
        #: Highest version this coordinator has acknowledged a write at;
        #: the in-sync bar a replica must clear to be promotable.
        self.acked_version = 0  # guarded-by: ClusterCoordinator.lock
        #: Reads served by a non-active node because the active failed.
        self.failovers = 0  # guarded-by: ClusterCoordinator.lock
        self.promotions = 0  # guarded-by: ClusterCoordinator.lock

    @property
    def active_node(self) -> _ShardNode:
        return self.nodes[self.active]

    @property
    def replicas(self) -> list[_ShardNode]:
        return [n for i, n in enumerate(self.nodes) if i != self.active]


class _CoordinatorHandler(_Handler):
    """Coordinator routes over the node handler's HTTP plumbing."""

    server_version = "repro-cluster/1"

    @property
    def coordinator(self) -> "ClusterCoordinator":
        return self.server.service  # type: ignore[attr-defined]

    def do_GET(self) -> None:
        split = urlsplit(self.path)
        self.query = parse_qs(split.query)
        routes = {
            "/v1/health": self._get_health,
            "/v1/stats": self._get_stats,
            "/v1/metrics": self._get_metrics,
            "/v1/snapshot": self._get_snapshot,
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
        self._send_json(200, self.coordinator.health())

    def _get_stats(self) -> None:
        self._send_json(200, self.coordinator.folded_stats())

    def _get_metrics(self) -> None:
        self._send_json(200, self.coordinator.folded_metrics())

    def _get_snapshot(self) -> None:
        data = self.coordinator.merged_snapshot_bytes()
        self.coordinator.count_request()
        self._send(200, data, "application/octet-stream")

    def _compiled_corpus(self) -> tuple[ExprArena, list[int], dict]:
        """The corpus body, either kind, as ``(arena, roots, hints)``: the
        coordinator fans compiled rows out whatever the hints say."""
        payload, arena, roots = _decode_corpus(self._read_corpus(), lambda _payload: True)
        return arena, roots, _request_hints(payload)

    def _post_hash(self) -> None:
        coordinator = self.coordinator
        hashes, fanout = coordinator.hash_compiled(*self._compiled_corpus())
        coordinator.count_request()
        self._send_json(
            200,
            {
                "hashes": hashes,
                "plan": {
                    "cluster": {
                        "shard_count": coordinator.topology.num_shards,
                        "fanout": fanout,
                    }
                },
            },
        )

    def _post_intern(self) -> None:
        coordinator = self.coordinator
        ids, hashes, owners = coordinator.intern_compiled(*self._compiled_corpus())
        coordinator.count_request()
        self._send_json(
            200,
            {
                "ids": ids,
                "hashes": hashes,
                "owners": owners,
                "plan": {
                    "cluster": {
                        "shard_count": coordinator.topology.num_shards,
                        "groups": len(set(owners)),
                    }
                },
            },
        )

    # -- streaming edit sessions (sticky routing) ------------------------------

    def _post_session_open(self) -> None:
        payload = self._read_json()
        coordinator = self.coordinator
        reply, node = coordinator.session_open_wire(payload)
        coordinator.count_request()
        reply["node"] = node.url
        reply["shard"] = node.shard
        self._send_json(200, reply)

    def _post_session_edit(self) -> None:
        payload = self._read_json()
        reply = self.coordinator.session_forward(
            "edit", payload.get("session"), payload
        )
        self.coordinator.count_request()
        self._send_json(200, reply)

    def _post_session_close(self) -> None:
        payload = self._read_json()
        reply = self.coordinator.session_forward(
            "close", payload.get("session"), payload
        )
        self.coordinator.count_request()
        self._send_json(200, reply)

    def _get_session_report(self) -> None:
        raw = self.query.get("session", [])
        if len(raw) != 1:
            raise _RequestError(400, "exactly one 'session' parameter required")
        reply = self.coordinator.session_forward("report", raw[0], None)
        self.coordinator.count_request()
        self._send_json(200, reply)


class ClusterCoordinator:
    """Route one logical store's traffic across shard nodes.

    Usable embedded (tests) or via ``repro cluster serve``::

        with ClusterCoordinator([node0.url, node1.url], port=0) as coord:
            client = ServiceClient(coord.url)
            client.hash_corpus(corpus)    # fans out, bit-identical
            client.intern_many(corpus)    # routed to owning shards
    """

    def __init__(
        self,
        shard_urls,
        host: str = "127.0.0.1",
        port: int = 8656,
        *,
        replicas=None,
        timeout: float = 30.0,
        retries: int = 2,
        backoff: float = 0.1,
        down_ttl: float = 2.0,
        budget: Optional[float] = None,
        probe_interval: float = 0.25,
        verbose: bool = False,
    ):
        if budget is not None and budget <= 0:
            raise ValueError(f"budget must be > 0 seconds, got {budget}")
        self.topology = ClusterTopology(shard_urls, replicas=replicas)
        self.verbose = verbose
        self.down_ttl = down_ttl
        #: Total wall-clock allowance per incoming request: every retry,
        #: failover hop and promotion probe must fit inside it.
        self.budget = budget
        self.probe_interval = probe_interval

        def _node(shard: int, url: str, role: str) -> _ShardNode:
            return _ShardNode(
                shard,
                url,
                ServiceClient(
                    url,
                    timeout=timeout,
                    retries=retries,
                    backoff=backoff,
                    deadline=budget,
                ),
                ServiceClient(url, timeout=min(1.0, timeout), retries=0),
                role,
            )

        self.groups = [
            _ShardGroup(
                index,
                [_node(index, url, "primary")]
                + [
                    _node(index, r, "replica")
                    for r in self.topology.replicas_of(index)
                ],
            )
            for index, url in enumerate(self.topology)
        ]
        #: Every node in the cluster, primaries and replicas alike --
        #: the candidate pool for ownership-free work (hashing).
        self.nodes = [node for group in self.groups for node in group.nodes]
        self.lock = threading.Lock()
        self.requests_served = 0  # guarded-by: lock
        #: sid -> node hosting that streaming session (sticky: the
        #: session's hashers live in that node's process).
        self.session_routes: dict[str, _ShardNode] = {}  # guarded-by: lock
        self._session_rr = 0  # guarded-by: lock
        #: Sessions dropped because their node died or expired them.
        self.sessions_lost = 0  # guarded-by: lock
        self.started_at = time.monotonic()
        self._pool = ThreadPoolExecutor(
            max_workers=max(4, 2 * len(self.nodes)),
            thread_name_prefix="repro-cluster",
        )
        self._httpd = ThreadingHTTPServer((host, port), _CoordinatorHandler)
        self._httpd.daemon_threads = True
        self._httpd.service = self  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None
        self._serving = False
        self._closed = False

    # -- lifecycle (mirrors ReproServer) ---------------------------------------

    def count_request(self) -> None:
        with self.lock:
            self.requests_served += 1

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ClusterCoordinator":
        if self._thread is None:
            self._serving = True
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="repro-cluster-serve",
                daemon=True,
            )
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        self._serving = True
        self._httpd.serve_forever()

    def close(self) -> None:
        """Stop serving and release the socket; idempotent."""
        if self._closed:
            return
        self._closed = True
        if self._serving:
            self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        self._pool.shutdown(wait=False, cancel_futures=True)
        for node in self.nodes:
            node.client.close()
            node.probe_client.close()

    shutdown = close

    def __enter__(self) -> "ClusterCoordinator":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- node liveness / circuit breakers --------------------------------------

    def _usable(self, node: _ShardNode) -> bool:
        """Is the node worth sending a request to right now?

        A node inside its down-TTL is normally skipped (breaker open,
        fail fast), but once per ``probe_interval`` a touch spends one
        cheap health probe instead -- so a node that comes back early is
        back in rotation on the next touch, not after the full TTL.
        """
        now = time.monotonic()
        if node.down_until <= now:
            return True
        if now < node.next_probe_at:
            return False
        with self.lock:
            if now < node.next_probe_at:  # lost the probe race
                return False
            node.next_probe_at = now + self.probe_interval
        try:
            reply = node.probe_client.health()
        except ServiceError:
            return False
        self._note_version(node, reply.get("version"))
        self._mark_up(node)
        return True

    def _mark_down(self, node: _ShardNode, exc: Exception) -> None:
        with self.lock:
            now = time.monotonic()
            if node.down_since is None:
                node.down_since = now
                node.breaker_opens += 1
            node.consecutive_failures += 1
            node.down_until = now + self.down_ttl
            node.next_probe_at = now + self.probe_interval
            node.last_error = str(exc)

    def _mark_up(self, node: _ShardNode) -> None:
        if node.down_until or node.last_error or node.down_since is not None:
            with self.lock:
                node.down_until = 0.0
                node.down_since = None
                node.next_probe_at = 0.0
                node.consecutive_failures = 0
                node.last_error = None

    def _note_version(self, node: _ShardNode, version) -> None:
        if isinstance(version, int):
            node.version = max(node.version, version)

    def _call(self, node: _ShardNode, fn: Callable[[ServiceClient], object]):
        """Run ``fn(node.client)``, folding the outcome into liveness.

        A connection failure or 5xx marks the node down for
        ``down_ttl`` (so the *next* request fails fast instead of
        re-probing a corpse); 4xx is the shard answering fine and
        disagreeing, which is not a liveness signal.
        """
        try:
            result = fn(node.client)
        except ServiceError as exc:
            if exc.status is None or exc.status >= 500:
                self._mark_down(node, exc)
            raise
        self._mark_up(node)
        if isinstance(result, dict):
            self._note_version(node, result.get("version"))
        return result

    @staticmethod
    def _is_liveness_failure(exc: ServiceError) -> bool:
        return exc.status is None or exc.status >= 500

    # -- request budget --------------------------------------------------------

    def _deadline(self) -> Optional[float]:
        """The absolute budget deadline for a request starting now."""
        return None if self.budget is None else time.monotonic() + self.budget

    @staticmethod
    def _budget_spent(deadline_at: Optional[float]) -> bool:
        return deadline_at is not None and time.monotonic() >= deadline_at

    # -- read failover ---------------------------------------------------------

    def _read_order(self, group: _ShardGroup) -> list[_ShardNode]:
        """Read candidates: active first, then replicas freshest-first."""
        replicas = sorted(
            group.replicas, key=lambda n: n.version, reverse=True
        )
        return [group.active_node] + replicas

    def _call_group(
        self,
        group: _ShardGroup,
        fn: Callable[[ServiceClient], object],
        deadline_at: Optional[float] = None,
    ):
        """A *read* against one shard, failing over across its replica
        set.  Liveness failures move to the next freshest node; a node
        answering with a 4xx is the authoritative answer and re-raises.
        Raises the last liveness error once every candidate (or the
        budget) is exhausted.
        """
        last_exc: Optional[ServiceError] = None
        for node in self._read_order(group):
            if self._budget_spent(deadline_at):
                break
            if not self._usable(node):
                continue
            try:
                result = self._call(node, fn)
            except ServiceError as exc:
                if not self._is_liveness_failure(exc):
                    raise
                last_exc = exc
                continue
            if node is not group.active_node:
                with self.lock:
                    group.failovers += 1
            return result
        if last_exc is not None:
            raise last_exc
        raise ServiceError(
            f"shard {group.index}: no node reachable "
            f"({'budget exhausted' if self._budget_spent(deadline_at) else 'all breakers open'})"
        )

    # -- fan-out primitives ----------------------------------------------------

    def _fan_all(self, fn: Callable[[ServiceClient], object], what: str):
        """``fn`` on *every* shard, in shard order; all must answer.

        Each shard's call fails over across its replica set, so a dead
        primary with a live replica still contributes.  Used where the
        reply is only meaningful when complete (stats conservation,
        snapshot union): a fully-dead shard surfaces as a 503 naming
        it, never as a silently partial answer.
        """
        deadline_at = self._deadline()
        futures = [
            self._pool.submit(self._call_group, group, fn, deadline_at)
            for group in self.groups
        ]
        results = []
        failure: Optional[_RequestError] = None
        for group, future in zip(self.groups, futures):
            try:
                results.append(future.result())
            except ServiceError as exc:
                if failure is None:
                    failure = _RequestError(
                        503 if self._is_liveness_failure(exc) else 502,
                        f"{what} needs every shard, but shard "
                        f"{group.index} failed: {exc}",
                    )
        if failure is not None:
            raise failure
        return results

    def _fan_best_effort(
        self, nodes: list[_ShardNode], fn: Callable[[ServiceClient], object]
    ):
        """``fn`` on each given node; per-node ``(reply, error)`` pairs."""
        futures = [self._pool.submit(self._call, node, fn) for node in nodes]
        out = []
        for future in futures:
            try:
                out.append((future.result(), None))
            except ServiceError as exc:
                out.append((None, str(exc)))
        return out

    # -- hashing: stateless, re-routable ---------------------------------------

    def hash_compiled(
        self, arena: ExprArena, roots: list[int], hints: Optional[dict] = None
    ):
        """Root hashes of a compiled corpus, fanned across live shards.

        The roots are split into contiguous chunks, one per live node,
        and each chunk travels as an arena body of its closure.  Returns
        ``(hashes, fanout)`` where ``fanout`` is the number of chunks
        dispatched.  Any shard can hash any chunk (bit-identical
        combiners everywhere), so a chunk only fails when *no* shard is
        reachable -- then a 503 says so.
        """
        if not roots:
            return [], 0
        deadline_at = self._deadline()
        now = time.monotonic()
        # Hashing is ownership-free, so replicas count as capacity too.
        preferred = [
            i for i, n in enumerate(self.nodes) if n.down_until <= now
        ]
        if not preferred:
            preferred = list(range(len(self.nodes)))
        chunks = min(len(preferred), len(roots))
        bounds = [
            (len(roots) * i // chunks, len(roots) * (i + 1) // chunks)
            for i in range(chunks)
        ]
        futures = [
            self._pool.submit(
                self._hash_chunk,
                _shard_body(arena, roots[lo:hi], hints),
                preferred[i],
                deadline_at,
            )
            for i, (lo, hi) in enumerate(bounds)
        ]
        hashes: list = [None] * len(roots)
        failure: Optional[_RequestError] = None
        for (lo, hi), future in zip(bounds, futures):
            try:
                hashes[lo:hi] = future.result()
            except _RequestError as exc:
                if failure is None:
                    failure = exc
        if failure is not None:
            raise failure
        return hashes, chunks

    def _hash_chunk(
        self, body: bytes, preferred: int,
        deadline_at: Optional[float] = None,
    ) -> list:
        """One chunk's arena body on the preferred node, failing over
        round-robin across *every* node (replicas hash bit-identically)."""
        order = self.nodes[preferred:] + self.nodes[:preferred]
        attempted = []
        # First pass sticks to nodes believed up; the second probes the
        # rest (their TTL may have lapsed, or everyone is down and the
        # cache is stale).  Each node is tried at most once per pass,
        # and never past the request's budget deadline.
        for require_usable in (True, False):
            for node in order:
                if node in attempted:
                    continue
                if self._budget_spent(deadline_at):
                    raise _RequestError(
                        503,
                        f"timeout budget ({self.budget}s) exhausted after "
                        f"{len(attempted)} node(s); last errors "
                        + "; ".join(
                            f"{n.name}: {n.last_error}"
                            for n in attempted[-2:]
                        ),
                    )
                if require_usable and not self._usable(node):
                    continue
                attempted.append(node)
                try:
                    reply = self._call(node, lambda c: c.hash_wire(body))
                    return reply["hashes"]
                except ServiceError as exc:
                    if not self._is_liveness_failure(exc):
                        raise _RequestError(
                            exc.status or 502, f"{node.name}: {exc}"
                        ) from None
        raise _RequestError(
            503,
            f"no shard reachable for hashing (tried "
            f"{len(attempted)}/{len(self.nodes)}): last errors "
            + "; ".join(
                f"{n.name}: {n.last_error}" for n in attempted[-2:]
            ),
        )

    # -- interning: ownership is not negotiable --------------------------------

    def intern_compiled(
        self, arena: ExprArena, roots: list[int], hints: Optional[dict] = None
    ):
        """Two-phase intern: hash everywhere, write at the owner.

        The roots are grouped by the shard owning their hash, and each
        group travels to its owner as an arena body of its closure.
        Returns ``(ids, hashes, owners)`` aligned with ``roots``; ids
        are shard-local (``(owners[i], ids[i])`` is globally unique).
        A dead *owner* is a hard 503 naming the shard -- its keys
        cannot be interned anywhere else.
        """
        deadline_at = self._deadline()
        hashes, _fanout = self.hash_compiled(arena, roots, hints)
        groups: dict[int, list[int]] = {}
        for index, digest in enumerate(hashes):
            groups.setdefault(self.topology.owner_of(digest), []).append(index)
        futures = {
            owner: self._pool.submit(
                self._intern_group,
                owner,
                _shard_body(arena, [roots[i] for i in indices], hints),
                deadline_at,
            )
            for owner, indices in groups.items()
        }
        ids: list = [None] * len(roots)
        owners: list = [None] * len(roots)
        failure: Optional[_RequestError] = None
        for owner, indices in groups.items():
            try:
                group_ids = futures[owner].result()
            except _RequestError as exc:
                if failure is None:
                    failure = exc
                continue
            for local, index in zip(group_ids, indices):
                ids[index] = local
                owners[index] = owner
        if failure is not None:
            raise failure
        return ids, hashes, owners

    def _write_target(self, group: _ShardGroup) -> _ShardNode:
        """The node that may take this shard's writes *right now*.

        The active node while its breaker is closed (or a half-open
        probe revives it).  Once the active primary has been down for a
        full ``down_ttl``, an in-sync replica (health version at or
        above the last acknowledged write) is promoted and stays
        active.  In the window between failure and promotion this
        raises 503 -- bounded by ``down_ttl``, which is why it must fit
        inside the client's retry deadline.
        """
        node = group.active_node
        if self._usable(node):
            return node
        now = time.monotonic()
        down_since = node.down_since
        if down_since is None or now - down_since < self.down_ttl:
            raise _RequestError(
                503,
                f"{node.name} owns these keys but is down "
                f"({node.last_error}); retry within "
                f"{self.down_ttl:.1f}s or an in-sync replica is promoted",
            )
        promoted = self._promote(group)
        if promoted is None:
            raise _RequestError(
                503,
                f"{node.name} owns these keys and no replica has "
                f"caught up to acked version {group.acked_version}",
            )
        return promoted

    def _promote(self, group: _ShardGroup) -> Optional[_ShardNode]:
        """Seat the freshest in-sync replica as the write target.

        Probes every replica's health live (stale cached versions must
        not decide a promotion) and requires ``version >=
        group.acked_version``: promotion never silently drops an
        acknowledged write.  Returns the new active node, or None when
        no replica qualifies.
        """
        best: Optional[int] = None
        best_version = -1
        for index, node in enumerate(group.nodes):
            if index == group.active:
                continue
            try:
                reply = node.probe_client.health()
            except ServiceError:
                continue
            version = reply.get("version")
            if not isinstance(version, int):
                continue
            self._note_version(node, version)
            self._mark_up(node)
            if version >= group.acked_version and version > best_version:
                best, best_version = index, version
        if best is None:
            return None
        with self.lock:
            if group.active_node.down_since is None:
                # The primary came back between the check and now --
                # keep it; a flapping node must not cause a promotion.
                return group.active_node
            group.active = best
            group.promotions += 1
        node = group.nodes[best]
        if self.verbose:
            print(
                f"repro cluster: promoted {node.name} to primary "
                f"(version {best_version} >= acked {group.acked_version})",
                flush=True,
            )
        return node

    def _intern_group(
        self, owner: int, body: bytes,
        deadline_at: Optional[float] = None,
    ) -> list:
        group = self.groups[owner]
        if self._budget_spent(deadline_at):
            raise _RequestError(
                503,
                f"timeout budget ({self.budget}s) exhausted before "
                f"shard {owner}'s intern group was dispatched",
            )
        node = self._write_target(group)
        try:
            reply = self._call(node, lambda c: c.intern_wire(body))
        except ServiceError as exc:
            if self._is_liveness_failure(exc):
                raise _RequestError(
                    503, f"{node.name} owns these keys but is "
                    f"unreachable: {exc}"
                ) from None
            if exc.status == 409:
                # The node disagrees about ownership: the topology the
                # coordinator serves does not match the --shard-id /
                # --shard-count the nodes were started with.
                raise _RequestError(
                    502,
                    f"{node.name} refused keys the topology says it "
                    f"owns -- shard order mismatch? ({exc})",
                ) from None
            raise _RequestError(exc.status or 502, f"{node.name}: {exc}") \
                from None
        version = reply.get("version")
        if isinstance(version, int):
            with self.lock:
                group.acked_version = max(group.acked_version, version)
        return reply["ids"]

    # -- streaming edit sessions -----------------------------------------------

    def session_open_wire(self, payload: dict):
        """Open a streaming session on a live node; returns
        ``(reply, node)`` and records the sticky route.

        Hosting prefers each shard's active node (their metrics are the
        ones :meth:`folded_metrics` scrapes) round-robin, falling back
        to replicas -- hashing is ownership-free, so any node can hold
        a hash-only session.  A node-side 429 (registry full) passes
        through: capacity is operator configuration, not routing.
        """
        actives = [group.active_node for group in self.groups]
        spares = [n for n in self.nodes if n not in actives]
        with self.lock:
            start = self._session_rr % max(1, len(actives))
            self._session_rr += 1
        candidates = actives[start:] + actives[:start] + spares
        last: Optional[ServiceError] = None
        for node in candidates:
            if not self._usable(node):
                continue
            try:
                reply = self._call(
                    node, lambda c: c.session_wire("open", payload)
                )
            except ServiceError as exc:
                if not self._is_liveness_failure(exc):
                    raise _RequestError(
                        exc.status or 502, f"{node.name}: {exc}"
                    ) from None
                last = exc
                continue
            sid = reply.get("session")
            if isinstance(sid, str):
                with self.lock:
                    self.session_routes[sid] = node
            return reply, node
        raise _RequestError(
            503,
            "no node reachable to host the session"
            + (f" (last error: {last})" if last else ""),
        )

    def session_forward(self, verb: str, sid, payload: Optional[dict]):
        """Forward one session call to the node that owns ``sid``.

        An unknown sid, a dead owner, or the owner having expired the
        session all collapse to 409 -- the uniform "reopen and replay"
        signal -- and the stale route is dropped.
        """
        node = self.session_routes.get(sid) if isinstance(sid, str) else None
        if node is None:
            raise _RequestError(
                409, f"unknown session {sid!r}: reopen and replay"
            )
        if verb == "report":
            call = lambda c: c.session_report(sid)  # noqa: E731
        else:
            call = lambda c: c.session_wire(verb, payload)  # noqa: E731
        try:
            reply = self._call(node, call)
        except ServiceError as exc:
            if self._is_liveness_failure(exc):
                with self.lock:
                    self.session_routes.pop(sid, None)
                    self.sessions_lost += 1
                raise _RequestError(
                    409,
                    f"session {sid!r} lost ({node.name} unreachable): "
                    "reopen and replay",
                ) from None
            if exc.status == 409:
                # The node itself expired or never knew the session.
                with self.lock:
                    self.session_routes.pop(sid, None)
                    self.sessions_lost += 1
            raise _RequestError(
                exc.status or 502, f"{node.name}: {exc}"
            ) from None
        if verb == "close":
            with self.lock:
                self.session_routes.pop(sid, None)
        return reply

    def folded_sessions(self, per_shard: list) -> dict:
        """Sum the nodes' ``sessions`` metrics blocks (plus the
        coordinator's own routing counters); the folded rehash ratio is
        recomputed from the summed numerator/denominator, not averaged."""
        totals = {
            "open": 0,
            "opened": 0,
            "closed": 0,
            "expired": 0,
            "rejected": 0,
            "edits_served": 0,
            "nodes_rehashed": 0,
            "corpus_nodes_edited": 0,
            "pinned_nodes": 0,
        }
        for entry in per_shard:
            block = (entry.get("metrics") or {}).get("sessions")
            if not isinstance(block, dict):
                continue
            for key in totals:
                value = block.get(key)
                if isinstance(value, (int, float)):
                    totals[key] += value
        pool = totals["corpus_nodes_edited"]
        totals["rehash_ratio"] = (
            totals["nodes_rehashed"] / pool if pool else None
        )
        totals["routed"] = len(self.session_routes)
        totals["lost"] = self.sessions_lost
        return totals

    # -- folded views ----------------------------------------------------------

    def health(self) -> dict:
        replies = self._fan_best_effort(self.nodes, lambda c: c.health())
        by_node = dict(zip(self.nodes, replies))
        per_shard = []
        for group in self.groups:
            nodes = []
            for node in group.nodes:
                reply, error = by_node[node]
                entry = {
                    "url": node.url,
                    "role": node.role,
                    "active": node is group.active_node,
                    "ok": error is None and bool(reply and reply.get("ok")),
                }
                if reply:
                    entry["entries"] = reply.get("entries")
                    entry["version"] = reply.get("version")
                if error:
                    entry["error"] = error
                nodes.append(entry)
            active = nodes[group.active]
            per_shard.append(
                {
                    "shard": group.index,
                    "url": group.active_node.url,
                    # The shard is healthy if any of its nodes answers:
                    # reads fail over, and a down primary is promotable.
                    "ok": any(n["ok"] for n in nodes),
                    "active_ok": active["ok"],
                    "entries": active.get("entries"),
                    "version": active.get("version"),
                    "nodes": nodes,
                }
            )
        return {
            "ok": all(entry["ok"] for entry in per_shard),
            "role": "coordinator",
            "shard_count": self.topology.num_shards,
            "replica_count": self.topology.num_replicas,
            "shards": per_shard,
            "requests_served": self.requests_served,
        }

    def folded_stats(self) -> dict:
        """Cluster stats as conserved sums of per-shard counters."""
        replies = self._fan_all(lambda c: c.stats(), what="stats")
        totals: dict = {}
        entries = 0
        for reply in replies:
            entries += reply.get("entries", 0)
            for key, value in (reply.get("store") or {}).items():
                if isinstance(value, (int, float)):
                    totals[key] = totals.get(key, 0) + value
        first = replies[0]
        return {
            "role": "coordinator",
            "backend": first.get("backend"),
            "bits": first.get("bits"),
            "seed": first.get("seed"),
            "shard_count": self.topology.num_shards,
            "entries": entries,
            "store": totals,
            "shards": replies,
            "requests_served": self.requests_served,
        }

    def folded_metrics(self) -> dict:
        primaries = [group.active_node for group in self.groups]
        per_shard = []
        for group, node, (reply, error) in zip(
            self.groups,
            primaries,
            self._fan_best_effort(primaries, lambda c: c.metrics()),
        ):
            entry = {"shard": group.index, "url": node.url, "ok": error is None}
            if reply is not None:
                entry["metrics"] = reply
            if error:
                entry["error"] = error
            per_shard.append(entry)
        return {
            "ok": all(entry["ok"] for entry in per_shard),
            "role": "coordinator",
            "uptime_s": round(time.monotonic() - self.started_at, 3),
            "requests_served": self.requests_served,
            "shard_count": self.topology.num_shards,
            "sessions": self.folded_sessions(per_shard),
            "shards": per_shard,
            "failure_domains": self.failure_domains(),
        }

    def failure_domains(self) -> dict:
        """The cluster's failure-domain telemetry, from cached state.

        No network round-trips: down-sets, breaker counts and versions
        reflect what the traffic and probes have already observed, so
        this is safe to scrape at any rate.
        """
        now = time.monotonic()
        down_shards = []
        shards = []
        for group in self.groups:
            replica_versions = [n.version for n in group.replicas]
            nodes = []
            for node in group.nodes:
                down = node.down_until > now
                entry = {
                    "url": node.url,
                    "role": node.role,
                    "active": node is group.active_node,
                    "down": down,
                    "breaker_opens": node.breaker_opens,
                    "consecutive_failures": node.consecutive_failures,
                    "version": node.version,
                }
                if node.last_error:
                    entry["last_error"] = node.last_error
                nodes.append(entry)
            active_down = group.active_node.down_until > now
            if active_down and not any(
                n.down_until <= now for n in group.replicas
            ):
                down_shards.append(group.index)
            shards.append(
                {
                    "shard": group.index,
                    "active": group.active_node.url,
                    "promoted": group.active != 0,
                    "promotions": group.promotions,
                    "failovers": group.failovers,
                    "breaker_opens": sum(n.breaker_opens for n in group.nodes),
                    "acked_version": group.acked_version,
                    #: How far the laggiest replica trails acknowledged
                    #: writes (None when the shard is unreplicated).
                    "replica_lag": (
                        max(0, group.acked_version - min(replica_versions))
                        if replica_versions
                        else None
                    ),
                    "nodes": nodes,
                }
            )
        return {
            "down_shards": down_shards,
            "budget_s": self.budget,
            "down_ttl_s": self.down_ttl,
            "failovers": sum(g.failovers for g in self.groups),
            "promotions": sum(g.promotions for g in self.groups),
            "breaker_opens": sum(
                n.breaker_opens for g in self.groups for n in g.nodes
            ),
            "shards": shards,
        }

    def merged_snapshot_bytes(self) -> bytes:
        """Union of every shard's classes as one flat snapshot.

        Hashes are preserved bit-for-bit by ``merge_store``; ids are
        re-assigned in the merged store (shard-local ids don't survive,
        by design -- hashes are the global names here).
        """
        datas = self._fan_all(lambda c: c.fetch_snapshot(), what="snapshot")
        stores = [snapshot_from_bytes(data)[0] for data in datas]
        merged = ExprStore(
            HashCombiners(
                bits=stores[0].combiners.bits, seed=stores[0].combiners.seed
            )
        )
        for store in stores:
            merged.merge_store(store)
        return snapshot_to_bytes(
            merged,
            meta={
                "cluster": {
                    "shard_count": self.topology.num_shards,
                    "shard_entries": [len(s) for s in stores],
                }
            },
        )


def cluster(argv=None) -> int:
    """The ``repro cluster`` entry point (see :mod:`repro.cli`)."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro cluster",
        description="Run or inspect a distributed hash cluster: a "
        "coordinator front door routing /v1 traffic across repro serve "
        "shard nodes by alpha-hash ownership.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve_p = sub.add_parser(
        "serve", help="run a coordinator over already-running shard nodes"
    )
    serve_p.add_argument(
        "--shard",
        action="append",
        required=True,
        metavar="URL",
        dest="shards",
        help="shard node URL; repeat once per shard, in shard-id order "
        "(position i must be the node started with --shard-id i)",
    )
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=8656)
    serve_p.add_argument(
        "--timeout", type=float, default=30.0,
        help="per-request timeout towards a shard, seconds",
    )
    serve_p.add_argument(
        "--retries", type=int, default=2,
        help="bounded retries per shard request (backoff doubles, jittered)",
    )
    serve_p.add_argument(
        "--backoff", type=float, default=0.1,
        help="first retry delay in seconds",
    )
    serve_p.add_argument(
        "--down-ttl", type=float, default=2.0,
        help="seconds a failed shard is presumed down (fail fast window); "
        "also how long a primary must stay down before an in-sync "
        "replica is promoted",
    )
    serve_p.add_argument(
        "--replica",
        action="append",
        default=[],
        metavar="SHARD=URL",
        dest="replicas",
        help="read replica of shard SHARD (a node started with "
        "--follow pointing at that shard); repeatable",
    )
    serve_p.add_argument(
        "--budget", type=float, default=None, metavar="SECONDS",
        help="total wall-clock allowance per incoming request; all "
        "retries, failover hops and promotion probes must fit inside "
        "(default: unbounded)",
    )
    serve_p.add_argument(
        "--probe-interval", type=float, default=0.25, metavar="SECONDS",
        help="how often a down node may be health-probed on touch "
        "(half-open circuit breaker; default 0.25)",
    )
    serve_p.add_argument("--verbose", action="store_true")

    status_p = sub.add_parser(
        "status", help="print a coordinator's folded /v1/metrics"
    )
    status_p.add_argument("--url", required=True, help="coordinator URL")
    status_p.add_argument("--timeout", type=float, default=10.0)

    args = parser.parse_args(argv)

    if args.command == "status":
        import json as _json

        client = ServiceClient(args.url, timeout=args.timeout, retries=0)
        print(_json.dumps(client.metrics(), indent=2, sort_keys=True))
        return 0

    replicas: dict[int, list[str]] = {}
    for spec in args.replicas:
        shard_text, _, url = spec.partition("=")
        try:
            shard_id = int(shard_text)
        except ValueError:
            shard_id = -1
        if not url or shard_id < 0:
            parser.error(
                f"--replica takes SHARD=URL (e.g. 0=http://host:port), "
                f"got {spec!r}"
            )
        replicas.setdefault(shard_id, []).append(url)

    coordinator = ClusterCoordinator(
        args.shards,
        host=args.host,
        port=args.port,
        replicas=replicas or None,
        timeout=args.timeout,
        retries=args.retries,
        backoff=args.backoff,
        down_ttl=args.down_ttl,
        budget=args.budget,
        probe_interval=args.probe_interval,
        verbose=args.verbose,
    )
    replicated = (
        f" + {coordinator.topology.num_replicas} replica(s)"
        if coordinator.topology.num_replicas
        else ""
    )
    print(
        f"repro cluster serve: {coordinator.url} fronting "
        f"{coordinator.topology.num_shards} shard(s){replicated}: "
        + ", ".join(coordinator.topology),
        flush=True,
    )

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
        coordinator.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        if installed and previous is not None:
            signal.signal(signal.SIGTERM, previous)
        coordinator.close()
    return 0
