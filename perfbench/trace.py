"""Outside-in tracing: spans recorded around calls into each layer.

A :class:`Tracer` patches the public functions a workload crosses --
at the name its caller looks up -- with wrappers that record a
:class:`~perfbench.stats.Span` when they run inside a traced operation.
Spans stay in memory and are written out once, when the process ends.
Nothing under ``src/`` is changed; :meth:`Tracer.uninstall` restores
every patched attribute.

An operation's identity crosses process boundaries in one HTTP header:
the client (or coordinator) adds ``X-Perfbench-Span: <op>|<span>`` to
each request made inside a traced operation, and the server-side entry
wrapper makes the named span the parent of everything the request does.
"""

from __future__ import annotations

import contextlib
import contextvars
import gc
import itertools
import json
import os
import time
from typing import Callable, Optional

from perfbench.stats import Span

HEADER = "X-Perfbench-Span"

#: ``(op id, span id)`` of the innermost traced span on this thread or
#: task; ``None`` outside traced operations.
_CURRENT: contextvars.ContextVar[Optional[tuple[str, str]]] = contextvars.ContextVar(
    "perfbench_span", default=None
)

now_ns = time.monotonic_ns


class Tracer:
    """Span and counter store for one process, plus the patches feeding it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: ``(op id, counter name, value)`` increments.
        self.counts: list[tuple[str, str, float]] = []
        self._ids = itertools.count(1)
        self._prefix = f"{os.getpid()}."
        self._patches: list[tuple[object, str, object]] = []
        self._gc_started: Optional[int] = None

    # -- recording -------------------------------------------------------------

    def new_id(self) -> str:
        return f"{self._prefix}{next(self._ids)}"

    @contextlib.contextmanager
    def operation(self, name: str):
        """Root span of one timed call; everything it causes joins it."""
        sid = self.new_id()
        token = _CURRENT.set((sid, sid))
        start = now_ns()
        try:
            yield sid
        finally:
            end = now_ns()
            _CURRENT.reset(token)
            self.spans.append(Span(sid, None, sid, name, start, end))

    @contextlib.contextmanager
    def span(self, name: str, context: Optional[tuple[str, str]] = None):
        """A child of ``context`` (default: the current span); records
        nothing outside traced operations."""
        parent = context if context is not None else _CURRENT.get()
        if parent is None:
            yield
            return
        sid = self.new_id()
        token = _CURRENT.set((parent[0], sid))
        start = now_ns()
        try:
            yield
        finally:
            end = now_ns()
            _CURRENT.reset(token)
            self.spans.append(Span(sid, parent[1], parent[0], name, start, end))

    def count(self, name: str, value: float) -> None:
        current = _CURRENT.get()
        if current is not None:
            self.counts.append((current[0], name, value))

    def wrap(self, name: str, fn: Callable) -> Callable:
        span = self.span

        def traced(*args, **kwargs):
            if _CURRENT.get() is None:
                return fn(*args, **kwargs)
            with span(name):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    # -- patching --------------------------------------------------------------

    def patch(self, owner: object, attr: str, replacement: object) -> None:
        """Set ``owner.attr``, remembering the original for uninstall."""
        original = (
            owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        )
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def patch_span(self, owner: object, attr: str, name: str) -> None:
        """Wrap ``owner.attr`` (a function or method) in a ``name`` span."""
        original = (
            owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        )
        if isinstance(original, staticmethod):
            self.patch(owner, attr, staticmethod(self.wrap(name, original.__func__)))
        else:
            self.patch(owner, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- garbage collector -----------------------------------------------------

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = now_ns()
            return
        started, self._gc_started = self._gc_started, None
        current = _CURRENT.get()
        if current is None or started is None:
            return
        self.spans.append(Span(self.new_id(), current[1], current[0], "gc", started, now_ns()))
        self.counts.append((current[0], "gc.collections", 1))

    def watch_gc(self) -> None:
        gc.callbacks.append(self._on_gc)

    # -- output ----------------------------------------------------------------

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(
                {"spans": [list(span) for span in self.spans], "counts": self.counts},
                handle,
            )


def load(path: str) -> tuple[list[Span], list[tuple[str, str, float]]]:
    with open(path) as handle:
        data = json.load(handle)
    return [Span(*row) for row in data["spans"]], [tuple(row) for row in data["counts"]]


# -- what each process wraps -----------------------------------------------------


def install_program(tracer: Tracer) -> None:
    """Layers every process running the hashing pipeline crosses."""
    import repro.store.arena_intern as arena_intern
    import repro.store.journal as journal
    import repro.store.store as store
    from repro.api.session import Session
    from repro.core.arena import ExprArena
    from repro.core.incremental import IncrementalHasher

    tracer.watch_gc()
    tracer.patch_span(Session, "plan", "plan")
    tracer.patch_span(arena_intern, "arena_hash_any", "arena.kernel")
    tracer.patch_span(store, "summarise_tree", "kernel.tree")
    for method in ("hash_corpus", "hash_expr"):
        tracer.patch_span(store.ExprStore, method, "store.hash")
    for method in ("intern", "intern_many"):
        tracer.patch_span(store.ExprStore, method, "store.intern")
    tracer.patch_span(arena_intern, "intern_corpus_arena", "store.intern")
    tracer.patch_span(IncrementalHasher, "__init__", "incremental.build")
    tracer.patch_span(IncrementalHasher, "replace", "incremental.replace")
    tracer.patch_span(journal.Journal, "append_delta", "journal.append")

    flatten = ExprArena.flatten

    def traced_flatten(arena, exprs):
        exprs = exprs if isinstance(exprs, list) else list(exprs)
        if _CURRENT.get() is None:
            return flatten(arena, exprs)
        before = len(arena)
        with tracer.span("arena.compile"):
            roots = flatten(arena, exprs)
        tracer.count("arena.walked_nodes", sum(expr.size for expr in exprs))
        tracer.count("arena.unique_nodes", len(arena) - before)
        return roots

    tracer.patch(ExprArena, "flatten", traced_flatten)

    append_bytes = journal.Journal.append_bytes

    def traced_append_bytes(self, payload):
        tracer.count("journal.bytes", len(payload))
        return append_bytes(self, payload)

    tracer.patch(journal.Journal, "append_bytes", traced_append_bytes)

    fsync = os.fsync

    def traced_fsync(fd):
        tracer.count("journal.fsyncs", 1)
        with tracer.span("journal.fsync"):
            return fsync(fd)

    tracer.patch(os, "fsync", traced_fsync)


def _propagate_header(tracer: Tracer) -> None:
    import http.client

    request = http.client.HTTPConnection.request

    def traced_request(conn, method, url, body=None, headers={}, **kwargs):
        current = _CURRENT.get()
        if current is not None:
            headers = dict(headers)
            headers[HEADER] = f"{current[0]}|{current[1]}"
        return request(conn, method, url, body, headers, **kwargs)

    tracer.patch(http.client.HTTPConnection, "request", traced_request)


def install_client(tracer: Tracer) -> None:
    """The benchmark process talking HTTP: encode, transport, wire bytes."""
    from repro.service.client import ServiceClient

    tracer.watch_gc()
    _propagate_header(tracer)
    tracer.patch_span(ServiceClient, "_corpus_payload", "sexpr.encode")
    request = ServiceClient._request

    def traced_request(client, method, path, body=None, *args, **kwargs):
        if _CURRENT.get() is None:
            return request(client, method, path, body, *args, **kwargs)
        with tracer.span("client.transport"):
            reply = request(client, method, path, body, *args, **kwargs)
        tracer.count("wire.request_bytes", len(body or b""))
        tracer.count("wire.response_bytes", len(reply[1]))
        return reply

    tracer.patch(ServiceClient, "_request", traced_request)


def _entry_wrapper(tracer: Tracer, name: str, handler: Callable) -> Callable:
    """Wrap an HTTP handler method: a request carrying the trace header
    runs inside a ``name`` span parented to the caller's span."""

    def traced(self, *args, **kwargs):
        raw = self.headers.get(HEADER)
        if raw is None:
            return handler(self, *args, **kwargs)
        op, _, parent = raw.partition("|")
        with tracer.span(name, context=(op, parent)):
            return handler(self, *args, **kwargs)

    return traced


class TimedLock:
    """A lock proxy recording the wait to acquire as a span."""

    def __init__(self, tracer: Tracer, name: str, lock) -> None:
        self._tracer = tracer
        self._name = name
        self._lock = lock

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        current = _CURRENT.get()
        if current is None:
            return self._lock.acquire(blocking, timeout)
        start = now_ns()
        acquired = self._lock.acquire(blocking, timeout)
        tracer = self._tracer
        tracer.spans.append(
            Span(tracer.new_id(), current[1], current[0], self._name, start, now_ns())
        )
        return acquired

    def release(self) -> None:
        self._lock.release()

    def locked(self) -> bool:
        return self._lock.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info) -> None:
        self.release()


def install_server(tracer: Tracer) -> None:
    """A ``repro serve`` node: handler, decode, service lock, pipeline."""
    import repro.service.server as server

    install_program(tracer)
    tracer.patch(
        server._Handler,
        "do_POST",
        _entry_wrapper(tracer, "server.handler", server._Handler.do_POST),
    )
    tracer.patch_span(server, "_decode_corpus", "sexpr.decode")
    init = server.ReproServer.__init__

    def traced_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.lock = TimedLock(tracer, "server.lock_wait", self.lock)

    tracer.patch(server.ReproServer, "__init__", traced_init)


def install_coordinator(tracer: Tracer) -> None:
    """A ``repro cluster`` coordinator: route, and the shard calls it waits on."""
    from concurrent.futures import ThreadPoolExecutor

    from repro.cluster.coordinator import _CoordinatorHandler
    from repro.service.client import ServiceClient

    tracer.watch_gc()
    _propagate_header(tracer)
    tracer.patch(
        _CoordinatorHandler,
        "do_POST",
        _entry_wrapper(tracer, "coordinator.route", _CoordinatorHandler.do_POST),
    )
    for method in ("hash_wire", "intern_wire"):
        tracer.patch_span(ServiceClient, method, "coordinator.fanout")

    submit = ThreadPoolExecutor.submit

    def traced_submit(pool, fn, /, *args, **kwargs):
        # Fan-out threads inherit the submitting request's span.
        return submit(pool, contextvars.copy_context().run, fn, *args, **kwargs)

    tracer.patch(ThreadPoolExecutor, "submit", traced_submit)
