"""The planning stage: resolve a request into an inspectable plan.

:func:`plan_request` (what :meth:`~repro.api.session.Session.plan`
runs) turns a declarative :class:`~repro.api.request.HashRequest` /
:class:`~repro.api.request.InternRequest` plus a
:class:`~repro.api.session.Session` into an :class:`ExecutionPlan` --
every decision (backend, store routing, tree vs arena engine) is made
**here, once**, and the result is a frozen record the
caller can inspect, log, or ship over the wire before anything runs::

    plan = session.plan(HashRequest(corpus))
    print(plan.explain())       # why each choice was made
    session.execute(request, plan=plan)

Engine policy
-------------

One rule, :func:`arena_serves`: a corpus the store serves runs on the
arena unless the request or the session pins ``engine="tree"``, and a
corpus the store does not serve runs its backend's own pass and plans
``tree``.  The arena is the paper's Section 5 pass over arrays, and on
fresh input it is at least as fast as the tree engine at every corpus
size (the ``threshold`` cell of ``benchmarks/run_bench.py``).  The tree
engine wins only when its per-object memo already holds most of a
tree, as in a rewrite loop re-hashing edited trees on a warm store:
pin ``tree`` there, or stream the edits.  The service lowers request
bodies by the same predicate, and the store's batch entry points map
``"auto"`` to the arena (:func:`repro.core.arena.resolve_engine`), so
no layer decides differently.

An arena plan records the kernel that will run, which no request
chooses: ``"native"`` when the C kernel's library loaded at import
(:mod:`repro.core.native`), else ``"scalar"``, with a reason line that
says why.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Optional

from repro.core import native

if TYPE_CHECKING:  # pragma: no cover
    from repro.api.backends import HasherBackend
    from repro.api.request import HashRequest
    from repro.api.session import Session

__all__ = [
    "ExecutionPlan",
    "PlanError",
    "arena_serves",
    "plan_request",
    "resolve_backend",
    "store_serves",
]


class PlanError(ValueError):
    """A request cannot be planned against this session."""


@dataclass(frozen=True)
class ExecutionPlan:
    """Every resolved decision for one request, before anything runs.

    ``engine`` is concrete (never ``"auto"``); ``reasons`` records one
    line per decision for :meth:`explain`.
    """

    kind: str  #: ``"hash"`` or ``"intern"``
    backend: str  #: resolved unified-registry backend name
    store_backed: bool  #: whether the store's memo serves this backend
    engine: str  #: ``"tree"`` / ``"arena"`` family -- never ``"auto"``
    corpus_items: int  #: expressions in the request
    total_nodes: int  #: total AST nodes across the corpus
    bits: int  #: combiner width the job will run at
    seed: int  #: combiner seed the job will run at
    kernel: Optional[str] = None  #: ``"native"``/``"scalar"`` (arena only)
    reasons: tuple[str, ...] = ()

    def as_dict(self) -> dict:
        """A JSON-compatible view (the service API returns this)."""
        return asdict(self)

    def explain(self) -> str:
        """A human-readable account of every planning decision."""
        kernel = f" kernel={self.kernel}," if self.kernel else ""
        head = (
            f"{self.kind} {self.corpus_items} expression(s), "
            f"{self.total_nodes} nodes -> engine={self.engine},{kernel} "
            f"backend={self.backend}"
        )
        return "\n".join([head, *(f"  - {r}" for r in self.reasons)])


def resolve_backend(session: "Session", name: Optional[str]) -> "HasherBackend":
    """The backend a request names (``None``: the session's own); an
    unknown name is a :class:`PlanError`."""
    if name is None:
        return session.backend
    from repro.api.backends import get_backend

    try:
        return get_backend(name)
    except KeyError as exc:
        raise PlanError(str(exc)) from None


def store_serves(session: "Session", kind: str, backend: "HasherBackend") -> bool:
    """The store-routing rule: does the session's store run a ``kind``
    request for ``backend``?

    Interning is defined over the store.  Hashing runs there only for a
    backend bit-compatible with the store's memoised summariser
    (``store_backed``); any other backend runs its own pass.
    """
    if session.store is None:
        return False
    return kind == "intern" or backend.store_backed


def arena_serves(
    session: "Session",
    kind: str,
    backend: "HasherBackend",
    engine_hint: Optional[str],
) -> bool:
    """The engine rule: does the arena run a ``kind`` request for
    ``backend`` whose engine hint is ``engine_hint`` (``None``: the
    session's)?  Yes when the store serves it and neither the request
    nor the session pins ``"tree"``."""
    return (
        store_serves(session, kind, backend)
        and (engine_hint or session.config.engine) != "tree"
    )


def plan_request(session: "Session", request: "HashRequest") -> ExecutionPlan:
    """Resolve ``request`` against ``session`` into an :class:`ExecutionPlan`."""
    reasons: list[str] = []
    combiners = session.combiners

    # Determinism hints: a request pinned to one hash family must
    # never silently run under another.
    if request.bits is not None and request.bits != combiners.bits:
        raise PlanError(
            f"request pins bits={request.bits} but the session hashes "
            f"at {combiners.bits} bits"
        )
    if request.seed is not None and request.seed != combiners.seed:
        raise PlanError(
            f"request pins seed={request.seed} but the session hashes "
            f"with seed {combiners.seed}"
        )

    backend = resolve_backend(session, request.backend)
    if backend is not session.backend:
        reasons.append(
            f"backend {backend.name!r} overrides the session's "
            f"{session.backend.name!r}"
        )
    if request.kind == "intern" and session.store is None:
        raise PlanError(
            "intern requests need a store; this session was built "
            "with use_store=False"
        )

    store_backed = store_serves(session, request.kind, backend)
    on_arena = arena_serves(session, request.kind, backend, request.engine)
    if not store_backed:
        reasons.append(
            f"backend {backend.name!r} runs its own pass, not the store's memo"
        )
    elif on_arena:
        reasons.append("the store serves this corpus: engine arena")
    else:
        pinned_by = "request" if request.engine else "session"
        reasons.append(f"engine 'tree' pinned by the {pinned_by}")
    if request.compiled_corpus is not None and not on_arena:
        raise PlanError(
            "a compiled corpus runs only on the store-backed arena engine "
            f"({reasons[-1]})"
        )

    # An arena plan records the kernel that runs, and why it is not
    # the native one.
    kernel: Optional[str] = None
    if on_arena:
        kernel = native.kernel()
        if kernel == "scalar":
            reasons.append(
                f"arena kernel -> scalar: {native.REASONS.get('arena_kernel')}"
            )

    return ExecutionPlan(
        kind=request.kind,
        backend=backend.name,
        store_backed=store_backed,
        engine="arena" if on_arena else "tree",
        corpus_items=len(request),
        total_nodes=request.total_nodes,
        bits=combiners.bits,
        seed=combiners.seed,
        kernel=kernel,
        reasons=tuple(reasons),
    )
