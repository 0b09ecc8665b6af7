"""The planning stage: resolve a request into an inspectable plan.

The :class:`Planner` turns a declarative :class:`~repro.api.request.
HashRequest` / :class:`~repro.api.request.InternRequest` plus a
:class:`~repro.api.session.Session` into an :class:`ExecutionPlan` --
every decision (backend, store routing, tree vs arena engine) is made
**here, once**, and the result is a frozen record the
caller can inspect, log, or ship over the wire before anything runs::

    plan = session.plan(HashRequest(corpus))
    print(plan.explain())       # why each choice was made
    session.execute(request, plan=plan)

Engine policy
-------------

``engine="auto"`` compares the corpus' total node count against
:data:`ARENA_NODE_THRESHOLD` -- the **one** threshold constant, which
the planner shares with the low-level ``resolve_engine`` normaliser
(defined next to the arena kernel as
:data:`repro.core.arena.ARENA_MIN_NODES`, so the core stays importable
without this package; there is exactly one literal).  The store's
batch entry points consult the same constant through
:func:`repro.core.arena.plan_corpus_engine`, so a forced ``engine=``
and an ``auto`` decision can never disagree between layers.

An arena plan records the kernel that will run, which no request
chooses: ``"native"`` when the C kernel's library loaded at import
(:mod:`repro.core.native`), else ``"scalar"``, with a reason line that
says why.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Optional

from repro.core import native
from repro.core.arena import ARENA_MIN_NODES, resolve_engine

if TYPE_CHECKING:  # pragma: no cover
    from repro.api.backends import HasherBackend
    from repro.api.request import HashRequest
    from repro.api.session import Session

__all__ = [
    "ExecutionPlan",
    "Planner",
    "PlanError",
    "ARENA_NODE_THRESHOLD",
    "resolve_backend",
    "store_serves",
]

#: Total corpus nodes at which ``engine="auto"`` switches from the
#: memoised tree walk to the arena kernel.  This is the planner's one
#: threshold; every layer's ``auto`` decision resolves against it.
ARENA_NODE_THRESHOLD = ARENA_MIN_NODES


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


class Planner:
    """Resolves requests against a session into :class:`ExecutionPlan`s.

    Stateless apart from its ``arena_threshold`` (default
    :data:`ARENA_NODE_THRESHOLD`); a session owns one and consults it
    from :meth:`~repro.api.session.Session.plan`.  Swap it out to test
    or tune the policy without touching any execution code::

        session.planner = Planner(arena_threshold=1_000)
    """

    def __init__(self, arena_threshold: int = ARENA_NODE_THRESHOLD):
        self.arena_threshold = arena_threshold

    def plan(self, session: "Session", request: "HashRequest") -> "ExecutionPlan":
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

        store = session.store
        store_backed = store_serves(session, request.kind, backend)
        if request.kind == "intern":
            if store is None:
                raise PlanError(
                    "intern requests need a store; this session was built "
                    "with use_store=False"
                )
        elif not store_backed:
            if request.compiled_corpus is not None:
                raise PlanError(
                    f"backend {backend.name!r} runs its own pass over trees; "
                    "a compiled corpus runs only on the store-backed path"
                )
            reasons.append(
                f"backend {backend.name!r} runs its own pass, not the store's memo"
            )

        # The engine hint falls back to the session's configured default.
        engine_hint = request.engine or session.config.engine

        total_nodes = request.total_nodes
        if engine_hint == "auto":
            engine = resolve_engine(
                engine_hint, total_nodes, threshold=self.arena_threshold
            )
            reasons.append(
                f"auto engine -> {engine}: {total_nodes} nodes "
                f"{'>=' if engine == 'arena' else '<'} "
                f"threshold {self.arena_threshold}"
            )
        else:
            engine = resolve_engine(engine_hint, total_nodes)
            reasons.append(f"engine {engine!r} forced by the request")

        # An arena plan records the kernel that runs, and why it is not
        # the native one.
        kernel: Optional[str] = None
        if engine == "arena":
            kernel = native.kernel()
            if kernel == "scalar":
                reasons.append(
                    f"arena kernel -> scalar: {native.REASONS.get('arena_kernel')}"
                )

        return ExecutionPlan(
            kind=request.kind,
            backend=backend.name,
            store_backed=store_backed,
            engine=engine,
            corpus_items=len(request),
            total_nodes=total_nodes,
            bits=combiners.bits,
            seed=combiners.seed,
            kernel=kernel,
            reasons=tuple(reasons),
        )
