"""``repro.api`` -- the user-facing front door of the reproduction.

The package is organised as a request -> plan -> execute pipeline
behind one facade:

* :class:`Session` (:mod:`repro.api.session`) -- owns a combiner
  family, an optional :class:`~repro.store.ExprStore`, and a named
  hasher backend; exposes ``hash`` / ``hashes`` / ``hash_corpus`` /
  ``intern`` / ``cse`` / ``share`` / ``stats`` plus ``save`` / ``load``
  store snapshots, and the pipeline entry points ``plan`` / ``execute``.
* requests (:mod:`repro.api.request`) -- :class:`HashRequest` /
  :class:`InternRequest`, declarative corpus jobs carrying backend,
  determinism and resource hints.
* the planner (:mod:`repro.api.plan`) -- resolves a request against a
  session into an inspectable :class:`ExecutionPlan` (tree vs arena
  engine and kernel, backend, store routing), absorbing the
  ``engine="auto"`` heuristic behind one threshold constant.
* :meth:`Session.execute` runs the plan on one serial path through the
  store; results are bit-identical across engines.
* :class:`AsyncSession` (:mod:`repro.api.aio`) -- the asyncio front
  end (awaitable corpus jobs, bounded in-flight, cancellation) over
  the :class:`~repro.api.executors.AsyncExecutor` thread bridge.
* :class:`RemoteSession` (:mod:`repro.api.remote`) -- the same verbs
  against a ``repro serve`` node or a ``repro cluster serve``
  coordinator; swap a URL to scale from one store to a cluster.
* the unified backend registry (:mod:`repro.api.backends`) -- every
  Table 1 algorithm, the Appendix C variant, the design-choice
  ablations, and any third-party backend advertised through the
  ``repro.backends`` entry-point group.

Everything else in the package keeps working, but new code (and all the
in-repo CLIs, harnesses and benchmarks) should come through here.  The
:mod:`repro.service` HTTP server/client speak this API over the wire.
"""

from repro.api.aio import AsyncSession
from repro.api.backends import (
    ABLATION_ORDER,
    BACKENDS,
    ENTRY_POINT_GROUP,
    TABLE1_ORDER,
    FunctionBackend,
    HasherBackend,
    backend_names,
    get_backend,
    load_entry_point_backends,
    register_backend,
)
from repro.api.executors import AsyncExecutor
from repro.api.plan import (
    ARENA_NODE_THRESHOLD,
    ExecutionPlan,
    Planner,
    PlanError,
)
from repro.api.remote import RemoteSession, RemoteStreamSession
from repro.api.request import HashRequest, InternRequest
from repro.api.session import Session, SessionConfig, SessionError
from repro.api.stream import (
    EditReport,
    StoreThrashError,
    StreamError,
    StreamSession,
)

__all__ = [
    # facade
    "Session",
    "SessionConfig",
    "SessionError",
    "AsyncSession",
    "RemoteSession",
    # streaming edit sessions
    "StreamSession",
    "RemoteStreamSession",
    "StreamError",
    "StoreThrashError",
    "EditReport",
    # pipeline
    "HashRequest",
    "InternRequest",
    "ExecutionPlan",
    "Planner",
    "PlanError",
    "ARENA_NODE_THRESHOLD",
    "AsyncExecutor",
    # backends
    "HasherBackend",
    "FunctionBackend",
    "BACKENDS",
    "TABLE1_ORDER",
    "ABLATION_ORDER",
    "ENTRY_POINT_GROUP",
    "backend_names",
    "get_backend",
    "register_backend",
    "load_entry_point_backends",
]
