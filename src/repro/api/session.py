"""The :class:`Session` facade: one front door for hashing workloads.

A session owns the three things every consumer used to assemble by
hand -- a combiner family, an optional :class:`~repro.store.ExprStore`,
and a named backend from the unified registry -- and exposes the whole
workflow behind one object::

    from repro.api import Session

    session = Session()                       # "ours", 64-bit, store-backed
    session.hash(expr)                        # root alpha-hash
    session.hashes(expr)                      # every subexpression
    session.hash_corpus(corpus)               # store-batched
    session.intern(expr)                      # canonical node id

    # corpus work is a request -> plan -> execute pipeline underneath:
    request = HashRequest(corpus, engine="auto")
    session.plan(request)                     # inspectable ExecutionPlan
    session.execute(request)                  # one serial path
    session.cse(expr); session.share(expr)    # apps, pooled through the store
    session.save("corpus.snap")               # persist the intern table
    warm = Session.load("corpus.snap")        # ...in another process

    Session(backend="debruijn").hashes(expr)  # any Table 1 row or ablation

Store routing: only the default ``ours`` backend is bit-compatible with
the store's memoised summariser, so only it is served from the store;
every other backend runs its own pass (selecting ``always_left`` and
then silently timing the store path would defeat the selection).  The
store still backs :meth:`intern` / :meth:`cse` / :meth:`share`
regardless of backend, since interning is defined over the canonical
alpha-hash.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Optional, Union

from repro.api.backends import HasherBackend, backend_names, get_backend
from repro.api.plan import ExecutionPlan, plan_request
from repro.api.request import HashRequest, InternRequest
from repro.core.arena import ENGINE_CHOICES, flatten_corpus
from repro.core.combiners import DEFAULT_SEED, HashCombiners
from repro.core.hashed import AlphaHashes
from repro.lang.expr import Expr
from repro.store import ExprStore, SnapshotError, read_snapshot

__all__ = ["Session", "SessionConfig", "SessionError"]


class SessionError(RuntimeError):
    """A session was asked for something its configuration rules out."""


@dataclass(frozen=True)
class SessionConfig:
    """Everything a :class:`Session` needs, in one declarative record.

    ``seed=None`` means the shared fixed default (reproducible hashes
    across sessions and processes).  ``use_store=False`` disables the
    store entirely: hashing runs the backend directly and
    intern/save/load become unavailable.  ``max_entries``/``memo_limit``
    configure the store's LRU-bounded mode.

    ``engine`` picks the corpus hashing strategy: ``"auto"`` and
    ``"arena"`` compile a store-served corpus into an array arena,
    ``"tree"`` pins the memoised tree walk (see the README's "Arena
    kernel" section).
    """

    backend: str = "ours"
    bits: int = 64
    seed: Optional[int] = None
    use_store: bool = True
    max_entries: Optional[int] = None
    memo_limit: Optional[int] = None
    engine: str = "auto"

    @property
    def resolved_seed(self) -> int:
        return DEFAULT_SEED if self.seed is None else self.seed


class Session:
    """One coherent entry point over backends, combiners and the store.

    Construct from a :class:`SessionConfig` or from keyword overrides::

        Session()                                   # all defaults
        Session(backend="ours_lazy", bits=32)
        Session(SessionConfig(max_entries=10_000))
    """

    def __init__(self, config: Optional[SessionConfig] = None, **overrides):
        if config is None:
            config = SessionConfig(**overrides)
        elif overrides:
            raise TypeError(
                "pass either a SessionConfig or keyword overrides, not both"
            )
        if config.engine not in ENGINE_CHOICES:
            raise ValueError(
                f"engine must be one of {', '.join(ENGINE_CHOICES)}, got "
                f"{config.engine!r}"
            )
        self.config = config
        self.backend: HasherBackend = get_backend(config.backend)
        self.combiners = HashCombiners(
            bits=config.bits, seed=config.resolved_seed
        )
        self.store: Optional[ExprStore] = None
        if config.use_store:
            self.store = ExprStore(
                self.combiners,
                max_entries=config.max_entries,
                memo_limit=config.memo_limit,
            )

    def __repr__(self) -> str:  # pragma: no cover
        store = f"{len(self.store)} entries" if self.store else "no store"
        return (
            f"Session(backend={self.backend.name!r}, "
            f"bits={self.combiners.bits}, {store})"
        )

    @property
    def _store_backed(self) -> bool:
        return self.store is not None and self.backend.store_backed

    # -- hashing ---------------------------------------------------------------

    def hash(self, expr: Expr) -> int:
        """The root hash of ``expr`` under the session's backend."""
        if self._store_backed:
            return self.store.hash_expr(expr)
        return self.backend.hash_all(expr, self.combiners).root_hash

    def hashes(self, expr: Expr) -> AlphaHashes:
        """Hashes of every subexpression of ``expr``."""
        if self._store_backed:
            return self.store.hashes(expr)
        return self.backend.hash_all(expr, self.combiners)

    # -- the request -> plan -> execute pipeline -------------------------------

    def plan(self, request: HashRequest) -> ExecutionPlan:
        """Resolve ``request`` into an inspectable :class:`ExecutionPlan`
        (backend, store routing, engine, kernel) without running
        anything.  See :mod:`repro.api.plan` for the policy."""
        return plan_request(self, request)

    def execute(
        self, request: HashRequest, plan: Optional[ExecutionPlan] = None
    ) -> list[int]:
        """Run ``request`` (planning it first unless ``plan`` is given).

        The canonical entry point for corpus work::

            session.execute(HashRequest(corpus, engine="arena"))
            session.execute(InternRequest(corpus))

        Results are bit-identical across engines -- the plan only
        decides *how* the same pure function is evaluated.  A compiled
        request (:meth:`HashRequest.compiled`) goes to the store's arena
        step as is (it plans nothing else).
        """
        if plan is None:
            plan = self.plan(request)
        compiled = request.compiled_corpus
        if plan.kind == "intern":
            store = self._require_store("intern requests")
            if compiled is not None:
                return store.intern_arena(*compiled)[0]
            return store.intern_many(request.exprs, engine=plan.engine)
        if plan.store_backed:
            if compiled is not None:
                return self.store.hash_arena(*compiled)
            return self.store.hash_corpus(request.exprs, engine=plan.engine)
        backend = get_backend(plan.backend)
        return [
            backend.hash_all(e, self.combiners).root_hash for e in request.exprs
        ]

    def intern_with_hashes(
        self,
        request: InternRequest,
        plan: Optional[ExecutionPlan] = None,
        check: Optional[Callable[[list[int]], None]] = None,
    ) -> tuple[list[int], list[int]]:
        """Run an intern request; return ``(ids, hashes)``, one of each
        per item, the hash being the item's root alpha-hash.

        On an arena plan the hashes come from the kernel pass interning
        runs anyway; on a tree plan from the memoised walk (warm after
        interning).  ``check``, when given, receives the hashes before
        anything is interned and refuses the batch by raising (a cluster
        shard refuses keys it does not own); a tree plan then hashes
        first and interns from the warm memo.
        """
        if plan is None:
            plan = self.plan(request)
        store = self._require_store("intern requests")
        if plan.engine == "arena":
            arena, roots = request.compiled_corpus or flatten_corpus(
                request.exprs
            )
            return store.intern_arena(arena, roots, check=check)
        items = request.exprs
        if check is None:
            ids = store.intern_many(items, engine=plan.engine)
            return ids, [store.hash_expr(expr) for expr in items]
        hashes = [store.hash_expr(expr) for expr in items]
        check(hashes)
        return store.intern_many(items, engine=plan.engine), hashes

    def hash_corpus(self, exprs: Iterable[Expr]) -> list[int]:
        """Root hashes of a whole corpus, store-batched when possible:
        repeated and overlapping subtrees are summarised once.

        Sugar for ``execute(HashRequest(exprs))``: the session's
        configured ``engine`` is the planner's default.  Pass a
        :class:`~repro.api.request.HashRequest` carrying hints to
        :meth:`execute` to override it per call.
        """
        return self.execute(HashRequest(exprs))

    def close(self) -> None:
        """End the session (idempotent); the store and caches survive.

        Sessions are also context managers::

            with Session() as session:
                session.hash_corpus(corpus)
        """

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- interning and apps ----------------------------------------------------

    def _require_store(self, operation: str) -> ExprStore:
        if self.store is None:
            raise SessionError(
                f"{operation} needs a store; this session was built with "
                "use_store=False"
            )
        return self.store

    def intern(self, expr: Expr) -> int:
        """Intern ``expr``; alpha-equivalent trees share one node id."""
        return self._require_store("intern()").intern(expr)

    def intern_many(self, exprs: Iterable[Expr]) -> list[int]:
        """Batch :meth:`intern`: one id per input, duplicates collapse.

        Sugar for ``execute(InternRequest(exprs))``; node ids encode
        arrival order within this session's store.
        """
        return self.execute(InternRequest(exprs))

    def open_stream(
        self,
        corpus: Iterable[Expr],
        intern_classes: Optional[bool] = None,
    ):
        """Open a :class:`~repro.api.stream.StreamSession` over ``corpus``.

        The streaming counterpart of :meth:`hash_corpus`: pay the
        O(corpus) open once, then stream subtree-replacement edits that
        re-hash only the dirty spine (see :mod:`repro.api.stream`).
        Corpus roots are interned and pinned in this session's store so
        LRU pressure from other traffic cannot evict them mid-stream.
        """
        from repro.api.stream import StreamSession

        return StreamSession(corpus, session=self, intern_classes=intern_classes)

    def cse(self, expr: Expr, **kwargs):
        """Common-subexpression elimination through the session's store
        (see :func:`repro.apps.cse.cse` for the knobs)."""
        from repro.apps.cse import cse

        return cse(expr, combiners=self.combiners, store=self.store, **kwargs)

    def share(
        self,
        exprs: Union[Expr, Iterable[Expr]],
        engine: Optional[str] = None,
    ):
        """Alpha-share one expression (-> ``SharingResult``) or a corpus
        (-> list of them), pooling the canonical DAG across the session.

        Corpora go through :func:`repro.apps.sharing.share_alpha_corpus`,
        which batch-interns the whole input on the store's arena
        bulk-intern fast path unless ``tree`` is pinned.  ``engine``
        overrides the session default per call, like :meth:`hash_corpus`."""
        from repro.apps.sharing import share_alpha, share_alpha_corpus

        if isinstance(exprs, Expr):
            return share_alpha(exprs, combiners=self.combiners, store=self.store)
        return share_alpha_corpus(
            list(exprs),
            combiners=self.combiners,
            store=self.store,
            engine=self.config.engine if engine is None else engine,
        )

    # -- introspection ---------------------------------------------------------

    def stats(self) -> dict:
        """One merged accounting dict: config, backend, store counters."""
        out: dict = {
            "backend": self.backend.name,
            "backend_kind": self.backend.kind,
            "bits": self.combiners.bits,
            "seed": self.combiners.seed,
            "store_enabled": self.store is not None,
        }
        if self.store is not None:
            out["entries"] = len(self.store)
            out["store"] = self.store.stats.as_dict()
        out["engine"] = self.config.engine
        return out

    # -- persistence -----------------------------------------------------------

    def save(self, path: str) -> str:
        """Snapshot the session's store (and backend name) to ``path``."""
        store = self._require_store("save()")
        store.save(path, meta={"backend": self.backend.name, "config": asdict(self.config)})
        return path

    @classmethod
    def load(cls, path: str, backend: Optional[str] = None) -> "Session":
        """Rebuild a session from a :meth:`save` snapshot.

        Root hashes are bit-identical to the saving process, and
        interning lands on the saved node ids without growing the
        store.  The memo starts cold: an expression is summarised once
        before it resolves to its class.  Trees are built on request by
        ``expr_of``, as in the saving process.  ``backend`` overrides
        the saved backend name.
        """
        store, header = read_snapshot(path)
        return cls._adopt_snapshot(store, header, backend)

    @classmethod
    def from_snapshot_bytes(
        cls, data: bytes, backend: Optional[str] = None
    ) -> "Session":
        """:meth:`load`, but from in-memory snapshot wire bytes (e.g.
        fetched from a :mod:`repro.service` server)."""
        from repro.store import snapshot_from_bytes

        store, header = snapshot_from_bytes(data)
        return cls._adopt_snapshot(store, header, backend)

    @classmethod
    def _adopt_snapshot(
        cls, store: ExprStore, header: dict, backend: Optional[str]
    ) -> "Session":
        """The one snapshot-adoption path behind :meth:`load` and
        :meth:`from_snapshot_bytes`; a ``meta`` it cannot adopt raises
        :class:`SnapshotError`."""
        meta = header.get("meta") or {}
        saved_config = meta.get("config", {})
        if not isinstance(saved_config, dict):
            raise SnapshotError(
                f"snapshot meta 'config' must be an object, got {saved_config!r}"
            )
        engine = saved_config.get("engine", "auto")
        if engine not in ENGINE_CHOICES:
            raise SnapshotError(
                f"snapshot meta config 'engine' must be one of "
                f"{', '.join(ENGINE_CHOICES)}, got {engine!r}"
            )
        if not backend:
            backend = meta.get("backend", "ours")
            if backend not in backend_names(include_aliases=True):
                raise SnapshotError(
                    f"snapshot meta 'backend' {backend!r} is not registered"
                )
        config = SessionConfig(
            backend=backend,
            bits=header["bits"],
            seed=header["seed"],
            use_store=True,
            max_entries=header.get("max_entries"),
            memo_limit=header.get("memo_limit"),
            engine=engine,
        )
        session = cls(config)
        # Adopt the restored store wholesale (same combiner family: the
        # snapshot header is the source of bits and seed).
        session.store = store
        session.combiners = store.combiners
        return session
