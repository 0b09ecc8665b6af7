"""Declarative work requests: what to run, not how to run it.

A request carries *intent* only, never call-site execution knobs:

* :class:`HashRequest` -- "alpha-hash this corpus", plus optional
  backend, determinism hints (``bits``/``seed``, validated against the
  executing session) and an ``engine`` hint;
* :class:`InternRequest` -- "intern this corpus", same hints.

``None`` for any hint means "the session's configured default".
:meth:`~repro.api.session.Session.plan` resolves a request against a
session into an inspectable :class:`~repro.api.plan.ExecutionPlan`, and
:meth:`~repro.api.session.Session.execute` runs the plan::

    request = HashRequest(corpus, engine="auto")
    plan = session.plan(request)        # look before you leap
    hashes = session.execute(request)   # or execute(request, plan)

Requests are frozen: the same request can be planned against several
sessions, logged, or shipped over the wire.  The :mod:`repro.service`
server builds one per HTTP call.  When the arena runs it
(:func:`~repro.api.plan.arena_serves`), the request is
:meth:`HashRequest.compiled`: the request's wire documents go straight
into an :class:`~repro.core.arena.ExprArena` (no ``Expr`` trees), which
the store's arena step hashes and interns as is.  Otherwise the server
lowers the body to trees.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Iterable, Optional, Sequence

from repro.api.plan import PlanError
from repro.core.arena import ENGINE_CHOICES, ExprArena
from repro.lang.expr import Expr

__all__ = ["HashRequest", "InternRequest", "ENGINES"]

#: Accepted ``engine`` hints (``None`` defers to the session default).
#: One tuple with the kernel layer (``repro.core.arena``).
ENGINES = ENGINE_CHOICES


def _freeze_corpus(exprs: Iterable[Expr]) -> tuple[Expr, ...]:
    corpus = tuple(exprs)
    for item in corpus:
        if not isinstance(item, Expr):
            raise TypeError(
                f"corpus items must be expressions, got {type(item).__name__}"
            )
    return corpus


@dataclass(frozen=True, init=False, repr=False)
class HashRequest:
    """One corpus-hashing job, declaratively.

    Parameters
    ----------
    exprs:
        The corpus (materialised into a tuple; order defines the output
        order).
    backend:
        Unified-registry backend name; ``None`` means the session's.
    engine:
        Corpus strategy hint (:data:`ENGINES`): ``"auto"`` / ``"tree"``
        / ``"arena"``; ``None`` defers to the session default.  Any
        other name is a :class:`~repro.api.plan.PlanError`.
    bits / seed:
        Determinism hints: when set, planning fails loudly unless the
        executing session's combiner family matches -- a request built
        for one hash family can never silently run under another.
    """

    exprs: tuple[Expr, ...] = field(repr=False)
    backend: Optional[str] = None
    engine: Optional[str] = None
    bits: Optional[int] = None
    seed: Optional[int] = None

    #: What the planner plans this request as (subclasses override).
    kind = "hash"

    #: ``(arena, roots)`` for a request built by :meth:`compiled`: the
    #: corpus lives in the arena, one root index per item, and
    #: ``exprs`` is empty.  ``None`` for an ``Expr`` corpus.  (Not a
    #: dataclass field, so it is never a hint.)
    compiled_corpus = None

    def __init__(self, exprs: Iterable[Expr], **hints):
        object.__setattr__(self, "exprs", _freeze_corpus(exprs))
        allowed = {f.name for f in fields(self)} - {"exprs"}
        for name in allowed:
            object.__setattr__(self, name, hints.pop(name, None))
        if hints:
            raise TypeError(
                f"unknown request hint(s): {sorted(hints)} "
                f"(accepted: {sorted(allowed)})"
            )
        self._validate()

    @classmethod
    def compiled(
        cls, arena: ExprArena, roots: Sequence[int], **hints
    ) -> "HashRequest":
        """A request over a corpus already compiled into ``arena``, one
        root index per item (``roots``), e.g. by
        :meth:`~repro.core.arena.ExprArena.extend_wire`.

        Only the store's arena step runs it: planning fails for a
        backend with its own pass and for a ``"tree"`` pin, of the
        request or the session.
        """
        request = cls((), **hints)
        object.__setattr__(request, "compiled_corpus", (arena, tuple(roots)))
        return request

    def _validate(self) -> None:
        if self.engine is not None and self.engine not in ENGINES:
            raise PlanError(
                f"engine must be one of {', '.join(ENGINES)}, got {self.engine!r}"
            )
        if self.bits is not None and self.bits < 1:
            raise ValueError(f"bits must be >= 1, got {self.bits}")

    def __len__(self) -> int:
        if self.compiled_corpus is None:
            return len(self.exprs)
        return len(self.compiled_corpus[1])

    @property
    def total_nodes(self) -> int:
        """Total AST nodes in the corpus (O(1) per item: ``Expr.size``,
        or the arena's size column)."""
        if self.compiled_corpus is None:
            return sum(expr.size for expr in self.exprs)
        arena, roots = self.compiled_corpus
        sizes = arena.sizes
        return sum(sizes[root] for root in roots)

    def hints(self) -> dict:
        """The non-default hints, for logging and wire encoding."""
        out = {}
        for f in fields(self):
            if f.name == "exprs":
                continue
            value = getattr(self, f.name)
            if value is not None:
                out[f.name] = value
        return out

    def __repr__(self) -> str:
        hints = ", ".join(f"{k}={v!r}" for k, v in self.hints().items())
        return (
            f"{type(self).__name__}({len(self)} exprs"
            + (f", {hints}" if hints else "")
            + ")"
        )


class InternRequest(HashRequest):
    """One corpus-interning job: same hints, interning semantics.

    Interning always needs a store (planning fails on store-less
    sessions); node ids encode arrival order within that store.
    """

    kind = "intern"
