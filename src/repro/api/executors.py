"""The asynchronous bridge over the execute stage.

The third stage of the request -> plan -> execute pipeline runs in
:meth:`Session.execute <repro.api.session.Session.execute>` itself:
there is one synchronous path, which drives ``ExprStore.hash_corpus`` /
``intern_many`` (or the selected backend's own pass) per the plan.

:class:`AsyncExecutor` runs that path off the calling thread and
returns a ``concurrent.futures.Future``;
:class:`~repro.api.aio.AsyncSession` builds its asyncio surface on it.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.api.plan import ExecutionPlan
    from repro.api.request import HashRequest
    from repro.api.session import Session

__all__ = ["AsyncExecutor"]


class AsyncExecutor:
    """A thread bridge over :meth:`Session.execute`.

    ``submit`` schedules the plan on a private thread pool and returns a
    ``concurrent.futures.Future``; ``run`` blocks on it.  Jobs against
    one session are serialised with a lock -- the store's summary memo
    is the shared resource.  A bounded ``max_workers`` caps the threads;
    :class:`~repro.api.aio.AsyncSession` adds the asyncio semantics
    (awaitables, cancellation, bounded in-flight jobs) on top.
    """

    def __init__(self, max_workers: int = 4):
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers
        self._threads: Optional[ThreadPoolExecutor] = None
        self._session_lock = threading.Lock()

    def _ensure(self) -> ThreadPoolExecutor:
        if self._threads is None:
            self._threads = ThreadPoolExecutor(
                max_workers=self.max_workers,
                thread_name_prefix="repro-async",
            )
        return self._threads

    def submit(
        self, session: "Session", request: "HashRequest", plan: "ExecutionPlan"
    ) -> "Future[list[int]]":
        def job() -> list[int]:
            with self._session_lock:
                return session.execute(request, plan)

        return self._ensure().submit(job)

    def run(
        self, session: "Session", request: "HashRequest", plan: "ExecutionPlan"
    ) -> list[int]:
        return self.submit(session, request, plan).result()

    def close(self) -> None:
        threads, self._threads = self._threads, None
        if threads is not None:
            threads.shutdown(wait=True)

    def __enter__(self) -> "AsyncExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
