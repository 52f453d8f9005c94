"""Thread-pool execution backend for the serving layer.

Traversal jobs are CPU-bound numpy work, which releases the GIL often enough
for a modest thread pool to overlap useful work; more importantly the pool
bounds concurrency, provides graceful shutdown, and counts what is in flight
for the stats snapshot.  The executor is an implementation detail — nothing
outside this module touches ``concurrent.futures``.
"""

from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable

from ..analysis.lockorder import tracked_lock
from ..errors import ConfigurationError, ServiceClosedError


class WorkerPool:
    """A bounded ``ThreadPoolExecutor`` with active-task accounting."""

    def __init__(self, max_workers: int = 4) -> None:
        if max_workers <= 0:
            raise ConfigurationError("max_workers must be positive")
        self.max_workers = max_workers
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-service"
        )
        self._lock = tracked_lock("service.WorkerPool._lock")
        self._active = 0
        self._closed = False

    def submit(self, fn: Callable, *args, **kwargs) -> Future:
        """Schedule ``fn(*args, **kwargs)`` on the pool.

        After :meth:`shutdown` this raises :class:`ServiceClosedError` (a
        ``ServiceError``) rather than the executor's bare ``RuntimeError``;
        the service counts each refusal in its metrics ledger.
        """
        # The closed check and the executor submit happen under one lock so a
        # concurrent shutdown() cannot slip between them; any residual
        # executor-level refusal surfaces as the same ServiceClosedError.
        with self._lock:
            if self._closed:
                raise ServiceClosedError("worker pool is shut down")
            try:
                future = self._executor.submit(fn, *args, **kwargs)
            except RuntimeError as exc:
                raise ServiceClosedError("worker pool is shut down") from exc
            self._active += 1
        # The decrement lives in a done-callback, not a wrapper around ``fn``:
        # ``shutdown(cancel_pending=True)`` cancels queued tasks whose body
        # never runs, and a wrapper-based decrement then leaked ``_active``
        # forever.  Done-callbacks fire for completion, failure AND
        # cancellation, exactly once each.  Added outside the lock: a future
        # that already finished runs the callback inline on this thread, and
        # taking the (non-reentrant) lock while holding it would deadlock.
        future.add_done_callback(self._task_done)
        return future

    def _task_done(self, _future: Future) -> None:
        with self._lock:
            self._active -= 1

    @property
    def active(self) -> int:
        """Tasks currently queued on or running in the executor."""
        with self._lock:
            return self._active

    def shutdown(self, wait: bool = True, cancel_pending: bool = False) -> None:
        """Stop the pool; ``cancel_pending`` drops tasks not yet started."""
        with self._lock:
            self._closed = True
        self._executor.shutdown(wait=wait, cancel_futures=cancel_pending)
