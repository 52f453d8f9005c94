"""Resilience primitives: cancellation tokens, retry backoff, circuit breaker.

Three mechanisms the drain path composes (see ``repro.service.service``):

Cooperative sweep timeouts
    A :class:`Cancellation` token carries a deadline; the worker thread
    installs it with :func:`cancellation_scope` around an engine invocation
    and every sweep of every run loop (a BFS/SSSP word's sweeps, each CC /
    PageRank iteration) calls :func:`iteration_checkpoint` once, which
    polls the thread's current token.  Solo, multisource, packed and
    streaming runs all sweep through those loops, so one hook covers every
    execution shape.  A word is priced after its last sweep, one
    configuration's engine after another, and :func:`poll_cancellation`
    polls the token after each, so an overrun is seen at most one sweep or
    one configuration's pricing of one word late.  The token *is* the
    watchdog — there is no killer thread (numpy work cannot be interrupted
    from outside anyway); instead the sweep observes its own overrun at the
    next iteration or pricing boundary and raises :class:`SweepTimeoutError`.

Retry backoff
    :class:`RetryPolicy` computes exponential backoff with deterministic
    seeded jitter.  The service clips every computed delay to the group's
    nearest deadline so a retry never runs past an EDF/WFQ budget.

Circuit breaker
    :class:`CircuitBreaker` guards the durable store's SQLite connection
    (see :mod:`repro.service.store`): closed (store used) → open after
    ``failure_threshold`` consecutive failures (in-memory serving only) →
    half-open after ``cooldown_seconds`` (one probe may try the store
    again).  A native-kernel failure needs no breaker: the service re-runs
    that sweep once on the bit-identical numpy backend.
"""

from __future__ import annotations

import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

from ..analysis.lockorder import tracked_lock
from ..errors import SweepTimeoutError
from . import faults


class Cancellation:
    """A cooperative cancel/deadline token polled at iteration boundaries."""

    __slots__ = ("label", "deadline_at", "_cancelled", "_reason")

    def __init__(
        self, budget_seconds: float | None = None, label: str = "sweep"
    ) -> None:
        self.label = label
        self.deadline_at = (
            time.perf_counter() + budget_seconds if budget_seconds is not None else None
        )
        self._cancelled = False
        self._reason = ""

    def cancel(self, reason: str = "cancelled") -> None:
        self._cancelled = True
        self._reason = reason

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def remaining(self) -> float | None:
        if self.deadline_at is None:
            return None
        return self.deadline_at - time.perf_counter()

    def check(self) -> None:
        """Raise :class:`SweepTimeoutError` if cancelled or past deadline."""
        if self._cancelled:
            raise SweepTimeoutError(
                f"{self.label} cancelled: {self._reason or 'cancelled'}"
            )
        if self.deadline_at is not None and time.perf_counter() >= self.deadline_at:
            raise SweepTimeoutError(
                f"{self.label} exceeded its watchdog budget and was cancelled "
                "at an iteration boundary"
            )


_current = threading.local()


def current_cancellation() -> Cancellation | None:
    return getattr(_current, "token", None)


@contextmanager
def cancellation_scope(token: Cancellation | None) -> Iterator[Cancellation | None]:
    """Install ``token`` as the thread's current cancellation (``None`` = no-op).

    Engines run on the thread that invokes them — including fused multisource
    and streaming sweeps — so a thread-local is exactly the right scope.
    """
    if token is None:
        yield None
        return
    previous = getattr(_current, "token", None)
    _current.token = token
    try:
        yield token
    finally:
        _current.token = previous


def iteration_checkpoint() -> None:
    """Per-sweep hook, called once per sweep by every run loop.

    Fires any armed ``engine.sweep`` fault, then polls the thread's current
    cancellation token.  With chaos off and no token installed this is two
    reads — cheap enough for every iteration of every sweep.
    """
    faults.check("engine.sweep")
    poll_cancellation()


def poll_cancellation() -> None:
    """Poll the thread's current cancellation token, and nothing else.

    A BFS/SSSP word calls this after each configuration's engine has priced
    its lanes: pricing runs after the word's last sweep, so without it a
    deadline passed while pricing would go unseen.  It fires no fault.
    """
    token = getattr(_current, "token", None)
    if token is not None:
        token.check()


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with multiplicative jitter.

    ``limit`` counts retries *beyond* the first attempt; ``delay(attempt)``
    is ``backoff * multiplier**attempt`` scaled by up to ``jitter`` relative
    noise from the caller-owned RNG (seeded, so chaos runs are replayable).
    """

    limit: int = 2
    backoff_seconds: float = 0.02
    multiplier: float = 2.0
    jitter: float = 0.25

    def delay(self, attempt: int, rng: random.Random) -> float:
        base = self.backoff_seconds * (self.multiplier ** max(0, attempt))
        if self.jitter <= 0:
            return base
        return base * (1.0 + self.jitter * rng.random())


class CircuitBreaker:
    """Closed → open on consecutive failures → half-open probe, thread-safe.

    ``allow()`` answers "may the protected backend be used for this call?".
    In the half-open state exactly one caller wins the probe; everyone else
    stays degraded until :meth:`record_success` closes the circuit or
    :meth:`record_failure` re-opens it (re-arming the cooldown).
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(
        self,
        failure_threshold: int = 3,
        cooldown_seconds: float = 30.0,
        on_transition: Callable[[str], None] | None = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if cooldown_seconds < 0:
            raise ValueError(f"cooldown_seconds must be >= 0, got {cooldown_seconds}")
        self.failure_threshold = int(failure_threshold)
        self.cooldown_seconds = float(cooldown_seconds)
        self._on_transition = on_transition
        self._clock = clock
        self._lock = tracked_lock("service.CircuitBreaker._lock")
        self._state = self.CLOSED
        self._consecutive_failures = 0
        self._opened_at: float | None = None
        self._probe_granted = False

    @property
    def state(self) -> str:
        with self._lock:
            return self._effective_state_locked()

    def _effective_state_locked(self) -> str:
        if (
            self._state == self.OPEN
            and self._opened_at is not None
            and self._clock() - self._opened_at >= self.cooldown_seconds
        ):
            return self.HALF_OPEN
        return self._state

    def _transition_locked(self, state: str) -> None:
        if state == self._state:
            return
        self._state = state
        callback = self._on_transition
        if callback is not None:
            callback(state)

    def allow(self) -> bool:
        with self._lock:
            effective = self._effective_state_locked()
            if effective == self.CLOSED:
                return True
            if effective == self.HALF_OPEN:
                self._transition_locked(self.HALF_OPEN)
                if not self._probe_granted:
                    self._probe_granted = True
                    return True
            return False

    def record_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            self._probe_granted = False
            self._opened_at = None
            self._transition_locked(self.CLOSED)

    def record_failure(self) -> None:
        with self._lock:
            self._consecutive_failures += 1
            self._probe_granted = False
            if (
                self._state != self.CLOSED
                or self._consecutive_failures >= self.failure_threshold
            ):
                self._opened_at = self._clock()
                self._transition_locked(self.OPEN)
