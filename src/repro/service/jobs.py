"""Job objects tracking one accepted request through its lifecycle.

A job moves ``PENDING → RUNNING → DONE`` (or ``FAILED``); completion is
signalled through a :class:`threading.Event` so any number of clients —
including the duplicates that were coalesced onto this job — can block on the
same result.  Reaching the terminal state and signalling it are two steps
(:meth:`Job.mark_done` / :meth:`Job.mark_failed`, then :meth:`Job.wake`): the
service does its accounting in between, so a client woken by a job finds that
job in every stat, series and trace.  Wall-clock timestamps record queueing
delay and execution time separately, which is what the serving benchmark
reports as latency.
"""

from __future__ import annotations

import enum
import threading
import time
from dataclasses import dataclass, field

from ..traversal.results import TraversalResult
from .requests import TraversalRequest


class JobStatus(enum.Enum):
    """Lifecycle states of a submitted traversal job."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"


@dataclass(eq=False)
class Job:
    """One unit of scheduled work: a request plus its execution state.

    ``eq=False``: jobs compare (and hash) by identity.  Every membership
    check in the serving layer — ``existing in group``, ``group.remove(job)``
    — means *this* job object, and a generated field-wise ``__eq__`` would
    instead compare exceptions, events and timestamps on every queue
    operation (and could conflate two distinct jobs mid-transition).
    """

    job_id: str
    request: TraversalRequest
    status: JobStatus = JobStatus.PENDING
    submitted_at: float = field(default_factory=time.perf_counter)
    #: Wall-clock epoch time of submission, captured once alongside
    #: ``submitted_at``.  Latency math stays purely on the monotonic
    #: ``perf_counter`` timeline; this anchor only exists so exported spans
    #: can carry real timestamps (see :meth:`wall_clock`).
    submitted_wall: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    #: When the job entered the pending queue (end of admission work);
    #: equals ``submitted_at`` for cache hits and rejected submissions.
    enqueued_at: float | None = None
    #: When engine work (or the cache lookup) finished, before result-cache
    #: fill and completion bookkeeping; ``None`` until terminal.
    compute_finished_at: float | None = None
    #: Trace id assigned at submission when this request was sampled for
    #: span recording; ``None`` means no spans are emitted for this job.
    trace_id: str | None = None
    #: Span id of the shared engine sweep this job rode (fused/deduped jobs
    #: point at the same sweep), plus its sibling/lane context.
    sweep_ref: str | None = None
    #: Number of other jobs executed in the same engine sweep.
    sweep_siblings: int = 0
    #: Lane count of the word/platform batch that executed this job.
    sweep_lanes: int = 0
    #: Earliest waiter deadline (same clock as the other timestamps), derived
    #: from the request's relative ``deadline`` at enqueue and tightened when
    #: more urgent duplicates join; ``None`` if no waiter carries a deadline.
    #: This is the job's *scheduling* urgency (EDF priority, met/missed
    #: accounting).
    deadline_at: float | None = None
    #: Latest waiter deadline, past which the job is useless to *every*
    #: waiter and may be expired in the queue; ``None`` means never expire —
    #: either no deadline was requested or a deadline-free duplicate joined
    #: and is still owed the result.
    expire_at: float | None = None
    #: Absolute deadline of every waiter that carried one (the original
    #: request plus joined duplicates), so met/missed accounting can judge
    #: each waiter against its *own* budget instead of the tightest.
    deadline_waiters: list = field(default_factory=list)
    result: TraversalResult | None = None
    error: BaseException | None = None
    #: True when the result was served from the result cache without running
    #: the engine.
    from_cache: bool = False
    #: Bookkeeping flag (owned by the service, mutated under its lock): the
    #: job has been entered into the retention-pruning order exactly once.
    retention_noted: bool = field(default=False, repr=False)
    _event: threading.Event = field(default_factory=threading.Event, repr=False)

    def __post_init__(self) -> None:
        if self.deadline_at is None and self.request.deadline is not None:
            self.deadline_at = self.submitted_at + self.request.deadline
            self.expire_at = self.deadline_at
        if self.deadline_at is not None and not self.deadline_waiters:
            self.deadline_waiters.append(self.deadline_at)

    def note_joined(self, other: "Job") -> None:
        """Fold a deduplicated duplicate's deadline into this shared job.

        Called under the queue lock when ``other`` joins this in-flight job.
        The most urgent waiter drives scheduling (``deadline_at`` only ever
        tightens), while expiry only survives if *every* waiter carries a
        deadline: a deadline-free duplicate is owed the result no matter how
        late it arrives, so joining one makes the job unexpirable
        (``expire_at = None``); otherwise the job stays useful until the
        *latest* waiter deadline.
        """
        if other.deadline_at is not None:
            self.deadline_waiters.append(other.deadline_at)
            if self.deadline_at is None or other.deadline_at < self.deadline_at:
                self.deadline_at = other.deadline_at
        if other.deadline_at is None or self.expire_at is None:
            self.expire_at = None
        elif other.deadline_at > self.expire_at:
            self.expire_at = other.deadline_at

    # ------------------------------------------------------------------ #
    # Transitions (called by the service; jobs are passive records)
    # ------------------------------------------------------------------ #
    def mark_running(self) -> None:
        self.status = JobStatus.RUNNING
        self.started_at = time.perf_counter()

    def mark_done(self, result: TraversalResult, from_cache: bool = False) -> None:
        if self.started_at is None:
            self.started_at = time.perf_counter()
        self.result = result
        self.from_cache = from_cache
        self.status = JobStatus.DONE
        self.finished_at = time.perf_counter()

    def mark_failed(self, error: BaseException) -> None:
        if self.started_at is None:
            self.started_at = time.perf_counter()
        self.error = error
        self.status = JobStatus.FAILED
        self.finished_at = time.perf_counter()

    def wake(self) -> None:
        """Signal completion to every waiter; the last step of a lifecycle."""
        self._event.set()

    # ------------------------------------------------------------------ #
    # Observation
    # ------------------------------------------------------------------ #
    @property
    def done(self) -> bool:
        """True once the job's terminal state (DONE or FAILED) was signalled."""
        return self._event.is_set()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job reaches a terminal state; False on timeout."""
        return self._event.wait(timeout)

    @property
    def wait_seconds(self) -> float | None:
        """Wall-clock time spent queued before execution began."""
        if self.started_at is None:
            return None
        return self.started_at - self.submitted_at

    @property
    def run_seconds(self) -> float | None:
        """Wall-clock execution time (0 for cache-served jobs)."""
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    @property
    def total_seconds(self) -> float | None:
        """Wall-clock latency from submission to completion."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    def wall_clock(self, monotonic: float) -> float:
        """Map a ``perf_counter`` reading onto the wall-clock epoch timeline.

        Uses the submission-time anchor, so every timestamp of one job shares
        a single clock offset and span durations remain exact perf_counter
        differences (a wall-clock step mid-job cannot skew them).
        """
        return self.submitted_wall + (monotonic - self.submitted_at)

    def expired(self, now: float | None = None) -> bool:
        """True once the job is useless to every waiter and still unfinished."""
        if self.expire_at is None or self.done:
            return False
        return (time.perf_counter() if now is None else now) > self.expire_at

    @property
    def met_deadline(self) -> bool | None:
        """Did the job complete within its *tightest* waiter deadline?

        ``None`` while unfinished or when no waiter carries a deadline; a job
        that failed (including queue expiry) counts as a miss.  Service stats
        judge each waiter against its own budget via ``deadline_waiters``.
        """
        if self.deadline_at is None or self.finished_at is None:
            return None
        return self.status is JobStatus.DONE and self.finished_at <= self.deadline_at
