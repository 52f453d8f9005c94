"""Pending-request queue: dedup, batch grouping, admission, scheduling.

Three serving concerns meet here:

* **Deduplication** — an index over in-flight jobs by result identity
  (:attr:`TraversalRequest.cache_key`) lets a new identical request join the
  job that is already queued or running instead of enqueueing a second
  execution.
* **Batching** — pending jobs are grouped by
  :attr:`TraversalRequest.batch_key` (same graph / application / strategy /
  platform, sources free), and a worker drains a whole group at once.  The
  group shares one registry lookup and one warm engine configuration, the
  amortization the paper's 64-source ``run_average`` experiments rely on.
* **Admission + scheduling** — enqueueing is bounded (global queue limit,
  per-tenant quotas; over-limit submissions raise
  :class:`~repro.errors.AdmissionError` atomically with the enqueue attempt),
  and *which* group a worker drains next is delegated to a pluggable
  :class:`~repro.service.scheduler.SchedulingPolicy`.
"""

from __future__ import annotations

import logging
import math
from collections import OrderedDict
from typing import Callable

from ..analysis.lockorder import tracked_lock
from ..errors import AdmissionError, InfeasibleDeadlineError
from .costmodel import CostModel
from .jobs import Job
from .scheduler import SchedulingPolicy, group_deadline, make_policy

logger = logging.getLogger(__name__)


class RequestQueue:
    """Thread-safe queue of batch groups plus the in-flight dedup index.

    The optional ``cost_model`` powers infeasible-deadline admission
    (:meth:`push_or_join` with ``reject_infeasible``); pass the same instance
    to a ``"wfq"`` policy so ordering and admission share one view of
    predicted costs.
    """

    def __init__(
        self,
        policy: SchedulingPolicy | str | None = None,
        cost_model: CostModel | None = None,
        on_policy_fallback: Callable[[], None] | None = None,
    ) -> None:
        self._lock = tracked_lock("service.RequestQueue._lock")
        self._policy = make_policy(policy, cost_model=cost_model)
        self._cost_model = cost_model
        #: Invoked (outside any hot loop, still under the queue lock) every
        #: time the policy names a non-pending group and the queue falls back
        #: to arrival order — wired to a service counter so policy bugs are
        #: visible instead of silently absorbed.
        self._on_policy_fallback = on_policy_fallback
        self._groups: OrderedDict[tuple, list[Job]] = OrderedDict()
        #: Most urgent absolute deadline per pending group (inf when none),
        #: maintained incrementally on push/join/discard so deadline-aware
        #: policies select in O(groups) instead of rescanning every job.
        self._group_deadlines: dict[tuple, float] = {}
        self._inflight: dict[tuple, Job] = {}
        self._pending = 0
        self._pending_by_tenant: dict[str | None, int] = {}

    @property
    def policy(self) -> SchedulingPolicy:
        return self._policy

    def push_or_join(
        self,
        job: Job,
        cache_lookup: Callable[[tuple], object] | None = None,
        queue_limit: int | None = None,
        tenant_quota: int | None = None,
        reject_infeasible: bool = False,
        workers: int = 1,
    ) -> tuple[str, object]:
        """Enqueue ``job``, join the identical in-flight job, or hit the cache.

        Returns one of::

            ("queued", job)        the job was enqueued for execution
            ("joined", existing)   an identical request is pending or running
            ("cached", result)     ``cache_lookup`` found a finished result

        All checks happen atomically under the queue lock.  Workers publish a
        finished result to the cache *before* releasing the dedup entry, so as
        long as the cache can hold the entry, every identical request finds
        either the in-flight job or the cached result and never re-executes.
        (With caching disabled or the entry evicted, a duplicate arriving
        after completion re-runs — correct, just not amortized.)

        Admission control applies only to the "queued" outcome: joining an
        in-flight job or being answered from cache consumes no queue capacity,
        so those submissions are always admitted.  A full queue
        (``queue_limit``) or exhausted tenant quota (``tenant_quota``;
        tenant-less requests share the anonymous ``None`` bucket) raises
        :class:`AdmissionError` without enqueueing anything.

        With ``reject_infeasible`` (and a cost model), a deadline-carrying
        job whose estimated wait — the whole pending backlog's predicted
        drain cost spread over ``workers``, plus its own execution — already
        exceeds its budget raises :class:`InfeasibleDeadlineError` at
        arrival instead of expiring in the queue later.  The backlog bound
        is deliberately policy-agnostic and conservative (every pending
        group might drain first); a hopeless request is refused in
        microseconds while a merely tight one is admitted and given to the
        deadline-aware policies.
        """
        key = job.request.cache_key
        with self._lock:
            existing = self._inflight.get(key)
            if existing is not None:
                # Merge the duplicate's urgency into the shared job: the most
                # urgent waiter drives EDF priority, and a deadline-free
                # waiter makes the job unexpirable (it is owed the result).
                existing.note_joined(job)
                batch_key = existing.request.batch_key
                if (
                    existing.deadline_at is not None
                    and existing.deadline_at
                    < self._group_deadlines.get(batch_key, math.inf)
                    and existing in self._groups.get(batch_key, ())
                ):
                    # The shared job is still pending: its tightened urgency
                    # promotes the whole group.  (A running job's deadline
                    # must not leak into the group left behind.)
                    self._group_deadlines[batch_key] = existing.deadline_at
                return "joined", existing
            if cache_lookup is not None:
                cached = cache_lookup(key)
                if cached is not None:
                    return "cached", cached
            tenant = job.request.tenant
            if queue_limit is not None and self._pending >= queue_limit:
                raise AdmissionError(
                    f"queue full: {self._pending} jobs pending "
                    f"(queue_limit={queue_limit})",
                    tenant=tenant,
                )
            if tenant_quota is not None:
                held = self._pending_by_tenant.get(tenant, 0)
                if held >= tenant_quota:
                    raise AdmissionError(
                        f"tenant {tenant!r} has {held} jobs pending "
                        f"(tenant_quota={tenant_quota})",
                        tenant=tenant,
                    )
            if (
                reject_infeasible
                and self._cost_model is not None
                and job.request.deadline is not None
            ):
                backlog = self._cost_model.estimate_sweep(
                    (group_key, len(group_jobs))
                    for group_key, group_jobs in self._groups.items()
                )
                estimated = backlog / max(1, workers) + self._cost_model.estimate_group(
                    job.request.batch_key, 1
                )
                if estimated > job.request.deadline:
                    raise InfeasibleDeadlineError(
                        f"deadline of {job.request.deadline:g}s cannot be met: "
                        f"estimated backlog wait + execution is {estimated:.3f}s "
                        f"({self._pending} jobs pending; {job.request.describe()})",
                        tenant=tenant,
                    )
            self._inflight[key] = job
            batch_key = job.request.batch_key
            self._groups.setdefault(batch_key, []).append(job)
            self._group_deadlines[batch_key] = min(
                self._group_deadlines.get(batch_key, math.inf),
                job.deadline_at if job.deadline_at is not None else math.inf,
            )
            self._pending += 1
            self._pending_by_tenant[tenant] = (
                self._pending_by_tenant.get(tenant, 0) + 1
            )
            return "queued", job

    def _forget_pending(self, job: Job) -> None:
        """Update the pending counters for one dequeued job (lock held)."""
        self._pending -= 1
        tenant = job.request.tenant
        remaining = self._pending_by_tenant.get(tenant, 0) - 1
        if remaining > 0:
            self._pending_by_tenant[tenant] = remaining
        else:
            self._pending_by_tenant.pop(tenant, None)

    def pop_batch(self) -> list[Job]:
        """Remove and return the next batch group (empty list if idle).

        The scheduling policy chooses the group; the entire group is handed
        to one worker, and groups left behind can be drained concurrently by
        other workers.
        """
        with self._lock:
            if not self._groups:
                return []
            key = self._policy.select(self._groups, self._group_deadlines)
            jobs = self._groups.pop(key, None)
            if jobs is None:
                # Defensive: a policy named a non-pending group; fall back to
                # arrival order rather than dropping the wakeup — but loudly,
                # so a buggy policy cannot hide behind the safety net.
                logger.warning(
                    "scheduling policy %r selected non-pending group %r; "
                    "falling back to arrival order",
                    self._policy.name,
                    key,
                )
                if self._on_policy_fallback is not None:
                    self._on_policy_fallback()
                key, jobs = self._groups.popitem(last=False)
            self._group_deadlines.pop(key, None)
            for job in jobs:
                self._forget_pending(job)
            return jobs

    def snapshot_groups(self) -> dict[tuple, tuple[Job, ...]]:
        """Point-in-time copy of the pending backlog, keyed by batch key.

        Fusion planning input: the caller picks riders from the snapshot
        *without* holding the queue lock, then claims the groups its plan
        needs through :meth:`claim_groups` — which tolerates any
        group another worker drained in between.  Job tuples are copies; the
        queue's own group lists are never exposed.
        """
        with self._lock:
            return {key: tuple(jobs) for key, jobs in self._groups.items()}

    def claim_groups(self, keys) -> dict[tuple, list[Job]]:
        """Atomically pop the named groups for rider execution in a fused plan.

        Returns only the groups still pending — a key drained by a concurrent
        worker since the snapshot is simply absent from the result, and the
        caller's plan must adjust.  Each claimed group is reported to
        :meth:`SchedulingPolicy.forget_group`: the rider rides along with a
        group the policy already selected and charged for, so stateful
        policies (WFQ) refund any virtual time booked for it — the plan
        accounting that keeps fairness exact under fusion.
        """
        with self._lock:
            claimed: dict[tuple, list[Job]] = {}
            for key in keys:
                jobs = self._groups.pop(key, None)
                if jobs is None:
                    continue
                self._group_deadlines.pop(key, None)
                for job in jobs:
                    self._forget_pending(job)
                self._policy.forget_group(key, jobs)
                claimed[key] = jobs
            return claimed

    def pop_plan(self, build):
        """Pop the policy-selected group, then claim the riders ``build`` names.

        ``build(anchor_jobs, snapshot)`` runs *without* the queue lock (it may
        consult the cost model freely) and returns ``(plan, rider_keys)``;
        ``snapshot`` is :meth:`snapshot_groups` itself, so a build that plans
        no riders never pays for the backlog copy, and the plan object is
        opaque to the queue.  Returns ``(plan, claimed)``
        where ``claimed`` maps each successfully claimed rider key to its
        jobs, or ``None`` when the queue was idle.  The scheduling policy
        stays in charge of *which* work drains next — planning only decides
        what rides along with its selection.
        """
        anchor = self.pop_batch()
        if not anchor:
            return None
        plan, rider_keys = build(anchor, self.snapshot_groups)
        claimed = self.claim_groups(rider_keys) if rider_keys else {}
        return plan, claimed

    def discard(self, job: Job) -> bool:
        """Withdraw a still-pending job (used when dispatch fails).

        Removes the job from its batch group and the dedup index; returns
        False if a worker already picked the job up (in which case the worker
        owns its completion).
        """
        with self._lock:
            group = self._groups.get(job.request.batch_key)
            if group is None or job not in group:
                return False
            group.remove(job)
            self._forget_pending(job)
            if not group:
                del self._groups[job.request.batch_key]
                self._group_deadlines.pop(job.request.batch_key, None)
            elif job.deadline_at is not None:
                # The withdrawn job may have been the group's most urgent
                # member; recompute from the survivors (rare path, small
                # group) so the cache never overstates urgency.
                self._group_deadlines[job.request.batch_key] = group_deadline(group)
            if self._inflight.get(job.request.cache_key) is job:
                del self._inflight[job.request.cache_key]
            return True

    def expire(self, job: Job, now: float) -> bool:
        """Atomically decide expiry and retire the dedup entry.

        The expiry check and the in-flight removal happen under one lock so
        a deadline-free duplicate can never join the job *after* it was
        judged expired (it either joined earlier — clearing ``expire_at``,
        making this return False — or misses the dedup entry entirely and
        enqueues its own execution).  Returns True when the caller now owns
        failing the job; no further :meth:`release` is needed.
        """
        with self._lock:
            if not job.expired(now):
                return False
            if self._inflight.get(job.request.cache_key) is job:
                del self._inflight[job.request.cache_key]
            return True

    def release(self, job: Job) -> None:
        """Drop a finished job from the dedup index.

        Called after the job's result has been published to the result cache,
        so identical requests always find either the in-flight job or the
        cached result.
        """
        key = job.request.cache_key
        with self._lock:
            if self._inflight.get(key) is job:
                del self._inflight[key]

    def find_inflight(self, cache_key: tuple) -> Job | None:
        with self._lock:
            return self._inflight.get(cache_key)

    def pending_count(self) -> int:
        """Jobs enqueued but not yet picked up by a worker."""
        with self._lock:
            return self._pending

    def pending_by_tenant(self) -> dict[str | None, int]:
        """Snapshot of queued-job counts per tenant (``None`` = anonymous)."""
        with self._lock:
            return dict(self._pending_by_tenant)

    def inflight_count(self) -> int:
        """Jobs queued or running (the dedup window)."""
        with self._lock:
            return len(self._inflight)

    def __len__(self) -> int:
        return self.pending_count()
