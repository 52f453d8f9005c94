"""Pluggable scheduling policies: which pending batch group runs next.

The request queue groups pending jobs by :attr:`TraversalRequest.batch_key`
(:mod:`repro.service.queue`); whenever a worker frees up it drains exactly one
group.  *Which* group is the scheduling decision, and under a deep queue it is
the difference between a server that merely stays busy and one that spends its
engine sweeps where they matter.  Three policies ship:

``fifo``
    Arrival order of the groups — exactly the pre-policy behaviour, and the
    default.  Predictable and starvation-free, but a deep backlog of bulk
    work delays every latecomer, deadline or not.
``edf``
    Earliest deadline first: the group whose most urgent member job expires
    soonest.  Groups with no deadlines sort last (among themselves: FIFO).
    Classic EDF is optimal for meeting feasible deadlines on one machine:
    behind a bulk backlog it drains an urgent latecomer that strict FIFO
    would leave waiting.
``wfq``
    Start-time weighted-fair queueing over *tenants*.  Each group is charged
    its estimated drain cost (:mod:`repro.service.costmodel`) divided by its
    tenant's configured weight, and the group with the smallest virtual
    finish time drains next.  A backlogged burst from one tenant advances
    that tenant's virtual clock far ahead, so a polite tenant's next group
    wins immediately instead of waiting out the whole burst — the workload
    isolation HTAP systems engineer for between transactional and analytical
    traffic, applied to traversal serving.

Policies only *order* work; admission control (queue limits, tenant quotas,
infeasible-deadline rejection) lives in :meth:`RequestQueue.push_or_join`
and expiry of already-missed deadlines in :meth:`Service._drain_one_batch`.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Mapping, Sequence

from ..config import SCHEDULING_POLICIES, normalize_tenant_weights
from ..errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .costmodel import CostModel
    from .jobs import Job

#: Effective deadline of a group none of whose jobs carry one: sorts last.
_NO_DEADLINE = float("inf")


class SchedulingPolicy(abc.ABC):
    """Strategy object choosing the next batch group to drain.

    ``select`` receives the queue's live group mapping (batch key -> pending
    jobs, iteration order = group creation order) and returns the key of the
    group a worker should execute next.  It is called under the queue lock:
    implementations must be fast, must not block, and must treat the mapping
    as read-only.  The mapping is never empty.
    """

    #: Stable name used by :class:`~repro.config.ServiceConfig.policy`.
    name: str = "abstract"

    @abc.abstractmethod
    def select(
        self,
        groups: Mapping[tuple, Sequence["Job"]],
        group_deadlines: Mapping[tuple, float] | None = None,
    ) -> tuple:
        """Return the batch key of the group to drain next.

        ``group_deadlines`` is the queue's incrementally maintained map of
        each group's most urgent absolute deadline (inf when none), letting
        deadline-aware policies stay O(groups) instead of rescanning every
        pending job; policies that don't need it ignore it, and it may be
        omitted (EDF then derives the same values from the jobs).
        """

    def forget_group(self, key: tuple, jobs: Sequence["Job"]) -> None:
        """Note that ``key`` was dequeued without being selected.

        Called under the queue lock when a group leaves the queue outside
        :meth:`select` — a rider group that :meth:`RequestQueue.pop_plan`
        pops to ride along with the group the policy just selected.
        Stateless policies ignore it; stateful ones (WFQ) refund any
        bookkeeping already charged for the group, since it will consume no
        separately scheduled drain — the plan accounting that keeps virtual
        time exact under fusion.
        """


class FifoPolicy(SchedulingPolicy):
    """Drain groups in arrival order — the historical default behaviour."""

    name = "fifo"

    def select(
        self,
        groups: Mapping[tuple, Sequence["Job"]],
        group_deadlines: Mapping[tuple, float] | None = None,
    ) -> tuple:
        return next(iter(groups))


def group_deadline(jobs: Sequence["Job"]) -> float:
    """Absolute deadline of a group: its most urgent member (inf if none)."""
    return min(
        (job.deadline_at for job in jobs if job.deadline_at is not None),
        default=_NO_DEADLINE,
    )


class EdfPolicy(SchedulingPolicy):
    """Earliest-deadline-first over groups; deadline-free groups go last."""

    name = "edf"

    def select(
        self,
        groups: Mapping[tuple, Sequence["Job"]],
        group_deadlines: Mapping[tuple, float] | None = None,
    ) -> tuple:
        best_key = None
        best_deadline = None
        for key, jobs in groups.items():
            if group_deadlines is not None:
                deadline = group_deadlines.get(key, _NO_DEADLINE)
            else:
                deadline = group_deadline(jobs)
            # Strict < keeps ties (and the all-inf case) in arrival order.
            if best_deadline is None or deadline < best_deadline:
                best_key, best_deadline = key, deadline
        return best_key


class WeightedFairPolicy(SchedulingPolicy):
    """Start-time fair queueing over tenants, charged by estimated cost.

    Classic SFQ bookkeeping: when a group first becomes visible it is
    assigned a virtual *start* tag ``S = max(V, tail(tenant))`` — the current
    virtual time, or the finish tag most recently assigned to the same
    tenant, whichever is later — and a *finish* tag ``F = S + cost/weight``.
    The pending group with the smallest finish tag drains next (ties in
    arrival order), and virtual time advances to the winner's start tag.
    Tags are assigned **once** and kept until the group drains: a tenant's
    pending groups chain their tags forward (`tail`), so a deep burst books
    virtual time far into the future while a polite tenant's next group is
    tagged near ``V`` and wins immediately.  Recomputing tags at every
    selection instead would silently drag an unserved tenant's start tag up
    to ``V`` and could starve it — the exact failure fair queueing exists to
    prevent.

    ``cost`` is the cost model's estimated engine seconds to drain the whole
    group, frozen at tag time (jobs joining a pending group later ride along
    free, consistent with how batching amortizes them); without a model every
    group costs its width, degrading gracefully to per-job fairness.  A group
    is charged to the tenant of its **oldest member** — batch keys
    deliberately ignore tenants (so cross-tenant duplicates still batch and
    dedup), making a group's tenant an attribution choice, and the member
    that created the group is the natural owner.  Tenants without a
    configured weight, including the anonymous ``None`` tenant, get weight 1.

    The virtual clocks make this policy **stateful**: one instance belongs to
    one queue.  ``select`` commits clock updates because the queue pops the
    chosen group immediately (selection *is* dispatch).
    """

    name = "wfq"

    #: Fair-queueing share of tenants absent from the configured weights.
    DEFAULT_WEIGHT = 1.0

    def __init__(
        self,
        tenant_weights=None,
        cost_model: "CostModel | None" = None,
    ) -> None:
        self._weights = dict(normalize_tenant_weights(tenant_weights) or ())
        self._cost_model = cost_model
        self._virtual_time = 0.0
        #: Finish tag most recently *assigned* (not served) per tenant.
        self._tenant_tail: dict[str | None, float] = {}
        #: Assigned ``(start, finish, first_job)`` tags of still-pending
        #: groups.  The first-job reference detects a batch key that was
        #: emptied (discard) and recreated by a different submission between
        #: two selects: the recreated group must be tagged afresh, not
        #: inherit the vanished group's priority.
        self._group_tags: dict[tuple, tuple[float, float, "Job"]] = {}

    def weight_of(self, tenant: str | None) -> float:
        return self._weights.get(tenant, self.DEFAULT_WEIGHT)

    def _group_cost(self, key: tuple, jobs: Sequence["Job"]) -> float:
        if self._cost_model is None:
            return float(len(jobs))
        return self._cost_model.estimate_group(key, len(jobs))

    def select(
        self,
        groups: Mapping[tuple, Sequence["Job"]],
        group_deadlines: Mapping[tuple, float] | None = None,
    ) -> tuple:
        # Groups can vanish without being selected (withdrawn by discard, or
        # drained through the queue's defensive fallback); their stale tags
        # must not poison a later group that reuses the batch key, so a tag
        # survives only while its key is pending AND still anchored by the
        # job it was assigned for.
        self._group_tags = {
            key: tags
            for key, tags in self._group_tags.items()
            if key in groups and any(job is tags[2] for job in groups[key])
        }
        best = None
        for key, jobs in groups.items():
            tags = self._group_tags.get(key)
            if tags is None:
                # First sight ≈ arrival: the queue consults the policy on
                # every drain, so a group is tagged before anything that
                # arrived after it can be selected.
                tenant = jobs[0].request.tenant
                start = max(self._virtual_time, self._tenant_tail.get(tenant, 0.0))
                finish = start + self._group_cost(key, jobs) / self.weight_of(tenant)
                tags = self._group_tags[key] = (start, finish, jobs[0])
                self._tenant_tail[tenant] = finish
            # Strict < keeps ties in arrival order.
            if best is None or tags[1] < best[1][1]:
                best = (key, tags)
        key, (start, _finish, _anchor) = best
        del self._group_tags[key]
        self._virtual_time = max(self._virtual_time, start)
        return key

    def forget_group(self, key: tuple, jobs: Sequence["Job"]) -> None:
        """Refund a fused-away group's booked virtual time.

        Tagging charged the group's ``cost/weight`` to its tenant's tail;
        when the group rides along with a sibling instead of consuming its
        own drain, that charge would permanently deprioritize the tenant's
        future groups.  The refund shrinks the tail by exactly the booked
        interval (``finish - start``); tags already chained on top of it
        keep their order, only the tenant's *next* tag benefits.
        """
        tags = self._group_tags.pop(key, None)
        if tags is None:
            return
        start, finish, anchor = tags
        if not any(job is anchor for job in jobs):
            # The tag belonged to a vanished earlier incarnation of this
            # batch key (same staleness rule select applies): nothing of
            # these jobs was ever charged.
            return
        tenant = anchor.request.tenant
        tail = self._tenant_tail.get(tenant)
        if tail is not None:
            self._tenant_tail[tenant] = max(tail - (finish - start), 0.0)


_POLICY_CLASSES: dict[str, type[SchedulingPolicy]] = {
    policy.name: policy
    for policy in (FifoPolicy, EdfPolicy, WeightedFairPolicy)
}
assert set(_POLICY_CLASSES) == set(SCHEDULING_POLICIES), (
    "repro.config.SCHEDULING_POLICIES and repro.service.scheduler drifted apart"
)


def make_policy(
    policy: str | SchedulingPolicy | None,
    tenant_weights=None,
    cost_model: "CostModel | None" = None,
) -> SchedulingPolicy:
    """Resolve a policy name (or pass through an instance; ``None`` = FIFO).

    ``tenant_weights`` and ``cost_model`` configure the ``"wfq"`` policy and
    are ignored by the stateless ones (an explicitly passed-through instance
    keeps whatever it was constructed with).
    """
    if policy is None:
        return FifoPolicy()
    if isinstance(policy, SchedulingPolicy):
        return policy
    try:
        cls = _POLICY_CLASSES[policy]
    except (KeyError, TypeError):
        raise ConfigurationError(
            f"unknown scheduling policy {policy!r}; "
            f"choose one of: {', '.join(SCHEDULING_POLICIES)}"
        ) from None
    if cls is WeightedFairPolicy:
        return WeightedFairPolicy(tenant_weights=tenant_weights, cost_model=cost_model)
    return cls()
