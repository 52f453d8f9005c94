"""Cost-model-driven fusion planner: one decision point for every drain.

Fusion used to live in two ad-hoc branches of the drain path — multi-source
batching inside one group, and a CC-only "pop every sibling group" streaming
merge.  Both fused unconditionally and invisibly.  This module replaces them
with an explicit planning step: each drain snapshots the pending backlog,
enumerates the candidate :class:`FusionPlan` shapes the engines can execute —

* **solo / multisource** — the policy-selected anchor group alone (the
  baseline every fused candidate must beat),
* **packed** — the anchor plus small same-graph, same-application BFS/SSSP
  groups of *different* platform configurations, bin-packed into the ≤64
  lanes of one :func:`~repro.traversal.multisource.run_packed_batch` word,
* **streaming** — the anchor plus every same-graph pending group of the same
  streaming application (CC or PageRank), each group one platform lane of a
  shared :func:`~repro.traversal.streaming.run_streaming_batch` pass —

and scores each against :meth:`~repro.service.costmodel.CostModel.\
estimate_shared`.  A fused plan is chosen only when its predicted saving
exceeds the cost model's own mean estimate error, so a model that is still
guessing cannot justify aggressive fusion on noise.

The planner is *policy-visible*: the anchor group is still whatever the
scheduling policy selected, riders are claimed through
:meth:`~repro.service.queue.RequestQueue.claim_groups` (which refunds any
WFQ virtual time booked for them), and every decision is observable through
the service's ``plan`` span and ``repro_planner_*`` metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..types import Application
from .costmodel import CostModel, SharedEstimate
from .jobs import Job

#: Lane capacity of one packed execution word (mirrors the traversal layer's
#: :data:`~repro.traversal.multisource.WORD_BITS` without importing numpy
#: machinery into the planning path).
MAX_LANES = 64


@dataclass
class FusionPlan:
    """One executable drain shape: which groups run together, and how.

    ``groups`` always starts with the policy-selected anchor group;
    ``rider_keys`` names the batch keys of every non-anchor group the plan
    wants claimed from the queue.  ``estimate`` is the cost model's shared
    pricing for fused plans (``None`` for the unfused baseline).
    """

    kind: str  # "solo" | "multisource" | "packed" | "streaming"
    application: Application
    graph: str
    groups: list[list[Job]]
    rider_keys: list[tuple] = field(default_factory=list)
    estimate: SharedEstimate | None = None
    #: Candidate plans the planner enumerated / scored-but-discarded while
    #: choosing this one (carried on the winner for observability).
    candidates_built: int = 1
    candidates_rejected: int = 0
    #: Seconds spent planning (snapshot scoring), for span attribution.
    planning_seconds: float = 0.0

    @property
    def lanes(self) -> int:
        """Execution lanes the plan occupies (jobs for packed, groups for streaming)."""
        if self.kind == "streaming":
            return len(self.groups)
        return sum(len(group) for group in self.groups)

    @property
    def jobs(self) -> list[Job]:
        return [job for group in self.groups for job in group]

    @property
    def fused(self) -> bool:
        return len(self.groups) > 1

    @property
    def shape(self) -> str:
        """Compact human-readable shape, e.g. ``packed:3x14`` (groups x lanes)."""
        return f"{self.kind}:{len(self.groups)}x{self.lanes}"

    def restrict(self, claimed: dict[tuple, list[Job]]) -> "FusionPlan":
        """Drop rider groups a concurrent worker drained between snapshot and claim.

        The anchor group is already popped and always survives; riders
        survive only if :meth:`RequestQueue.claim_groups` actually delivered
        them.  Returns ``self`` (mutated) for convenience.
        """
        survivors = [self.groups[0]]
        kept_keys = []
        for key, group in zip(self.rider_keys, self.groups[1:]):
            if key in claimed:
                survivors.append(claimed[key])  # repro: noqa[REPRO101] — O(groups) per drain
                kept_keys.append(key)  # repro: noqa[REPRO101] — O(groups) per drain
        self.rider_keys = kept_keys
        self.narrow(survivors)
        return self

    def narrow(self, groups: list[list[Job]]) -> None:
        """Keep only ``groups``: what the claim, expiry or source validation left."""
        self.groups = groups
        if not self.fused:
            # Every rider evaporated: the plan degrades to its baseline shape.
            self.kind = self._baseline_kind(self.application, groups[0])
            self.estimate = None

    @staticmethod
    def _baseline_kind(application: Application, anchor: list[Job]) -> str:
        if application.is_streaming:
            return "streaming"
        return "multisource" if len(anchor) > 1 else "solo"

    @classmethod
    def baseline(cls, anchor: list[Job]) -> "FusionPlan":
        """The unfused plan: the anchor group alone, no riders."""
        request = anchor[0].request
        return cls(
            kind=cls._baseline_kind(request.application, anchor),
            application=request.application,
            graph=request.graph,
            groups=[list(anchor)],
        )


class FusionPlanner:
    """Enumerates and scores fusion plans for one drained anchor group.

    Stateless apart from the shared :class:`CostModel`; safe to call from
    every worker thread concurrently.
    """

    def __init__(self, cost_model: CostModel, max_lanes: int = MAX_LANES) -> None:
        self._cost_model = cost_model
        self._max_lanes = max_lanes

    def build(
        self, anchor: list[Job], snapshot: dict[tuple, tuple[Job, ...]]
    ) -> tuple[FusionPlan, list[tuple]]:
        """Choose the cheapest plan for ``anchor`` given the backlog snapshot.

        Returns ``(plan, rider_keys)`` — the keys the caller should claim
        atomically; the plan must then be :meth:`FusionPlan.restrict`-ed to
        whatever the claim actually delivered.
        """
        request = anchor[0].request
        application = request.application
        graph = request.graph
        anchor_key = request.batch_key
        baseline = FusionPlan.baseline(anchor)
        riders = self._compatible_riders(anchor_key, application, graph, snapshot)
        if not riders:
            return baseline, []
        if application.is_streaming:
            chosen_riders = riders  # every group is one lane; words chunk at 64
        else:
            chosen_riders = self._bin_pack(len(anchor), riders)
            if not chosen_riders:
                return baseline, []
        families = [(anchor_key, len(anchor))]
        families += [(key, len(jobs)) for key, jobs in chosen_riders]  # repro: noqa[REPRO101] — O(groups) per drain
        total_lanes = (
            len(families)
            if application.is_streaming
            else sum(width for _, width in families)
        )
        words = max(1, -(-total_lanes // self._max_lanes))
        estimate = self._cost_model.estimate_shared(families, words=words)
        fused = FusionPlan(
            kind="streaming" if application.is_streaming else "packed",
            application=application,
            graph=graph,
            groups=[list(anchor)] + [list(jobs) for _, jobs in chosen_riders],
            rider_keys=[key for key, _ in chosen_riders],
            estimate=estimate,
            candidates_built=2,
        )
        if estimate.confident:
            fused.candidates_rejected = 1  # the baseline lost
            return fused, fused.rider_keys
        baseline.candidates_built = 2
        baseline.candidates_rejected = 1  # the fused candidate lost
        return baseline, []

    # ------------------------------------------------------------------ #
    # Candidate enumeration
    # ------------------------------------------------------------------ #
    def _compatible_riders(
        self,
        anchor_key: tuple,
        application: Application,
        graph: str,
        snapshot: dict[tuple, tuple[Job, ...]],
    ) -> list[tuple[tuple, tuple[Job, ...]]]:
        """Pending groups that could share the anchor's algorithm execution.

        Same graph and same application, different batch key (a different
        platform configuration — same-key jobs are already in the anchor).
        Batch keys are ``(graph, application, strategy, system)`` by
        construction, so the first two positions identify compatibility.
        """
        return [
            (key, jobs)
            for key, jobs in snapshot.items()
            if key != anchor_key
            and key[0] == graph
            and key[1] == application.value
            and jobs
        ]

    def _bin_pack(
        self, anchor_width: int, riders: list[tuple[tuple, tuple[Job, ...]]]
    ) -> list[tuple[tuple, tuple[Job, ...]]]:
        """Greedy smallest-first packing of rider groups into the free lanes.

        BFS/SSSP lanes are per *job* (each source is a lane), so only small
        groups fit alongside the anchor; packing smallest-first maximizes the
        number of groups that share the word.  An anchor already at or above
        the word width packs nothing.
        """
        free = self._max_lanes - anchor_width
        packed: list[tuple[tuple, tuple[Job, ...]]] = []
        for key, jobs in sorted(riders, key=lambda item: (len(item[1]), item[0])):
            if len(jobs) > free:
                break
            packed.append((key, jobs))  # repro: noqa[REPRO101] — O(groups) per drain
            free -= len(jobs)
        return packed
