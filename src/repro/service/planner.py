"""Fusion planner: one decision point for every drain, decided by shape.

Fusion used to live in two ad-hoc branches of the drain path — multi-source
batching inside one group, and a CC-only "pop every sibling group" streaming
merge.  This module replaces them with an explicit planning step: each drain
snapshots the pending backlog and builds the one :class:`FusionPlan` the
engines can execute for it —

* **solo / multisource** — the policy-selected anchor group alone, when no
  pending group can share its execution,
* **packed** — the anchor plus small same-graph, same-application BFS/SSSP
  groups of *different* platform configurations, bin-packed into the ≤64
  lanes of one :func:`~repro.traversal.multisource.run_packed_batch` word,
* **streaming** — the anchor plus every same-graph pending group of the same
  streaming application (CC or PageRank), each group one platform lane of a
  shared :func:`~repro.traversal.streaming.run_streaming_batch` pass.

The rule is structural, like the paper's coalescer merging every access that
falls in one 128-byte line: every rider that fits is taken.  The plan is a
pure function of the anchor and the snapshot — no cost estimate, clock or
learned state enters it — so the same backlog yields the same plan on any
machine at any load (``docs/fusion-planner.md`` records why the earlier
cost-model gate was deleted).

The planner is *policy-visible*: the anchor group is still whatever the
scheduling policy selected, riders are claimed through
:meth:`~repro.service.queue.RequestQueue.claim_groups` (which refunds any
WFQ virtual time booked for them), and every decision is observable through
the service's ``plan`` span and ``repro_planner_*`` metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..types import Application
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
    wants claimed from the queue.
    """

    kind: str  # "solo" | "multisource" | "packed" | "streaming"
    application: Application
    graph: str
    groups: list[list[Job]]
    rider_keys: list[tuple] = field(default_factory=list)
    #: Seconds spent planning (snapshot + packing), for span attribution.
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
    """Builds the fusion plan for one drained anchor group.

    Stateless; safe to call from every worker thread concurrently.
    """

    def __init__(self, max_lanes: int = MAX_LANES) -> None:
        self._max_lanes = max_lanes

    def build(
        self, anchor: list[Job], snapshot: dict[tuple, tuple[Job, ...]]
    ) -> tuple[FusionPlan, list[tuple]]:
        """The plan for ``anchor`` given the backlog snapshot: every rider that fits.

        Returns ``(plan, rider_keys)`` — the keys the caller should claim
        atomically; the plan must then be :meth:`FusionPlan.restrict`-ed to
        whatever the claim actually delivered.
        """
        request = anchor[0].request
        application = request.application
        riders = self._compatible_riders(
            request.batch_key, application, request.graph, snapshot
        )
        if not application.is_streaming:
            # Streaming groups are one lane each (words chunk at 64 inside
            # the engine); BFS/SSSP lanes are per job and must fit the word.
            riders = self._bin_pack(len(anchor), riders)
        if not riders:
            return FusionPlan.baseline(anchor), []
        plan = FusionPlan(
            kind="streaming" if application.is_streaming else "packed",
            application=application,
            graph=request.graph,
            groups=[list(anchor)] + [list(jobs) for _, jobs in riders],
            rider_keys=[key for key, _ in riders],
        )
        return plan, plan.rider_keys

    # ------------------------------------------------------------------ #
    # Rider selection
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
