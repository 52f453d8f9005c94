"""Fusion planner: one decision point for every drain, decided by shape.

Fusion used to live in two ad-hoc branches of the drain path — multi-source
batching inside one group, and a CC-only "pop every sibling group" streaming
merge.  This module replaces them with an explicit planning step: each drain
reads the pending backlog and builds the one :class:`FusionPlan` the engines
can execute for it —

* **solo / multisource** — the policy-selected anchor group alone, when no
  pending group can share its execution,
* **packed** — the anchor plus small same-graph, same-application BFS/SSSP
  groups of *different* platform configurations, bin-packed into the ≤64
  lanes of one :func:`~repro.traversal.multisource.run_packed_batch` word
  (a lane is a distinct source, whichever configurations asked for it),
* **streaming** — the anchor plus every same-graph pending group of the same
  streaming application (CC or PageRank), each group one platform lane of a
  shared :func:`~repro.traversal.streaming.run_streaming_batch` pass.

The rule is structural, like the paper's coalescer merging every access that
falls in one 128-byte line: every rider that fits is taken.  The plan is a
pure function of the anchor and the backlog — no cost estimate, clock or
learned state enters it — so the same backlog yields the same plan on any
machine at any load (``docs/fusion-planner.md`` records why the earlier
cost-model gate was deleted).

The planner is *policy-visible*: the anchor group is still whatever the
scheduling policy selected, the planner runs inside
:meth:`~repro.service.queue.RequestQueue.pop_plan`'s critical section, which
pops the riders it names (refunding any WFQ virtual time booked for them),
and every decision is observable through the service's ``plan`` span and
``repro_planner_*`` metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..types import Application
from .jobs import Job

#: Lane capacity of one packed execution word (mirrors the traversal layer's
#: :data:`~repro.traversal.multisource.WORD_BITS` without importing numpy
#: machinery into the planning path).
MAX_LANES = 64


def sweep_lanes(application: Application, groups: list[list[Job]]) -> int:
    """Lanes one sweep of ``groups`` occupies: a streaming group is one
    platform lane; a BFS/SSSP lane is a distinct source, however many
    configurations asked for it."""
    if application.is_streaming:
        return len(groups)
    return len({job.request.source for group in groups for job in group})


@dataclass
class FusionPlan:
    """One executable drain shape: which groups run together, and how.

    ``groups`` always starts with the policy-selected anchor group.
    """

    kind: str  # "solo" | "multisource" | "packed" | "streaming"
    application: Application
    graph: str
    groups: list[list[Job]]
    #: Seconds spent planning (rider selection + packing), for span attribution.
    planning_seconds: float = 0.0

    @property
    def lanes(self) -> int:
        """Execution lanes the plan occupies: its distinct sources for
        BFS/SSSP, its groups for streaming (see :func:`sweep_lanes`)."""
        return sweep_lanes(self.application, self.groups)

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

    def narrow(self, groups: list[list[Job]]) -> None:
        """Keep only ``groups``: what expiry or source validation left."""
        self.groups = groups
        if not self.fused:
            # Every rider evaporated: the plan degrades to its baseline shape.
            if self.application.is_streaming:
                self.kind = "streaming"
            else:
                self.kind = "multisource" if len(groups[0]) > 1 else "solo"

    @classmethod
    def baseline(cls, anchor: list[Job]) -> "FusionPlan":
        """The unfused plan: the anchor group alone, no riders."""
        request = anchor[0].request
        plan = cls("", request.application, request.graph, groups=[])
        plan.narrow([list(anchor)])
        return plan


class FusionPlanner:
    """Builds the fusion plan for one drained anchor group.

    Stateless; it runs under the queue lock, so it takes no lock itself.
    """

    def build(
        self, anchor: list[Job], pending: Mapping[tuple, Sequence[Job]]
    ) -> tuple[FusionPlan, list[tuple]]:
        """The plan for ``anchor`` given the pending backlog: every rider that fits.

        ``pending`` maps each pending batch key to its jobs and is only read.
        Returns ``(plan, keys)``, ``keys`` being the riders' batch keys:
        :meth:`RequestQueue.pop_plan` pops exactly those groups, in the same
        critical section.
        """
        request = anchor[0].request
        application = request.application
        # Pending groups that could share the anchor's algorithm execution:
        # same graph and application (the first two positions of a batch
        # key), a different platform configuration — same-key jobs are
        # already in the anchor.
        riders = [
            (key, jobs)
            for key, jobs in pending.items()
            if key != request.batch_key
            and key[:2] == (request.graph, application.value)
            and jobs
        ]
        if not application.is_streaming:
            # Streaming groups are one lane each, and a pass takes any
            # number of them; BFS/SSSP lanes are distinct sources and must
            # fit the word.
            riders = self._bin_pack(anchor, riders)
        if not riders:
            return FusionPlan.baseline(anchor), []
        plan = FusionPlan(
            kind="streaming" if application.is_streaming else "packed",
            application=application,
            graph=request.graph,
            groups=[list(anchor)] + [list(jobs) for _, jobs in riders],
        )
        return plan, [key for key, _ in riders]

    @staticmethod
    def _bin_pack(
        anchor: list[Job], riders: list[tuple[tuple, Sequence[Job]]]
    ) -> list[tuple[tuple, Sequence[Job]]]:
        """Greedy cheapest-first packing of rider groups into the free lanes.

        A BFS/SSSP lane is a distinct source, so a rider costs only the
        sources new to the word: one whose sources all ride already costs
        nothing.  Each step takes the rider that costs least (ties go to the
        smaller group, then the key) and stops at the first that does not
        fit, so every rider left over needs more lanes than are free.
        Packing cheapest-first maximizes the number of groups that share the
        word.  An anchor at the word width takes only riders whose sources
        it already holds; one above it packs nothing.
        """
        taken = {job.request.source for job in anchor}
        pending = [
            (key, jobs, {job.request.source for job in jobs})
            for key, jobs in sorted(riders, key=lambda item: (len(item[1]), item[0]))
        ]
        packed: list[tuple[tuple, Sequence[Job]]] = []
        while pending:
            costs = [len(sources - taken) for _, _, sources in pending]
            cheapest = costs.index(min(costs))
            if len(taken) + costs[cheapest] > MAX_LANES:
                break
            key, jobs, sources = pending.pop(cheapest)
            packed.append((key, jobs))  # repro: noqa[REPRO101] — O(groups) per drain
            taken |= sources
        return packed
