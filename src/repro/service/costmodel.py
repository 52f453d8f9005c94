"""Online cost model: predicted engine seconds per batch family.

Scheduling and admission decisions need to know *how long work will take
before running it*: weighted-fair queueing charges each tenant its drain
cost, and deadline-aware admission must reject a request whose backlog
already exceeds its budget.  Neither can afford to run the work to find out,
so this module learns costs online from the executions the service performs
anyway.  Its three consumers are WFQ charges, infeasible-deadline admission
and the sweep watchdog's budget; what fuses with what is decided by shape
alone (:mod:`repro.service.planner`) and never consults an estimate.

A **batch family** is everything that determines a group's execution profile:
:attr:`~repro.service.requests.TraversalRequest.batch_key`, i.e. ``(graph,
application, strategy, system)``.  Jobs in one family differ only in their
source vertex, and a drained group pays its frontier sweeps once for the
whole group — so the model tracks two EWMAs per family:

* ``group_seconds`` — observed wall-clock engine seconds of one drained
  group (the shared per-sweep cost), and
* ``job_seconds`` — observed engine seconds divided by the group's width
  (the marginal per-job cost at typical batch sizes).

A group of ``n`` jobs is estimated as ``max(group_ewma, n * job_ewma)``: near
the typical width the shared-sweep term dominates (batching amortizes), while
far above it the marginal term takes over, keeping wide-burst estimates from
collapsing to one sweep's cost.

Families with no samples yet are **bootstrapped from graph size**: the
simulated engines sweep vertex and edge arrays, so seconds scale with
``num_edges`` and ``num_vertices``.  The constants below only need the right
order of magnitude — one observation later, the EWMA takes over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Hashable

from ..analysis.lockorder import tracked_lock
from ..errors import ConfigurationError

#: Bootstrap engine-seconds per edge / per vertex of the target graph, used
#: until a family has real samples.  Calibrated to the order of magnitude of
#: the pure-python simulated engines on the repo's scaled-down graphs.
BOOTSTRAP_SECONDS_PER_EDGE = 1e-7
BOOTSTRAP_SECONDS_PER_VERTEX = 5e-7
#: Bootstrap per-job estimate when even the graph's size is unknown (the
#: graph is registered but not resident, so peeking at it would force a load).
DEFAULT_BOOTSTRAP_SECONDS = 2e-3

#: Resolves a graph name to ``(num_vertices, num_edges)`` or None; estimates
#: must never force a graph load, so "unknown" is an expected answer.
GraphSizeLookup = Callable[[str], "tuple[int, int] | None"]


@dataclass
class _FamilyEstimate:
    """EWMA state of one batch family (internal, guarded by the model lock)."""

    group_seconds: float = 0.0
    job_seconds: float = 0.0
    samples: int = 0

    def update(self, jobs: int, seconds: float, alpha: float) -> None:
        per_job = seconds / jobs
        if self.samples == 0:
            self.group_seconds = seconds
            self.job_seconds = per_job
        else:
            self.group_seconds += alpha * (seconds - self.group_seconds)
            self.job_seconds += alpha * (per_job - self.job_seconds)
        self.samples += 1


@dataclass(frozen=True)
class CostModelStats:
    """Snapshot of the cost model's coverage and accuracy."""

    #: Batch families with at least one observed execution.
    families: int = 0
    #: Total observations fed into the EWMAs.
    samples: int = 0
    #: Mean absolute error of the estimate made *before* each observation
    #: (bootstrapped first-contact estimates included), in seconds.
    mean_abs_error_seconds: float = 0.0

    def describe(self) -> str:
        return (
            f"{self.families} families / {self.samples} samples, "
            f"mean abs estimate error {self.mean_abs_error_seconds * 1e3:.2f} ms"
        )


class CostModel:
    """Thread-safe online estimator of per-family engine seconds.

    ``alpha`` is the EWMA weight of the newest observation; the optional
    ``graph_size_lookup`` supplies ``(num_vertices, num_edges)`` for
    bootstrap estimates of never-observed families (it must be cheap and
    side-effect free — see :meth:`GraphRegistry.peek`).
    """

    def __init__(
        self,
        alpha: float = 0.25,
        graph_size_lookup: GraphSizeLookup | None = None,
    ) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ConfigurationError(f"cost model alpha must be in (0, 1], got {alpha!r}")
        self.alpha = alpha
        self._graph_size_lookup = graph_size_lookup
        self._lock = tracked_lock("service.CostModel._lock")
        self._families: dict[Hashable, _FamilyEstimate] = {}
        self._error_sum = 0.0
        self._error_samples = 0

    # ------------------------------------------------------------------ #
    # Learning
    # ------------------------------------------------------------------ #
    def observe(self, family: Hashable, jobs: int, seconds: float) -> float | None:
        """Fold one observed group execution into the family's EWMAs.

        ``jobs`` is the group's width and ``seconds`` the wall-clock engine
        time of draining it.  The estimate the model *would have given* for
        this group is scored against the observation first, so the accuracy
        snapshot reflects predictions, not hindsight.  Returns that
        observation's absolute estimate error in seconds (the quantity the
        metrics registry exports as a per-observation series), or ``None``
        when the sample was discarded.
        """
        if jobs <= 0 or seconds < 0 or not math.isfinite(seconds):
            return None  # defensive: never let a clock glitch poison the EWMAs
        with self._lock:
            predicted = self._estimate_group_locked(family, jobs)
            error = abs(predicted - seconds)
            self._error_sum += error
            self._error_samples += 1
            estimate = self._families.get(family)
            if estimate is None:
                estimate = self._families[family] = _FamilyEstimate()
            estimate.update(jobs, seconds, self.alpha)
            return error

    # ------------------------------------------------------------------ #
    # Estimation
    # ------------------------------------------------------------------ #
    def estimate_group(self, family: Hashable, jobs: int) -> float:
        """Predicted engine seconds to drain a group of ``jobs`` jobs."""
        with self._lock:
            return self._estimate_group_locked(family, max(1, jobs))

    def estimate_job(self, family: Hashable) -> float:
        """Predicted marginal engine seconds of one job of this family."""
        return self.estimate_group(family, 1)

    def _estimate_group_locked(self, family: Hashable, jobs: int) -> float:
        estimate = self._families.get(family)
        if estimate is not None and estimate.samples > 0:
            return max(estimate.group_seconds, jobs * estimate.job_seconds)
        return jobs * self._bootstrap_job_seconds(family)

    def _bootstrap_job_seconds(self, family: Hashable) -> float:
        """Size-based prior for a family with no samples yet.

        The family key's first element is the graph name by construction
        (:attr:`TraversalRequest.batch_key`); anything else falls back to the
        flat default, as does a graph the lookup does not know.
        """
        if self._graph_size_lookup is not None and isinstance(family, tuple) and family:
            graph = family[0]
            if isinstance(graph, str):
                size = self._graph_size_lookup(graph)
                if size is not None:
                    num_vertices, num_edges = size
                    return (
                        num_edges * BOOTSTRAP_SECONDS_PER_EDGE
                        + num_vertices * BOOTSTRAP_SECONDS_PER_VERTEX
                    )
        return DEFAULT_BOOTSTRAP_SECONDS

    # ------------------------------------------------------------------ #
    # Persistence (durable store warm restarts)
    # ------------------------------------------------------------------ #
    def family_state(self, family: Hashable) -> dict | None:
        """The family's current EWMA state, or ``None`` before any sample.

        The dict shape matches :meth:`seed` entries — it is what the durable
        store keeps, one row per family, after every observation.
        """
        with self._lock:
            estimate = self._families.get(family)
            if estimate is None or estimate.samples == 0:
                return None
            return {
                "family": family,
                "group_seconds": estimate.group_seconds,
                "job_seconds": estimate.job_seconds,
                "samples": estimate.samples,
            }

    def seed(self, entries: "list[dict]") -> int:
        """Install persisted EWMA state for families with no live samples.

        Each entry carries ``family``, ``group_seconds``, ``job_seconds`` and
        ``samples`` (the shape :meth:`family_state` exports).  Families that
        already accumulated live observations are left alone — fresh evidence
        beats history.  Returns the number of families seeded.
        """
        seeded = 0
        with self._lock:
            for entry in entries:
                family = entry["family"]
                samples = int(entry.get("samples", 0))
                group_seconds = float(entry.get("group_seconds", 0.0))
                job_seconds = float(entry.get("job_seconds", 0.0))
                if (
                    samples <= 0
                    or not math.isfinite(group_seconds)
                    or not math.isfinite(job_seconds)
                    or group_seconds < 0
                    or job_seconds < 0
                ):
                    continue
                existing = self._families.get(family)
                if existing is not None and existing.samples > 0:
                    continue
                self._families[family] = _FamilyEstimate(
                    group_seconds=group_seconds,
                    job_seconds=job_seconds,
                    samples=samples,
                )
                seeded += 1
        return seeded

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def family_samples(self, family: Hashable) -> int:
        """Observations recorded for one family (0 = still bootstrapped)."""
        with self._lock:
            estimate = self._families.get(family)
            return estimate.samples if estimate is not None else 0

    def stats(self) -> CostModelStats:
        with self._lock:
            return CostModelStats(
                families=len(self._families),
                samples=sum(e.samples for e in self._families.values()),
                mean_abs_error_seconds=(
                    self._error_sum / self._error_samples
                    if self._error_samples
                    else 0.0
                ),
            )
