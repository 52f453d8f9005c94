"""Result containers returned by the traversal API."""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import mean

import numpy as np

from ..memsim.coalescer import REQUEST_SIZES
from ..memsim.metrics import TrafficRecord
from ..timing import TimeBreakdown
from ..types import AccessStrategy, Application


@dataclass(frozen=True)
class KernelCounters:
    """Kernel-level counters of one traversal run, surfaced for observability.

    The totals (``frontier_vertices`` / ``edges_traversed``) are always
    recorded; the per-iteration series (``frontier_sizes`` /
    ``edges_per_iteration``) are captured only while tracing is enabled
    (``REPRO_TRACE`` kill switch), keeping the default path allocation-light.
    ``relax_backend`` records which :mod:`repro.traversal.relax` code path
    actually ran (native / scatter) so a silent fallback to the
    slow backend is visible in result metadata and service logs.
    """

    iterations: int = 0
    #: Total vertices expanded across all iterations.
    frontier_vertices: int = 0
    #: Total edges touched (neighbor-list entries scanned).
    edges_traversed: int = 0
    #: Largest single-iteration frontier.
    max_frontier: int = 0
    #: Per-iteration frontier sizes (empty when tracing is disabled).
    frontier_sizes: tuple[int, ...] = ()
    #: Per-iteration edges touched (empty when tracing is disabled).
    edges_per_iteration: tuple[int, ...] = ()
    #: Candidate-stream length fed to the relax kernel (SSSP lane batches).
    relax_candidates: int = 0
    #: Relax kernel backend chosen ("native" / "scatter"), or
    #: ``None`` for runs that never invoked the lane relax kernel.
    relax_backend: str | None = None

    def to_json(self) -> dict:
        record = {
            "iterations": self.iterations,
            "frontier_vertices": self.frontier_vertices,
            "edges_traversed": self.edges_traversed,
            "max_frontier": self.max_frontier,
            "relax_candidates": self.relax_candidates,
            "relax_backend": self.relax_backend,
        }
        if self.frontier_sizes:
            record["frontier_sizes"] = list(self.frontier_sizes)
        if self.edges_per_iteration:
            record["edges_per_iteration"] = list(self.edges_per_iteration)
        return record


@dataclass(frozen=True)
class TraversalMetrics:
    """Performance metrics of one simulated traversal run.

    These are the quantities the paper reports: execution time, achieved PCIe
    bandwidth (Figure 8), the request-size histogram (Figure 5), the request
    count (Figure 7) and I/O read amplification (Figure 10).
    """

    seconds: float
    breakdown: TimeBreakdown
    traffic: TrafficRecord
    iterations: int
    dataset_bytes: int
    #: One of the four AccessStrategy members, or a baseline label such as
    #: "subway" / "halo" for runs produced by :mod:`repro.baselines`.
    strategy: AccessStrategy | str
    system_name: str
    #: Kernel-level observability counters (``None`` for legacy callers that
    #: construct metrics without an engine).
    counters: KernelCounters | None = None

    @property
    def io_amplification(self) -> float:
        """Host bytes read over the link divided by the dataset size."""
        return self.traffic.io_amplification(self.dataset_bytes)

    @property
    def achieved_bandwidth_gbps(self) -> float:
        """Average PCIe bandwidth over the whole run (host bytes / time)."""
        if self.seconds <= 0:
            return 0.0
        return self.traffic.host_bytes_read / self.seconds / 1e9

    @property
    def total_pcie_requests(self) -> int:
        """Zero-copy read requests issued (the Figure 7 quantity)."""
        return self.traffic.request_histogram.total_requests

    @property
    def request_size_distribution(self) -> dict[int, float]:
        """Fraction of zero-copy requests per size (the Figure 5 quantity)."""
        return self.traffic.request_histogram.distribution()

    @property
    def host_bytes_read(self) -> int:
        return self.traffic.host_bytes_read

    def speedup_over(self, baseline: "TraversalMetrics") -> float:
        """Normalized performance relative to a baseline run (Figure 9/11/12)."""
        if self.seconds <= 0:
            return float("inf")
        return baseline.seconds / self.seconds


@dataclass(frozen=True)
class TraversalResult:
    """Algorithm output plus the metrics of the run that produced it."""

    application: Application
    graph_name: str
    strategy: AccessStrategy | str
    source: int | None
    values: np.ndarray
    metrics: TraversalMetrics

    @property
    def seconds(self) -> float:
        return self.metrics.seconds


@dataclass
class AggregateResult:
    """Average over several runs of the same configuration.

    The paper averages BFS/SSSP execution times over 64 random source
    vertices (§5.2); this container plays that role.
    """

    application: Application
    graph_name: str
    strategy: AccessStrategy | str
    runs: list[TraversalResult] = field(default_factory=list)

    def add(self, result: TraversalResult) -> None:
        self.runs.append(result)

    @property
    def num_runs(self) -> int:
        return len(self.runs)

    @property
    def mean_seconds(self) -> float:
        if not self.runs:
            return 0.0
        return mean(run.seconds for run in self.runs)

    @property
    def mean_io_amplification(self) -> float:
        if not self.runs:
            return 0.0
        return mean(run.metrics.io_amplification for run in self.runs)

    @property
    def mean_bandwidth_gbps(self) -> float:
        if not self.runs:
            return 0.0
        return mean(run.metrics.achieved_bandwidth_gbps for run in self.runs)

    @property
    def mean_pcie_requests(self) -> float:
        if not self.runs:
            return 0.0
        return mean(run.metrics.total_pcie_requests for run in self.runs)

    def mean_request_size_distribution(self) -> dict[int, float]:
        if not self.runs:
            return {size: 0.0 for size in REQUEST_SIZES}
        merged = {size: 0.0 for size in REQUEST_SIZES}
        for run in self.runs:
            for size, fraction in run.metrics.request_size_distribution.items():
                merged[size] += fraction
        return {size: value / len(self.runs) for size, value in merged.items()}

    def speedup_over(self, baseline: "AggregateResult") -> float:
        if self.mean_seconds <= 0:
            return float("inf")
        return baseline.mean_seconds / self.mean_seconds
