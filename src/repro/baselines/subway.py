"""Subway-style baseline: active-subgraph compaction + explicit transfers.

Subway ("Minimizing Data Transfer during out-of-GPU-Memory Graph Processing",
Sabet et al., EuroSys 2020) never lets the GPU read host memory directly.
Before every iteration it gathers the active vertices' neighbor lists into a
compacted subgraph on the host, ships that subgraph to the GPU with a bulk
``cudaMemcpy``, and runs the kernel entirely on device memory.  Its asynchronous
variant (Subway-async, the stronger one the paper compares against) overlaps
the next iteration's subgraph generation with the current iteration's
transfer and kernel.

The cost structure is therefore: no read amplification, full-block-bandwidth
transfers, but a CPU-side gather over every active edge each iteration plus
the transfer of the compacted data itself.  Subway only supports 4-byte edge
elements, which is why Table 3 re-runs EMOGI with 4-byte edges for this
comparison.
"""

from __future__ import annotations

import numpy as np

from ..config import SystemConfig, default_system
from ..errors import ConfigurationError
from ..graph.csr import CSRGraph
from ..graph.partition import extract_active_subgraph
from ..memsim.metrics import TimingModel, TrafficRecord
from ..memsim.monitor import PCIeTrafficMonitor
from ..timing import TimeBreakdown
from ..traversal.bfs import run_bfs
from ..traversal.cc import run_cc
from ..traversal.results import TraversalMetrics, TraversalResult
from ..traversal.sssp import run_sssp
from ..types import Application, VERTEX_DTYPE

#: Strategy label recorded in results produced by this baseline.
SUBWAY_LABEL = "subway"


class SubwayEngine:
    """Drop-in replacement for :class:`~repro.traversal.engine.TraversalEngine`
    that prices each iteration the Subway way."""

    def __init__(
        self,
        graph: CSRGraph,
        system: SystemConfig | None = None,
        asynchronous: bool = True,
        needs_weights: bool = False,
    ) -> None:
        self.graph = graph
        self.system = system or default_system()
        self.asynchronous = asynchronous
        self.needs_weights = bool(needs_weights and graph.has_weights)
        self.timing_model = TimingModel(self.system)
        self.monitor = PCIeTrafficMonitor()
        self.traffic = TrafficRecord()
        self.breakdown = TimeBreakdown()
        self.iterations = 0

    # ------------------------------------------------------------------ #
    # TraversalEngine interface
    # ------------------------------------------------------------------ #
    def process_frontier(
        self,
        frontier: np.ndarray,
        starts: np.ndarray | None = None,
        ends: np.ndarray | None = None,
    ) -> TimeBreakdown:
        # starts/ends are accepted for TraversalEngine interface parity; the
        # Subway cost model recompacts the subgraph itself and has no use for
        # the precomputed offsets.
        frontier = np.asarray(frontier, dtype=VERTEX_DTYPE).ravel()
        iteration = TimeBreakdown()
        self.iterations += 1
        if frontier.size == 0:
            return iteration

        subgraph = extract_active_subgraph(
            self.graph, frontier, include_weights=self.needs_weights
        )
        gather_seconds = (
            subgraph.num_edges * self.system.host.subgraph_gather_ns_per_edge * 1e-9
            + self.graph.num_vertices * self.system.host.subgraph_build_ns_per_vertex * 1e-9
        )
        transfer = self.timing_model.block_transfer_time(
            subgraph.transfer_bytes, include_launch=False
        )
        transfer_seconds = transfer.interconnect_seconds
        compute_seconds = self.timing_model.compute_time(
            subgraph.num_edges, int(frontier.size)
        ).compute_seconds
        overhead_seconds = (
            self.system.gpu.kernel_launch_overhead_us
            + self.system.host.memcpy_launch_overhead_us
        ) * 1e-6

        if self.asynchronous:
            # Subway-async overlaps the next subgraph generation with the
            # current transfer + kernel; the slower of the two paths wins.
            iteration_seconds = (
                max(gather_seconds, transfer_seconds + compute_seconds) + overhead_seconds
            )
        else:
            iteration_seconds = (
                gather_seconds + transfer_seconds + compute_seconds + overhead_seconds
            )

        iteration.extra["subway_iteration"] = iteration_seconds
        self.breakdown.add(iteration)

        self.traffic.vertices_processed += int(frontier.size)
        self.traffic.edges_processed += subgraph.num_edges
        self.traffic.useful_bytes += subgraph.num_edges * self.graph.element_bytes
        self.traffic.block_transfer_bytes += subgraph.transfer_bytes
        self.traffic.block_transfers += 1
        self.traffic.kernel_launches += 1
        self.monitor.record_block_transfer(subgraph.transfer_bytes)
        return iteration

    def note_relax(self, backend: str, candidates: int) -> None:
        # Interface parity: Subway's metrics carry no kernel counters, so the
        # relax sweep's backend and candidate count have nowhere to go.
        pass

    @property
    def dataset_bytes(self) -> int:
        total = self.graph.edge_list_bytes
        if self.needs_weights:
            total += self.graph.weight_list_bytes
        return total

    def finalize(self) -> TraversalMetrics:
        return TraversalMetrics(
            seconds=self.breakdown.total(),
            breakdown=self.breakdown,
            traffic=self.traffic,
            iterations=self.iterations,
            dataset_bytes=self.dataset_bytes,
            strategy=SUBWAY_LABEL,
            system_name=self.system.name,
        )


def run_subway(
    application: Application | str,
    graph: CSRGraph,
    source: int | None = None,
    system: SystemConfig | None = None,
    asynchronous: bool = True,
) -> TraversalResult:
    """Run one application with the Subway-style cost model.

    ``graph`` should use 4-byte edge elements to mirror the real Subway
    implementation (Table 3 notes it only supports 4-byte data types).
    """
    application = Application(application)
    if application is Application.CC:
        engine = SubwayEngine(graph, system=system, asynchronous=asynchronous)
        return run_cc(graph, strategy=SUBWAY_LABEL, engine=engine)
    if source is None:
        raise ConfigurationError(f"{application.value} requires a source vertex")
    if application is Application.BFS:
        engine = SubwayEngine(graph, system=system, asynchronous=asynchronous)
        return run_bfs(graph, source, strategy=SUBWAY_LABEL, engine=engine)
    engine = SubwayEngine(
        graph, system=system, asynchronous=asynchronous, needs_weights=True
    )
    return run_sssp(graph, source, strategy=SUBWAY_LABEL, engine=engine)
