"""Traversal engine: accounts the memory-system cost of frontier expansion.

The algorithms in :mod:`repro.traversal.bfs` / ``sssp`` / ``cc`` compute their
results directly on the CSR arrays (so the numerical output is exact), and
call :meth:`TraversalEngine.process_frontier` once per traversal iteration to
simulate what the corresponding CUDA kernel would have done to the memory
system: the edge-list (and weight-list) bytes it touches, the PCIe read
requests or UVM page migrations those touches generate, and the resulting
simulated time.
"""

from __future__ import annotations

import numpy as np

from ..config import SystemConfig, default_system
from ..errors import SimulationError
from ..graph.csr import CSRGraph
from ..memsim.address_space import AddressSpace
from ..memsim.coalescer import REQUEST_SIZES, vertex_request_table, vertex_request_totals
from ..memsim.gpu_memory import DeviceMemory
from ..memsim.metrics import TimingModel, TrafficRecord
from ..memsim.uvm import UVMSpace
from ..timing import TimeBreakdown
from ..types import AccessStrategy, MemorySpace, VERTEX_DTYPE
from .results import KernelCounters, TraversalMetrics
from .strategies import spec_for

_checkpoint = None


def _iteration_checkpoint() -> None:
    """Cooperative cancellation + fault hook, one call per engine iteration.

    The real hook lives in :func:`repro.service.resilience.iteration_checkpoint`
    (engine.sweep fault site + the thread's Cancellation token).  It is bound
    lazily because importing ``repro.service`` at module scope would be
    circular — the service package imports the traversal API, which imports
    this module.  After the first call this is one global read plus the hook
    itself (two reads when idle).
    """
    global _checkpoint
    if _checkpoint is None:
        from ..service.resilience import iteration_checkpoint

        _checkpoint = iteration_checkpoint
    _checkpoint()


#: Allocation names used by the engine.
EDGE_LIST = "edge_list"
WEIGHT_LIST = "edge_weights"
VERTEX_LIST = "vertex_list"
VERTEX_VALUES = "vertex_values"
FRONTIER_BUFFERS = "frontier_buffers"


class TraversalEngine:
    """Simulated memory system for one traversal run over one graph."""

    def __init__(
        self,
        graph: CSRGraph,
        strategy: AccessStrategy,
        system: SystemConfig | None = None,
        needs_weights: bool = False,
        edge_misalign_bytes: int = 0,
    ) -> None:
        self.graph = graph
        self.strategy = strategy
        self.spec = spec_for(strategy)
        self.system = system or default_system()
        self.needs_weights = bool(needs_weights and graph.has_weights)
        self.timing_model = TimingModel(self.system)
        self.device = DeviceMemory(self.system.gpu.memory_bytes)
        self.address_space = AddressSpace(self.device)
        self.traffic = TrafficRecord()
        self.breakdown = TimeBreakdown()
        self.iterations = 0
        #: Relax kernel backend used by this run, noted via ``note_relax``.
        self.relax_backend: str | None = None
        self.relax_candidates = 0
        self._max_frontier = 0
        self._edge_misalign_bytes = edge_misalign_bytes
        self._setup_memory()

    # ------------------------------------------------------------------ #
    # Memory placement (§4.2)
    # ------------------------------------------------------------------ #
    def _setup_memory(self) -> None:
        graph = self.graph
        # Small data structures stay in device memory: the vertex (offset)
        # list, per-vertex values (levels / distances / labels) and the
        # frontier queues.
        self.address_space.allocate(
            VERTEX_LIST, graph.vertex_list_bytes, MemorySpace.DEVICE, graph.element_bytes
        )
        self.address_space.allocate(
            VERTEX_VALUES, graph.num_vertices * 8, MemorySpace.DEVICE, 8
        )
        self.address_space.allocate(
            FRONTIER_BUFFERS, 2 * graph.num_vertices * 4, MemorySpace.DEVICE, 4
        )

        edge_space = self.spec.edge_list_space
        self.edge_allocation = self.address_space.allocate(
            EDGE_LIST,
            graph.edge_list_bytes,
            edge_space,
            graph.element_bytes,
            misalign_bytes=self._edge_misalign_bytes,
        )
        self.weight_allocation = None
        if self.needs_weights:
            self.weight_allocation = self.address_space.allocate(
                WEIGHT_LIST, graph.weight_list_bytes, edge_space, 4
            )

        if self.strategy is AccessStrategy.UVM:
            self._setup_uvm()
        else:
            self._setup_zero_copy()

    def _setup_uvm(self) -> None:
        page_bytes = self.system.uvm.page_bytes
        capacity_pages = self.device.page_cache_capacity(page_bytes)
        edge_bytes = self.edge_allocation.size_bytes
        weight_bytes = (
            self.weight_allocation.size_bytes if self.weight_allocation is not None else 0
        )
        total = edge_bytes + weight_bytes
        edge_share = capacity_pages if total == 0 else int(capacity_pages * edge_bytes / total)
        self.edge_uvm = UVMSpace(self.edge_allocation, self.system.uvm, edge_share)
        self.weight_uvm = None
        if self.weight_allocation is not None:
            self.weight_uvm = UVMSpace(
                self.weight_allocation, self.system.uvm, capacity_pages - edge_share
            )
        self.request_tables = ()
        self.request_totals = ()

    def _setup_zero_copy(self) -> None:
        gpu = self.system.gpu
        strided = not self.spec.warp_per_vertex
        if strided and not 0.0 <= gpu.strided_sector_hit_rate <= 1.0:
            raise SimulationError("strided_sector_hit_rate must be within [0, 1]")
        allocations = [self.edge_allocation]
        if self.weight_allocation is not None:
            allocations.append(self.weight_allocation)
        # One request table per zero-copy region, shared by every engine that
        # walks the same offsets array the same way, and its column totals.
        walks = [
            (
                self.graph.offsets,
                allocation.element_bytes,
                allocation.base_address,
                gpu.warp_size,
                self.spec.aligned,
                strided,
            )
            for allocation in allocations
        ]
        self.request_tables = tuple(vertex_request_table(*walk) for walk in walks)
        self.request_totals = tuple(vertex_request_totals(*walk) for walk in walks)
        self._refetch_rate = 1.0 - gpu.strided_sector_hit_rate
        self._dram_bytes_per_second = self.system.host.dram.sequential_bandwidth_gbps * 1e9
        self.edge_uvm = None
        self.weight_uvm = None

    # ------------------------------------------------------------------ #
    # Per-iteration accounting
    # ------------------------------------------------------------------ #
    def process_frontier(
        self,
        frontier: np.ndarray,
        starts: np.ndarray | None = None,
        ends: np.ndarray | None = None,
        native: bool = False,
    ) -> TimeBreakdown:
        """Account one traversal iteration (one kernel launch) over ``frontier``.

        Every vertex in the frontier has its full neighbor list scanned, which
        is exactly what the vertex-centric kernels in Listings 1 and 2 do.
        Returns the time breakdown of just this iteration (also accumulated
        into the run totals).

        ``starts``/``ends`` may carry the frontier's precomputed edge-list
        offsets (see :func:`~repro.traversal.frontier.frontier_offsets`) so
        algorithms that also gather the frontier's edges only index
        ``graph.offsets`` once per iteration.

        ``native`` (the sweep's :func:`~repro.traversal._native.wanted`)
        replays the UVM page residency with the compiled kernel; the metrics
        are exactly the numpy arm's.
        """
        _iteration_checkpoint()
        frontier = np.asarray(frontier, dtype=VERTEX_DTYPE).ravel()
        self.iterations += 1
        if frontier.size == 0:
            return TimeBreakdown()
        # Checked with precomputed offsets too: the request tables are indexed
        # by vertex id, where a negative id would silently wrap around.
        num_vertices = self.graph.num_vertices
        if frontier.min() < 0 or frontier.max() >= num_vertices:
            raise SimulationError("frontier contains invalid vertex IDs")
        if starts is None or ends is None:
            starts = self.graph.offsets[frontier]
            ends = self.graph.offsets[frontier + 1]
        edges_touched = int((ends - starts).sum())
        if frontier.size > self._max_frontier:
            self._max_frontier = int(frontier.size)

        self.traffic.vertices_processed += int(frontier.size)
        self.traffic.edges_processed += edges_touched
        self.traffic.useful_bytes += edges_touched * self.graph.element_bytes
        if self.needs_weights:
            self.traffic.useful_bytes += edges_touched * 4
        self.traffic.kernel_launches += 1

        if self.strategy is AccessStrategy.UVM:
            iteration = self._access_uvm(starts, ends, native)
        else:
            # Every vertex once (strictly increasing, V of them): the
            # streaming iterations, priced from the memoised totals.
            whole_graph = frontier.size == num_vertices and bool(
                (frontier[1:] > frontier[:-1]).all()
            )
            iteration = self._access_zero_copy(frontier, edges_touched, whole_graph)

        iteration.add(self.timing_model.kernel_launch_time(1))
        iteration.add(self.timing_model.compute_time(edges_touched, int(frontier.size)))
        self.breakdown.add(iteration)
        return iteration

    def _access_uvm(
        self, starts: np.ndarray, ends: np.ndarray, native: bool
    ) -> TimeBreakdown:
        breakdown = TimeBreakdown()
        element_bytes = self.graph.element_bytes
        result = self.edge_uvm.access_byte_ranges(
            starts * element_bytes, ends * element_bytes, native=native
        )
        self._record_uvm(result)
        breakdown.add(self.timing_model.uvm_time(result.migrated_bytes, result.page_faults))
        if self.weight_uvm is not None:
            weight_result = self.weight_uvm.access_byte_ranges(
                starts * 4, ends * 4, native=native
            )
            self._record_uvm(weight_result)
            breakdown.add(
                self.timing_model.uvm_time(
                    weight_result.migrated_bytes, weight_result.page_faults
                )
            )
        return breakdown

    def _record_uvm(self, result) -> None:
        self.traffic.uvm_migrated_bytes += result.migrated_bytes
        self.traffic.uvm_migrations += result.page_faults
        self.traffic.uvm_pages_touched += result.pages_touched
        if result.migrated_bytes:
            self.traffic.dram_bytes += self.system.host.dram.bytes_touched(
                result.migrated_bytes
            )

    def _access_zero_copy(
        self, frontier: np.ndarray, edges_touched: int, whole_graph: bool
    ) -> TimeBreakdown:
        """Gather the frontier's rows of each region's request table, price once.

        A ``whole_graph`` frontier takes the table's memoised column totals
        instead of gathering every row.  Edge and weight regions are priced
        apart: a stream's link time is a ``max`` of two ceilings, so it is
        not additive across regions.
        """
        histogram = self.traffic.request_histogram.counts
        link = self.timing_model.link
        interconnect = dram = 0.0
        for table, totals in zip(self.request_tables, self.request_totals):
            rows = totals if whole_graph else table[frontier].sum(axis=0)
            if self.spec.warp_per_vertex:
                requests = rows.tolist()
            else:
                # A strided thread re-fetches a sector the cache lost (§3.3):
                # rounded from the iteration's totals.
                sectors = int(rows)
                refetches = int(round((edges_touched - sectors) * self._refetch_rate))
                requests = [sectors + max(refetches, 0), 0, 0, 0]
            link_seconds, dram_bytes = link.price_requests(requests)
            for size, count in zip(REQUEST_SIZES, requests):
                histogram[size] += count
            self.traffic.dram_bytes += dram_bytes
            interconnect += link_seconds
            dram += dram_bytes / self._dram_bytes_per_second
        return TimeBreakdown(interconnect_seconds=interconnect, dram_seconds=dram)

    # ------------------------------------------------------------------ #
    # Reuse
    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        """Restore the just-constructed state without re-running ``_setup_memory``.

        Clears every run-scoped accumulator (traffic, time breakdown,
        iteration count) and the UVM residency state, so a reused engine's
        next run produces exactly the metrics a freshly constructed engine
        would.  The address-space allocations — the expensive part of
        construction — are left in place.
        """
        self.traffic = TrafficRecord()
        self.breakdown = TimeBreakdown()
        self.iterations = 0
        self.relax_backend = None
        self.relax_candidates = 0
        self._max_frontier = 0
        if self.edge_uvm is not None:
            self.edge_uvm.reset()
        if self.weight_uvm is not None:
            self.weight_uvm.reset()

    # ------------------------------------------------------------------ #
    # Run finalization
    # ------------------------------------------------------------------ #
    @property
    def dataset_bytes(self) -> int:
        """Bytes of host-resident input data (the Figure 10 denominator)."""
        total = self.graph.edge_list_bytes
        if self.needs_weights:
            total += self.graph.weight_list_bytes
        return total

    def note_relax(self, backend: str, candidates: int) -> None:
        """Record which relax kernel backend ran and how many candidates it saw."""
        self.relax_backend = backend
        self.relax_candidates += int(candidates)

    def counters(self) -> KernelCounters:
        """Kernel-level counters accumulated so far (see :class:`KernelCounters`)."""
        return KernelCounters(
            iterations=self.iterations,
            frontier_vertices=int(self.traffic.vertices_processed),
            edges_traversed=int(self.traffic.edges_processed),
            max_frontier=self._max_frontier,
            relax_candidates=self.relax_candidates,
            relax_backend=self.relax_backend,
        )

    def finalize(self) -> TraversalMetrics:
        """Produce the run-level metrics after the traversal has converged."""
        return TraversalMetrics(
            seconds=self.breakdown.total(),
            breakdown=self.breakdown,
            traffic=self.traffic,
            iterations=self.iterations,
            dataset_bytes=self.dataset_bytes,
            strategy=self.strategy,
            system_name=self.system.name,
            counters=self.counters(),
        )
