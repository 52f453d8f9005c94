"""Traversal engine: accounts the memory-system cost of frontier expansion.

The algorithms in :mod:`repro.traversal.bfs` / ``sssp`` / ``cc`` compute their
results directly on the CSR arrays (so the numerical output is exact), and
an engine simulates what the corresponding CUDA kernel would have done to the
memory system: the edge-list (and weight-list) bytes it touches, the PCIe
read requests or UVM page migrations those touches generate, and the
resulting simulated time.  The streaming applications (CC, PageRank) call
:meth:`TraversalEngine.process_frontier` once per iteration; a BFS/SSSP word
records a :class:`WordTrace` of its sweeps and
:meth:`TraversalEngine.price_lanes` prices every lane's own frontier
sequence from it afterwards.  Both price a sweep with the same per-row
arithmetic (:meth:`TraversalEngine._price_rows`).
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
from ..memsim.uvm import COUNTER_COLUMNS, UVMSpace
from ..timing import TimeBreakdown
from ..types import AccessStrategy, MemorySpace, VERTEX_DTYPE
from . import _native
from .results import KernelCounters, TraversalMetrics
from .strategies import spec_for

_hooks = None


def _resilience_hooks():
    """:func:`repro.service.resilience.iteration_checkpoint` and
    :func:`~repro.service.resilience.poll_cancellation`, bound on first use.

    They are bound lazily because importing ``repro.service`` at module
    scope would be circular — the service package imports the traversal
    API, which imports this module.  After the first call this is one
    global read.
    """
    global _hooks
    if _hooks is None:
        from ..service.resilience import iteration_checkpoint, poll_cancellation

        _hooks = iteration_checkpoint, poll_cancellation
    return _hooks


def _iteration_checkpoint() -> None:
    """Cooperative cancellation + fault hook, one call per sweep of a run loop
    (the engine.sweep fault site + the thread's Cancellation token; two
    reads when idle)."""
    _resilience_hooks()[0]()


def _pricing_checkpoint() -> None:
    """Poll the thread's Cancellation token between the configurations that
    price one word, so a deadline passed while pricing is observed there;
    it is no fault site, so the engine.sweep fault counts stay per sweep."""
    _resilience_hooks()[1]()


class WordTrace:
    """What one BFS/SSSP word swept, recorded for :meth:`TraversalEngine.price_lanes`.

    Sweep ``s`` is the union frontier (vertex ids, ascending) and each
    frontier vertex's lane word: bit ``l`` is set when lane ``l``'s own
    frontier holds the vertex.  So lane ``l``'s frontier at sweep ``s`` is
    the entries carrying its bit, in order — exactly the frontier its solo
    run sweeps.  BFS and SSSP record this one format.
    """

    __slots__ = ("lanes", "frontiers", "active_bits", "_flat")

    def __init__(self, lanes: int) -> None:
        self.lanes = lanes
        self.frontiers: list[np.ndarray] = []
        self.active_bits: list[np.ndarray] = []
        self._flat: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def record(self, frontier: np.ndarray, active_bits: np.ndarray) -> None:
        """Append one sweep (copied: the run loop reuses its buffers)."""
        self.frontiers.append(frontier.copy())
        self.active_bits.append(active_bits.copy())

    def flat(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The sweeps concatenated, made once per trace: every frontier, every
        lane word, and the ``sweeps + 1`` offsets that cut them into sweeps."""
        if self._flat is None:
            bounds = np.zeros(len(self.frontiers) + 1, dtype=np.int64)
            np.cumsum([frontier.size for frontier in self.frontiers], out=bounds[1:])
            self._flat = (
                np.concatenate(self.frontiers),
                np.concatenate(self.active_bits),
                bounds,
            )
        return self._flat

    def lane_frontiers(self, lane: int) -> list[np.ndarray]:
        """Lane ``lane``'s frontier at every sweep it is active in."""
        bit = np.uint64(1) << np.uint64(lane)
        frontiers = [
            frontier[(bits & bit) != 0]
            for frontier, bits in zip(self.frontiers, self.active_bits)
        ]
        return [frontier for frontier in frontiers if frontier.size]


#: Columns of :meth:`TraversalEngine._price_rows`' counters, in
#: :meth:`TrafficRecord.counter_row` order.
_REQUESTS = slice(0, len(REQUEST_SIZES))
_COUNTERS = len(TrafficRecord().counter_row())
(
    _UVM_BYTES, _UVM_MIGRATIONS, _UVM_PAGES, _, _, _DRAM_BYTES,
    _USEFUL_BYTES, _EDGES, _VERTICES, _LAUNCHES,
) = range(len(REQUEST_SIZES), _COUNTERS)

#: Columns of :meth:`TraversalEngine._price_rows`' seconds, in
#: :meth:`TimeBreakdown.components` order.
_INTERCONNECT, _DRAM, _COMPUTE, _FAULTS, _HOST, _LAUNCH = range(6)

#: Frontier vertices per multiply of :meth:`TraversalEngine._lane_rows`.
_LANE_ROW_CHUNK = 4096

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
        self._max_frontier = 0
        self._edge_misalign_bytes = edge_misalign_bytes
        self._launch_seconds = self.timing_model.kernel_launch_time(1).kernel_launch_seconds
        #: Bytes one traversed edge reads: its element, plus its weight.
        self._useful_bytes_per_edge = graph.element_bytes + (4 if self.needs_weights else 0)
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
        # walks the same offsets array the same way, and its column totals;
        # both as rows of request columns (one column, of sectors, for a
        # strided walk).
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
        self.request_tables = tuple(
            vertex_request_table(*walk).reshape(self.graph.num_vertices, -1) for walk in walks
        )
        self.request_totals = tuple(
            vertex_request_totals(*walk).reshape(1, -1) for walk in walks
        )
        self._refetch_rate = 1.0 - gpu.strided_sector_hit_rate
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
        edges = np.array([(ends - starts).sum()])
        vertices = np.array([frontier.size])
        if frontier.size > self._max_frontier:
            self._max_frontier = int(frontier.size)

        if self.strategy is AccessStrategy.UVM:
            migrations = []
            for space, element_bytes in self._uvm_regions():
                result = space.access_byte_ranges(
                    starts * element_bytes, ends * element_bytes, native=native
                )
                migrations.append(np.array([[
                    result.pages_touched, result.page_faults,
                    result.migrated_bytes, result.evicted_pages,
                ]]))
            seconds, counters = self._price_rows(edges, vertices, migrations=migrations)
        elif frontier.size == num_vertices and bool((frontier[1:] > frontier[:-1]).all()):
            # Every vertex once (strictly increasing, V of them): the
            # streaming iterations, priced from the memoised totals.
            seconds, counters = self._price_rows(
                edges, vertices, requests=self.request_totals
            )
        else:
            seconds, counters = self._price_rows(
                edges, vertices, requests=self._frontier_requests(frontier)
            )

        iteration = TimeBreakdown(*seconds[0].tolist())
        self.traffic.merge(TrafficRecord.from_counter_row(counters[0].tolist()))
        self.breakdown.add(iteration)
        return iteration

    def _frontier_requests(self, frontier: np.ndarray) -> list[np.ndarray]:
        """Each zero-copy region's request row of one frontier, for
        :meth:`_price_rows`: its rows of the request table summed."""
        return [table[frontier].sum(axis=0, keepdims=True) for table in self.request_tables]

    def price_lanes(
        self,
        trace: WordTrace,
        lanes,
        relax_backend: str | None = None,
        native: bool = False,
    ) -> list[TraversalMetrics]:
        """Metrics of each of ``lanes`` (lane indices of ``trace``'s word) run alone.

        Every lane is priced on its own frontier sequence, exactly as
        :meth:`process_frontier` would have priced its solo run sweep by
        sweep, and the sweeps are accumulated in order, so each lane's
        metrics equal its solo run's bit for bit whatever else rode the word.
        Zero-copy request counts are the lane's own rows of the request
        tables, summed by one :meth:`_lane_rows` pass over the trace that
        reads only these lanes' bits; UVM lanes each replay their own
        sequence on a freshly reset residency, one
        :meth:`~repro.memsim.uvm.UVMSpace.replay_lanes` call per region
        (``native`` takes the compiled kernels).  An SSSP
        word passes its ``relax_backend``: each lane's relax candidates are
        its own frontier's edges.  Nothing accumulated on the engine is
        read or changed, bar the UVM residency.
        """
        lanes = np.asarray(lanes, dtype=np.int64)
        # This engine's lanes, lane-major (lane, sweep) rows from here on.
        rows = self._lane_rows(trace, lanes, native)
        rows = rows.reshape(-1, rows.shape[2])
        edges, vertices = rows[:, 0], rows[:, 1]
        if self.strategy is AccessStrategy.UVM:
            seconds, counters = self._price_rows(
                edges, vertices, migrations=self._replay_lanes(trace, lanes, native)
            )
        else:
            cuts = np.cumsum([2] + [table.shape[1] for table in self.request_tables])
            requests = [rows[:, start:end] for start, end in zip(cuts[:-1], cuts[1:])]
            seconds, counters = self._price_rows(edges, vertices, requests=requests)

        shape = (lanes.size, len(trace.frontiers))
        # In sweep order, as TimeBreakdown.add accumulates a solo run; a
        # lane's sweeps after its last are all zeros.
        seconds = np.add.accumulate(seconds.reshape(*shape, -1), axis=1)[:, -1]
        counters = counters.reshape(*shape, -1).sum(axis=1)
        vertices = vertices.reshape(shape)
        dataset_bytes, system_name = self.dataset_bytes, self.system.name
        metrics = []
        for components, row, iterations, max_frontier in zip(
            seconds.tolist(),
            counters.tolist(),
            np.count_nonzero(vertices, axis=1).tolist(),
            vertices.max(axis=1).tolist(),
        ):
            breakdown = TimeBreakdown(*components)
            traffic = TrafficRecord.from_counter_row(row)
            edges = traffic.edges_processed
            metrics.append(
                TraversalMetrics(
                    seconds=breakdown.total(),
                    breakdown=breakdown,
                    traffic=traffic,
                    iterations=iterations,
                    dataset_bytes=dataset_bytes,
                    strategy=self.strategy,
                    system_name=system_name,
                    counters=KernelCounters(
                        iterations=iterations,
                        frontier_vertices=traffic.vertices_processed,
                        edges_traversed=edges,
                        max_frontier=max_frontier,
                        relax_candidates=edges if relax_backend is not None else 0,
                        relax_backend=relax_backend,
                    ),
                )
            )
        return metrics

    def _lane_rows(self, trace: WordTrace, lanes: np.ndarray, native: bool) -> np.ndarray:
        """The ``(lane, sweep)`` rows of ``lanes`` (lane indices of
        ``trace``'s word): each lane's frontier's edges, its vertices, then
        each request table's columns, summed over the vertices of its own
        frontier.

        ``native`` runs ``repro_lane_rows``.  The numpy arm, the fallback
        and reference, multiplies each sweep's unpacked bits of ``lanes``
        into its vertices' rows, :data:`_LANE_ROW_CHUNK` vertices at a time
        so the unpacked bits stay small; every product and partial sum is an
        integer below 2**53, so every count is exact.
        """
        frontier, masks, bounds = trace.flat()
        offsets = self.graph.offsets
        tables = self.request_tables
        width = 2 + sum(table.shape[1] for table in tables)
        if native:
            rows = np.empty((lanes.size, bounds.size - 1, width), dtype=np.int64)
            _native.lane_rows(frontier, masks, bounds, offsets, tables, lanes, rows)
            return rows
        rows = np.zeros((lanes.size, bounds.size - 1, width))
        for sweep, (start, end) in enumerate(zip(bounds[:-1].tolist(), bounds[1:].tolist())):
            for lo in range(start, end, _LANE_ROW_CHUNK):
                vertices = frontier[lo : min(lo + _LANE_ROW_CHUNK, end)]
                columns = np.empty((vertices.size, width))
                columns[:, 0] = np.take(offsets, vertices + 1) - np.take(offsets, vertices)
                columns[:, 1] = 1
                column = 2
                for table in tables:
                    columns[:, column : column + table.shape[1]] = np.take(table, vertices, axis=0)
                    column += table.shape[1]
                # Column l holds bit l of each lane word.
                words = np.asarray(masks[lo : lo + vertices.size], dtype="<u8").view(np.uint8)
                bits = np.unpackbits(words, bitorder="little").reshape(-1, 64)[:, lanes]
                rows[:, sweep] += (columns.T @ bits.astype(np.float64)).T
        return rows.astype(np.int64)

    def _uvm_regions(self) -> list[tuple[UVMSpace, int]]:
        """Each UVM region with the bytes of one of its elements."""
        regions = [(self.edge_uvm, self.graph.element_bytes)]
        if self.weight_uvm is not None:
            regions.append((self.weight_uvm, 4))
        return regions

    def _replay_lanes(
        self, trace: WordTrace, lanes: np.ndarray, native: bool
    ) -> list[np.ndarray]:
        """Each region's lane-major ``(lane, sweep)`` rows of UVM counters:
        every lane's frontier sequence replayed from a reset residency."""
        frontier, masks, bounds = trace.flat()
        starts = self.graph.offsets[frontier]
        ends = self.graph.offsets[frontier + 1]
        return [
            space.replay_lanes(
                starts * element_bytes, ends * element_bytes, masks, bounds, lanes, native
            ).reshape(-1, COUNTER_COLUMNS)
            for space, element_bytes in self._uvm_regions()
        ]

    def _price_rows(
        self,
        edges: np.ndarray,
        vertices: np.ndarray,
        requests=(),
        migrations=(),
    ) -> tuple[np.ndarray, np.ndarray]:
        """Price sweeps given as rows: the one copy of the per-sweep formula.

        Row ``r`` is one sweep of one traversal: ``edges[r]`` edges out of
        ``vertices[r]`` frontier vertices (a row with none is a sweep the
        traversal did not run, and costs nothing), plus per zero-copy region
        its request counts — a ``(rows, 4)`` matrix, or for a strided walk
        a ``(rows, 1)`` column of sectors, to which the cache refetches are
        added here — or per UVM region its ``(rows, 4)`` replay counters.
        Returns the rows' seconds in :meth:`TimeBreakdown.components` order
        and their integer counters in :meth:`TrafficRecord.counter_row`
        order; every element takes the operations of one scalar sweep.
        """
        seconds = np.zeros((edges.size, 6))
        counters = np.zeros((edges.size, _COUNTERS), dtype=np.int64)
        for region in requests:
            if region.shape[1] == 1:
                # A strided thread re-fetches a sector the cache lost (§3.3):
                # rounded from the sweep's totals.
                sectors = region[:, 0]
                refetches = np.rint((edges - sectors) * self._refetch_rate).astype(np.int64)
                region = np.zeros((edges.size, 4), dtype=np.int64)
                region[:, 0] = sectors + np.maximum(refetches, 0)
            link_seconds, dram_seconds, dram_bytes = self.timing_model.zero_copy_rows(region)
            seconds[:, _INTERCONNECT] += link_seconds
            seconds[:, _DRAM] += dram_seconds
            counters[:, _REQUESTS] += region
            counters[:, _DRAM_BYTES] += dram_bytes
        for region in migrations:
            touched, faults, migrated_bytes = region[:, 0], region[:, 1], region[:, 2]
            link_seconds, dram_seconds, fault_seconds, dram_bytes = (
                self.timing_model.uvm_rows(migrated_bytes, faults)
            )
            seconds[:, _INTERCONNECT] += link_seconds
            seconds[:, _DRAM] += dram_seconds
            seconds[:, _FAULTS] += fault_seconds
            counters[:, _UVM_BYTES] += migrated_bytes
            counters[:, _UVM_MIGRATIONS] += faults
            counters[:, _UVM_PAGES] += touched
            counters[:, _DRAM_BYTES] += dram_bytes
        launched = vertices > 0
        seconds[:, _LAUNCH] = self._launch_seconds * launched
        seconds[:, _COMPUTE] = self.timing_model.compute_seconds(edges, vertices)
        counters[:, _USEFUL_BYTES] = edges * self._useful_bytes_per_edge
        counters[:, _EDGES] = edges
        counters[:, _VERTICES] = vertices
        counters[:, _LAUNCHES] = launched
        return seconds, counters

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

    def counters(self) -> KernelCounters:
        """Kernel-level counters accumulated so far (see :class:`KernelCounters`)."""
        return KernelCounters(
            iterations=self.iterations,
            frontier_vertices=int(self.traffic.vertices_processed),
            edges_traversed=int(self.traffic.edges_processed),
            max_frontier=self._max_frontier,
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
