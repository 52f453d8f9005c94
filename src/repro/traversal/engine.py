"""Traversal engine: accounts the memory-system cost of frontier expansion.

The algorithms in :mod:`repro.traversal.bfs` / ``sssp`` / ``cc`` /
``pagerank`` compute their results directly on the CSR arrays (so the
numerical output is exact), and an engine simulates what the corresponding
CUDA kernel would have done to the memory system: the edge-list (and
weight-list) bytes it touches, the PCIe read requests or UVM page migrations
those touches generate, and the resulting simulated time.

Trace, then price: a run records a :class:`WordTrace` of its sweeps — a
BFS/SSSP word one lane per source, a CC/PageRank pass one lane — and
:meth:`TraversalEngine.price_lanes` prices every lane's own frontier
sequence from it afterwards.  :meth:`TraversalEngine.process_frontier` is
the per-sweep definition that pricing is checked against, and both price a
sweep with the same per-row arithmetic (:meth:`TraversalEngine._price_rows`).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from ..config import SystemConfig, default_system
from ..errors import SimulationError
from ..graph.csr import CSRGraph
from ..memsim.address_space import AddressSpace
from ..memsim.coalescer import REQUEST_SIZES, vertex_request_table
from ..memsim.gpu_memory import DeviceMemory
from ..memsim.metrics import (
    COUNTER_ROW_WIDTH, DRAM_BYTES, EDGES, LAUNCHES, REQUEST_COLUMNS, USEFUL_BYTES,
    UVM_BYTES, UVM_MIGRATIONS, UVM_PAGES, VERTICES, TimingModel, TrafficRecord,
)
from ..memsim.uvm import COUNTER_COLUMNS, UVMSpace
from ..timing import TimeBreakdown
from ..types import AccessStrategy, MemorySpace, VERTEX_DTYPE
from . import _native
from .results import KernelCounters, LaneMetrics, TraversalMetrics
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


#: A fresh trace's capacity, in entries per graph vertex.  A solo BFS's
#: sweeps hold each reached vertex once, and a native sweep wants one
#: vertex's worth free, so two per vertex never grow on a solo BFS.
_TRACE_ENTRIES_PER_VERTEX = 2

#: Sweeps a fresh trace's ``bounds`` hold before they grow.
_TRACE_SWEEPS = 16


class WordTrace:
    """What one run swept, recorded for :meth:`TraversalEngine.price_lanes`.

    Sweep ``s`` is the union frontier (vertex ids, ascending) and each
    frontier vertex's lane word: bit ``l`` is set when lane ``l``'s own
    frontier holds the vertex.  So lane ``l``'s frontier at sweep ``s`` is
    the entries carrying its bit, in order — exactly the frontier its solo
    run sweeps.  BFS and SSSP words record this one format, and so does a
    CC or PageRank pass, as one lane whose every lane word is 1.

    The sweeps are held flat, in one growable pair of arrays: ``vertices``
    and ``masks`` (the lane words), sweep ``s`` at entries ``[bounds[s],
    bounds[s + 1])``.  The trace is also the frontier buffer of a native
    BFS/SSSP sweep: the entries ``[start, size)`` after the last sweep are
    the *pending* frontier, which the kernel reads and appends the next
    frontier after; :meth:`advance` then closes the pending frontier as a
    sweep (see :class:`repro.traversal._native.TraceSweep`).  The numpy
    sweeps and CC/PageRank append each sweep whole with :meth:`record`.
    Whenever fewer entries are free than a write needs, the arrays grow
    geometrically (:meth:`reserve`).
    """

    __slots__ = ("lanes", "vertices", "masks", "sweeps", "start", "size", "_bounds")

    def __init__(self, lanes: int, num_vertices: int = 0) -> None:
        capacity = _TRACE_ENTRIES_PER_VERTEX * num_vertices
        self.lanes = lanes
        self.vertices = np.empty(capacity, dtype=VERTEX_DTYPE)
        self.masks = np.empty(capacity, dtype=np.uint64)
        self._bounds = np.zeros(_TRACE_SWEEPS + 1, dtype=np.int64)
        #: Sweeps closed so far.
        self.sweeps = 0
        #: Where the pending frontier starts: ``bounds[sweeps]``.
        self.start = 0
        #: Entries written: the sweeps, then the pending frontier.
        self.size = 0

    @property
    def pending(self) -> int:
        """Entries of the pending frontier (0 once a word has converged)."""
        return self.size - self.start

    def reserve(self, free: int) -> None:
        """Leave at least ``free`` entries free after the written ones: when
        fewer are, both arrays at least double."""
        capacity = self.vertices.size
        if capacity - self.size >= free:
            return
        capacity = max(2 * capacity, self.size + free)
        written = slice(0, self.size)
        vertices = np.empty(capacity, dtype=VERTEX_DTYPE)
        masks = np.empty(capacity, dtype=np.uint64)
        vertices[written] = self.vertices[written]
        masks[written] = self.masks[written]
        self.vertices, self.masks = vertices, masks

    def append(self, frontier: np.ndarray, active_bits: np.ndarray) -> None:
        """Write a frontier and its lane words after the written entries, as
        (part of) the pending frontier."""
        end = self.size + frontier.size
        self.reserve(frontier.size)
        self.vertices[self.size : end] = frontier
        self.masks[self.size : end] = active_bits
        self.size = end

    def advance(self, appended: int = 0) -> None:
        """Close the pending frontier as the next sweep; the ``appended``
        entries a kernel wrote after it become the new pending frontier."""
        self.sweeps += 1
        if self.sweeps == self._bounds.size:
            self._bounds = np.concatenate([self._bounds, np.empty_like(self._bounds)])
        self._bounds[self.sweeps] = self.start = self.size
        self.size += appended

    def record(self, frontier: np.ndarray, active_bits: np.ndarray) -> None:
        """Append one whole sweep (copied: the run loop reuses its buffers)."""
        self.append(frontier, active_bits)
        self.advance()

    def flat(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The sweeps as views, nothing copied: every frontier vertex, every
        lane word, and the ``sweeps + 1`` offsets that cut them into sweeps.
        A pending frontier left after the last sweep (an SSSP word stopped
        by its iteration cap) is no sweep and is not included."""
        return self.vertices[: self.start], self.masks[: self.start], self.bounds

    @property
    def bounds(self) -> np.ndarray:
        """The ``sweeps + 1`` offsets of the sweeps into the flat arrays."""
        return self._bounds[: self.sweeps + 1]

    @property
    def frontiers(self) -> list[np.ndarray]:
        """Each sweep's union frontier (views)."""
        return self._cut(self.vertices)

    @property
    def active_bits(self) -> list[np.ndarray]:
        """Each sweep's lane words (views)."""
        return self._cut(self.masks)

    def _cut(self, array: np.ndarray) -> list[np.ndarray]:
        bounds = self.bounds.tolist()
        return [array[start:end] for start, end in zip(bounds[:-1], bounds[1:])]

    def lane_frontiers(self, lane: int) -> list[np.ndarray]:
        """Lane ``lane``'s frontier at every sweep it is active in."""
        bit = np.uint64(1) << np.uint64(lane)
        frontiers = [
            frontier[(bits & bit) != 0]
            for frontier, bits in zip(self.frontiers, self.active_bits)
        ]
        return [frontier for frontier in frontiers if frontier.size]


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

    def _setup_zero_copy(self) -> None:
        gpu = self.system.gpu
        strided = not self.spec.warp_per_vertex
        if strided and not 0.0 <= gpu.strided_sector_hit_rate <= 1.0:
            raise SimulationError("strided_sector_hit_rate must be within [0, 1]")
        allocations = [self.edge_allocation]
        if self.weight_allocation is not None:
            allocations.append(self.weight_allocation)
        # One request table per zero-copy region, shared by every engine that
        # walks the same offsets array the same way, as rows of request
        # columns (one column, of sectors, for a strided walk).
        width = 1 if strided else len(REQUEST_SIZES)
        self.request_tables = tuple(
            vertex_request_table(
                self.graph.offsets,
                allocation.element_bytes,
                allocation.base_address,
                gpu.warp_size,
                self.spec.aligned,
                strided,
            ).reshape(self.graph.num_vertices, width)
            for allocation in allocations
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
    ) -> TimeBreakdown:
        """Account one traversal iteration (one kernel launch) over ``frontier``.

        Every vertex in the frontier has its full neighbor list scanned, which
        is exactly what the vertex-centric kernels in Listings 1 and 2 do.
        Returns the time breakdown of just this iteration (also accumulated
        into the run totals).  This is the per-sweep definition that
        :meth:`price_lanes` implements for whole traces; no run loop calls it.

        ``starts``/``ends`` may carry the frontier's precomputed edge-list
        offsets (see :func:`~repro.traversal.frontier.frontier_offsets`).
        """
        frontier = np.asarray(frontier, dtype=VERTEX_DTYPE).ravel()
        self.iterations += 1
        if frontier.size == 0:
            return TimeBreakdown()
        # Checked with precomputed offsets too: the request tables are indexed
        # by vertex id, where a negative id would silently wrap around.
        if frontier.min() < 0 or frontier.max() >= self.graph.num_vertices:
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
                result = space.access_byte_ranges(starts * element_bytes, ends * element_bytes)
                migrations.append(np.array([[
                    result.pages_touched, result.page_faults,
                    result.migrated_bytes, result.evicted_pages,
                ]]))
            seconds, counters = self._price_rows(edges, vertices, migrations=migrations)
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
    ) -> LaneMetrics:
        """The metrics of each of ``lanes`` (lane indices of ``trace``'s
        word) run alone, as one :class:`~repro.traversal.results.LaneMetrics`
        block: row ``r`` is ``lanes[r]``, and iterating the block builds
        each row's :class:`TraversalMetrics`.

        The one production pricing path: a BFS/SSSP word prices the lanes
        each configuration asked for, a CC/PageRank pass its one lane ``0``.

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

        shape = (lanes.size, trace.sweeps)
        # In sweep order, as TimeBreakdown.add accumulates a solo run; a
        # lane's sweeps after its last are all zeros, and a trace with no
        # sweeps costs nothing.
        seconds = seconds.reshape(*shape, seconds.shape[1])
        seconds = np.add.accumulate(seconds, axis=1)[:, -1] if shape[1] else seconds.sum(axis=1)
        vertices = vertices.reshape(shape)
        return LaneMetrics(
            seconds=seconds,
            counters=counters.reshape(*shape, counters.shape[1]).sum(axis=1),
            iterations=np.count_nonzero(vertices, axis=1),
            max_frontier=vertices.max(axis=1, initial=0),
            strategy=self.strategy,
            system_name=self.system.name,
            dataset_bytes=self.dataset_bytes,
            relax_backend=relax_backend,
        )

    def _lane_rows(self, trace: WordTrace, lanes: np.ndarray, native: bool) -> np.ndarray:
        """The ``(lane, sweep)`` rows of ``lanes`` (lane indices of
        ``trace``'s word): each lane's frontier's edges, its vertices, then
        each request table's columns, summed over the vertices of its own
        frontier.

        A sweep of a one-lane trace that holds all ``V`` vertices (every
        PageRank iteration, CC's first) is the engine's memoised
        whole-graph row; :meth:`_summed_rows` sums the other sweeps.
        """
        frontier, masks, bounds = trace.flat()
        if trace.lanes == 1 and trace.start >= self.graph.num_vertices:
            sizes = bounds[1:] - bounds[:-1]
            whole = sizes == self.graph.num_vertices
            if whole.any():
                rows = np.empty((1, sizes.size, self._whole_graph_row.size), dtype=np.int64)
                rows[0, whole] = self._whole_graph_row
                part = ~whole
                if part.any():
                    kept = np.repeat(part, sizes)
                    rows[:, part] = self._summed_rows(
                        frontier[kept], masks[kept],
                        np.concatenate([[0], np.cumsum(sizes[part])]), lanes, native,
                    )
                return rows
        return self._summed_rows(frontier, masks, bounds, lanes, native)

    @cached_property
    def _whole_graph_row(self) -> np.ndarray:
        """The row of a sweep over every vertex: the degree sum, ``V``, then
        each request table's column sums (exact integers)."""
        offsets = self.graph.offsets
        return np.concatenate(
            [[offsets[-1] - offsets[0], self.graph.num_vertices]]
            + [table.sum(axis=0) for table in self.request_tables]
        ).astype(np.int64)

    def _summed_rows(
        self,
        frontier: np.ndarray,
        masks: np.ndarray,
        bounds: np.ndarray,
        lanes: np.ndarray,
        native: bool,
    ) -> np.ndarray:
        """:meth:`_lane_rows` of the sweeps ``bounds`` cuts ``frontier`` /
        ``masks`` into, every vertex's rows summed.

        ``native`` runs ``repro_lane_rows``.  The numpy arm, the fallback
        and reference, multiplies each sweep's unpacked bits of ``lanes``
        into its vertices' rows, :data:`_LANE_ROW_CHUNK` vertices at a time
        so the unpacked bits stay small; every product and partial sum is an
        integer below 2**53, so every count is exact.
        """
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
        counters = np.zeros((edges.size, COUNTER_ROW_WIDTH), dtype=np.int64)
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
            counters[:, REQUEST_COLUMNS] += region
            counters[:, DRAM_BYTES] += dram_bytes
        for region in migrations:
            touched, faults, migrated_bytes = region[:, 0], region[:, 1], region[:, 2]
            link_seconds, dram_seconds, fault_seconds, dram_bytes = (
                self.timing_model.uvm_rows(migrated_bytes, faults)
            )
            seconds[:, _INTERCONNECT] += link_seconds
            seconds[:, _DRAM] += dram_seconds
            seconds[:, _FAULTS] += fault_seconds
            counters[:, UVM_BYTES] += migrated_bytes
            counters[:, UVM_MIGRATIONS] += faults
            counters[:, UVM_PAGES] += touched
            counters[:, DRAM_BYTES] += dram_bytes
        launched = vertices > 0
        seconds[:, _LAUNCH] = self._launch_seconds * launched
        seconds[:, _COMPUTE] = self.timing_model.compute_seconds(edges, vertices)
        counters[:, USEFUL_BYTES] = edges * self._useful_bytes_per_edge
        counters[:, EDGES] = edges
        counters[:, VERTICES] = vertices
        counters[:, LAUNCHES] = launched
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
