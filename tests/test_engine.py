"""Tests for the traversal engine: memory placement and traffic invariants."""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import default_system
from repro.errors import SimulationError
from repro.memsim.monitor import PCIeTrafficMonitor
from repro.memsim.zero_copy import ZeroCopyRegion
from repro.traversal import _native
from repro.traversal import engine as engine_module
from repro.traversal.bfs import run_bfs
from repro.traversal.cc import run_cc
from repro.traversal.engine import TraversalEngine, WordTrace
from repro.traversal.multisource import run_batch
from repro.traversal.pagerank import run_pagerank
from repro.traversal.sssp import run_sssp
from repro.traversal.streaming import run_streaming_batch
from repro.types import AccessStrategy, MemorySpace


@pytest.fixture
def frontier(uniform_graph):
    return np.arange(0, uniform_graph.num_vertices, 3)


class TestMemoryPlacement:
    def test_zero_copy_places_edges_in_pinned_host_memory(self, uniform_graph):
        engine = TraversalEngine(uniform_graph, AccessStrategy.MERGED_ALIGNED)
        assert engine.edge_allocation.space is MemorySpace.HOST_PINNED
        assert len(engine.request_tables) == 1
        assert engine.edge_uvm is None

    def test_uvm_places_edges_in_uvm_space(self, uniform_graph):
        engine = TraversalEngine(uniform_graph, AccessStrategy.UVM)
        assert engine.edge_allocation.space is MemorySpace.UVM
        assert engine.edge_uvm is not None
        assert engine.request_tables == ()

    def test_vertex_list_and_values_stay_in_device_memory(self, uniform_graph):
        engine = TraversalEngine(uniform_graph, AccessStrategy.MERGED_ALIGNED)
        assert engine.address_space.get("vertex_list").space is MemorySpace.DEVICE
        assert engine.address_space.get("vertex_values").space is MemorySpace.DEVICE
        assert engine.device.allocated_bytes > 0

    def test_weights_allocated_when_requested(self, weighted_uniform_graph):
        engine = TraversalEngine(
            weighted_uniform_graph, AccessStrategy.MERGED_ALIGNED, needs_weights=True
        )
        assert engine.weight_allocation is not None
        assert engine.dataset_bytes == (
            weighted_uniform_graph.edge_list_bytes
            + weighted_uniform_graph.weight_list_bytes
        )

    def test_weights_ignored_for_unweighted_graph(self, uniform_graph):
        engine = TraversalEngine(uniform_graph, AccessStrategy.UVM, needs_weights=True)
        assert engine.weight_allocation is None

    def test_dataset_bytes_without_weights(self, uniform_graph):
        engine = TraversalEngine(uniform_graph, AccessStrategy.NAIVE)
        assert engine.dataset_bytes == uniform_graph.edge_list_bytes


class TestFrontierProcessing:
    def test_empty_frontier_costs_nothing_but_counts_an_iteration(self, uniform_graph):
        engine = TraversalEngine(uniform_graph, AccessStrategy.MERGED_ALIGNED)
        breakdown = engine.process_frontier(np.array([], dtype=np.int64))
        assert breakdown.total() == 0.0
        assert engine.iterations == 1

    def test_invalid_frontier_rejected(self, uniform_graph):
        engine = TraversalEngine(uniform_graph, AccessStrategy.MERGED_ALIGNED)
        offsets = np.zeros(1, dtype=np.int64)
        for vertex in (uniform_graph.num_vertices, -1):
            with pytest.raises(SimulationError):
                engine.process_frontier(np.array([vertex]))
            with pytest.raises(SimulationError):
                engine.process_frontier(np.array([vertex]), offsets, offsets)

    def test_edges_processed_accounting(self, uniform_graph, frontier):
        engine = TraversalEngine(uniform_graph, AccessStrategy.MERGED_ALIGNED)
        engine.process_frontier(frontier)
        expected_edges = int(
            (uniform_graph.offsets[frontier + 1] - uniform_graph.offsets[frontier]).sum()
        )
        assert engine.traffic.edges_processed == expected_edges
        assert engine.traffic.vertices_processed == frontier.size
        assert engine.traffic.kernel_launches == 1

    def test_each_iteration_adds_time(self, uniform_graph, frontier):
        engine = TraversalEngine(uniform_graph, AccessStrategy.MERGED_ALIGNED)
        engine.process_frontier(frontier)
        first = engine.breakdown.total()
        engine.process_frontier(frontier)
        assert engine.breakdown.total() > first


class TestTrafficInvariants:
    def run_all(self, graph, frontier):
        results = {}
        for strategy in AccessStrategy:
            engine = TraversalEngine(graph, strategy)
            engine.process_frontier(frontier)
            results[strategy] = engine
        return results

    def test_merged_reduces_requests_and_alignment_reduces_further(
        self, uniform_graph, frontier
    ):
        engines = self.run_all(uniform_graph, frontier)
        naive = engines[AccessStrategy.NAIVE].traffic.request_histogram.total_requests
        merged = engines[AccessStrategy.MERGED].traffic.request_histogram.total_requests
        aligned = engines[
            AccessStrategy.MERGED_ALIGNED
        ].traffic.request_histogram.total_requests
        assert merged < naive
        assert aligned <= merged

    def test_zero_copy_bytes_cover_useful_bytes(self, uniform_graph, frontier):
        engines = self.run_all(uniform_graph, frontier)
        for strategy in (
            AccessStrategy.NAIVE,
            AccessStrategy.MERGED,
            AccessStrategy.MERGED_ALIGNED,
        ):
            traffic = engines[strategy].traffic
            assert traffic.zero_copy_bytes >= traffic.useful_bytes

    def test_uvm_traffic_is_page_granular(self, uniform_graph, frontier):
        engine = TraversalEngine(uniform_graph, AccessStrategy.UVM)
        engine.process_frontier(frontier)
        traffic = engine.traffic
        page = default_system().uvm.page_bytes
        assert traffic.uvm_migrated_bytes % page == 0
        assert traffic.uvm_migrated_bytes >= traffic.useful_bytes
        assert traffic.request_histogram.total_requests == 0

    def test_naive_generates_only_32b_requests(self, uniform_graph, frontier):
        engine = TraversalEngine(uniform_graph, AccessStrategy.NAIVE)
        engine.process_frontier(frontier)
        histogram = engine.traffic.request_histogram
        assert histogram.counts[32] == histogram.total_requests

    def test_aligned_produces_more_full_lines_than_merged(self, uniform_graph, frontier):
        engines = self.run_all(uniform_graph, frontier)
        merged = engines[AccessStrategy.MERGED].traffic.request_histogram
        aligned = engines[AccessStrategy.MERGED_ALIGNED].traffic.request_histogram
        assert aligned.fraction(128) >= merged.fraction(128)

    def test_monitor_sees_zero_copy_traffic(self, uniform_graph, frontier):
        engine = TraversalEngine(uniform_graph, AccessStrategy.MERGED_ALIGNED)
        engine.process_frontier(frontier)
        # The monitor behind a ZeroCopyRegion (the per-access oracle) records
        # exactly the requests the engine gathered from its table.
        monitor = PCIeTrafficMonitor()
        region = ZeroCopyRegion(engine.edge_allocation, monitor, engine.system.gpu.warp_size)
        offsets = uniform_graph.offsets
        region.access_merged(offsets[frontier], offsets[frontier + 1], aligned=True)
        assert monitor.histogram == engine.traffic.request_histogram

    def test_finalize_metrics(self, uniform_graph, frontier):
        engine = TraversalEngine(uniform_graph, AccessStrategy.MERGED_ALIGNED)
        engine.process_frontier(frontier)
        metrics = engine.finalize()
        assert metrics.seconds == pytest.approx(engine.breakdown.total())
        assert metrics.iterations == 1
        assert metrics.strategy is AccessStrategy.MERGED_ALIGNED
        assert metrics.dataset_bytes == uniform_graph.edge_list_bytes


class TestWeightedTraffic:
    def test_sssp_weight_traffic_uses_4_byte_elements(self, weighted_uniform_graph):
        frontier = np.arange(0, weighted_uniform_graph.num_vertices, 5)
        engine = TraversalEngine(
            weighted_uniform_graph, AccessStrategy.MERGED_ALIGNED, needs_weights=True
        )
        engine.process_frontier(frontier)
        edges = int(
            (
                weighted_uniform_graph.offsets[frontier + 1]
                - weighted_uniform_graph.offsets[frontier]
            ).sum()
        )
        assert engine.traffic.useful_bytes == edges * (
            weighted_uniform_graph.element_bytes + 4
        )

    def test_uvm_weight_region_shares_page_cache(self, weighted_uniform_graph):
        engine = TraversalEngine(
            weighted_uniform_graph, AccessStrategy.UVM, needs_weights=True
        )
        assert engine.weight_uvm is not None
        total_capacity = engine.device.page_cache_capacity(
            default_system().uvm.page_bytes
        )
        assert (
            engine.edge_uvm.capacity_pages + engine.weight_uvm.capacity_pages
            <= total_capacity
        )


def _without_backend(metrics):
    """``metrics`` minus the relax backend's name, the one field a native
    and a numpy run are meant to differ in."""
    return replace(metrics, counters=replace(metrics.counters, relax_backend=None))


@pytest.mark.skipif(not _native.available(), reason="native kernels unavailable")
class TestNativeUVMReplay:
    """A UVM run replays its page residency natively when its sweep runs
    native, and its metrics are exactly those of the numpy replay: BFS/SSSP
    words and CC/PageRank passes alike."""

    @pytest.fixture(params=[0, 6, None], ids=["no-cache", "thrashing", "roomy"])
    def system(self, request, weighted_uniform_graph):
        system = default_system()
        if request.param is None:
            return system
        # Device memory for the resident structures plus a few pages.
        engine = TraversalEngine(
            weighted_uniform_graph, AccessStrategy.UVM, system=system, needs_weights=True
        )
        page_bytes = system.uvm.page_bytes
        return system.with_gpu_memory(
            engine.device.allocated_bytes + request.param * page_bytes
        )

    @pytest.fixture
    def replays(self, monkeypatch):
        calls = []
        replay = _native.uvm_replay

        def counted(*args):
            calls.append(args[0].size)
            return replay(*args)

        monkeypatch.setattr(_native, "uvm_replay", counted)
        return calls

    def _run_both(self, run, replays):
        native = run("native")
        assert replays, "the native run never replayed natively"
        replays.clear()
        numpy = run("scatter")
        assert not replays
        return native, numpy

    @pytest.mark.parametrize("runner", [run_bfs, run_sssp], ids=["bfs", "sssp"])
    def test_solo_runs(self, runner, weighted_uniform_graph, system, replays):
        native, numpy = self._run_both(
            lambda method: runner(
                weighted_uniform_graph, 3, AccessStrategy.UVM, system, relax_method=method
            ),
            replays,
        )
        assert np.array_equal(native.values, numpy.values)
        assert native.metrics.traffic.uvm_migrations > 0
        assert _without_backend(native.metrics) == _without_backend(numpy.metrics)

    @pytest.mark.parametrize("application", ["bfs", "sssp"])
    def test_batches(self, application, weighted_uniform_graph, system, replays):
        native, numpy = self._run_both(
            lambda method: run_batch(
                application, weighted_uniform_graph, [0, 3, 7, 11],
                strategy=AccessStrategy.UVM, system=system, relax_method=method,
            ),
            replays,
        )
        runner = run_bfs if application == "bfs" else run_sssp
        for ours, theirs in zip(native.results, numpy.results):
            assert np.array_equal(ours.values, theirs.values)
            assert _without_backend(ours.metrics) == _without_backend(theirs.metrics)
            # Each lane's replay is its solo run's, whatever rode the word.
            solo = runner(weighted_uniform_graph, ours.source, AccessStrategy.UVM, system)
            assert ours.metrics == solo.metrics

    @pytest.mark.parametrize("application", ["cc", "pagerank"])
    def test_streaming_passes(self, application, weighted_uniform_graph, system, replays):
        lanes = [(AccessStrategy.UVM, system)] * 2
        native, numpy = self._run_both(
            lambda method: run_streaming_batch(
                application, weighted_uniform_graph, lanes, relax_method=method
            ),
            replays,
        )
        runner = run_cc if application == "cc" else run_pagerank
        solo = runner(weighted_uniform_graph, AccessStrategy.UVM, system)
        for ours, theirs in zip(native.results, numpy.results):
            assert ours.values.tobytes() == theirs.values.tobytes() == solo.values.tobytes()
            assert ours.metrics == theirs.metrics == solo.metrics
            assert ours.metrics.traffic.uvm_migrations > 0


def _words(*masks):
    return np.array(masks, dtype=np.uint64)


class TestWordTrace:
    """The flat sweep record that is also a native word's frontier buffer:
    sweeps closed by ``record`` or ``advance``, a pending frontier kept out
    of ``flat()``, and growth that keeps every written entry."""

    def test_a_new_trace_is_empty(self):
        trace = WordTrace(3, 10)
        assert trace.vertices.size == trace.masks.size == (
            engine_module._TRACE_ENTRIES_PER_VERTEX * 10
        )
        assert (trace.sweeps, trace.start, trace.size, trace.pending) == (0, 0, 0, 0)
        vertices, masks, bounds = trace.flat()
        assert vertices.size == masks.size == 0
        assert bounds.tolist() == [0]
        assert trace.frontiers == [] and trace.lane_frontiers(0) == []

    def test_record_closes_one_sweep_per_call(self):
        trace = WordTrace(2, 8)
        trace.record(np.array([0]), _words(0b11))
        trace.record(np.array([1, 4, 5]), _words(0b01, 0b10, 0b11))
        trace.record(np.array([], dtype=np.int64), _words())
        assert trace.sweeps == 3 and trace.pending == 0
        assert [f.tolist() for f in trace.frontiers] == [[0], [1, 4, 5], []]
        assert [b.tolist() for b in trace.active_bits] == [[3], [1, 2, 3], []]
        assert trace.bounds.tolist() == [0, 1, 4, 4]

    def test_record_copies_the_callers_buffers(self):
        trace = WordTrace(1, 4)
        frontier, bits = np.array([2, 3]), _words(1, 1)
        trace.record(frontier, bits)
        frontier[:] = 0
        bits[:] = 0
        assert trace.frontiers[0].tolist() == [2, 3]
        assert trace.active_bits[0].tolist() == [1, 1]

    def test_flat_returns_views(self):
        trace = WordTrace(1, 4)
        trace.record(np.array([0, 1]), _words(1, 1))
        vertices, masks, bounds = trace.flat()
        assert np.shares_memory(vertices, trace.vertices)
        assert np.shares_memory(masks, trace.masks)
        assert np.shares_memory(bounds, trace.bounds)

    def test_flat_leaves_the_pending_frontier_out(self):
        trace = WordTrace(1, 4)
        trace.record(np.array([0]), _words(1))
        trace.append(np.array([1, 2]), _words(1, 1))
        assert (trace.start, trace.size, trace.pending) == (1, 3, 2)
        vertices, masks, bounds = trace.flat()
        assert vertices.tolist() == [0] and masks.tolist() == [1]
        assert bounds.tolist() == [0, 1]

    def test_advance_makes_the_appended_entries_pending(self):
        # What a native sweep does: write the next frontier after the
        # pending one, then close the pending one as a sweep.
        trace = WordTrace(1, 4)
        trace.append(np.array([0]), _words(1))
        trace.reserve(4)
        trace.vertices[1:3] = [2, 3]
        trace.masks[1:3] = 1
        trace.advance(2)
        assert (trace.sweeps, trace.start, trace.size, trace.pending) == (1, 1, 3, 2)
        assert trace.bounds.tolist() == [0, 1]
        trace.advance()
        assert trace.frontiers[1].tolist() == [2, 3] and trace.pending == 0

    def test_reserve_with_room_keeps_the_arrays(self):
        trace = WordTrace(1, 4)
        vertices, masks = trace.vertices, trace.masks
        trace.reserve(vertices.size)
        assert trace.vertices is vertices and trace.masks is masks

    @pytest.mark.parametrize(
        "capacity, written, free, grown",
        ((0, 0, 1, 1), (0, 0, 5, 5), (4, 3, 2, 8), (4, 4, 9, 13), (8, 2, 7, 16)),
    )
    def test_reserve_grows_at_least_double_and_keeps_the_entries(
        self, capacity, written, free, grown
    ):
        trace = WordTrace(1, 0)
        trace.reserve(capacity)
        assert trace.vertices.size == capacity
        trace.append(np.arange(written), _words(*range(1, written + 1)))
        trace.reserve(free)
        assert trace.vertices.size == trace.masks.size == grown
        assert trace.vertices.size - trace.size >= free
        assert trace.vertices[:written].tolist() == list(range(written))
        assert trace.masks[:written].tolist() == list(range(1, written + 1))

    def test_bounds_grow_past_the_initial_sweeps(self):
        trace = WordTrace(1, 1)
        sweeps = 3 * engine_module._TRACE_SWEEPS + 1
        for vertex in range(sweeps):
            trace.record(np.array([vertex % 2] * (vertex % 3)), _words(*[1] * (vertex % 3)))
        assert trace.sweeps == sweeps
        assert trace.bounds.tolist() == [0] + np.cumsum(
            [vertex % 3 for vertex in range(sweeps)]
        ).tolist()

    @pytest.mark.parametrize("lane, expected", ((0, [[0], [1, 5]]), (1, [[0], [4, 5]]), (2, [])))
    def test_lane_frontiers_skip_the_sweeps_a_lane_is_idle_in(self, lane, expected):
        trace = WordTrace(3, 8)
        trace.record(np.array([0]), _words(0b011))
        trace.record(np.array([1, 4, 5]), _words(0b001, 0b010, 0b011))
        assert [f.tolist() for f in trace.lane_frontiers(lane)] == expected

    @given(
        sweeps=st.lists(
            st.tuples(
                st.booleans(),
                st.lists(st.tuples(st.integers(0, 9), st.integers(1, 7)), max_size=12),
            ),
            max_size=40,
        ),
        capacity=st.sampled_from((0, 1, 2)),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_a_list_of_sweeps(self, sweeps, capacity):
        # Whole sweeps recorded, or appended as a pending frontier and
        # closed by the next advance, from a trace of small or no capacity.
        with mock.patch.object(engine_module, "_TRACE_ENTRIES_PER_VERTEX", capacity):
            trace = WordTrace(3, 10)
        model = []
        for whole, entries in sweeps:
            frontier = np.array([vertex for vertex, _ in entries], dtype=np.int64)
            bits = _words(*[mask for _, mask in entries])
            if whole:
                trace.record(frontier, bits)
            else:
                trace.append(frontier, bits)
                assert trace.pending == len(entries)
                trace.advance()
            model.append(entries)
        assert trace.sweeps == len(model) and trace.pending == 0
        assert [f.tolist() for f in trace.frontiers] == [[v for v, _ in s] for s in model]
        assert [b.tolist() for b in trace.active_bits] == [[m for _, m in s] for s in model]
        vertices, masks, bounds = trace.flat()
        assert vertices.tolist() == [v for s in model for v, _ in s]
        assert masks.tolist() == [m for s in model for _, m in s]
        assert bounds.tolist() == [0] + np.cumsum([len(s) for s in model], dtype=int).tolist()
        for lane in range(3):
            lane_model = [[v for v, m in s if m >> lane & 1] for s in model]
            assert [f.tolist() for f in trace.lane_frontiers(lane)] == [
                f for f in lane_model if f
            ]
