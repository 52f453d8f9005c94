"""Tests for the traversal engine: memory placement and traffic invariants."""

import numpy as np
import pytest

from repro.config import default_system
from repro.errors import SimulationError
from repro.memsim.monitor import PCIeTrafficMonitor
from repro.memsim.zero_copy import ZeroCopyRegion
from repro.traversal.engine import TraversalEngine
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
