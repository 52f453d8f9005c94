"""Tests for the Subway-style baseline (subgraph compaction + explicit copy)."""

import hashlib

import numpy as np
import pytest

from repro.baselines.subway import SUBWAY_LABEL, SubwayEngine, run_subway
from repro.errors import ConfigurationError
from repro.traversal.bfs import bfs_levels
from repro.traversal.cc import cc_labels
from repro.traversal.sssp import sssp_distances
from repro.types import Application


class TestSubwayCorrectness:
    def test_bfs_levels_match_reference(self, random_graph):
        result = run_subway(Application.BFS, random_graph, source=2)
        assert np.array_equal(result.values, bfs_levels(random_graph, 2))
        assert result.strategy == SUBWAY_LABEL

    def test_sssp_distances_match_reference(self, random_graph):
        result = run_subway(Application.SSSP, random_graph, source=2)
        assert np.allclose(result.values, sssp_distances(random_graph, 2), equal_nan=True)

    def test_cc_labels_match_reference(self, disconnected_graph):
        result = run_subway(Application.CC, disconnected_graph)
        assert np.array_equal(result.values, cc_labels(disconnected_graph))

    def test_source_required_for_bfs(self, random_graph):
        with pytest.raises(ConfigurationError):
            run_subway(Application.BFS, random_graph)


class TestSubwayCostModel:
    def test_traffic_is_block_transfers_only(self, random_graph):
        result = run_subway(Application.BFS, random_graph, source=2)
        traffic = result.metrics.traffic
        assert traffic.block_transfer_bytes > 0
        assert traffic.request_histogram.total_requests == 0
        assert traffic.uvm_migrated_bytes == 0

    def test_transfers_cover_active_edges(self, random_graph):
        result = run_subway(Application.BFS, random_graph, source=2)
        traffic = result.metrics.traffic
        assert traffic.block_transfer_bytes >= (
            traffic.edges_processed * random_graph.element_bytes
        )

    def test_sync_slower_than_async(self, random_graph):
        asynchronous = run_subway(Application.BFS, random_graph, source=2, asynchronous=True)
        synchronous = run_subway(Application.BFS, random_graph, source=2, asynchronous=False)
        assert synchronous.seconds >= asynchronous.seconds

    def test_engine_counts_iterations(self, random_graph):
        engine = SubwayEngine(random_graph)
        engine.process_frontier(np.array([0, 1, 2]))
        engine.process_frontier(np.array([], dtype=np.int64))
        assert engine.iterations == 2
        metrics = engine.finalize()
        assert metrics.iterations == 2
        assert metrics.strategy == SUBWAY_LABEL

    def test_weights_increase_transfer_for_sssp(self, random_graph):
        bfs_run = run_subway(Application.BFS, random_graph, source=2)
        sssp_run = run_subway(Application.SSSP, random_graph, source=2)
        assert (
            sssp_run.metrics.traffic.block_transfer_bytes
            > bfs_run.metrics.traffic.block_transfer_bytes
        )

    def test_empty_frontier_is_free(self, random_graph):
        engine = SubwayEngine(random_graph)
        breakdown = engine.process_frontier(np.array([], dtype=np.int64))
        assert breakdown.total() == 0.0


class TestSubwayVersusEmogi:
    def test_emogi_wins_on_out_of_memory_bfs(self):
        """The Table 3 headline: EMOGI outperforms Subway on BFS."""
        from repro.graph.datasets import load_dataset, pick_sources
        from repro.traversal.api import bfs
        from repro.types import AccessStrategy

        graph = load_dataset("GK", element_bytes=4, scale=20000, use_cache=False)
        source = int(pick_sources(graph, 1, seed=9)[0])
        subway = run_subway(Application.BFS, graph, source=source)
        emogi = bfs(graph, source, strategy=AccessStrategy.MERGED_ALIGNED)
        assert emogi.seconds < subway.seconds


def _subway_digest(result) -> str:
    """Values and every simulated number of one Subway run, floats bit-exact."""
    metrics = result.metrics
    breakdown = metrics.breakdown
    parts = (
        hashlib.sha256(result.values.tobytes()).hexdigest(),
        float(metrics.seconds).hex(),
        metrics.iterations,
        metrics.dataset_bytes,
        tuple(float(value).hex() for value in breakdown.components()),
        tuple(sorted((key, float(value).hex()) for key, value in breakdown.extra.items())),
        tuple(metrics.traffic.counter_row()),
        metrics.counters,
    )
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


#: Recorded while solo BFS/SSSP still swept in their own numpy loops, before
#: they became one-lane words of the batched kernels: (graph, application) ->
#: digest of a source-2 run.
PINNED_SUBWAY_DIGESTS = {
    ("random_graph", "bfs"): "6ad732fd62025a62",
    ("random_graph", "sssp"): "41da8a06d9d29ae7",
    ("uniform_graph", "bfs"): "747978879b2404df",
    ("uniform_graph", "sssp"): "31ec6fa83f22bc08",
}


class TestSubwaySoloMetricsArePinned:
    """Subway drives the solo run_bfs / run_sssp loops with its own engine,
    whose iterations carry an ``extra`` time component: the one-lane word
    kernels must leave its values and metrics exactly as they were."""

    @pytest.mark.parametrize("key", sorted(PINNED_SUBWAY_DIGESTS))
    def test_matches_the_pinned_digest(self, request, key):
        fixture, application = key
        graph = request.getfixturevalue(fixture)
        result = run_subway(application, graph, source=2)
        assert _subway_digest(result) == PINNED_SUBWAY_DIGESTS[key]
