"""Tests for batched streaming traversals (CC / PageRank across platform lanes).

The streaming batch shares ONE algorithm pass across any number of
(strategy, system) lanes; each lane's values AND simulated metrics must be
identical to its solo run — the streaming analog of the multisource module's
bit-identity guarantee.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ServiceConfig, ampere_pcie4, default_system
from repro.errors import ConfigurationError
from repro.graph.builder import from_edge_array
from repro.service import GraphRegistry, Service, TraversalRequest
from repro.traversal import _native
from repro.traversal.api import run_average, run_streaming
from repro.traversal.arena import EngineArena
from repro.traversal.cc import cc_labels, cc_sweep, run_cc
from repro.traversal.pagerank import pagerank_scores, pagerank_sweep, run_pagerank
from repro.traversal.streaming import (
    StreamingLane,
    normalize_lanes,
    run_streaming_batch,
)
from repro.types import AccessStrategy, Application

from .conftest import metrics_fields

ALL_STRATEGIES = tuple(AccessStrategy)


class TestCCStreamingEquivalence:
    def test_values_and_metrics_identical_to_solo(self, random_graph):
        lanes = [
            StreamingLane(strategy, system)
            for system in (None, ampere_pcie4())
            for strategy in ALL_STRATEGIES
        ]
        batch = run_streaming_batch("cc", random_graph, lanes)
        assert batch.num_lanes == len(lanes)
        assert batch.words == 1
        for lane, result in zip(lanes, batch.results):
            solo = run_cc(random_graph, strategy=lane.strategy, system=lane.system)
            assert np.array_equal(result.values, solo.values)
            assert result.metrics.seconds == solo.metrics.seconds
            assert result.metrics.iterations == solo.metrics.iterations
            assert (
                result.metrics.traffic.useful_bytes
                == solo.metrics.traffic.useful_bytes
            )

    def test_application_enum_accepted(self, disconnected_graph):
        batch = run_streaming_batch(
            Application.CC, disconnected_graph, [AccessStrategy.UVM]
        )
        solo = run_cc(disconnected_graph, strategy=AccessStrategy.UVM)
        assert np.array_equal(batch.results[0].values, solo.values)

    def test_lane_values_are_independent_copies(self, disconnected_graph):
        batch = run_streaming_batch(
            "cc", disconnected_graph, [AccessStrategy.UVM, AccessStrategy.MERGED]
        )
        batch.results[0].values[0] = -1
        assert batch.results[1].values[0] != -1


class TestPageRankStreamingEquivalence:
    def test_scores_and_metrics_identical_to_solo(self, random_graph):
        lanes = [(s, None) for s in ALL_STRATEGIES]
        batch = run_streaming_batch("pagerank", random_graph, lanes)
        for lane, result in zip(normalize_lanes(lanes), batch.results):
            solo = run_pagerank(random_graph, strategy=lane.strategy)
            assert np.array_equal(result.values, solo.values)
            assert result.iterations == solo.iterations
            assert result.converged == solo.converged
            assert result.metrics.seconds == solo.metrics.seconds

    def test_pagerank_kwargs_forwarded(self, random_graph):
        batch = run_streaming_batch(
            "pagerank", random_graph, [AccessStrategy.UVM], max_iterations=2
        )
        assert batch.results[0].iterations <= 2

    def test_batch_level_params_reach_every_lane(self, random_graph):
        # The batch's damping/tolerance/max_iterations apply to every lane,
        # and all lanes share one sweep.
        params = dict(damping=0.6, tolerance=1e-3, max_iterations=7)
        batch = run_streaming_batch("pagerank", random_graph, ALL_STRATEGIES, **params)
        assert batch.words == 1
        for strategy, result in zip(ALL_STRATEGIES, batch.results, strict=True):
            solo = run_pagerank(random_graph, strategy=strategy, **params)
            assert np.array_equal(result.values, solo.values)
            assert result.iterations == solo.iterations
            assert result.converged == solo.converged
            assert result.metrics == solo.metrics


class TestLaneNormalization:
    def test_accepts_mixed_forms(self):
        lanes = normalize_lanes(
            [
                "uvm",
                AccessStrategy.MERGED,
                (AccessStrategy.MERGED_ALIGNED, default_system()),
                StreamingLane(AccessStrategy.NAIVE),
            ]
        )
        assert [lane.strategy for lane in lanes] == [
            AccessStrategy.UVM,
            AccessStrategy.MERGED,
            AccessStrategy.MERGED_ALIGNED,
            AccessStrategy.NAIVE,
        ]

    def test_empty_lanes_rejected(self):
        with pytest.raises(ConfigurationError):
            normalize_lanes([])

    def test_garbage_lane_rejected(self):
        with pytest.raises(ConfigurationError):
            normalize_lanes([object()])

    def test_unknown_application_rejected(self, disconnected_graph):
        with pytest.raises(ConfigurationError):
            run_streaming_batch("bfs", disconnected_graph, ["uvm"])


class TestWordChunking:
    def test_more_than_64_lanes_split_into_words(self, disconnected_graph):
        lanes = [AccessStrategy.UVM] * 70
        batch = run_streaming_batch("cc", disconnected_graph, lanes)
        assert batch.num_lanes == 70
        assert batch.words == 2


class TestArenaIntegration:
    def test_engines_leased_and_returned(self, random_graph):
        arena = EngineArena(max_idle=8)
        run_streaming_batch(
            "cc", random_graph, [AccessStrategy.UVM, AccessStrategy.MERGED],
            arena=arena,
        )
        assert arena.created == 2
        assert arena.idle_count == 2
        # A second batch over the same lanes reuses the parked engines.
        batch = run_streaming_batch(
            "cc", random_graph, [AccessStrategy.UVM, AccessStrategy.MERGED],
            arena=arena,
        )
        assert arena.reused == 2
        solo = run_cc(random_graph, strategy=AccessStrategy.UVM)
        assert np.array_equal(batch.results[0].values, solo.values)
        assert batch.results[0].metrics.seconds == solo.metrics.seconds


class TestApiDispatch:
    def test_run_streaming_wrapper(self, random_graph):
        outcome = run_streaming("cc", random_graph, ["uvm", "merged"])
        assert outcome.num_lanes == 2

    def test_run_average_cc_matches_solo(self, disconnected_graph):
        batched = run_average(Application.CC, disconnected_graph, [0])
        solo = run_cc(disconnected_graph)
        assert batched.num_runs == 1
        assert np.array_equal(batched.runs[0].values, solo.values)
        assert batched.runs[0].metrics == solo.metrics


class TestServiceStreamingFusion:
    def test_cc_groups_fused_across_strategies(self, random_graph):
        registry = GraphRegistry()
        registry.register_graph(random_graph)
        # One worker: the CC jobs across strategies pile up as separate batch
        # groups, and the first drain fuses them into one streaming run.
        config = ServiceConfig(max_workers=1)
        with Service(registry=registry, config=config) as service:
            jobs = [
                service.submit(
                    TraversalRequest("cc", random_graph.name, strategy=strategy)
                )
                for strategy in ALL_STRATEGIES
            ]
            results = [service.result(job, timeout=30) for job in jobs]
        for strategy, result in zip(ALL_STRATEGIES, results):
            solo = run_cc(random_graph, strategy=strategy)
            assert np.array_equal(result.values, solo.values)
            assert result.metrics.seconds == solo.metrics.seconds
        stats = service.stats()
        assert stats.completed == len(ALL_STRATEGIES)
        assert stats.executions == len(ALL_STRATEGIES)

    def test_fused_results_cached_per_configuration(self, random_graph):
        registry = GraphRegistry()
        registry.register_graph(random_graph)
        with Service(registry=registry, config=ServiceConfig(max_workers=1)) as service:
            first = [
                service.submit(
                    TraversalRequest("cc", random_graph.name, strategy=strategy)
                )
                for strategy in ("uvm", "merged")
            ]
            for job in first:
                service.result(job, timeout=30)
            again = service.submit(
                TraversalRequest("cc", random_graph.name, strategy="uvm")
            )
            service.result(again, timeout=30)
        stats = service.stats()
        assert stats.cache.hits >= 1
        assert stats.executions == 2


# ---------------------------------------------------------------------- #
# Native streaming kernels against the numpy sweeps they replace
# ---------------------------------------------------------------------- #
@st.composite
def streaming_graphs(draw):
    """A random CSR graph with isolated and dangling (out-degree 0) vertices,
    self-loops and multi-edges, directed or undirected."""
    reachable = draw(st.integers(1, 40))
    isolated = draw(st.integers(0, 5))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, reachable - 1), st.integers(0, reachable - 1)),
            max_size=160,
        )
    )
    # Multi-edges and self-loops, whatever else was drawn.
    pairs += pairs[: draw(st.integers(0, 8))]
    pairs += [(vertex, vertex) for vertex in range(0, reachable, 7)]
    directed = draw(st.booleans())
    if directed:
        # Vertices that keep their in-edges but lose every out-edge.
        sinks = draw(st.sets(st.integers(0, reachable - 1), max_size=5))
        pairs = [(src, dst) for src, dst in pairs if src not in sinks]
    return from_edge_array(
        np.array([src for src, _ in pairs], dtype=np.int64),
        np.array([dst for _, dst in pairs], dtype=np.int64),
        num_vertices=reachable + isolated,
        directed=directed,
        name="hypothesis",
    )


def _lane_fields(outcome):
    return [metrics_fields(result.metrics) for result in outcome.results]


@pytest.mark.skipif(not _native.available(), reason="native kernels unavailable")
class TestNativeStreamingKernels:
    """``repro_cc_sweep`` / ``repro_pagerank_step`` against the numpy sweeps:
    the same labels, scores, iteration counts and per-lane metrics, bit for
    bit."""

    @given(graph=streaming_graphs())
    @settings(max_examples=60, deadline=None)
    def test_cc_native_matches_numpy(self, graph):
        native_labels, native_iterations = cc_sweep(graph, relax_method="native")
        numpy_labels, numpy_iterations = cc_sweep(graph, relax_method="scatter")
        assert native_labels.tobytes() == numpy_labels.tobytes()
        assert native_iterations == numpy_iterations
        assert np.array_equal(native_labels, cc_labels(graph))
        native, numpy = (
            run_streaming_batch("cc", graph, ALL_STRATEGIES, relax_method=method)
            for method in ("native", "scatter")
        )
        assert _lane_fields(native) == _lane_fields(numpy)
        for a, b in zip(native.results, numpy.results):
            assert a.values.tobytes() == b.values.tobytes()

    @given(
        graph=streaming_graphs(),
        damping=st.floats(0.05, 0.95),
        tolerance=st.sampled_from((1e-12, 1e-9, 1e-6, 1e-3, 0.5)),
        max_iterations=st.integers(1, 60),
    )
    @settings(max_examples=60, deadline=None)
    def test_pagerank_native_matches_numpy(self, graph, damping, tolerance, max_iterations):
        params = dict(damping=damping, tolerance=tolerance, max_iterations=max_iterations)
        native = pagerank_sweep(graph, relax_method="native", **params)
        numpy = pagerank_sweep(graph, relax_method="scatter", **params)
        assert native[0].tobytes() == numpy[0].tobytes()
        assert native[1:] == numpy[1:]
        assert native[0].tobytes() == pagerank_scores(graph, **params).tobytes()
        batches = [
            run_streaming_batch(
                "pagerank", graph, ALL_STRATEGIES, relax_method=method, **params
            )
            for method in ("native", "scatter")
        ]
        assert _lane_fields(batches[0]) == _lane_fields(batches[1])
        for a, b in zip(*(batch.results for batch in batches)):
            assert a.values.tobytes() == b.values.tobytes()
            assert (a.iterations, a.converged) == (b.iterations, b.converged)

    @pytest.mark.parametrize("kernel", ("cc_sweep", "pagerank_step"))
    def test_none_takes_the_native_kernel(self, random_graph, monkeypatch, kernel):
        calls = []
        original = getattr(_native, kernel)
        monkeypatch.setattr(
            _native, kernel, lambda *args: calls.append(1) or original(*args)
        )
        application = "cc" if kernel == "cc_sweep" else "pagerank"
        run_streaming_batch(application, random_graph, ["merged_aligned"])
        assert calls
        calls.clear()
        run_streaming_batch(
            application, random_graph, ["merged_aligned"], relax_method="scatter"
        )
        assert not calls

    @pytest.mark.parametrize("kernel", ("cc_sweep", "pagerank_step"))
    def test_oracles_never_take_the_native_kernel(self, random_graph, monkeypatch, kernel):
        monkeypatch.setattr(_native, kernel, lambda *args: pytest.fail("native oracle"))
        cc_labels(random_graph)
        pagerank_scores(random_graph)


@pytest.mark.skipif(not _native.available(), reason="native kernels unavailable")
class TestStreamingKernelBuffers:
    """The wrappers refuse mismatched buffers instead of letting the C loops
    read or write past an array's end."""

    @staticmethod
    def _cc_buffers(graph):
        frontier = np.arange(graph.num_vertices, dtype=np.int64)
        return dict(
            frontier=frontier,
            starts=graph.offsets[:-1].copy(),
            ends=graph.offsets[1:].copy(),
            edges=graph.edges,
            labels=frontier.copy(),
            prev=np.empty_like(frontier),
            next_frontier=np.empty_like(frontier),
        )

    @pytest.mark.parametrize(
        "short", ("frontier", "starts", "ends", "labels", "prev", "next_frontier")
    )
    def test_cc_sweep_mismatch_raises(self, random_graph, short):
        buffers = self._cc_buffers(random_graph)
        assert _native.cc_sweep(**buffers) >= 0
        buffers = self._cc_buffers(random_graph)
        buffers[short] = buffers[short][:5]
        with pytest.raises(ValueError, match="cc_sweep buffers"):
            _native.cc_sweep(**buffers)

    @pytest.mark.parametrize(
        "name", ("frontier", "starts", "ends", "edges", "labels", "prev", "next_frontier")
    )
    def test_cc_sweep_wrong_dtype_or_stride_raises(self, random_graph, name):
        for bad in (
            lambda array: array.view(np.float64),
            lambda array: np.stack([array, array], axis=-1)[..., 0],
        ):
            buffers = self._cc_buffers(random_graph)
            buffers[name] = bad(buffers[name])
            with pytest.raises(ValueError, match="cc_sweep buffers must be C-contiguous"):
                _native.cc_sweep(**buffers)

    @staticmethod
    def _pagerank_buffers(graph):
        size = graph.num_vertices
        return dict(
            offsets=graph.offsets,
            edges=graph.edges,
            degrees=graph.degrees().astype(np.float64),
            scores=np.full(size, 1.0 / size),
            contribution=np.empty(size),
            new_scores=np.empty(size),
            base=0.15 / size,
            damping=0.85,
            dangling=0.0,
        )

    @pytest.mark.parametrize(
        "short", ("offsets", "degrees", "scores", "contribution", "new_scores")
    )
    def test_pagerank_step_mismatch_raises(self, random_graph, short):
        buffers = self._pagerank_buffers(random_graph)
        assert _native.pagerank_step(**buffers) == random_graph.num_edges
        buffers[short] = buffers[short][:5]
        with pytest.raises(ValueError, match="pagerank_step buffers"):
            _native.pagerank_step(**buffers)

    @pytest.mark.parametrize(
        "name", ("offsets", "edges", "degrees", "scores", "contribution", "new_scores")
    )
    def test_pagerank_step_wrong_dtype_or_stride_raises(self, random_graph, name):
        for bad in (
            lambda array: array.view(np.float64 if array.dtype == np.int64 else np.int64),
            lambda array: np.stack([array, array], axis=-1)[..., 0],
        ):
            buffers = self._pagerank_buffers(random_graph)
            buffers[name] = bad(buffers[name])
            with pytest.raises(
                ValueError, match="pagerank_step buffers must be C-contiguous"
            ):
                _native.pagerank_step(**buffers)
