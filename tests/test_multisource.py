"""Tests for batched multi-source traversal: bit-exact equivalence and
attribution invariants."""

import hashlib
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ampere_pcie4
from repro.errors import ConfigurationError, SimulationError
from repro.graph.builder import from_edge_array
from repro.timing import TimeBreakdown
from repro.traversal import _native, multisource
from repro.traversal.api import run_average
from repro.traversal.arena import EngineArena
from repro.traversal.bfs import bfs_levels, run_bfs
from repro.traversal.cc import run_cc
from repro.traversal.engine import TraversalEngine
from repro.traversal.multisource import (
    WORD_BITS,
    PackedLane,
    _Attribution,
    _lane_metrics,
    run_batch,
    run_bfs_batch,
    run_packed_batch,
    run_sssp_batch,
)
from repro.traversal.pagerank import run_pagerank
from repro.traversal.sssp import run_sssp, sssp_distances
from repro.types import AccessStrategy, Application

from .conftest import metrics_fields

ALL_STRATEGIES = tuple(AccessStrategy)


@pytest.fixture(scope="module")
def sources():
    return [0, 3, 17, 42, 99, 250, 499]


class TestBFSEquivalence:
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_levels_bit_equal_to_solo_runs(self, random_graph, sources, strategy):
        batch = run_bfs_batch(random_graph, sources, strategy=strategy)
        assert batch.num_sources == len(sources)
        for result in batch.results:
            solo = run_bfs(random_graph, result.source, strategy=strategy)
            assert np.array_equal(result.values, solo.values)
            assert result.values.dtype == solo.values.dtype
            assert result.metrics.iterations == solo.metrics.iterations

    def test_levels_match_reference(self, random_graph, sources):
        batch = run_bfs_batch(random_graph, sources)
        for result in batch.results:
            assert np.array_equal(result.values, bfs_levels(random_graph, result.source))

    def test_disconnected_sources(self, disconnected_graph):
        batch = run_bfs_batch(disconnected_graph, [0, 3, 5])
        assert np.array_equal(
            batch.results[2].values, bfs_levels(disconnected_graph, 5)
        )

    def test_duplicate_sources_allowed(self, random_graph):
        batch = run_bfs_batch(random_graph, [4, 4, 7])
        assert np.array_equal(batch.results[0].values, batch.results[1].values)

    def test_more_than_word_bits_sources_chunk(self, random_graph):
        sources = list(range(WORD_BITS + 6))
        batch = run_bfs_batch(random_graph, sources)
        assert batch.num_sources == len(sources)
        assert batch.num_batches == 2
        for result in (batch.results[0], batch.results[WORD_BITS + 5]):
            assert np.array_equal(
                result.values, bfs_levels(random_graph, result.source)
            )


class TestSSSPEquivalence:
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_distances_bit_equal_to_solo_runs(self, random_graph, sources, strategy):
        batch = run_sssp_batch(random_graph, sources, strategy=strategy)
        for result in batch.results:
            solo = run_sssp(random_graph, result.source, strategy=strategy)
            assert np.array_equal(result.values, solo.values)
            assert result.metrics.iterations == solo.metrics.iterations

    def test_distances_match_reference(self, random_graph, sources):
        batch = run_sssp_batch(random_graph, sources)
        for result in batch.results:
            assert np.array_equal(
                result.values, sssp_distances(random_graph, result.source)
            )

    def test_unweighted_graph_uses_unit_weights(self, path_graph):
        batch = run_sssp_batch(path_graph, [0, 5])
        assert np.array_equal(batch.results[0].values, sssp_distances(path_graph, 0))


class TestValidation:
    def test_empty_sources_rejected(self, random_graph):
        with pytest.raises(ConfigurationError):
            run_bfs_batch(random_graph, [])

    def test_out_of_range_source_rejected(self, random_graph):
        with pytest.raises(SimulationError):
            run_bfs_batch(random_graph, [0, random_graph.num_vertices])

    def test_cc_rejected(self, random_graph):
        with pytest.raises(ConfigurationError):
            run_batch(Application.CC, random_graph, [0])


class TestAttribution:
    def test_attributed_seconds_sum_to_batch_total(self, random_graph, sources):
        batch = run_bfs_batch(random_graph, sources)
        attributed = sum(result.metrics.seconds for result in batch.results)
        assert attributed == pytest.approx(batch.batch_seconds, rel=1e-9)

    def test_attributed_traffic_fractions_cover_batch(self, random_graph, sources):
        batch = run_bfs_batch(random_graph, sources)
        total_edges = sum(r.metrics.traffic.edges_processed for r in batch.results)
        batch_edges = sum(m.traffic.edges_processed for m in batch.batch_metrics)
        assert total_edges == pytest.approx(batch_edges, rel=0.01)

    def test_per_source_metrics_carry_run_metadata(self, random_graph):
        batch = run_sssp_batch(random_graph, [1, 2], strategy=AccessStrategy.UVM)
        for result in batch.results:
            assert result.metrics.strategy is AccessStrategy.UVM
            assert result.metrics.dataset_bytes > 0
            assert result.metrics.seconds > 0


class TestEngineReuseAcrossChunks:
    def test_caller_engine_is_reused(self, random_graph):
        engine = TraversalEngine(random_graph, AccessStrategy.MERGED_ALIGNED)
        sources = list(range(WORD_BITS + 2))
        batch = run_bfs_batch(random_graph, sources, engine=engine)
        assert batch.num_batches == 2
        # The second chunk ran on the same (reset) engine; its metrics are
        # the engine's current state.
        assert engine.iterations == batch.batch_metrics[-1].iterations


class TestRunAverageDispatch:
    def test_batched_values_equal_serial_values(self, random_graph, sources):
        batched = run_average(Application.BFS, random_graph, sources, batched=True)
        serial = run_average(Application.BFS, random_graph, sources, batched=False)
        assert batched.num_runs == serial.num_runs == len(sources)
        for a, b in zip(batched.runs, serial.runs):
            assert a.source == b.source
            assert np.array_equal(a.values, b.values)

    def test_single_source_stays_serial(self, random_graph):
        aggregate = run_average(Application.BFS, random_graph, [3], batched=True)
        assert aggregate.num_runs == 1
        assert np.array_equal(aggregate.runs[0].values, bfs_levels(random_graph, 3))

    def test_cc_unaffected_by_batching_flag(self, disconnected_graph):
        a = run_average(Application.CC, disconnected_graph, [0, 1], batched=True)
        b = run_average(Application.CC, disconnected_graph, [0, 1], batched=False)
        assert a.num_runs == b.num_runs == 1
        assert np.array_equal(a.runs[0].values, b.runs[0].values)

    def test_sssp_batched_dispatch(self, weighted_uniform_graph):
        batched = run_average(
            Application.SSSP, weighted_uniform_graph, [0, 9, 27], batched=True
        )
        for run_result in batched.runs:
            assert np.array_equal(
                run_result.values,
                sssp_distances(weighted_uniform_graph, run_result.source),
            )


class TestPackedCrossConfigEquivalence:
    """run_packed_batch: lanes spanning *different* configurations in one word.

    Frontier evolution is engine-independent, so every lane's values must be
    bit-identical to its solo run no matter which other configurations ride
    in the same word — the invariant the fusion planner's packed plans rely
    on.
    """

    def test_bfs_lanes_across_strategies_bit_equal_to_solo(self, random_graph):
        lanes = [
            PackedLane(source, strategy)
            for strategy in ALL_STRATEGIES
            for source in (0, 7, 123)
        ]
        packed = run_packed_batch(Application.BFS, random_graph, lanes)
        assert len(packed.results) == len(lanes)
        assert packed.words == 1
        for lane, result in zip(lanes, packed.results):
            solo = run_bfs(random_graph, lane.source, strategy=lane.strategy)
            assert np.array_equal(result.values, solo.values)
            assert result.values.dtype == solo.values.dtype
            assert result.metrics.strategy is lane.strategy

    def test_sssp_lanes_across_strategies_bit_equal_to_solo(
        self, weighted_uniform_graph
    ):
        lanes = [
            PackedLane(5, AccessStrategy.MERGED_ALIGNED),
            PackedLane(5, AccessStrategy.UVM),
            PackedLane(31, AccessStrategy.NAIVE),
        ]
        packed = run_packed_batch("sssp", weighted_uniform_graph, lanes)
        for lane, result in zip(lanes, packed.results):
            solo = run_sssp(weighted_uniform_graph, lane.source, strategy=lane.strategy)
            assert np.array_equal(result.values, solo.values)

    def test_packed_matches_homogeneous_run_batch(self, random_graph, sources):
        lanes = [PackedLane(source) for source in sources]
        packed = run_packed_batch(Application.BFS, random_graph, lanes)
        plain = run_bfs_batch(random_graph, sources)
        for a, b in zip(packed.results, plain.results):
            assert np.array_equal(a.values, b.values)

    def test_word_chunking_past_64_lanes(self, random_graph):
        lanes = [
            PackedLane(source % random_graph.num_vertices, strategy)
            for source in range(WORD_BITS + 6)
            for strategy in (AccessStrategy.MERGED_ALIGNED,)
        ]
        packed = run_packed_batch("bfs", random_graph, lanes)
        assert packed.words == 2
        for lane, result in zip(lanes, packed.results):
            assert np.array_equal(
                result.values, bfs_levels(random_graph, lane.source)
            )

    def test_one_engine_metrics_entry_per_distinct_config(self, random_graph):
        lanes = [
            PackedLane(0, AccessStrategy.MERGED_ALIGNED),
            PackedLane(1, AccessStrategy.MERGED_ALIGNED),
            PackedLane(2, AccessStrategy.UVM),
        ]
        packed = run_packed_batch("bfs", random_graph, lanes)
        assert len(packed.batch_metrics) == 2  # two configs, one word

    def test_out_of_range_packed_source_rejected(self, random_graph):
        with pytest.raises(SimulationError):
            run_packed_batch(
                "bfs", random_graph, [PackedLane(random_graph.num_vertices)]
            )

    def test_cc_rejected(self, random_graph):
        with pytest.raises(ConfigurationError):
            run_packed_batch(Application.CC, random_graph, [PackedLane(0)])


def _outcome_digest(outcome) -> str:
    parts = [
        (result.source, hashlib.sha256(result.values.tobytes()).hexdigest())
        + metrics_fields(result.metrics)
        for result in outcome.results
    ]
    parts += [metrics_fields(metrics) for metrics in outcome.batch_metrics]
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


THREE_CONFIGS = (
    AccessStrategy.MERGED_ALIGNED,
    AccessStrategy.UVM,
    AccessStrategy.NAIVE,
)


def _front_digests(graph, application, lanes) -> dict:
    """Digest of every front over one shape: ``{"one": {...}, "three": {...}}``.

    "one" runs a single configuration through ``run_batch`` (plain, ``arena=``
    and a dirtied caller ``engine=``) and ``run_packed_batch`` (plain,
    ``arena=``); "three" spreads the same sources round-robin over three
    strategies in ``run_packed_batch`` (plain, ``arena=``).
    """
    sources = [(index * 37) % graph.num_vertices for index in range(lanes)]
    strategy = AccessStrategy.MERGED_ALIGNED
    one = [PackedLane(source, strategy) for source in sources]
    three = [
        PackedLane(source, THREE_CONFIGS[index % 3])
        for index, source in enumerate(sources)
    ]
    engine = TraversalEngine(graph, strategy, needs_weights=application == "sssp")
    # Dirty the caller's engine first: its counters must not leak in.
    run_batch(application, graph, sources[:2], strategy=strategy, engine=engine)
    outcomes = {
        "one": {
            "run_batch": run_batch(application, graph, sources, strategy=strategy),
            "run_batch arena=": run_batch(
                application, graph, sources, strategy=strategy, arena=EngineArena()
            ),
            "run_batch engine=": run_batch(
                application, graph, sources, strategy=strategy, engine=engine
            ),
            "run_packed_batch": run_packed_batch(application, graph, one),
            "run_packed_batch arena=": run_packed_batch(
                application, graph, one, arena=EngineArena()
            ),
        },
        "three": {
            "run_packed_batch": run_packed_batch(application, graph, three),
            "run_packed_batch arena=": run_packed_batch(
                application, graph, three, arena=EngineArena()
            ),
        },
    }
    return {
        configs: {front: _outcome_digest(outcome) for front, outcome in fronts.items()}
        for configs, fronts in outcomes.items()
    }


#: Recorded at the commit before run_batch and run_packed_batch were merged
#: onto one word runner (where every front of a shape already agreed):
#: (graph fixture, application, lanes) -> {configs: digest}.
PINNED_DIGESTS = {
    ("random_graph", "bfs", 3): {"one": "4f486011cb81a4e8", "three": "e2d2abd2e479d7a0"},
    ("random_graph", "bfs", 64): {"one": "e93684e29d6fa173", "three": "384f97f782cb8694"},
    ("random_graph", "bfs", 70): {"one": "0a132bb4e6d9b212", "three": "5839d55d2bd2a922"},
    ("random_graph", "sssp", 3): {"one": "89dabff5cb17c794", "three": "f5df1b3009697750"},
    ("random_graph", "sssp", 64): {"one": "848fe034ac4164c5", "three": "e9cbd669c141ab0d"},
    ("random_graph", "sssp", 70): {"one": "1306d4f9ff36d76b", "three": "6c319733a4b287c2"},
    ("weighted_uniform_graph", "bfs", 3): {"one": "4d55f2feba294881", "three": "32dee48edee50f86"},
    ("weighted_uniform_graph", "bfs", 64): {"one": "db03e2db9971d1b6", "three": "5277476733f2d27c"},
    ("weighted_uniform_graph", "bfs", 70): {"one": "22d26b6e5bb12e8d", "three": "8319f6400b30498b"},
    ("weighted_uniform_graph", "sssp", 3): {"one": "f96b8f79fc48cfa7", "three": "920e1327de0f53c3"},
    ("weighted_uniform_graph", "sssp", 64): {"one": "42186151943802ec", "three": "b484acc0633b1131"},
    ("weighted_uniform_graph", "sssp", 70): {"one": "25c76c0f8c65f0cd", "three": "e284beb9b9a5393f"},
}


class TestPinnedAttributedMetrics:
    """Attributed metrics are guarded across commits, not only against solo
    runs: every front must reproduce the pinned digest of its shape — each
    lane's values, attributed metrics and kernel counters plus the engines'
    batch metrics — bit for bit."""

    @pytest.mark.parametrize("lanes", (3, 64, 70))
    @pytest.mark.parametrize("application", ("bfs", "sssp"))
    @pytest.mark.parametrize("fixture", ("random_graph", "weighted_uniform_graph"))
    def test_every_front_matches_the_pinned_digest(
        self, request, fixture, application, lanes
    ):
        graph = request.getfixturevalue(fixture)
        pinned = PINNED_DIGESTS[(fixture, application, lanes)]
        for configs, fronts in _front_digests(graph, application, lanes).items():
            assert fronts == dict.fromkeys(fronts, pinned[configs]), configs


SOLO_RUNNERS = {
    "bfs": lambda graph, strategy, system: run_bfs(graph, 3, strategy, system),
    "sssp": lambda graph, strategy, system: run_sssp(graph, 3, strategy, system),
    "cc": lambda graph, strategy, system: run_cc(graph, strategy, system),
    "pagerank": lambda graph, strategy, system: run_pagerank(graph, strategy, system),
}


def _solo_platform(graph, platform):
    """``(graph, system)`` of a platform label: the default V100, or an A100
    over PCIe 4.0 with 16-lane warps reading 4-byte edge elements."""
    if platform == "default":
        return graph, None
    system = ampere_pcie4()
    system = replace(system, gpu=replace(system.gpu, warp_size=16))
    return graph.with_element_bytes(4), system


def _solo_digest(graph, application, platform) -> str:
    """Digest of one application's solo runs under all four strategies."""
    graph, system = _solo_platform(graph, platform)
    parts = []
    for strategy in ALL_STRATEGIES:
        result = SOLO_RUNNERS[application](graph, strategy, system)
        parts.append(
            (str(strategy), hashlib.sha256(result.values.tobytes()).hexdigest())
            + metrics_fields(result.metrics)
        )
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


#: Recorded at the commit before zero-copy traffic was priced from per-vertex
#: request tables: (graph fixture, platform, application) -> digest.
PINNED_SOLO_DIGESTS = {
    ("random_graph", "default", "bfs"): "ed6a52b8ba94fa48",
    ("random_graph", "default", "sssp"): "83198cdc5138e6cc",
    ("random_graph", "default", "cc"): "6d6eee111da9c552",
    ("random_graph", "default", "pagerank"): "feb1ac3c27b3b0b2",
    ("random_graph", "ampere-w16", "bfs"): "aae4c10abbf9d2aa",
    ("random_graph", "ampere-w16", "sssp"): "6899052f6e55bf3e",
    ("random_graph", "ampere-w16", "cc"): "1412969c8232587c",
    ("random_graph", "ampere-w16", "pagerank"): "e20141cb499c7479",
    ("weighted_uniform_graph", "default", "bfs"): "8061108832e7aeaf",
    ("weighted_uniform_graph", "default", "sssp"): "2722196be5620cb9",
    ("weighted_uniform_graph", "default", "cc"): "de14bd4204f36fda",
    ("weighted_uniform_graph", "default", "pagerank"): "5e52b90f706e83b6",
    ("weighted_uniform_graph", "ampere-w16", "bfs"): "1064b3601a0085f8",
    ("weighted_uniform_graph", "ampere-w16", "sssp"): "181ff7579b300189",
    ("weighted_uniform_graph", "ampere-w16", "cc"): "7f59e6197b3f19fc",
    ("weighted_uniform_graph", "ampere-w16", "pagerank"): "13efeac532f0f9cf",
}


class TestPinnedSoloMetrics:
    """Solo metrics are guarded across commits too: every strategy's values
    and every simulated number of its metrics, per application, graph and
    platform, bit for bit."""

    @pytest.mark.parametrize("application", tuple(SOLO_RUNNERS))
    @pytest.mark.parametrize("platform", ("default", "ampere-w16"))
    @pytest.mark.parametrize("fixture", ("random_graph", "weighted_uniform_graph"))
    def test_solo_runs_match_the_pinned_digest(
        self, request, fixture, platform, application
    ):
        graph = request.getfixturevalue(fixture)
        assert _solo_digest(graph, application, platform) == (
            PINNED_SOLO_DIGESTS[(fixture, platform, application)]
        )


# ---------------------------------------------------------------------- #
# Native vs numpy BFS word
# ---------------------------------------------------------------------- #
class _RecordingAttribution(_Attribution):
    """Logs every (engine, lane edge counts, active lanes) it is handed."""

    log: list = []

    def record(self, iteration, engine_index, lane_edges, active):
        self.log.append((engine_index, lane_edges.tolist(), active.tolist()))
        super().record(iteration, engine_index, lane_edges, active)


def _traced_bfs(graph, lanes, method):
    """``run_packed_batch`` on one BFS backend plus its per-iteration log."""
    _RecordingAttribution.log = []
    with mock.patch.object(multisource, "_Attribution", _RecordingAttribution):
        outcome = run_packed_batch("bfs", graph, lanes, relax_method=method)
    return outcome, _RecordingAttribution.log


@st.composite
def bfs_words(draw):
    """A random CSR graph with self-loops, multi-edges and isolated vertices,
    plus a word of lanes over mixed configurations."""
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
    sources, destinations = (np.array(side, dtype=np.int64) for side in zip(*pairs))
    graph = from_edge_array(
        sources, destinations, num_vertices=reachable + isolated,
        directed=draw(st.booleans()), name="hypothesis",
    )
    width = draw(st.sampled_from((1, 63, 64, 65, 70)))
    vertex = st.integers(0, graph.num_vertices - 1)
    picks = draw(st.lists(st.tuples(vertex, st.sampled_from(ALL_STRATEGIES)),
                          min_size=width, max_size=width))
    if width > 1:
        picks[-1] = (picks[0][0], picks[-1][1])  # the same source in two lanes
    return graph, [PackedLane(source, strategy) for source, strategy in picks]


@pytest.mark.skipif(not _native.available(), reason="native kernels unavailable")
class TestNativeBFSWord:
    """The C BFS word against the numpy sweep it replaces: the same levels,
    the same per-iteration lane edge counts and the same attributed metrics,
    bit for bit."""

    @given(word=bfs_words())
    @settings(max_examples=60, deadline=None)
    def test_native_matches_numpy(self, word):
        graph, lanes = word
        native, native_log = _traced_bfs(graph, lanes, "native")
        numpy, numpy_log = _traced_bfs(graph, lanes, "scatter")
        assert native_log == numpy_log
        assert _outcome_digest(native) == _outcome_digest(numpy)
        for lane, a, b in zip(lanes, native.results, numpy.results):
            assert np.array_equal(a.values, b.values)
            assert np.array_equal(a.values, bfs_levels(graph, lane.source))
            assert a.metrics.counters.relax_backend is None

    def test_none_takes_the_native_kernel(self, random_graph, monkeypatch):
        calls = []
        kernel = _native.bfs_word
        monkeypatch.setattr(
            _native, "bfs_word", lambda *args: calls.append(1) or kernel(*args)
        )
        run_bfs_batch(random_graph, [0, 3, 17])
        assert calls
        calls.clear()
        run_batch("bfs", random_graph, [0, 3, 17], relax_method="scatter")
        assert not calls


# ---------------------------------------------------------------------- #
# Attribution accumulator and lane assembly
# ---------------------------------------------------------------------- #
class TestAttributionMatrix:
    def test_accumulator_equals_summed_scaled_breakdowns(self, random_graph):
        """The (lanes, 6) matrix holds, bit for bit, what one TimeBreakdown
        per lane accumulated with ``add(iteration.scaled(share))``."""
        rng = np.random.default_rng(8)
        lanes = 9
        lane_engine = np.array([0, 1, 0, 0, 1, 1, 0, 1, 0])
        engines = [
            TraversalEngine(random_graph, AccessStrategy.MERGED_ALIGNED),
            TraversalEngine(random_graph, AccessStrategy.UVM),
        ]
        attribution = _Attribution(lanes, lane_engine)
        expected = [TimeBreakdown() for _ in range(lanes)]
        for sweep in range(12):
            frontier = np.unique(rng.integers(0, random_graph.num_vertices, 1 + sweep * 7))
            active = rng.random(lanes) < 0.7
            # Every third sweep owns no edges at all: the even split.
            lane_edges = np.where(active, rng.integers(0, 50, lanes), 0) * (sweep % 3 != 2)
            for index, engine in enumerate(engines):
                iteration = engine.process_frontier(frontier)
                attribution.record(iteration, index, lane_edges, active)
                owned = lane_engine == index
                owned_edges = np.where(owned, lane_edges, 0)
                total = float(owned_edges.sum())
                if total > 0:
                    shares = owned_edges / total
                else:
                    count = int(np.count_nonzero(active & owned))
                    shares = np.where(active & owned, 1.0 / max(count, 1), 0.0)
                for lane in range(lanes):
                    if shares[lane] > 0:
                        expected[lane].add(iteration.scaled(float(shares[lane])))
        for lane in range(lanes):
            assert attribution.seconds[lane].tolist() == list(expected[lane].components())
            rebuilt = TimeBreakdown(*attribution.seconds[lane].tolist())
            assert rebuilt.total() == expected[lane].total()

    def test_extra_components_are_refused(self):
        attribution = _Attribution(2, np.zeros(2, dtype=np.int64))
        iteration = TimeBreakdown(compute_seconds=1.0, extra={"sync": 0.5})
        with pytest.raises(SimulationError, match="extra"):
            attribution.record(
                iteration, 0, np.array([1, 1]), np.array([True, True])
            )

    def test_lane_counters_round_half_to_even_like_round(self, random_graph):
        """``np.rint`` over the lane matrix is ``int(round(count * fraction))``
        per counter, ties included (odd counts at fractions 0.5 / 0.25)."""
        engine = TraversalEngine(random_graph, AccessStrategy.UVM)
        for frontier in ([0, 1, 2], [5], [7, 11, 13, 17, 19]):
            engine.process_frontier(np.array(frontier))
        batch = engine.finalize()
        attribution = _Attribution(4, np.zeros(4, dtype=np.int64))
        attribution.attributed_edges[:] = [1.0, 1.0, 2.0, 0.0]
        lanes = [PackedLane(0, AccessStrategy.UVM)] * 4
        metrics = _lane_metrics(lanes, [engine], [batch], attribution)
        row = batch.traffic.counter_row()
        counters = batch.counters
        for fraction, lane in zip((0.25, 0.25, 0.5, 0.0), metrics):
            assert lane.traffic.counter_row() == tuple(
                int(round(count * fraction)) for count in row
            )
            assert lane.counters.edges_traversed == int(
                round(counters.edges_traversed * fraction)
            )
            assert lane.counters.frontier_vertices == int(
                round(counters.frontier_vertices * fraction)
            )
        assert any(count % 2 for count in row), "no odd count: no tie exercised"
