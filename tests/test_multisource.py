"""Tests for batched multi-source traversal: bit-exact equivalence and
attribution invariants."""

import hashlib

import numpy as np
import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.traversal.api import run_average
from repro.traversal.arena import EngineArena
from repro.traversal.bfs import bfs_levels, run_bfs
from repro.traversal.engine import TraversalEngine
from repro.traversal.multisource import (
    WORD_BITS,
    PackedLane,
    run_batch,
    run_bfs_batch,
    run_packed_batch,
    run_sssp_batch,
)
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
