"""Tests for batched multi-source traversal: every lane's values and
metrics are its solo run's, bit for bit."""

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
from repro.traversal import _native, multisource
from repro.traversal.api import run, run_average
from repro.traversal.arena import EngineArena
from repro.traversal.bfs import bfs_levels, run_bfs
from repro.traversal.cc import run_cc
from repro.traversal import engine as engine_module
from repro.traversal.engine import TraversalEngine, WordTrace
from repro.traversal.multisource import (
    WORD_BITS,
    PackedLane,
    run_batch,
    run_packed_batch,
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
        batch = run_batch("bfs", random_graph, sources, strategy=strategy)
        assert len(batch.results) == len(sources)
        for result in batch.results:
            solo = run_bfs(random_graph, result.source, strategy=strategy)
            assert np.array_equal(result.values, solo.values)
            assert result.values.dtype == solo.values.dtype
            assert result.metrics.iterations == solo.metrics.iterations

    def test_levels_match_reference(self, random_graph, sources):
        batch = run_batch("bfs", random_graph, sources)
        for result in batch.results:
            assert np.array_equal(result.values, bfs_levels(random_graph, result.source))

    def test_disconnected_sources(self, disconnected_graph):
        batch = run_batch("bfs", disconnected_graph, [0, 3, 5])
        assert np.array_equal(
            batch.results[2].values, bfs_levels(disconnected_graph, 5)
        )

    def test_duplicate_sources_allowed(self, random_graph):
        batch = run_batch("bfs", random_graph, [4, 4, 7])
        assert np.array_equal(batch.results[0].values, batch.results[1].values)

    def test_more_than_word_bits_sources_chunk(self, random_graph):
        sources = list(range(WORD_BITS + 6))
        batch = run_batch("bfs", random_graph, sources)
        assert len(batch.results) == len(sources)
        assert batch.words == 2
        for result in (batch.results[0], batch.results[WORD_BITS + 5]):
            assert np.array_equal(
                result.values, bfs_levels(random_graph, result.source)
            )


class TestSSSPEquivalence:
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_distances_bit_equal_to_solo_runs(self, random_graph, sources, strategy):
        batch = run_batch("sssp", random_graph, sources, strategy=strategy)
        for result in batch.results:
            solo = run_sssp(random_graph, result.source, strategy=strategy)
            assert np.array_equal(result.values, solo.values)
            assert result.metrics.iterations == solo.metrics.iterations

    def test_distances_match_reference(self, random_graph, sources):
        batch = run_batch("sssp", random_graph, sources)
        for result in batch.results:
            assert np.array_equal(
                result.values, sssp_distances(random_graph, result.source)
            )

    def test_unweighted_graph_uses_unit_weights(self, path_graph):
        batch = run_batch("sssp", path_graph, [0, 5])
        assert np.array_equal(batch.results[0].values, sssp_distances(path_graph, 0))


class TestValidation:
    def test_empty_sources_rejected(self, random_graph):
        with pytest.raises(ConfigurationError):
            run_batch("bfs", random_graph, [])

    def test_out_of_range_source_rejected(self, random_graph):
        with pytest.raises(SimulationError):
            run_batch("bfs", random_graph, [0, random_graph.num_vertices])

    def test_cc_rejected(self, random_graph):
        with pytest.raises(ConfigurationError):
            run_batch(Application.CC, random_graph, [0])


class TestLaneMetricsAreSolo:
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    @pytest.mark.parametrize("application", ("bfs", "sssp"))
    def test_every_lane_equals_its_solo_run(
        self, random_graph, sources, application, strategy
    ):
        batch = run_batch(application, random_graph, sources, strategy=strategy)
        for result in batch.results:
            solo = run(application, random_graph, result.source, strategy)
            assert result.metrics == solo.metrics

    def test_lane_metrics_do_not_depend_on_word_mates(self, random_graph):
        alone = run_batch("bfs", random_graph, [17]).results[0]
        crowded = run_batch("bfs", random_graph, [0, 17, 250, 499]).results[1]
        assert crowded.metrics == alone.metrics

    def test_per_source_metrics_carry_run_metadata(self, random_graph):
        batch = run_batch("sssp", random_graph, [1, 2], strategy=AccessStrategy.UVM)
        for result in batch.results:
            assert result.metrics.strategy is AccessStrategy.UVM
            assert result.metrics.dataset_bytes > 0
            assert result.metrics.seconds > 0


class TestEngineReuseAcrossChunks:
    def test_caller_engine_is_reused(self, random_graph):
        engine = TraversalEngine(random_graph, AccessStrategy.MERGED_ALIGNED)
        sources = list(range(WORD_BITS + 2))
        priced = []
        price_lanes = engine.price_lanes

        def recording(trace, indices, *args):
            priced.append(len(indices))
            return price_lanes(trace, indices, *args)

        with mock.patch.object(engine, "price_lanes", recording):
            batch = run_batch("bfs", random_graph, sources, engine=engine)
        assert batch.words == 2
        # Both chunks were priced by the caller's engine, with no reset
        # between them: the second word's lanes are still solo runs.
        assert priced == [WORD_BITS, 2]
        last = batch.results[-1]
        assert last.metrics == run_bfs(random_graph, last.source).metrics


class TestRunAverageDispatch:
    @pytest.mark.parametrize(
        "strategy", (AccessStrategy.MERGED_ALIGNED, AccessStrategy.UVM)
    )
    @pytest.mark.parametrize("application", (Application.BFS, Application.SSSP))
    def test_runs_equal_per_source_runs(
        self, random_graph, sources, application, strategy
    ):
        aggregate = run_average(application, random_graph, sources, strategy=strategy)
        assert aggregate.num_runs == len(sources)
        for result, source in zip(aggregate.runs, sources):
            solo = run(application, random_graph, source=source, strategy=strategy)
            assert result.source == source
            assert np.array_equal(result.values, solo.values)
            assert result.metrics == solo.metrics

    def test_single_source(self, random_graph):
        aggregate = run_average(Application.BFS, random_graph, [3])
        assert aggregate.num_runs == 1
        assert aggregate.runs[0].metrics == run_bfs(random_graph, 3).metrics
        assert np.array_equal(aggregate.runs[0].values, bfs_levels(random_graph, 3))

    def test_cc_runs_once(self, disconnected_graph):
        aggregate = run_average(Application.CC, disconnected_graph, [0, 1])
        solo = run(Application.CC, disconnected_graph)
        assert aggregate.num_runs == 1
        assert np.array_equal(aggregate.runs[0].values, solo.values)
        assert aggregate.runs[0].metrics == solo.metrics

    def test_sssp_values_match_reference(self, weighted_uniform_graph):
        aggregate = run_average(Application.SSSP, weighted_uniform_graph, [0, 9, 27])
        for run_result in aggregate.runs:
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
        plain = run_batch("bfs", random_graph, sources)
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

    def test_one_engine_prices_each_distinct_config(self, random_graph):
        lanes = [
            PackedLane(0, AccessStrategy.MERGED_ALIGNED),
            PackedLane(1, AccessStrategy.UVM),
            PackedLane(2, AccessStrategy.MERGED_ALIGNED),
        ]
        priced = []
        price_lanes = TraversalEngine.price_lanes

        def recording(engine, trace, indices, *args):
            priced.append((engine.strategy, list(indices)))
            return price_lanes(engine, trace, indices, *args)

        with mock.patch.object(TraversalEngine, "price_lanes", recording):
            packed = run_packed_batch("bfs", random_graph, lanes)
        # Two configs, one word: each engine prices its own lanes once.
        assert priced == [
            (AccessStrategy.MERGED_ALIGNED, [0, 2]),
            (AccessStrategy.UVM, [1]),
        ]
        for lane, result in zip(lanes, packed.results):
            solo = run_bfs(random_graph, lane.source, strategy=lane.strategy)
            assert result.metrics == solo.metrics

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


#: Recorded when every lane came to be priced alone from its word's trace
#: (every front of a shape agrees, native and numpy alike):
#: (graph fixture, application, lanes) -> {configs: digest}.
PINNED_DIGESTS = {
    ("random_graph", "bfs", 3): {"one": "e0f5a7b5140459fa", "three": "ad5d58a92aeb9ac3"},
    ("random_graph", "bfs", 64): {"one": "fb1f5a4d635f4b94", "three": "ed17c5a75885c838"},
    ("random_graph", "bfs", 70): {"one": "3cbf6d6a2c7b286c", "three": "25100b7f13d4e589"},
    ("random_graph", "sssp", 3): {"one": "b4c651cc98a25189", "three": "738b99d73ce7a2c9"},
    ("random_graph", "sssp", 64): {"one": "60d356cee8164ac1", "three": "d3840c57bde73c84"},
    ("random_graph", "sssp", 70): {"one": "aa80aabb5a1a97aa", "three": "b4f06fb8988d01ad"},
    ("weighted_uniform_graph", "bfs", 3): {"one": "6598cb6dfb1aa245", "three": "2d4655988308c5a0"},
    ("weighted_uniform_graph", "bfs", 64): {"one": "33d558d9114c7bc0", "three": "a734a3a525803a84"},
    ("weighted_uniform_graph", "bfs", 70): {"one": "6b157a59ebba1ca6", "three": "ac39a3bebc7d2634"},
    ("weighted_uniform_graph", "sssp", 3): {"one": "fc4f5467ae971700", "three": "7e4041086e04808b"},
    ("weighted_uniform_graph", "sssp", 64): {"one": "707822f6823d65b3", "three": "596a689cdbec3c99"},
    ("weighted_uniform_graph", "sssp", 70): {"one": "e49afb8c2717ac42", "three": "69fe4b5c5c33b694"},
}


class TestPinnedBatchMetrics:
    """Batched metrics are guarded across commits, not only against solo
    runs: every front must reproduce the pinned digest of its shape — each
    lane's values, metrics and kernel counters — bit for bit."""

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
    the same trace (every sweep's frontier and lane words) and the same
    metrics, bit for bit."""

    @given(word=bfs_words())
    @settings(max_examples=60, deadline=None)
    def test_native_matches_numpy(self, word):
        graph, lanes = word
        sources = [lane.source for lane in lanes[:WORD_BITS]]
        native_word = multisource._bfs_word(graph, sources, "native")
        numpy_word = multisource._bfs_word(graph, sources, "scatter")
        assert np.array_equal(native_word[0], numpy_word[0])
        for recorded in ("frontiers", "active_bits"):
            a, b = getattr(native_word[1], recorded), getattr(numpy_word[1], recorded)
            assert len(a) == len(b)
            assert all(x.dtype == y.dtype and np.array_equal(x, y) for x, y in zip(a, b))
        native = run_packed_batch("bfs", graph, lanes, relax_method="native")
        numpy = run_packed_batch("bfs", graph, lanes, relax_method="scatter")
        assert _outcome_digest(native) == _outcome_digest(numpy)
        for lane, a, b in zip(lanes, native.results, numpy.results):
            assert np.array_equal(a.values, b.values)
            assert np.array_equal(a.values, bfs_levels(graph, lane.source))
            assert a.metrics.counters.relax_backend is None

    def test_none_takes_the_native_kernel(self, random_graph, monkeypatch):
        calls = []
        kernel = _native.bfs_sweep
        monkeypatch.setattr(
            _native, "bfs_sweep", lambda *args: calls.append(1) or kernel(*args)
        )
        run_batch("bfs", random_graph, [0, 3, 17])
        assert calls
        calls.clear()
        run_batch("bfs", random_graph, [0, 3, 17], relax_method="scatter")
        assert not calls

    @staticmethod
    def _buffers(graph, lanes=3):
        size = graph.num_vertices
        levels = np.full((lanes, size), -1, dtype=np.int64)
        levels[:, :2] = 0
        trace = WordTrace(lanes, size)
        trace.append(np.arange(2), np.full(2, (1 << lanes) - 1, dtype=np.uint64))
        return dict(
            trace=trace,
            offsets=graph.offsets,
            edges=graph.edges,
            next_bits=np.zeros(size, dtype=np.uint64),
            visited_bits=np.full(size, (1 << lanes) - 1, dtype=np.uint64),
            levels=levels,
        )

    ARRAYS = ("offsets", "edges", "next_bits", "visited_bits", "levels")

    @pytest.mark.parametrize("name", ARRAYS)
    def test_wrong_dtype_or_stride_raises(self, random_graph, name):
        assert _native.bfs_sweep(**self._buffers(random_graph))(1) >= 0
        for bad in (
            lambda array: array.view(np.float64),
            lambda array: np.stack([array, array], axis=-1)[..., 0],
        ):
            buffers = self._buffers(random_graph)
            buffers[name] = bad(buffers[name])
            with pytest.raises(ValueError, match="bfs_sweep buffers must be C-contiguous"):
                _native.bfs_sweep(**buffers)

    @pytest.mark.parametrize("name", ("offsets", "edges", "next_bits", "visited_bits"))
    def test_short_buffer_raises(self, random_graph, name):
        buffers = self._buffers(random_graph)
        buffers[name] = buffers[name][:-2]
        with pytest.raises(ValueError, match="bfs_sweep buffers do not match"):
            _native.bfs_sweep(**buffers)

    def test_more_than_64_lanes_raises(self, random_graph):
        buffers = self._buffers(random_graph)
        buffers["levels"] = np.zeros((65, random_graph.num_vertices), dtype=np.int64)
        with pytest.raises(ValueError, match="bfs_sweep buffers do not match"):
            _native.bfs_sweep(**buffers)

    @pytest.mark.parametrize("entry", ("vertex", "lane", "negative"))
    def test_pending_frontier_outside_the_word_raises(self, random_graph, entry):
        buffers = self._buffers(random_graph)
        vertex, mask = {
            "vertex": (random_graph.num_vertices, 1), "lane": (0, 1 << 3), "negative": (-1, 1)
        }[entry]
        trace = WordTrace(3, random_graph.num_vertices)
        trace.append(np.array([vertex]), np.array([mask], dtype=np.uint64))
        buffers["trace"] = trace
        with pytest.raises(ValueError, match="bfs_sweep buffers do not match"):
            _native.bfs_sweep(**buffers)

    @pytest.mark.parametrize("end", ("first", "last"))
    def test_offsets_outside_the_edges_raise(self, random_graph, end):
        buffers = self._buffers(random_graph)
        offsets = buffers["offsets"].copy()
        if end == "first":
            offsets[0] = -1
        else:
            offsets[-1] = random_graph.edges.size + 1
        buffers["offsets"] = offsets
        with pytest.raises(ValueError, match="bfs_sweep buffers do not match"):
            _native.bfs_sweep(**buffers)

    @pytest.mark.parametrize("name", ("vertices", "masks"))
    @pytest.mark.parametrize("bad", ("dtype", "stride"))
    def test_trace_arrays_are_checked_again_when_replaced(self, random_graph, name, bad):
        # A grown trace's new arrays are checked before the kernel sees them.
        buffers = self._buffers(random_graph)
        trace = buffers["trace"]
        sweep = _native.bfs_sweep(**buffers)
        array = getattr(trace, name)
        if bad == "dtype":
            replaced = array.view(np.float64)
        else:
            replaced = np.stack([array, array], axis=-1)[..., 0]
        setattr(trace, name, replaced)
        with pytest.raises(ValueError, match="bfs_sweep buffers must be C-contiguous"):
            sweep(1)

    def test_trace_arrays_that_differ_in_length_raise(self, random_graph):
        buffers = self._buffers(random_graph)
        trace = buffers["trace"]
        sweep = _native.bfs_sweep(**buffers)
        trace.masks = np.zeros(trace.vertices.size + 1, dtype=np.uint64)
        with pytest.raises(ValueError, match="bfs_sweep trace arrays differ in length"):
            sweep(1)

    def test_an_empty_pending_frontier_sweeps_nothing(self, random_graph):
        buffers = self._buffers(random_graph)
        buffers["trace"] = trace = WordTrace(3, random_graph.num_vertices)
        levels = buffers["levels"].copy()
        assert _native.bfs_sweep(**buffers)(1) == 0
        assert (trace.sweeps, trace.pending) == (1, 0)
        assert trace.bounds.tolist() == [0, 0]
        assert np.array_equal(buffers["levels"], levels)
        assert not buffers["next_bits"].any()


# ---------------------------------------------------------------------- #
# Native vs numpy whole words, BFS and SSSP
# ---------------------------------------------------------------------- #
@st.composite
def traced_words(draw):
    """A random graph — directed or not, with self-loops, multi-edges and
    isolated vertices; unweighted, weighted, or weighted with negative
    edges, whose cycles keep an SSSP word sweeping to its iteration cap —
    and a word of 1-64 sources."""
    reachable = draw(st.integers(1, 30))
    isolated = draw(st.integers(0, 4))
    vertex = st.integers(0, reachable - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=150))
    pairs += pairs[: draw(st.integers(0, 8))]
    pairs += [(v, v) for v in range(0, reachable, 6)]
    sources, destinations = (np.array(side, dtype=np.int64) for side in zip(*pairs))
    graph = from_edge_array(
        sources, destinations, num_vertices=reachable + isolated,
        directed=draw(st.booleans()), name="hypothesis",
    )
    weighting = draw(st.sampled_from(("none", "positive", "negative")))
    if weighting != "none":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        choices = [0.0, 0.25, 0.5, 1.0, 1.75] + ([-0.5] if weighting == "negative" else [])
        graph = graph.with_weights(rng.choice(choices, graph.num_edges))
    lanes = draw(st.integers(1, WORD_BITS))
    word = draw(st.lists(st.integers(0, graph.num_vertices - 1), min_size=lanes, max_size=lanes))
    return graph, word


def _word_bytes(word):
    """A word runner's outcome, comparable: values, the trace's flat arrays
    (dtypes included) and whether it converged."""
    values, trace, _, converged = word
    return (
        values.dtype.str, values.tobytes(),
        [(array.dtype.str, array.tobytes()) for array in trace.flat()],
        converged,
    )


@pytest.mark.skipif(not _native.available(), reason="native kernels unavailable")
class TestNativeWordMatchesNumpy:
    """A whole native word against the numpy word loop: the same values and
    the same ``trace.flat()`` (frontiers, lane words, bounds), whether the
    trace grows from its initial capacity or from none, with either relax
    arm, and when an SSSP word stops at its iteration cap."""

    RUNNERS = {"bfs": multisource._bfs_word, "sssp": multisource._sssp_word}

    @given(
        word=traced_words(),
        application=st.sampled_from(("bfs", "sssp")),
        dense_arm=st.sampled_from((0, 1)),
        grow=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_words_match(self, word, application, dense_arm, grow):
        graph, sources = word
        runner = self.RUNNERS[application]
        # A fresh trace of no capacity grows at its first write.
        capacity = 0 if grow else engine_module._TRACE_ENTRIES_PER_VERTEX
        with mock.patch.object(_native, "_dense_arm", dense_arm), mock.patch.object(
            engine_module, "_TRACE_ENTRIES_PER_VERTEX", capacity
        ):
            native = runner(graph, sources, "native")
            numpy = runner(graph, sources, "scatter")
        assert _word_bytes(native) == _word_bytes(numpy)
        assert (native[2], numpy[2]) == (
            ("native", "scatter") if application == "sssp" else (None, None)
        )

    @pytest.mark.parametrize("dense_arm", (0, 1))
    def test_one_lane_sssp_on_an_unweighted_graph(self, uniform_graph, dense_arm):
        # A solo SSSP on unit weights: the scalar arm's weightless loop.
        with mock.patch.object(_native, "_dense_arm", dense_arm):
            for source in (0, 17, 401):
                native = multisource._sssp_word(uniform_graph, [source], "native")
                numpy = multisource._sssp_word(uniform_graph, [source], "scatter")
                assert _word_bytes(native) == _word_bytes(numpy)
                assert native[1].sweeps > 1

    @pytest.mark.parametrize("capacity", (0, 64))
    def test_trace_growth_keeps_the_sweeps(self, random_graph, capacity):
        # A 64-lane word on a trace of no capacity grows several times; one
        # of 64 entries per vertex never does.
        sources = list(range(0, 320, 5))
        for runner in self.RUNNERS.values():
            with mock.patch.object(engine_module, "_TRACE_ENTRIES_PER_VERTEX", capacity):
                native = runner(random_graph, sources, "native")
            grown = native[1].vertices.size != capacity * random_graph.num_vertices
            assert grown is (capacity == 0)
            assert _word_bytes(native) == _word_bytes(runner(random_graph, sources, "scatter"))

    def test_iteration_cap_leaves_the_pending_frontier_out(self):
        # 0 -> 1 -> 0 with weight -1: every sweep improves the next vertex,
        # so the word stops at its cap of V sweeps with a frontier pending.
        graph = from_edge_array(
            np.array([0, 1]), np.array([1, 0]), num_vertices=2, directed=True, name="loop"
        ).with_weights(np.array([-1.0, -1.0]))
        native = multisource._sssp_word(graph, [0], "native")
        numpy = multisource._sssp_word(graph, [0], "scatter")
        assert _word_bytes(native) == _word_bytes(numpy)
        trace = native[1]
        assert not native[3] and trace.sweeps == 2 and trace.pending == 1
        assert trace.flat()[2].tolist() == [0, 1, 2]
        assert native[0].tolist() == [[-2.0, -1.0]]
