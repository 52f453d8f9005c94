"""A word's lanes are priced as a column block, and each request's result
is built from its row.

``price_lanes`` returns one :class:`~repro.traversal.results.LaneMetrics`
block per configuration and word, and the run loop builds every request's
result from its lane's values and its block row.  What is built must be
exactly what the per-lane objects were: the solo run's values and metrics,
the same pickle, and nothing of the word (its value matrix, trace or
engines) kept alive by it.
"""

import copy
import gc
import pickle
from statistics import mean

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import ampere_pcie4
from repro.graph.generators import random_weights, rmat_graph, uniform_random_graph
from repro.memsim.coalescer import REQUEST_SIZES, RequestHistogram
from repro.memsim import metrics as memsim_metrics
from repro.memsim.metrics import COUNTER_ROW_WIDTH, TrafficRecord
from repro.timing import TimeBreakdown
from repro.traversal import _native, multisource, run, run_average
from repro.traversal.cc import cc_sweep
from repro.traversal.engine import TraversalEngine, WordTrace
from repro.traversal.multisource import PackedLane, run_packed_batch
from repro.traversal.pagerank import PageRankResult, pagerank_sweep
from repro.traversal.results import (
    KernelCounters,
    LaneMetrics,
    TraversalMetrics,
    TraversalResult,
)
from repro.traversal.streaming import run_streaming_batch
from repro.types import AccessStrategy

ALL_STRATEGIES = tuple(AccessStrategy)

#: The platforms a generated batch draws from, by index.
SYSTEMS = (None, ampere_pcie4())

SETTINGS = settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _method(native: bool) -> str:
    return "native" if native and _native.available() else "scatter"


@st.composite
def graphs(draw, name="block"):
    """An R-MAT or uniform graph of 2-90 vertices, weighted or not."""
    vertices = draw(st.integers(2, 90))
    edges = draw(st.integers(vertices, 5 * vertices))
    seed = draw(st.integers(0, 1 << 16))
    maker = rmat_graph if draw(st.booleans()) else uniform_random_graph
    graph = maker(vertices, edges, seed=seed, name=name)
    if draw(st.booleans()):
        graph = graph.with_weights(random_weights(graph.num_edges, seed=seed + 1))
    return graph


@st.composite
def batches(draw):
    """A graph, an application, 1-90 requests over repeated sources and
    mixed (strategy, system) configurations, and a backend."""
    graph = draw(graphs())
    application = draw(st.sampled_from(("bfs", "sssp", "cc", "pagerank")))
    config = st.tuples(st.sampled_from(ALL_STRATEGIES), st.integers(0, len(SYSTEMS) - 1))
    if application in ("cc", "pagerank"):
        requests = [(None, *pair) for pair in draw(st.lists(config, min_size=1, max_size=12))]
    else:
        distinct = draw(
            st.lists(st.integers(0, graph.num_vertices - 1), min_size=1, max_size=70, unique=True)
        )
        requests = [(source, *draw(config)) for source in distinct]
        repeat = st.tuples(st.sampled_from(distinct), config).map(lambda pair: (pair[0], *pair[1]))
        requests += draw(st.lists(repeat, max_size=20))
        requests = draw(st.permutations(requests))
    return graph, application, requests, draw(st.booleans())


def _run(graph, application, requests, native):
    lanes = [PackedLane(source, strategy, SYSTEMS[system]) for source, strategy, system in requests]
    if application in ("cc", "pagerank"):
        return run_streaming_batch(application, graph, lanes, relax_method=_method(native))
    return run_packed_batch(application, graph, lanes, relax_method=_method(native))


def _solo(graph, application, source, strategy, system, native):
    with pytest.MonkeyPatch.context() as patch:
        if not native:
            patch.setattr(_native, "available", lambda: False)
        if application == "pagerank":
            from repro.traversal.pagerank import run_pagerank

            return run_pagerank(graph, strategy, SYSTEMS[system])
        if application == "cc":
            from repro.traversal.cc import run_cc

            return run_cc(graph, strategy, SYSTEMS[system])
        from repro.traversal.bfs import run_bfs
        from repro.traversal.sssp import run_sssp

        runner = run_bfs if application == "bfs" else run_sssp
        return runner(graph, source, strategy, SYSTEMS[system])


def _eager(result):
    """``result`` rebuilt through every public constructor, as the eager
    per-lane loop built it (validated histogram included)."""
    metrics = result.metrics
    row = metrics.traffic.counter_row()
    sizes = len(REQUEST_SIZES)
    rebuilt = TraversalMetrics(
        seconds=metrics.seconds,
        breakdown=TimeBreakdown(*metrics.breakdown.components()),
        traffic=TrafficRecord(
            RequestHistogram(dict(zip(REQUEST_SIZES, row[:sizes]))), *row[sizes:]
        ),
        iterations=metrics.iterations,
        dataset_bytes=metrics.dataset_bytes,
        strategy=metrics.strategy,
        system_name=metrics.system_name,
        counters=KernelCounters(
            metrics.counters.iterations,
            metrics.counters.frontier_vertices,
            metrics.counters.edges_traversed,
            metrics.counters.max_frontier,
            metrics.counters.relax_candidates,
            metrics.counters.relax_backend,
        ),
    )
    if isinstance(result, PageRankResult):
        return PageRankResult(
            result.graph_name, result.strategy, result.values,
            result.iterations, result.converged, rebuilt,
        )
    return TraversalResult(
        result.application, result.graph_name, result.strategy, result.source,
        result.values, rebuilt,
    )


def _reachable(root, limit=10_000):
    """Every object reachable from ``root`` through ``gc`` referents."""
    seen, stack = {}, [root]
    while stack and len(seen) < limit:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen[id(obj)] = obj
        stack.extend(gc.get_referents(obj))
    return list(seen.values())


class TestEachResultIsItsSoloRun:
    @given(batch=batches())
    @SETTINGS
    def test_each_result_is_its_solo_run(self, batch):
        graph, application, requests, native = batch
        outcome = _run(graph, application, requests, native)
        results = outcome.results
        assert type(results) is list and len(results) == len(requests)
        solo = {}
        for index in range(len(requests)):
            source, strategy, system = requests[index]
            key = (source, strategy, system)
            if key not in solo:
                solo[key] = _solo(graph, application, *key, native)
            expected = solo[key]
            result = results[index]
            assert result.values.tobytes() == expected.values.tobytes()
            assert result.values.dtype == expected.values.dtype
            assert result.metrics == expected.metrics
            assert result.strategy is strategy
            if application in ("bfs", "sssp"):
                assert type(result.source) is int and result.source == source

    @given(batch=batches())
    @SETTINGS
    def test_a_built_result_pickles_as_the_eager_one_and_holds_nothing_of_the_word(
        self, batch
    ):
        graph, application, requests, native = batch
        captured = {}
        runner, needs_weights = multisource._RUNNERS[multisource.normalize_application(application)]

        def capturing(*args, **kwargs):
            values, trace, backend, converged = runner(*args, **kwargs)
            captured.setdefault("values", []).append(values)
            captured.setdefault("traces", []).append(trace)
            return values, trace, backend, converged

        with pytest.MonkeyPatch.context() as patch:
            patch.setitem(
                multisource._RUNNERS, multisource.normalize_application(application),
                (capturing, needs_weights),
            )
            outcome = _run(graph, application, requests, native)
        built = outcome.results
        words = {id(array) for array in captured["values"]}
        words |= {id(array.base) for array in captured["values"] if array.base is not None}
        traces = {id(trace) for trace in captured["traces"]}
        for result in built:
            assert pickle.dumps(result) == pickle.dumps(_eager(result))
            assert result.values.base is None and result.values.flags.owndata
            for obj in _reachable(result):
                assert id(obj) not in words and id(obj) not in traces
                assert not isinstance(obj, (WordTrace, TraversalEngine, LaneMetrics))
        # The whole outcome pickles and deep-copies as its results do.
        for clone in (pickle.loads(pickle.dumps(outcome)), copy.deepcopy(outcome)):
            assert clone.words == outcome.words and len(clone.results) == len(built)
            for twin, result in zip(clone.results, built):
                assert pickle.dumps(twin) == pickle.dumps(result)


def _hex(value):
    return float(value).hex()


class TestTheAggregate:
    @given(
        graph=graphs(),
        application=st.sampled_from(("bfs", "sssp", "cc", "pagerank")),
        strategy=st.sampled_from(ALL_STRATEGIES),
        data=st.data(),
    )
    @SETTINGS
    def test_every_mean_equals_the_mean_over_its_runs(self, graph, application, strategy, data):
        sources = data.draw(
            st.lists(st.integers(0, graph.num_vertices - 1), min_size=1, max_size=80)
        )
        aggregate = run_average(application, graph, sources, strategy)
        runs = aggregate.runs
        assert type(runs) is list
        assert aggregate.num_runs == (1 if application in ("cc", "pagerank") else len(sources))
        metrics = [run.metrics for run in runs]
        assert [
            _hex(aggregate.mean_seconds), _hex(aggregate.mean_io_amplification),
            _hex(aggregate.mean_bandwidth_gbps), _hex(aggregate.mean_pcie_requests),
        ] == [
            _hex(mean(m.seconds for m in metrics)),
            _hex(mean(m.io_amplification for m in metrics)),
            _hex(mean(m.achieved_bandwidth_gbps for m in metrics)),
            _hex(mean(m.total_pcie_requests for m in metrics)),
        ]
        if application in ("bfs", "sssp"):
            for source, result in zip(sources, runs):
                assert result.metrics == run(application, graph, source, strategy).metrics

    def test_an_aggregate_pickles_and_deep_copies(self, random_graph):
        aggregate = run_average("bfs", random_graph, list(range(70)) + [3, 3])
        assert aggregate.num_runs == 72
        for clone in (pickle.loads(pickle.dumps(aggregate)), copy.deepcopy(aggregate)):
            assert clone.num_runs == 72
            assert _hex(clone.mean_seconds) == _hex(aggregate.mean_seconds)
            assert pickle.dumps(clone.runs) == pickle.dumps(aggregate.runs)
        aggregate.add(aggregate.runs[0])
        assert aggregate.num_runs == 73


class TestTheBlock:
    @given(graph=graphs(), application=st.sampled_from(("bfs", "sssp")), data=st.data())
    @SETTINGS
    def test_columns_match_the_row_objects(self, graph, application, data):
        sources = data.draw(
            st.lists(st.integers(0, graph.num_vertices - 1), min_size=1, max_size=64, unique=True)
        )
        word = multisource._bfs_word if application == "bfs" else multisource._sssp_word
        _, trace, backend, _ = word(graph, sources)
        for strategy in ALL_STRATEGIES:
            engine = TraversalEngine(graph, strategy, needs_weights=application == "sssp")
            block = engine.price_lanes(trace, range(len(sources)), backend, _native.available())
            assert len(block) == len(sources)
            built = list(block)
            assert built == list(block) and len(built) == len(sources)
            for row, metrics in enumerate(built):
                assert _hex(metrics.breakdown.total()) == _hex(metrics.seconds)
                assert metrics.breakdown.components() == tuple(block.seconds[row].tolist())
                assert metrics.traffic.counter_row() == tuple(block.counters[row].tolist())
                assert metrics.iterations == block.iterations[row]
                assert metrics.counters.max_frontier == block.max_frontier[row]
                assert metrics.strategy is strategy

    def test_counter_columns_name_the_counter_row(self):
        row = TrafficRecord.from_counter_row(list(range(COUNTER_ROW_WIDTH)))
        assert row.counter_row() == tuple(range(COUNTER_ROW_WIDTH))
        assert COUNTER_ROW_WIDTH == len(TrafficRecord().counter_row())
        for name, field in (
            ("UVM_BYTES", "uvm_migrated_bytes"), ("UVM_MIGRATIONS", "uvm_migrations"),
            ("UVM_PAGES", "uvm_pages_touched"), ("BLOCK_BYTES", "block_transfer_bytes"),
            ("BLOCK_TRANSFERS", "block_transfers"), ("DRAM_BYTES", "dram_bytes"),
            ("USEFUL_BYTES", "useful_bytes"), ("EDGES", "edges_processed"),
            ("VERTICES", "vertices_processed"), ("LAUNCHES", "kernel_launches"),
        ):
            assert getattr(row, field) == getattr(memsim_metrics, name)
        assert row.request_histogram == RequestHistogram(dict(zip(REQUEST_SIZES, range(4))))


@st.composite
def one_lane_traces(draw):
    """A graph and a one-lane trace mixing whole-graph sweeps (every vertex)
    with partial ones, in any order, empty sweeps included."""
    graph = draw(graphs(name="sweeps"))
    vertices = graph.num_vertices
    trace = WordTrace(1, vertices)
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.booleans()):
            frontier = np.arange(vertices)
        else:
            frontier = np.array(
                sorted(draw(st.sets(st.integers(0, vertices - 1), max_size=vertices - 1))),
                dtype=np.int64,
            )
        trace.record(frontier, np.ones(frontier.size, dtype=np.uint64))
    return graph, trace


class TestWholeGraphSweepsReadTheMemoisedRow:
    """A one-lane sweep over all ``V`` vertices takes the engine's memoised
    whole-graph row; every row still equals the numpy reference, which sums
    each sweep's vertex rows."""

    @staticmethod
    def _check(graph, trace, strategy, needs_weights):
        engine = TraversalEngine(graph, strategy, needs_weights=needs_weights)
        lanes = np.array([0], dtype=np.int64)
        reference = engine._summed_rows(*trace.flat(), lanes, native=False)
        for native in {False, _native.available()}:
            rows = engine._lane_rows(trace, lanes, native)
            assert rows.dtype == np.int64
            assert np.array_equal(rows, reference)

    @given(traced=one_lane_traces(), strategy=st.sampled_from(ALL_STRATEGIES), weights=st.booleans())
    @SETTINGS
    def test_mixed_sweeps(self, traced, strategy, weights):
        self._check(*traced, strategy, weights)

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    @pytest.mark.parametrize("sweep", (cc_sweep, pagerank_sweep))
    def test_cc_and_pagerank_passes(self, random_graph, sweep, strategy):
        trace = sweep(random_graph, relax_method="scatter")[-1]
        sizes = np.diff(trace.bounds)
        assert sizes[0] == random_graph.num_vertices
        if sweep is pagerank_sweep:
            assert (sizes == random_graph.num_vertices).all()
        self._check(random_graph, trace, strategy, False)

    def test_the_row_is_computed_once_per_engine(self, random_graph):
        engine = TraversalEngine(random_graph, AccessStrategy.MERGED_ALIGNED)
        trace = pagerank_sweep(random_graph, relax_method="scatter")[-1]
        engine.price_lanes(trace, [0])
        row = engine._whole_graph_row
        engine.price_lanes(trace, [0])
        assert engine._whole_graph_row is row
        assert row.tolist()[:2] == [random_graph.num_edges, random_graph.num_vertices]
