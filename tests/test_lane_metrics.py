"""A lane's metrics are its solo run's, on every path that answers a source.

A batched word records one trace of its sweeps and prices each lane alone
from it, so a lane's :class:`~repro.traversal.results.TraversalMetrics` may
not depend on which other sources or configurations rode the word, on the
sweep backend, or on whether the answer came from an engine, the result
cache or the durable store.  A CC/PageRank pass is a word of one lane, the
source ``None``.
"""

import tempfile
from contextlib import nullcontext
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import ServiceConfig, ampere_pcie4
from repro.graph.generators import random_weights, rmat_graph, uniform_random_graph
from repro.service import GraphRegistry, Job, Service, TraversalRequest
from repro.traversal import _native, multisource
from repro.traversal.bfs import run_bfs
from repro.traversal.cc import cc_sweep, run_cc
from repro.traversal.engine import TraversalEngine
from repro.traversal.multisource import PackedLane, run_batch, run_packed_batch
from repro.traversal.pagerank import pagerank_sweep, run_pagerank
from repro.traversal.sssp import run_sssp
from repro.traversal.streaming import run_streaming_batch
from repro.types import AccessStrategy

from .conftest import _serve_backlog

ALL_STRATEGIES = tuple(AccessStrategy)

RUNNERS = {"bfs": run_bfs, "sssp": run_sssp}


def numpy_only(native: bool):
    """Everything on the numpy kernels (as on a host without a compiler)
    unless ``native``."""
    return nullcontext() if native else mock.patch.object(_native, "available", lambda: False)


def solo_metrics(application, graph, lane, native):
    with numpy_only(native):
        return RUNNERS[application](graph, lane.source, lane.strategy).metrics


@st.composite
def words(draw):
    """An R-MAT or uniform graph, weighted or not; an application; 1-70
    lanes over all four strategies, repeats included; and a backend."""
    vertices = draw(st.integers(2, 90))
    # Every vertex of a uniform graph has out-degree 1 or more.
    edges = draw(st.integers(vertices, 6 * vertices))
    seed = draw(st.integers(0, 1 << 16))
    if draw(st.booleans()):
        graph = rmat_graph(vertices, edges, seed=seed, name="lanes")
    else:
        graph = uniform_random_graph(vertices, edges, seed=seed, name="lanes")
    if draw(st.booleans()):
        graph = graph.with_weights(random_weights(graph.num_edges, seed=seed + 1))
    width = draw(st.one_of(st.integers(1, 8), st.sampled_from((63, 64, 65, 70))))
    lanes = [
        PackedLane(source, strategy)
        for source, strategy in draw(
            st.lists(
                st.tuples(
                    st.integers(0, graph.num_vertices - 1), st.sampled_from(ALL_STRATEGIES)
                ),
                min_size=width,
                max_size=width,
            )
        )
    ]
    return graph, draw(st.sampled_from(("bfs", "sssp"))), lanes, draw(st.booleans())


def _service(graph, store_path):
    registry = GraphRegistry()
    registry.register_graph(graph)
    config = ServiceConfig(max_workers=1, store_path=str(store_path))
    return Service(registry=registry, config=config)


def _request(application, graph, lane):
    return TraversalRequest(application, graph.name, source=lane.source, strategy=lane.strategy)


class TestEveryPathPricesEachLaneAlone:
    @given(word=words())
    @settings(
        max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_lane_metrics_equal_the_solo_run(self, word):
        graph, application, lanes, native = word
        solo = [solo_metrics(application, graph, lane, native) for lane in lanes]
        method = "native" if native and _native.available() else "scatter"

        # One configuration per run_batch, and every configuration in one
        # packed word stream.
        for strategy in {lane.strategy for lane in lanes}:
            picked = [index for index, lane in enumerate(lanes) if lane.strategy is strategy]
            batch = run_batch(
                application, graph, [lanes[index].source for index in picked],
                strategy=strategy, relax_method=method,
            )
            for index, result in zip(picked, batch.results):
                assert result.metrics == solo[index]
        packed = run_packed_batch(application, graph, lanes, relax_method=method)
        for result, expected in zip(packed.results, solo):
            assert result.metrics == expected

        # The service: a lone job, a fused backlog, cache hits, and a
        # store-warm restart, on a few of the lanes.
        served = lanes[:6]
        requests = [_request(application, graph, lane) for lane in served]
        with numpy_only(native), tempfile.TemporaryDirectory() as scratch:
            store_path = Path(scratch) / "store.db"
            with _service(graph, store_path) as service:
                lone = service.result(service.submit(requests[0]), timeout=60)
                assert lone.metrics == solo[0]
                _serve_backlog(service, requests[1:])
                for request, expected in zip(requests, solo):
                    # Queued jobs are done; the cache answers all of them now.
                    assert service.result(service.submit(request), timeout=60).metrics == expected
                service.store.flush()
            with _service(graph, store_path) as service:
                for request, expected in zip(requests, solo):
                    assert service.result(service.submit(request), timeout=60).metrics == expected
                assert service.stats().executions == 0


@st.composite
def repeated_sources(draw):
    """A graph, an application, a backend and 1-150 requests over 1-70
    distinct sources, repeating sources within and across configurations."""
    vertices = draw(st.integers(70, 110))
    edges = draw(st.integers(vertices, 4 * vertices))
    seed = draw(st.integers(0, 1 << 16))
    if draw(st.booleans()):
        graph = rmat_graph(vertices, edges, seed=seed, name="sources")
    else:
        graph = uniform_random_graph(vertices, edges, seed=seed, name="sources")
    if draw(st.booleans()):
        graph = graph.with_weights(random_weights(graph.num_edges, seed=seed + 1))
    distinct = draw(
        st.lists(st.integers(0, graph.num_vertices - 1), min_size=1, max_size=70, unique=True)
    )
    configs = st.sampled_from(ALL_STRATEGIES)
    # Every source at least once, then repeats of any of them.
    requests = [(source, draw(configs)) for source in distinct]
    requests += draw(
        st.lists(
            st.tuples(st.sampled_from(distinct), configs),
            max_size=150 - len(distinct),
        )
    )
    requests = [PackedLane(*pair) for pair in draw(st.permutations(requests))]
    return graph, draw(st.sampled_from(("bfs", "sssp"))), requests, draw(st.booleans())


#: The platforms a generated streaming batch draws from, by index.
SYSTEMS = (None, ampere_pcie4())


@st.composite
def streaming_batches(draw):
    """A graph, CC or PageRank, a backend and 1-30 configurations over all
    four strategies and two systems, repeats included."""
    vertices = draw(st.integers(2, 90))
    edges = draw(st.integers(vertices, 4 * vertices))
    seed = draw(st.integers(0, 1 << 16))
    if draw(st.booleans()):
        graph = rmat_graph(vertices, edges, seed=seed, name="passes")
    else:
        graph = uniform_random_graph(vertices, edges, seed=seed, name="passes")
    config = st.tuples(st.sampled_from(ALL_STRATEGIES), st.integers(0, len(SYSTEMS) - 1))
    configs = draw(st.lists(config, min_size=1, max_size=20))
    configs += draw(st.lists(st.sampled_from(configs), max_size=10))
    configs = draw(st.permutations(configs))
    return graph, draw(st.sampled_from(("cc", "pagerank"))), configs, draw(st.booleans())


class TestALaneIsASource:
    @given(batch=streaming_batches())
    @settings(
        max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_a_streaming_pass_is_a_one_lane_word(self, batch):
        """Every configuration of a CC/PageRank batch gets its solo run's
        values and metrics from the one pass, in its own array."""
        graph, application, configs, native = batch
        method = "native" if native and _native.available() else "scatter"
        runner = run_cc if application == "cc" else run_pagerank
        solo = {}
        for strategy, system in configs:
            if (strategy, system) not in solo:
                with numpy_only(native):
                    solo[strategy, system] = runner(graph, strategy, SYSTEMS[system])
        outcome = run_streaming_batch(
            application, graph,
            [(strategy, SYSTEMS[system]) for strategy, system in configs],
            relax_method=method,
        )
        assert outcome.words == 1
        assert len(outcome.results) == len(configs)
        for config, result in zip(configs, outcome.results):
            expected = solo[config]
            assert result.values.tobytes() == expected.values.tobytes()
            assert result.metrics == expected.metrics
            assert result.strategy is config[0]
            if application == "pagerank":
                assert (result.iterations, result.converged) == (
                    expected.iterations, expected.converged
                )
        for index, result in enumerate(outcome.results):
            assert not any(
                np.shares_memory(result.values, other.values)
                for other in outcome.results[:index]
            )

    @given(batch=repeated_sources())
    @settings(
        max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_requests_fan_out_from_one_lane_per_source(self, batch):
        graph, application, requests, native = batch
        method = "native" if native and _native.available() else "scatter"
        solo = {}
        for request in requests:
            key = (request.source, request.strategy)
            if key not in solo:
                with numpy_only(native):
                    solo[key] = RUNNERS[application](graph, *key)

        def check(outcome, asked):
            distinct = len({request.source for request in asked})
            assert outcome.words == -(-distinct // 64)
            assert len(outcome.results) == len(asked)
            for request, result in zip(asked, outcome.results):
                expected = solo[request.source, request.strategy]
                assert result.source == request.source
                assert np.array_equal(result.values, expected.values)
                assert result.metrics == expected.metrics
            # Duplicates fan out as copies: no two results share an array.
            for a, b in zip(outcome.results, outcome.results[1:]):
                assert not np.shares_memory(a.values, b.values)

        # Every configuration in one packed batch, and each configuration
        # alone, its own repeats included.
        check(run_packed_batch(application, graph, requests, relax_method=method), requests)
        for strategy in {request.strategy for request in requests}:
            asked = [request for request in requests if request.strategy is strategy]
            check(
                run_batch(
                    application, graph, [request.source for request in asked],
                    strategy=strategy, relax_method=method,
                ),
                asked,
            )


def _catalogue(graph_name):
    """Every BFS/SSSP shape a burst can fuse: repeats, two strategies,
    several sources."""
    requests = []
    for application in ("bfs", "sssp"):
        for strategy in ("merged_aligned", "uvm", "naive"):
            requests += [
                TraversalRequest(application, graph_name, source=source, strategy=strategy)
                for source in (0, 5, 17, 42, 5)
            ]
    return requests


class TestBurstOrder:
    def test_a_burst_and_one_at_a_time_give_equal_metrics(self, random_graph):
        registry = GraphRegistry()
        registry.register_graph(random_graph)
        requests = _catalogue(random_graph.name)
        with Service(registry=registry, config=ServiceConfig(max_workers=1)) as service:
            _serve_backlog(service, requests)
            burst = [service.result(service.submit(request), timeout=60) for request in requests]
            assert any(plan["groups"] > 1 for plan in service.plan_decisions())
        with Service(registry=registry, config=ServiceConfig(max_workers=1)) as service:
            alone = [service.result(service.submit(request), timeout=60) for request in requests]
        for request, a, b in zip(requests, burst, alone):
            assert a.metrics == b.metrics, request


class TestKernelCountersPerSweep:
    def test_a_packed_sweep_counts_one_backend_sweep(self, random_graph):
        """A packed EMOGI + UVM SSSP word is one sweep: it counts once under
        its relax backend, and the kernel counters sum its lanes' work."""
        registry = GraphRegistry()
        registry.register_graph(random_graph)
        groups = [
            [
                Job(
                    job_id=f"{strategy}-{source}",
                    request=TraversalRequest(
                        "sssp", random_graph.name, source=source, strategy=strategy
                    ),
                )
                for source in (0, 1)
            ]
            for strategy in ("merged_aligned", "uvm")
        ]
        config = ServiceConfig(max_workers=1)
        with Service(registry=registry, config=config) as service:
            service._execute_sweep(groups, random_graph)
            metrics = service.collect_metrics()
        results = [job.result for group in groups for job in group]
        backend = results[0].metrics.counters.relax_backend
        counter = metrics.get("repro_kernel_backend_total")
        assert counter.value(app="sssp", backend=backend) == 1
        assert counter.total() == 1
        edges = sum(result.metrics.counters.edges_traversed for result in results)
        assert metrics.get("repro_kernel_edges_total").value(app="sssp") == edges


@pytest.mark.skipif(not _native.available(), reason="native kernels unavailable")
class TestLaneRows:
    """The lane-row pass reads only the lanes it is given: the compiled pass
    and the numpy arm agree on any subset of a word's lanes, in any order."""

    @settings(
        max_examples=40, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        application=st.sampled_from(("bfs", "sssp")),
        strategy=st.sampled_from(ALL_STRATEGIES),
        sources=st.lists(st.integers(0, 499), min_size=1, max_size=64),
        data=st.data(),
    )
    def test_compiled_pass_matches_numpy_arm(
        self, random_graph, application, strategy, sources, data
    ):
        word = multisource._bfs_word if application == "bfs" else multisource._sssp_word
        _, trace, _, _ = word(random_graph, sources, "scatter")
        order = data.draw(st.permutations(range(len(sources))))
        lanes = np.array(order[: data.draw(st.integers(1, len(sources)))], dtype=np.int64)
        engine = TraversalEngine(random_graph, strategy, needs_weights=application == "sssp")
        native = engine._lane_rows(trace, lanes, True)
        assert np.array_equal(native, engine._lane_rows(trace, lanes, False))

    @pytest.mark.parametrize("widths", [(2, 3), (3, 0), (1, 4), (0, 0)])
    @pytest.mark.parametrize("picked", ["all", "few", "one"])
    def test_any_table_widths_match_the_definition(self, random_graph, widths, picked):
        # Engines build tables of widths (4, 4), (4, 0), (1, 1), (1, 0) and
        # none; any other shape a caller passes is summed the same way.  The
        # reference is the definition: for each lane and sweep, the sum of
        # (degree, 1, table rows) over the entries carrying the lane's bit.
        sources = list(range(0, 480, 12))
        _, trace, _, _ = multisource._sssp_word(random_graph, sources, "scatter")
        frontier, masks, bounds = trace.flat()
        offsets = random_graph.offsets
        rng = np.random.default_rng(sum(widths))
        tables = tuple(
            rng.integers(-1000, 1000, (random_graph.num_vertices, width), dtype=np.int64)
            for width in widths
            if width
        )
        lanes = np.array(
            {"all": range(len(sources)), "few": [7, 3, 30], "one": [12]}[picked],
            dtype=np.int64,
        )
        rows = np.empty((lanes.size, trace.sweeps, 2 + sum(widths)), dtype=np.int64)
        _native.lane_rows(frontier, masks, bounds, offsets, tables, lanes, rows)

        columns = np.column_stack(
            [offsets[frontier + 1] - offsets[frontier], np.ones_like(frontier)]
            + [table[frontier] for table in tables]
        )
        expected = np.zeros_like(rows)
        for i, lane in enumerate(lanes.tolist()):
            carried = (masks >> np.uint64(lane)) & np.uint64(1) == 1
            for sweep in range(trace.sweeps):
                entries = slice(bounds[sweep], bounds[sweep + 1])
                expected[i, sweep] = columns[entries][carried[entries]].sum(axis=0)
        assert np.array_equal(rows, expected)

    @staticmethod
    def _break(case, frontier, bounds, lanes, rows, offsets):
        """The arguments of a two-lane BFS word's lane-row pass with one
        fault ``case`` put in; the rows are left filled with a sentinel."""
        frontier, bounds, lanes = frontier.copy(), bounds.copy(), lanes.copy()
        if case == "repeated lane":
            lanes[:] = 1
        elif case == "lane 64":
            lanes[1] = 64
        elif case == "negative lane":
            lanes[0] = -1
        elif case == "vertex past the offsets":
            frontier[-1] = offsets.size - 1
        elif case == "negative vertex":
            frontier[0] = -1
        elif case == "bounds short of the frontier":
            bounds[-1] -= 1
        elif case == "bounds descending":
            bounds[1], bounds[2] = bounds[2], bounds[1]
        elif case == "bounds not from zero":
            bounds[0] = 1
        elif case == "rows of another width":
            rows = np.empty(rows.shape[:2] + (rows.shape[2] + 1,), dtype=np.int64)
        elif case == "lanes unlike the rows":
            lanes = lanes[:1]
        rows.fill(-7)
        return frontier, bounds, lanes, rows

    @pytest.mark.parametrize(
        "case, message",
        [
            ("repeated lane", "distinct lane indices"),
            ("lane 64", "distinct lane indices"),
            ("negative lane", "distinct lane indices"),
            ("vertex past the offsets", "vertex ids outside the offsets"),
            ("negative vertex", "vertex ids outside the offsets"),
            ("bounds short of the frontier", "cut the frontier into sweeps"),
            ("bounds descending", "cut the frontier into sweeps"),
            ("bounds not from zero", "cut the frontier into sweeps"),
            ("rows of another width", "do not match the"),
            ("lanes unlike the rows", "do not match the"),
        ],
    )
    def test_refuses_a_bad_argument_before_writing_a_row(self, random_graph, case, message):
        _, trace, _, _ = multisource._bfs_word(random_graph, [0, 1], "scatter")
        frontier, masks, bounds = trace.flat()
        assert trace.sweeps >= 3 and bounds[2] > bounds[1]
        engine = TraversalEngine(random_graph, AccessStrategy.MERGED_ALIGNED)
        rows = np.empty((2, trace.sweeps, 6), dtype=np.int64)
        lanes = np.array([0, 1], dtype=np.int64)
        frontier, bounds, lanes, rows = self._break(
            case, frontier, bounds, lanes, rows, random_graph.offsets
        )
        with pytest.raises(ValueError, match=message):
            _native.lane_rows(
                frontier, masks, bounds, random_graph.offsets, engine.request_tables,
                lanes, rows,
            )
        assert (rows == -7).all()


class TestPricingMatchesAFreshEngine:
    """``price_lanes`` against the definition it implements: each lane's
    frontier sequence replayed, sweep by sweep, into a fresh engine with
    ``process_frontier`` — a BFS/SSSP word's every lane, and a CC/PageRank
    pass's one."""

    @pytest.mark.parametrize("native", (False, True))
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    @pytest.mark.parametrize("application", ("bfs", "sssp", "cc", "pagerank"))
    def test_each_lane(self, random_graph, application, strategy, native):
        method = "native" if native and _native.available() else "scatter"
        if application in RUNNERS:
            word = multisource._bfs_word if application == "bfs" else multisource._sssp_word
            sources = [0, 3, 17, 42, 99, 250, 499, 3]
            _, trace, backend, _ = word(random_graph, sources, method)
        else:
            sweep = cc_sweep if application == "cc" else pagerank_sweep
            trace, backend = sweep(random_graph, relax_method=method)[-1], None
        needs_weights = application == "sssp"
        engine = TraversalEngine(random_graph, strategy, needs_weights=needs_weights)
        priced = engine.price_lanes(trace, range(trace.lanes), backend, method == "native")
        for lane, metrics in enumerate(priced):
            fresh = TraversalEngine(random_graph, strategy, needs_weights=needs_weights)
            for frontier in trace.lane_frontiers(lane):
                fresh.process_frontier(frontier)
            expected = fresh.finalize()
            assert metrics.breakdown == expected.breakdown
            assert metrics.traffic == expected.traffic
            assert metrics.seconds == expected.seconds
            assert metrics.iterations == expected.iterations
            assert metrics.counters.max_frontier == expected.counters.max_frontier
            assert metrics.counters.edges_traversed == expected.counters.edges_traversed
