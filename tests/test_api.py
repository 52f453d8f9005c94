"""Tests for the public traversal API (dispatch, aggregation)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.traversal.api import bfs, cc, run, run_average, sssp
from repro.traversal.bfs import bfs_levels, run_bfs
from repro.traversal.cc import run_cc
from repro.traversal.multisource import run_batch, run_packed_batch
from repro.traversal.pagerank import run_pagerank
from repro.traversal.sssp import run_sssp
from repro.traversal.streaming import run_streaming_batch
from repro.types import AccessStrategy, Application, EMOGI_STRATEGY


class TestDispatch:
    def test_bfs(self, random_graph):
        result = bfs(random_graph, 0)
        assert result.application is Application.BFS
        assert result.strategy is EMOGI_STRATEGY
        assert np.array_equal(result.values, bfs_levels(random_graph, 0))

    def test_sssp(self, random_graph):
        result = sssp(random_graph, 0)
        assert result.application is Application.SSSP
        assert result.values[0] == 0.0

    def test_cc(self, disconnected_graph):
        result = cc(disconnected_graph)
        assert result.application is Application.CC

    def test_run_accepts_strings(self, random_graph):
        result = run("bfs", random_graph, source=0)
        assert result.application is Application.BFS

    def test_run_dispatches_cc_without_source(self, disconnected_graph):
        result = run(Application.CC, disconnected_graph)
        assert result.application is Application.CC

    def test_run_requires_source_for_bfs_and_sssp(self, random_graph):
        with pytest.raises(ConfigurationError):
            run(Application.BFS, random_graph)
        with pytest.raises(ConfigurationError):
            run("sssp", random_graph)

    def test_unknown_application_rejected(self, random_graph):
        with pytest.raises(ConfigurationError) as raised:
            run("katz", random_graph, source=0)
        assert isinstance(raised.value.__cause__, ValueError)

    def test_strategy_parameter_respected(self, random_graph):
        result = bfs(random_graph, 0, strategy=AccessStrategy.UVM)
        assert result.strategy is AccessStrategy.UVM
        assert result.metrics.traffic.uvm_migrated_bytes > 0


class TestRunAverage:
    def test_bfs_average_over_sources(self, random_graph):
        aggregate = run_average(Application.BFS, random_graph, [0, 1, 2])
        assert aggregate.num_runs == 3
        assert aggregate.mean_seconds > 0
        assert {r.source for r in aggregate.runs} == {0, 1, 2}

    def test_cc_runs_once_regardless_of_sources(self, disconnected_graph):
        aggregate = run_average(Application.CC, disconnected_graph, [0, 1, 2, 3])
        assert aggregate.num_runs == 1

    def test_aggregate_metadata(self, random_graph):
        aggregate = run_average("sssp", random_graph, [4], strategy=AccessStrategy.MERGED)
        assert aggregate.application is Application.SSSP
        assert aggregate.graph_name == random_graph.name
        assert aggregate.strategy is AccessStrategy.MERGED


class TestRunAverageEdgeCases:
    def test_empty_sources_rejected_for_sourced_apps(self, random_graph):
        with pytest.raises(ConfigurationError):
            run_average(Application.BFS, random_graph, [])
        with pytest.raises(ConfigurationError):
            run_average("sssp", random_graph, np.array([], dtype=np.int64))

    def test_cc_runs_once_even_with_empty_sources(self, disconnected_graph):
        aggregate = run_average(Application.CC, disconnected_graph, [])
        assert aggregate.num_runs == 1

    def test_cc_ignores_source_values_entirely(self, disconnected_graph):
        a = run_average(Application.CC, disconnected_graph, [0, 1, 2])
        b = run_average(Application.CC, disconnected_graph, [99999])  # out of range
        assert a.num_runs == b.num_runs == 1
        assert np.array_equal(a.runs[0].values, b.runs[0].values)

    def test_numpy_integer_source_dtypes(self, random_graph):
        for dtype in (np.int8, np.int32, np.uint16, np.int64):
            aggregate = run_average("bfs", random_graph, np.array([0, 3], dtype=dtype))
            assert aggregate.num_runs == 2
            assert {run.source for run in aggregate.runs} == {0, 3}
            assert all(isinstance(run.source, int) for run in aggregate.runs)

    def test_integral_float_sources_accepted(self, random_graph):
        aggregate = run_average("bfs", random_graph, np.array([0.0, 2.0]))
        assert {run.source for run in aggregate.runs} == {0, 2}

    def test_fractional_float_sources_rejected(self, random_graph):
        with pytest.raises(ConfigurationError):
            run_average("bfs", random_graph, np.array([0.5, 2.0]))

    def test_generator_sources_accepted(self, random_graph):
        aggregate = run_average("bfs", random_graph, (s for s in (1, 2)))
        assert aggregate.num_runs == 2


#: Entry points that take a strategy, each returning its per-run results.
STRATEGY_ENTRY_POINTS = {
    "run-bfs": lambda g, strategy: [run("bfs", g, 0, strategy)],
    "run-cc": lambda g, strategy: [run("cc", g, None, strategy)],
    "run_average": lambda g, strategy: run_average("bfs", g, [0, 1], strategy).runs,
    "run_batch": lambda g, strategy: run_batch("bfs", g, [0], strategy=strategy).results,
    "run_packed_batch": lambda g, strategy: run_packed_batch(
        "bfs", g, [(0, strategy)]
    ).results,
    "run_cc": lambda g, strategy: [run_cc(g, strategy=strategy)],
    "run_pagerank": lambda g, strategy: [run_pagerank(g, strategy=strategy)],
    "repro.cc": lambda g, strategy: [cc(g, strategy=strategy)],
    "run_streaming_batch": lambda g, strategy: run_streaming_batch(
        "pagerank", g, [strategy, (strategy, None)]
    ).results,
}


class TestStrategyByName:
    @pytest.mark.parametrize("entry", sorted(STRATEGY_ENTRY_POINTS))
    def test_name_runs_as_its_enum(self, random_graph, entry):
        call = STRATEGY_ENTRY_POINTS[entry]
        by_enum = call(random_graph, AccessStrategy.UVM)
        by_name = call(random_graph, "uvm")
        assert [r.strategy for r in by_name] == [AccessStrategy.UVM] * len(by_enum)
        for named, enum in zip(by_name, by_enum, strict=True):
            assert np.array_equal(named.values, enum.values)
            assert named.metrics == enum.metrics
        with pytest.raises(ConfigurationError) as raised:
            call(random_graph, "bogus")
        assert isinstance(raised.value.__cause__, ValueError)


#: Entry points that take a source, each returning the result of that lane.
SOURCE_ENTRY_POINTS = {
    "run_bfs": run_bfs,
    "run_sssp": run_sssp,
    "run_batch": lambda g, source: run_batch("bfs", g, [source, 3]).results[0],
    "run_batch ndarray": lambda g, source: run_batch("bfs", g, np.array([source])).results[0],
    "run_packed_batch": lambda g, source: run_packed_batch(
        "bfs", g, [(source, EMOGI_STRATEGY), (3, AccessStrategy.UVM)]
    ).results[0],
}


@pytest.mark.parametrize("entry", sorted(SOURCE_ENTRY_POINTS))
@pytest.mark.parametrize(
    "source, expected",
    [
        pytest.param(2.5, ConfigurationError, id="fraction"),
        pytest.param(True, ConfigurationError, id="bool"),
        pytest.param(np.bool_(False), ConfigurationError, id="np.bool_"),
        pytest.param("3", ConfigurationError, id="str"),
        pytest.param(None, ConfigurationError, id="None"),
        pytest.param(3, 3, id="int"),
        pytest.param(np.int32(3), 3, id="np.int32"),
        pytest.param(np.uint16(3), 3, id="np.uint16"),
        pytest.param(3.0, 3, id="integral-float"),
        pytest.param(np.float64(3.0), 3, id="np.float64"),
    ],
)
def test_every_entry_point_normalizes_its_sources(random_graph, entry, source, expected):
    """A bad source raises ConfigurationError instead of being truncated to
    some vertex; a good one becomes a plain ``int``."""
    call = SOURCE_ENTRY_POINTS[entry]
    if expected is ConfigurationError:
        with pytest.raises(ConfigurationError):
            call(random_graph, source)
        return
    result = call(random_graph, source)
    assert type(result.source) is int and result.source == expected


class TestPackageLevelExports:
    def test_top_level_imports(self):
        import repro

        assert callable(repro.bfs)
        assert callable(repro.sssp)
        assert callable(repro.cc)
        assert callable(repro.load_dataset)
        assert repro.EMOGI_STRATEGY is AccessStrategy.MERGED_ALIGNED
        assert repro.__version__
