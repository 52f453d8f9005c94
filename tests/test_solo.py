"""A solo run is a one-lane word.

``run_bfs`` and ``run_sssp`` sweep through the same kernels as a batched word
(the native ``repro_bfs_sweep`` / ``repro_sssp_sweep`` loops, or the numpy
sweeps they fall back to), with one lane.  So on any graph, strategy and
backend a solo run must return its numpy oracle's values and every simulated
number of the one-source ``run_batch`` — the relax counters included.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.builder import from_edge_array
from repro.traversal import _native
from repro.traversal.bfs import bfs_levels, run_bfs
from repro.traversal.multisource import run_batch
from repro.traversal.sssp import run_sssp, sssp_distances
from repro.types import ALL_STRATEGIES

from .conftest import metrics_fields

#: The word backends a solo run can take on this host.
METHODS = ("native", "scatter") if _native.available() else ("scatter",)


@st.composite
def solo_cases(draw):
    """A random graph — weighted or not, directed or not, with isolated
    vertices, self-loops and multi-edges — and a source, which may have no
    out-edges at all."""
    reachable = draw(st.integers(1, 30))
    isolated = draw(st.integers(0, 4))
    vertex = st.integers(0, reachable - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=120))
    weights = None
    if draw(st.booleans()):
        weights = draw(
            st.lists(
                st.floats(0.0, 100.0, width=32),
                min_size=len(pairs),
                max_size=len(pairs),
            )
        )
    graph = from_edge_array(
        np.array([pair[0] for pair in pairs], dtype=np.int64),
        np.array([pair[1] for pair in pairs], dtype=np.int64),
        num_vertices=reachable + isolated,
        weights=weights,
        directed=draw(st.booleans()),
        name="solo",
    )
    return graph, draw(st.integers(0, graph.num_vertices - 1))


def _one_lane_word(application, graph, source, strategy, method):
    return run_batch(
        application, graph, [source], strategy=strategy, relax_method=method
    ).results[0]


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
class TestSoloIsAOneLaneWord:
    @given(case=solo_cases())
    @settings(max_examples=25, deadline=None)
    def test_bfs(self, case, strategy, method):
        graph, source = case
        solo = run_bfs(graph, source, strategy=strategy, relax_method=method)
        assert solo.values.flags.c_contiguous
        assert np.array_equal(solo.values, bfs_levels(graph, source))
        word = _one_lane_word("bfs", graph, source, strategy, method)
        assert metrics_fields(solo.metrics) == metrics_fields(word.metrics)
        assert solo.metrics.counters.relax_backend is None

    @given(case=solo_cases())
    @settings(max_examples=25, deadline=None)
    def test_sssp(self, case, strategy, method):
        graph, source = case
        solo = run_sssp(graph, source, strategy=strategy, relax_method=method)
        assert solo.values.flags.c_contiguous and solo.values.dtype == np.float64
        assert np.array_equal(solo.values, sssp_distances(graph, source))
        word = _one_lane_word("sssp", graph, source, strategy, method)
        assert metrics_fields(solo.metrics) == metrics_fields(word.metrics)
        # A solo SSSP reports the relax it runs: one candidate per frontier
        # edge, on the backend it asked for.
        counters = solo.metrics.counters
        assert counters.relax_backend == method
        assert counters.relax_candidates == counters.edges_traversed
