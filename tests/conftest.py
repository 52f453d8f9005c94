"""Shared fixtures for the test suite.

Unit tests run on small hand-made or generated graphs so the whole suite
completes in seconds; the few integration tests that need the paper-scale
datasets build them through the module-level dataset cache so they are only
generated once per session.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.config import default_system, volta_pcie3
from repro.errors import AdmissionError
from repro.graph.builder import from_edge_array, from_neighbor_lists
from repro.graph.generators import random_weights, rmat_graph, uniform_random_graph
from repro.traversal import _native

#: The widest dense SSSP arm this host runs (0 without the native kernels).
WIDEST_DENSE_ARM = _native._dense_arm if _native.available() else 0

#: Every arm of ``repro_sssp_sweep``, as parameters of a test that forces it
#: through ``_native._dense_arm``.  The kernel steps an arm the host lacks
#: down to a narrower one, so a test of that arm would pass without running
#: it: it is skipped instead, with the reason.
DENSE_ARMS = tuple(
    pytest.param(
        arm,
        id=name,
        marks=pytest.mark.skipif(
            arm > WIDEST_DENSE_ARM,
            reason=f"host has no {name} arm (probe: {_native._DENSE_ARMS[WIDEST_DENSE_ARM]})",
        ),
    )
    for arm, name in enumerate(_native._DENSE_ARMS)
)


@pytest.fixture(scope="session")
def system():
    """The default (V100 / PCIe 3.0) simulated platform."""
    return default_system()


@pytest.fixture
def path_graph():
    """A 6-vertex undirected path: 0-1-2-3-4-5."""
    sources = np.array([0, 1, 2, 3, 4])
    destinations = np.array([1, 2, 3, 4, 5])
    return from_edge_array(sources, destinations, directed=False, name="path6")


@pytest.fixture
def star_graph():
    """A star with vertex 0 in the center and 8 leaves."""
    sources = np.zeros(8, dtype=np.int64)
    destinations = np.arange(1, 9)
    return from_edge_array(sources, destinations, directed=False, name="star8")


@pytest.fixture
def paper_example_graph():
    """The 5-vertex undirected graph of Figure 1 in the paper."""
    neighbor_lists = [
        [1, 2],
        [0, 2, 3, 4],
        [0, 1, 4],
        [1],
        [1, 2],
    ]
    return from_neighbor_lists(neighbor_lists, directed=False, name="figure1")


@pytest.fixture
def disconnected_graph():
    """Two components: a triangle {0,1,2} and an edge {3,4}; vertex 5 isolated."""
    sources = np.array([0, 1, 2, 3])
    destinations = np.array([1, 2, 0, 4])
    return from_edge_array(
        sources, destinations, num_vertices=6, directed=False, name="disconnected"
    )


@pytest.fixture(scope="session")
def random_graph():
    """A moderately sized weighted RMAT graph shared across correctness tests."""
    graph = rmat_graph(500, 6000, seed=33, name="rmat500")
    weights = random_weights(graph.num_edges, seed=34)
    return graph.with_weights(weights)


@pytest.fixture(scope="session")
def uniform_graph():
    """A uniform-degree graph shared across traffic-shape tests."""
    return uniform_random_graph(800, 16000, seed=35, name="uniform800")


@pytest.fixture(scope="session")
def weighted_uniform_graph(uniform_graph):
    weights = random_weights(uniform_graph.num_edges, seed=36)
    return uniform_graph.with_weights(weights)


def to_networkx(graph, weighted: bool = False):
    """Convert a CSRGraph to a networkx graph for reference computations."""
    import networkx as nx

    nx_graph = nx.DiGraph() if graph.directed else nx.Graph()
    nx_graph.add_nodes_from(range(graph.num_vertices))
    sources = graph.edge_sources()
    if weighted and graph.weights is not None:
        # CSR graphs may contain parallel edges; keep the cheapest one so the
        # networkx reference matches the relaxation over all parallel edges.
        for src, dst, weight in zip(sources, graph.edges, graph.weights):
            src, dst, weight = int(src), int(dst), float(weight)
            existing = nx_graph.get_edge_data(src, dst)
            if existing is None or existing["weight"] > weight:
                nx_graph.add_edge(src, dst, weight=weight)
    else:
        for src, dst in zip(sources, graph.edges):
            nx_graph.add_edge(int(src), int(dst))
    return nx_graph


def metrics_fields(metrics) -> tuple:
    """Every simulated number of one TraversalMetrics, floats bit-exact."""
    breakdown, traffic, counters = metrics.breakdown, metrics.traffic, metrics.counters
    return (
        float(metrics.seconds).hex(),
        metrics.iterations,
        metrics.dataset_bytes,
        str(metrics.strategy),
        metrics.system_name,
        tuple(
            float(value).hex()
            for value in (
                breakdown.interconnect_seconds,
                breakdown.dram_seconds,
                breakdown.compute_seconds,
                breakdown.fault_handling_seconds,
                breakdown.host_preprocess_seconds,
                breakdown.kernel_launch_seconds,
            )
        ),
        tuple(sorted(traffic.request_histogram.counts.items())),
        traffic.uvm_migrated_bytes,
        traffic.uvm_migrations,
        traffic.uvm_pages_touched,
        traffic.block_transfer_bytes,
        traffic.block_transfers,
        traffic.dram_bytes,
        traffic.useful_bytes,
        traffic.edges_processed,
        traffic.vertices_processed,
        traffic.kernel_launches,
        # The backend *label* depends on whether the host has a C compiler;
        # every backend produces the same numbers, so only its presence and
        # the counters are pinned.
        counters.iterations,
        counters.frontier_vertices,
        counters.edges_traversed,
        counters.max_frontier,
        counters.relax_candidates,
        counters.relax_backend is not None,
    )


def _serve_backlog(service, requests, settle=0.0):
    """Queue everything first, then drain on this thread (deterministic plans).

    Returns how many submissions admission control refused.
    """
    dispatch = service._pool.submit
    service._pool.submit = lambda fn, *args, **kwargs: None
    refused = 0
    try:
        for request in requests:
            try:
                service.submit(request)
            except AdmissionError:
                refused += 1
    finally:
        service._pool.submit = dispatch
    time.sleep(settle)
    while service._queue.pending_count():
        service._drain_one_batch()
    return refused


def pytest_sessionfinish(session, exitstatus):
    """With REPRO_LOCKCHECK armed, unreviewed ordering cycles fail the run.

    Tests that deliberately provoke inversions (tests/test_lockorder.py)
    reset the graph in their teardown, so anything still recorded here came
    from real serving-tier code paths.
    """
    from repro.analysis import lockorder

    if not lockorder.enabled():
        return
    found = lockorder.cycles()
    if found:
        print(lockorder.format_report(found))
        session.exitstatus = 1
