"""Single-source shortest path (frontier-based Bellman-Ford, §5.4).

The paper bases its SSSP on the GraphBIG/maximum-warp formulation: every
iteration relaxes all outgoing edges of the vertices whose distance changed in
the previous iteration.  Edge weights live next to the edge list in host
memory, so SSSP moves roughly 1.5x the bytes BFS does per edge (8-byte edge
element + 4-byte weight).  A solo run relaxes as a one-lane word of
:func:`~repro.traversal.relax.relax_lanes`, the kernel a batched word runs.
"""

from __future__ import annotations

import numpy as np

from ..config import SystemConfig
from ..graph.csr import CSRGraph
from ..types import AccessStrategy, Application, EMOGI_STRATEGY, VERTEX_DTYPE
from . import _native
from .engine import TraversalEngine
from .frontier import frontier_offsets, gather_frontier_edges
from .multisource import UNREACHABLE, _check_source
from .relax import make_snapshot, relax_lanes
from .results import TraversalResult


def sssp_distances(graph: CSRGraph, source: int) -> np.ndarray:
    """Reference shortest-path distances without memory simulation."""
    _check_source(graph, source)
    weights = graph.weights if graph.has_weights else np.ones(graph.num_edges)
    distances = np.full(graph.num_vertices, UNREACHABLE, dtype=np.float64)
    distances[source] = 0.0
    frontier = np.array([source], dtype=VERTEX_DTYPE)
    for _ in range(graph.num_vertices):
        if not frontier.size:
            break
        edges = gather_frontier_edges(graph, frontier)
        previous = distances.copy()
        candidates = distances[edges.sources] + weights[edges.edge_indices]
        np.minimum.at(distances, edges.destinations, candidates)
        frontier = np.flatnonzero(distances < previous)
    return distances


def run_sssp(
    graph: CSRGraph,
    source: int,
    strategy: AccessStrategy = EMOGI_STRATEGY,
    system: SystemConfig | None = None,
    engine: TraversalEngine | None = None,
    relax_method: str | None = None,
) -> TraversalResult:
    """SSSP from ``source`` under the given edge-list access strategy.

    ``relax_method`` picks the relaxation backend (see
    :data:`~repro.traversal.relax.RELAX_METHODS`; ``None`` = fastest).
    """
    _check_source(graph, source)
    engine = engine or TraversalEngine(graph, strategy, system=system, needs_weights=True)
    weights = None
    if graph.has_weights:
        weights = np.ascontiguousarray(graph.weights, dtype=np.float64)
    num_vertices = graph.num_vertices
    distances = np.full((num_vertices, 1), UNREACHABLE, dtype=np.float64)
    distances[source] = 0.0
    snapshot = make_snapshot(num_vertices, 1)
    lane_bits = np.ones(num_vertices, dtype=np.uint64)
    next_bits = np.zeros(num_vertices, dtype=np.uint64)
    pins = _native.Pins()
    native = _native.wanted(relax_method)
    frontier = np.array([source], dtype=VERTEX_DTYPE)
    iterations = 0
    while frontier.size and iterations < num_vertices:
        starts, ends = frontier_offsets(graph, frontier)
        engine.process_frontier(frontier, starts, ends, native=native)
        outcome = relax_lanes(
            distances, graph.edges, frontier, starts, ends, lane_bits[: frontier.size],
            weights=weights, method=relax_method, snapshot=snapshot, next_bits=next_bits,
            pins=pins,
        )
        engine.note_relax(outcome.method, outcome.candidates)
        frontier = np.flatnonzero(next_bits)
        iterations += 1
    return TraversalResult(
        application=Application.SSSP,
        graph_name=graph.name,
        strategy=strategy,
        source=source,
        values=distances.reshape(-1),
        metrics=engine.finalize(),
    )
