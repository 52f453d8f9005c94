"""Single-source shortest path (frontier-based Bellman-Ford, §5.4).

The paper bases its SSSP on the GraphBIG/maximum-warp formulation: every
iteration relaxes all outgoing edges of the vertices whose distance changed in
the previous iteration.  Edge weights live next to the edge list in host
memory, so SSSP moves roughly 1.5x the bytes BFS does per edge (8-byte edge
element + 4-byte weight).  A solo run is a one-request call of
:func:`~repro.traversal.multisource._run_words`, the one run loop of all four
applications, whose SSSP word relaxes with
:func:`~repro.traversal.relax.relax_lanes` as a batched word does; a batched
lane is one distinct source, relaxed once whichever configurations asked
for it.
"""

from __future__ import annotations

import numpy as np

from ..config import SystemConfig
from ..graph.csr import CSRGraph
from ..types import AccessStrategy, Application, EMOGI_STRATEGY, VERTEX_DTYPE
from .engine import TraversalEngine
from .frontier import gather_frontier_edges
from .multisource import UNREACHABLE, PackedLane, _check_source, _run_words, request_columns
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

    ``engine`` prices the run as for :func:`~repro.traversal.bfs.run_bfs`.
    ``relax_method`` picks the relaxation backend (see
    :data:`~repro.traversal.relax.RELAX_METHODS`; ``None`` = fastest).
    """
    lane = PackedLane(source, strategy, system)
    return _run_words(
        Application.SSSP, graph, *request_columns([lane]), None, relax_method, engine
    ).results[0]
