"""Breadth-first search (the paper's primary case study, §5.3).

The implementation follows the vertex-centric, scatter-style flow of
Algorithm 1: every iteration expands the current frontier by scanning each
active vertex's full neighbor list, marking unvisited neighbors as the next
frontier.  One iteration corresponds to one kernel launch, so the number of
kernels equals the BFS depth (§4.2).  A solo run sweeps as a one-lane
:class:`~repro.traversal.multisource.BFSWord`, the kernel a batched word runs.
"""

from __future__ import annotations

import numpy as np

from ..config import SystemConfig
from ..graph.csr import CSRGraph
from ..types import AccessStrategy, Application, EMOGI_STRATEGY, VERTEX_DTYPE
from .engine import TraversalEngine
from .frontier import frontier_offsets, gather_frontier_edges
from .multisource import UNREACHED, BFSWord, _check_source
from .results import TraversalResult


def bfs_levels(graph: CSRGraph, source: int) -> np.ndarray:
    """Reference BFS levels without any memory simulation (for testing)."""
    _check_source(graph, source)
    levels = np.full(graph.num_vertices, UNREACHED, dtype=np.int64)
    levels[source] = 0
    frontier = np.array([source], dtype=VERTEX_DTYPE)
    depth = 0
    while frontier.size:
        edges = gather_frontier_edges(graph, frontier)
        unvisited = edges.destinations[levels[edges.destinations] == UNREACHED]
        frontier = np.unique(unvisited).astype(VERTEX_DTYPE)
        depth += 1
        levels[frontier] = depth
    return levels


def run_bfs(
    graph: CSRGraph,
    source: int,
    strategy: AccessStrategy = EMOGI_STRATEGY,
    system: SystemConfig | None = None,
    engine: TraversalEngine | None = None,
    relax_method: str | None = None,
) -> TraversalResult:
    """BFS from ``source`` under the given edge-list access strategy.

    ``relax_method`` picks the sweep backend as for
    :func:`~repro.traversal.multisource.run_batch`.
    """
    _check_source(graph, source)
    engine = engine or TraversalEngine(graph, strategy, system=system, needs_weights=False)
    word = BFSWord(graph, [source], relax_method)
    frontier, active_bits = word.start()
    depth = 0
    while frontier.size:
        starts, ends = frontier_offsets(graph, frontier)
        engine.process_frontier(frontier, starts, ends, native=word.native)
        depth += 1
        frontier, active_bits = word.sweep(frontier, active_bits, starts, ends, depth)
    return TraversalResult(
        application=Application.BFS,
        graph_name=graph.name,
        strategy=strategy,
        source=source,
        values=word.levels[0],
        metrics=engine.finalize(),
    )
