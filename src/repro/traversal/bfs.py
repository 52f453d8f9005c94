"""Breadth-first search (the paper's primary case study, §5.3).

The implementation follows the vertex-centric, scatter-style flow of
Algorithm 1: every iteration expands the current frontier by scanning each
active vertex's full neighbor list, marking unvisited neighbors as the next
frontier.  One iteration corresponds to one kernel launch, so the number of
kernels equals the BFS depth (§4.2).  A solo run is a one-request call of
:func:`~repro.traversal.multisource._run_words`, the one run loop of all four
applications, where a lane is one distinct source priced under every
configuration that asked for it.
"""

from __future__ import annotations

import numpy as np

from ..config import SystemConfig
from ..graph.csr import CSRGraph
from ..types import AccessStrategy, Application, EMOGI_STRATEGY, VERTEX_DTYPE
from .engine import TraversalEngine
from .frontier import gather_frontier_edges
from .multisource import UNREACHED, PackedLane, _check_source, _run_words, request_columns
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

    ``engine`` (a :class:`TraversalEngine` or a baseline's drop-in) prices
    the run in place of one built for ``strategy`` / ``system``, and the
    result carries its strategy label.  ``relax_method`` picks the sweep
    backend as for :func:`~repro.traversal.multisource.run_batch`.
    """
    lane = PackedLane(source, strategy, system)
    return _run_words(
        Application.BFS, graph, *request_columns([lane]), None, relax_method, engine
    ).results[0]
