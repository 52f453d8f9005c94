"""Frontier (active vertex set) utilities for vertex-centric traversal.

Algorithm 1 of the paper structures every traversal as repeated expansion of
an *active vertex* set; these helpers manage that set and gather the edges it
owns in a single vectorized pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..arrays import ragged_gather_indices
from ..errors import SimulationError
from ..graph.csr import CSRGraph
from ..hotpath import hot_path
from ..types import VERTEX_DTYPE


@dataclass(frozen=True)
class FrontierEdges:
    """All edges owned by the current frontier, in edge-list order."""

    sources: np.ndarray
    destinations: np.ndarray
    edge_indices: np.ndarray

    @property
    def num_edges(self) -> int:
        return self.destinations.size


def as_frontier(vertices: np.ndarray | list[int]) -> np.ndarray:
    """Normalize a vertex collection into a sorted unique int64 array."""
    array = np.asarray(vertices, dtype=VERTEX_DTYPE).ravel()
    return np.unique(array)


def frontier_from_mask(mask: np.ndarray) -> np.ndarray:
    """Active vertex IDs from a boolean per-vertex mask."""
    mask = np.asarray(mask, dtype=bool).ravel()
    return np.flatnonzero(mask).astype(VERTEX_DTYPE)


@hot_path
def frontier_offsets(
    graph: CSRGraph, frontier: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Validated ``(starts, ends)`` edge-list offsets for a frontier.

    Computing these once per iteration and passing them to both the sweep
    kernel and the gather helpers avoids indexing ``graph.offsets`` twice
    per iteration.
    """
    frontier = np.asarray(frontier, dtype=VERTEX_DTYPE).ravel()
    if frontier.size and (frontier.min() < 0 or frontier.max() >= graph.num_vertices):
        raise SimulationError("frontier contains invalid vertex IDs")
    return graph.offsets[frontier], graph.offsets[frontier + 1]


@hot_path
def gather_frontier_edges(
    graph: CSRGraph,
    frontier: np.ndarray,
    starts: np.ndarray | None = None,
    ends: np.ndarray | None = None,
) -> FrontierEdges:
    """Collect every edge whose source vertex is in the frontier.

    ``starts``/``ends`` may carry precomputed ``frontier_offsets`` so callers
    that already paid for the offsets gather do not pay again.
    """
    frontier = np.asarray(frontier, dtype=VERTEX_DTYPE).ravel()
    if starts is None or ends is None:
        starts, ends = frontier_offsets(graph, frontier)
    lengths = ends - starts
    edge_indices = ragged_gather_indices(starts, lengths)
    sources = np.repeat(frontier, lengths)
    destinations = graph.edges[edge_indices]
    return FrontierEdges(
        sources=sources, destinations=destinations, edge_indices=edge_indices
    )


@hot_path
def gather_frontier_destinations(
    graph: CSRGraph,
    frontier: np.ndarray,
    starts: np.ndarray | None = None,
    ends: np.ndarray | None = None,
) -> np.ndarray:
    """Destination vertices of the frontier's edges, in edge-list order.

    The BFS fast path: unlike :func:`gather_frontier_edges` it never
    materializes the per-edge ``sources`` or hands out ``edge_indices`` —
    BFS only ever reads the destinations.
    """
    if starts is None or ends is None:
        starts, ends = frontier_offsets(graph, frontier)
    return graph.edges[ragged_gather_indices(starts, ends - starts)]


def all_vertices_frontier(graph: CSRGraph) -> np.ndarray:
    """The frontier used by CC: every vertex starts active (§5.4)."""
    return np.arange(graph.num_vertices, dtype=VERTEX_DTYPE)
