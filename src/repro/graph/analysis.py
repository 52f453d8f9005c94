"""Graph statistics used by the paper's motivation and Figure 6.

The paper motivates zero-copy with the observation that, across 1122 graphs,
the average vertex degree is ~71 elements — enough spatial locality for
128-byte requests but far short of the 512-1024 elements needed to make a 4KB
UVM page migration efficient (§1, §4.1).  Figure 6 plots, for each evaluation
graph, the cumulative fraction of *edges* that belong to vertices of at most a
given degree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csr import CSRGraph


@dataclass(frozen=True)
class DegreeStats:
    """Summary statistics of a graph's degree distribution."""

    num_vertices: int
    num_edges: int
    average_degree: float
    median_degree: float
    max_degree: int
    min_degree: int
    std_degree: float


def degree_stats(graph: CSRGraph) -> DegreeStats:
    """Compute :class:`DegreeStats` for a graph."""
    degrees = graph.degrees()
    if degrees.size == 0:
        return DegreeStats(0, 0, 0.0, 0.0, 0, 0, 0.0)
    return DegreeStats(
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        average_degree=float(degrees.mean()),
        median_degree=float(np.median(degrees)),
        max_degree=int(degrees.max()),
        min_degree=int(degrees.min()),
        std_degree=float(degrees.std()),
    )


def degree_histogram(graph: CSRGraph) -> tuple[np.ndarray, np.ndarray]:
    """``(degree values, vertex counts)`` for every degree present in the graph."""
    degrees = graph.degrees()
    values, counts = np.unique(degrees, return_counts=True)
    return values, counts


def edge_cdf_by_degree(
    graph: CSRGraph, max_degree: int | None = None, num_points: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative fraction of edges owned by vertices of degree <= d (Figure 6).

    Returns ``(degree_axis, cdf)`` where ``cdf[i]`` is the fraction of all
    edge-list entries whose source vertex has degree at most
    ``degree_axis[i]``.  ``max_degree`` truncates the x axis (the paper cuts
    it at 96); ``num_points`` optionally resamples the axis to a fixed length.
    """
    degrees = graph.degrees()
    if graph.num_edges == 0:
        return np.array([0]), np.array([0.0])
    values, counts = np.unique(degrees, return_counts=True)
    edges_per_degree = values * counts
    cdf = np.cumsum(edges_per_degree) / graph.num_edges
    if max_degree is not None:
        keep = values <= max_degree
        values, cdf = values[keep], cdf[keep]
    if num_points is not None and values.size:
        axis = np.linspace(0, values.max(), num_points)
        resampled = np.interp(axis, values, cdf, left=0.0)
        return axis, resampled
    return values.astype(np.int64), cdf


def fraction_of_edges_in_degree_range(graph: CSRGraph, low: int, high: int) -> float:
    """Fraction of edges whose source vertex degree lies in ``[low, high]``."""
    degrees = graph.degrees()
    if graph.num_edges == 0:
        return 0.0
    mask = (degrees >= low) & (degrees <= high)
    return float((degrees[mask]).sum() / graph.num_edges)


def neighbor_list_alignment_fraction(graph: CSRGraph, boundary_bytes: int = 128) -> float:
    """Fraction of neighbor lists whose first element is boundary-aligned.

    §5.3.1 notes that with 8-byte elements only ~6.25% of neighbor lists start
    exactly on a 128-byte boundary, which is why the alignment optimization
    matters.
    """
    if graph.num_vertices == 0:
        return 0.0
    starts_bytes = graph.offsets[:-1] * graph.element_bytes
    aligned = starts_bytes % boundary_bytes == 0
    nonempty = graph.degrees() > 0
    if nonempty.sum() == 0:
        return 0.0
    return float(aligned[nonempty].sum() / nonempty.sum())


def expected_sectors_per_neighbor_list(graph: CSRGraph, sector_bytes: int = 32) -> float:
    """Average number of 32-byte sectors spanned by one neighbor list."""
    if graph.num_vertices == 0:
        return 0.0
    starts = graph.offsets[:-1] * graph.element_bytes
    ends = graph.offsets[1:] * graph.element_bytes
    nonempty = ends > starts
    if not np.any(nonempty):
        return 0.0
    first = starts[nonempty] // sector_bytes
    last = (ends[nonempty] - 1) // sector_bytes
    return float((last - first + 1).mean())
