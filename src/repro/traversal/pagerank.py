"""PageRank on the EMOGI memory system (extension beyond the paper's apps).

The paper motivates EMOGI with analytics and recommendation workloads; BFS,
SSSP and CC are the applications it evaluates, but the same zero-copy edge-
list access pattern serves any vertex-centric computation.  PageRank is the
canonical example of the *streaming* class (like CC, every vertex is active
every iteration, so the whole edge list crosses the interconnect once per
iteration), and is included here both as a usable algorithm and as an extra
data point for the "UVM does comparatively better on streaming workloads"
observation of §5.4.

The implementation is push-style power iteration on out-edges, which matches
how the edge list is laid out in CSR and therefore how the traversal engine
accounts its traffic.
"""

from __future__ import annotations

import numpy as np

from ..config import SystemConfig
from ..errors import ConfigurationError
from ..graph.csr import CSRGraph
from ..types import AccessStrategy, EMOGI_STRATEGY
from . import _native
from .engine import TraversalEngine
from .frontier import all_vertices_frontier
from .results import TraversalMetrics


class PageRankResult:
    """Scores plus the memory-system metrics of the run that produced them."""

    def __init__(
        self,
        graph_name: str,
        strategy: AccessStrategy,
        scores: np.ndarray,
        iterations: int,
        converged: bool,
        metrics: TraversalMetrics | None,
    ) -> None:
        self.graph_name = graph_name
        self.strategy = strategy
        self.values = scores
        self.iterations = iterations
        self.converged = converged
        self.metrics = metrics

    @property
    def seconds(self) -> float:
        return self.metrics.seconds if self.metrics is not None else 0.0

    def top_vertices(self, count: int = 10) -> np.ndarray:
        """Vertex IDs with the highest PageRank, best first."""
        count = min(count, self.values.size)
        order = np.argsort(-self.values, kind="stable")
        return order[:count]


def pagerank_scores(
    graph: CSRGraph,
    damping: float = 0.85,
    tolerance: float = 1e-6,
    max_iterations: int = 100,
) -> np.ndarray:
    """Reference PageRank without memory simulation (used by tests).

    Always the numpy sweep, so a native kernel bug cannot hide in its own
    reference.
    """
    return _pagerank(
        graph, None, EMOGI_STRATEGY, damping, tolerance, max_iterations, "scatter"
    ).values


def run_pagerank(
    graph: CSRGraph,
    strategy: AccessStrategy = EMOGI_STRATEGY,
    system: SystemConfig | None = None,
    damping: float = 0.85,
    tolerance: float = 1e-6,
    max_iterations: int = 100,
    engine: TraversalEngine | None = None,
    relax_method: str | None = None,
) -> PageRankResult:
    """PageRank under the given edge-list access strategy.

    ``relax_method`` picks the sweep backend as for :func:`pagerank_sweep`.
    """
    engine = engine or TraversalEngine(graph, strategy, system=system, needs_weights=False)
    return _pagerank(
        graph, engine, strategy, damping, tolerance, max_iterations, relax_method
    )


def pagerank_sweep(
    graph: CSRGraph,
    engines=(),
    damping: float = 0.85,
    tolerance: float = 1e-6,
    max_iterations: int = 100,
    relax_method: str | None = None,
) -> tuple[np.ndarray, int, bool]:
    """Push-style power iteration, driving every engine once per iteration.

    Like :func:`repro.traversal.cc.cc_sweep`, the score evolution is
    engine-independent: each iteration streams the whole edge list once for
    the algorithm and replays the all-vertices frontier into every attached
    engine, which is how the streaming batch runs one PageRank under many
    simulated platforms.  ``relax_method`` ``None`` or ``"native"`` pushes
    with ``repro_pagerank_step`` when it is available; anything else pushes
    with ``np.add.at``.  The two reductions (dangling mass and the L1 delta)
    are numpy's pairwise sums on both backends, so the scores are
    bit-identical.  Returns ``(scores, iterations, converged)``.
    """
    if not 0.0 < damping < 1.0:
        raise ConfigurationError("damping must lie strictly between 0 and 1")
    if tolerance <= 0.0:
        raise ConfigurationError("tolerance must be positive")
    if max_iterations <= 0:
        raise ConfigurationError("max_iterations must be positive")

    num_vertices = graph.num_vertices
    if num_vertices == 0:
        return np.empty(0), 0, True

    degrees = graph.degrees().astype(np.float64)
    active = degrees > 0
    dangling = np.flatnonzero(~active)
    frontier = all_vertices_frontier(graph)
    # Every iteration's frontier is every vertex: its slices are the offsets.
    starts, ends = graph.offsets[:-1], graph.offsets[1:]
    scores = np.full(num_vertices, 1.0 / num_vertices)
    base = (1.0 - damping) / num_vertices
    native = relax_method in (None, "native") and _native.available()
    if native:
        contribution = np.empty(num_vertices)
        spare = np.empty(num_vertices)
    else:
        sources = graph.edge_sources()

    iterations = 0
    converged = False
    while iterations < max_iterations and not converged:
        for engine in engines:
            engine.process_frontier(frontier, starts, ends)
        dangling_mass = scores[dangling].sum() / num_vertices
        if native:
            new_scores = spare
            _native.pagerank_step(
                graph.offsets, graph.edges, degrees, scores, contribution,
                new_scores, base, damping, float(dangling_mass),
            )
        else:
            contribution = np.zeros(num_vertices)
            per_edge = np.zeros(num_vertices)
            per_edge[active] = scores[active] / degrees[active]
            np.add.at(contribution, graph.edges, per_edge[sources])
            new_scores = base + damping * (contribution + dangling_mass)
        delta = float(np.abs(new_scores - scores).sum())
        scores, spare = new_scores, scores
        iterations += 1
        converged = delta < tolerance
    return scores, iterations, converged


def _pagerank(
    graph: CSRGraph,
    engine: TraversalEngine | None,
    strategy: AccessStrategy,
    damping: float,
    tolerance: float,
    max_iterations: int,
    relax_method: str | None = None,
) -> PageRankResult:
    scores, iterations, converged = pagerank_sweep(
        graph,
        engines=() if engine is None else (engine,),
        damping=damping,
        tolerance=tolerance,
        max_iterations=max_iterations,
        relax_method=relax_method,
    )
    if graph.num_vertices == 0:
        return PageRankResult(graph.name, strategy, scores, iterations, converged, None)
    metrics = engine.finalize() if engine is not None else None
    return PageRankResult(graph.name, strategy, scores, iterations, converged, metrics)
