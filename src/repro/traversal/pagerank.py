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
accounts its traffic.  A run records its pass as a one-lane trace and prices
it afterwards: :func:`run_pagerank` is a one-request call of the run loop of
every application, :func:`repro.traversal.multisource._run_words`, whose
word is the pass and whose one lane is the source ``None``.
"""

from __future__ import annotations

import numpy as np

from ..config import SystemConfig
from ..errors import ConfigurationError
from ..graph.csr import CSRGraph
from ..types import AccessStrategy, Application, EMOGI_STRATEGY
from . import _native
from .engine import TraversalEngine, WordTrace, _iteration_checkpoint
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
        metrics: TraversalMetrics,
    ) -> None:
        self.graph_name = graph_name
        self.strategy = strategy
        self.values = scores
        self.iterations = iterations
        self.converged = converged
        self.metrics = metrics

    @property
    def seconds(self) -> float:
        return self.metrics.seconds

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
    return pagerank_sweep(
        graph,
        damping=damping,
        tolerance=tolerance,
        max_iterations=max_iterations,
        relax_method="scatter",
    )[0]


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

    ``engine`` (a :class:`TraversalEngine` or a baseline's drop-in) prices
    the run in place of one built for ``strategy`` / ``system``, and the
    result carries its strategy label.  ``relax_method`` picks the sweep
    backend as for :func:`pagerank_sweep`.
    """
    from .multisource import PackedLane, _run_words, request_columns

    outcome = _run_words(
        Application.PAGERANK, graph, *request_columns([PackedLane(None, strategy, system)]),
        None, relax_method, engine,
        damping=damping, tolerance=tolerance, max_iterations=max_iterations,
    )
    return outcome.results[0]


def pagerank_sweep(
    graph: CSRGraph,
    damping: float = 0.85,
    tolerance: float = 1e-6,
    max_iterations: int = 100,
    relax_method: str | None = None,
) -> tuple[np.ndarray, bool, WordTrace]:
    """Push-style power iteration, recording every iteration's frontier.

    Like :func:`repro.traversal.cc.cc_sweep`, the score evolution does not
    depend on the memory system: each iteration streams the whole edge list
    once and is recorded as the all-vertices frontier of a one-lane
    :class:`~repro.traversal.engine.WordTrace`, which is how the streaming
    batch prices one PageRank under many simulated platforms (a graph
    without vertices records no sweep, and prices to zero metrics).
    ``relax_method`` ``None`` or ``"native"`` pushes with
    ``repro_pagerank_step`` when it is available; ``"scatter"`` pushes with
    ``np.add.at``.  The two reductions (dangling mass and the L1 delta) are
    numpy's pairwise sums on both backends, so the scores are bit-identical.
    Returns ``(scores, converged, trace)``; the iterations are the trace's
    sweeps.
    """
    if not 0.0 < damping < 1.0:
        raise ConfigurationError("damping must lie strictly between 0 and 1")
    if tolerance <= 0.0:
        raise ConfigurationError("tolerance must be positive")
    if max_iterations <= 0:
        raise ConfigurationError("max_iterations must be positive")

    num_vertices = graph.num_vertices
    native = _native.wanted(relax_method)
    trace = WordTrace(1)
    if num_vertices == 0:
        return np.empty(0), True, trace

    degrees = graph.degrees().astype(np.float64)
    active = degrees > 0
    dangling = np.flatnonzero(~active)
    frontier = all_vertices_frontier(graph)
    lane_words = np.ones(num_vertices, dtype=np.uint64)
    scores = np.full(num_vertices, 1.0 / num_vertices)
    base = (1.0 - damping) / num_vertices
    if native:
        contribution = np.empty(num_vertices)
        spare = np.empty(num_vertices)
    else:
        sources = graph.edge_sources()

    iterations = 0
    converged = False
    while iterations < max_iterations and not converged:
        _iteration_checkpoint()
        trace.record(frontier, lane_words)
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
    return scores, converged, trace

