"""Connected components via min-label propagation (§5.4).

Unlike BFS/SSSP there is no root vertex: every vertex starts active and the
whole edge list is streamed in the first iteration, which is why the paper
observes CC giving UVM relatively better performance (its access pattern is
close to a sequential stream with good page-level locality).  The paper
evaluates CC only on the undirected graphs (GK, GU, FS, ML).  A run records
its pass as a one-lane trace and prices it afterwards: :func:`run_cc` is a
one-request call of the run loop of every application,
:func:`repro.traversal.multisource._run_words`, whose word is the pass and
whose one lane is the source ``None``.
"""

from __future__ import annotations

import numpy as np

from ..config import SystemConfig
from ..graph.csr import CSRGraph
from ..types import AccessStrategy, Application, EMOGI_STRATEGY, VERTEX_DTYPE
from . import _native
from .engine import TraversalEngine, WordTrace, _iteration_checkpoint
from .frontier import all_vertices_frontier, frontier_offsets, gather_frontier_edges
from .results import TraversalResult


def cc_labels(graph: CSRGraph) -> np.ndarray:
    """Reference component labels without memory simulation.

    Always the numpy sweep, so a native kernel bug cannot hide in its own
    reference.
    """
    return cc_sweep(graph, relax_method="scatter")[0]


def run_cc(
    graph: CSRGraph,
    strategy: AccessStrategy = EMOGI_STRATEGY,
    system: SystemConfig | None = None,
    engine: TraversalEngine | None = None,
    relax_method: str | None = None,
) -> TraversalResult:
    """Connected components under the given edge-list access strategy.

    ``engine`` (a :class:`TraversalEngine` or a baseline's drop-in) prices
    the run in place of one built for ``strategy`` / ``system``, and the
    result carries its strategy label.  ``relax_method`` picks the sweep
    backend as for :func:`cc_sweep`.
    """
    from .multisource import PackedLane, _run_words, request_columns

    lane = PackedLane(None, strategy, system)
    return _run_words(
        Application.CC, graph, *request_columns([lane]), None, relax_method, engine
    ).results[0]


def cc_sweep(
    graph: CSRGraph, relax_method: str | None = None
) -> tuple[np.ndarray, WordTrace]:
    """Min-label propagation, recording every iteration's frontier.

    The label evolution does not depend on the memory system, so the pass
    is recorded once as a one-lane
    :class:`~repro.traversal.engine.WordTrace` (lane word 1 on every
    frontier vertex) that any number of engines price afterwards; this is
    what :func:`repro.traversal.streaming.run_streaming_batch` exploits to
    batch CC across access-strategy/system requests.  ``relax_method`` ``None``
    or ``"native"`` runs ``repro_cc_sweep`` when it is available;
    ``"scatter"`` runs the numpy sweep.  Returns ``(labels, trace)``; the
    iterations are the trace's sweeps.
    """
    num_vertices = graph.num_vertices
    labels = np.arange(num_vertices, dtype=np.int64)
    frontier = all_vertices_frontier(graph)
    # The first frontier is every vertex: its slices are the offsets
    # themselves, no gather needed.
    starts, ends = graph.offsets[:-1], graph.offsets[1:]
    native = _native.wanted(relax_method)
    if native:
        previous = np.empty_like(labels)
        # Two frontier slots: the kernel never writes the one it reads.
        slots = np.empty((2, num_vertices), dtype=VERTEX_DTYPE)
    lane_words = np.ones(num_vertices, dtype=np.uint64)
    trace = WordTrace(1)
    iterations = 0
    max_iterations = max(1, num_vertices)
    while frontier.size and iterations < max_iterations:
        _iteration_checkpoint()
        trace.record(frontier, lane_words[: frontier.size])
        if native:
            slot = slots[iterations % 2]
            size = _native.cc_sweep(
                frontier, starts, ends, graph.edges, labels, previous, slot
            )
            frontier = slot[:size]
        else:
            edges = gather_frontier_edges(graph, frontier, starts, ends)
            previous = labels.copy()
            np.minimum.at(labels, edges.destinations, labels[edges.sources])
            frontier = np.flatnonzero(labels < previous).astype(VERTEX_DTYPE)
        iterations += 1
        starts, ends = frontier_offsets(graph, frontier)
    return labels, trace
