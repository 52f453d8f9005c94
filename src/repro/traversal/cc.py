"""Connected components via min-label propagation (§5.4).

Unlike BFS/SSSP there is no root vertex: every vertex starts active and the
whole edge list is streamed in the first iteration, which is why the paper
observes CC giving UVM relatively better performance (its access pattern is
close to a sequential stream with good page-level locality).  The paper
evaluates CC only on the undirected graphs (GK, GU, FS, ML).
"""

from __future__ import annotations

import numpy as np

from ..config import SystemConfig
from ..graph.csr import CSRGraph
from ..types import AccessStrategy, Application, EMOGI_STRATEGY, VERTEX_DTYPE
from . import _native
from .engine import TraversalEngine
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

    ``relax_method`` picks the sweep backend as for
    :func:`cc_sweep`.
    """
    engine = engine or TraversalEngine(graph, strategy, system=system, needs_weights=False)
    labels, _ = cc_sweep(graph, engines=(engine,), relax_method=relax_method)
    return TraversalResult(
        application=Application.CC,
        graph_name=graph.name,
        strategy=strategy,
        source=None,
        values=labels,
        metrics=engine.finalize(),
    )


def cc_sweep(
    graph: CSRGraph, engines=(), relax_method: str | None = None
) -> tuple[np.ndarray, int]:
    """Min-label propagation, driving every engine once per iteration.

    The label evolution is engine-independent (the engines only *account*
    memory traffic), so one shared algorithm pass can serve any number of
    simulated platforms: each iteration computes the frontier's CSR slices
    once and replays them into every engine.  This is what
    :func:`repro.traversal.streaming.run_streaming_batch` exploits to batch
    CC across access-strategy/system lanes.  ``relax_method`` ``None`` or
    ``"native"`` runs ``repro_cc_sweep`` when it is available; anything else
    runs the numpy sweep.  Returns ``(labels, iterations)``.
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
    iterations = 0
    max_iterations = max(1, num_vertices)
    while frontier.size and iterations < max_iterations:
        for engine in engines:
            engine.process_frontier(frontier, starts, ends, native=native)
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
    return labels, iterations

