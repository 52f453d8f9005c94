"""Batched streaming traversals: one algorithm pass, many simulated platforms.

CC and PageRank are *streaming* applications: every vertex is active in the
first iteration (every iteration, for PageRank), and the frontier evolution
never depends on the simulated memory system.  That makes them batchable
along a different axis than BFS/SSSP — not across sources (they have none)
but across platforms: any number of (access-strategy, system-config)
requests share ONE algorithm execution.  PageRank's damping, tolerance and
iteration cap belong to the batch.

:func:`run_streaming_batch` is a front of the one run loop,
:func:`repro.traversal.multisource._run_words`: the pass is a word whose one
lane is the source ``None``, recorded as a one-lane
:class:`~repro.traversal.engine.WordTrace` and priced once by the engine of
each distinct configuration.  Every request's values *and* metrics are
therefore exactly what its solo :func:`~repro.traversal.cc.run_cc` /
:func:`~repro.traversal.pagerank.run_pagerank` would produce — those are
one-request calls of the same loop — while the algorithm's work is paid
once per batch instead of once per request.
"""

from __future__ import annotations

from ..errors import ConfigurationError
from ..graph.csr import CSRGraph
from ..types import AccessStrategy, Application
from .multisource import (
    MultiSourceResult, PackedLane, _run_words, batch_application, request_columns,
)


def normalize_lanes(lanes) -> list[PackedLane]:
    """Coerce a lane collection into source-free :class:`PackedLane` requests.

    Accepts :class:`PackedLane` instances, bare strategies (enum members
    or strings), and ``(strategy, system)`` pairs, in any mix.
    """
    normalized: list[PackedLane] = []
    for lane in lanes:
        if isinstance(lane, PackedLane):
            normalized.append(lane)
        elif isinstance(lane, (AccessStrategy, str)):
            normalized.append(PackedLane(None, lane))
        else:
            try:
                strategy, system = lane
            except (TypeError, ValueError):
                raise ConfigurationError(
                    f"cannot interpret {lane!r} as a streaming lane"
                ) from None
            normalized.append(PackedLane(None, strategy, system))
    if not normalized:
        raise ConfigurationError("run_streaming_batch needs at least one lane")
    return normalized


def run_streaming_batch(
    application,
    graph: CSRGraph,
    lanes,
    arena=None,
    damping: float = 0.85,
    tolerance: float = 1e-6,
    max_iterations: int = 100,
    relax_method: str | None = None,
) -> MultiSourceResult:
    """Run CC or PageRank once, priced on every platform lane.

    ``lanes`` is any collection :func:`normalize_lanes` accepts; the result
    holds one result per lane, in order, from a single word
    (``words == 1``).  Engines are leased from ``arena`` (an
    :class:`~repro.traversal.arena.EngineArena`) when given, else
    constructed, one per distinct configuration.  ``damping`` /
    ``tolerance`` / ``max_iterations`` apply to every lane of a PageRank
    batch.  ``relax_method`` picks the sweep backend as for
    :func:`~repro.traversal.cc.cc_sweep` /
    :func:`~repro.traversal.pagerank.pagerank_sweep`, and the pricing's.
    """
    application = batch_application(application, streaming=True)
    params = {}
    if application is Application.PAGERANK:
        params = dict(damping=damping, tolerance=tolerance, max_iterations=max_iterations)
    return _run_words(
        application, graph, *request_columns(normalize_lanes(lanes)), arena, relax_method,
        **params,
    )
