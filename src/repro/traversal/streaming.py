"""Batched streaming traversals: one algorithm pass, many simulated platforms.

CC and PageRank are *streaming* applications: every vertex is active every
iteration, so each iteration reads the whole edge list exactly once and the
frontier evolution never depends on the simulated memory system.  That makes
them batchable along a different axis than BFS/SSSP — not across sources
(they have none) but across **platform lanes**: up to 64 distinct
(access-strategy, system-config) pairs share ONE algorithm execution per
word, with the shared per-iteration frontier slices replayed into each lane's
:class:`~repro.traversal.engine.TraversalEngine`.  A lane is nothing but
that pair: PageRank's damping, tolerance and iteration cap belong to the
batch, so CC and PageRank cut their lanes into words the same way.

Because the engines only account traffic, every lane's values *and* metrics
are exactly what its solo :func:`~repro.traversal.cc.run_cc` /
:func:`~repro.traversal.pagerank.run_pagerank` would produce — the streaming
analog of the multisource module's bit-identity guarantee — while the
algorithm's work (the dominant wall-clock cost) is paid once per word
instead of once per lane.  The union sweep is a pure win here: unlike SSSP
there is no per-lane masking at all, since every lane is active every
iteration.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from ..config import SystemConfig
from ..errors import ConfigurationError
from ..graph.csr import CSRGraph
from ..types import AccessStrategy, Application
from .cc import cc_sweep
from .engine import TraversalEngine
from .multisource import WORD_BITS
from .pagerank import PageRankResult, pagerank_sweep
from .results import TraversalResult

#: Streaming applications; "pagerank" is not a serving-layer Application,
#: so lanes are keyed by plain strings here.
STREAMING_APPLICATIONS = ("cc", "pagerank")


@dataclass(frozen=True)
class StreamingLane:
    """One platform configuration a streaming batch executes under.

    A lane is only its (strategy, system): PageRank's damping, tolerance and
    iteration cap are batch-level arguments of :func:`run_streaming_batch`,
    shared by every lane of the batch.
    """

    strategy: AccessStrategy
    system: SystemConfig | None = None


def normalize_lanes(lanes) -> list[StreamingLane]:
    """Coerce a lane collection into :class:`StreamingLane` objects.

    Accepts :class:`StreamingLane` instances, bare strategies (enum members
    or strings), and ``(strategy, system)`` pairs, in any mix.
    """
    normalized: list[StreamingLane] = []
    for lane in lanes:
        if isinstance(lane, StreamingLane):
            normalized.append(lane)
        elif isinstance(lane, (AccessStrategy, str)):
            normalized.append(StreamingLane(AccessStrategy(lane)))
        else:
            try:
                strategy, system = lane
            except (TypeError, ValueError):
                raise ConfigurationError(
                    f"cannot interpret {lane!r} as a streaming lane"
                ) from None
            normalized.append(StreamingLane(AccessStrategy(strategy), system))
    if not normalized:
        raise ConfigurationError("run_streaming_batch needs at least one lane")
    return normalized


@dataclass
class StreamingBatchResult:
    """Outcome of one batched streaming run.

    ``results`` holds one result per requested lane, in request order:
    :class:`~repro.traversal.results.TraversalResult` for CC,
    :class:`~repro.traversal.pagerank.PageRankResult` for PageRank — each
    carrying the values the shared execution produced and the *full* metrics
    of that lane's own engine (identical to a solo run's, not attributed
    shares: every lane sweeps the full stream in its own simulation).
    """

    application: str
    graph_name: str
    lanes: list[StreamingLane] = field(default_factory=list)
    results: list = field(default_factory=list)
    #: Algorithm executions performed (one per ≤64-lane word).
    words: int = 0

    @property
    def num_lanes(self) -> int:
        return len(self.results)


@contextmanager
def _lane_engines(graph: CSRGraph, word, arena):
    """Acquire one engine per lane in ``word``, releasing leases on exit."""
    engines: list[TraversalEngine] = []
    leased: list[TraversalEngine] = []
    try:
        for lane in word:
            if arena is not None:
                engine = arena.acquire(graph, lane.strategy, system=lane.system)
                leased.append(engine)  # repro: noqa[REPRO101] — O(lanes) bookkeeping, <= 64 per word
            else:
                engine = TraversalEngine(graph, lane.strategy, system=lane.system)
            engines.append(engine)  # repro: noqa[REPRO101] — O(lanes) bookkeeping, <= 64 per word
        yield engines
    finally:
        for engine in leased:
            arena.release(engine)


def run_streaming_batch(
    application,
    graph: CSRGraph,
    lanes,
    arena=None,
    damping: float = 0.85,
    tolerance: float = 1e-6,
    max_iterations: int = 100,
    relax_method: str | None = None,
) -> StreamingBatchResult:
    """Run CC or PageRank once per ≤64-lane word, fanned across platforms.

    ``lanes`` is any collection :func:`normalize_lanes` accepts.  Engines are
    leased from ``arena`` (an :class:`~repro.traversal.arena.EngineArena`)
    when given, else constructed per lane.  ``damping`` / ``tolerance`` /
    ``max_iterations`` apply to every lane of a PageRank batch.
    ``relax_method`` picks the sweep backend as for
    :func:`~repro.traversal.cc.cc_sweep` /
    :func:`~repro.traversal.pagerank.pagerank_sweep`.
    """
    application = (
        application.value if isinstance(application, Application) else str(application)
    )
    if application not in STREAMING_APPLICATIONS:
        raise ConfigurationError(
            f"streaming batches support {STREAMING_APPLICATIONS}, not {application!r}"
        )
    lane_list = normalize_lanes(lanes)
    outcome = StreamingBatchResult(application=application, graph_name=graph.name)
    outcome.lanes = lane_list
    for offset in range(0, len(lane_list), WORD_BITS):
        word = lane_list[offset : offset + WORD_BITS]
        with _lane_engines(graph, word, arena) as engines:
            if application == "cc":
                labels, _ = cc_sweep(graph, engines=engines, relax_method=relax_method)
                outcome.results.extend(
                    TraversalResult(
                        application=Application.CC,
                        graph_name=graph.name,
                        strategy=lane.strategy,
                        source=None,
                        values=labels.copy(),
                        metrics=engine.finalize(),
                    )
                    for lane, engine in zip(word, engines)
                )
            else:
                scores, iterations, converged = pagerank_sweep(
                    graph,
                    engines=engines,
                    damping=damping,
                    tolerance=tolerance,
                    max_iterations=max_iterations,
                    relax_method=relax_method,
                )
                outcome.results.extend(
                    PageRankResult(
                        graph_name=graph.name,
                        strategy=lane.strategy,
                        scores=scores.copy(),
                        iterations=iterations,
                        converged=converged,
                        # Solo run_pagerank reports no metrics for an
                        # empty graph (it never sweeps); stay identical.
                        metrics=engine.finalize() if graph.num_vertices else None,
                    )
                    for lane, engine in zip(word, engines)
                )
        outcome.words += 1
    return outcome
