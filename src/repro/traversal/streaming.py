"""Batched streaming traversals: one algorithm pass, many simulated platforms.

CC and PageRank are *streaming* applications: every vertex is active in the
first iteration (every iteration, for PageRank), and the frontier evolution
never depends on the simulated memory system.  That makes them batchable
along a different axis than BFS/SSSP — not across sources (they have none)
but across **platform lanes**: any number of (access-strategy,
system-config) pairs share ONE algorithm execution.  A lane is nothing but
that pair: PageRank's damping, tolerance and iteration cap belong to the
batch.

Trace, then price, as a BFS/SSSP word does: the pass records each
iteration's frontier in a one-lane
:class:`~repro.traversal.engine.WordTrace`, and the engine of each distinct
configuration prices that lane once with
:meth:`~repro.traversal.engine.TraversalEngine.price_lanes`.  Every lane's
values *and* metrics are therefore exactly what its solo
:func:`~repro.traversal.cc.run_cc` /
:func:`~repro.traversal.pagerank.run_pagerank` would produce — those are
one-lane calls of the same loop — while the algorithm's work is paid once
per batch instead of once per lane.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import SystemConfig, system_key
from ..errors import ConfigurationError
from ..graph.csr import CSRGraph
from ..types import AccessStrategy, Application
from . import _native
from .arena import config_engines
from .cc import cc_sweep
from .engine import TraversalEngine, _pricing_checkpoint
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

    def config_key(self) -> tuple:
        """Engine-sharing identity: lanes with equal keys share one pricing."""
        return (self.strategy, system_key(self.system))


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
    carrying its own copy of the values the shared pass produced and the
    metrics of that lane's configuration pricing the pass (identical to a
    solo run's).
    """

    application: str
    graph_name: str
    lanes: list[StreamingLane] = field(default_factory=list)
    results: list = field(default_factory=list)


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
    """Run CC or PageRank once, priced on every platform lane.

    ``lanes`` is any collection :func:`normalize_lanes` accepts.  Engines are
    leased from ``arena`` (an :class:`~repro.traversal.arena.EngineArena`)
    when given, else constructed, one per distinct configuration.
    ``damping`` / ``tolerance`` / ``max_iterations`` apply to every lane of
    a PageRank batch.  ``relax_method`` picks the sweep backend as for
    :func:`~repro.traversal.cc.cc_sweep` /
    :func:`~repro.traversal.pagerank.pagerank_sweep`, and the pricing's.
    """
    application = (
        application.value if isinstance(application, Application) else str(application)
    )
    if application not in STREAMING_APPLICATIONS:
        raise ConfigurationError(
            f"streaming batches support {STREAMING_APPLICATIONS}, not {application!r}"
        )
    return _run_pass(
        application, graph, normalize_lanes(lanes), arena, relax_method,
        damping=damping, tolerance=tolerance, max_iterations=max_iterations,
    )


def _run_pass(
    application: str,
    graph: CSRGraph,
    lanes: list[StreamingLane],
    arena,
    relax_method: str | None,
    engine: TraversalEngine | None = None,
    **pagerank_params,
) -> StreamingBatchResult:
    """The one CC/PageRank run loop: behind :func:`run_streaming_batch`,
    :func:`~repro.traversal.cc.run_cc` and
    :func:`~repro.traversal.pagerank.run_pagerank`.

    The pass runs once for every lane, recording a one-lane trace; then the
    engine of each distinct configuration, in first-appearance order,
    prices the trace's lane ``0``.  Every lane gets its own result, so
    lanes repeating a configuration fan out from one pricing, each with its
    own copy of the values.  Engines come from
    :func:`~repro.traversal.arena.config_engines` — ``engine``
    (one-configuration runs only), a lease from ``arena``, or a private
    one.  An empty graph's PageRank never sweeps, so it has no metrics.
    """
    native = _native.wanted(relax_method)
    configs: dict[tuple, tuple] = {}
    for lane in lanes:
        configs.setdefault(lane.config_key(), (lane.strategy, lane.system))
    with config_engines(graph, configs, arena, engine) as engines:
        if application == "cc":
            values, trace = cc_sweep(graph, relax_method=relax_method)
        else:
            values, converged, trace = pagerank_sweep(
                graph, relax_method=relax_method, **pagerank_params
            )
        priced = {}
        for key, config_engine in engines.items():
            priced[key] = config_engine.price_lanes(trace, [0], None, native)[0]
            _pricing_checkpoint()
    outcome = StreamingBatchResult(application, graph.name, lanes)
    for lane in lanes:
        metrics = priced[lane.config_key()]
        if application == "cc":
            result = TraversalResult(
                application=Application.CC,
                graph_name=graph.name,
                strategy=lane.strategy,
                source=None,
                values=values.copy(),
                metrics=metrics,
            )
        else:
            result = PageRankResult(
                graph.name,
                lane.strategy,
                values.copy(),
                iterations=len(trace.frontiers),
                converged=converged,
                metrics=metrics if graph.num_vertices else None,
            )
        outcome.results.append(result)
    return outcome
