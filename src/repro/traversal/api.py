"""Public traversal API.

These are the functions a downstream user calls: run BFS / SSSP / CC on a CSR
graph under one of the four edge-list access strategies, on a simulated
platform, and get back both the algorithm's output and the memory-system
metrics of the run.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..config import SystemConfig
from ..errors import ConfigurationError
from ..graph.csr import CSRGraph
from ..types import AccessStrategy, Application, EMOGI_STRATEGY
from .bfs import run_bfs
from .cc import run_cc
from .multisource import normalize_source, run_batch
from .results import AggregateResult, TraversalResult
from .sssp import run_sssp


def bfs(
    graph: CSRGraph,
    source: int,
    strategy: AccessStrategy = EMOGI_STRATEGY,
    system: SystemConfig | None = None,
) -> TraversalResult:
    """Breadth-first search from ``source``.

    Returns a :class:`~repro.traversal.results.TraversalResult` whose
    ``values`` array holds the BFS level of every vertex (-1 if unreachable)
    and whose ``metrics`` describe the simulated memory-system behaviour.
    """
    return run_bfs(graph, source, strategy=strategy, system=system)


def sssp(
    graph: CSRGraph,
    source: int,
    strategy: AccessStrategy = EMOGI_STRATEGY,
    system: SystemConfig | None = None,
) -> TraversalResult:
    """Single-source shortest paths from ``source`` (weights default to 1)."""
    return run_sssp(graph, source, strategy=strategy, system=system)


def cc(
    graph: CSRGraph,
    strategy: AccessStrategy = EMOGI_STRATEGY,
    system: SystemConfig | None = None,
) -> TraversalResult:
    """Connected components (undirected graphs); ``values`` holds labels."""
    return run_cc(graph, strategy=strategy, system=system)


def normalize_application(application: Application | str) -> Application:
    """Coerce an application given as enum member or string ("bfs", "cc", ...)."""
    return Application(application)


def normalize_strategy(strategy: AccessStrategy | str) -> AccessStrategy:
    """Coerce a strategy given as enum member or string ("uvm", "merged", ...)."""
    return AccessStrategy(strategy)


def normalize_deadline(deadline: object) -> float | None:
    """Canonicalize a serving deadline: seconds of latency budget, or None.

    Deadlines are *relative* (seconds from submission) so requests stay
    hashable and replayable; the serving layer converts them to absolute
    expiry times at admission.  Accepts any real number, returns a plain
    ``float`` so equal budgets compare equal regardless of the numeric type
    the client used.
    """
    if deadline is None:
        return None
    if isinstance(deadline, (bool, np.bool_)):
        raise ConfigurationError(f"deadline must be seconds, got {deadline!r}")
    try:
        seconds = float(deadline)
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"deadline must be seconds, got {deadline!r}"
        ) from None
    if not np.isfinite(seconds) or seconds <= 0:
        raise ConfigurationError(
            f"deadline must be a positive finite number of seconds, got {seconds!r}"
        )
    return seconds


def normalize_tenant(tenant: object) -> str | None:
    """Canonicalize a tenant label: a non-empty string, or None (anonymous)."""
    if tenant is None:
        return None
    if not isinstance(tenant, str) or not tenant:
        raise ConfigurationError(
            f"tenant must be a non-empty string, got {tenant!r}"
        )
    return tenant


def run(
    application: Application | str,
    graph: CSRGraph,
    source: int | None = None,
    strategy: AccessStrategy = EMOGI_STRATEGY,
    system: SystemConfig | None = None,
):
    """Dispatch to :func:`bfs`, :func:`sssp`, :func:`cc` or PageRank.

    PageRank returns a :class:`~repro.traversal.pagerank.PageRankResult`
    (module-default damping/tolerance); the other applications return a
    :class:`~repro.traversal.results.TraversalResult`.
    """
    application = normalize_application(application)
    source = normalize_source(application, source)
    strategy = normalize_strategy(strategy)
    if application is Application.CC:
        return cc(graph, strategy=strategy, system=system)
    if application is Application.PAGERANK:
        from .pagerank import run_pagerank

        return run_pagerank(graph, strategy=strategy, system=system)
    if application is Application.BFS:
        return bfs(graph, source, strategy=strategy, system=system)
    return sssp(graph, source, strategy=strategy, system=system)


def run_streaming(
    application: Application | str,
    graph: CSRGraph,
    lanes,
    arena=None,
    **kwargs,
):
    """Run CC or PageRank once, fanned across platform lanes (§5.4 batched).

    ``lanes`` is a collection of access strategies or ``(strategy, system)``
    pairs (see :func:`repro.traversal.streaming.normalize_lanes`).  The
    algorithm executes once per ≤64-lane word; every lane's values and
    metrics are identical to its solo run.  Returns a
    :class:`~repro.traversal.streaming.StreamingBatchResult`.
    """
    from .streaming import run_streaming_batch

    return run_streaming_batch(application, graph, lanes, arena=arena, **kwargs)


def run_average(
    application: Application | str,
    graph: CSRGraph,
    sources: Iterable[int] | np.ndarray,
    strategy: AccessStrategy = EMOGI_STRATEGY,
    system: SystemConfig | None = None,
) -> AggregateResult:
    """Run one application over several sources and aggregate (§5.2).

    The paper averages execution times over 64 randomly chosen sources; CC is
    source-free, so it is executed once regardless of how many sources are
    passed.

    BFS/SSSP sources run through :func:`repro.traversal.multisource.run_batch`:
    up to 64 of them share one word's sweeps, and each source's values and
    metrics are its solo :func:`run`'s bit for bit, so the aggregate is the
    paper's average over fully independent per-source runs.  CC and
    PageRank run once through
    :func:`repro.traversal.streaming.run_streaming_batch`.
    """
    from .streaming import run_streaming_batch

    application = normalize_application(application)
    strategy = normalize_strategy(strategy)
    aggregate = AggregateResult(
        application=application, graph_name=graph.name, strategy=strategy
    )
    if application.is_streaming:
        outcome = run_streaming_batch(application.value, graph, [(strategy, system)])
        aggregate.add(outcome.results[0])
        return aggregate
    normalized = [normalize_source(application, source) for source in sources]
    if not normalized:
        raise ConfigurationError(
            f"{application.value} needs at least one source to average over"
        )
    outcome = run_batch(application, graph, normalized, strategy=strategy, system=system)
    for result in outcome.results:
        aggregate.add(result)
    return aggregate
