"""Batched multi-source traversal (MS-BFS-style frontier sharing).

The paper's measurement protocol (§5.2) averages every experiment over 64
random source vertices, and the serving layer batches same-configuration
requests — yet a naive implementation still executes one full, independent
traversal per source, paying for every edge gather and every simulated
memory-system sweep once *per source*.

This module restructures the run around the batch instead: up to 64
distinct sources run together, one bit per source packed into a ``uint64``
word per vertex (the MS-BFS technique).  Each iteration expands the *union*
frontier once — one edge gather for every lane — and bitwise operations keep
every source's frontier evolution exactly what its solo run would have been:

* **BFS** propagates frontier bits with an OR-scatter over the frontier's
  edges; a vertex's newly set bits are exactly the sources whose solo BFS
  would discover it this iteration.  One sweep — the scatter, the visited
  update, the level writes and the next frontier — is one call of the
  compiled ``repro_bfs_sweep`` loop of :mod:`repro.traversal._native` when
  the host has a compiler, and a numpy
  sweep (the fallback, and the reference the tests pin the kernel against)
  otherwise.
* **SSSP** relaxes every lane's frontier edges in one shared pass: each
  iteration gathers every active lane's candidates along the union
  frontier's edges and min-reduces them per ``(destination, lane)`` of the
  vertex-major ``(num_vertices, lanes)`` distance matrix — one call of the
  compiled ``repro_sssp_sweep`` loop over the bit-packed words when the
  host has a compiler, the blocked numpy indexed-ufunc passes of
  :func:`repro.traversal.relax.relax_lanes` otherwise.  Both read the
  graph's float32 weights in place and add their exact float64 upcast.
  For each source the reduced candidate *multiset* is exactly the solo
  run's, and min over IEEE floats is exactly
  associative/commutative, so distances are bit-identical to
  :func:`repro.traversal.sssp.sssp_distances` — including float rounding —
  under every backend.  The kernel's touched-set output doubles as the next
  frontier, so no per-iteration ``np.unique`` or before/after probing is
  needed.

A native sweep is one C call: the word's
:class:`~repro.traversal.engine.WordTrace` is its frontier buffer, which the
kernel reads the sweep's frontier from and appends the next one to, so
Python runs one checkpoint and one call per sweep.

Every run of every application shares this module's one run loop,
:func:`_run_words`: :func:`repro.traversal.bfs.run_bfs`,
:func:`repro.traversal.sssp.run_sssp`, :func:`repro.traversal.cc.run_cc` and
:func:`repro.traversal.pagerank.run_pagerank` are calls of it with one
request, so every way of running a source executes the same loop and
kernels, and the ``REPRO_NATIVE=0`` numpy sweeps are the one fallback of
all of them.  The *streaming* applications (CC, PageRank) have no source:
their pass is a word whose one lane is the source ``None``, and it batches
along the platform axis only — one shared pass priced by each
configuration's engine (see :mod:`repro.traversal.streaming`).

Trace, then price: a word's sweeps touch no engine.  Each sweep records its
union frontier and lane words in a :class:`~repro.traversal.engine.WordTrace`
(one format for BFS and SSSP), and once the word has converged each distinct
configuration's engine prices the lanes it asked for from the trace with
:meth:`~repro.traversal.engine.TraversalEngine.price_lanes`.  A lane's
frontier at every sweep is exactly its solo run's, and it is priced alone —
zero-copy requests from its own rows of the request tables, UVM residency
replayed from a reset space over its own frontier sequence — so every lane's
:class:`~repro.traversal.results.TraversalMetrics` equal its solo run's bit
for bit, whichever other sources or configurations rode the word.

A lane is a source, not a request: the frontier sequence does not depend on
the access strategy or system (the paper's §5.2 protocol measures every
strategy on the same sources), so a source asked for under several
configurations — or several times under one — is traversed once, priced
once per configuration that asked for it, and fanned out to one result per
request.

The counter row is the record: an engine prices its lanes as one
:class:`~repro.traversal.results.LaneMetrics` column block, a request keeps
two integers (its lane and its row in its configuration's block), and each
request's result — its own copy of its lane's values, its row's metrics —
is built from them as soon as its word is priced.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import SystemConfig, system_key
from ..errors import ConfigurationError, SimulationError
from ..graph.csr import CSRGraph
from ..hotpath import hot_path
from ..types import AccessStrategy, Application, EMOGI_STRATEGY, VERTEX_DTYPE
from . import _native
from .arena import config_engines
from .cc import cc_sweep
from .engine import TraversalEngine, WordTrace, _iteration_checkpoint, _pricing_checkpoint
from .frontier import frontier_offsets, gather_frontier_destinations
from .pagerank import PageRankResult, pagerank_sweep
from .relax import relax_lanes
from .results import TraversalResult

#: Sources packed into one visited word (one bit per source lane).
WORD_BITS = 64

#: BFS level of a vertex never reached from the source.
UNREACHED = -1

#: SSSP distance of an unreachable vertex.
UNREACHABLE = np.inf

_ONE = np.uint64(1)


def source_vertex(source: object) -> int:
    """A source vertex as a plain ``int``: numpy integer scalars and
    integral floats are accepted; booleans, fractional floats and anything
    else raise :class:`ConfigurationError`."""
    if isinstance(source, (bool, np.bool_)):
        raise ConfigurationError(f"source vertex must be an integer, got {source!r}")
    if isinstance(source, (float, np.floating)):
        if not float(source).is_integer():
            raise ConfigurationError(
                f"source vertex must be integral, got {float(source)!r}"
            )
        return int(source)
    if isinstance(source, (int, np.integer)):
        return int(source)
    raise ConfigurationError(f"source vertex must be an integer, got {source!r}")


def normalize_application(application: Application | str) -> Application:
    """Coerce an application given as enum member or string ("bfs", "cc",
    ...); anything else raises :class:`ConfigurationError`."""
    try:
        return Application(application)
    except ValueError as exc:
        raise ConfigurationError(f"unknown application {application!r}") from exc


def normalize_strategy(strategy: AccessStrategy | str) -> AccessStrategy:
    """Coerce a strategy given as enum member or string ("uvm", "merged",
    ...); anything else raises :class:`ConfigurationError`."""
    try:
        return AccessStrategy(strategy)
    except ValueError as exc:
        raise ConfigurationError(f"unknown access strategy {strategy!r}") from exc


def normalize_source(application: Application | str, source: object) -> int | None:
    """Canonicalize a source vertex for one application.

    CC and PageRank are source-free, so whatever was passed collapses to
    ``None`` — this is what makes every such request on a graph *the same*
    request, which the serving layer relies on for deduplication and caching.
    BFS/SSSP require a source, normalized by :func:`source_vertex` to a
    plain hashable ``int``.
    """
    application = normalize_application(application)
    if application.is_streaming:
        return None
    if source is None:
        raise ConfigurationError(f"{application.value} requires a source vertex")
    return source_vertex(source)


@dataclass(frozen=True)
class PackedLane:
    """One request of a batch: a source plus the (strategy, system) it should
    be priced under.  A source vertex is normalized by :func:`source_vertex`;
    CC and PageRank requests carry the source ``None``.

    Requests of one source share its lane of the word, whatever their
    configurations."""

    source: int | None
    strategy: AccessStrategy = EMOGI_STRATEGY
    system: SystemConfig | None = None

    def __post_init__(self) -> None:
        if self.source is not None:
            object.__setattr__(self, "source", source_vertex(self.source))
        object.__setattr__(self, "strategy", normalize_strategy(self.strategy))

    def config_key(self) -> tuple:
        """Engine-sharing identity: requests with equal keys share one engine."""
        return (self.strategy, system_key(self.system))


@dataclass
class MultiSourceResult:
    """Outcome of one batched run.

    ``results`` holds one result per request, in request order, each with
    its solo run's values and metrics: a :class:`TraversalResult`, or a
    :class:`~repro.traversal.pagerank.PageRankResult` for PageRank.
    """

    application: Application
    graph_name: str
    results: list = field(default_factory=list)
    #: Shared algorithm executions performed (one per ≤64 distinct sources;
    #: one for a CC/PageRank pass).
    words: int = 0


def batch_application(application: Application | str, streaming: bool) -> Application:
    """``application`` as an :class:`Application`, checked against the
    family a batch front serves: BFS/SSSP (``streaming=False``) or CC/PageRank
    (``streaming=True``).  Anything else raises :class:`ConfigurationError`."""
    application = normalize_application(application)
    if application.is_streaming is not streaming:
        family = "cc and pagerank" if streaming else "bfs and sssp"
        raise ConfigurationError(
            f"this batch supports {family}, not {application.value}"
        )
    return application


def run_batch(
    application: Application | str,
    graph: CSRGraph,
    sources,
    strategy: AccessStrategy = EMOGI_STRATEGY,
    system: SystemConfig | None = None,
    engine: TraversalEngine | None = None,
    arena=None,
    relax_method: str | None = None,
) -> MultiSourceResult:
    """Run a batched multi-source traversal, chunking sources into 64-bit words.

    The one-configuration spelling of :func:`run_packed_batch`: every source
    is a request of the same ``(strategy, system)``, so one engine serves
    the whole batch — the caller's ``engine``, one leased from ``arena`` (an
    :class:`~repro.traversal.arena.EngineArena`), or a private one.  An
    integer array of sources is checked as one array; anything else source
    by source, by :func:`source_vertex`.

    ``relax_method`` selects the sweep backend (see
    :data:`repro.traversal.relax.RELAX_METHODS`): ``None`` and ``"native"``
    run the native word sweeps when they are available; ``"scatter"`` runs
    the numpy sweeps.  Every backend produces bit-identical per-source
    values and metrics, each source's equal to its solo run's.
    """
    if isinstance(sources, np.ndarray):
        sources = sources.ravel()
    if not (isinstance(sources, np.ndarray) and sources.dtype.kind in "iu"):
        sources = [None if source is None else source_vertex(source) for source in sources]
    application = batch_application(application, streaming=False)
    configs = [(normalize_strategy(strategy), system)]
    return _run_words(
        application, graph, sources, configs, [0] * len(sources), arena, relax_method, engine
    )


def run_packed_batch(
    application: Application | str,
    graph: CSRGraph,
    lanes,
    arena=None,
    relax_method: str | None = None,
) -> MultiSourceResult:
    """Run BFS/SSSP requests spanning *different* configurations together.

    What the fusion planner packs with: ``lanes`` are ``(source, strategy,
    system)`` requests; each distinct source is traversed once, in a word of
    up to 64 of them, and one engine per distinct configuration prices the
    sources that configuration asked for from the word's trace.  Frontier
    evolution is engine-independent, so each request's ``values`` and
    metrics are its solo run's regardless of what else rides along.
    """
    application = batch_application(application, streaming=False)
    requests = [
        lane if isinstance(lane, PackedLane) else PackedLane(*lane) for lane in lanes
    ]
    return _run_words(application, graph, *request_columns(requests), arena, relax_method)


def request_columns(requests: list[PackedLane]) -> tuple[list, list[tuple], list[int]]:
    """``requests`` as the run loop's columns: each one's source, the
    distinct ``(strategy, system)`` configurations in first-appearance
    order, and each one's index into them."""
    index: dict[tuple, int] = {}
    configs, config_of = [], []
    for request in requests:
        key = request.config_key()
        if key not in index:
            index[key] = len(configs)
            configs.append((request.strategy, request.system))
        config_of.append(index[key])
    return [request.source for request in requests], configs, config_of


def _run_words(
    application: Application,
    graph: CSRGraph,
    sources,
    configs: list[tuple],
    config_of: list[int],
    arena,
    relax_method: str | None,
    engine: TraversalEngine | None = None,
    **params,
) -> MultiSourceResult:
    """The one run loop of all four applications: behind :func:`run_batch`,
    :func:`run_packed_batch`,
    :func:`~repro.traversal.streaming.run_streaming_batch` and the
    one-request solo runs.

    Request ``i`` asks for ``sources[i]`` (an integer array, or a list of
    :func:`source_vertex` ints; CC and PageRank ignore it) priced under
    ``configs[config_of[i]]``, a ``(strategy, system)`` pair.  A lane is a
    distinct source: the sources (checked here for range, and a BFS/SSSP
    request without one refused) are deduplicated in first-appearance order
    and cut into words of ≤ 64 lanes; CC and PageRank have the one source
    ``None``.  Each word sweeps to convergence recording a
    :class:`~repro.traversal.engine.WordTrace`; then the engine of each
    configuration in the word prices, as one
    :class:`~repro.traversal.results.LaneMetrics` block, the distinct lanes
    its requests name, and each of the word's requests gets its own result
    from its lane's values and its row of that block, so requests repeating
    a source fan out from one lane.  Engines come from
    :func:`~repro.traversal.arena.config_engines`, once per configuration
    for the whole batch — ``engine`` (one-configuration batches only), a
    lease from ``arena``, or a private one; pricing reads none of an
    engine's accumulated state, so a reused one needs no reset.
    ``params`` go to the word runner (PageRank's damping, tolerance and
    iteration cap).
    """
    word_runner, needs_weights = _RUNNERS[application]
    if not config_of:
        raise ConfigurationError("a batch needs at least one lane")
    if application.is_streaming:
        distinct, lanes = [None], [0] * len(config_of)
    else:
        lane_of: dict[int, int] = {}
        checked = _checked_sources(application, graph, sources)
        lanes = [lane_of.setdefault(source, len(lane_of)) for source in checked]
        distinct = list(lane_of)
    # Each word's configurations, each with its distinct lanes in
    # first-appearance order (a request's row is its lane's index among its
    # configuration's), and each word's requests.
    asked: list[dict[int, dict[int, int]]] = [{} for _ in range(0, len(distinct), WORD_BITS)]
    by_word: list[list[int]] = [[] for _ in asked]
    row_of = []
    for index, (config, lane) in enumerate(zip(config_of, lanes)):
        word, lane_in_word = divmod(lane, WORD_BITS)
        rows = asked[word].setdefault(config, {})
        row_of.append(rows.setdefault(lane_in_word, len(rows)))
        by_word[word].append(index)
    results: list = [None] * len(config_of)
    native = _native.wanted(relax_method)
    with config_engines(graph, dict(enumerate(configs)), arena, engine, needs_weights) as engines:
        for word, word_asked in enumerate(asked):
            offset = word * WORD_BITS
            values, trace, relax_backend, converged = word_runner(
                graph, distinct[offset : offset + WORD_BITS], relax_method, **params
            )
            priced: dict[int, list] = {}
            for config, rows in word_asked.items():
                block = engines[config].price_lanes(trace, list(rows), relax_backend, native)
                priced[config] = list(block)
                _pricing_checkpoint()
            for index in by_word[word]:
                lane = lanes[index]
                metrics = priced[config_of[index]][row_of[index]]
                if application is Application.PAGERANK:
                    results[index] = PageRankResult(
                        graph.name, metrics.strategy, values[lane - offset].copy(),
                        iterations=trace.sweeps, converged=converged, metrics=metrics,
                    )
                else:
                    results[index] = TraversalResult(
                        application=application,
                        graph_name=graph.name,
                        strategy=metrics.strategy,
                        source=distinct[lane],
                        values=values[lane - offset].copy(),
                        metrics=metrics,
                    )
    return MultiSourceResult(application, graph.name, results, words=len(asked))


def _checked_sources(application: Application, graph: CSRGraph, sources) -> list[int]:
    """BFS/SSSP ``sources`` as plain ints once each is in range: an integer
    array is checked as one array; a list is checked in order, a missing
    source (``None``) refused."""
    if isinstance(sources, np.ndarray):
        outside = (sources < 0) | (sources >= graph.num_vertices)
        if outside.any():
            _check_source(graph, int(sources[outside.argmax()]))
        return sources.tolist()
    for source in sources:
        if source is None:
            raise ConfigurationError(f"{application.value} requires a source vertex")
        _check_source(graph, source)
    return sources


# ---------------------------------------------------------------------- #
# Word-level execution (≤64 sources)
#
# A word runner takes ``(graph, sources, relax_method, **params)``
# and returns ``(values, trace, relax_backend, converged)``: one row of
# values per lane, the word's trace, the relax backend that ran (``None``
# when the relax kernel did not) and whether the sweeps converged.
# ---------------------------------------------------------------------- #
@hot_path
def _bfs_word(
    graph: CSRGraph, word: list[int], relax_method: str | None = None
) -> tuple[np.ndarray, WordTrace, None, bool]:
    """Run one BFS word of ≤ 64 lanes; returns its ``(lanes, V)`` levels,
    its trace, no relax backend, and ``True``: a BFS always converges.

    Every O(V) array is allocated here, once per word, and reused by every
    sweep: the levels, the visited and scatter words, and the trace.
    ``relax_method`` ``None`` or ``"native"`` runs ``repro_bfs_sweep`` when
    it is available: each sweep is one call, which reads its frontier from
    the trace and appends the next one to it.  Anything else runs the numpy
    sweep.
    """
    num_vertices = graph.num_vertices
    lanes = len(word)
    levels = np.full((lanes, num_vertices), UNREACHED, dtype=np.int64)  # repro: noqa[REPRO101] — once per word, not per sweep
    visited_bits, next_bits = np.zeros((2, num_vertices), dtype=np.uint64)  # repro: noqa[REPRO101] — once per word, not per sweep
    for lane, source in enumerate(word):
        visited_bits[source] |= _ONE << np.uint64(lane)
        levels[lane, source] = 0
    # Depth 0: the frontier is the sources, and visited holds exactly their bits.
    frontier = np.flatnonzero(visited_bits).astype(VERTEX_DTYPE, copy=False)
    active_bits = visited_bits[frontier]
    trace = WordTrace(lanes, num_vertices)
    depth = 0
    if _native.wanted(relax_method):
        trace.append(frontier, active_bits)
        sweep = _native.bfs_sweep(
            trace, graph.offsets, graph.edges, next_bits, visited_bits, levels
        )
        while trace.pending:
            _iteration_checkpoint()
            depth += 1
            sweep(depth)
        return levels, trace, None, True
    while frontier.size:
        _iteration_checkpoint()
        trace.record(frontier, active_bits)
        starts, ends = frontier_offsets(graph, frontier)
        depth += 1
        frontier, active_bits = _bfs_sweep_numpy(
            graph, frontier, active_bits, starts, ends, next_bits,
            visited_bits, levels, depth,
        )
    return levels, trace, None, True


@hot_path
def _bfs_sweep_numpy(
    graph: CSRGraph,
    frontier: np.ndarray,
    active_bits: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    next_bits: np.ndarray,
    visited_bits: np.ndarray,
    levels: np.ndarray,
    depth: int,
) -> tuple[np.ndarray, np.ndarray]:
    """One BFS sweep in numpy: the fallback for, and reference of,
    ``repro_bfs_sweep`` (the same levels and next frontier, except that
    ``next_bits`` is zeroed here rather than on the way out, and the
    frontiers are the caller's arrays rather than the trace's).

    Returns the next frontier and its lane words.
    """
    lanes = levels.shape[0]
    degrees = ends - starts
    destinations = gather_frontier_destinations(graph, frontier, starts, ends)
    edge_bits = np.repeat(active_bits, degrees)
    next_bits = _scatter_or(destinations, edge_bits, out=next_bits)
    np.bitwise_and(next_bits, ~visited_bits, out=next_bits)
    visited_bits |= next_bits

    next_frontier = np.flatnonzero(next_bits).astype(VERTEX_DTYPE)
    next_active = next_bits[next_frontier]
    for lane in range(lanes):
        hit = _lane_mask(next_active, lane)
        if hit.any():
            levels[lane, next_frontier[hit]] = depth
    return next_frontier, next_active


@hot_path
def _sssp_word(
    graph: CSRGraph, word: list[int], relax_method: str | None = None
) -> tuple[np.ndarray, WordTrace, str, bool]:
    """Run one SSSP word of ≤ 64 lanes; returns its ``(lanes, V)`` distances,
    its trace, the relax backend that ran and whether it converged before
    the iteration cap.

    The weights are the graph's float32 list, read in place by both arms:
    each candidate adds a weight's exact float64 upcast, as the solo
    reference does.  ``relax_method`` ``None`` or ``"native"`` runs
    ``repro_sssp_sweep`` when it is available, one call per sweep as for
    BFS; anything else relaxes with the numpy
    :func:`~repro.traversal.relax.relax_lanes`.
    """
    num_vertices = graph.num_vertices
    lanes = len(word)
    # Vertex-major layout: one vertex's 64 lane distances share cache lines,
    # which is what makes the relaxation kernel's inner loop fast.  The
    # transposed view handed back at the end gives _run_words one row per
    # lane, as the BFS word's levels do.
    distances = np.full((num_vertices, lanes), UNREACHABLE, dtype=np.float64)  # repro: noqa[REPRO101] — once per word, not per sweep
    frontier_bits = np.zeros(num_vertices, dtype=np.uint64)  # repro: noqa[REPRO101] — once per word, not per sweep
    for lane, source in enumerate(word):
        frontier_bits[source] |= _ONE << np.uint64(lane)
        distances[source, lane] = 0.0
    frontier = np.flatnonzero(frontier_bits).astype(VERTEX_DTYPE, copy=False)
    trace = WordTrace(lanes, num_vertices)
    iterations = 0
    max_iterations = max(1, num_vertices)
    if _native.wanted(relax_method):
        trace.append(frontier, frontier_bits[frontier])
        frontier_bits[frontier] = 0  # the kernel's next_bits arrive zeroed
        snapshot = np.empty_like(distances)  # repro: noqa[REPRO101] — once per word, not per sweep
        sweep = _native.sssp_sweep(
            trace, graph.offsets, graph.edges, graph.weights, distances, snapshot,
            frontier_bits,
        )
        while trace.pending and iterations < max_iterations:
            _iteration_checkpoint()
            sweep()
            iterations += 1
        return distances.T, trace, "native", not trace.pending

    next_scratch = np.zeros(num_vertices, dtype=np.uint64)  # repro: noqa[REPRO101] — once per word, double-buffered below
    while frontier.size and iterations < max_iterations:
        _iteration_checkpoint()
        starts, ends = frontier_offsets(graph, frontier)
        active_bits = frontier_bits[frontier]
        trace.record(frontier, active_bits)
        # One lane-parallel relaxation sweep: every lane's candidates are
        # gathered from the shared CSR slices and min-reduced per
        # (lane, destination) in a single pass (see repro.traversal.relax).
        # The kernel's touched-set output IS the next frontier word array.
        next_bits = relax_lanes(
            distances, graph.edges, frontier, starts, ends, active_bits,
            weights=graph.weights, next_bits=next_scratch,
        )
        # Double-buffer: the consumed frontier word becomes next sweep's
        # scratch (zeroed inside relax_lanes).
        frontier_bits, next_scratch = next_bits, frontier_bits
        frontier = np.flatnonzero(frontier_bits).astype(VERTEX_DTYPE, copy=False)
        iterations += 1
    return distances.T, trace, "scatter", not frontier.size


def _cc_word(
    graph: CSRGraph, word: list[None], relax_method: str | None = None
) -> tuple[np.ndarray, WordTrace, None, bool]:
    """CC's pass as a word whose one lane is the source ``None``: its
    ``(1, V)`` labels, its one-lane trace, no relax backend, converged."""
    labels, trace = cc_sweep(graph, relax_method=relax_method)
    return labels[np.newaxis], trace, None, True


def _pagerank_word(
    graph: CSRGraph, word: list[None], relax_method: str | None = None, **params
) -> tuple[np.ndarray, WordTrace, None, bool]:
    """PageRank's pass as a one-lane word, as :func:`_cc_word`; ``params``
    are :func:`~repro.traversal.pagerank.pagerank_sweep`'s damping,
    tolerance and iteration cap."""
    scores, converged, trace = pagerank_sweep(graph, relax_method=relax_method, **params)
    return scores[np.newaxis], trace, None, converged


#: Each application's word runner, and whether its engines price edge weights.
_RUNNERS = {
    Application.BFS: (_bfs_word, False),
    Application.SSSP: (_sssp_word, True),
    Application.CC: (_cc_word, False),
    Application.PAGERANK: (_pagerank_word, False),
}


# ---------------------------------------------------------------------- #
# Internals
# ---------------------------------------------------------------------- #
def _check_source(graph: CSRGraph, source: int) -> None:
    if not 0 <= source < graph.num_vertices:
        raise SimulationError(
            f"source vertex {source} out of range for graph with "
            f"{graph.num_vertices} vertices"
        )


@hot_path
def _lane_mask(bits: np.ndarray, lane: int) -> np.ndarray:
    """Boolean mask of the entries whose ``lane`` bit is set."""
    return (bits >> np.uint64(lane)) & _ONE != 0


@hot_path
def _scatter_or(
    destinations: np.ndarray, bits: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """OR-scatter ``bits`` into the per-vertex word array ``out`` by destination.

    ``np.bitwise_or.at`` takes numpy's indexed-ufunc fast path for integer
    index arrays, which profiles an order of magnitude faster than sorting
    and segment-reducing the destinations at frontier-sweep sizes.  ``out`` is
    zeroed and reused, so the fixed-point caller pays no O(V) allocation per
    sweep.
    """
    out.fill(0)
    if destinations.size:
        np.bitwise_or.at(out, destinations, bits)
    return out
