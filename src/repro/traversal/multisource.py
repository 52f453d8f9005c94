"""Batched multi-source traversal (MS-BFS-style frontier sharing).

The paper's measurement protocol (§5.2) averages every experiment over 64
random source vertices, and the serving layer batches same-configuration
requests — yet a naive implementation still executes one full, independent
traversal per source, paying for every edge gather and every simulated
memory-system sweep once *per source*.

This module restructures the run around the batch instead: up to 64
sources run together, one bit per source packed into a ``uint64`` word per
vertex (the MS-BFS technique).  Each iteration expands the *union* frontier
once — one edge gather for every lane — and bitwise operations keep every
source's frontier evolution exactly what its solo run would have been:

* **BFS** propagates frontier bits with an OR-scatter over the frontier's
  edges; a vertex's newly set bits are exactly the sources whose solo BFS
  would discover it this iteration.  One sweep — the scatter, the visited
  update, the level writes and the next frontier — is one call of the
  compiled ``repro_bfs_word`` loop of :mod:`repro.traversal._native` when
  the host has a compiler, and a numpy
  sweep (the fallback, and the reference the tests pin the kernel against)
  otherwise.
* **SSSP** runs on the lane-parallel relaxation kernel of
  :mod:`repro.traversal.relax`: each iteration expands the union frontier's
  lane bit-masks into shared (lane, edge) candidate streams — one ragged
  gather covering every lane at once — and min-reduces every lane's
  candidates into the flattened vertex-major ``destination * lanes + lane``
  key space in a single segmented pass (the shared-candidate relaxation;
  executed by a runtime-compiled C loop over the bit-packed words when the
  host has a compiler, by blocked numpy indexed-ufunc passes otherwise).
  For each source the reduced candidate *multiset* is exactly the solo
  run's, and min over IEEE floats is exactly
  associative/commutative, so distances are bit-identical to
  :func:`repro.traversal.sssp.sssp_distances` — including float rounding —
  under every backend.  The kernel's touched-set output doubles as the next
  frontier, so no per-iteration ``np.unique`` or before/after probing is
  needed.

Solo and batched runs share this module's one run loop:
:func:`repro.traversal.bfs.run_bfs` and :func:`repro.traversal.sssp.run_sssp`
are calls of :func:`_run_words` with one lane, so every way of running a
source executes the same loop and kernels, and the ``REPRO_NATIVE=0`` numpy
sweeps are the one fallback of both.

The *streaming* applications (CC, PageRank) batch along the platform axis
instead — one shared algorithm pass replayed into many per-configuration
engines; see :mod:`repro.traversal.streaming`.

Trace, then price: a word's sweeps touch no engine.  Each sweep records its
union frontier and lane words in a :class:`~repro.traversal.engine.WordTrace`
(one format for BFS and SSSP), and once the word has converged each distinct
configuration's engine prices its own lanes from the trace with
:meth:`~repro.traversal.engine.TraversalEngine.price_lanes`.  A lane's
frontier at every sweep is exactly its solo run's, and it is priced alone —
zero-copy requests from its own rows of the request tables, UVM residency
replayed from a reset space over its own frontier sequence — so every lane's
:class:`TraversalMetrics` equal its solo run's bit for bit, whichever other
sources or configurations rode the word.
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
from .engine import TraversalEngine, WordTrace, _iteration_checkpoint, _pricing_checkpoint
from .frontier import frontier_offsets, gather_frontier_destinations
from .relax import make_snapshot, relax_lanes
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


def normalize_source(application: Application | str, source: object) -> int | None:
    """Canonicalize a source vertex for one application.

    CC and PageRank are source-free, so whatever was passed collapses to
    ``None`` — this is what makes every such request on a graph *the same*
    request, which the serving layer relies on for deduplication and caching.
    BFS/SSSP require a source, normalized by :func:`source_vertex` to a
    plain hashable ``int``.
    """
    application = Application(application)
    if application.is_streaming:
        return None
    if source is None:
        raise ConfigurationError(f"{application.value} requires a source vertex")
    return source_vertex(source)


@dataclass(frozen=True)
class PackedLane:
    """One lane of a batch: a source plus the (strategy, system) it should be
    accounted under.  The source is normalized by :func:`source_vertex`."""

    source: int
    strategy: AccessStrategy = EMOGI_STRATEGY
    system: SystemConfig | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "source", source_vertex(self.source))
        object.__setattr__(self, "strategy", AccessStrategy(self.strategy))

    def config_key(self) -> tuple:
        """Engine-sharing identity: lanes with equal keys share one engine."""
        return (self.strategy, system_key(self.system))


@dataclass
class MultiSourceResult:
    """Outcome of one batched multi-source run.

    ``results`` holds one :class:`TraversalResult` per requested lane, in
    request order, each with its solo run's values and metrics.
    """

    application: Application
    graph_name: str
    lanes: list[PackedLane] = field(default_factory=list)
    results: list[TraversalResult] = field(default_factory=list)
    #: Shared algorithm executions performed (one per ≤64-lane word).
    words: int = 0

    @property
    def strategy(self) -> AccessStrategy:
        """Access strategy of the batch (of its first lane, when they differ)."""
        return self.lanes[0].strategy

    @property
    def num_sources(self) -> int:
        return len(self.results)

    @property
    def num_batches(self) -> int:
        return self.words


def run_bfs_batch(
    graph: CSRGraph,
    sources,
    strategy: AccessStrategy = EMOGI_STRATEGY,
    system: SystemConfig | None = None,
    engine: TraversalEngine | None = None,
    arena=None,
) -> MultiSourceResult:
    """Batched BFS over up to 64 sources per frontier sweep.

    Per-source ``values`` are bit-identical to per-source ``run_bfs`` calls.
    """
    return run_batch(
        Application.BFS, graph, sources, strategy=strategy, system=system,
        engine=engine, arena=arena,
    )


def run_sssp_batch(
    graph: CSRGraph,
    sources,
    strategy: AccessStrategy = EMOGI_STRATEGY,
    system: SystemConfig | None = None,
    engine: TraversalEngine | None = None,
    arena=None,
) -> MultiSourceResult:
    """Batched SSSP; per-source distances bit-identical to ``run_sssp``."""
    return run_batch(
        Application.SSSP, graph, sources, strategy=strategy, system=system,
        engine=engine, arena=arena,
    )


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
    is a lane of the same ``(strategy, system)``, so one engine serves the
    whole batch — the caller's ``engine``, one leased from ``arena`` (an
    :class:`~repro.traversal.arena.EngineArena`), or a private one.

    ``relax_method`` selects the SSSP relaxation backend (see
    :data:`repro.traversal.relax.RELAX_METHODS`); ``None`` picks the fastest
    available.  For BFS, ``None`` and ``"native"`` run the native word
    kernel when it is available; any other method runs the numpy sweep.
    Every backend produces bit-identical per-source values and metrics,
    each source's equal to its solo run's.
    """
    if isinstance(sources, np.ndarray):
        sources = sources.ravel()
    lanes = [PackedLane(source, strategy, system) for source in sources]
    return _run_words(application, graph, lanes, arena, relax_method, engine)


def run_packed_batch(
    application: Application | str,
    graph: CSRGraph,
    lanes,
    arena=None,
    relax_method: str | None = None,
) -> MultiSourceResult:
    """Run BFS/SSSP lanes spanning *different* configurations in one sweep.

    What the fusion planner packs with: up to 64 ``(source, strategy,
    system)`` lanes share one union-frontier execution per word, and one
    engine per distinct configuration prices that configuration's lanes
    from the word's trace.  Frontier evolution is engine-independent, so
    each lane's ``values`` and metrics are its solo run's regardless of what
    other sources or configurations ride along.
    """
    lanes = [
        lane if isinstance(lane, PackedLane) else PackedLane(*lane) for lane in lanes
    ]
    return _run_words(application, graph, lanes, arena, relax_method)


def _run_words(
    application: Application | str,
    graph: CSRGraph,
    lanes: list[PackedLane],
    arena,
    relax_method: str | None,
    engine: TraversalEngine | None = None,
) -> MultiSourceResult:
    """The one BFS/SSSP run loop: behind :func:`run_batch`,
    :func:`run_packed_batch` and the one-lane solo runs.

    Each ≤64-lane word sweeps to convergence recording a
    :class:`~repro.traversal.engine.WordTrace`; then the engine of each
    configuration in the word, in first-appearance order, prices that
    configuration's lanes from it.  Engines are acquired once per distinct
    configuration for the whole batch — ``engine`` (one-configuration
    batches only), a lease from ``arena``, or a private one; pricing reads
    none of an engine's accumulated state, so a reused one needs no reset.
    """
    application = Application(application)
    if application is Application.BFS:
        chunk_runner, needs_weights = _bfs_word, False
    elif application is Application.SSSP:
        chunk_runner, needs_weights = _sssp_word, True
    else:
        raise ConfigurationError(
            f"batched execution supports bfs and sssp, not {application.value}"
        )
    if not lanes:
        raise ConfigurationError("a batch needs at least one source lane")
    for lane in lanes:
        _check_source(graph, lane.source)

    weights = None
    if application is Application.SSSP and graph.has_weights:
        # Hoisted out of the per-word runner: ONE float64 view of the weight
        # list per batch (float32 -> float64 is exact, so candidates stay
        # bit-identical to the solo runs' upcast-per-add).  Unweighted graphs
        # pass None and relax with the scalar 1.0 — no unit-weight array is
        # materialized at all, per word or otherwise.
        weights = np.ascontiguousarray(graph.weights, dtype=np.float64)

    keys = [lane.config_key() for lane in lanes]
    outcome = MultiSourceResult(
        application=application, graph_name=graph.name, lanes=lanes
    )
    native = _native.wanted(relax_method)
    engines: dict[tuple, TraversalEngine] = {}
    leased: list[TraversalEngine] = []
    try:
        for key, lane in zip(keys, lanes):
            if key in engines:
                continue
            options = dict(system=lane.system, needs_weights=needs_weights)
            if engine is not None:
                engines[key] = engine
            elif arena is not None:
                engines[key] = arena.acquire(graph, lane.strategy, **options)
                leased.append(engines[key])
            else:
                engines[key] = TraversalEngine(graph, lane.strategy, **options)
        for offset in range(0, len(lanes), WORD_BITS):
            word_lanes = lanes[offset : offset + WORD_BITS]
            values, trace, relax_backend = chunk_runner(
                graph, [lane.source for lane in word_lanes], weights, relax_method
            )
            # Each configuration's engine prices its own lanes of the word.
            owned: dict[tuple, list[int]] = {}
            for index, key in enumerate(keys[offset : offset + WORD_BITS]):
                owned.setdefault(key, []).append(index)
            lane_metrics = [None] * len(word_lanes)
            for key, indices in owned.items():
                priced = engines[key].price_lanes(trace, indices, relax_backend, native)
                _pricing_checkpoint()
                for index, metrics in zip(indices, priced):
                    lane_metrics[index] = metrics
            for lane, row, metrics in zip(word_lanes, values, lane_metrics):
                outcome.results.append(
                    TraversalResult(
                        application=application,
                        graph_name=graph.name,
                        strategy=metrics.strategy,
                        source=lane.source,
                        values=row.copy(),
                        metrics=metrics,
                    )
                )
            outcome.words += 1
    finally:
        for word_engine in leased:
            arena.release(word_engine)
    return outcome


# ---------------------------------------------------------------------- #
# Word-level execution (≤64 sources)
# ---------------------------------------------------------------------- #
@hot_path
def _bfs_word(
    graph: CSRGraph,
    word: list[int],
    weights=None,
    relax_method=None,
) -> tuple[np.ndarray, WordTrace, None]:
    """Run one BFS word of ≤ 64 lanes; returns its ``(lanes, V)`` levels,
    its trace and no relax backend.

    Every O(V) array is allocated here, once per word, and reused by every
    sweep: the levels, the visited and scatter words and, for the native
    kernel, two frontier slots — the kernel appends the next frontier
    (vertex ids and their new lane words) into one while the trace copies
    the other.  ``relax_method`` ``None`` or ``"native"`` runs
    ``repro_bfs_word`` when it is available; anything else runs the numpy
    sweep.
    """
    num_vertices = graph.num_vertices
    lanes = len(word)
    levels = np.full((lanes, num_vertices), UNREACHED, dtype=np.int64)  # repro: noqa[REPRO101] — once per word, not per sweep
    visited_bits, next_bits = np.zeros((2, num_vertices), dtype=np.uint64)  # repro: noqa[REPRO101] — once per word, not per sweep
    for lane, source in enumerate(word):
        visited_bits[source] |= _ONE << np.uint64(lane)
        levels[lane, source] = 0
    native = _native.wanted(relax_method)
    if native:
        # Rows unpacked once, so that Pins checks and addresses each slot
        # once per word rather than a fresh view every sweep.
        frontier_slots = tuple(np.empty((2, num_vertices), dtype=VERTEX_DTYPE))  # repro: noqa[REPRO101] — once per word, double-buffered below
        active_slots = tuple(np.empty((2, num_vertices), dtype=np.uint64))  # repro: noqa[REPRO101] — once per word, double-buffered below
        pins = _native.Pins()
    # Depth 0: the frontier is the sources, and visited holds exactly their bits.
    frontier = np.flatnonzero(visited_bits).astype(VERTEX_DTYPE, copy=False)
    active_bits = visited_bits[frontier]
    trace = WordTrace(lanes)
    depth = 0
    while frontier.size:
        _iteration_checkpoint()
        trace.record(frontier, active_bits)
        starts, ends = frontier_offsets(graph, frontier)
        depth += 1
        # One sweep writes the new levels and the next frontier.
        if native:
            slot = depth % 2
            size = _native.bfs_word(
                frontier, active_bits, starts, ends, graph.edges, next_bits,
                visited_bits, levels, depth, frontier_slots[slot],
                active_slots[slot], pins,
            )
            frontier = frontier_slots[slot][:size]
            active_bits = active_slots[slot][:size]
        else:
            frontier, active_bits = _bfs_sweep_numpy(
                graph, frontier, active_bits, starts, ends, next_bits,
                visited_bits, levels, depth,
            )
    return levels, trace, None


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
    :func:`repro.traversal._native.bfs_word` (same contract, except that
    ``next_bits`` is zeroed here rather than on the way out).

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
    graph: CSRGraph,
    word: list[int],
    weights: np.ndarray | None = None,
    relax_method: str | None = None,
) -> tuple[np.ndarray, WordTrace, str | None]:
    """Run one SSSP word of ≤ 64 lanes; returns its ``(lanes, V)`` distances,
    its trace and the relax backend that ran."""
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
    snapshot = make_snapshot(num_vertices, lanes)
    next_scratch = np.zeros(num_vertices, dtype=np.uint64)  # repro: noqa[REPRO101] — once per word, double-buffered below
    pins = _native.Pins()
    trace = WordTrace(lanes)
    method = None

    iterations = 0
    max_iterations = max(1, num_vertices)
    frontier = np.flatnonzero(frontier_bits).astype(VERTEX_DTYPE, copy=False)
    while frontier.size and iterations < max_iterations:
        _iteration_checkpoint()
        starts, ends = frontier_offsets(graph, frontier)
        active_bits = frontier_bits[frontier]
        trace.record(frontier, active_bits)

        # One lane-parallel relaxation sweep: every lane's candidates are
        # gathered from the shared CSR slices and min-reduced per
        # (lane, destination) in a single pass (see repro.traversal.relax).
        # The kernel's touched-set output IS the next frontier word array.
        outcome = relax_lanes(
            distances, graph.edges, frontier, starts, ends, active_bits,
            weights=weights, method=relax_method, snapshot=snapshot,
            next_bits=next_scratch, pins=pins,
        )
        method = outcome.method

        # Double-buffer: the consumed frontier word becomes next sweep's
        # kernel scratch (zeroed inside relax_lanes).
        frontier_bits, next_scratch = outcome.next_bits, frontier_bits
        frontier = np.flatnonzero(frontier_bits).astype(VERTEX_DTYPE, copy=False)
        iterations += 1

    return distances.T, trace, method


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
