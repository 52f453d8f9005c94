"""Batched multi-source traversal (MS-BFS-style frontier sharing).

The paper's measurement protocol (§5.2) averages every experiment over 64
random source vertices, and the serving layer batches same-configuration
requests — yet a naive implementation still executes one full, independent
traversal per source, paying for every edge gather and every simulated
memory-system sweep once *per source*.

This module restructures the engine around the batch instead: up to 64
sources run together, one bit per source packed into a ``uint64`` word per
vertex (the MS-BFS technique).  Each iteration expands the *union* frontier
once — one edge gather, one :meth:`TraversalEngine.process_frontier` sweep —
and bitwise operations keep every source's frontier evolution exactly what
its solo run would have been:

* **BFS** propagates frontier bits with an OR-scatter over the frontier's
  edges; a vertex's newly set bits are exactly the sources whose solo BFS
  would discover it this iteration.  One sweep — per-lane edge counts,
  the scatter, the visited update, the level writes and the next frontier —
  is one call of the compiled ``repro_bfs_word`` loop of
  :mod:`repro.traversal._native` when the host has a compiler, and a numpy
  sweep (the fallback, and the reference the tests pin the kernel against)
  otherwise (:class:`BFSWord`).
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

Solo and batched runs share these kernels: :func:`repro.traversal.bfs.run_bfs`
and :func:`repro.traversal.sssp.run_sssp` sweep as a word of one lane, so
every way of running a source executes the same per-sweep code, and the
``REPRO_NATIVE=0`` numpy sweeps are the one fallback of both.

The *streaming* applications (CC, PageRank) batch along the platform axis
instead — one shared algorithm pass replayed into many per-configuration
engines; see :mod:`repro.traversal.streaming`.

Per-source :class:`TraversalMetrics` are derived by *attributing* the shared
traffic: each iteration's time is split across the sources active in it,
proportionally to their share of the edges swept, and the run-level traffic
counters are split by each source's overall share.  Both are matrices, not
per-lane objects: the attributed seconds are one ``(lanes, 6)`` float64
accumulator (one multiply-then-add per element per iteration, the order of
summing ``TimeBreakdown.scaled`` copies), and every lane's integer counters
are one ``(lanes, counters)`` product rounded half to even; the per-lane
result objects are built once per word from their rows.  Attributed
*seconds* sum exactly to the batch total; the integer traffic counters are
rounded per source, so their sums match the batch totals only to rounding
(compare against ``batch_metrics`` for exact run-level numbers).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import SystemConfig, system_key
from ..errors import ConfigurationError, SimulationError
from ..graph.csr import CSRGraph
from ..hotpath import hot_path
from ..memsim.metrics import TrafficRecord
from ..timing import TimeBreakdown
from ..types import AccessStrategy, Application, EMOGI_STRATEGY, VERTEX_DTYPE
from . import _native
from .engine import TraversalEngine
from .frontier import frontier_offsets, gather_frontier_destinations
from .relax import active_lane_mask, make_snapshot, relax_lanes
from .results import KernelCounters, TraversalMetrics, TraversalResult

#: Sources packed into one visited word (one bit per source lane).
WORD_BITS = 64

#: BFS level of a vertex never reached from the source.
UNREACHED = -1

#: SSSP distance of an unreachable vertex.
UNREACHABLE = np.inf

_ONE = np.uint64(1)

#: Columns of the attributed-seconds matrix (see TimeBreakdown.components).
_COMPONENTS = len(TimeBreakdown().components())


@dataclass(frozen=True)
class PackedLane:
    """One lane of a batch: a source plus the (strategy, system) it should be
    accounted under."""

    source: int
    strategy: AccessStrategy = EMOGI_STRATEGY
    system: SystemConfig | None = None

    def config_key(self) -> tuple:
        """Engine-sharing identity: lanes with equal keys share one engine."""
        return (self.strategy, system_key(self.system))


@dataclass
class MultiSourceResult:
    """Outcome of one batched multi-source run.

    ``results`` holds one :class:`TraversalResult` per requested lane, in
    request order, with attributed per-lane metrics; ``batch_metrics`` holds
    each engine's run-level metrics (one entry per distinct configuration per
    executed ≤64-lane word).
    """

    application: Application
    graph_name: str
    lanes: list[PackedLane] = field(default_factory=list)
    results: list[TraversalResult] = field(default_factory=list)
    batch_metrics: list[TraversalMetrics] = field(default_factory=list)
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

    @property
    def batch_seconds(self) -> float:
        """Total simulated time of the shared (batched) execution."""
        return sum(metrics.seconds for metrics in self.batch_metrics)


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
    Every backend produces bit-identical per-source values and metrics.
    """
    lanes = [
        PackedLane(int(source), strategy, system)
        for source in np.asarray(list(sources)).ravel()
    ]
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
    system)`` lanes share one union-frontier execution per word, with one
    engine per distinct configuration replaying every frontier sweep.
    Frontier evolution is engine-independent (engines only account traffic),
    so each lane's ``values`` are bit-identical to its solo run regardless of
    what other configurations ride along; each lane's metrics are its own
    engine's cost attributed across that engine's lanes.
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
    """The one word loop behind :func:`run_batch` and :func:`run_packed_batch`.

    Engines are acquired once per distinct configuration for the whole batch
    — ``engine`` (one-configuration batches only), a lease from ``arena``, or
    a private one — and recycled with :meth:`TraversalEngine.reset` between
    words instead of being rebuilt.
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
            # The word's engines: one per configuration present in it, in
            # first-appearance order.
            slots: dict[tuple, int] = {}
            lane_engine = np.array(
                [
                    slots.setdefault(key, len(slots))
                    for key in keys[offset : offset + WORD_BITS]
                ],
                dtype=np.int64,
            )
            word_engines = [engines[key] for key in slots]
            # Reset before every word (the first included): a caller-supplied
            # or leased engine may carry a previous run's counters, which
            # would contaminate this batch's metrics.  Resetting a fresh
            # engine is a cheap no-op.
            for word_engine in word_engines:
                word_engine.reset()
            values, attribution = chunk_runner(
                graph,
                [int(lane.source) for lane in word_lanes],
                word_engines,
                lane_engine,
                weights,
                relax_method,
            )
            engine_metrics = [word_engine.finalize() for word_engine in word_engines]
            outcome.batch_metrics.extend(engine_metrics)
            lane_metrics = _lane_metrics(
                word_lanes, word_engines, engine_metrics, attribution
            )
            for position, (lane, metrics) in enumerate(zip(word_lanes, lane_metrics)):
                outcome.results.append(
                    TraversalResult(
                        application=application,
                        graph_name=graph.name,
                        strategy=lane.strategy,
                        source=int(lane.source),
                        values=values[position].copy(),
                        metrics=metrics,
                    )
                )
            outcome.words += 1
    finally:
        for word_engine in leased:
            arena.release(word_engine)
    return outcome


def _lane_metrics(
    word_lanes: list[PackedLane],
    engines: list[TraversalEngine],
    engine_metrics: list[TraversalMetrics],
    attribution: _Attribution,
) -> list[TraversalMetrics]:
    """Every lane's metrics for one word, from its engine's run-level metrics.

    A lane carries its attributed seconds and iteration count, and its
    engine's integer counters scaled by its share of that engine's edges —
    one ``(lanes, counters)`` product rounded by ``np.rint``, which rounds
    half to even on the same float64 product as ``int(round(count *
    fraction))``.  ``max_frontier`` is the union frontier's (a batch-level
    fact), and the relax backend is shared by construction.
    """
    counts = np.array(
        [
            (
                *metrics.traffic.counter_row(),
                metrics.counters.frontier_vertices,
                metrics.counters.edges_traversed,
                metrics.counters.relax_candidates,
            )
            for metrics in engine_metrics
        ],
        dtype=np.int64,
    )
    lane_engine = attribution.lane_engine
    scaled = np.rint(attribution.lane_fractions()[:, None] * counts[lane_engine])
    lanes = []
    for lane, index, row, seconds, iterations in zip(
        word_lanes,
        lane_engine.tolist(),
        scaled.astype(np.int64).tolist(),
        attribution.seconds.tolist(),
        attribution.iterations.tolist(),
    ):
        engine, batch_counters = engines[index], engine_metrics[index].counters
        *traffic, frontier_vertices, edges_traversed, relax_candidates = row
        breakdown = TimeBreakdown(*seconds)
        lanes.append(
            TraversalMetrics(
                seconds=breakdown.total(),
                breakdown=breakdown,
                traffic=TrafficRecord.from_counter_row(traffic),
                iterations=iterations,
                dataset_bytes=engine.dataset_bytes,
                strategy=lane.strategy,
                system_name=engine.system.name,
                counters=KernelCounters(
                    iterations=iterations,
                    frontier_vertices=frontier_vertices,
                    edges_traversed=edges_traversed,
                    max_frontier=batch_counters.max_frontier,
                    relax_candidates=relax_candidates,
                    relax_backend=batch_counters.relax_backend,
                ),
            )
        )
    return lanes


# ---------------------------------------------------------------------- #
# Word-level execution (≤64 sources)
# ---------------------------------------------------------------------- #
@hot_path
def _bfs_word(
    graph: CSRGraph,
    word: list[int],
    engines: list[TraversalEngine],
    lane_engine: np.ndarray,
    weights=None,
    relax_method=None,
):
    lanes = len(word)
    bfs = BFSWord(graph, word, relax_method)
    frontier, active_bits = bfs.start()
    lane_edges = bfs.lane_edges
    attribution = _Attribution(lanes, lane_engine)
    depth = 0
    while frontier.size:
        starts, ends = frontier_offsets(graph, frontier)
        active = active_lane_mask(active_bits, lanes)
        depth += 1
        # One sweep writes the new levels and the next frontier, and counts
        # each lane's share of it — the edges its own frontier owns — once
        # for all of the word's engines.
        next_frontier, next_active = bfs.sweep(
            frontier, active_bits, starts, ends, depth, active
        )
        # Every engine replays the shared union frontier: frontier evolution
        # never depends on the simulated platform (engines only account
        # traffic), so per-lane levels stay bit-identical to solo runs even
        # when lanes span different (strategy, system) configurations.
        for engine_index, engine in enumerate(engines):
            iteration = engine.process_frontier(frontier, starts, ends)
            attribution.record(iteration, engine_index, lane_edges, active)
        frontier, active_bits = next_frontier, next_active

    return bfs.levels, attribution


class BFSWord:
    """One BFS word's buffers and its sweep: the step a batched word of ≤ 64
    lanes and a solo run (a word of one lane) both take.

    Every O(V) array is allocated here, once per run, and reused by every
    sweep: the ``(lanes, num_vertices)`` levels, the visited and scatter
    words and, for the native kernel, two frontier slots — the kernel
    appends the next frontier (vertex ids and their new lane words) into one
    while the engines replay the other.  ``relax_method`` ``None`` or
    ``"native"`` runs ``repro_bfs_word`` when it is available; anything else
    runs the numpy sweep.
    """

    def __init__(self, graph: CSRGraph, sources: list[int], relax_method=None) -> None:
        num_vertices = graph.num_vertices
        self.graph = graph
        self.levels = np.full((len(sources), num_vertices), UNREACHED, dtype=np.int64)
        self.visited_bits = np.zeros(num_vertices, dtype=np.uint64)
        self.next_bits = np.zeros(num_vertices, dtype=np.uint64)
        self.lane_edges = np.zeros(len(sources), dtype=np.int64)
        for lane, source in enumerate(sources):
            self.visited_bits[source] |= _ONE << np.uint64(lane)
            self.levels[lane, source] = 0
        self.native = relax_method in (None, "native") and _native.available()
        if self.native:
            self.frontier_slots = np.empty((2, num_vertices), dtype=VERTEX_DTYPE)
            self.active_slots = np.empty((2, num_vertices), dtype=np.uint64)

    def start(self) -> tuple[np.ndarray, np.ndarray]:
        """Depth 0: the frontier is the sources, and visited holds exactly
        their bits.  Returns the frontier and its lane words."""
        frontier = np.flatnonzero(self.visited_bits).astype(VERTEX_DTYPE, copy=False)
        return frontier, self.visited_bits[frontier]

    @hot_path
    def sweep(
        self,
        frontier: np.ndarray,
        active_bits: np.ndarray,
        starts: np.ndarray,
        ends: np.ndarray,
        depth: int,
        active: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """The sweep that discovers ``depth``: writes its levels and
        ``lane_edges``, and returns the next frontier and its lane words.

        ``active`` (:func:`~repro.traversal.relax.active_lane_mask` of
        ``active_bits``) is only read by the numpy sweep, which derives it
        when the caller has none.
        """
        if self.native:
            slot = depth % 2
            size = _native.bfs_word(
                frontier, active_bits, starts, ends, self.graph.edges,
                self.next_bits, self.visited_bits, self.levels, depth,
                self.lane_edges, self.frontier_slots[slot], self.active_slots[slot],
            )
            return self.frontier_slots[slot, :size], self.active_slots[slot, :size]
        if active is None:
            active = active_lane_mask(active_bits, self.lane_edges.size)
        return _bfs_sweep_numpy(
            self.graph, frontier, active_bits, starts, ends, active,
            self.next_bits, self.visited_bits, self.levels, depth, self.lane_edges,
        )


@hot_path
def _bfs_sweep_numpy(
    graph: CSRGraph,
    frontier: np.ndarray,
    active_bits: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    active: np.ndarray,
    next_bits: np.ndarray,
    visited_bits: np.ndarray,
    levels: np.ndarray,
    depth: int,
    lane_edges: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """One BFS sweep in numpy: the fallback for, and reference of,
    :func:`repro.traversal._native.bfs_word` (same contract, except that
    ``next_bits`` is zeroed here rather than on the way out).

    Returns the next frontier and its lane words.
    """
    lanes = levels.shape[0]
    degrees = ends - starts
    lane_edges.fill(0)
    for lane in np.flatnonzero(active):
        lane_edges[lane] = degrees[_lane_mask(active_bits, lane)].sum()

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
    engines: list[TraversalEngine],
    lane_engine: np.ndarray,
    weights: np.ndarray | None = None,
    relax_method: str | None = None,
):
    num_vertices = graph.num_vertices
    lanes = len(word)
    # Vertex-major layout: one vertex's 64 lane distances share cache lines,
    # which is what makes the relaxation kernel's inner loop fast.  The
    # transposed view handed back at the end keeps run_batch's per-lane
    # ``values[lane]`` extraction working unchanged.
    distances = np.full((num_vertices, lanes), UNREACHABLE, dtype=np.float64)  # repro: noqa[REPRO101] — once per word, not per sweep
    frontier_bits = np.zeros(num_vertices, dtype=np.uint64)  # repro: noqa[REPRO101] — once per word, not per sweep
    for lane, source in enumerate(word):
        frontier_bits[source] |= _ONE << np.uint64(lane)
        distances[source, lane] = 0.0
    snapshot = make_snapshot(num_vertices, lanes)
    next_scratch = np.zeros(num_vertices, dtype=np.uint64)  # repro: noqa[REPRO101] — once per word, double-buffered below

    attribution = _Attribution(lanes, lane_engine)
    iterations = 0
    max_iterations = max(1, num_vertices)
    frontier = np.flatnonzero(frontier_bits).astype(VERTEX_DTYPE)
    while frontier.size and iterations < max_iterations:
        starts, ends = frontier_offsets(graph, frontier)
        degrees = ends - starts
        active_bits = frontier_bits[frontier]

        # One lane-parallel relaxation sweep: every lane's candidates are
        # gathered from the shared CSR slices and min-reduced per
        # (lane, destination) in a single pass (see repro.traversal.relax).
        # The kernel's touched-set output IS the next frontier word array.
        outcome = relax_lanes(
            distances, graph.edges, frontier, starts, ends, active_bits,
            weights=weights, method=relax_method, snapshot=snapshot,
            next_bits=next_scratch,
        )
        # As in _bfs_word, every engine replays the shared union frontier;
        # the relax sweep itself is platform-independent, so its candidate
        # count is a batch-level fact noted on each engine.
        for engine_index, engine in enumerate(engines):
            iteration = engine.process_frontier(frontier, starts, ends)
            engine.note_relax(outcome.method, outcome.candidates)
            attribution.record(
                iteration, engine_index, outcome.lane_edges, outcome.active_lanes
            )

        # Double-buffer: the consumed frontier word becomes next sweep's
        # kernel scratch (zeroed inside relax_lanes).
        frontier_bits, next_scratch = outcome.next_bits, frontier_bits
        frontier = np.flatnonzero(frontier_bits).astype(VERTEX_DTYPE)
        iterations += 1

    return distances.T, attribution


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


class _Attribution:
    """Splits each shared iteration's cost across the sources that drove it.

    A source's share of one iteration is its fraction of the edges swept (its
    frontier's degree sum over the sum across all active sources).  Iterations
    whose active sources own no edges at all split the fixed costs evenly.

    ``lane_engine`` partitions the lanes across the word's engines, and each
    engine's iteration cost is split only among *its own* lanes: per-engine
    attributed seconds sum to that engine's own sweep total (with one engine,
    to the batch total).

    The attributed seconds are one ``(lanes, 6)`` float64 matrix, columns in
    :meth:`TimeBreakdown.components` order; each lane's
    :class:`TimeBreakdown` is built once, from its row, when the word ends.
    """

    def __init__(self, lanes: int, lane_engine: np.ndarray) -> None:
        self.lanes = lanes
        self.lane_engine = lane_engine
        self._owned = [
            lane_engine == index for index in range(int(lane_engine.max()) + 1)
        ]
        self.seconds = np.zeros((lanes, _COMPONENTS))
        self.iterations = np.zeros(lanes, dtype=np.int64)
        self.attributed_edges = np.zeros(lanes, dtype=np.float64)

    def record(
        self,
        iteration: TimeBreakdown,
        engine_index: int,
        lane_edges: np.ndarray,
        active: np.ndarray,
    ) -> None:
        """Split one engine's ``iteration`` cost across the lanes it owns.

        ``lane_edges`` / ``active`` describe the whole word's sweep (edges
        each lane's frontier owns, lanes with any frontier vertex) and are
        the same for every engine of the word; neither is modified.  Each
        element is one multiply then one add, the order of
        ``breakdown.add(iteration.scaled(share))``, so the seconds are bit
        for bit what per-lane breakdowns would accumulate.
        """
        if iteration.extra:
            raise SimulationError(
                "batched attribution splits the six fixed time components; "
                f"this iteration carries extra ones: {sorted(iteration.extra)}"
            )
        owned = self._owned[engine_index]
        active = active & owned
        lane_edges = np.where(owned, lane_edges, 0)
        self.iterations += active
        total = float(lane_edges.sum())
        if total > 0:
            shares = lane_edges / total
        else:
            count = int(np.count_nonzero(active))
            shares = np.where(active, 1.0 / max(count, 1), 0.0)
        self.attributed_edges += lane_edges
        self.seconds += shares[:, None] * np.array(iteration.components())

    def lane_fractions(self) -> np.ndarray:
        """Each lane's share of its own engine's edges, over the whole word.

        Normalized within each engine's lane subset: scaling an engine's
        run-level counters by these keeps each engine's attributed totals
        summing to that engine's own sweep, independent of how much work the
        other engines' lanes did.
        """
        fractions = np.zeros(self.lanes)
        for owned in self._owned:
            edges = np.where(owned, self.attributed_edges, 0.0)
            total = float(edges.sum())
            if total <= 0:
                fractions[owned] = 1.0 / max(int(np.count_nonzero(owned)), 1)
            else:
                fractions[owned] = (edges / total)[owned]
        return fractions
