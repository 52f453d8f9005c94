"""Lane-parallel relaxation kernel for batched multi-source traversal.

The MS-BFS word layout of :mod:`repro.traversal.multisource` packs up to 64
sources ("lanes") into one ``uint64`` per vertex, but a relaxation-style
application (SSSP's distance updates, min-label propagation) still has to
combine *per-lane* state with the *shared* edge stream.  The naive shape — a
Python loop over lanes, each doing its own ragged edge gather and its own
``np.minimum.at`` scatter, plus a per-iteration ``np.unique`` over the union
destinations to probe for improvements — pays numpy dispatch and redundant
passes 64 times per iteration and is exactly why batched SSSP used to trail
batched BFS by ~4x.

This kernel restructures the work around the shared data stream:

1. **Pair expansion** — the per-frontier-vertex lane bit-masks are expanded
   into explicit ``(lane, frontier position)`` pairs with one ``np.nonzero``
   over a lanes x frontier boolean matrix; every lane's source values are
   pre-gathered once at pair level (gather-then-scatter: candidates can never
   observe a value improved earlier in the same sweep).
2. **Candidate construction** — the pair streams expand into per-(lane, edge)
   candidates against the flattened vertex-major key space
   ``vertex * lanes + lane``, one blocked ragged gather for all lanes at once.
3. **Segmented min-reduction** — one pass reduces all candidates into
   per-``(lane, destination)`` minima.  The numpy formulation, ``"scatter"``,
   uses numpy's indexed-ufunc fast path (``np.minimum.at`` over flat keys,
   pre-filtered to the candidates that can actually win), executed in
   bounded blocks so the temporaries stay allocator-friendly.

When the host has a C compiler, a second backend — ``"native"``, built and
gated by :mod:`repro.traversal._native` — runs the same sweep as a compiled
loop over the bit-packed lane words and is the default; the numpy kernel
remains the portable fallback and the reference the native backend is
pinned against.  The compiled loop has two arms, chosen per frontier
vertex: when at least a quarter of the word's lanes are active on it, a
*dense* arm relaxes the vertex's whole contiguous lane row per edge with
AVX2 (inactive lanes snapshot as ``+inf``, so they can never win); every
other vertex, every word of fewer than 4 lanes and every host whose CPU
lacks AVX2 (probed at run time, not at build time) takes the *scalar* arm,
one ``ctz`` step per active lane.  The two arms are exactly equal.  Both
backends are checked against the independent references: the plain
:func:`~repro.traversal.sssp.sssp_distances` loop and networkx.

Minimum is exactly associative and commutative over IEEE floats (weights are
non-negative, so signed zeros and NaNs never arise), so reducing each lane's
candidate multiset in any order yields values bit-identical to that lane's
solo run — the guarantee the multisource module promises.

The kernel's *touched set* falls out of the reduction for free: a
``(lane, destination)`` pair improves exactly when some candidate is strictly
below the pre-sweep value, so the next frontier bits are produced without any
per-iteration ``np.unique`` or before/after probing over the union
destinations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..arrays import ragged_gather_indices
from ..hotpath import hot_path
from . import _native

_ONE = np.uint64(1)

#: Backends accepted by :func:`relax_lanes` (``None`` = best available).
RELAX_METHODS = _native.RELAX_METHODS

#: (lane, edge) candidates per numpy block: large enough to amortize numpy
#: dispatch, small enough that the temporaries stay in the allocator's
#: reuse range instead of thrashing mmap (fresh >32MB blocks fault every
#: page on every iteration).
_BLOCK_PAIRS = 1 << 18


def default_method() -> str:
    """The fastest relaxation backend usable on this host."""
    return "native" if _native.available() else "scatter"


def backend_status() -> str:
    """Describe the native backend's availability (for benchmark reports)."""
    return _native.status()


@dataclass(frozen=True)
class RelaxOutcome:
    """Result of one lane-parallel relaxation sweep.

    ``next_bits`` is the per-vertex ``uint64`` word of lanes whose value at
    that vertex strictly improved (the next frontier, in MS-BFS encoding);
    ``method`` names the backend that actually executed the sweep
    (observability: a silent fallback from the native backend shows up
    here).
    """

    next_bits: np.ndarray
    method: str = ""

    @property
    def touched(self) -> np.ndarray:
        """Vertices improved by at least one lane (sorted, unique)."""
        return np.flatnonzero(self.next_bits)


@hot_path
def expand_lane_pairs(
    active_bits: np.ndarray, lanes: int
) -> tuple[np.ndarray, np.ndarray]:
    """Explicit ``(lane, position)`` pairs for every set frontier bit.

    ``active_bits`` holds one ``uint64`` lane word per frontier vertex; the
    result enumerates the set bits lane-major (all of lane 0's vertices, then
    lane 1's, ...), matching the order the per-lane formulation would visit.
    """
    lane_ids = np.arange(lanes, dtype=np.uint64)
    mask = ((active_bits[None, :] >> lane_ids[:, None]) & _ONE) != 0
    pair_lane, pair_position = np.nonzero(mask)
    return pair_lane, pair_position


def make_snapshot(num_vertices: int, lanes: int) -> np.ndarray:
    """Scratch buffer for the native backend, reusable across sweeps."""
    return np.empty((num_vertices, lanes), dtype=np.float64)


@hot_path
def relax_lanes(
    values: np.ndarray,
    edges: np.ndarray,
    frontier: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    active_bits: np.ndarray,
    weights: np.ndarray | None = None,
    method: str | None = None,
    snapshot: np.ndarray | None = None,
    next_bits: np.ndarray | None = None,
    pins: _native.Pins | None = None,
) -> RelaxOutcome:
    """One shared relaxation sweep over every lane's frontier edges.

    ``values`` is the vertex-major ``(num_vertices, lanes)`` per-lane state
    matrix (C contiguous, float64; updated in place).  ``frontier`` /
    ``starts`` / ``ends`` describe the *union* frontier's CSR slices —
    computed once by the caller and shared with the engine sweep — and
    ``active_bits[i]`` is the lane word of ``frontier[i]``.  Each lane
    relaxes exactly the edges whose tail carries its frontier bit: candidate
    ``values[src, lane] + weight`` (1.0 when ``weights`` is None) is
    min-reduced into ``values[dst, lane]`` for every such edge.  Candidates
    are always read from the pre-sweep values (gather-then-scatter), matching
    the solo per-source formulation.

    ``weights``, when given, must be float64 — convert once per batch, not
    per sweep.  ``snapshot`` (see :func:`make_snapshot`) lets the native
    backend reuse its scratch across sweeps.  ``next_bits``, when given, is a
    ``(num_vertices,)`` uint64 scratch the kernel zeroes and fills — callers
    iterating to a fixed point double-buffer it against the previous sweep's
    word array instead of allocating O(V) per sweep; the returned
    ``RelaxOutcome.next_bits`` is this same array.  ``pins`` (one
    :class:`~repro.traversal._native.Pins` per run) lets the native backend
    check and address the buffers every sweep passes again — ``values``,
    ``edges``, ``weights``, ``snapshot`` and the ``next_bits`` scratch —
    once per run instead of once per sweep.

    Per-lane results are bit-identical across every ``method`` and to
    relaxing each lane on its own, because min is exactly
    associative/commutative (see module docstring).
    """
    num_vertices, lanes = values.shape
    _native.check_method(method)
    if method is None:
        method = default_method()
    if not values.flags.c_contiguous:
        raise ValueError("values must be C-contiguous (updated in place)")

    if weights is not None:
        weights = np.ascontiguousarray(weights, dtype=np.float64)

    if next_bits is None:
        # Solo-call fallback; fixed-point callers pass a double-buffered
        # scratch (see _sssp_word).
        next_bits = np.zeros(num_vertices, dtype=np.uint64)  # repro: noqa[REPRO101] — solo-call fallback
    else:
        if next_bits.shape != (num_vertices,) or next_bits.dtype != np.uint64:
            raise ValueError("next_bits scratch must be (num_vertices,) uint64")
        next_bits.fill(0)

    if method == "native":
        if frontier.size:
            if snapshot is None:
                snapshot = make_snapshot(frontier.size, lanes)
            elif snapshot.shape[0] < frontier.size or snapshot.shape[1] != lanes:
                raise ValueError("snapshot scratch is too small for this frontier")
            _native.relax_word(
                np.ascontiguousarray(frontier, dtype=np.int64),
                np.ascontiguousarray(active_bits, dtype=np.uint64),
                np.ascontiguousarray(starts, dtype=np.int64),
                np.ascontiguousarray(ends, dtype=np.int64),
                np.ascontiguousarray(edges, dtype=np.int64),
                weights,
                values,
                snapshot,
                next_bits,
                pins,
            )
        return RelaxOutcome(next_bits, method)

    flat = values.reshape(-1)
    pair_lane, pair_position = expand_lane_pairs(active_bits, lanes)
    pair_lengths = (ends - starts)[pair_position]
    populated = pair_lengths > 0
    pair_lane = pair_lane[populated]
    pair_position = pair_position[populated]
    pair_lengths = pair_lengths[populated]
    if pair_lane.size == 0:
        return RelaxOutcome(next_bits, method)

    # Pre-gather every pair's source value ONCE, before any store: block N's
    # candidates must not observe improvements block N-1 already scattered.
    pair_values = flat[frontier[pair_position] * lanes + pair_lane]
    pair_starts = starts[pair_position]

    # Block boundaries on pair edges (a block may overrun by one pair's
    # degree, which is fine — the bound is about allocator behaviour).
    cumulative = np.cumsum(pair_lengths)
    cuts = np.searchsorted(
        cumulative, np.arange(_BLOCK_PAIRS, int(cumulative[-1]), _BLOCK_PAIRS),
        side="left",
    ) + 1
    bounds = np.concatenate(([0], cuts, [pair_lane.size]))  # repro: noqa[REPRO101] — O(num_blocks), a few dozen entries

    for block_lo, block_hi in zip(bounds[:-1], bounds[1:]):
        if block_lo >= block_hi:
            continue
        lengths = pair_lengths[block_lo:block_hi]
        edge_indices = ragged_gather_indices(pair_starts[block_lo:block_hi], lengths)
        candidates = np.repeat(pair_values[block_lo:block_hi], lengths)
        if weights is None:
            candidates += 1.0
        else:
            candidates += weights[edge_indices]
        destinations = edges[edge_indices]
        keys = destinations * lanes + np.repeat(pair_lane[block_lo:block_hi], lengths)

        # A key improves iff some candidate is strictly below its current
        # value, so winners are identified before the scatter and the
        # indexed-ufunc pass only touches viable candidates.
        viable = candidates < flat[keys]
        if viable.any():
            winner_keys = keys[viable]
            np.minimum.at(flat, winner_keys, candidates[viable])
            np.bitwise_or.at(
                next_bits,
                destinations[viable],
                _ONE << (winner_keys % lanes).astype(np.uint64),
            )
    return RelaxOutcome(next_bits, method)
