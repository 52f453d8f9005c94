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

This is the ``"scatter"`` backend: the portable fallback, and the
reference the ``"native"`` one is pinned against.  When the host has a C
compiler, an SSSP word instead runs each sweep as one call of the compiled
``repro_sssp_sweep`` (:mod:`repro.traversal._native`, driven by
:func:`repro.traversal.multisource._sssp_word`), which reads the sweep's
frontier from the word's trace, relaxes it over the bit-packed lane words
and appends the next frontier.  Its loop has two arms, chosen per frontier
vertex: when at least a quarter of the word's lanes are active on it, a
*dense* arm relaxes the vertex's whole contiguous lane row per edge, eight
lanes per instruction with AVX-512F or four with AVX2, whichever is the
widest the CPU has (probed at run time, not at build time; inactive lanes
snapshot as ``+inf``, so they can never win); every other vertex, every
word of fewer than 4 lanes and every host whose CPU lacks AVX2 takes the
*scalar* arm, one ``ctz`` step per active lane.  The arms are exactly
equal.  Both
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

import numpy as np

from ..arrays import ragged_gather_indices
from ..hotpath import hot_path
from . import _native

_ONE = np.uint64(1)

#: Backends a run's ``relax_method`` may name (``None`` = best available).
RELAX_METHODS = _native.RELAX_METHODS

#: (lane, edge) candidates per numpy block: large enough to amortize numpy
#: dispatch, small enough that the temporaries stay in the allocator's
#: reuse range instead of thrashing mmap (fresh >32MB blocks fault every
#: page on every iteration).
_BLOCK_PAIRS = 1 << 18


def default_method() -> str:
    """The fastest relaxation backend usable on this host."""
    return "native" if _native.available() else "scatter"


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


@hot_path
def relax_lanes(
    values: np.ndarray,
    edges: np.ndarray,
    frontier: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    active_bits: np.ndarray,
    weights: np.ndarray | None = None,
    next_bits: np.ndarray | None = None,
) -> np.ndarray:
    """One shared relaxation sweep over every lane's frontier edges, in
    numpy; returns the next frontier's per-vertex lane words.

    ``values`` is the vertex-major ``(num_vertices, lanes)`` per-lane state
    matrix (C contiguous, float64; updated in place).  ``frontier`` /
    ``starts`` / ``ends`` describe the *union* frontier's CSR slices and
    ``active_bits[i]`` is the lane word of ``frontier[i]``.  Each lane
    relaxes exactly the edges whose tail carries its frontier bit: candidate
    ``values[src, lane] + weight`` (1.0 when ``weights`` is None) is
    min-reduced into ``values[dst, lane]`` for every such edge.  Candidates
    are always read from the pre-sweep values (gather-then-scatter), matching
    the solo per-source formulation.

    ``weights`` may be the graph's float32 list as it is: a candidate adds a
    weight's exact float64 upcast, as the native sweep does.  ``next_bits``,
    when given, is a ``(num_vertices,)`` uint64 scratch the sweep zeroes,
    fills and returns — callers iterating to a fixed point double-buffer it
    against the previous sweep's word array instead of allocating O(V) per
    sweep.  A ``(lane, destination)`` pair's bit is set exactly when its
    value strictly improved.

    Per-lane results are bit-identical to the native sweep's and to
    relaxing each lane on its own, because min is exactly
    associative/commutative (see module docstring).
    """
    num_vertices, lanes = values.shape
    if not values.flags.c_contiguous:
        raise ValueError("values must be C-contiguous (updated in place)")

    if next_bits is None:
        # Solo-call fallback; fixed-point callers pass a double-buffered
        # scratch (see _sssp_word).
        next_bits = np.zeros(num_vertices, dtype=np.uint64)  # repro: noqa[REPRO101] — solo-call fallback
    else:
        if next_bits.shape != (num_vertices,) or next_bits.dtype != np.uint64:
            raise ValueError("next_bits scratch must be (num_vertices,) uint64")
        next_bits.fill(0)

    flat = values.reshape(-1)
    pair_lane, pair_position = expand_lane_pairs(active_bits, lanes)
    pair_lengths = (ends - starts)[pair_position]
    populated = pair_lengths > 0
    pair_lane = pair_lane[populated]
    pair_position = pair_position[populated]
    pair_lengths = pair_lengths[populated]
    if pair_lane.size == 0:
        return next_bits

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
    return next_bits
