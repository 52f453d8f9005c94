"""Optional native (C) kernels: the traversal sweeps and the UVM replay.

The numpy formulations of a batched sweep are bound by numpy's
pass-at-a-time execution and by Python loops over the ≤ 64 lanes of a word.
Both inner loops are tiny, so a compiled loop over the bit-packed lane words
(`ctz` over each vertex's active-lane mask) runs the same work an order of
magnitude faster.  The streaming applications pay the same tax on their
``np.minimum.at`` / ``np.add.at`` scatters over the whole edge list, and the
UVM model on its four numpy passes per region and iteration.  Six kernels
share one shared object:

* ``repro_sssp_sweep`` — one SSSP relaxation sweep of a word
  (:func:`sssp_sweep`, driven by
  :func:`repro.traversal.multisource._sssp_word`): read the sweep's
  frontier from the word's trace, gather two doubles, add, compare,
  occasionally store, over vertex-major ``(num_vertices, lanes)`` value rows
  so one vertex's lanes share cache lines, then scan the improved lanes'
  words and append them to the trace as the next frontier.  The relaxation
  has two arms.  A frontier vertex on which at least a quarter of the
  word's lanes are active takes the *dense* arm: its snapshot row holds
  ``+inf`` in the inactive lanes (``inf + w`` never wins), and every edge
  relaxes the whole row four lanes at a time with AVX2 add / compare /
  blend, ORing the improved lanes into the next-frontier word once per
  edge.  Every other vertex takes the *scalar* arm, which takes its active
  lanes one at a time with ``ctz`` and walks the vertex's edges once per
  lane, with the lane's snapshot value and bit held in registers and no
  branch per edge (a select stores the smaller value, the comparison is ORed
  into the next-frontier word).  Both give exactly the same values and
  words.  The dense body is compiled under
  ``__attribute__((target("avx2")))`` and chosen at run time by the
  ``repro_dense_arm`` probe (``__builtin_cpu_supports``), so the object
  carries no ``-march`` flag: hosts without AVX2, and words of fewer than 4
  lanes, run the scalar arm.
  The probe's answer is :data:`_dense_arm`, read as a word binds its sweep
  (tests patch it to force an arm).  The weights are the graph's float32
  list, read in place: float32 → float64 is exact;
* ``repro_bfs_sweep`` — one BFS sweep of a word (:func:`bfs_sweep`, driven
  by :func:`repro.traversal.multisource._bfs_word`): OR-scatter of the
  frontier words read from the trace, and one pass over the vertices that
  keeps the unvisited bits, writes their levels and appends the next
  frontier to the trace;
* ``repro_cc_sweep`` — one min-label propagation sweep (:func:`cc_sweep`,
  called by :func:`repro.traversal.cc.cc_sweep`, the pass of a CC word):
  snapshot, scatter-min and one scan emitting the lowered vertices as the
  next frontier;
* ``repro_pagerank_step`` — one PageRank power-iteration step
  (:func:`pagerank_step`, called by
  :func:`repro.traversal.pagerank.pagerank_sweep`, the pass of a PageRank
  word): push every vertex's share along its out-edges in CSR order, then
  the damped update;
* ``repro_lane_rows`` — a word's pricing rows (:func:`lane_rows`, called by
  :meth:`repro.traversal.engine.TraversalEngine.price_lanes`), for every
  application alike (a CC/PageRank pass is a word of one lane): for
  every sweep of a traced word and every lane the calling engine prices,
  the edges, vertices and request counts of the lane's own frontier, one
  ``ctz`` walk over each union frontier vertex's lane word masked to those
  lanes, compiled with constant table widths for the four shapes
  zero-copy engines build;
* ``repro_uvm_replay`` — a traced run's UVM pricing (:func:`uvm_replay`,
  called by :meth:`repro.memsim.uvm.UVMSpace.replay_lanes` with
  ``native=True``), one call per region, in place on the space's residency
  flags, last-touch clocks and state array (the clock and running totals):
  the run's sweeps are the segments, folded once to the pages they touch
  with the OR of their lane words, and each lane replays the pages carrying
  its bit from a reset space, each segment one
  :meth:`repro.memsim.uvm.UVMSpace.access_byte_ranges` call.  It reproduces
  the numpy arm bit for bit: every
  range is bounds-checked before any state changes; a segment's pages
  stream in order without being materialised, a page equal to the one
  before it dropped; the stream is cut into chunks of ``chunk_pages``
  entries, each deduplicated in first-touch order with a per-page stamp; a
  chunk's faults migrate the non-resident pages of their prefetch blocks,
  and an overflowing cache evicts the resident pages outside the chunk
  smallest by (last touch, page id), the order of the numpy arm's stable
  ``argsort``.  The engine takes it exactly when the run goes native
  (:func:`wanted`).

The two word sweeps take the word's :class:`~repro.traversal.engine.WordTrace`
as their frontier buffer: sweep *k* reads entries ``[bounds[k], bounds[k +
1])``, finds each vertex's edge range in ``graph.offsets`` itself, and
appends the next frontier (found by its own scan of ``next_bits``, left
zeroed) at the tail, where Python keeps ``num_vertices`` entries free.  So a
sweep is one C call, and the trace needs no copy at pricing.  A solo
BFS/SSSP run is a word of one lane, and a CC/PageRank pass is priced as a
one-lane trace, so every run calls the same pricing kernels.

This module builds them *at runtime* with whatever C compiler the host
already has (``gcc``/``cc``), caches the shared object under
``~/.cache/repro-native/`` keyed by a hash of the source and flags, and loads
it through :mod:`ctypes` (stdlib — no new dependency).  Everything is gated:
no compiler, a failed compile, or ``REPRO_NATIVE=0`` simply mean
:func:`available` returns False and callers stay on the numpy paths, which
the relax, multisource and streaming equivalence tests keep bit-identical
(``-ffp-contract=off`` keeps an FMA-capable host from fusing PageRank's
multiply-add).  Every kernel fires the same ``native.invoke`` fault site and
raises the same :class:`~repro.errors.NativeBackendError`, so the service
re-runs a failed BFS, SSSP, CC or PageRank sweep, UVM accounting included, on
the numpy paths alike.

The C calls release the GIL (plain ``ctypes.CDLL``), so service workers
draining separate batches sweep concurrently.  Buffers cross as raw
addresses (``c_void_p`` argtypes): ``ndpointer`` argtypes cost tens of
microseconds per call, more than a small sweep.  The wrappers make the
checks ``ndpointer`` made (dtype and C-contiguity) besides their length
checks: a word sweep's buffers once per word (:class:`TraceSweep`) and its
trace's again after each growth, a UVM space's once per space
(:class:`Pins`), and every other kernel's on every call.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from ..analysis.lockorder import tracked_lock
from ..envflags import env_choice, env_flag, env_str
from ..errors import ConfigurationError, NativeBackendError

#: Backends a run's ``relax_method`` may name (``None`` = best available).
RELAX_METHODS = ("native", "scatter")

#: Environment switch: set REPRO_NATIVE=0 to force the numpy kernel.
_ENV_SWITCH = "REPRO_NATIVE"

#: Override for the shared-object cache directory.
_ENV_CACHE_DIR = "REPRO_NATIVE_DIR"

#: Sanitizer build mode: ``asan`` or ``ubsan`` compiles the kernels with the
#: matching ``-fsanitize=`` flags (plus frame pointers and debug info) so the
#: relax, multisource, streaming and UVM bit-identity tests double as
#: memory/UB checks in CI.  The sanitized object is cached under its own flag
#: digest, so switching modes never serves a stale unsanitized build.
_ENV_SANITIZE = "REPRO_NATIVE_SANITIZE"

_SANITIZE_MODES = ("asan", "ubsan")

#: Warnings are errors in these builds, so a kernel that draws a warning fails
#: the sanitizer CI job at compile time rather than degrading to numpy.
_WARNING_FLAGS = ("-Wall", "-Wextra", "-Werror")

_SANITIZE_FLAGS = {
    "asan": ("-fsanitize=address", "-fno-omit-frame-pointer", "-g", *_WARNING_FLAGS),
    "ubsan": ("-fsanitize=undefined", "-fno-omit-frame-pointer", "-g", *_WARNING_FLAGS),
}

_CFLAGS = ("-O3", "-shared", "-fPIC", "-ffp-contract=off")

_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define REPRO_DENSE_ARM 1
#else
#define REPRO_DENSE_ARM 0
#endif

/* 1 when this host can run the dense relaxation arm: the object was built
 * for x86 and the CPU reports AVX2.  Decided at run time, so the object
 * needs no -mavx2 / -march flag and loads on every x86-64 host.
 */
int repro_dense_arm(void)
{
#if REPRO_DENSE_ARM
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
#else
    return 0;
#endif
}

#if REPRO_DENSE_ARM
/* The dense arm: relax every lane of one frontier vertex along its edges.
 *
 * snap is the vertex's whole snapshot row, +inf in its inactive lanes:
 * inf + w never beats a stored value, so an inactive lane can never win and
 * the row needs no per-lane branch.  Each 4-lane group computes
 * c = snap + w, stores min(drow, c) with a blend and collects the improved
 * lanes' bits; the lanes after the last full group take a scalar tail.  The
 * improved lanes are ORed into next_bits once per edge.  Values and
 * next_bits are exactly the scalar loop's.
 */
__attribute__((target("avx2")))
static void relax_row_avx2(const double *snap,
                           const int64_t *edge,
                           const int64_t *end,
                           const float *weight,
                           double *dist,
                           uint64_t *next_bits,
                           int64_t lanes)
{
    int64_t groups = lanes & ~(int64_t)3;
    for (; edge < end; edge++) {
        int64_t destination = *edge;
        double w = weight ? (double)*weight++ : 1.0;
        double *drow = dist + destination * lanes;
        __m256d wide = _mm256_set1_pd(w);
        uint64_t mask = 0;
        int64_t lane = 0;
        for (; lane < groups; lane += 4) {
            __m256d candidate = _mm256_add_pd(_mm256_loadu_pd(snap + lane), wide);
            __m256d stored = _mm256_loadu_pd(drow + lane);
            __m256d lt = _mm256_cmp_pd(candidate, stored, _CMP_LT_OQ);
            _mm256_storeu_pd(drow + lane, _mm256_blendv_pd(stored, candidate, lt));
            mask |= (uint64_t)_mm256_movemask_pd(lt) << lane;
        }
        for (; lane < lanes; lane++) {
            double candidate = snap[lane] + w;
            if (candidate < drow[lane]) {
                drow[lane] = candidate;
                mask |= 1ull << (uint64_t)lane;
            }
        }
        if (mask) next_bits[destination] |= mask;
    }
}
#endif

/* The scalar arm: relax one active lane of one frontier vertex along its
 * edges [edge, end).  source is the lane's snapshot value and column the
 * lane's first cell of the (num_vertices, lanes) value matrix, so a
 * destination d's cell is column[d * lanes].  The loop has no branch: every
 * edge stores the smaller of the candidate and the stored value (a tie keeps
 * the stored one) and ORs the comparison into the destination's word, so
 * values and next_bits are exactly those of a compare-and-store.  weight is
 * NULL on an unweighted graph, where every candidate adds 1.0; always
 * inlined, so each call site compiles a loop for its own case.
 */
static inline __attribute__((always_inline)) void relax_lane(const int64_t *edge,
                                                             const int64_t *end,
                                                             const float *weight,
                                                             double source,
                                                             double *column,
                                                             uint64_t *next_bits,
                                                             int64_t lanes,
                                                             int lane)
{
    for (; edge < end; edge++) {
        int64_t destination = *edge;
        double candidate = source + (weight ? (double)*weight++ : 1.0);
        double *stored = column + destination * lanes;
        double old = *stored;
        int lt = candidate < old;
        *stored = lt ? candidate : old;
        next_bits[destination] |= (uint64_t)lt << lane;
    }
}

/* Append the next frontier to a word's trace: one ascending scan of
 * next_bits writes every vertex with a bit set, and its lane word, from
 * entry end on, and zeroes the word.  Returns the number of entries
 * appended. */
static int64_t append_frontier(int64_t *vertices, uint64_t *masks, int64_t end,
                               uint64_t *next_bits, int64_t num_vertices)
{
    int64_t count = 0;
    for (int64_t v = 0; v < num_vertices; v++) {
        uint64_t bits = next_bits[v];
        if (!bits) continue;
        next_bits[v] = 0;
        vertices[end + count] = v;
        masks[end + count] = bits;
        count++;
    }
    return count;
}

/* One lane-parallel SSSP relaxation sweep of a <= 64-lane word, on the
 * word's trace.
 *
 * The trace is the pair vertices / masks: entries [start, end) are the
 * sweep's union frontier (ascending vertex ids) and each one's lane word,
 * and a vertex v's edges are edges[offsets[v] .. offsets[v + 1]).  dist is
 * the (num_vertices, lanes) row-major value matrix; snapshot is a
 * (num_vertices, lanes) scratch area.  Source values are snapshotted before
 * any store so a destination improved earlier in the same sweep can never
 * feed a later candidate -- exactly the gather-then-scatter semantics of the
 * numpy sweep and of the solo per-source runs.  weights (float32, added as
 * their exact double upcast) may be NULL: an unweighted graph relaxes with
 * 1.0.  The lanes each destination improved on are ORed into next_bits,
 * which must arrive zeroed; append_frontier then writes them to the trace
 * from entry end on (the caller leaves num_vertices entries free there) and
 * leaves next_bits zeroed.  Returns the number of entries appended: the
 * next frontier's size.
 *
 * A frontier vertex on which at least a quarter of the word's lanes are
 * active takes the dense arm (relax_row_avx2) when dense is nonzero, the
 * word has at least 4 lanes and repro_dense_arm() holds; every other vertex
 * takes its active lanes one at a time with ctz and walks its edges once per
 * lane (relax_lane), branch-free.  Either order is exact: each (destination,
 * lane) cell sees the same candidates, all read from the snapshot, and a
 * tie keeps the stored value.
 */
int64_t repro_sssp_sweep(int64_t *vertices,
                         uint64_t *masks,
                         int64_t start,
                         int64_t end,
                         const int64_t *offsets,
                         const int64_t *edges,
                         const float *weights,
                         double *dist,
                         double *snapshot,
                         uint64_t *next_bits,
                         int64_t num_vertices,
                         int64_t lanes,
                         int dense)
{
    const int64_t *frontier = vertices + start;
    const uint64_t *active_bits = masks + start;
    int64_t num_frontier = end - start;
    dense = dense && lanes >= 4 && repro_dense_arm();
    for (int64_t f = 0; f < num_frontier; f++) {
        const double *row = dist + frontier[f] * lanes;
        double *snap = snapshot + f * lanes;
        uint64_t bits = active_bits[f];
        if (dense && 4 * __builtin_popcountll(bits) >= lanes) {
            for (int64_t lane = 0; lane < lanes; lane++) {
                snap[lane] = (bits >> lane) & 1 ? row[lane] : __builtin_inf();
            }
            continue;
        }
        while (bits) {
            int lane = __builtin_ctzll(bits);
            bits &= bits - 1;
            snap[lane] = row[lane];
        }
    }
    for (int64_t f = 0; f < num_frontier; f++) {
        uint64_t bits = active_bits[f];
        if (!bits) continue;
        const double *snap = snapshot + f * lanes;
        int64_t edge_start = offsets[frontier[f]], edge_end = offsets[frontier[f] + 1];
#if REPRO_DENSE_ARM
        if (dense && 4 * __builtin_popcountll(bits) >= lanes) {
            relax_row_avx2(snap, edges + edge_start, edges + edge_end,
                           weights ? weights + edge_start : 0, dist, next_bits, lanes);
            continue;
        }
#endif
        const int64_t *first = edges + edge_start, *last = edges + edge_end;
        while (bits) {
            int lane = __builtin_ctzll(bits);
            bits &= bits - 1;
            if (weights) {
                relax_lane(first, last, weights + edge_start, snap[lane], dist + lane,
                           next_bits, lanes, lane);
            } else {
                relax_lane(first, last, 0, snap[lane], dist + lane, next_bits, lanes, lane);
            }
        }
    }
    return append_frontier(vertices, masks, end, next_bits, num_vertices);
}

/* One BFS sweep of a <= 64-lane word, on the word's trace.
 *
 * The trace and the edge ranges are as for repro_sssp_sweep.  Every
 * frontier word is OR-scattered into next_bits at its vertex's neighbours;
 * then one ascending pass over the vertices keeps the bits not yet in
 * visited_bits, marks them visited, writes depth into their lanes' rows of
 * the (lanes, num_vertices) row-major levels matrix, and appends the vertex
 * and its new lane word to the trace from entry end on (the caller leaves
 * num_vertices entries free there).  next_bits must arrive zeroed and is
 * left zeroed.  Returns the number of entries appended: the next frontier's
 * size.
 */
int64_t repro_bfs_sweep(int64_t *vertices,
                        uint64_t *masks,
                        int64_t start,
                        int64_t end,
                        const int64_t *offsets,
                        const int64_t *edges,
                        uint64_t *next_bits,
                        uint64_t *visited_bits,
                        int64_t *levels,
                        int64_t num_vertices,
                        int64_t depth)
{
    for (int64_t f = start; f < end; f++) {
        uint64_t bits = masks[f];
        int64_t edge_start = offsets[vertices[f]], edge_end = offsets[vertices[f] + 1];
        for (int64_t e = edge_start; e < edge_end; e++) {
            next_bits[edges[e]] |= bits;
        }
    }
    int64_t count = 0;
    for (int64_t v = 0; v < num_vertices; v++) {
        uint64_t reached = next_bits[v];
        if (!reached) continue;
        next_bits[v] = 0;
        uint64_t fresh = reached & ~visited_bits[v];
        if (!fresh) continue;
        visited_bits[v] |= fresh;
        vertices[end + count] = v;
        masks[end + count] = fresh;
        count++;
        while (fresh) {
            int lane = __builtin_ctzll(fresh);
            fresh &= fresh - 1;
            levels[(int64_t)lane * num_vertices + v] = depth;
        }
    }
    return count;
}

/* One min-label propagation (CC) sweep.
 *
 * labels is copied into prev first; then every edge frontier[f] -> d lowers
 * labels[d] to prev[frontier[f]].  Sources are read from the snapshot, so a
 * label lowered earlier in the sweep never feeds a later edge -- the
 * gather-then-scatter semantics of np.minimum.at over candidates gathered
 * before the scatter.  One ascending scan then writes every vertex whose
 * label dropped to next_frontier (num_vertices capacity).  Returns its size.
 * Both loops are branch-free: on the first sweep the comparisons are coin
 * flips, and a mispredicted branch costs more than the store it saves.
 */
int64_t repro_cc_sweep(const int64_t *frontier,
                       const int64_t *starts,
                       const int64_t *ends,
                       int64_t num_frontier,
                       const int64_t *edges,
                       int64_t *labels,
                       int64_t *prev,
                       int64_t num_vertices,
                       int64_t *next_frontier)
{
    for (int64_t v = 0; v < num_vertices; v++) prev[v] = labels[v];
    for (int64_t f = 0; f < num_frontier; f++) {
        int64_t label = prev[frontier[f]];
        /* Bounds read once: a store through labels may alias ends. */
        const int64_t *edge = edges + starts[f], *end = edges + ends[f];
        for (; edge < end; edge++) {
            int64_t current = labels[*edge];
            labels[*edge] = label < current ? label : current;
        }
    }
    int64_t count = 0;
    for (int64_t v = 0; v < num_vertices; v++) {
        next_frontier[count] = v;
        count += labels[v] < prev[v];
    }
    return count;
}

/* One push-style PageRank step over the whole graph.
 *
 * contribution is overwritten: every vertex with degrees[v] > 0 pushes
 * scores[v] / degrees[v] to each out-neighbour in CSR edge order (the order
 * np.add.at applies), then new_scores = base + damping * (contribution +
 * dangling).  Built with -ffp-contract=off so no multiply-add is fused.
 * Returns the number of edges pushed.
 */
int64_t repro_pagerank_step(const int64_t *offsets,
                            const int64_t *edges,
                            const double *degrees,
                            const double *scores,
                            double *contribution,
                            double *new_scores,
                            int64_t num_vertices,
                            double base,
                            double damping,
                            double dangling)
{
    for (int64_t v = 0; v < num_vertices; v++) contribution[v] = 0.0;
    for (int64_t v = 0; v < num_vertices; v++) {
        if (!(degrees[v] > 0.0)) continue;
        double share = scores[v] / degrees[v];
        /* A pointer walk with its bound read once: measured about 20 %
         * faster than indexing edges[e] up to offsets[v + 1]. */
        const int64_t *edge = edges + offsets[v], *end = edges + offsets[v + 1];
        for (; edge < end; edge++) contribution[*edge] += share;
    }
    for (int64_t v = 0; v < num_vertices; v++) {
        new_scores[v] = base + damping * (contribution[v] + dangling);
    }
    return offsets[num_vertices] - offsets[0];
}

/* Per-(lane, sweep) rows of a traced BFS/SSSP word: what each of the
 * num_lanes lanes lanes[] (distinct lane indices below 64) swept, summed over
 * the vertices of its own frontier.
 *
 * The word's sweeps are concatenated: sweep k holds entries [bounds[k],
 * bounds[k + 1]) of frontier (vertex ids) and masks (their lane words).  A
 * vertex's row is its degree (offsets[v + 1] - offsets[v]), 1, then its
 * width0 entries of table0 and its width1 entries of table1 (row-major
 * (num_vertices, width) int64 request tables; a NULL table has width 0;
 * widths are at most 4).  rows, of shape (num_lanes, num_sweeps, 2 + width0
 * + width1), receives for every i < num_lanes and sweep k the sum of the
 * rows of sweep k's entries whose mask has bit lanes[i] set; the other bits
 * are never read.  An entry on which more than half the given lanes are
 * active adds its row to the sweep's total and takes it back from the given
 * lanes it lacks, so no entry visits more than half of them.
 *
 * Always inlined, so a call with constant widths compiles every per-column
 * loop to straight-line code: a solo word's pass is a few adds per entry,
 * and the loop overhead of run-time widths cost as much as the sums.
 */
static inline __attribute__((always_inline)) void lane_rows(const int64_t *frontier,
                                                            const uint64_t *masks,
                                                            const int64_t *bounds,
                                                            int64_t num_sweeps,
                                                            const int64_t *offsets,
                                                            const int64_t *table0,
                                                            int64_t width0,
                                                            const int64_t *table1,
                                                            int64_t width1,
                                                            const int64_t *lanes,
                                                            int64_t num_lanes,
                                                            int64_t *rows)
{
    int64_t width = 2 + width0 + width1;
    int64_t slot[64];
    uint64_t word = 0;
    for (int64_t i = 0; i < num_lanes; i++) {
        slot[lanes[i]] = i;
        word |= 1ull << lanes[i];
    }
    int64_t row[10], total[10];
    for (int64_t k = 0; k < num_sweeps; k++) {
        for (int64_t j = 0; j < width; j++) total[j] = 0;
        for (int64_t i = 0; i < num_lanes; i++) {
            int64_t *dst = rows + (i * num_sweeps + k) * width;
            for (int64_t j = 0; j < width; j++) dst[j] = 0;
        }
        for (int64_t e = bounds[k]; e < bounds[k + 1]; e++) {
            uint64_t mask = masks[e] & word;
            if (!mask) continue;
            int64_t v = frontier[e];
            row[0] = offsets[v + 1] - offsets[v];
            row[1] = 1;
            for (int64_t j = 0; j < width0; j++) row[2 + j] = table0[v * width0 + j];
            for (int64_t j = 0; j < width1; j++) row[2 + width0 + j] = table1[v * width1 + j];
            if (2 * __builtin_popcountll(mask) > num_lanes) {
                for (int64_t j = 0; j < width; j++) total[j] += row[j];
                mask = ~mask & word;
                while (mask) {
                    int64_t *dst = rows + (slot[__builtin_ctzll(mask)] * num_sweeps + k) * width;
                    mask &= mask - 1;
                    for (int64_t j = 0; j < width; j++) dst[j] -= row[j];
                }
            } else {
                while (mask) {
                    int64_t *dst = rows + (slot[__builtin_ctzll(mask)] * num_sweeps + k) * width;
                    mask &= mask - 1;
                    for (int64_t j = 0; j < width; j++) dst[j] += row[j];
                }
            }
        }
        for (int64_t i = 0; i < num_lanes; i++) {
            int64_t *dst = rows + (i * num_sweeps + k) * width;
            for (int64_t j = 0; j < width; j++) dst[j] += total[j];
        }
    }
}

/* lane_rows, with constant widths for the four table shapes zero-copy
 * engines build: a warp per vertex (4 request sizes) or a thread per vertex
 * (1 column of sectors), over the edge list alone or over edges and
 * weights.  Any other shape (a UVM engine's no tables, or a direct
 * caller's) runs the same body with run-time widths.  Returns 0.
 */
int64_t repro_lane_rows(const int64_t *frontier,
                        const uint64_t *masks,
                        const int64_t *bounds,
                        int64_t num_sweeps,
                        const int64_t *offsets,
                        const int64_t *table0,
                        int64_t width0,
                        const int64_t *table1,
                        int64_t width1,
                        const int64_t *lanes,
                        int64_t num_lanes,
                        int64_t *rows)
{
#define REPRO_LANE_ROWS(w0, w1) \
    lane_rows(frontier, masks, bounds, num_sweeps, offsets, table0, w0, table1, w1, lanes, \
              num_lanes, rows)
    if (width0 == 4 && width1 == 4) REPRO_LANE_ROWS(4, 4);
    else if (width0 == 4 && width1 == 0) REPRO_LANE_ROWS(4, 0);
    else if (width0 == 1 && width1 == 1) REPRO_LANE_ROWS(1, 1);
    else if (width0 == 1 && width1 == 0) REPRO_LANE_ROWS(1, 0);
    else REPRO_LANE_ROWS(width0, width1);
#undef REPRO_LANE_ROWS
    return 0;
}

/* The UVM residency state of one region, as UVMSpace holds it.
 *
 * state is the space's int64 array: [0] the clock, [1..4] the running
 * totals (faults, migrated bytes, evictions, accessed pages).  counters
 * points at the current segment's four counters (pages touched, page
 * faults, migrated bytes, evicted pages).  seen, chunk and migrated are
 * num_pages each: seen[p] holds the clock of the last chunk that touched p
 * (so it must be zeroed whenever the clock is); chunk holds a chunk's
 * distinct pages and, once they are stamped, the eviction candidates;
 * migrated holds a chunk's migrations.
 */
typedef struct {
    int64_t page_bytes, capacity, prefetch, num_pages;
    uint8_t *resident;
    int64_t *last_touch, *state, *seen, *chunk, *migrated, *counters;
    int64_t resident_count;
} uvm_space;

/* Key order of LRU eviction: older last touch first, then lower page id --
 * the order of a stable argsort of last_touch over ascending page ids. */
static inline int uvm_before(const int64_t *last_touch, int64_t a, int64_t b)
{
    return last_touch[a] < last_touch[b] || (last_touch[a] == last_touch[b] && a < b);
}

/* Reorder ids[0..n) so its k smallest keys (0 < k < n) come first
 * (Hoare's select with a median-of-three pivot).  Keys are distinct. */
static void uvm_select(int64_t *ids, int64_t n, int64_t k, const int64_t *last_touch)
{
    int64_t lo = 0, hi = n - 1, target = k - 1;
    while (lo < hi) {
        int64_t a = ids[lo], b = ids[lo + (hi - lo) / 2], c = ids[hi], pivot;
        if (uvm_before(last_touch, a, b)) {
            pivot = uvm_before(last_touch, b, c) ? b : (uvm_before(last_touch, a, c) ? c : a);
        } else {
            pivot = uvm_before(last_touch, a, c) ? a : (uvm_before(last_touch, b, c) ? c : b);
        }
        int64_t i = lo, j = hi;
        while (i <= j) {
            while (uvm_before(last_touch, ids[i], pivot)) i++;
            while (uvm_before(last_touch, pivot, ids[j])) j--;
            if (i <= j) {
                int64_t swap = ids[i];
                ids[i++] = ids[j];
                ids[j--] = swap;
            }
        }
        if (j < target) lo = i;
        if (target < i) hi = j;
    }
}

/* One chunk of the page stream: its size distinct pages are in u->chunk and
 * carry seen == the clock this call gives the chunk. */
static void uvm_chunk(uvm_space *u, int64_t size)
{
    uint8_t *resident = u->resident;
    int64_t *last_touch = u->last_touch, *migrated = u->migrated;
    int64_t clock = ++u->state[0];
    int64_t granule = u->prefetch, moved = 0;
    /* The faults' migrations: each non-resident page of a faulting page's
     * aligned block (clamped to the region), once; last_touch == clock marks
     * a page already taken. */
    for (int64_t i = 0; i < size; i++) {
        int64_t page = u->chunk[i];
        if (resident[page] || last_touch[page] == clock) continue;
        if (granule <= 1) {
            last_touch[page] = clock;
            migrated[moved++] = page;
            continue;
        }
        int64_t first = page - page % granule;
        int64_t last = first + granule < u->num_pages ? first + granule : u->num_pages;
        for (int64_t q = first; q < last; q++) {
            if (resident[q] || last_touch[q] == clock) continue;
            last_touch[q] = clock;
            migrated[moved++] = q;
        }
    }
    for (int64_t i = 0; i < size; i++) last_touch[u->chunk[i]] = clock;
    int64_t evicted = 0;
    if (moved) {
        if (u->capacity <= 0) {
            /* No page cache: whatever is resident goes. */
            if (u->resident_count) {
                for (int64_t p = 0; p < u->num_pages; p++) {
                    evicted += resident[p] != 0;
                    resident[p] = 0;
                }
            }
        } else {
            int64_t overflow = u->resident_count + moved - u->capacity;
            if (overflow > 0) {
                /* Candidates: resident pages outside the chunk, ascending. */
                int64_t *candidates = u->chunk, count = 0;
                for (int64_t p = 0; p < u->num_pages; p++) {
                    if (resident[p] && u->seen[p] != clock) candidates[count++] = p;
                }
                evicted = overflow < count ? overflow : count;
                if (evicted < count) uvm_select(candidates, count, evicted, last_touch);
                for (int64_t i = 0; i < evicted; i++) resident[candidates[i]] = 0;
            }
        }
        u->resident_count -= evicted;
        if (u->capacity > 0) {
            for (int64_t i = 0; i < moved; i++) resident[migrated[i]] = 1;
            u->resident_count += moved;
        }
    }
    int64_t moved_bytes = moved * u->page_bytes;
    int64_t *state = u->state, *counters = u->counters;
    state[1] += moved;
    state[2] += moved_bytes;
    state[3] += evicted;
    state[4] += size;
    counters[0] += size;
    counters[1] += moved;
    counters[2] += moved_bytes;
    counters[3] += evicted;
}

/* A segment's page stream as it is being cut into chunks. */
typedef struct {
    int64_t chunk_pages, entries, size, previous, stamp;
} uvm_stream;

static void uvm_stream_start(uvm_stream *s, const uvm_space *u)
{
    s->entries = s->size = 0;
    s->previous = -1;
    s->stamp = u->state[0] + 1;
}

/* Feed one page of the stream: a page equal to the one before it is
 * dropped, a chunk's first touch of a page stamps it, and every
 * chunk_pages entries replay a chunk. */
static inline void uvm_feed(uvm_space *u, uvm_stream *s, int64_t page)
{
    if (page == s->previous) return;
    s->previous = page;
    if (u->seen[page] != s->stamp) {
        u->seen[page] = s->stamp;
        u->chunk[s->size++] = page;
    }
    if (++s->entries == s->chunk_pages) {
        uvm_chunk(u, s->size);
        s->entries = s->size = 0;
        s->stamp = u->state[0] + 1;
    }
}

static void uvm_stream_end(uvm_space *u, uvm_stream *s)
{
    if (s->entries) uvm_chunk(u, s->size);
}

/* Each segment's ranges folded to the pages they touch, ascending, each
 * with the OR of the masks of the ranges touching it: pages / folded for
 * folded_bounds[k] <= i < folded_bounds[k + 1].  Returns 0 when some
 * segment's page stream descends, 1 otherwise. */
static int uvm_fold(const int64_t *starts, const int64_t *ends, const uint64_t *masks,
                    const int64_t *bounds, int64_t num_segments, int shift,
                    int64_t *pages, uint64_t *folded, int64_t *folded_bounds)
{
    int64_t count = 0;
    folded_bounds[0] = 0;
    for (int64_t k = 0; k < num_segments; k++) {
        int64_t first = count;
        for (int64_t r = bounds[k]; r < bounds[k + 1]; r++) {
            if (ends[r] <= starts[r]) continue;
            int64_t last = (ends[r] - 1) >> shift;
            for (int64_t page = starts[r] >> shift; page <= last; page++) {
                if (count > first && page <= pages[count - 1]) {
                    if (page < pages[count - 1]) return 0;
                    folded[count - 1] |= masks[r];
                    continue;
                }
                pages[count] = page;
                folded[count++] = masks[r];
            }
        }
        folded_bounds[k + 1] = count;
    }
    return 1;
}

/* Replay the lanes of a traced run's segments of byte ranges, each lane
 * from a reset space, each of its segments one
 * UVMSpace.access_byte_ranges call over the ranges carrying its bit.
 *
 * Segment k holds ranges [bounds[k], bounds[k + 1]).  page_bytes must be a
 * power of two.  Every range with ends[r] > starts[r] must lie within
 * [0, size_bytes]; otherwise -1 is returned before any state changes.  A
 * call's valid ranges' pages stream in range order, a page equal to the one
 * before it dropped (across range boundaries too), and are cut into chunks
 * of chunk_pages stream entries.  Each chunk is deduplicated in first-touch
 * order and replayed: its non-resident pages fault and migrate with their
 * prefetch blocks, and, when the cache would overflow, the least recently
 * touched resident pages outside the chunk are evicted.  With capacity <= 0
 * nothing stays resident.
 *
 * The segments are replayed once per entry of lanes, each time from a reset
 * space (UVMSpace.reset: nothing resident, every clock and total zero),
 * taking only the ranges whose mask has bit lanes[j] set, and
 * counters[4 * (j * num_segments + k) ...] receives lane j's segment k:
 * its pages touched, page faults, migrated bytes and evicted pages.  The
 * ranges are first folded to pages: every segment's page stream must not
 * descend, as a traversal frontier's ascending neighbour lists do not (-2
 * is returned before any state changes otherwise), so a lane's stream is
 * exactly the pages carrying its bit.  Returns 0, or -3 when the fold's
 * buffer cannot be allocated.
 */
int64_t repro_uvm_replay(const int64_t *starts,
                         const int64_t *ends,
                         const uint64_t *masks,
                         const int64_t *bounds,
                         int64_t num_segments,
                         const int64_t *lanes,
                         int64_t num_lanes,
                         int64_t size_bytes,
                         int64_t page_bytes,
                         int64_t capacity,
                         int64_t prefetch,
                         int64_t num_pages,
                         uint8_t *resident,
                         int64_t *last_touch,
                         int64_t *state,
                         int64_t *scratch,
                         int64_t *counters)
{
    int64_t folded_size = 0;
    for (int64_t r = bounds[0]; r < bounds[num_segments]; r++) {
        if (ends[r] <= starts[r]) continue;
        if (starts[r] < 0 || ends[r] > size_bytes) return -1;
        folded_size += (ends[r] - 1) / page_bytes - starts[r] / page_bytes + 1;
    }
    uvm_space u = {page_bytes, capacity, prefetch, num_pages, resident, last_touch,
                   state, scratch, scratch + num_pages, scratch + 2 * num_pages,
                   counters, 0};
    uvm_stream s;
    s.chunk_pages = capacity <= 0 ? 1024 : (capacity / 4 > 1 ? capacity / 4 : 1);
    /* page_bytes is a power of two and every valid offset is >= 0. */
    int shift = __builtin_ctzll((uint64_t)page_bytes);
    int64_t *pages = malloc((size_t)(folded_size + num_segments + 1) * 2 * sizeof(int64_t));
    if (!pages) return -3;
    uint64_t *folded = (uint64_t *)(pages + folded_size);
    int64_t *folded_bounds = pages + 2 * folded_size;
    if (!uvm_fold(starts, ends, masks, bounds, num_segments, shift, pages, folded,
                  folded_bounds)) {
        free(pages);
        return -2;
    }
    for (int64_t j = 0; j < num_lanes; j++) {
        uint64_t bit = (uint64_t)1 << (lanes[j] & 63);
        for (int64_t p = 0; p < num_pages; p++) {
            resident[p] = 0;
            last_touch[p] = 0;
            u.seen[p] = 0;
        }
        for (int i = 0; i < 5; i++) state[i] = 0;
        u.resident_count = 0;
        for (int64_t k = 0; k < num_segments; k++) {
            u.counters = counters + 4 * (j * num_segments + k);
            for (int i = 0; i < 4; i++) u.counters[i] = 0;
            uvm_stream_start(&s, &u);
            for (int64_t i = folded_bounds[k]; i < folded_bounds[k + 1]; i++) {
                if (folded[i] & bit) uvm_feed(&u, &s, pages[i]);
            }
            uvm_stream_end(&u, &s);
        }
    }
    free(pages);
    return 0;
}
"""

_lock = tracked_lock("traversal._native._lock")
_library: ctypes.CDLL | None = None
_status: str | None = None  # None = not yet probed

#: 1 when ``repro_sssp_sweep`` may take its dense (AVX2) arm: set once per
#: load from the ``repro_dense_arm`` probe and read as each SSSP word binds
#: its sweep, so a test can force either arm by patching it.  The kernel
#: still re-checks the CPU, so forcing 1 on a host without AVX2 runs the
#: scalar arm.
_dense_arm = 0

_fault_check = None


def _check_fault(site: str) -> None:
    """Fire any armed ``native.compile`` / ``native.invoke`` fault.

    Lazily bound like the engine's iteration checkpoint: importing
    ``repro.service`` at module scope would be circular (the service package
    imports the traversal API, which imports this module via the relax
    kernel).
    """
    global _fault_check
    if _fault_check is None:
        from ..service.faults import check

        _fault_check = check
    _fault_check(site)


def reset_probe() -> None:
    """Forget the cached build/load outcome so the next call re-probes.

    Used by the resilience tests and chaos harness: after an injected
    compile failure poisons the cached status, this restores the healthy
    backend without restarting the process.
    """
    global _library, _status
    with _lock:
        _library = None
        _status = None


def _cache_dir() -> Path:
    override = env_str(_ENV_CACHE_DIR)
    if override:
        return Path(override)
    return Path(os.environ.get("XDG_CACHE_HOME", Path.home() / ".cache")) / "repro-native"


def _compiler() -> str | None:
    for candidate in ("cc", "gcc", "clang"):
        path = shutil.which(candidate)
        if path:
            return path
    return None


def _build_flags() -> tuple[tuple[str, ...], str]:
    """Compiler flags plus a status suffix describing the sanitizer mode."""
    mode = env_choice(_ENV_SANITIZE, _SANITIZE_MODES)
    if mode is None:
        return _CFLAGS, ""
    return _CFLAGS + _SANITIZE_FLAGS[mode], f" [{mode}]"


def _build() -> tuple[ctypes.CDLL | None, str]:
    """Compile (or reuse) the shared object; returns (library, status)."""
    if not env_flag(_ENV_SWITCH, default=True):
        return None, "disabled via REPRO_NATIVE"
    try:
        _check_fault("native.compile")
    except Exception as exc:
        return None, f"compile failed: {exc}"
    try:
        flags, sanitize_note = _build_flags()
    except ConfigurationError as exc:
        # A typo'd sanitizer request must not silently serve the plain build:
        # degrade to the numpy backend with the reason in status().
        return None, f"sanitizer misconfigured: {exc}"
    compiler = _compiler()
    if compiler is None:
        return None, "no C compiler on PATH"
    digest = hashlib.sha256(
        ("\x00".join((_SOURCE, *flags))).encode()
    ).hexdigest()[:16]
    cache = _cache_dir()
    shared_object = cache / f"relax_{digest}.so"
    if not shared_object.exists():
        try:
            cache.mkdir(parents=True, exist_ok=True)
            with tempfile.TemporaryDirectory(dir=cache) as workdir:
                source = Path(workdir) / "relax.c"
                source.write_text(_SOURCE)
                built = Path(workdir) / "relax.so"
                subprocess.run(
                    [compiler, *flags, str(source), "-o", str(built)],
                    check=True,
                    capture_output=True,
                    timeout=120,
                )
                # Atomic publish: concurrent builders race benignly.
                os.replace(built, shared_object)
        except (OSError, subprocess.SubprocessError) as exc:
            return None, f"compile failed: {exc}"
    try:
        library = ctypes.CDLL(str(shared_object))
        # Raw addresses (c_void_p), not ndpointer argtypes: ndpointer's
        # per-argument from_param cost more than a small sweep itself.  The
        # wrappers below make the dtype and contiguity checks it made.
        pointer, integer = ctypes.c_void_p, ctypes.c_int64
        library.repro_dense_arm.restype = ctypes.c_int
        library.repro_dense_arm.argtypes = []
        library.repro_sssp_sweep.restype = integer
        library.repro_sssp_sweep.argtypes = [
            pointer,  # vertices
            pointer,  # masks
            integer,  # start
            integer,  # end
            pointer,  # offsets
            pointer,  # edges
            pointer,  # weights (nullable)
            pointer,  # dist
            pointer,  # snapshot
            pointer,  # next_bits
            integer,  # num_vertices
            integer,  # lanes
            ctypes.c_int,  # dense
        ]
        library.repro_bfs_sweep.restype = integer
        library.repro_bfs_sweep.argtypes = [
            pointer,  # vertices
            pointer,  # masks
            integer,  # start
            integer,  # end
            pointer,  # offsets
            pointer,  # edges
            pointer,  # next_bits
            pointer,  # visited_bits
            pointer,  # levels
            integer,  # num_vertices
            integer,  # depth
        ]
        library.repro_cc_sweep.restype = integer
        library.repro_cc_sweep.argtypes = [
            pointer,  # frontier
            pointer,  # starts
            pointer,  # ends
            integer,  # num_frontier
            pointer,  # edges
            pointer,  # labels
            pointer,  # prev
            integer,  # num_vertices
            pointer,  # next_frontier
        ]
        library.repro_pagerank_step.restype = integer
        library.repro_pagerank_step.argtypes = [
            pointer,  # offsets
            pointer,  # edges
            pointer,  # degrees
            pointer,  # scores
            pointer,  # contribution
            pointer,  # new_scores
            integer,  # num_vertices
            ctypes.c_double,  # base
            ctypes.c_double,  # damping
            ctypes.c_double,  # dangling
        ]
        library.repro_lane_rows.restype = integer
        library.repro_lane_rows.argtypes = [
            pointer,  # frontier
            pointer,  # masks
            pointer,  # bounds
            integer,  # num_sweeps
            pointer,  # offsets
            pointer,  # table0 (nullable)
            integer,  # width0
            pointer,  # table1 (nullable)
            integer,  # width1
            pointer,  # lanes
            integer,  # num_lanes
            pointer,  # rows
        ]
        library.repro_uvm_replay.restype = integer
        library.repro_uvm_replay.argtypes = [
            pointer,  # starts
            pointer,  # ends
            pointer,  # masks (nullable)
            pointer,  # bounds
            integer,  # num_segments
            pointer,  # lanes
            integer,  # num_lanes
            integer,  # size_bytes
            integer,  # page_bytes
            integer,  # capacity
            integer,  # prefetch
            integer,  # num_pages
            pointer,  # resident
            pointer,  # last_touch
            pointer,  # state
            pointer,  # scratch
            pointer,  # counters
        ]
    except OSError as exc:
        return None, f"load failed: {exc}"
    return library, f"compiled with {compiler}{sanitize_note}"


def _ensure_loaded() -> ctypes.CDLL | None:
    global _library, _status, _dense_arm
    if _status is None:
        with _lock:
            if _status is None:
                library, status = _build()
                _dense_arm = int(library.repro_dense_arm()) if library else 0
                _library, _status = library, status
    return _library


def available() -> bool:
    """True when the compiled kernels are usable on this host."""
    return _ensure_loaded() is not None


def check_method(relax_method: str | None) -> None:
    """Refuse a ``relax_method`` that is neither ``None`` nor one of
    :data:`RELAX_METHODS`."""
    if relax_method is not None and relax_method not in RELAX_METHODS:
        raise ConfigurationError(
            f"unknown relaxation method {relax_method!r}; use {RELAX_METHODS}"
        )


def wanted(relax_method: str | None) -> bool:
    """True when a run with ``relax_method`` takes the native kernels.

    ``None`` (best available) and ``"native"`` do, on a host where they are
    available; ``"scatter"`` (the service's re-run after a native failure)
    runs every kernel, UVM replay included, on numpy.  Every run loop asks
    this first, so any other value raises
    :class:`~repro.errors.ConfigurationError` before anything runs.
    """
    check_method(relax_method)
    return relax_method in (None, "native") and available()


def status() -> str:
    """Human-readable availability note (for benchmark reports)."""
    _ensure_loaded()
    return _status or "unknown"


def _invoke(kernel: str, *args) -> int:
    """Call ``repro_<kernel>`` behind the ``native.invoke`` fault site.

    Injected invoke faults, a missing library and ctypes-level failures all
    surface as :class:`NativeBackendError`, so the service's step-down to
    numpy cannot tell an injected failure from a real one.
    """
    try:
        _check_fault("native.invoke")
    except Exception as exc:
        raise NativeBackendError(f"native {kernel} kernel failed: {exc}") from exc
    library = _ensure_loaded()
    if library is None:
        raise NativeBackendError(f"native {kernel} kernel unavailable: {status()}")
    try:
        return int(getattr(library, f"repro_{kernel}")(*args))
    except (ctypes.ArgumentError, OSError) as exc:
        raise NativeBackendError(f"native {kernel} kernel failed: {exc}") from exc


_INT64 = np.dtype(np.int64)
_UINT8 = np.dtype(np.uint8)
_UINT64 = np.dtype(np.uint64)
_FLOAT32 = np.dtype(np.float32)
_FLOAT64 = np.dtype(np.float64)

#: Arrays one :class:`Pins` holds before it starts over (a UVM space pins 4).
_MAX_PINS = 16


def _address(array: np.ndarray, dtype: np.dtype, kernel: str) -> int:
    """``array``'s data address, after the checks an ndpointer argtype made.

    A wrong dtype or a strided view would be read with the wrong element
    size or stride, so either is refused.
    """
    if array.dtype != dtype or not array.flags.c_contiguous:
        raise ValueError(
            f"{kernel} buffers must be C-contiguous {dtype.name} arrays, "
            f"got {array.dtype.name} (C-contiguous: {array.flags.c_contiguous})"
        )
    return array.ctypes.data


class Pins:
    """Addresses of the buffers a UVM space hands to every replay, each
    taken once.

    Taking an address costs microseconds (``ndarray.ctypes``), which is the
    whole kernel on a small trace.  A space's long-lived buffers (residency
    flags, last-touch clocks, state and scratch) are therefore checked
    (dtype, C-contiguity) and addressed the first time :func:`uvm_replay`
    sees them; a later replay passing the same array object pays one dict
    lookup.  Each pinned array is held with
    its address, so its id cannot be reused while the address is kept and
    numpy refuses to resize it in place.  Lengths are still checked on every
    call, by the wrapper.
    """

    __slots__ = ("_held",)

    def __init__(self) -> None:
        self._held: dict[int, tuple[np.ndarray, np.dtype, int]] = {}

    def address(self, array: np.ndarray, dtype: np.dtype, kernel: str) -> int:
        held = self._held.get(id(array))
        if held is not None and held[1] is dtype:
            return held[2]
        address = _address(array, dtype, kernel)
        if len(self._held) >= _MAX_PINS:
            self._held.clear()
        self._held[id(array)] = (array, dtype, address)
        return address


class TraceSweep:
    """One word's native BFS or SSSP sweep, bound to the word's buffers.

    ``repro_bfs_sweep`` / ``repro_sssp_sweep`` read a sweep's frontier from
    the word's :class:`~repro.traversal.engine.WordTrace` (its pending
    entries) and append the next frontier to it, so one call is one whole
    sweep.  The word's own buffers are checked (dtype, C-contiguity, length)
    and addressed once, by :func:`bfs_sweep` / :func:`sssp_sweep`; the
    trace's two arrays again whenever the trace has grown into new ones.
    Each call first leaves ``num_vertices`` entries free in the trace (a
    next frontier holds each vertex at most once), then runs the kernel with
    the call's scalars appended (BFS: the depth), then closes the swept
    frontier; it returns the next frontier's size.
    """

    __slots__ = (
        "_kernel", "_trace", "_free", "_buffers", "_args", "_vertices", "_masks", "_addresses"
    )

    def __init__(self, kernel: str, trace, free: int, buffers: tuple, scalars: tuple) -> None:
        self._kernel = kernel
        self._trace = trace
        self._free = free
        # Held while their addresses are: a buffer the caller drops must
        # not be freed under the kernel.
        self._buffers = buffers
        self._args = tuple(
            None if array is None else _address(array, dtype, kernel)
            for array, dtype in buffers
        ) + scalars
        self._vertices = self._masks = None
        self._addresses: tuple[int, int] = (0, 0)

    def __call__(self, *scalars: int) -> int:
        trace = self._trace
        trace.reserve(self._free)
        if trace.vertices is not self._vertices or trace.masks is not self._masks:
            self._bind(trace.vertices, trace.masks)
        appended = _invoke(
            self._kernel, *self._addresses, trace.start, trace.size, *self._args, *scalars
        )
        trace.advance(appended)
        return appended

    def _bind(self, vertices: np.ndarray, masks: np.ndarray) -> None:
        kernel = self._kernel
        if vertices.size != masks.size:
            raise ValueError(f"{kernel} trace arrays differ in length")
        self._addresses = (_address(vertices, _INT64, kernel), _address(masks, _UINT64, kernel))
        self._vertices, self._masks = vertices, masks


def _check_word(
    trace, offsets: np.ndarray, edges: np.ndarray, num_vertices: int, lanes: int
) -> bool:
    """True when a word of ``lanes`` lanes over ``num_vertices`` vertices may
    sweep: ``offsets`` has one entry per vertex and one more, every edge
    range it names lies within ``edges``, and the trace's pending frontier
    (the one entry range the kernel reads before writing any) holds vertex
    ids and lane words of the word."""
    pending = slice(trace.start, trace.size)
    vertices, masks = trace.vertices[pending], trace.masks[pending]
    return (
        lanes <= 64
        and offsets.size == num_vertices + 1
        and 0 <= offsets[0]
        and offsets[-1] <= edges.size
        and (
            not vertices.size
            or (0 <= vertices.min() and vertices.max() < num_vertices
                and int(masks.max()) >> lanes == 0)
        )
    )


def bfs_sweep(
    trace,
    offsets: np.ndarray,
    edges: np.ndarray,
    next_bits: np.ndarray,
    visited_bits: np.ndarray,
    levels: np.ndarray,
) -> TraceSweep:
    """Bind ``repro_bfs_sweep`` to one BFS word; see the C source for the
    contract.

    ``levels`` is the ``(lanes, num_vertices)`` matrix updated in place;
    ``next_bits`` must arrive zeroed (it is left zeroed).  Call the result
    with a sweep's depth: it sweeps the trace's pending frontier and returns
    the next one's size.  Every buffer is checked for its dtype,
    C-contiguity and length here, once per word, and the trace's pending
    frontier for vertex ids and lane words of the word.
    """
    lanes, num_vertices = levels.shape
    if not (
        _check_word(trace, offsets, edges, num_vertices, lanes)
        and num_vertices == next_bits.size == visited_bits.size
    ):
        raise ValueError("bfs_sweep buffers do not match the (lanes, num_vertices) levels")
    buffers = (
        (offsets, _INT64), (edges, _INT64), (next_bits, _UINT64), (visited_bits, _UINT64),
        (levels, _INT64),
    )
    return TraceSweep("bfs_sweep", trace, num_vertices, buffers, (num_vertices,))


def sssp_sweep(
    trace,
    offsets: np.ndarray,
    edges: np.ndarray,
    weights: np.ndarray | None,
    values: np.ndarray,
    snapshot: np.ndarray,
    next_bits: np.ndarray,
) -> TraceSweep:
    """Bind ``repro_sssp_sweep`` to one SSSP word; see the C source for the
    contract.

    ``values`` is the vertex-major ``(num_vertices, lanes)`` matrix updated
    in place, ``snapshot`` a scratch of its shape; ``weights`` is the
    graph's float32 weight list, or ``None`` for unit weights; ``next_bits``
    must arrive zeroed (it is left zeroed).  Call the result with no
    argument: it sweeps the trace's pending frontier and returns the next
    one's size.  Every buffer is checked for its dtype, C-contiguity and
    length here, once per word, and the trace's pending frontier as for
    :func:`bfs_sweep`.  The dense arm is taken when :data:`_dense_arm` is
    set as the word binds.
    """
    num_vertices, lanes = values.shape
    if not (
        _check_word(trace, offsets, edges, num_vertices, lanes)
        and snapshot.shape == values.shape
        and num_vertices == next_bits.size
        and (weights is None or weights.size == edges.size)
    ):
        raise ValueError("sssp_sweep buffers do not match the (num_vertices, lanes) values")
    buffers = (
        (offsets, _INT64), (edges, _INT64), (weights, _FLOAT32), (values, _FLOAT64),
        (snapshot, _FLOAT64), (next_bits, _UINT64),
    )
    return TraceSweep(
        "sssp_sweep", trace, num_vertices, buffers, (num_vertices, lanes, _dense_arm)
    )


def cc_sweep(
    frontier: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    edges: np.ndarray,
    labels: np.ndarray,
    prev: np.ndarray,
    next_frontier: np.ndarray,
) -> int:
    """Invoke the compiled min-label sweep; see the C source for the contract.

    ``labels`` is updated in place and ``prev`` receives its pre-sweep copy.
    Returns the next frontier's size: ``next_frontier[:size]``, ascending.
    ``next_frontier`` must not be ``frontier``'s buffer.  Every buffer is
    checked for its dtype (int64), C-contiguity and length on every call.
    """
    if not (
        frontier.size == starts.size == ends.size
        and labels.size == prev.size == next_frontier.size
    ):
        raise ValueError("cc_sweep buffers do not match the frontier and the labels")
    kernel = "cc_sweep"
    return _invoke(
        kernel,
        _address(frontier, _INT64, kernel),
        _address(starts, _INT64, kernel),
        _address(ends, _INT64, kernel),
        frontier.size,
        _address(edges, _INT64, kernel),
        _address(labels, _INT64, kernel),
        _address(prev, _INT64, kernel),
        labels.size,
        _address(next_frontier, _INT64, kernel),
    )


def pagerank_step(
    offsets: np.ndarray,
    edges: np.ndarray,
    degrees: np.ndarray,
    scores: np.ndarray,
    contribution: np.ndarray,
    new_scores: np.ndarray,
    base: float,
    damping: float,
    dangling: float,
) -> int:
    """Invoke the compiled PageRank step; see the C source for the contract.

    Writes ``contribution`` and ``new_scores`` (which must not be
    ``scores``).  Every buffer is checked for its dtype (int64 offsets and
    edges, float64 vectors), C-contiguity and length on every call.
    """
    num_vertices = scores.size
    if not (
        offsets.size == num_vertices + 1
        and degrees.size == contribution.size == new_scores.size == num_vertices
    ):
        raise ValueError("pagerank_step buffers do not match the (num_vertices + 1) offsets")
    kernel = "pagerank_step"
    return _invoke(
        kernel,
        _address(offsets, _INT64, kernel),
        _address(edges, _INT64, kernel),
        _address(degrees, _FLOAT64, kernel),
        _address(scores, _FLOAT64, kernel),
        _address(contribution, _FLOAT64, kernel),
        _address(new_scores, _FLOAT64, kernel),
        num_vertices,
        base,
        damping,
        dangling,
    )


def lane_rows(
    frontier: np.ndarray,
    masks: np.ndarray,
    bounds: np.ndarray,
    offsets: np.ndarray,
    tables: tuple[np.ndarray, ...],
    lanes: np.ndarray,
    rows: np.ndarray,
) -> None:
    """Invoke the compiled lane-row pass; see the C source for the contract.

    ``frontier`` / ``masks`` are a traced word's sweeps concatenated and cut
    by ``bounds``; ``tables`` holds at most two ``(num_vertices, width)``
    request tables (width at most 4); ``lanes`` (int64) names the distinct
    lanes whose rows ``rows`` (``(len(lanes), sweeps, 2 + widths)`` int64)
    receives, overwritten.  Every buffer is checked for its dtype,
    C-contiguity and length on every call.
    """
    num_lanes, sweeps, width = rows.shape
    widths = [table.shape[1] for table in tables]
    num_vertices = offsets.size - 1
    if not (
        lanes.size == num_lanes
        and frontier.size == masks.size
        and bounds.size == sweeps + 1
        and len(tables) <= 2
        and all(table.shape[0] == num_vertices and table.shape[1] <= 4 for table in tables)
        and width == 2 + sum(widths)
    ):
        raise ValueError("lane_rows buffers do not match the (lanes, sweeps, width) rows")
    if lanes.size and not (
        0 <= lanes.min() and lanes.max() < 64 and len(set(lanes.tolist())) == lanes.size
    ):
        raise ValueError("lane_rows lanes must be distinct lane indices below 64")
    if sweeps and not (
        bounds[0] == 0 and bounds[-1] == frontier.size and (bounds[1:] >= bounds[:-1]).all()
    ):
        raise ValueError("lane_rows bounds must cut the frontier into sweeps")
    if frontier.size and not (0 <= frontier.min() and frontier.max() < num_vertices):
        raise ValueError("lane_rows frontier holds vertex ids outside the offsets")
    kernel = "lane_rows"
    tables = list(tables) + [None] * (2 - len(tables))
    widths += [0] * (2 - len(widths))
    _invoke(
        kernel,
        _address(frontier, _INT64, kernel),
        _address(masks, _UINT64, kernel),
        _address(bounds, _INT64, kernel),
        sweeps,
        _address(offsets, _INT64, kernel),
        None if tables[0] is None else _address(tables[0], _INT64, kernel),
        widths[0],
        None if tables[1] is None else _address(tables[1], _INT64, kernel),
        widths[1],
        _address(lanes, _INT64, kernel),
        num_lanes,
        _address(rows, _INT64, kernel),
    )


def uvm_replay(
    starts: np.ndarray,
    ends: np.ndarray,
    masks: np.ndarray,
    bounds: np.ndarray,
    lanes: np.ndarray,
    size_bytes: int,
    page_bytes: int,
    capacity_pages: int,
    prefetch_pages: int,
    resident: np.ndarray,
    last_touch: np.ndarray,
    state: np.ndarray,
    scratch: np.ndarray,
    counters: np.ndarray,
    pins: Pins | None = None,
) -> int:
    """Invoke the compiled UVM replay; see the C source for the contract.

    ``bounds`` (``int64``, one more entry than there are segments) cuts
    ``starts`` / ``ends`` into segments, replayed once per lane id in
    ``lanes`` (``int64``), each from a reset space and taking the ranges
    whose ``masks`` (``uint64`` lane words) carry that lane's bit;
    ``counters`` is ``(lanes, segments, 4)`` int64.  ``resident`` (a
    ``uint8`` view of the space's residency flags), ``last_touch``,
    ``state`` (5 entries: the clock and four totals) and ``scratch`` (three
    rows of ``num_pages``) are updated in place; ``page_bytes`` must be a
    power of two, as :class:`~repro.config.UVMConfig` ensures.  Returns the
    kernel's code, with nothing changed unless it is 0: -1 when a non-empty
    range lies outside ``[0, size_bytes]``, -2 when a segment's pages
    descend, -3 when its fold buffer cannot be allocated.  Every buffer is
    checked for its dtype and C-contiguity (the space's own four once per
    space when ``pins`` is given) and for its length on every call.
    """
    num_pages = resident.size
    segments = bounds.size - 1
    if not (
        starts.size == ends.size == masks.size
        and segments >= 0
        and counters.size == 4 * segments * lanes.size
        and page_bytes > 0
        and page_bytes & (page_bytes - 1) == 0
        and num_pages > 0
        and last_touch.size == num_pages
        and state.size == 5
        and scratch.size == 3 * num_pages
    ):
        raise ValueError("uvm_replay buffers do not match the (num_pages,) residency")
    if segments and not (
        bounds[0] >= 0 and bounds[-1] <= starts.size and (bounds[1:] >= bounds[:-1]).all()
    ):
        raise ValueError("uvm_replay bounds must be ascending offsets into the ranges")
    kernel = "uvm_replay"
    pin = _address if pins is None else pins.address
    return _invoke(
        kernel,
        _address(starts, _INT64, kernel),
        _address(ends, _INT64, kernel),
        _address(masks, _UINT64, kernel),
        _address(bounds, _INT64, kernel),
        segments,
        _address(lanes, _INT64, kernel),
        lanes.size,
        size_bytes,
        page_bytes,
        capacity_pages,
        prefetch_pages,
        num_pages,
        pin(resident, _UINT8, kernel),
        pin(last_touch, _INT64, kernel),
        pin(state, _INT64, kernel),
        pin(scratch, _INT64, kernel),
        _address(counters, _INT64, kernel),
    )
