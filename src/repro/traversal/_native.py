"""Optional native (C) backend for the word and streaming kernels.

The numpy formulations of a batched sweep are bound by numpy's
pass-at-a-time execution and by Python loops over the ≤ 64 lanes of a word.
Both inner loops are tiny, so a compiled loop over the bit-packed lane words
(`ctz` over each vertex's active-lane mask) runs the same work an order of
magnitude faster.  The streaming applications pay the same tax on their
``np.minimum.at`` / ``np.add.at`` scatters over the whole edge list.  Four
kernels share one shared object:

* ``repro_relax_word`` — one SSSP relaxation sweep
  (:func:`relax_word`, fronted by :func:`repro.traversal.relax.relax_lanes`):
  gather two doubles, add, compare, occasionally store, over vertex-major
  ``(num_vertices, lanes)`` value rows so one vertex's lanes share cache
  lines;
* ``repro_bfs_word`` — one BFS sweep (:func:`bfs_word`, called by
  :class:`repro.traversal.multisource.BFSWord`): per-lane edge counts,
  OR-scatter of the frontier words, and one pass over the vertices that keeps
  the unvisited bits, writes their levels and emits the next frontier;
* ``repro_cc_sweep`` — one min-label propagation sweep (:func:`cc_sweep`,
  called by :func:`repro.traversal.cc.cc_sweep`): snapshot, scatter-min and
  one scan emitting the lowered vertices as the next frontier;
* ``repro_pagerank_step`` — one PageRank power-iteration step
  (:func:`pagerank_step`, called by
  :func:`repro.traversal.pagerank.pagerank_sweep`): push every vertex's
  share along its out-edges in CSR order, then the damped update.

A solo BFS/SSSP run calls the word kernels as a word of one lane.

This module builds them *at runtime* with whatever C compiler the host
already has (``gcc``/``cc``), caches the shared object under
``~/.cache/repro-native/`` keyed by a hash of the source and flags, and loads
it through :mod:`ctypes` (stdlib — no new dependency).  Everything is gated:
no compiler, a failed compile, or ``REPRO_NATIVE=0`` simply mean
:func:`available` returns False and callers stay on the numpy paths, which
the relax, multisource and streaming equivalence tests keep bit-identical
(``-ffp-contract=off`` keeps an FMA-capable host from fusing PageRank's
multiply-add).  Every kernel fires the same ``native.invoke`` fault site and
raises the same :class:`~repro.errors.NativeBackendError`, so the service's
one native circuit breaker guards BFS, SSSP, CC and PageRank sweeps alike.

The C calls release the GIL (plain ``ctypes.CDLL``), so service workers
draining separate batches sweep concurrently.
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

#: Environment switch: set REPRO_NATIVE=0 to force the numpy kernel.
_ENV_SWITCH = "REPRO_NATIVE"

#: Override for the shared-object cache directory.
_ENV_CACHE_DIR = "REPRO_NATIVE_DIR"

#: Sanitizer build mode: ``asan`` or ``ubsan`` compiles the kernels with the
#: matching ``-fsanitize=`` flags (plus frame pointers and debug info) so the
#: relax, multisource and streaming bit-identity tests double as memory/UB checks in CI.  The
#: sanitized object is cached under its own flag digest, so switching modes
#: never serves a stale unsanitized build.
_ENV_SANITIZE = "REPRO_NATIVE_SANITIZE"

_SANITIZE_MODES = ("asan", "ubsan")

_SANITIZE_FLAGS = {
    "asan": ("-fsanitize=address", "-fno-omit-frame-pointer", "-g"),
    "ubsan": ("-fsanitize=undefined", "-fno-omit-frame-pointer", "-g"),
}

_CFLAGS = ("-O3", "-shared", "-fPIC", "-ffp-contract=off")

_SOURCE = r"""
#include <stdint.h>

/* One lane-parallel relaxation sweep over the union frontier.
 *
 * dist is the (num_vertices, lanes) row-major value matrix; snapshot is a
 * (num_frontier, lanes) scratch area.  Source values are snapshotted before
 * any store so a destination improved earlier in the same sweep can never
 * feed a later candidate -- exactly the gather-then-scatter semantics of the
 * numpy kernel and of the solo per-source runs.  weights may be NULL
 * (unweighted graphs relax with 1.0).  next_bits and lane_edges must arrive
 * zeroed.  Returns the number of (lane, destination) improvements.
 */
int64_t repro_relax_word(const int64_t *frontier,
                         const uint64_t *active_bits,
                         const int64_t *starts,
                         const int64_t *ends,
                         int64_t num_frontier,
                         const int64_t *edges,
                         const double *weights,
                         double *dist,
                         double *snapshot,
                         uint64_t *next_bits,
                         int64_t *lane_edges,
                         int64_t lanes)
{
    for (int64_t f = 0; f < num_frontier; f++) {
        const double *row = dist + frontier[f] * lanes;
        double *snap = snapshot + f * lanes;
        uint64_t bits = active_bits[f];
        while (bits) {
            int lane = __builtin_ctzll(bits);
            bits &= bits - 1;
            snap[lane] = row[lane];
        }
    }
    int64_t improved = 0;
    for (int64_t f = 0; f < num_frontier; f++) {
        uint64_t bits = active_bits[f];
        if (!bits) continue;
        const double *snap = snapshot + f * lanes;
        int64_t edge_start = starts[f], edge_end = ends[f];
        int64_t degree = edge_end - edge_start;
        uint64_t b = bits;
        while (b) {
            lane_edges[__builtin_ctzll(b)] += degree;
            b &= b - 1;
        }
        for (int64_t e = edge_start; e < edge_end; e++) {
            int64_t destination = edges[e];
            double weight = weights ? weights[e] : 1.0;
            double *drow = dist + destination * lanes;
            b = bits;
            while (b) {
                int lane = __builtin_ctzll(b);
                b &= b - 1;
                double candidate = snap[lane] + weight;
                if (candidate < drow[lane]) {
                    drow[lane] = candidate;
                    next_bits[destination] |= 1ull << (uint64_t)lane;
                    improved++;
                }
            }
        }
    }
    return improved;
}

/* One BFS sweep of a <= 64-lane word.
 *
 * frontier (ascending) holds the union frontier and active_bits[f] the lane
 * word of frontier[f].  lane_edges (lanes entries) is overwritten with each
 * lane's frontier edge count.  Every frontier word is OR-scattered into
 * next_bits at its neighbours; then one ascending pass over the vertices
 * keeps the bits not yet in visited_bits, marks them visited, writes depth
 * into their lanes' rows of the (lanes, num_vertices) row-major levels
 * matrix, and appends the vertex and its new lane word to next_frontier /
 * next_active (num_vertices capacity each).  next_bits must arrive zeroed
 * and is left zeroed.  Returns the next frontier's size.
 */
int64_t repro_bfs_word(const int64_t *frontier,
                       const uint64_t *active_bits,
                       const int64_t *starts,
                       const int64_t *ends,
                       int64_t num_frontier,
                       const int64_t *edges,
                       uint64_t *next_bits,
                       uint64_t *visited_bits,
                       int64_t *levels,
                       int64_t num_vertices,
                       int64_t depth,
                       int64_t *lane_edges,
                       int64_t lanes,
                       int64_t *next_frontier,
                       uint64_t *next_active)
{
    for (int64_t lane = 0; lane < lanes; lane++) lane_edges[lane] = 0;
    for (int64_t f = 0; f < num_frontier; f++) {
        uint64_t bits = active_bits[f];
        if (!bits) continue;
        int64_t edge_start = starts[f], edge_end = ends[f];
        int64_t degree = edge_end - edge_start;
        uint64_t b = bits;
        while (b) {
            lane_edges[__builtin_ctzll(b)] += degree;
            b &= b - 1;
        }
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
        next_frontier[count] = v;
        next_active[count] = fresh;
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
"""

_lock = tracked_lock("traversal._native._lock")
_library: ctypes.CDLL | None = None
_status: str | None = None  # None = not yet probed

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

    Used by the circuit breaker's tests and chaos harness: after an injected
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
        pointer = np.ctypeslib.ndpointer
        library.repro_relax_word.restype = ctypes.c_int64
        library.repro_relax_word.argtypes = [
            pointer(np.int64, flags="C_CONTIGUOUS"),   # frontier
            pointer(np.uint64, flags="C_CONTIGUOUS"),  # active_bits
            pointer(np.int64, flags="C_CONTIGUOUS"),   # starts
            pointer(np.int64, flags="C_CONTIGUOUS"),   # ends
            ctypes.c_int64,                            # num_frontier
            pointer(np.int64, flags="C_CONTIGUOUS"),   # edges
            ctypes.c_void_p,                           # weights (nullable)
            pointer(np.float64, flags="C_CONTIGUOUS"), # dist
            pointer(np.float64, flags="C_CONTIGUOUS"), # snapshot
            pointer(np.uint64, flags="C_CONTIGUOUS"),  # next_bits
            pointer(np.int64, flags="C_CONTIGUOUS"),   # lane_edges
            ctypes.c_int64,                            # lanes
        ]
        library.repro_bfs_word.restype = ctypes.c_int64
        library.repro_bfs_word.argtypes = [
            pointer(np.int64, flags="C_CONTIGUOUS"),   # frontier
            pointer(np.uint64, flags="C_CONTIGUOUS"),  # active_bits
            pointer(np.int64, flags="C_CONTIGUOUS"),   # starts
            pointer(np.int64, flags="C_CONTIGUOUS"),   # ends
            ctypes.c_int64,                            # num_frontier
            pointer(np.int64, flags="C_CONTIGUOUS"),   # edges
            pointer(np.uint64, flags="C_CONTIGUOUS"),  # next_bits
            pointer(np.uint64, flags="C_CONTIGUOUS"),  # visited_bits
            pointer(np.int64, flags="C_CONTIGUOUS"),   # levels
            ctypes.c_int64,                            # num_vertices
            ctypes.c_int64,                            # depth
            pointer(np.int64, flags="C_CONTIGUOUS"),   # lane_edges
            ctypes.c_int64,                            # lanes
            pointer(np.int64, flags="C_CONTIGUOUS"),   # next_frontier
            pointer(np.uint64, flags="C_CONTIGUOUS"),  # next_active
        ]
        library.repro_cc_sweep.restype = ctypes.c_int64
        library.repro_cc_sweep.argtypes = [
            pointer(np.int64, flags="C_CONTIGUOUS"),   # frontier
            pointer(np.int64, flags="C_CONTIGUOUS"),   # starts
            pointer(np.int64, flags="C_CONTIGUOUS"),   # ends
            ctypes.c_int64,                            # num_frontier
            pointer(np.int64, flags="C_CONTIGUOUS"),   # edges
            pointer(np.int64, flags="C_CONTIGUOUS"),   # labels
            pointer(np.int64, flags="C_CONTIGUOUS"),   # prev
            ctypes.c_int64,                            # num_vertices
            pointer(np.int64, flags="C_CONTIGUOUS"),   # next_frontier
        ]
        library.repro_pagerank_step.restype = ctypes.c_int64
        library.repro_pagerank_step.argtypes = [
            pointer(np.int64, flags="C_CONTIGUOUS"),   # offsets
            pointer(np.int64, flags="C_CONTIGUOUS"),   # edges
            pointer(np.float64, flags="C_CONTIGUOUS"), # degrees
            pointer(np.float64, flags="C_CONTIGUOUS"), # scores
            pointer(np.float64, flags="C_CONTIGUOUS"), # contribution
            pointer(np.float64, flags="C_CONTIGUOUS"), # new_scores
            ctypes.c_int64,                            # num_vertices
            ctypes.c_double,                           # base
            ctypes.c_double,                           # damping
            ctypes.c_double,                           # dangling
        ]
    except OSError as exc:
        return None, f"load failed: {exc}"
    return library, f"compiled with {compiler}{sanitize_note}"


def _ensure_loaded() -> ctypes.CDLL | None:
    global _library, _status
    if _status is None:
        with _lock:
            if _status is None:
                _library, _status = _build()
    return _library


def available() -> bool:
    """True when the compiled kernels are usable on this host."""
    return _ensure_loaded() is not None


def status() -> str:
    """Human-readable availability note (for benchmark reports)."""
    _ensure_loaded()
    return _status or "unknown"


def _invoke(kernel: str, *args) -> int:
    """Call ``repro_<kernel>`` behind the ``native.invoke`` fault site.

    Injected invoke faults, a missing library and ctypes-level failures all
    surface as :class:`NativeBackendError`, so the circuit breaker cannot
    tell an injected failure from a real one.
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


def relax_word(
    frontier: np.ndarray,
    active_bits: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    edges: np.ndarray,
    weights: np.ndarray | None,
    values: np.ndarray,
    snapshot: np.ndarray,
    next_bits: np.ndarray,
    lane_edges: np.ndarray,
) -> int:
    """Invoke the compiled relaxation sweep; see the C source for the contract.

    ``values`` is the vertex-major ``(num_vertices, lanes)`` matrix updated in
    place; ``next_bits`` and ``lane_edges`` must arrive zeroed.  The caller
    guarantees contiguity and dtypes (this is the kernel's private fast path,
    fronted by :func:`repro.traversal.relax.relax_lanes`); buffer lengths are
    checked here, since a short one would be read or written past its end.
    """
    num_vertices, lanes = values.shape
    if not (
        lanes <= 64
        and lane_edges.size == lanes
        and frontier.size == active_bits.size == starts.size == ends.size
        and snapshot.shape[0] >= frontier.size
        and snapshot.shape[1] == lanes
        and num_vertices == next_bits.size
    ):
        raise ValueError(
            "relax_word buffers do not match the (num_vertices, lanes) values"
        )
    return _invoke(
        "relax_word",
        frontier,
        active_bits,
        starts,
        ends,
        frontier.size,
        edges,
        weights.ctypes.data if weights is not None else None,
        values.reshape(-1),
        snapshot.reshape(-1),
        next_bits,
        lane_edges,
        lanes,
    )


def bfs_word(
    frontier: np.ndarray,
    active_bits: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    edges: np.ndarray,
    next_bits: np.ndarray,
    visited_bits: np.ndarray,
    levels: np.ndarray,
    depth: int,
    lane_edges: np.ndarray,
    next_frontier: np.ndarray,
    next_active: np.ndarray,
) -> int:
    """Invoke the compiled BFS sweep; see the C source for the contract.

    ``levels`` is the ``(lanes, num_vertices)`` matrix updated in place;
    ``next_bits`` must arrive zeroed (it is left zeroed).  Returns the next
    frontier's size: ``next_frontier[:size]`` / ``next_active[:size]``.  The
    caller guarantees contiguity and dtypes (this is the private fast path of
    :class:`repro.traversal.multisource.BFSWord`, batched and solo).
    """
    lanes, num_vertices = levels.shape
    if not (
        lanes <= 64
        and lane_edges.size == lanes
        and frontier.size == active_bits.size == starts.size == ends.size
        and num_vertices
        == next_bits.size
        == visited_bits.size
        == next_frontier.size
        == next_active.size
    ):
        raise ValueError("bfs_word buffers do not match the (lanes, num_vertices) levels")
    return _invoke(
        "bfs_word",
        frontier,
        active_bits,
        starts,
        ends,
        frontier.size,
        edges,
        next_bits,
        visited_bits,
        levels.reshape(-1),
        num_vertices,
        depth,
        lane_edges,
        lanes,
        next_frontier,
        next_active,
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
    ``next_frontier`` must not be ``frontier``'s buffer.  The caller
    guarantees contiguity and dtypes (this is the private fast path of
    :func:`repro.traversal.cc.cc_sweep`).
    """
    if not (
        frontier.size == starts.size == ends.size
        and labels.size == prev.size == next_frontier.size
    ):
        raise ValueError("cc_sweep buffers do not match the frontier and the labels")
    return _invoke(
        "cc_sweep",
        frontier,
        starts,
        ends,
        frontier.size,
        edges,
        labels,
        prev,
        labels.size,
        next_frontier,
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
    ``scores``).  The caller guarantees contiguity and dtypes (this is the
    private fast path of :func:`repro.traversal.pagerank.pagerank_sweep`).
    """
    num_vertices = scores.size
    if not (
        offsets.size == num_vertices + 1
        and degrees.size == contribution.size == new_scores.size == num_vertices
    ):
        raise ValueError("pagerank_step buffers do not match the (num_vertices + 1) offsets")
    return _invoke(
        "pagerank_step",
        offsets,
        edges,
        degrees,
        scores,
        contribution,
        new_scores,
        num_vertices,
        base,
        damping,
        dangling,
    )
