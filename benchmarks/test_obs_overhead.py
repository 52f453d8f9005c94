"""Observability overhead gate: tracing on vs off on a batched BFS.

The ISSUE-6 contract is that the always-on kernel counters plus the
``REPRO_TRACE``-gated per-iteration detail cost less than 5% of traversal
throughput.  This module times one 32-source BFS batch on an 8,000-vertex
R-MAT graph with ``REPRO_TRACE=1`` and ``REPRO_TRACE=0`` in interleaved
min-of-N repetitions (min-of-N because CI machines are noisy and the minimum
is the least contaminated estimate of true cost) and gates the ratio.

A small absolute slack keeps a sub-millisecond timing wobble on a fast run
from flaking the relative gate; the measured numbers land in
``benchmarks/results/obs_overhead.txt`` for the trend record.
"""

from __future__ import annotations

import time

from repro.graph.generators import random_weights, rmat_graph
from repro.obs.trace import ENV_SWITCH
from repro.traversal.multisource import run_batch
from repro.types import Application

from .conftest import emit

BENCH_VERTICES = 8000
BENCH_EDGES = 120000
BENCH_SOURCES = 32
REPETITIONS = 5
#: Tracing-on must stay within 5% of tracing-off (plus 2ms absolute slack).
OVERHEAD_LIMIT = 0.05
ABSOLUTE_SLACK_SECONDS = 0.002


def _time_batch(graph, sources) -> float:
    started = time.perf_counter()
    outcome = run_batch(Application.BFS, graph, sources=sources)
    elapsed = time.perf_counter() - started
    assert outcome.batch_metrics  # the run actually did the work
    return elapsed


def test_tracing_overhead_within_five_percent(results_dir, monkeypatch):
    graph = rmat_graph(BENCH_VERTICES, BENCH_EDGES, seed=7, name="bench-rmat")
    graph = graph.with_weights(random_weights(graph.num_edges, seed=8))
    sources = tuple(range(BENCH_SOURCES))

    # Warm both paths once: first-touch allocations must not bias either arm.
    for value in ("1", "0"):
        monkeypatch.setenv(ENV_SWITCH, value)
        _time_batch(graph, sources)

    traced, untraced = [], []
    for _ in range(REPETITIONS):
        monkeypatch.setenv(ENV_SWITCH, "1")
        traced.append(_time_batch(graph, sources))
        monkeypatch.setenv(ENV_SWITCH, "0")
        untraced.append(_time_batch(graph, sources))

    best_on, best_off = min(traced), min(untraced)
    overhead = best_on / best_off - 1.0
    emit(
        results_dir,
        "obs_overhead",
        "\n".join(
            [
                "Observability overhead (R-MAT BFS batch, "
                f"{BENCH_VERTICES} vertices / {BENCH_EDGES} edges / "
                f"{BENCH_SOURCES} sources, min of {REPETITIONS}):",
                f"  tracing on : {best_on * 1e3:8.2f} ms",
                f"  tracing off: {best_off * 1e3:8.2f} ms",
                f"  overhead   : {overhead:+.2%} (limit {OVERHEAD_LIMIT:.0%})",
            ]
        ),
    )
    assert best_on <= best_off * (1.0 + OVERHEAD_LIMIT) + ABSOLUTE_SLACK_SECONDS, (
        f"tracing-on best {best_on:.4f}s exceeds tracing-off best "
        f"{best_off:.4f}s by more than {OVERHEAD_LIMIT:.0%}"
    )
