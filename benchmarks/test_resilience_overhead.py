"""Resilience overhead gate: fault injection armed-but-idle vs off.

The resilience substrate (ISSUE-7) is consulted on the traversal hot path:
``iteration_checkpoint`` runs at every frontier boundary, probing the active
fault plan and the cooperative cancellation token.  The contract is that an
*armed but idle* plan — specs registered, none firing — costs less than 5%
of traversal throughput, so chaos drills can run against production-shaped
configs without distorting what they measure.

Mirrors ``test_obs_overhead.py``: interleaved min-of-N repetitions (the
minimum is the least noise-contaminated estimate on shared CI machines), a
small absolute slack against sub-millisecond wobble, and the measured
numbers land in ``benchmarks/results/resilience_overhead.txt``.
"""

from __future__ import annotations

import time

from repro.graph.generators import random_weights, rmat_graph
from repro.service import FaultPlan, faults
from repro.service.resilience import Cancellation, cancellation_scope
from repro.traversal.multisource import run_batch
from repro.types import Application

from .conftest import emit

BENCH_VERTICES = 8000
BENCH_EDGES = 120000
BENCH_SOURCES = 32
REPETITIONS = 5
#: Resilience-armed must stay within 5% of resilience-off (plus 2ms slack).
OVERHEAD_LIMIT = 0.05
ABSOLUTE_SLACK_SECONDS = 0.002

#: Armed but idle: the nth-call trigger sits far beyond any checkpoint count
#: this bench reaches, so every probe walks the spec list and declines.
IDLE_SPEC = "seed=1;engine.sweep:transient:n=1000000000"


def _time_batch(graph, sources) -> float:
    token = Cancellation(budget_seconds=3600.0)
    started = time.perf_counter()
    with cancellation_scope(token):
        outcome = run_batch(Application.BFS, graph, sources=sources)
    elapsed = time.perf_counter() - started
    assert outcome.batch_metrics  # the run actually did the work
    return elapsed


def test_resilience_overhead_within_five_percent(results_dir):
    graph = rmat_graph(BENCH_VERTICES, BENCH_EDGES, seed=7, name="bench-rmat")
    graph = graph.with_weights(random_weights(graph.num_edges, seed=8))
    sources = tuple(range(BENCH_SOURCES))
    plan = FaultPlan.from_spec(IDLE_SPEC)

    try:
        # Warm both arms: first-touch allocations must not bias either one.
        faults.activate(plan)
        _time_batch(graph, sources)
        faults.deactivate(plan)
        _time_batch(graph, sources)

        armed, off = [], []
        for _ in range(REPETITIONS):
            faults.activate(plan)
            armed.append(_time_batch(graph, sources))
            faults.deactivate(plan)
            off.append(_time_batch(graph, sources))
    finally:
        faults.deactivate()

    assert plan.total_fired() == 0, "the idle plan must never actually fire"
    best_on, best_off = min(armed), min(off)
    overhead = best_on / best_off - 1.0
    emit(
        results_dir,
        "resilience_overhead",
        "\n".join(
            [
                "Resilience overhead (R-MAT BFS batch, "
                f"{BENCH_VERTICES} vertices / {BENCH_EDGES} edges / "
                f"{BENCH_SOURCES} sources, min of {REPETITIONS}):",
                f"  faults armed (idle): {best_on * 1e3:8.2f} ms",
                f"  faults off         : {best_off * 1e3:8.2f} ms",
                f"  overhead           : {overhead:+.2%} "
                f"(limit {OVERHEAD_LIMIT:.0%})",
            ]
        ),
    )
    assert best_on <= best_off * (1.0 + OVERHEAD_LIMIT) + ABSOLUTE_SLACK_SECONDS, (
        f"armed-but-idle best {best_on:.4f}s exceeds faults-off best "
        f"{best_off:.4f}s by more than {OVERHEAD_LIMIT:.0%}"
    )
