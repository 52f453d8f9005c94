"""Durable store overhead gate: write-through on vs store off.

The store's contract is that durability rides *off* the request hot path:
a worker pays one bounded-queue ``put_nowait`` per sweep and the flush
thread does the pickling and SQLite work.  The gate pins both halves of
that contract separately, because on a single-core runner they are not
the same claim:

* **Hot path** — the timed serving window (submit through last result)
  with a store attached must stay within 5% of store-off throughput.
  The warm-up's write is flushed before the window opens, and the flush
  thread holds a burst open for its fixed 50 ms coalescing wait, so a
  window shorter than that (≈ 16 ms with the native BFS kernel on a
  2-core host) contains only what a request pays — fingerprint-keyed
  lookups and per-sweep enqueues.  A longer window (≈ 60 ms under
  ``REPRO_NATIVE=0``) also contains one commit, and is held to the same
  5% (it measured +2.3%).
* **Drain** — the deferred batch is then flushed explicitly and timed.
  Durability's real CPU (pickling + one batched transaction) is bounded
  against the compute it shadows instead of hidden: on a multi-core box
  it overlaps serving, on a single-core box it is the throughput tax.

Mirrors ``test_resilience_overhead.py``: interleaved min-of-N repetitions
(the minimum is the least noise-contaminated estimate on shared CI
machines), results land in ``benchmarks/results/store_overhead.txt``.
"""

from __future__ import annotations

import time

from repro.config import ServiceConfig
from repro.graph.generators import uniform_random_graph
from repro.service import Service, TraversalRequest

from .conftest import emit

#: Edge-heavy on purpose (average degree 120, the paper's regime): engine
#: time scales with edges while the pickled payload scales with vertices,
#: so the gate measures write-through against realistic compute instead
#: of against toy sweeps that finish faster than their results pickle.
BENCH_VERTICES = 8000
BENCH_EDGES = 960000
BENCH_REQUESTS = 32
#: Min-of-10: single passes wobble ±20% on shared machines (scheduling,
#: frequency drift), an order of magnitude above the effect measured, so
#: the minimum needs a deep pool of passes to converge for both arms.
REPETITIONS = 10
#: Hot path must stay within 5% of store-off (plus 2ms slack).
OVERHEAD_LIMIT = 0.05
ABSOLUTE_SLACK_SECONDS = 0.002
#: Draining the burst's whole write-through batch (pickle + one batched
#: WAL transaction) must cost well under the compute it shadows.  The
#: drain is ≈ 4.7 ms either way on a 2-core host, mostly pickling the 32
#: results; the native BFS kernel shrank the window it is measured against
#: from ≈ 60 ms to ≈ 16 ms, so it reads ≈ 30% of the window (≈ 8% under
#: ``REPRO_NATIVE=0``).
DRAIN_LIMIT = 0.5


def _time_run(graph, store_path) -> "tuple[float, float]":
    """One serving pass over distinct sources; ``(window, drain)`` seconds.

    A fresh service (and store) per pass so neither arm amortizes setup;
    distinct sources per request so the result cache never short-circuits
    the engine and every request actually exercises the write-through.
    """
    config = ServiceConfig(
        max_workers=2,
        store_path=str(store_path) if store_path is not None else None,
    )
    with Service(config=config) as service:
        service.registry.register_graph(graph)
        # One warm-up request before timing, in *both* arms: graphs load
        # lazily on first use, and the load event (content fingerprint
        # over the whole CSR, catalog upsert) is a rare per-load cost,
        # not part of the steady-state write-through claim this gate
        # pins.  The store arm then settles the catalog batch so nothing
        # from the load is left for the timed window.
        warm = service.submit(
            TraversalRequest("bfs", graph.name, source=BENCH_REQUESTS)
        )
        service.result(warm, timeout=120)
        if service.store is not None:
            service.store.flush()
        started = time.perf_counter()
        jobs = [
            service.submit(
                TraversalRequest("bfs", graph.name, source=source)
            )
            for source in range(BENCH_REQUESTS)
        ]
        for job in jobs:
            service.result(job, timeout=120)
        elapsed = time.perf_counter() - started
        drain = 0.0
        if service.store is not None:
            drain_started = time.perf_counter()
            service.store.flush()
            drain = time.perf_counter() - drain_started
    return elapsed, drain


def test_store_write_through_within_five_percent(results_dir, tmp_path):
    graph = uniform_random_graph(
        BENCH_VERTICES, BENCH_EDGES, seed=3, name="store-bench"
    )

    # Warm both arms: first-touch allocations must not bias either one.
    _time_run(graph, tmp_path / "warm.db")
    _time_run(graph, None)

    on, off, drains = [], [], []
    for repetition in range(REPETITIONS):
        elapsed, drain = _time_run(graph, tmp_path / f"rep{repetition}.db")
        on.append(elapsed)
        drains.append(drain)
        off.append(_time_run(graph, None)[0])

    best_on, best_off, best_drain = min(on), min(off), min(drains)
    overhead = best_on / best_off - 1.0
    drain_fraction = best_drain / best_off
    emit(
        results_dir,
        "store_overhead",
        "\n".join(
            [
                "Durable store overhead (serving BFS, "
                f"{BENCH_VERTICES} vertices / {BENCH_EDGES} edges / "
                f"{BENCH_REQUESTS} requests, min of {REPETITIONS}):",
                f"  store on (hot path)     : {best_on * 1e3:8.2f} ms",
                f"  store off               : {best_off * 1e3:8.2f} ms",
                f"  overhead                : {overhead:+.2%} "
                f"(limit {OVERHEAD_LIMIT:.0%})",
                f"  write-through drain     : {best_drain * 1e3:8.2f} ms "
                f"= {drain_fraction:.1%} of window "
                f"(limit {DRAIN_LIMIT:.0%})",
                "  on  passes: " + " ".join(f"{t * 1e3:6.1f}" for t in on),
                "  off passes: " + " ".join(f"{t * 1e3:6.1f}" for t in off),
                "  drains    : "
                + " ".join(f"{t * 1e3:6.1f}" for t in drains),
            ]
        ),
    )
    assert best_on <= best_off * (1.0 + OVERHEAD_LIMIT) + ABSOLUTE_SLACK_SECONDS, (
        f"hot-path best {best_on:.4f}s exceeds store-off best "
        f"{best_off:.4f}s by more than {OVERHEAD_LIMIT:.0%}"
    )
    assert best_drain <= best_off * DRAIN_LIMIT, (
        f"write-through drain {best_drain:.4f}s exceeds "
        f"{DRAIN_LIMIT:.0%} of the {best_off:.4f}s serving window"
    )
