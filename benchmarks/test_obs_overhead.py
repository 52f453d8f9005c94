"""Observability overhead gate: the all-hit serving path, tracing on vs off.

A memory-cache hit is the cheapest request the service answers — admission,
a cache read, settling — so whatever tracing costs per request shows there
first: every traced hit is recorded in the span buffer.  This module serves
one round of hits (32 BFS sources on a 2,000-vertex R-MAT graph, 60 passes)
through a ``Service`` with ``trace_enabled=True`` and one with
``trace_enabled=False``, in interleaved min-of-N repetitions (min-of-N because
CI machines are noisy and the minimum is the least contaminated estimate of
true cost), and gates the on/off ratio at 1.35x.

Nothing is drained between rounds: the timed path is what an unattended
service pays per hit, ring-buffer eviction included.  The measured numbers
land in ``benchmarks/results/obs_overhead.txt`` for the trend record.
"""

from __future__ import annotations

import time

from repro.config import ServiceConfig
from repro.graph.generators import rmat_graph
from repro.service import GraphRegistry, Service, TraversalRequest

from .conftest import emit

BENCH_VERTICES = 2000
BENCH_EDGES = 16000
BENCH_SOURCES = 32
PASSES = 60
REPETITIONS = 15
#: A traced all-hit round may take at most this multiple of an untraced one.
OVERHEAD_LIMIT = 1.35


def _serve_hits(service: Service, requests: list[TraversalRequest]) -> float:
    started = time.perf_counter()
    for _ in range(PASSES):
        for request in requests:
            service.submit(request)
    return time.perf_counter() - started


def test_tracing_overhead_on_cache_hits(results_dir):
    graph = rmat_graph(BENCH_VERTICES, BENCH_EDGES, seed=7, name="bench-rmat")
    registry = GraphRegistry()
    registry.register_graph(graph)
    requests = [
        TraversalRequest("bfs", graph.name, source=source)
        for source in range(BENCH_SOURCES)
    ]
    services = {
        traced: Service(registry, ServiceConfig(max_workers=1, trace_enabled=traced))
        for traced in (True, False)
    }
    try:
        for service in services.values():
            for job in service.submit_many(requests):
                service.result(job, timeout=60)
            # Warm both arms once; every timed submit must be a memory hit.
            _serve_hits(service, requests)
            assert all(job.from_cache for job in service.submit_many(requests))
        timings: dict[bool, list[float]] = {True: [], False: []}
        for _ in range(REPETITIONS):
            for traced, service in services.items():
                timings[traced].append(_serve_hits(service, requests))
    finally:
        for service in services.values():
            service.close()

    best_on, best_off = min(timings[True]), min(timings[False])
    ratio = best_on / best_off
    hits = PASSES * BENCH_SOURCES
    emit(
        results_dir,
        "obs_overhead",
        "\n".join(
            [
                "Observability overhead (all-hit Service round, R-MAT "
                f"{BENCH_VERTICES} vertices / {BENCH_EDGES} edges, "
                f"{BENCH_SOURCES} BFS sources x {PASSES} passes, "
                f"min of {REPETITIONS}):",
                f"  tracing on : {best_on * 1e3:8.2f} ms ({best_on / hits * 1e6:.1f} us/hit)",
                f"  tracing off: {best_off * 1e3:8.2f} ms ({best_off / hits * 1e6:.1f} us/hit)",
                f"  on/off     : {ratio:.2f}x (limit {OVERHEAD_LIMIT:.2f}x)",
            ]
        ),
    )
    assert ratio <= OVERHEAD_LIMIT, (
        f"tracing-on best {best_on:.4f}s is {ratio:.2f}x tracing-off best "
        f"{best_off:.4f}s (limit {OVERHEAD_LIMIT:.2f}x)"
    )
