"""Tests for serving-stats corner cases: latency windows and tenant tallies.

The latency percentiles a long-running service reports come from a bounded
sliding window (``ServiceConfig.latency_window``); these tests pin the
retention/wraparound behaviour — only the most recent N samples survive — and
the per-tenant completed/missed accounting under genuinely concurrent
submissions, where a lost update would silently under-count a tenant.  All of
it is read the way an operator reads it — ``stats()`` and the metric series it
is computed from — never from service internals.
"""

import sys
import threading

import pytest

from repro.config import ServiceConfig
from repro.errors import JobFailedError, SimulationError
from repro.service import (
    GraphRegistry,
    Service,
    TraversalRequest,
    default_engine,
)
from repro.service.stats import LatencyStats


@pytest.fixture
def registry(random_graph):
    registry = GraphRegistry()
    registry.register_graph(random_graph)
    return registry


def make_service(registry, engine=None, **config_overrides) -> Service:
    config = ServiceConfig(**{"max_workers": 2, **config_overrides})
    return Service(registry=registry, config=config, engine=engine)


class TestLatencyStatsFormula:
    def test_empty_samples(self):
        stats = LatencyStats.from_samples([])
        assert stats.count == 0
        assert stats.p99_seconds == 0.0

    def test_percentiles_round_up_never_down(self):
        # Ceil-based nearest rank: p50 of two samples is the *upper* one.
        stats = LatencyStats.from_samples([0.1, 0.9])
        assert stats.p50_seconds == 0.9
        stats = LatencyStats.from_samples([0.1, 0.2, 0.3, 0.4])
        assert stats.p50_seconds == 0.3
        assert stats.p95_seconds == 0.4

    def test_order_independent(self):
        forward = LatencyStats.from_samples([0.1, 0.2, 0.3])
        backward = LatencyStats.from_samples([0.3, 0.2, 0.1])
        assert forward == backward


class TestLatencyWindowRetention:
    def test_window_keeps_only_most_recent_samples(self, registry, random_graph):
        with make_service(registry, max_workers=1, latency_window=4) as service:
            for source in range(7):
                job = service.submit(
                    TraversalRequest("bfs", random_graph.name, source=source)
                )
                service.result(job, timeout=30)  # serialize: one sample per job
            stats = service.stats()
        assert stats.completed == 7
        # The window wrapped: only the newest 4 of 7 samples back the stats.
        assert stats.latency.count == 4
        assert stats.queue_wait.count == 4
        # The summary behind it: a window of 4, a lifetime count of 7.
        summary = service.metrics.get("repro_request_latency_seconds")
        assert summary.snapshot() == service.stats().latency
        assert summary.render_json()["count"] == 7

    def test_wraparound_drops_oldest_first(self, registry, random_graph):
        with make_service(registry, max_workers=1, latency_window=3) as service:
            jobs = []
            for source in range(5):
                job = service.submit(
                    TraversalRequest("bfs", random_graph.name, source=source)
                )
                service.result(job, timeout=30)
                jobs.append(job)
        # Closed, so every sample is in.  Count, mean, median and max pin all
        # three retained samples: exactly the newest three jobs' latencies.
        expected = LatencyStats.from_samples(job.total_seconds for job in jobs[-3:])
        assert service.stats().latency == expected
        summary = service.metrics.get("repro_request_latency_seconds")
        assert summary.snapshot() == expected

    def test_window_not_yet_full(self, registry, random_graph):
        with make_service(registry, latency_window=1024) as service:
            for source in range(3):
                service.submit(
                    TraversalRequest("bfs", random_graph.name, source=source)
                )
            assert service.wait_all(timeout=30)
            stats = service.stats()
        assert stats.latency.count == 3
        assert stats.latency.max_seconds >= stats.latency.p50_seconds > 0


class FailingSourcesEngine:
    """Engine that fails a fixed set of sources, else runs the real engine."""

    def __init__(self, fail_sources):
        self.fail_sources = set(fail_sources)

    def __call__(self, request, graph):
        if request.source in self.fail_sources:
            raise SimulationError(f"injected failure for source {request.source}")
        return default_engine(request, graph)


class TestTenantStatsConcurrency:
    def test_completed_and_missed_tallies_survive_concurrent_submits(
        self, registry, random_graph
    ):
        """8 threads x 4 jobs across two tenants; the failing half carries
        deadlines, so every failure must land as exactly one tenant miss."""
        fail_sources = set(range(100, 116))  # one per failing submission
        engine = FailingSourcesEngine(fail_sources)
        with make_service(registry, engine=engine, max_workers=4) as service:
            errors = []

            def submit_for(thread_index: int) -> None:
                tenant = "even" if thread_index % 2 == 0 else "odd"
                try:
                    for k in range(2):
                        service.submit(
                            TraversalRequest(
                                "bfs",
                                random_graph.name,
                                source=thread_index * 2 + k,
                                tenant=tenant,
                            )
                        )
                        service.submit(
                            TraversalRequest(
                                "bfs",
                                random_graph.name,
                                source=100 + thread_index * 2 + k,
                                tenant=tenant,
                                deadline=30.0,
                            )
                        )
                except Exception as exc:  # pragma: no cover - fails the test
                    errors.append(exc)

            threads = [
                threading.Thread(target=submit_for, args=(i,)) for i in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
            assert service.wait_all(timeout=60)
            stats = service.stats()

        assert stats.completed == 16
        assert stats.failed == 16
        series = service.metrics.get("repro_tenant_jobs_total")
        for tenant in ("even", "odd"):
            outcome = stats.tenants[tenant]
            assert outcome.completed == 8
            assert outcome.missed == 8
            assert series.value(tenant=tenant, result="completed") == 8
            assert series.value(tenant=tenant, result="missed") == 8
        assert list(stats.tenants) == ["even", "odd"]
        assert stats.deadlines_missed == 16
        assert stats.deadlines_met == 0

    def test_anonymous_traffic_tracked_separately(self, registry, random_graph):
        with make_service(registry) as service:
            service.submit(
                TraversalRequest("bfs", random_graph.name, source=0, tenant="a")
            )
            service.submit(TraversalRequest("bfs", random_graph.name, source=1))
            assert service.wait_all(timeout=30)
            stats = service.stats()
        assert stats.tenants["a"].completed == 1
        assert stats.tenants[None].completed == 1
        assert list(stats.tenants) == ["a", None]  # anonymous listed last
        # The anonymous tenant's series label is "", which no request can carry.
        series = service.metrics.get("repro_tenant_jobs_total")
        assert series.value(tenant="", result="completed") == 1


class TestCountsVisibleBeforeResult:
    def test_a_returned_result_is_already_in_the_stats(self, registry, random_graph):
        """8 clients; whenever ``result()`` has returned (or raised) for n jobs,
        ``stats()`` taken afterwards must already count at least n terminal
        jobs, n executions and n latency samples — accounting first,
        completion signal second."""
        engine = FailingSourcesEngine(range(0, 48, 5))
        returned = 0
        tally = threading.Lock()
        violations = []

        def client(index: int, service: Service) -> None:
            nonlocal returned
            for k in range(6):
                job = service.submit(
                    TraversalRequest("bfs", random_graph.name, source=index * 6 + k)
                )
                try:
                    service.result(job, timeout=30)
                except JobFailedError:
                    pass
                with tally:
                    returned += 1
                    seen = returned
                stats = service.stats()
                counted = (
                    stats.completed + stats.failed,
                    stats.executions,
                    stats.latency.count,
                )
                if min(counted) < seen:
                    violations.append((seen, counted))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with make_service(registry, engine=engine, max_workers=4) as service:
                threads = [
                    threading.Thread(target=client, args=(i, service)) for i in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(60)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert violations == []
        stats = service.stats()
        assert (stats.completed, stats.failed, stats.executions) == (38, 10, 48)
