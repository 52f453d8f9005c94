"""Failure-path coverage: registry eviction races, cache faults, drain survival."""

import threading

import pytest

from repro.config import ServiceConfig
from repro.errors import ServiceError, UnknownGraphError
from repro.service import (
    FaultPlan,
    GraphRegistry,
    Service,
    TraversalRequest,
)
from repro.service import faults
from repro.service.jobs import JobStatus
from repro.graph.generators import uniform_random_graph
from repro.types import Application


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    faults.deactivate()
    yield
    faults.deactivate()


def make_graph(name, vertices=200, edges=1000, seed=1):
    return uniform_random_graph(vertices, edges, seed=seed, name=name)


class TestRegistryLoaderFailures:
    def test_loader_raising_during_lru_eviction_pressure(self):
        """A loader failure while the budget forces evictions must leave the
        registry consistent: the resident LRU unharmed, the load election
        cleaned up, and the next get() retrying the loader."""
        graph_a = make_graph("a")
        graph_b = make_graph("b")
        budget = graph_a.total_bytes + graph_b.total_bytes // 2  # b evicts a
        registry = GraphRegistry(budget_bytes=budget)
        registry.register("a", lambda: graph_a)
        attempts = []

        def flaky_b_loader():
            attempts.append(len(attempts))
            if len(attempts) == 1:
                raise ServiceError("storage hiccup during load")
            return graph_b

        registry.register("b", flaky_b_loader)
        assert registry.get("a") is graph_a

        with pytest.raises(ServiceError, match="storage hiccup"):
            registry.get("b")
        # Failed load: "a" still resident, no half-loaded "b", election gone.
        assert registry.resident_names() == ("a",)
        assert "b" not in registry.resident_names()

        # The next get re-elects this thread as loader and succeeds; the
        # byte budget then evicts "a" as usual.
        assert registry.get("b") is graph_b
        assert attempts == [0, 1]
        assert "b" in registry.resident_names()

        stats = registry.stats()
        assert stats.loads == 2  # a + the successful b attempt
        assert stats.evictions == 1

    def test_concurrent_waiters_reelect_after_loader_failure(self):
        graph = make_graph("g")
        first_failed = threading.Event()
        calls = []
        lock = threading.Lock()

        def loader():
            with lock:
                calls.append(threading.get_ident())
                first = len(calls) == 1
            if first:
                first_failed.set()
                raise ServiceError("first loader dies")
            return graph

        registry = GraphRegistry()
        registry.register("g", loader)
        outcomes = []

        def worker():
            try:
                outcomes.append(registry.get("g"))
            except ServiceError:
                outcomes.append(None)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
        # At least one waiter was re-elected and loaded the graph; nobody
        # deadlocked on the dead election event.
        assert graph in outcomes

    def test_unknown_graph_still_raises_cleanly(self):
        registry = GraphRegistry()
        with pytest.raises(UnknownGraphError):
            registry.get("missing")


class TestCacheFaults:
    def test_cache_put_fault_racing_a_failed_job_is_absorbed(self):
        """A cache.put fault must neither fail the succeeding job nor
        corrupt accounting when another job in the drain failed."""
        plan = FaultPlan.from_spec(
            "seed=5;cache.put:transient:n=1:limit=1;worker.task:permanent:source=3"
        )
        config = ServiceConfig(fault_plan=plan)
        with Service(config=config) as service:
            service.registry.register_graph(make_graph("g"))
            jobs = [
                service.submit(
                    TraversalRequest(
                        graph="g", application=Application.BFS, source=s
                    )
                )
                for s in (0, 3)
            ]
            assert service.wait_all(30)
            by_source = {job.request.source: job for job in jobs}
            assert by_source[0].status is JobStatus.DONE
            assert by_source[3].status is JobStatus.FAILED
            stats = service.stats()
            assert stats.cache_errors >= 1
            assert stats.completed == 1 and stats.failed == 1

            # The dropped cache fill means an identical request re-executes
            # rather than being served a phantom entry.
            executions_before = stats.executions
            again = service.submit(
                TraversalRequest(graph="g", application=Application.BFS, source=0)
            )
            assert service.result(again, timeout=30).values is not None
            assert service.stats().executions == executions_before + 1

    def test_cache_get_fault_degrades_to_miss(self):
        plan = FaultPlan.from_spec("cache.get:transient:n=1:limit=1")
        config = ServiceConfig(fault_plan=plan)
        with Service(config=config) as service:
            service.registry.register_graph(make_graph("g"))
            job = service.submit(
                TraversalRequest(graph="g", application=Application.BFS, source=0)
            )
            assert service.result(job, timeout=30).values is not None
            stats = service.stats()
            assert stats.cache_errors == 1
            assert stats.completed == 1


class TestDrainLoopSurvival:
    def test_non_traversal_engine_exception_fails_jobs_not_workers(self):
        """An injected engine raising a non-Repro exception must terminate
        its jobs (no hung waiters) and leave the drain loop serving."""

        calls = []

        def exploding_engine(request, graph):
            calls.append(request.source)
            if request.source == 1:
                raise KeyError("engine bug, not a ReproError")
            from repro.traversal.api import run

            return run(
                request.application, graph, source=request.source,
                strategy=request.strategy, system=request.system,
            )

        with Service(engine=exploding_engine) as service:
            service.registry.register_graph(make_graph("g"))
            bad = service.submit(
                TraversalRequest(graph="g", application=Application.BFS, source=1)
            )
            assert bad.wait(30)
            assert bad.status is JobStatus.FAILED
            assert isinstance(bad.error, KeyError)

            good = service.submit(
                TraversalRequest(graph="g", application=Application.BFS, source=0)
            )
            assert service.result(good, timeout=30).values is not None

    def test_failure_outside_job_isolation_does_not_strand_jobs(self, monkeypatch):
        """If the drain path itself explodes before job-level isolation,
        the catch-all fails the popped jobs instead of stranding them."""
        service = Service()
        service.registry.register_graph(make_graph("g"))

        def exploding_fail_expired(batch):
            raise RuntimeError("scheduler invariant violated")

        monkeypatch.setattr(service, "_fail_expired", exploding_fail_expired)
        job = service.submit(
            TraversalRequest(graph="g", application=Application.BFS, source=0)
        )
        assert job.wait(10), "job must not hang when the drain explodes"
        assert job.status is JobStatus.FAILED
        assert isinstance(job.error, RuntimeError)
        stats = service.stats()
        assert stats.failed == 1

        monkeypatch.undo()
        retry = service.submit(
            TraversalRequest(graph="g", application=Application.BFS, source=2)
        )
        assert service.result(retry, timeout=30).values is not None
        service.close()

    def test_pop_plan_failure_keeps_the_worker_alive(self, monkeypatch):
        service = Service()
        service.registry.register_graph(make_graph("g"))
        original = service._queue.pop_plan
        state = {"raised": False}

        def flaky_pop_plan(build):
            if not state["raised"]:
                state["raised"] = True
                raise RuntimeError("policy blew up")
            return original(build)

        monkeypatch.setattr(service._queue, "pop_plan", flaky_pop_plan)
        job = service.submit(
            TraversalRequest(graph="g", application=Application.BFS, source=0)
        )
        # The first wakeup dies picking a batch; the job stays queued.  A
        # subsequent submission's wakeup drains both.
        other = service.submit(
            TraversalRequest(graph="g", application=Application.BFS, source=1)
        )
        assert service.result(job, timeout=30).values is not None
        assert service.result(other, timeout=30).values is not None
        service.close()
