"""Tests for the serving front door: dedup, caching, batching, failures."""

import threading
import time

import numpy as np
import pytest

from repro.config import ServiceConfig
from repro.errors import (
    ConfigurationError,
    JobFailedError,
    JobNotFoundError,
    ServiceError,
    SimulationError,
    UnknownGraphError,
)
from repro.service import (
    GraphRegistry,
    Job,
    JobStatus,
    Service,
    TraversalRequest,
    WorkerPool,
    default_engine,
)
from repro.service.workload import (
    build_service,
    expand_requests,
    load_workload,
    run_workload,
)
from repro.traversal.api import run
from repro.types import ALL_STRATEGIES, Application

from .conftest import metrics_fields


class GatedCountingEngine:
    """Counts engine invocations; optionally blocks or fails per request."""

    def __init__(self, gated: bool = False, fail_sources: tuple = ()):
        self.calls: list[tuple] = []
        self.gate = threading.Event()
        if not gated:
            self.gate.set()
        self.fail_sources = set(fail_sources)
        self._lock = threading.Lock()

    def __call__(self, request, graph):
        with self._lock:
            self.calls.append(request.cache_key)
        self.gate.wait(30)
        if request.source in self.fail_sources:
            raise SimulationError(f"injected failure for source {request.source}")
        return default_engine(request, graph)


@pytest.fixture
def registry(random_graph, uniform_graph):
    registry = GraphRegistry()
    registry.register_graph(random_graph)
    registry.register_graph(uniform_graph)
    return registry


def make_service(registry, engine=None, **config_overrides) -> Service:
    config = ServiceConfig(**{"max_workers": 2, **config_overrides})
    return Service(registry=registry, config=config, engine=engine)


class TestSubmitResult:
    def test_round_trip_matches_direct_run(self, registry, random_graph):
        with make_service(registry) as service:
            job = service.submit(TraversalRequest("bfs", random_graph.name, source=0))
            result = service.result(job, timeout=30)
        direct = run(Application.BFS, random_graph, source=0)
        assert np.array_equal(result.values, direct.values)
        assert job.status is JobStatus.DONE
        assert job.total_seconds is not None and job.total_seconds >= 0

    def test_result_accepts_job_id(self, registry, random_graph):
        with make_service(registry) as service:
            job = service.submit(TraversalRequest("cc", random_graph.name))
            assert service.result(job.job_id, timeout=30) is job.result
            assert service.job(job.job_id) is job

    def test_unknown_job_id(self, registry):
        with make_service(registry) as service:
            with pytest.raises(JobNotFoundError):
                service.job("job-999")

    def test_unknown_graph_rejected_at_submission(self, registry):
        with make_service(registry) as service:
            with pytest.raises(UnknownGraphError):
                service.submit(TraversalRequest("bfs", "nope", source=0))

    def test_submit_after_close_rejected(self, registry, random_graph):
        service = make_service(registry)
        service.close()
        with pytest.raises(ServiceError):
            service.submit(TraversalRequest("bfs", random_graph.name, source=0))

    def test_requests_inherit_service_system(self, registry, random_graph):
        with make_service(registry) as service:
            job = service.submit(TraversalRequest("bfs", random_graph.name, source=0))
            assert job.request.system == service.system


class TestDeduplication:
    def test_identical_inflight_requests_share_one_job(self, registry, random_graph):
        engine = GatedCountingEngine(gated=True)
        with make_service(registry, engine=engine) as service:
            request = TraversalRequest("bfs", random_graph.name, source=1)
            first = service.submit(request)
            second = service.submit(request)
            third = service.submit(TraversalRequest("bfs", random_graph.name, source=1))
            engine.gate.set()
            assert service.wait_all(timeout=30)
        assert second is first and third is first
        assert len(engine.calls) == 1
        stats = service.stats()
        assert stats.deduplicated == 2
        assert stats.executions == 1
        assert stats.completed == 1

    def test_different_requests_not_deduplicated(self, registry, random_graph):
        engine = GatedCountingEngine()
        with make_service(registry, engine=engine) as service:
            a = service.submit(TraversalRequest("bfs", random_graph.name, source=0))
            b = service.submit(TraversalRequest("bfs", random_graph.name, source=1))
            c = service.submit(TraversalRequest("sssp", random_graph.name, source=0))
            assert service.wait_all(timeout=30)
        assert len({a.job_id, b.job_id, c.job_id}) == 3
        assert len(engine.calls) == 3


class TestResultCacheIntegration:
    def test_repeat_request_served_from_cache_without_rerun(
        self, registry, random_graph
    ):
        engine = GatedCountingEngine()
        with make_service(registry, engine=engine) as service:
            request = TraversalRequest("sssp", random_graph.name, source=2)
            first = service.submit(request)
            result = service.result(first, timeout=30)
            second = service.submit(request)
            assert second.done  # completed synchronously at submission
            assert second.from_cache is True
            assert second.job_id != first.job_id
            assert service.result(second, timeout=1) is result
        assert len(engine.calls) == 1
        stats = service.stats()
        assert stats.cache.hits == 1
        assert stats.executions == 1
        assert stats.completed == 2

    def test_cache_disabled_reruns_engine(self, registry, random_graph):
        engine = GatedCountingEngine()
        with make_service(registry, engine=engine, result_cache_entries=0) as service:
            request = TraversalRequest("bfs", random_graph.name, source=3)
            service.result(service.submit(request), timeout=30)
            service.result(service.submit(request), timeout=30)
        assert len(engine.calls) == 2


class TestBatching:
    def test_same_configuration_requests_drain_as_one_batch(
        self, registry, random_graph, uniform_graph
    ):
        engine = GatedCountingEngine(gated=True)
        with make_service(registry, engine=engine, max_workers=1) as service:
            blocker = service.submit(TraversalRequest("bfs", random_graph.name, source=0))
            same_config = [
                service.submit(TraversalRequest("bfs", random_graph.name, source=s))
                for s in range(1, 5)
            ]
            other_config = [
                service.submit(TraversalRequest("cc", uniform_graph.name)),
                service.submit(TraversalRequest("sssp", uniform_graph.name, source=0)),
            ]
            engine.gate.set()
            assert service.wait_all(timeout=30)
        stats = service.stats()
        assert stats.executions == 7
        # blocker drained alone; the 4 same-config jobs accumulated into one
        # batch; the two other-config jobs form one batch each at most.
        assert stats.batches <= 4
        assert stats.amortization > 1.0
        # batching amortizes registry lookups: one get() per batch, not per job
        registry_stats = service.stats().registry
        assert registry_stats.hits + registry_stats.misses == stats.batches
        for job in [blocker, *same_config, *other_config]:
            assert job.status is JobStatus.DONE


class TestBuiltinBatchedExecution:
    """The default (no injected engine) path executes batch groups as one
    multi-source traversal over arena-shared engines."""

    def test_batched_results_match_direct_runs(self, registry, random_graph):
        with make_service(registry, max_workers=1) as service:
            jobs = [
                service.submit(TraversalRequest("bfs", random_graph.name, source=s))
                for s in range(6)
            ]
            results = [service.result(job, timeout=30) for job in jobs]
        for source, result in enumerate(results):
            direct = run(Application.BFS, random_graph, source=source)
            assert np.array_equal(result.values, direct.values)
        stats = service.stats()
        assert stats.executions == 6
        assert stats.completed == 6

    def test_sssp_and_cc_served_by_builtin_path(self, registry, random_graph):
        with make_service(registry, max_workers=2) as service:
            sssp_job = service.submit(
                TraversalRequest("sssp", random_graph.name, source=2)
            )
            cc_job = service.submit(TraversalRequest("cc", random_graph.name))
            sssp_result = service.result(sssp_job, timeout=30)
            cc_result = service.result(cc_job, timeout=30)
        assert np.array_equal(
            sssp_result.values, run(Application.SSSP, random_graph, source=2).values
        )
        assert np.array_equal(
            cc_result.values, run(Application.CC, random_graph).values
        )

    def test_missing_source_poisons_only_its_own_job(self, registry, random_graph):
        """Regression: a BFS job whose source decayed to None used to slip
        past the out-of-range pre-validation into run_batch, where the raised
        error failed the entire multi-source group."""
        good_requests = [
            TraversalRequest("bfs", random_graph.name, source=s) for s in (0, 1)
        ]
        poisoned = TraversalRequest("bfs", random_graph.name, source=2)
        object.__setattr__(poisoned, "source", None)  # bypass normalization
        with make_service(registry) as service:
            jobs = [
                Job(job_id=f"poison-{i}", request=request)
                for i, request in enumerate([*good_requests, poisoned])
            ]
            service._execute_sweep([jobs], random_graph)
        for job, request in zip(jobs[:2], good_requests):
            assert job.status is JobStatus.DONE
            direct = run(Application.BFS, random_graph, source=request.source)
            assert np.array_equal(job.result.values, direct.values)
        assert jobs[2].status is JobStatus.FAILED
        assert isinstance(jobs[2].error, SimulationError)

    def test_invalid_source_fails_only_its_own_job(self, registry, random_graph):
        bad_source = random_graph.num_vertices + 5
        with make_service(registry, max_workers=1) as service:
            good = [
                service.submit(TraversalRequest("bfs", random_graph.name, source=s))
                for s in (0, 1)
            ]
            bad = service.submit(
                TraversalRequest("bfs", random_graph.name, source=bad_source)
            )
            assert service.wait_all(timeout=30)
            for job in good:
                assert service.result(job, timeout=30) is job.result
            with pytest.raises(JobFailedError):
                service.result(bad, timeout=30)
        assert bad.status is JobStatus.FAILED
        assert isinstance(bad.error, SimulationError)


class TestLoneJobsMatchTheLibrary:
    """A lone job runs as a one-lane word (BFS/SSSP) or a one-lane pass
    (CC/PageRank): its values and every simulated number are ``repro.run``'s."""

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    @pytest.mark.parametrize("application", tuple(Application))
    def test_lone_job_equals_run(self, registry, random_graph, application, strategy):
        source = None if application.is_streaming else 3
        with make_service(registry, max_workers=1) as service:
            job = service.submit(
                TraversalRequest(application, random_graph.name, source, strategy)
            )
            result = service.result(job, timeout=30)
            assert [plan["jobs"] for plan in service.plan_decisions()] == [1]
        direct = run(application, random_graph, source, strategy)
        assert result.values.tobytes() == direct.values.tobytes()
        assert metrics_fields(result.metrics) == metrics_fields(direct.metrics)
        assert result.metrics == direct.metrics
        assert getattr(result, "iterations", None) == getattr(direct, "iterations", None)


class TestPlanIsLoggedBeforeTheJobWakes:
    """A client woken by ``result()`` finds its job's plan in
    ``plan_decisions()``, however slowly the plan is recorded: it is
    recorded before the sweep's jobs settle, on every way out of a sweep."""

    @pytest.mark.parametrize("case", ("done", "bad-source", "engine-failure"))
    def test_slow_plan_record(self, registry, random_graph, monkeypatch, case):
        record_plan = Service._record_plan

        def slow(service, *args):
            time.sleep(0.2)
            return record_plan(service, *args)

        monkeypatch.setattr(Service, "_record_plan", slow)
        engine = GatedCountingEngine(fail_sources=(7,)) if case == "engine-failure" else None
        source = {"done": 3, "bad-source": random_graph.num_vertices, "engine-failure": 7}[case]
        with make_service(registry, engine=engine, max_workers=1) as service:
            job = service.submit(
                TraversalRequest("sssp", random_graph.name, source, "naive")
            )
            if case == "done":
                service.result(job, timeout=30)
            else:
                with pytest.raises(JobFailedError):
                    service.result(job, timeout=30)
            assert [plan["jobs"] for plan in service.plan_decisions()] == [1]


class TestFailurePaths:
    def test_engine_failure_propagates_as_job_failed_error(
        self, registry, random_graph
    ):
        engine = GatedCountingEngine(fail_sources=(7,))
        with make_service(registry, engine=engine) as service:
            bad = service.submit(TraversalRequest("bfs", random_graph.name, source=7))
            good = service.submit(TraversalRequest("bfs", random_graph.name, source=8))
            with pytest.raises(JobFailedError) as excinfo:
                service.result(bad, timeout=30)
            assert isinstance(excinfo.value.__cause__, SimulationError)
            assert excinfo.value.job_id == bad.job_id
            assert bad.status is JobStatus.FAILED
            # a failing job does not poison its batch siblings
            assert service.result(good, timeout=30) is not None
        stats = service.stats()
        assert stats.failed == 1 and stats.completed == 1

    def test_failed_result_never_cached(self, registry, random_graph):
        engine = GatedCountingEngine(fail_sources=(7,))
        with make_service(registry, engine=engine) as service:
            request = TraversalRequest("bfs", random_graph.name, source=7)
            with pytest.raises(JobFailedError):
                service.result(service.submit(request), timeout=30)
            engine.fail_sources.clear()
            result = service.result(service.submit(request), timeout=30)
            assert result is not None
        assert len(engine.calls) == 2

    def test_loader_failure_fails_every_job_in_batch(self, random_graph):
        registry = GraphRegistry()
        registry.register("broken", lambda: (_ for _ in ()).throw(OSError("disk")))
        engine = GatedCountingEngine(gated=True)
        with make_service(registry, engine=engine, max_workers=1) as service:
            # occupy the worker so both broken jobs land in one batch
            registry.register_graph(random_graph)
            blocker = service.submit(TraversalRequest("cc", random_graph.name))
            jobs = [
                service.submit(TraversalRequest("bfs", "broken", source=s))
                for s in (0, 1)
            ]
            engine.gate.set()
            assert service.wait_all(timeout=30)
            for job in jobs:
                assert job.status is JobStatus.FAILED
                with pytest.raises(JobFailedError):
                    service.result(job, timeout=1)
            assert blocker.status is JobStatus.DONE
        assert service.stats().failed == 2

    def test_planner_failure_fails_the_popped_anchor(
        self, registry, random_graph, monkeypatch
    ):
        """The anchor group is popped before the planner runs: when the build
        raises, its jobs fail with the planner's error instead of staying
        PENDING with nothing left in the queue to drain them."""
        with make_service(registry, max_workers=1) as service:
            build = service._planner.build
            calls = []

            def failing_once(anchor, pending):
                calls.append(anchor)
                if len(calls) == 1:
                    raise SimulationError("planner broke")
                return build(anchor, pending)

            monkeypatch.setattr(service._planner, "build", failing_once)
            stranded = service.submit(
                TraversalRequest("bfs", random_graph.name, source=0)
            )
            assert stranded.wait(10), "the popped anchor job never settled"
            assert stranded.status is JobStatus.FAILED
            assert isinstance(stranded.error, SimulationError)
            assert str(stranded.error) == "planner broke"
            assert service._queue.pending_count() == 0
            served = service.submit(
                TraversalRequest("bfs", random_graph.name, source=1)
            )
            assert service.result(served, timeout=30) is not None
        stats = service.stats()
        assert stats.failed == 1 and stats.completed == 1

    def test_result_timeout(self, registry, random_graph):
        engine = GatedCountingEngine(gated=True)
        service = make_service(registry, engine=engine)
        try:
            job = service.submit(TraversalRequest("bfs", random_graph.name, source=0))
            with pytest.raises(ServiceError, match="timed out"):
                service.result(job, timeout=0.05)
        finally:
            engine.gate.set()
            service.close()


class TestStats:
    def test_snapshot_counters(self, registry, random_graph):
        with make_service(registry) as service:
            request = TraversalRequest("bfs", random_graph.name, source=0)
            service.result(service.submit(request), timeout=30)
            service.submit(request)  # cache hit
            stats = service.stats()
        assert stats.submitted == 2
        assert stats.completed == 2
        assert stats.executions == 1
        assert stats.pending == 0
        assert stats.uptime_seconds > 0
        assert stats.throughput_rps > 0
        assert 0 <= stats.cache.hit_rate <= 1
        assert "result cache" in stats.describe()

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(max_workers=0)
        with pytest.raises(ConfigurationError):
            ServiceConfig(registry_budget_bytes=-5)
        with pytest.raises(ConfigurationError):
            ServiceConfig(result_cache_entries=-1)
        with pytest.raises(ConfigurationError):
            ServiceConfig(job_retention=0)


class TestLifecycle:
    def test_unfinished_job_does_not_block_pruning(self, registry, random_graph):
        """Regression: pruning used to stop at the first unfinished oldest
        job, so one long-running job let the job table grow unbounded."""

        class BlockFirstSourceEngine:
            def __init__(self):
                self.gate = threading.Event()

            def __call__(self, request, graph):
                if request.source == 0:
                    self.gate.wait(30)
                return default_engine(request, graph)

        engine = BlockFirstSourceEngine()
        service = make_service(registry, engine=engine, job_retention=2)
        try:
            blocker = service.submit(
                TraversalRequest("bfs", random_graph.name, source=0)
            )
            finished = []
            for source in range(1, 6):
                job = service.submit(
                    TraversalRequest("bfs", random_graph.name, source=source)
                )
                service.result(job, timeout=30)
                finished.append(job)
            # the long-running blocker is still the oldest entry, yet the
            # finished jobs behind it were pruned down to the retention bound
            with service._lock:
                table_size = len(service._jobs)
            assert table_size <= 3  # blocker + at most job_retention finished
            assert service.job(blocker.job_id) is blocker  # never pruned
            with pytest.raises(JobNotFoundError):
                service.job(finished[0].job_id)
        finally:
            engine.gate.set()
            service.close()
        assert blocker.status is JobStatus.DONE

    def test_close_is_atomic_with_submit(self, registry, random_graph):
        """Regression: close() flipped the closed flag without the lock that
        submit() checks it under, so a racing submit could enqueue after pool
        shutdown and only recover through the ServiceError side channel.
        Under the admission lock every submission either completes (and is
        drained) or is rejected up front — no job may hang unfinished."""
        engine = GatedCountingEngine()
        for _ in range(5):
            service = make_service(registry, engine=engine, max_workers=2)
            accepted: list[Job] = []
            errors: list[BaseException] = []
            start = threading.Barrier(5)

            def hammer(offset: int) -> None:
                start.wait(5)
                for source in range(offset, offset + 20):
                    try:
                        accepted.append(
                            service.submit(
                                TraversalRequest(
                                    "bfs", random_graph.name, source=source
                                )
                            )
                        )
                    except ServiceError as exc:
                        errors.append(exc)
                        return

            threads = [
                threading.Thread(target=hammer, args=(100 * i,)) for i in range(4)
            ]
            for thread in threads:
                thread.start()
            start.wait(5)
            service.close()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            # every accepted job must reach a terminal state: nothing may be
            # stranded in a queue nobody will ever drain again
            for job in accepted:
                assert job.wait(30), f"{job.job_id} stranded after close()"

    def test_finished_jobs_pruned_beyond_retention(self, registry, random_graph):
        engine = GatedCountingEngine()
        with make_service(registry, engine=engine, job_retention=4) as service:
            jobs = []
            for source in range(8):
                job = service.submit(
                    TraversalRequest("bfs", random_graph.name, source=source)
                )
                service.result(job, timeout=30)
                jobs.append(job)
            with pytest.raises(JobNotFoundError):
                service.job(jobs[0].job_id)  # pruned: oldest finished job
            assert service.job(jobs[-1].job_id) is jobs[-1]
            # Job objects already handed to clients keep working after pruning
            assert jobs[0].status is JobStatus.DONE
            assert jobs[0].result is not None

    def test_close_cancel_pending_fails_queued_jobs(self, registry, random_graph):
        engine = GatedCountingEngine(gated=True)
        service = make_service(registry, engine=engine, max_workers=1)
        blocker = service.submit(TraversalRequest("bfs", random_graph.name, source=0))
        deadline = time.monotonic() + 5
        while not engine.calls and time.monotonic() < deadline:
            time.sleep(0.005)  # wait until the worker is inside the engine
        assert engine.calls
        queued = [
            service.submit(TraversalRequest("sssp", random_graph.name, source=s))
            for s in range(3)
        ]
        service.close(wait=False, cancel_pending=True)
        engine.gate.set()
        assert blocker.wait(10)
        assert blocker.status is JobStatus.DONE  # running work always completes
        for job in queued:
            assert job.wait(10)
            assert job.status is JobStatus.FAILED
            with pytest.raises(JobFailedError):
                service.result(job, timeout=1)
        assert service.stats().failed == 3


class TestRegistryEvictionUnderService:
    def test_budget_keeps_one_graph_resident(self, random_graph, uniform_graph):
        budget = max(random_graph.total_bytes, uniform_graph.total_bytes) + 1
        registry = GraphRegistry(budget_bytes=budget)
        registry.register_graph(random_graph)
        registry.register_graph(uniform_graph)
        with make_service(registry, max_workers=1) as service:
            for _ in range(2):  # alternate graphs to force reload after evict
                for graph in (random_graph, uniform_graph):
                    service.result(
                        service.submit(TraversalRequest("cc", graph.name)), timeout=30
                    )
                    service._cache.clear()  # force the next round to re-execute
        stats = service.stats().registry
        assert stats.resident_graphs == 1
        assert stats.evictions >= 2
        assert stats.loads >= 3  # evicted graphs were transparently reloaded


class TestWorkload:
    def make_spec(self, graph_name):
        return {
            "workers": 2,
            "graphs": [
                {"name": "rmat", "generator": "rmat", "vertices": 200, "edges": 1500}
            ],
            "requests": [
                {"app": "bfs", "graph": "rmat", "sources": [0, 1], "repeat": 2},
                {"app": "cc", "graph": "rmat"},
                {"app": "sssp", "graph": "rmat", "random_sources": 2, "seed": 3},
            ],
        }

    def test_expand_requests(self):
        spec = self.make_spec("rmat")
        with build_service(spec) as service:
            requests = expand_requests(service, spec)
            assert len(requests) == 2 * 2 + 1 + 2
            assert sum(1 for r in requests if r.application is Application.CC) == 1
            report = run_workload(service, requests, timeout=60)
        assert report.total_requests == 7
        assert report.failures == 0
        assert report.unique_results == 5  # the repeated BFS pair collapses
        assert report.requests_per_second > 0
        assert "requests/s" in report.to_table()

    def test_load_workload_validation(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        with pytest.raises(ServiceError):
            load_workload(bad)
        bad.write_text('{"graphs": [], "requests": [{"app": "bfs"}]}')
        with pytest.raises(ServiceError):
            load_workload(bad)

    def test_unknown_generator_rejected(self):
        spec = self.make_spec("rmat")
        spec["graphs"][0]["generator"] = "mystery"
        with pytest.raises(ServiceError):
            build_service(spec)


class TestWorkerPool:
    def test_cancelled_pending_tasks_release_active_count(self):
        """Regression: shutdown(cancel_pending=True) cancelled queued tasks
        whose tracked() wrapper never ran, so `_active` was never decremented
        and ServiceStats.active_workers stayed positive forever."""
        pool = WorkerPool(max_workers=1)
        gate = threading.Event()
        release = threading.Event()

        def blocker():
            gate.set()
            release.wait(30)

        pool.submit(blocker)
        assert gate.wait(5), "worker never started"
        # these can never start: the single worker is occupied
        for _ in range(4):
            pool.submit(lambda: None)
        assert pool.active == 5
        pool.shutdown(wait=False, cancel_pending=True)
        release.set()
        # the running task finishes, the queued ones are cancelled — both
        # paths must decrement, leaving nothing in flight
        deadline = time.monotonic() + 5
        while pool.active and time.monotonic() < deadline:
            time.sleep(0.005)
        assert pool.active == 0

    def test_completed_and_failing_tasks_release_active_count(self):
        pool = WorkerPool(max_workers=2)
        done = pool.submit(lambda: 42)
        failed = pool.submit(lambda: 1 / 0)
        assert done.result(timeout=5) == 42
        with pytest.raises(ZeroDivisionError):
            failed.result(timeout=5)
        deadline = time.monotonic() + 5
        while pool.active and time.monotonic() < deadline:
            time.sleep(0.005)
        assert pool.active == 0
        pool.shutdown()

    def test_service_stats_active_workers_zero_after_cancel_close(
        self, registry, random_graph
    ):
        """The service-level view of the same leak: active_workers must read
        zero after close(cancel_pending=True) drops a queued backlog."""
        engine = GatedCountingEngine(gated=True)
        service = make_service(registry, engine=engine, max_workers=1)
        jobs = [
            service.submit(TraversalRequest("bfs", random_graph.name, source=s))
            for s in range(6)
        ]
        deadline = time.monotonic() + 5
        while not engine.calls and time.monotonic() < deadline:
            time.sleep(0.005)
        engine.gate.set()
        service.close(wait=True, cancel_pending=True)
        deadline = time.monotonic() + 5
        while service.stats().active_workers and time.monotonic() < deadline:
            time.sleep(0.005)
        assert service.stats().active_workers == 0
        for job in jobs:
            assert job.done  # nobody is left blocking on a cancelled batch


class TestJobIdentity:
    def test_jobs_compare_by_identity_not_fields(self):
        request = TraversalRequest("bfs", "g", source=0)
        first = Job(job_id="j-1", request=request)
        twin = Job(job_id="j-1", request=request)
        # field-for-field twins are still *different* jobs: queue membership
        # checks must never conflate them
        assert first != twin
        assert first == first
        assert len({first, twin}) == 2

    def test_group_membership_uses_identity(self):
        request = TraversalRequest("bfs", "g", source=0)
        job = Job(job_id="j-1", request=request)
        twin = Job(job_id="j-1", request=request)
        group = [job]
        assert job in group
        assert twin not in group
        group.remove(job)
        assert group == []

    def test_identity_semantics_survive_state_transitions(self):
        request = TraversalRequest("bfs", "g", source=0)
        job = Job(job_id="j-1", request=request)
        table = {job: "entry"}
        job.mark_failed(RuntimeError("boom"))
        # a generated field-wise __hash__/__eq__ would have changed here
        assert table[job] == "entry"
