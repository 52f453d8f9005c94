"""A job's completion event is built only for a waiter that comes early.

``Job.wake`` marks a job done by pointing it at one shared, already-set
event; ``Job.wait`` on an unfinished job builds the job's own event under
the module's one lock.  These tests race waiters against wakes: a waiter
before the wake and one after it, a timeout on a job that never finishes,
and many clients blocked on one deduplicated job.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.config import ServiceConfig
from repro.service import GraphRegistry, Job, JobStatus, Service, TraversalRequest
from repro.service.service import default_engine


def _job(source: int = 0) -> Job:
    return Job(job_id=f"job-{source}", request=TraversalRequest("bfs", "g", source=source))


def _finish(job: Job) -> None:
    job.mark_done(result=None)  # the payload is irrelevant to signalling
    job.wake()


def _until(predicate, timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.001)
    return False


class TestLazyEvent:
    def test_waiter_before_the_wake_is_woken(self):
        job = _job()
        with ThreadPoolExecutor(max_workers=1) as pool:
            waiting = pool.submit(job.wait, 10)
            # The early waiter built the job's own event and is blocked on it.
            assert _until(lambda: job._event is not None)
            assert not job.done and not waiting.done()
            _finish(job)
            assert waiting.result(timeout=10) is True
        assert job.done and job.status is JobStatus.DONE

    def test_waiter_after_the_wake_builds_no_event(self):
        job = _job()
        _finish(job)
        woken = job._event
        assert job.done
        assert job.wait(0) is True and job.wait() is True
        assert job._event is woken  # the shared set event, nothing new

    def test_every_job_woken_unwaited_shares_one_event(self):
        first, second = _job(0), _job(1)
        _finish(first)
        _finish(second)
        assert first._event is second._event and first._event.is_set()

    def test_wait_with_timeout_on_an_unfinished_job_returns_false(self):
        job = _job()
        started = time.perf_counter()
        assert job.wait(0.05) is False
        assert time.perf_counter() - started >= 0.04
        assert not job.done and job.status is JobStatus.PENDING
        # A waiter that timed out leaves the job wakeable.
        _finish(job)
        assert job.wait(0) is True

    def test_a_wake_during_the_event_build_still_wakes(self, monkeypatch):
        """The lost-wakeup window: a wake that lands while an early waiter is
        building the job's event must still wake that waiter."""
        job = _job()
        building, woken = threading.Event(), threading.Event()
        outcome: list[bool] = []
        waiter = threading.Thread(target=lambda: outcome.append(job.wait(2)))
        factory = threading.Event

        def slow_event():
            building.set()
            # Give the wake its chance to run mid-build; a wake that waits
            # for the event lock lets this time out instead.
            woken.wait(0.2)
            return factory()

        monkeypatch.setattr(threading, "Event", slow_event)
        waiter.start()
        assert building.wait(5)
        _finish(job)
        woken.set()
        waiter.join(10)
        assert outcome == [True] and job.done


class GatedEngine:
    """Blocks every engine call until the gate opens."""

    def __init__(self) -> None:
        self.gate = threading.Event()
        self.calls = 0

    def __call__(self, request, graph):
        self.calls += 1
        self.gate.wait(30)
        return default_engine(request, graph)


class TestJoinedDuplicateWaiters:
    def test_many_waiters_on_a_joined_duplicate_all_wake(self, random_graph):
        registry = GraphRegistry()
        registry.register_graph(random_graph)
        engine = GatedEngine()
        request = TraversalRequest("bfs", random_graph.name, source=0)
        waiters = 8
        with Service(registry, ServiceConfig(max_workers=1), engine=engine) as service:
            first = service.submit(request)
            assert _until(lambda: engine.calls == 1)
            # Every duplicate joins the running job: one object, one wake.
            duplicates = [service.submit(request) for _ in range(waiters - 1)]
            assert all(job is first for job in duplicates)
            with ThreadPoolExecutor(max_workers=waiters) as pool:
                results = [
                    pool.submit(service.result, job, 30) for job in [first, *duplicates]
                ]
                assert _until(lambda: first._event is not None)
                assert not any(future.done() for future in results)
                engine.gate.set()
                values = [future.result(timeout=30) for future in results]
            assert all(value is values[0] for value in values)
            stats = service.stats()
        assert engine.calls == 1
        assert (stats.submitted, stats.deduplicated, stats.completed) == (waiters, waiters - 1, 1)
        assert first.done and first.wait(0)
