"""Chaos smoke: seeded fault plans against a full service, end to end.

These tests drive the drain path deterministically (jobs are enqueued first,
then drained on the test thread) so fused groups form reliably, and assert
the resilience invariants the PR promises: every request reaches a terminal
state, a poisoned lane fails alone while its siblings' results stay
bit-identical, a failed native kernel steps its sweep down to bit-identical
numpy results, and the drained trace passes ``repro.obs.check``.
"""

import numpy as np
import pytest

from repro.config import ServiceConfig
from repro.errors import PermanentFaultError
from repro.obs.check import check_trace_lines
from repro.service import FaultPlan, Service, TraversalRequest
from repro.service import faults
from repro.service.jobs import JobStatus
from repro.graph.generators import uniform_random_graph
from repro.traversal import _native
from repro.traversal.api import run
from repro.traversal.bfs import bfs_levels
from repro.traversal.sssp import sssp_distances
from repro.types import AccessStrategy, Application

import json


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    faults.deactivate()
    yield
    faults.deactivate()
    _native.reset_probe()


def make_graph(name="chaos", vertices=400, edges=2400, seed=5):
    return uniform_random_graph(vertices, edges, seed=seed, name=name)


def enqueue_without_draining(service, requests):
    """Submit requests while stubbing worker dispatch, for deterministic
    batching: everything queues first, the test thread drains afterwards."""
    original = service._pool.submit
    service._pool.submit = lambda fn, *a, **k: None
    try:
        return [service.submit(request) for request in requests]
    finally:
        service._pool.submit = original


def drain_all(service, max_drains=100):
    for _ in range(max_drains):
        if service._queue.pending_count() == 0:
            return
        service._drain_one_batch()
    raise AssertionError("queue did not drain")


def clean_values(graph, application, source):
    # The numpy oracles: a solo run sweeps the native kernels, and so would
    # hit the very native.invoke faults these tests arm.
    oracle = bfs_levels if application is Application.BFS else sssp_distances
    return oracle(graph, source)


class TestPoisonedLaneIsolation:
    def test_poisoned_sssp_lane_fails_alone_with_bit_identical_siblings(self):
        plan = FaultPlan.from_spec("seed=11;worker.task:permanent:source=13")
        config = ServiceConfig(fault_plan=plan, trace_enabled=True, trace_sample=1.0)
        graph = make_graph()
        with Service(config=config) as service:
            service.registry.register_graph(graph)
            requests = [
                TraversalRequest(
                    graph="chaos", application=Application.SSSP, source=s
                )
                for s in range(16)
            ]
            jobs = enqueue_without_draining(service, requests)
            drain_all(service)

            assert all(job.done for job in jobs), "every request must be terminal"
            poisoned = [job for job in jobs if job.request.source == 13]
            assert len(poisoned) == 1
            assert poisoned[0].status is JobStatus.FAILED
            assert isinstance(poisoned[0].error, PermanentFaultError)
            for job in jobs:
                if job is poisoned[0]:
                    continue
                assert job.status is JobStatus.DONE
                expected = clean_values(graph, Application.SSSP, job.request.source)
                assert np.array_equal(job.result.values, expected)

            stats = service.stats()
            assert stats.isolations >= 1
            assert stats.failed == 1 and stats.completed == 15

    def test_poisoned_streaming_lane_fails_alone(self):
        # CC jobs carry no source, so the poison matches on tenant; two
        # strategies make two lanes of one fused streaming pass.
        plan = FaultPlan.from_spec("seed=3;worker.task:permanent:tenant=poison")
        config = ServiceConfig(fault_plan=plan)
        graph = make_graph()
        with Service(config=config) as service:
            service.registry.register_graph(graph)
            requests = [
                TraversalRequest(
                    graph="chaos", application=Application.CC,
                    strategy="merged_aligned", tenant="poison",
                ),
                TraversalRequest(
                    graph="chaos", application=Application.CC,
                    strategy="uvm", tenant="ok",
                ),
            ]
            jobs = enqueue_without_draining(service, requests)
            drain_all(service)

            assert all(job.done for job in jobs)
            assert jobs[0].status is JobStatus.FAILED
            assert isinstance(jobs[0].error, PermanentFaultError)
            assert jobs[1].status is JobStatus.DONE
            expected = run(
                Application.CC, graph, strategy=AccessStrategy.UVM
            ).values
            assert np.array_equal(jobs[1].result.values, expected)
            assert service.stats().isolations >= 1


class TestNativeStepDown:
    @pytest.mark.skipif(
        not _native.available(), reason="native relax kernel unavailable"
    )
    def test_forced_native_failure_degrades_bit_identically(self):
        plan = FaultPlan.from_spec("seed=2;native.invoke:permanent")
        config = ServiceConfig(fault_plan=plan)
        graph = make_graph()
        with Service(config=config) as service:
            service.registry.register_graph(graph)
            requests = [
                TraversalRequest(
                    graph="chaos", application=Application.SSSP, source=s
                )
                for s in range(8)
            ]
            jobs = enqueue_without_draining(service, requests)
            drain_all(service)

            stats = service.stats()
            assert stats.degraded == 1  # one word, one step-down
            assert stats.failed == 0 and stats.completed == 8
            for job in jobs:
                expected = clean_values(graph, Application.SSSP, job.request.source)
                assert np.array_equal(job.result.values, expected)
                assert job.result.metrics.counters.relax_backend == "scatter"

            # The step-down is exported through the Prometheus surface.
            rendered = service.collect_metrics().render_prometheus()
            assert "repro_native_degraded_total 1" in rendered

    @pytest.mark.skipif(
        not _native.available(), reason="native relax kernel unavailable"
    )
    def test_every_drain_tries_native_and_steps_down_alone(self):
        plan = FaultPlan.from_spec("seed=2;native.invoke:permanent")
        config = ServiceConfig(fault_plan=plan)
        graph = make_graph()
        with Service(config=config) as service:
            service.registry.register_graph(graph)
            jobs = []
            for sources in (range(4), range(4, 8)):
                jobs += enqueue_without_draining(
                    service,
                    [
                        TraversalRequest(
                            graph="chaos", application=Application.SSSP, source=s
                        )
                        for s in sources
                    ],
                )
                drain_all(service)
            for job in jobs:
                assert job.status is JobStatus.DONE
                expected = clean_values(graph, Application.SSSP, job.request.source)
                assert np.array_equal(job.result.values, expected)
            stats = service.stats()
            assert stats.degraded == 2 and stats.faults_injected == 2

    @pytest.mark.skipif(
        not _native.available(), reason="native kernels unavailable"
    )
    def test_mixed_wave_with_every_native_call_failing(self):
        # Every application, lone and fused, on a plan that fails every
        # native kernel call: each sweep that tries native steps down once,
        # and every request gets the values a fault-free service gives it.
        graph = make_graph()
        requests = [
            TraversalRequest(graph="chaos", application=app, source=s, strategy=strategy)
            for app in (Application.BFS, Application.SSSP)
            for strategy in ("merged_aligned", "uvm")
            for s in (0, 3, 9)
        ]
        requests += [
            TraversalRequest(graph="chaos", application=app, strategy=strategy)
            for app in (Application.CC, Application.PAGERANK)
            for strategy in ("merged_aligned", "uvm")
        ]
        requests.append(
            TraversalRequest(graph="chaos", application=Application.SSSP, source=17)
        )

        def serve(fault_plan):
            config = ServiceConfig(
                fault_plan=fault_plan, trace_enabled=True, trace_sample=1.0
            )
            with Service(config=config) as service:
                service.registry.register_graph(graph)
                jobs = enqueue_without_draining(service, requests)
                drain_all(service)
                return jobs, service.stats(), service.drain_traces(), (
                    service.collect_metrics().render_prometheus()
                )

        clean, clean_stats, _, _ = serve(None)
        jobs, stats, spans, rendered = serve("native.invoke:permanent")
        assert clean_stats.degraded == 0
        assert stats.failed == 0 and stats.completed == len(requests)
        for job, reference in zip(jobs, clean, strict=True):
            assert job.status is JobStatus.DONE
            assert job.result.values.tobytes() == reference.result.values.tobytes()
        sweeps = [span for span in spans if span["name"] == "engine_sweep"]
        tried_native = [
            span for span in sweeps
            if span["attributes"].get("error") == "NativeBackendError"
        ]
        # One failed native attempt and one clean numpy re-run per sweep.
        assert len(tried_native) * 2 == len(sweeps)
        assert stats.degraded == len(tried_native) == stats.faults_injected
        assert stats.degraded >= 4  # BFS, SSSP, CC and PageRank each swept
        native_series = {
            line.split()[2]
            for line in rendered.splitlines()
            if line.startswith("# TYPE repro_native_")
        }
        assert native_series == {"repro_native_degraded_total"}
        assert f"repro_native_degraded_total {stats.degraded}" in rendered


class TestChaosPlanEndToEnd:
    def test_mixed_chaos_plan_all_terminal_and_trace_checks(self):
        spec = (
            "seed=17;"
            "registry.load:transient:n=1:limit=1;"
            "worker.task:permanent:source=7;"
            "cache.put:transient:n=3:limit=2"
        )
        config = ServiceConfig(
            fault_plan=spec, trace_enabled=True, trace_sample=1.0
        )
        graph = make_graph()
        with Service(config=config) as service:
            service.registry.register_graph(graph)
            requests = [
                TraversalRequest(
                    graph="chaos", application=Application.BFS, source=s
                )
                for s in range(12)
            ]
            jobs = enqueue_without_draining(service, requests)
            drain_all(service)

            assert all(job.done for job in jobs)
            failed = [job for job in jobs if job.status is JobStatus.FAILED]
            assert [job.request.source for job in failed] == [7]
            for job in jobs:
                if job.status is JobStatus.DONE:
                    expected = clean_values(
                        graph, Application.BFS, job.request.source
                    )
                    assert np.array_equal(job.result.values, expected)

            stats = service.stats()
            assert stats.retries >= 1
            assert stats.faults_injected >= 2
            assert stats.cache_errors >= 1

            # The drained trace — retry spans included — passes the CI gate.
            lines = [
                json.dumps(span, sort_keys=True)
                for span in service.drain_traces()
            ]
            checked, errors = check_trace_lines(lines)
            assert errors == []
            assert checked >= len(jobs)

    def test_env_spec_arms_the_default_config(self, monkeypatch):
        monkeypatch.setenv(
            faults.ENV_SPEC, "seed=4;registry.load:transient:n=1:limit=1"
        )
        with Service() as service:
            service.registry.register_graph(make_graph())
            job = service.submit(
                TraversalRequest(
                    graph="chaos", application=Application.BFS, source=0
                )
            )
            assert service.result(job, timeout=30).values is not None
            stats = service.stats()
            assert stats.retries == 1 and stats.faults_injected == 1

    def test_stats_prom_exposition_carries_resilience_series(self):
        config = ServiceConfig(
            fault_plan="registry.load:transient:n=1:limit=1"
        )
        with Service(config=config) as service:
            service.registry.register_graph(make_graph())
            job = service.submit(
                TraversalRequest(
                    graph="chaos", application=Application.BFS, source=0
                )
            )
            service.result(job, timeout=30)
            rendered = service.collect_metrics().render_prometheus()
            assert 'repro_retries_total{site="registry.load"} 1' in rendered
            assert 'repro_faults_injected_total{site="registry.load"} 1' in rendered
            assert "repro_native_degraded_total 0" in rendered
