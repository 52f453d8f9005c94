"""Tests for the observability subsystem: spans, metrics, trace validation.

Covers the pure building blocks (:mod:`repro.obs.trace`,
:mod:`repro.obs.metrics`, :mod:`repro.obs.check`) and the end-to-end contract
the serving layer guarantees: every traced request gets four tiling lifecycle
spans whose durations sum to its measured latency, fused requests point at a
shared engine sweep span, and kernel counters surface both on results and in
the Prometheus exposition.
"""

import gc
import json
import sys
import threading
import weakref

import pytest

from repro.config import ServiceConfig
from repro.obs import MetricsRegistry, Span, Tracer, tracing_enabled
from repro.obs.check import LIFECYCLE_STAGES, check_trace_lines
from repro.obs.metrics import CATALOG
from repro.obs.trace import ENV_SWITCH, JobRecord
from repro.service import GraphRegistry, Job, Service, TraversalRequest, faults
from repro.service.stats import LatencyStats
from repro.traversal import _native
from repro.traversal.api import run
from repro.traversal.multisource import run_batch
from repro.types import Application

from .conftest import _serve_backlog


@pytest.fixture
def registry(random_graph):
    registry = GraphRegistry()
    registry.register_graph(random_graph)
    return registry


def make_service(registry, **config_overrides) -> Service:
    config = ServiceConfig(**{"max_workers": 2, **config_overrides})
    return Service(registry=registry, config=config)


# ---------------------------------------------------------------------- #
# Kill switch
# ---------------------------------------------------------------------- #
class TestTracingEnabled:
    def test_default_on(self, monkeypatch):
        monkeypatch.delenv(ENV_SWITCH, raising=False)
        assert tracing_enabled() is True

    @pytest.mark.parametrize("value", ["0", "false", "off", "no", " OFF "])
    def test_falsy_values_disable(self, monkeypatch, value):
        monkeypatch.setenv(ENV_SWITCH, value)
        assert tracing_enabled() is False

    @pytest.mark.parametrize("value", ["1", "true", "on", "yes", ""])
    def test_other_values_enable(self, monkeypatch, value):
        monkeypatch.setenv(ENV_SWITCH, value)
        assert tracing_enabled() is True

    def test_explicit_flag_beats_environment(self, monkeypatch):
        monkeypatch.setenv(ENV_SWITCH, "0")
        assert Tracer(enabled=True).enabled is True
        monkeypatch.delenv(ENV_SWITCH)
        assert Tracer(enabled=False).enabled is False

    def test_disabled_tracer_records_nothing(self, monkeypatch):
        monkeypatch.setenv(ENV_SWITCH, "0")
        tracer = Tracer()
        assert tracer.begin() is None
        tracer.emit(Span("t-1", "s-1", "x", 0.0, 0.0))
        assert len(tracer) == 0


# ---------------------------------------------------------------------- #
# Tracer: sampling and ring buffer
# ---------------------------------------------------------------------- #
def _job_record(trace_id):
    return JobRecord(
        trace_id, "job", "bfs", "g", 0, None, "completed", False,
        1000.0, 10.0, 10.1, 10.2, 10.3, 10.4, None, 0, 1, "fifo",
    )


class TestTracer:
    def test_full_sampling_traces_everything(self):
        tracer = Tracer(sample=1.0, enabled=True)
        ids = [tracer.begin() for _ in range(5)]
        assert all(ids)
        assert len(set(ids)) == 5

    def test_systematic_sampling_is_exact(self):
        # sample=0.25 must select exactly every 4th request, not a coin flip.
        tracer = Tracer(sample=0.25, enabled=True)
        picks = [tracer.begin() is not None for _ in range(40)]
        assert sum(picks) == 10
        assert picks == [(i % 4) == 3 for i in range(40)]

    def test_zero_sampling_traces_nothing(self):
        tracer = Tracer(sample=0.0, enabled=True)
        assert all(tracer.begin() is None for _ in range(10))

    def test_ring_buffer_evicts_oldest(self):
        tracer = Tracer(capacity=4, enabled=True)
        spans = [Span("t", f"s{i}", "x", 0.0, 0.0) for i in range(6)]
        tracer.emit_many(spans)
        drained = tracer.drain()
        assert [s.span_id for s in drained] == ["s2", "s3", "s4", "s5"]
        assert len(tracer) == 0  # drain clears
        described = tracer.describe()
        assert described["emitted_spans"] == 6
        assert described["evicted_spans"] == 2

    def test_job_records_weigh_four_spans_and_evict_whole(self):
        tracer = Tracer(capacity=6, enabled=True)
        tracer.emit(Span("t", "s0", "x", 0.0, 0.0))
        tracer.emit(_job_record("a"))
        assert len(tracer) == 5
        tracer.emit(_job_record("b"))  # 9 > 6: the span and record "a" go
        assert len(tracer) == 4
        described = tracer.describe()
        assert (described["emitted_spans"], described["evicted_spans"]) == (9, 5)
        drained = tracer.drain()
        assert [s.name for s in drained] == list(LIFECYCLE_STAGES)
        assert {s.trace_id for s in drained} == {"b"}
        # A record heavier than the whole buffer is evicted on arrival.
        tiny = Tracer(capacity=3, enabled=True)
        tiny.emit(_job_record("c"))
        assert len(tiny) == 0 and tiny.drain() == []
        assert tiny.describe()["evicted_spans"] == 4

    def test_concurrent_emit_and_drain_lose_no_span(self):
        tracer = Tracer(capacity=64, enabled=True)
        drained: list = []
        producing = threading.Barrier(5)
        stop = threading.Event()

        def produce(worker):
            producing.wait(timeout=10)
            for i in range(500):
                if i % 2:
                    tracer.emit(_job_record(f"{worker}-{i}"))
                else:
                    tracer.emit(Span("t", tracer.next_span_id(), "retry", 0.0, 0.0))

        def consume():
            producing.wait(timeout=10)
            while not stop.is_set():
                drained.extend(tracer.drain())

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            producers = [threading.Thread(target=produce, args=(w,)) for w in range(4)]
            consumer = threading.Thread(target=consume)
            for thread in producers + [consumer]:
                thread.start()
            for thread in producers:
                thread.join(timeout=30)
            stop.set()
            consumer.join(timeout=30)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in producers + [consumer])
        drained.extend(tracer.drain())
        described = tracer.describe()
        assert described["emitted_spans"] == 4 * (250 * 4 + 250)
        assert described["buffered"] == len(tracer) == 0
        assert described["emitted_spans"] == described["evicted_spans"] + len(drained)
        ids = [span.span_id for span in drained]
        assert len(ids) == len(set(ids))

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)
        with pytest.raises(ValueError):
            Tracer(sample=1.5)

    def test_span_jsonl_round_trip(self):
        span = Span(
            "req-1", "span-1", "queue", 1.5, 0.25,
            parent_id="span-0", attributes={"policy": "edf"},
        )
        record = json.loads(span.to_jsonl())
        assert record["trace_id"] == "req-1"
        assert record["parent_id"] == "span-0"
        assert record["attributes"] == {"policy": "edf"}
        bare = Span("req-1", "span-2", "queue", 1.5, 0.25).to_json()
        assert "parent_id" not in bare and "attributes" not in bare


# ---------------------------------------------------------------------- #
# Metrics registry
# ---------------------------------------------------------------------- #
class TestMetrics:
    def test_counter_accumulates_and_rejects_decrease(self):
        registry = MetricsRegistry()
        counter = registry.counter("jobs_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_labeled_counter_children(self):
        registry = MetricsRegistry()
        counter = registry.counter("outcomes", label_names=("outcome",))
        counter.inc(outcome="completed")
        counter.inc(outcome="completed")
        counter.inc(outcome="failed")
        assert counter.value(outcome="completed") == 2
        with pytest.raises(ValueError):
            counter.inc(wrong_label="x")

    def test_wrong_label_names_are_rejected_on_every_call(self):
        registry = MetricsRegistry()
        counter = registry.counter("sweeps", label_names=("application", "backend"))
        counter.inc(application="bfs", backend="numpy")
        wrong = [
            {"application": "bfs"},  # missing
            {"application": "bfs", "backend": "numpy", "graph": "GK"},  # extra
            {"application": "bfs", "backened": "numpy"},  # misspelled, same count
            {},
        ]
        for labels in wrong:
            with pytest.raises(ValueError, match="expected labels"):
                counter.inc(**labels)
            with pytest.raises(ValueError, match="expected labels"):
                counter.value(**labels)
        assert counter.samples() == {("bfs", "numpy"): 1.0}
        # A label on an unlabelled instrument, whatever its kind.
        with pytest.raises(ValueError, match="expected labels"):
            registry.counter("plain").inc(application="bfs")
        with pytest.raises(ValueError, match="expected labels"):
            registry.gauge("depth").set(3, application="bfs")
        with pytest.raises(ValueError, match="expected labels"):
            registry.summary("seconds").observe(0.1, application="bfs")
        # The count-then-lookup check is exact only over distinct names.
        with pytest.raises(ValueError, match="repeats a label name"):
            registry.counter("twice", label_names=("application", "application"))

    def test_gauge_last_write_wins(self):
        gauge = MetricsRegistry().gauge("pending")
        gauge.set(5)
        gauge.set(2)
        assert gauge.value() == 2

    def test_summary_quantiles_match_latency_stats(self):
        summary = MetricsRegistry().summary("latency", window=8)
        samples = [0.1, 0.2, 0.3, 0.4]
        for sample in samples:
            summary.observe(sample)
        stats = summary.snapshot()
        reference = LatencyStats.from_samples(samples)
        assert stats.p50_seconds == reference.p50_seconds
        assert stats.p95_seconds == reference.p95_seconds

    def test_summary_window_bounds_quantiles_but_not_totals(self):
        summary = MetricsRegistry().summary("latency", window=2)
        for sample in (1.0, 2.0, 3.0):
            summary.observe(sample)
        stats = summary.snapshot()
        assert stats.count == 2 and stats.max_seconds == 3.0
        rendered = "\n".join(summary.render_prometheus())
        assert "latency_sum 6" in rendered
        assert "latency_count 3" in rendered

    def test_registration_is_idempotent_but_typed(self):
        registry = MetricsRegistry()
        first = registry.counter("x", help="a counter")
        assert registry.counter("x") is first
        with pytest.raises(ValueError):
            registry.gauge("x")
        with pytest.raises(ValueError):
            registry.counter("x", label_names=("app",))

    def test_prometheus_rendering_shape(self):
        registry = MetricsRegistry()
        registry.counter("reqs", help="Requests.", label_names=("app",)).inc(app="bfs")
        registry.gauge("depth", help="Queue depth.").set(3)
        registry.summary("wait").observe(0.5)
        text = registry.render_prometheus()
        assert "# HELP reqs Requests.\n# TYPE reqs counter" in text
        assert 'reqs{app="bfs"} 1' in text
        assert "# TYPE depth gauge\ndepth 3" in text
        assert 'wait{quantile="0.5"} 0.5' in text
        assert "wait_count 1" in text
        assert text.endswith("\n")

    def test_json_rendering_shape(self):
        registry = MetricsRegistry()
        registry.counter("reqs", label_names=("app",)).inc(app="bfs")
        registry.gauge("depth").set(3)
        document = registry.render_json()
        assert document["reqs"]["kind"] == "counter"
        assert document["reqs"]["values"] == [
            {"labels": {"app": "bfs"}, "value": 1.0}
        ]
        assert document["depth"]["values"] == 3.0


# ---------------------------------------------------------------------- #
# Kernel counters on results
# ---------------------------------------------------------------------- #
class TestKernelCounters:
    def test_solo_run_reports_counters(self, random_graph):
        result = run(Application.BFS, random_graph, source=0)
        counters = result.metrics.counters
        assert counters is not None
        assert counters.iterations > 0
        assert counters.edges_traversed > 0
        assert counters.max_frontier >= 1

    def test_batched_sssp_reports_relax_backend(self, random_graph):
        outcome = run_batch(Application.SSSP, random_graph, sources=(0, 1, 2))
        for result in outcome.results:
            counters = result.metrics.counters
            assert counters is not None
            assert counters.relax_backend in ("native", "scatter")
            assert counters.relax_candidates > 0


# ---------------------------------------------------------------------- #
# End-to-end service tracing
# ---------------------------------------------------------------------- #
class TestServiceTracing:
    def test_lifecycle_spans_tile_to_latency(self, registry, random_graph):
        with make_service(registry) as service:
            jobs = [
                service.submit(TraversalRequest("bfs", random_graph.name, source=s))
                for s in range(4)
            ]
            assert service.wait_all(timeout=30)
            spans = service.drain_traces()
        by_trace: dict = {}
        for span in spans:
            by_trace.setdefault(span["trace_id"], []).append(span)
        for job in jobs:
            trace = by_trace[job.trace_id]
            names = {span["name"] for span in trace}
            assert names == set(LIFECYCLE_STAGES)
            total = sum(span["duration_seconds"] for span in trace)
            assert total == pytest.approx(job.total_seconds, abs=1e-3)

    def test_exported_trace_passes_checker(self, registry, random_graph):
        with make_service(registry) as service:
            for source in range(3):
                service.submit(
                    TraversalRequest("sssp", random_graph.name, source=source)
                )
            service.submit(TraversalRequest("cc", random_graph.name))
            assert service.wait_all(timeout=30)
            spans = service.drain_traces()
        lines = [json.dumps(span) for span in spans]
        checked, errors = check_trace_lines(lines)
        assert errors == []
        assert checked == 4

    def test_checker_flags_broken_traces(self, registry, random_graph):
        with make_service(registry) as service:
            service.submit(TraversalRequest("bfs", random_graph.name, source=0))
            assert service.wait_all(timeout=30)
            spans = service.drain_traces()
        # Drop the cache span: the trace no longer tiles its latency.
        truncated = [s for s in spans if s["name"] != "cache"]
        _, errors = check_trace_lines([json.dumps(s) for s in truncated])
        assert any("cache" in error for error in errors)
        _, errors = check_trace_lines(["{not json"])
        assert errors

    def test_fused_jobs_share_one_sweep_span(self, registry, random_graph):
        with make_service(registry) as service:
            jobs = [
                Job(job_id=f"fused-{i}", request=request)
                for i, request in enumerate(
                    TraversalRequest("bfs", random_graph.name, source=s)
                    for s in range(3)
                )
            ]
            for job in jobs:
                job.trace_id = service._tracer.begin()
                job.enqueued_at = job.submitted_at
            service._execute_sweep([jobs], random_graph)
            spans = service.drain_traces()
        refs = {job.sweep_ref for job in jobs}
        assert len(refs) == 1 and None not in refs
        assert all(job.sweep_siblings == 2 for job in jobs)
        sweeps = [s for s in spans if s["name"] == "engine_sweep"]
        assert len(sweeps) == 1
        assert sweeps[0]["span_id"] == jobs[0].sweep_ref
        assert sweeps[0]["attributes"]["jobs"] == 3
        per_request = [s for s in spans if s["name"] == "sweep"]
        assert all(
            s["attributes"]["sweep_ref"] == jobs[0].sweep_ref for s in per_request
        )

    def test_ring_bound_is_counted_in_spans(self, registry, random_graph):
        request = TraversalRequest("bfs", random_graph.name, source=0)
        with make_service(registry, trace_buffer=8) as service:
            _serve_backlog(service, [request])
            service.drain_traces()
            before = service._tracer.describe()
            jobs = [service.submit(request) for _ in range(3)]  # three hits
            assert all(job.from_cache for job in jobs)
            after = service._tracer.describe()
            buffered = service.collect_metrics().get("repro_trace_buffered_spans")
            spans = service.drain_traces()
        assert after["emitted_spans"] - before["emitted_spans"] == 12
        assert after["evicted_spans"] - before["evicted_spans"] == 4
        assert after["buffered"] == buffered.value() == len(spans) == 8
        assert [span["trace_id"] for span in spans] == [
            job.trace_id for job in jobs[1:] for _ in LIFECYCLE_STAGES
        ]

    def test_buffered_record_pins_no_result(self, registry, random_graph):
        name = random_graph.name
        with make_service(registry, job_retention=1, result_cache_entries=1) as service:
            _serve_backlog(service, [TraversalRequest("bfs", name, source=0)])
            job = service.job("job-1")
            pinned = weakref.ref(job.result)
            trace_id, latency = job.trace_id, job.total_seconds
            del job
            # A second job prunes job-1 from the table and its result from
            # the cache; only its trace record is left.
            _serve_backlog(service, [TraversalRequest("bfs", name, source=1)])
            gc.collect()
            assert pinned() is None
            assert len(service._tracer) > 0
            spans = service.drain_traces()
        trace = [span for span in spans if span["trace_id"] == trace_id]
        assert [span["name"] for span in trace] == list(LIFECYCLE_STAGES)
        assert sum(span["duration_seconds"] for span in trace) == pytest.approx(
            latency, abs=1e-9
        )

    def test_trace_sample_zero_emits_no_spans(self, registry, random_graph):
        with make_service(registry, trace_sample=0.0) as service:
            service.submit(TraversalRequest("bfs", random_graph.name, source=0))
            assert service.wait_all(timeout=30)
            assert service.drain_traces() == []

    def test_env_kill_switch_silences_service(self, monkeypatch, random_graph):
        monkeypatch.setenv(ENV_SWITCH, "0")
        registry = GraphRegistry()
        registry.register_graph(random_graph)
        with make_service(registry) as service:
            job = service.submit(
                TraversalRequest("bfs", random_graph.name, source=0)
            )
            assert service.wait_all(timeout=30)
            assert job.trace_id is None
            assert service.drain_traces() == []

    def test_wall_clock_anchor(self):
        job = Job(job_id="j", request=TraversalRequest("cc", "g"))
        assert job.wall_clock(job.submitted_at) == job.submitted_wall
        assert job.wall_clock(job.submitted_at + 5.0) == pytest.approx(
            job.submitted_wall + 5.0
        )


# ---------------------------------------------------------------------- #
# Service metrics exposition
# ---------------------------------------------------------------------- #
class TestServiceMetrics:
    def test_request_and_kernel_series(self, registry, random_graph):
        with make_service(registry) as service:
            for source in range(3):
                service.submit(
                    TraversalRequest("bfs", random_graph.name, source=source)
                )
            assert service.wait_all(timeout=30)
            metrics = service.collect_metrics()
        assert metrics.get("repro_requests_submitted_total").value() == 3
        assert metrics.get("repro_requests_total").value(outcome="completed") == 3
        assert metrics.get("repro_kernel_iterations_total").value(app="bfs") > 0
        assert metrics.get("repro_kernel_edges_total").value(app="bfs") > 0
        assert metrics.get("repro_costmodel_observations_total").value() > 0
        text = metrics.render_prometheus()
        assert "repro_request_latency_seconds_count 3" in text
        assert "repro_costmodel_abs_error_seconds_count" in text

    def test_exposition_is_exactly_the_catalog(self, registry, random_graph):
        """Every series is declared once, in the catalog: an idle service
        exposes all of them and nothing else, with the catalog's kind, label
        names and help text."""
        with make_service(registry) as service:
            service.submit(TraversalRequest("bfs", random_graph.name, source=0))
            assert service.wait_all(timeout=30)
            metrics = service.collect_metrics()
        assert set(metrics.names()) == set(CATALOG)
        rendered = metrics.render_prometheus()
        for name, (kind, help_text, *label_names) in CATALOG.items():
            instrument = metrics.get(name)
            assert instrument.kind == kind, name
            assert instrument.label_names == tuple(label_names), name
            assert f"# HELP {name} {help_text}\n# TYPE {name} {kind}\n" in rendered
        assert rendered.count("# HELP ") == len(CATALOG)
        with pytest.raises(KeyError):
            metrics["repro_requests_submited_total"]

    def test_backend_counter_from_batched_sssp(self, registry, random_graph):
        with make_service(registry) as service:
            jobs = [
                Job(
                    job_id=f"sssp-{i}",
                    request=TraversalRequest("sssp", random_graph.name, source=i),
                )
                for i in range(3)
            ]
            service._execute_sweep([jobs], random_graph)
            metrics = service.collect_metrics()
        backend = jobs[0].result.metrics.counters.relax_backend
        assert backend in ("native", "scatter")
        counter = metrics.get("repro_kernel_backend_total")
        assert counter.value(app="sssp", backend=backend) == 1

    def test_deduplicated_and_outcome_counters(self, registry, random_graph):
        from repro.service import default_engine

        gate = threading.Event()

        def gated_engine(request, graph):
            gate.wait(30)  # hold the first job until the duplicate joined
            return default_engine(request, graph)

        with Service(
            registry=registry,
            config=ServiceConfig(max_workers=1),
            engine=gated_engine,
        ) as service:
            request = TraversalRequest("cc", random_graph.name)
            first = service.submit(request)
            second = service.submit(request)
            gate.set()
            assert service.wait_all(timeout=30)
            metrics = service.collect_metrics()
        assert second is first
        assert metrics.get("repro_requests_submitted_total").value() == 2
        assert metrics.get("repro_requests_deduplicated_total").value() == 1
        assert metrics.get("repro_requests_total").value(outcome="completed") == 1


# ---------------------------------------------------------------------- #
# One ledger: stats, metric series and traces agree exactly
# ---------------------------------------------------------------------- #
CI_CHAOS_PLAN = (
    "seed=9;registry.load:transient:n=1:limit=2;"
    "cache.put:transient:n=2:limit=2;engine.sweep:transient:n=3:limit=1"
)


def _series(metrics, name, **labels) -> float:
    """One child of a series, or the sum over its children without labels."""
    instrument = metrics.get(name)
    if labels:
        return instrument.value(**labels)
    values = instrument.render_json()
    if isinstance(values, list):
        return sum(child["value"] for child in values)
    return values


def _mixed_requests(graph_name):
    """Every shape at once: fused words, streaming, repeats, tenants, deadlines."""
    requests = [TraversalRequest("bfs", graph_name, source=s) for s in range(9)]
    requests += [TraversalRequest("bfs", graph_name, source=s) for s in (0, 1)]
    requests += [TraversalRequest("sssp", graph_name, source=s) for s in range(4)]
    requests += [TraversalRequest("cc", graph_name)] * 2
    requests += [TraversalRequest("pagerank", graph_name)]
    requests += [
        TraversalRequest(
            "bfs", graph_name, source=s, strategy="uvm", tenant="gold", deadline=60.0
        )
        for s in (0, 1)
    ]
    return requests


def assert_one_ledger(service, spans=None):
    """ServiceStats, the metric series and the drained trace tell one story."""
    stats = service.stats()
    metrics = service.collect_metrics()
    if spans is None:
        spans = service.drain_traces()
    completed = _series(metrics, "repro_requests_total", outcome="completed")
    failed = _series(metrics, "repro_requests_total", outcome="failed")
    expired = _series(metrics, "repro_requests_total", outcome="expired")
    from_series = {
        "submitted": _series(metrics, "repro_requests_submitted_total"),
        "deduplicated": _series(metrics, "repro_requests_deduplicated_total"),
        "completed": completed,
        "failed": failed + expired,
        "expired": expired,
        "executions": _series(metrics, "repro_executions_total"),
        "batches": _series(metrics, "repro_batches_total"),
        "engine_seconds": _series(metrics, "repro_engine_seconds_total"),
        "rejected": _series(metrics, "repro_requests_rejected_total"),
        "rejected_infeasible": _series(
            metrics, "repro_requests_rejected_total", reason="infeasible"
        ),
        "deadlines_met": _series(metrics, "repro_deadlines_total", result="met"),
        "deadlines_missed": _series(metrics, "repro_deadlines_total", result="missed"),
        "retries": _series(metrics, "repro_retries_total"),
        "sweep_timeouts": _series(metrics, "repro_sweep_timeouts_total"),
        "isolations": _series(metrics, "repro_fused_isolations_total"),
        "degraded": _series(metrics, "repro_native_degraded_total"),
        "cache_errors": _series(metrics, "repro_cache_errors_total"),
        "rejected_after_close": _series(metrics, "repro_rejected_after_close_total"),
        "faults_injected": _series(metrics, "repro_faults_injected_total"),
        "store_hits": _series(metrics, "repro_store_hits_total"),
        "store_errors": sum(
            value
            for (_, outcome), value in metrics.get("repro_store_operations_total")
            .samples()
            .items()
            if outcome == "error"
        ),
        "pending": _series(metrics, "repro_pending_jobs"),
    }
    from_stats = {name: getattr(stats, name) for name in from_series}
    assert from_stats == from_series
    assert stats.latency == metrics.get("repro_request_latency_seconds").snapshot()
    assert stats.queue_wait == metrics.get("repro_queue_wait_seconds").snapshot()
    assert stats.cache.hits + stats.store_hits == _series(
        metrics, "repro_requests_cache_served_total"
    )
    # Every terminal job left one admission span naming the same outcome.
    admissions = [span for span in spans if span["name"] == "admission"]
    by_outcome = {"completed": 0, "failed": 0, "expired": 0}
    for span in admissions:
        by_outcome[span["attributes"]["outcome"]] += 1
    assert by_outcome == {"completed": completed, "failed": failed, "expired": expired}
    assert stats.submitted - stats.deduplicated == len(admissions)
    plans = [span for span in spans if span["name"] == "plan"]
    assert (
        len(plans)
        == len(service.plan_decisions())
        == _series(metrics, "repro_planner_plans_chosen_total")
    )
    # Each plan span carries its decision record: predicted beside actual.
    assert sorted(
        (span["attributes"]["predicted_seconds"], span["attributes"]["actual_seconds"])
        for span in plans
    ) == sorted(
        (entry["predicted_seconds"], entry["actual_seconds"])
        for entry in service.plan_decisions()
    )
    retries = [span for span in spans if span["name"] == "retry"]
    assert len(retries) == stats.retries
    return stats


class TestOneLedger:
    @pytest.fixture
    def lazy_registry(self, random_graph):
        # A loader instead of register_graph, so `registry.load` faults fire.
        registry = GraphRegistry()
        registry.register(random_graph.name, lambda: random_graph)
        return registry

    @pytest.fixture(autouse=True)
    def _no_leaked_plan(self):
        faults.deactivate()
        yield
        faults.deactivate()
        _native.reset_probe()

    def _service(self, registry, **overrides):
        return make_service(registry, trace_sample=1.0, trace_buffer=4096, **overrides)

    @pytest.mark.parametrize(
        "plan, expect",
        [
            (None, {}),
            (CI_CHAOS_PLAN, {"retries": 3, "cache_errors": 2, "faults_injected": 5}),
            (
                "seed=3;worker.task:permanent:source=7;native.invoke:permanent:limit=1",
                {"failed": 1, "isolations": 1},
            ),
        ],
        ids=["plain", "ci-chaos", "permanent"],
    )
    def test_backlog_under_fault_plan(self, lazy_registry, random_graph, plan, expect):
        service = self._service(lazy_registry, fault_plan=plan, breaker_threshold=1)
        with service:
            _serve_backlog(service, _mixed_requests(random_graph.name))
            # A second wave of repeats is answered by the result cache.
            _serve_backlog(service, _mixed_requests(random_graph.name)[:4])
        stats = assert_one_ledger(service)
        assert stats.submitted == 24 and stats.deduplicated == 3
        assert stats.completed + stats.failed == 21
        assert stats.deadlines_met + stats.deadlines_missed == 2
        for name, value in expect.items():
            assert getattr(stats, name) == value, name

    def test_worker_threads(self, lazy_registry, random_graph):
        with self._service(lazy_registry, max_workers=4) as service:
            service.submit_many(_mixed_requests(random_graph.name))
            assert service.wait_all(timeout=60)
        stats = assert_one_ledger(service)
        assert stats.submitted == 20 and stats.failed == 0

    def test_store_cold_then_warm(self, lazy_registry, random_graph, tmp_path):
        requests = _mixed_requests(random_graph.name)
        path = str(tmp_path / "ledger.sqlite")
        with self._service(lazy_registry, store_path=path) as cold:
            _serve_backlog(cold, requests)
        cold_stats = assert_one_ledger(cold)
        assert cold_stats.store_hits == 0 and cold_stats.store_writes > 0
        warm_registry = GraphRegistry()
        warm_registry.register(random_graph.name, lambda: random_graph)
        with self._service(warm_registry, store_path=path) as warm:
            _serve_backlog(warm, requests)
        warm_stats = assert_one_ledger(warm)
        assert warm_stats.store_hits + warm_stats.store_backfilled > 0
        assert warm_stats.executions < cold_stats.executions

    def test_all_hit_traffic_keeps_every_surface(
        self, lazy_registry, random_graph, tmp_path
    ):
        name = random_graph.name
        catalogue = [TraversalRequest("bfs", name, source=s) for s in range(8)]
        catalogue += [TraversalRequest("sssp", name, source=s) for s in range(4)]
        path = str(tmp_path / "hot.sqlite")
        with self._service(lazy_registry, store_path=path) as cold:
            _serve_backlog(cold, catalogue)
        # A cache a third of the catalogue: cycling through it evicts, so hits
        # come from memory and from the store both, and nothing executes.
        traffic = (catalogue + catalogue[:6] + catalogue[::-1]) * 2
        hot = self._service(lazy_registry, store_path=path, result_cache_entries=4)
        with hot:
            jobs = [hot.submit(request) for request in traffic]
            assert all(job.done and job.from_cache for job in jobs)
            spans = hot.drain_traces()
        stats = assert_one_ledger(hot, spans)
        assert stats.submitted == stats.completed == len(traffic) == 60
        assert (stats.executions, stats.batches, stats.deduplicated) == (0, 0, 0)
        assert stats.store_hits > 0 and stats.cache.hits > 0
        assert stats.cache.evictions > 0
        assert len(spans) == 4 * len(traffic)
        checked, errors = check_trace_lines([json.dumps(span) for span in spans])
        assert (checked, errors) == (len(traffic), [])
        assert {span["trace_id"] for span in spans} == {job.trace_id for job in jobs}

    def test_deadline_expiry_and_queue_limit(self, lazy_registry, random_graph):
        name = random_graph.name
        requests = [TraversalRequest("bfs", name, source=0, deadline=0.01, tenant="t")]
        requests += [TraversalRequest("bfs", name, source=s) for s in (1, 2, 3)]
        requests += [TraversalRequest("sssp", name, source=0)]  # over the limit
        with self._service(lazy_registry, queue_limit=4) as service:
            refused = _serve_backlog(service, requests, settle=0.05)
        stats = assert_one_ledger(service)
        assert refused == stats.rejected == 1
        assert (stats.expired, stats.failed, stats.completed) == (1, 1, 3)
        assert stats.deadlines_missed == 1

    def test_fully_expired_plan_is_on_no_surface(self, lazy_registry, random_graph):
        lone = TraversalRequest("bfs", random_graph.name, source=0, deadline=0.01)
        with self._service(lazy_registry) as service:
            _serve_backlog(service, [lone], settle=0.05)
        stats = assert_one_ledger(service)
        assert (stats.expired, stats.completed, stats.batches) == (1, 0, 0)
        assert service.plan_decisions() == []

    def test_plan_without_a_graph_is_on_no_surface(self, lazy_registry, random_graph):
        service = self._service(lazy_registry, fault_plan="seed=5;registry.load:permanent")
        with service:
            _serve_backlog(service, _mixed_requests(random_graph.name))
        stats = assert_one_ledger(service)
        assert stats.failed == stats.submitted - stats.deduplicated == 17
        assert stats.executions == 0 and service.plan_decisions() == []


# ---------------------------------------------------------------------- #
# Span ids are assigned on read: unique across drains, links still resolve
# ---------------------------------------------------------------------- #
class TestDrainedRecords:
    @pytest.fixture(autouse=True)
    def _no_leaked_plan(self):
        faults.deactivate()
        yield
        faults.deactivate()
        _native.reset_probe()

    def test_span_ids_unique_and_links_resolve_across_drains(self, random_graph):
        name = random_graph.name
        registry = GraphRegistry()
        registry.register(name, lambda: random_graph)  # so registry faults fire
        requests = _mixed_requests(name)
        service = make_service(registry, fault_plan=CI_CHAOS_PLAN, trace_buffer=4096)
        with service:
            _serve_backlog(service, requests)
            first = service.drain_traces()
            # Hits, plus fresh misses that fuse into new words.
            repeats = requests[:6] + [
                TraversalRequest("bfs", name, source=s) for s in range(20, 24)
            ]
            _serve_backlog(service, repeats)
            second = service.drain_traces()
            stats = service.stats()
        assert stats.retries > 0 and stats.cache.hits > 0
        assert any(
            span["name"] == "sweep" and span["attributes"]["siblings"] > 0
            for span in first + second
        )
        ids = [span["span_id"] for span in first + second]
        assert len(ids) == len(set(ids))
        for spans in (first, second):
            sweeps = {span["span_id"] for span in spans if span["name"] == "engine_sweep"}
            refs = [
                span["attributes"]["sweep_ref"]
                for span in spans
                if "sweep_ref" in span.get("attributes", {})
            ]
            assert refs and set(refs) <= sweeps
            checked, errors = check_trace_lines([json.dumps(span) for span in spans])
            assert errors == [] and checked > 0
