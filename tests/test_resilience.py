"""Tests for the resilience substrate: faults, retries, timeouts, breaker, step-down."""

import threading
import time

import numpy as np
import pytest

from repro.config import ServiceConfig
from repro.errors import (
    ConfigurationError,
    JobFailedError,
    ServiceClosedError,
    SweepTimeoutError,
)
from repro.service import (
    Cancellation,
    CircuitBreaker,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    Service,
    TraversalRequest,
    WorkerPool,
    cancellation_scope,
    current_cancellation,
    default_engine,
)
from repro.service import faults
from repro.service.resilience import iteration_checkpoint
from repro.errors import PermanentFaultError, TransientFaultError
from repro.graph.generators import uniform_random_graph
from repro.traversal import _native
from repro.service.jobs import JobStatus
from repro.traversal.bfs import bfs_levels, run_bfs
from repro.traversal.cc import cc_labels
from repro.traversal.engine import TraversalEngine
from repro.traversal.multisource import run_batch, run_packed_batch
from repro.traversal.pagerank import pagerank_scores
from repro.traversal.sssp import run_sssp, sssp_distances
from repro.traversal.streaming import run_streaming_batch
from repro.types import AccessStrategy, Application

from .test_chaos import drain_all, enqueue_without_draining


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    """Every test starts and ends with no globally armed fault plan."""
    faults.deactivate()
    yield
    faults.deactivate()


def make_graph(name="resil", vertices=300, edges=1500, seed=3):
    return uniform_random_graph(vertices, edges, seed=seed, name=name)


# --------------------------------------------------------------------------- #
# FaultSpec / FaultPlan
# --------------------------------------------------------------------------- #
class TestFaultPlan:
    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(site="nope.site", mode="transient")
        with pytest.raises(ConfigurationError):
            FaultSpec(site="cache.get", mode="weird")
        with pytest.raises(ConfigurationError):
            FaultSpec(site="cache.get", mode="transient", probability=1.5)
        with pytest.raises(ConfigurationError):
            FaultSpec(site="cache.get", mode="transient", nth=0)
        with pytest.raises(ConfigurationError):
            FaultSpec(site="cache.get", mode="latency", delay_seconds=-1)

    def test_from_spec_parses_seed_modes_and_matchers(self):
        plan = FaultPlan.from_spec(
            "seed=9; registry.load:transient:n=2:limit=3 ;"
            "worker.task:permanent:source=13;cache.put:latency:delay=0.001"
        )
        assert plan.seed == 9
        sites = [spec.site for spec in plan.specs]
        assert sites == ["registry.load", "worker.task", "cache.put"]
        registry_spec = plan.specs[0]
        assert registry_spec.nth == 2 and registry_spec.limit == 3
        assert plan.specs[1].match == (("source", "13"),)
        assert plan.specs[2].delay_seconds == pytest.approx(0.001)

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "seed=7",  # arms nothing
            "registry.load",  # missing mode
            "registry.load:transient:p=abc",
            "registry.load:transient:novalue",
            "seed=x;registry.load:transient",
        ],
    )
    def test_from_spec_rejects_malformed(self, bad):
        with pytest.raises(ConfigurationError):
            FaultPlan.from_spec(bad)

    def test_nth_and_limit_fire_deterministically(self):
        plan = FaultPlan.from_spec("registry.load:transient:n=2:limit=2")
        fires = []
        for call in range(1, 9):
            try:
                plan.check("registry.load")
            except TransientFaultError:
                fires.append(call)
        assert fires == [2, 4]  # every 2nd call, capped at 2 fires
        assert plan.total_fired() == 2
        assert plan.counts() == {"registry.load": 2}

    def test_probability_is_seed_deterministic(self):
        def pattern(seed):
            plan = FaultPlan.from_spec(f"seed={seed};cache.get:transient:p=0.5")
            fired = []
            for _ in range(32):
                try:
                    plan.check("cache.get")
                    fired.append(False)
                except TransientFaultError:
                    fired.append(True)
            return fired

        assert pattern(7) == pattern(7)
        assert pattern(7) != pattern(8)  # overwhelmingly likely for 32 draws

    def test_matchers_compare_context_as_strings(self):
        plan = FaultPlan.from_spec("worker.task:permanent:source=13:tenant=bulk")
        plan.check("worker.task", source=12, tenant="bulk")  # no match, no raise
        plan.check("worker.task", source=13, tenant="interactive")
        with pytest.raises(PermanentFaultError) as excinfo:
            plan.check("worker.task", source=13, tenant="bulk")
        assert excinfo.value.site == "worker.task"

    def test_latency_mode_sleeps_instead_of_raising(self):
        plan = FaultPlan.from_spec("cache.get:latency:delay=0.01:limit=1")
        started = time.perf_counter()
        plan.check("cache.get")
        assert time.perf_counter() - started >= 0.009
        plan.check("cache.get")  # limit reached: no further delay

    def test_listeners_observe_fires(self):
        plan = FaultPlan.from_spec("cache.get:transient:limit=1")
        seen = []
        plan.add_listener(seen.append)
        with pytest.raises(TransientFaultError):
            plan.check("cache.get")
        plan.check("cache.get")
        assert seen == ["cache.get"]

    def test_global_activation_and_idempotent_deactivate(self):
        assert faults.active_plan() is None
        faults.check("cache.get")  # no plan armed: free no-op
        plan_a = FaultPlan.from_spec("cache.get:transient")
        plan_b = FaultPlan.from_spec("cache.put:transient")
        faults.activate(plan_a)
        faults.activate(plan_b)
        faults.deactivate(plan_a)  # stale deactivation must not disarm b
        assert faults.active_plan() is plan_b
        faults.deactivate(plan_b)
        assert faults.active_plan() is None

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv(faults.ENV_SPEC, raising=False)
        assert FaultPlan.from_env() is None
        monkeypatch.setenv(faults.ENV_SPEC, "  ")
        assert FaultPlan.from_env() is None
        monkeypatch.setenv(faults.ENV_SPEC, "seed=3;registry.load:transient")
        plan = FaultPlan.from_env()
        assert plan is not None and plan.seed == 3

    def test_describe_mentions_sites_and_fires(self):
        plan = FaultPlan.from_spec("seed=5;worker.task:permanent:source=2")
        text = plan.describe()
        assert "seed=5" in text and "worker.task:permanent" in text
        assert "fired 0" in text


# --------------------------------------------------------------------------- #
# Cancellation
# --------------------------------------------------------------------------- #
class TestCancellation:
    def test_no_budget_never_trips(self):
        token = Cancellation()
        token.check()
        assert token.remaining() is None and not token.cancelled

    def test_budget_expiry_raises_at_checkpoint(self):
        token = Cancellation(budget_seconds=0.0, label="test sweep")
        with pytest.raises(SweepTimeoutError, match="test sweep"):
            token.check()

    def test_explicit_cancel(self):
        token = Cancellation(budget_seconds=60.0)
        token.cancel("operator abort")
        with pytest.raises(SweepTimeoutError, match="operator abort"):
            token.check()

    def test_scope_installs_and_restores_thread_local(self):
        outer = Cancellation(budget_seconds=60.0, label="outer")
        inner = Cancellation(budget_seconds=60.0, label="inner")
        assert current_cancellation() is None
        with cancellation_scope(outer):
            assert current_cancellation() is outer
            with cancellation_scope(inner):
                assert current_cancellation() is inner
            assert current_cancellation() is outer
        assert current_cancellation() is None

    def test_scope_none_is_noop(self):
        with cancellation_scope(None):
            assert current_cancellation() is None

    def test_iteration_checkpoint_polls_current_token(self):
        iteration_checkpoint()  # no token, no plan: no-op
        with cancellation_scope(Cancellation(budget_seconds=0.0)):
            with pytest.raises(SweepTimeoutError):
                iteration_checkpoint()

    def test_pricing_overrun_is_seen_before_the_next_configuration(self, monkeypatch):
        # A word is priced after its last sweep, one configuration after
        # another; the token is polled after each, so an overrun while the
        # first prices raises before the second starts.
        priced = []
        price_lanes = TraversalEngine.price_lanes

        def overrunning(engine, *args):
            priced.append(engine.strategy)
            current_cancellation().cancel("pricing overran")
            return price_lanes(engine, *args)

        monkeypatch.setattr(TraversalEngine, "price_lanes", overrunning)
        lanes = [(0, AccessStrategy.MERGED_ALIGNED), (1, AccessStrategy.UVM)]
        with cancellation_scope(Cancellation(budget_seconds=60.0)):
            with pytest.raises(SweepTimeoutError, match="pricing overran"):
                run_packed_batch(Application.BFS, make_graph(), lanes)
        assert priced == [AccessStrategy.MERGED_ALIGNED]

    @pytest.mark.parametrize("application", (Application.CC, Application.PAGERANK))
    def test_streaming_pricing_overrun_is_seen_before_the_next_configuration(
        self, monkeypatch, application
    ):
        # A streaming pass is priced after its last iteration, one
        # configuration after another, with the token polled after each.
        priced = []
        price_lanes = TraversalEngine.price_lanes

        def overrunning(engine, *args):
            priced.append(engine.strategy)
            current_cancellation().cancel("pricing overran")
            return price_lanes(engine, *args)

        monkeypatch.setattr(TraversalEngine, "price_lanes", overrunning)
        lanes = [AccessStrategy.MERGED_ALIGNED, AccessStrategy.UVM]
        with cancellation_scope(Cancellation(budget_seconds=60.0)):
            with pytest.raises(SweepTimeoutError, match="pricing overran"):
                run_streaming_batch(application, make_graph(), lanes)
        assert priced == [AccessStrategy.MERGED_ALIGNED]

    def test_scope_is_thread_local(self):
        token = Cancellation(budget_seconds=0.0)
        seen = []

        def other_thread():
            seen.append(current_cancellation())

        with cancellation_scope(token):
            worker = threading.Thread(target=other_thread)
            worker.start()
            worker.join()
        assert seen == [None]


# --------------------------------------------------------------------------- #
# RetryPolicy
# --------------------------------------------------------------------------- #
class TestRetryPolicy:
    def test_exponential_growth_without_jitter(self):
        policy = RetryPolicy(backoff_seconds=0.01, multiplier=2.0, jitter=0.0)
        import random

        rng = random.Random(0)
        assert policy.delay(0, rng) == pytest.approx(0.01)
        assert policy.delay(1, rng) == pytest.approx(0.02)
        assert policy.delay(2, rng) == pytest.approx(0.04)

    def test_jitter_bounds(self):
        policy = RetryPolicy(backoff_seconds=0.01, multiplier=2.0, jitter=0.25)
        import random

        rng = random.Random(42)
        for attempt in range(4):
            base = 0.01 * 2**attempt
            delay = policy.delay(attempt, rng)
            assert base <= delay <= base * 1.25


# --------------------------------------------------------------------------- #
# CircuitBreaker
# --------------------------------------------------------------------------- #
class TestCircuitBreaker:
    def test_opens_after_consecutive_failures(self):
        transitions = []
        breaker = CircuitBreaker(
            failure_threshold=3, cooldown_seconds=60.0,
            on_transition=transitions.append,
        )
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"  # below threshold
        breaker.record_failure()
        assert breaker.state == "open" and not breaker.allow()
        assert transitions == ["open"]

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown_seconds=60.0)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_grants_one_probe(self):
        clock = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_seconds=10.0, clock=lambda: clock[0]
        )
        breaker.record_failure()
        assert breaker.state == "open" and not breaker.allow()
        clock[0] = 10.0
        assert breaker.state == "half_open"
        assert breaker.allow()  # the single probe
        assert not breaker.allow()  # everyone else stays degraded

    def test_probe_success_closes(self):
        clock = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_seconds=5.0, clock=lambda: clock[0]
        )
        breaker.record_failure()
        clock[0] = 5.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed" and breaker.allow()

    def test_probe_failure_rearms_cooldown(self):
        clock = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_seconds=5.0, clock=lambda: clock[0]
        )
        breaker.record_failure()
        clock[0] = 5.0
        assert breaker.allow()
        breaker.record_failure()  # probe failed
        assert breaker.state == "open" and not breaker.allow()
        clock[0] = 9.0  # cooldown re-armed at t=5: still open
        assert breaker.state == "open"
        clock[0] = 10.0
        assert breaker.state == "half_open"

    def test_on_transition_counts_transitions(self):
        transitions = []
        clock = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_seconds=5.0,
            on_transition=transitions.append, clock=lambda: clock[0],
        )
        assert breaker.state == "closed" and transitions == []
        breaker.record_failure()
        breaker.record_failure()  # already open: no second transition
        assert transitions == ["open"]
        clock[0] = 5.0
        assert breaker.allow()  # the probe moves the circuit to half-open
        breaker.record_success()
        assert transitions == ["open", "half_open", "closed"]

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown_seconds=-1)


# --------------------------------------------------------------------------- #
# Service-level retries and timeouts
# --------------------------------------------------------------------------- #
class TestServiceRetries:
    def test_transient_loader_fault_is_retried(self):
        plan = FaultPlan.from_spec("registry.load:transient:n=1:limit=1")
        config = ServiceConfig(fault_plan=plan, trace_enabled=True, trace_sample=1.0)
        with Service(config=config) as service:
            service.registry.register_graph(make_graph())
            job = service.submit(
                TraversalRequest(graph="resil", application=Application.BFS, source=0)
            )
            result = service.result(job, timeout=30)
            assert result.values is not None
            stats = service.stats()
            assert stats.retries == 1
            assert stats.faults_injected == 1
            assert stats.completed == 1 and stats.failed == 0
            spans = service.drain_traces()
            retry_spans = [s for s in spans if s["name"] == "retry"]
            assert len(retry_spans) == 1
            assert retry_spans[0]["attributes"]["site"] == "registry.load"

    def test_retry_budget_exhaustion_fails_the_job(self):
        plan = FaultPlan.from_spec("registry.load:transient")  # fires every time
        config = ServiceConfig(fault_plan=plan, retry_limit=2)
        with Service(config=config) as service:
            service.registry.register_graph(make_graph())
            job = service.submit(
                TraversalRequest(graph="resil", application=Application.BFS, source=0)
            )
            with pytest.raises(JobFailedError):
                service.result(job, timeout=30)
            stats = service.stats()
            assert stats.retries == 2  # limit respected
            assert stats.failed == 1

    def test_permanent_fault_is_not_retried(self):
        plan = FaultPlan.from_spec("registry.load:permanent:limit=1")
        config = ServiceConfig(fault_plan=plan)
        with Service(config=config) as service:
            service.registry.register_graph(make_graph())
            job = service.submit(
                TraversalRequest(graph="resil", application=Application.BFS, source=0)
            )
            with pytest.raises(JobFailedError):
                service.result(job, timeout=30)
            assert service.stats().retries == 0

    def test_fault_plan_spec_string_in_config(self):
        config = ServiceConfig(fault_plan="registry.load:transient:limit=1")
        with Service(config=config) as service:
            service.registry.register_graph(make_graph())
            job = service.submit(
                TraversalRequest(graph="resil", application=Application.BFS, source=0)
            )
            service.result(job, timeout=30)
            assert service.stats().retries == 1

    def test_sweep_timeout_cancels_at_iteration_boundary(self):
        # A zero-ish absolute budget trips the very first checkpoint; the
        # engine observes its own overrun and raises SweepTimeoutError.
        config = ServiceConfig(sweep_timeout=1e-9)
        with Service(config=config) as service:
            service.registry.register_graph(make_graph())
            job = service.submit(
                TraversalRequest(graph="resil", application=Application.BFS, source=0)
            )
            with pytest.raises(JobFailedError) as excinfo:
                service.result(job, timeout=30)
            assert isinstance(excinfo.value.__cause__, SweepTimeoutError)
            stats = service.stats()
            assert stats.sweep_timeouts == 1
            assert stats.degraded == 0  # a timeout is not a native failure

    def test_multiplier_watchdog_waits_for_cost_samples(self):
        # With only a multiplier configured, an application without a learned
        # rate has only the prior, so the watchdog stays off and the sweep
        # completes.
        config = ServiceConfig(sweep_timeout_multiplier=5.0)
        with Service(config=config) as service:
            service.registry.register_graph(make_graph())
            job = service.submit(
                TraversalRequest(graph="resil", application=Application.BFS, source=0)
            )
            assert service.result(job, timeout=30).values is not None
            assert service.stats().sweep_timeouts == 0

    def test_packed_sweep_is_budgeted_as_the_sum_of_its_groups(self, monkeypatch):
        # Regression: a word packing several configurations was budgeted as
        # the *first* group's family x every job of every group.  Now a sweep
        # is predicted once, as the sum over its groups, and that number
        # budgets the watchdog and is logged with the plan.
        budgets = []

        class Recording(Cancellation):
            def __init__(self, budget_seconds=None, label="sweep"):
                budgets.append((label, budget_seconds))
                super().__init__(budget_seconds, label=label)

        monkeypatch.setattr("repro.service.service.Cancellation", Recording)
        config = ServiceConfig(max_workers=1, sweep_timeout_multiplier=200.0)
        with Service(config=config) as service:
            service.registry.register_graph(make_graph())
            first = service.submit(
                TraversalRequest(graph="resil", application=Application.BFS, source=0)
            )
            service.result(first, timeout=30)
            assert budgets == [], "no budget before the application has a rate"
            assert service.cost_model.rate("bfs") is not None
            jobs = enqueue_without_draining(
                service,
                [
                    TraversalRequest(
                        graph="resil", application=Application.BFS,
                        source=source, strategy=strategy,
                    )
                    for strategy in ("merged_aligned", "uvm")
                    for source in range(1, 17)
                ],
            )
            keys = sorted({job.request.batch_key for job in jobs})
            one_group = service.cost_model.estimate_group(keys[0], 16)
            expected = service.cost_model.estimate_sweep([(key, 16) for key in keys])
            assert expected == pytest.approx(2 * one_group)
            drain_all(service)
            assert all(job.status.value == "done" for job in jobs)
            (plan,) = [p for p in service.plan_decisions() if p["kind"] == "packed"]
            # Two groups of the same 16 sources: one 16-lane word.
            assert plan["shape"] == "packed:2x16"
            assert plan["predicted_seconds"] == pytest.approx(expected)
            assert budgets == [("packed sweep", pytest.approx(200.0 * expected))]
            assert service.stats().sweep_timeouts == 0

    def test_close_deactivates_the_plan(self):
        plan = FaultPlan.from_spec("registry.load:transient")
        config = ServiceConfig(fault_plan=plan)
        service = Service(config=config)
        assert faults.active_plan() is plan
        service.close()
        assert faults.active_plan() is None


# --------------------------------------------------------------------------- #
# A native failure steps its sweep down to numpy: BFS and SSSP words, CC
# min-label sweeps, PageRank steps and UVM replays all run native kernels
# --------------------------------------------------------------------------- #
def _drain_group(service, application, sources=(None,), strategies=("merged_aligned",)):
    """Queue one group per strategy, then drain them on the test thread."""
    jobs = enqueue_without_draining(
        service,
        [
            TraversalRequest(
                graph="resil", application=application, source=s, strategy=strategy
            )
            for strategy in strategies
            for s in sources
        ],
    )
    drain_all(service)
    assert all(job.result is not None for job in jobs)
    return jobs


def _faulted_service(faults_spec):
    service = Service(config=ServiceConfig(fault_plan=faults_spec))
    service.registry.register_graph(make_graph())
    return service


def _streaming_oracle(application):
    graph = make_graph()
    return cc_labels(graph) if application is Application.CC else pagerank_scores(graph)


@pytest.mark.skipif(not _native.available(), reason="native kernels unavailable")
class TestStreamingSweepsStepDown:
    """CC and PageRank sweep native kernels too: a streaming drain or a lone
    streaming job steps down to the bit-identical numpy sweep on a native
    failure, as BFS/SSSP do."""

    @staticmethod
    def _assert_values(jobs):
        for job in jobs:
            assert job.status is JobStatus.DONE
            expected = _streaming_oracle(job.request.application)
            assert job.result.values.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("application", (Application.CC, Application.PAGERANK))
    def test_one_fault_degrades_the_drain_with_identical_values(self, application):
        with _faulted_service("native.invoke:permanent:limit=1") as service:
            self._assert_values(
                _drain_group(service, application, strategies=("merged_aligned", "uvm"))
            )
            stats = service.stats()
            assert stats.degraded == 1
            assert stats.failed == 0 and stats.isolations == 0
            # The next drain runs native again, and cleanly.
            self._assert_values(_drain_group(service, application, strategies=("naive",)))
            assert service.stats().degraded == 1

    @pytest.mark.parametrize("application", (Application.CC, Application.PAGERANK))
    def test_lone_streaming_job_steps_down(self, application):
        # The job fault fails the fused sweep into solo re-runs; the first
        # solo run then meets the native fault and must step down, not fail.
        with _faulted_service(
            "worker.task:permanent:limit=1;native.invoke:permanent:limit=1"
        ) as service:
            self._assert_values(
                _drain_group(service, application, strategies=("merged_aligned", "uvm"))
            )
            stats = service.stats()
            assert stats.isolations == 1
            assert stats.degraded == 1 and stats.failed == 0


@pytest.mark.skipif(not _native.available(), reason="native kernels unavailable")
class TestPackedWordsStepDown:
    """Regression: a failing native BFS word used to skip the step-down and
    fail the whole fused sweep into solo re-runs. A packed word, BFS or SSSP,
    now re-runs once on numpy with identical values."""

    @staticmethod
    def _assert_values(jobs):
        graph = make_graph()
        for job in jobs:
            oracle = bfs_levels if job.request.application is Application.BFS else sssp_distances
            assert np.array_equal(job.result.values, oracle(graph, job.request.source))

    @pytest.mark.parametrize("application", (Application.BFS, Application.SSSP))
    def test_one_fault_degrades_the_drain_with_identical_values(self, application):
        with _faulted_service("native.invoke:permanent:limit=1") as service:
            jobs = _drain_group(
                service, application, (0, 1, 2), strategies=("merged_aligned", "uvm")
            )
            self._assert_values(jobs)
            stats = service.stats()
            assert stats.degraded == 1
            assert stats.failed == 0 and stats.isolations == 0
            # The next drain runs native again, and cleanly.
            self._assert_values(_drain_group(service, application, (3, 4, 5)))
            assert service.stats().degraded == 1


@pytest.mark.skipif(not _native.available(), reason="native kernels unavailable")
class TestLoneJobsStepDown:
    """A lone BFS/SSSP job runs solo on the same native kernels as a word, so
    its native failures step down to numpy as a drain's do."""

    @staticmethod
    def _assert_values(jobs):
        graph = make_graph()
        for job in jobs:
            oracle = bfs_levels if job.request.application is Application.BFS else sssp_distances
            assert job.status is JobStatus.DONE
            assert np.array_equal(job.result.values, oracle(graph, job.request.source))

    @pytest.mark.parametrize("application", (Application.BFS, Application.SSSP))
    def test_one_fault_steps_a_lone_job_down_with_identical_values(self, application):
        with _faulted_service("native.invoke:permanent:limit=1") as service:
            jobs = _drain_group(service, application, (0,))
            stats = service.stats()
            assert stats.degraded == 1
            assert stats.failed == 0 and stats.isolations == 0
            # The next lone job runs native again, and cleanly.
            jobs += _drain_group(service, application, (1,))
            self._assert_values(jobs)
            assert service.stats().degraded == 1

    def test_every_sweep_tries_native_first(self):
        # No memory between sweeps: each failing sweep steps down alone, and
        # the sweep after the last fault is served by the native kernels.
        with _faulted_service("native.invoke:permanent:limit=2") as service:
            jobs = [_drain_group(service, Application.SSSP, (s,))[0] for s in range(3)]
            self._assert_values(jobs)
            backends = [job.result.metrics.counters.relax_backend for job in jobs]
            assert backends == ["scatter", "scatter", "native"]
            stats = service.stats()
            assert stats.degraded == 2 and stats.failed == 0


@pytest.mark.skipif(not _native.available(), reason="native kernels unavailable")
class TestUVMReplayStepsDown:
    """A UVM sweep replays its page residency with a native kernel too: a
    failing replay steps the sweep down like a failing traversal kernel, and
    the numpy re-run replays UVM on numpy."""

    @staticmethod
    def _clean_runs(application, sources, fused):
        """Values and metrics of each source on the numpy backend."""
        graph = make_graph()
        if fused:
            batch = run_batch(
                application.value, graph, list(sources), strategy=AccessStrategy.UVM,
                relax_method="scatter",
            )
            return batch.results
        runner = run_bfs if application is Application.BFS else run_sssp
        return [
            runner(graph, source, AccessStrategy.UVM, relax_method="scatter")
            for source in sources
        ]

    @pytest.mark.parametrize(
        "application, sources, failing_kernel",
        [
            (Application.BFS, (0,), "bfs_sweep"),
            (Application.SSSP, (0,), "sssp_sweep"),
            (Application.BFS, (0,), "uvm_replay"),
            (Application.SSSP, (0,), "uvm_replay"),
            (Application.BFS, (0, 1, 2), "bfs_sweep"),
            (Application.BFS, (0, 1, 2), "uvm_replay"),
            (Application.SSSP, (0, 1, 2), "uvm_replay"),
        ],
        ids=[
            "lone-bfs", "lone-sssp", "lone-bfs-replay", "lone-sssp-replay",
            "fused-bfs", "fused-bfs-replay", "fused-sssp-replay",
        ],
    )
    def test_one_fault_steps_down_once_with_clean_numpy_results(
        self, application, sources, failing_kernel, caplog
    ):
        clean = self._clean_runs(application, sources, fused=len(sources) > 1)
        # A word, lone or fused, runs its sweeps' kernels first (one invoke
        # per sweep of its longest lane), then prices: the lane-row pass,
        # then the replay.
        sweeps = max(result.metrics.iterations for result in clean)
        faults_spec = "native.invoke:permanent:limit=1"
        if failing_kernel == "uvm_replay":
            faults_spec = f"native.invoke:permanent:n={sweeps + 2}:limit=1"
        with _faulted_service(faults_spec) as service:
            jobs = _drain_group(service, application, sources, strategies=("uvm",))
            stats = service.stats()
            assert stats.degraded == 1
            assert stats.failed == 0 and stats.isolations == 0
        failures = caplog.text.count("kernel failed:")
        assert failures == 1 and f"native {failing_kernel} kernel failed" in caplog.text
        for job, expected in zip(jobs, clean):
            assert job.status is JobStatus.DONE
            assert job.result.values.tobytes() == expected.values.tobytes()
            assert job.result.metrics == expected.metrics

    def test_a_stepped_down_sweep_replays_uvm_on_numpy(self, monkeypatch):
        # Every native call fails, so each sweep's native attempt dies on its
        # first kernel; the numpy re-run, UVM replay included, makes none.
        with _faulted_service("native.invoke:permanent") as service:
            kernels = []
            invoke = _native._invoke

            def counted(kernel, *args):
                kernels.append(kernel)
                return invoke(kernel, *args)

            monkeypatch.setattr(_native, "_invoke", counted)
            jobs = _drain_group(service, Application.BFS, (1,), strategies=("uvm",))
            jobs += _drain_group(service, Application.BFS, (2, 3, 4), strategies=("uvm",))
            jobs += _drain_group(service, Application.CC, strategies=("uvm",))
            assert kernels == ["bfs_sweep", "bfs_sweep", "cc_sweep"]
            assert all(job.status is JobStatus.DONE for job in jobs)
            stats = service.stats()
            assert stats.degraded == 3 and stats.failed == 0


# --------------------------------------------------------------------------- #
# One attempt ladder: lone jobs, fused words and injected engines retry, and
# time their attempts, the same way
# --------------------------------------------------------------------------- #
#: shape -> (application, sources, strategies) of the backlog that drains as it.
BUILTIN_SHAPES = {
    "lone-bfs": (Application.BFS, (1,), ("merged_aligned",)),
    "lone-sssp": (Application.SSSP, (1,), ("merged_aligned",)),
    "multisource": (Application.BFS, (0, 1, 2), ("merged_aligned",)),
    "packed": (Application.BFS, (0, 1), ("merged_aligned", "uvm")),
    "streaming": (Application.CC, (None,), ("merged_aligned", "uvm")),
}


def _serve_shape(faults_spec, shape, engine=None):
    """Drain one shape's backlog on the test thread.

    Returns the jobs, the stats, the drained spans and the engine seconds the
    cost model now prices the sweep at.
    """
    application, sources, strategies = BUILTIN_SHAPES[shape]
    config = ServiceConfig(
        fault_plan=faults_spec, max_workers=1, trace_enabled=True, trace_sample=1.0
    )
    with Service(config=config, engine=engine) as service:
        # A backoff far above a sweep of the small graph, so "engine time
        # excludes the backoff" holds on a slow or lock-checked runner too.
        service._retry_policy = RetryPolicy(backoff_seconds=0.25)
        service.registry.register_graph(make_graph())
        jobs = enqueue_without_draining(
            service,
            [
                TraversalRequest(
                    graph="resil", application=application, source=s, strategy=strategy
                )
                for strategy in strategies
                for s in sources
            ],
        )
        drain_all(service)
        groups = {}
        for job in jobs:
            groups[job.request.batch_key] = groups.get(job.request.batch_key, 0) + 1
        # After its first observation the model prices this sweep at exactly
        # the seconds it was fed.
        sample = service.cost_model.estimate_sweep(groups.items())
        return jobs, service.stats(), service.drain_traces(), sample


class TestOneLadder:
    """Regression: a lone job ran a second, hand-copied ladder that checked
    the ``worker.task`` fault outside its retry and timed its whole retry
    loop, backoff sleep included, as one engine sweep."""

    @pytest.mark.parametrize(
        "shape, engine",
        [
            ("lone-bfs", None),
            ("lone-sssp", None),
            # The fused word meets the fault on its second source.
            ("multisource", None),
            ("lone-bfs", default_engine),
        ],
        ids=["lone-bfs", "lone-sssp", "multisource", "injected-engine"],
    )
    def test_transient_job_fault_is_retried_in_every_shape(self, shape, engine):
        jobs, stats, _, _ = _serve_shape(
            "worker.task:transient:limit=1:source=1", shape, engine
        )
        assert [job.status for job in jobs] == [JobStatus.DONE] * len(jobs)
        assert (stats.retries, stats.failed) == (1, 0)
        graph = make_graph()
        for job in jobs:
            oracle = (
                bfs_levels
                if job.request.application is Application.BFS
                else sssp_distances
            )
            assert np.array_equal(job.result.values, oracle(graph, job.request.source))

    @pytest.mark.parametrize("shape", list(BUILTIN_SHAPES))
    def test_a_retried_sweep_times_each_attempt_alone(self, shape):
        jobs, stats, spans, sample = _serve_shape("engine.sweep:transient:limit=1", shape)
        assert all(job.status is JobStatus.DONE for job in jobs)
        (retry,) = [s for s in spans if s["name"] == "retry"]
        backoff = retry["attributes"]["backoff_seconds"]
        # Engine time is the two attempts, never the backoff between them.
        assert stats.engine_seconds < backoff
        failed, clean = [s for s in spans if s["name"] == "engine_sweep"]
        assert failed["attributes"]["error"] == "TransientFaultError"
        assert "error" not in clean["attributes"]
        assert retry["attributes"]["sweep_ref"] == failed["span_id"]
        assert {job.sweep_ref for job in jobs} == {clean["span_id"]}
        # The cost model learned from the clean attempt alone.
        assert stats.cost_model.samples == 1
        assert 0 < sample <= stats.engine_seconds < backoff


# --------------------------------------------------------------------------- #
# ServiceClosedError satellites
# --------------------------------------------------------------------------- #
class TestServiceClosed:
    def test_worker_pool_rejects_after_shutdown(self):
        pool = WorkerPool(max_workers=1)
        pool.shutdown()
        with pytest.raises(ServiceClosedError):
            pool.submit(lambda: None)
        with pytest.raises(ServiceClosedError):
            pool.submit(lambda: None)

    def test_service_submit_after_close_raises_typed_error(self):
        service = Service()
        service.registry.register_graph(make_graph())
        service.close()
        with pytest.raises(ServiceClosedError):
            service.submit(
                TraversalRequest(graph="resil", application=Application.BFS, source=0)
            )
        assert service.stats().rejected_after_close >= 1

    def test_pool_refusal_is_counted_once_on_every_surface(self):
        """``rejected_after_close`` has one definition: a refusal by the
        service *or* by its pool.  The stats field used to add the pool's own
        tally while the exported series did not, so they disagreed."""
        service = Service()
        service.registry.register_graph(make_graph())
        service._pool.shutdown()  # the pool refuses while the service is open
        job = service.submit(
            TraversalRequest(graph="resil", application=Application.BFS, source=0)
        )
        assert job.wait(10) and isinstance(job.error, ServiceClosedError)
        service.close()
        with pytest.raises(ServiceClosedError):  # now the service itself refuses
            service.submit(
                TraversalRequest(graph="resil", application=Application.BFS, source=1)
            )
        series = service.collect_metrics().get("repro_rejected_after_close_total")
        assert service.stats().rejected_after_close == series.value() == 2
        assert service.stats().failed == 1

    def test_close_cancel_pending_fails_queued_jobs_with_typed_error(self):
        release = threading.Event()
        entered = threading.Event()

        def gated_engine(request, graph):
            entered.set()
            release.wait(10)
            from repro.traversal.api import run

            return run(
                request.application, graph, source=request.source,
                strategy=request.strategy, system=request.system,
            )

        config = ServiceConfig(max_workers=1)
        service = Service(config=config, engine=gated_engine)
        service.registry.register_graph(make_graph())
        running = service.submit(
            TraversalRequest(graph="resil", application=Application.BFS, source=0)
        )
        assert entered.wait(10)
        queued = [
            service.submit(
                TraversalRequest(
                    graph="resil", application=Application.BFS, source=s
                )
            )
            for s in (1, 2, 3)
        ]
        service.close(wait=False, cancel_pending=True)
        release.set()
        for job in queued:
            assert job.wait(10)
            assert isinstance(job.error, ServiceClosedError)
        assert running.wait(10)
