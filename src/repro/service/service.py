"""The serving front door: accept requests, schedule work, hand out results.

``Service`` ties the pieces together: requests are normalized and resolved
against the service's default platform, answered from the result cache when
possible, coalesced onto identical in-flight jobs otherwise, and finally
enqueued in batch groups that the worker pool drains against registry-resident
graphs.  Clients interact with three calls::

    service = Service.with_datasets(["GK", "GU"], scale=40000)
    job = service.submit(TraversalRequest(Application.BFS, "GK", source=0))
    result = service.result(job)          # blocks until done
    print(service.stats().describe())
"""

from __future__ import annotations

import itertools
import logging
import random
import time
from collections import deque
from typing import Callable, Iterable

from ..analysis.lockorder import tracked_lock
from ..config import ServiceConfig, SystemConfig, default_system
from ..errors import (
    AdmissionError,
    DeadlineExceededError,
    InfeasibleDeadlineError,
    JobFailedError,
    JobNotFoundError,
    NativeBackendError,
    RetryableError,
    ServiceClosedError,
    ServiceError,
    SimulationError,
    SweepTimeoutError,
)
from ..graph.csr import CSRGraph
from ..obs.metrics import CATALOG, MetricsRegistry
from ..obs.trace import JobRecord, Span, Tracer
from ..traversal import _native
from ..traversal.api import run
from ..traversal.arena import EngineArena
from ..traversal.multisource import PackedLane, run_batch, run_packed_batch
from ..traversal.results import TraversalResult
from ..traversal.streaming import run_streaming_batch
from ..types import Application
from . import faults
from .cache import ResultCache
from .costmodel import CostModel
from .faults import FaultPlan
from .jobs import Job, JobStatus
from .planner import FusionPlan, FusionPlanner
from .queue import RequestQueue
from .registry import GraphRegistry
from .requests import TraversalRequest
from .resilience import (
    BREAKER_STATE_CODES,
    Cancellation,
    CircuitBreaker,
    RetryPolicy,
    cancellation_scope,
)
from .scheduler import make_policy
from .stats import ServiceStats
from .store import STORE_STATE_CODES, ServingStore
from .workers import WorkerPool

#: Signature of the execution backend: given a normalized request and the
#: resolved graph, produce a result.  Pluggable so tests can count executions
#: or inject failures without touching the real engine.
Engine = Callable[[TraversalRequest, CSRGraph], TraversalResult]

#: Service-layer logger.  Silent unless the embedding application configures
#: logging; carries one line per drained batch including the relax backend,
#: so a silent fallback from the native kernel is visible in production logs.
logger = logging.getLogger("repro.service")


def default_engine(request: TraversalRequest, graph: CSRGraph) -> TraversalResult:
    """Run the real simulated traversal for ``request``."""
    return run(
        request.application,
        graph,
        source=request.source,
        strategy=request.strategy,
        system=request.system,
    )


class Service:
    """A multi-tenant traversal server over a :class:`GraphRegistry`."""

    def __init__(
        self,
        registry: GraphRegistry | None = None,
        config: ServiceConfig | None = None,
        system: SystemConfig | None = None,
        engine: Engine | None = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.registry = registry or GraphRegistry(
            budget_bytes=self.config.registry_budget_bytes
        )
        self.system = system or default_system()
        #: The one ledger: every count the service keeps is written here, once,
        #: and :meth:`stats` reads it back.  Built before anything that reports
        #: into it (queue, breaker, fault plan, store).
        self._metrics = MetricsRegistry(CATALOG, window=self.config.latency_window)
        #: ``None`` selects the built-in batched execution path (shared
        #: engines from the arena, multi-source batches per drained group);
        #: injecting a callable forces per-job execution through it, which is
        #: what the test doubles rely on.
        self._engine = engine
        self._arena = EngineArena(max_idle=max(8, 2 * self.config.max_workers))
        self._cache = ResultCache(self.config.result_cache_entries)
        #: Online cost estimator (one rate per application), fed by every
        #: successful engine invocation below and consumed by the WFQ policy,
        #: infeasible-deadline admission and the sweep watchdog.  Edge counts
        #: are peeked from the registry (resident graphs only — estimating
        #: must never force a load or an eviction).
        self._costmodel = CostModel(edge_lookup=self._resident_edges)
        self._queue = RequestQueue(
            policy=make_policy(
                self.config.policy,
                tenant_weights=self.config.tenant_weights,
                cost_model=self._costmodel,
            ),
            cost_model=self._costmodel,
            on_policy_fallback=self._metrics["repro_queue_policy_fallback_total"].inc,
        )
        #: Backlog-wide fusion planner: every built-in drain asks it which
        #: compatible pending groups ride with the policy-selected anchor
        #: group (see :mod:`repro.service.planner`).
        self._planner = FusionPlanner()
        #: Bounded log of recent plan decisions for benchmarks / debugging.
        self._plan_log: deque[dict] = deque(maxlen=256)
        self._pool = WorkerPool(self.config.max_workers)
        self._jobs: dict[str, Job] = {}
        #: Completion order of jobs still in ``_jobs`` (ids, oldest first):
        #: retention pruning pops from the head instead of rescanning the
        #: whole table, so a deep unfinished backlog costs nothing to skip.
        self._finished_order: deque[str] = deque()
        self._lock = tracked_lock("service.Service._lock")
        #: Serializes the closed-flag check with enqueue + dispatch, so a
        #: racing close() can never observe a submission half-way through
        #: (see submit/close).  Kept separate from ``self._lock`` because the
        #: submission path re-acquires ``self._lock`` internally.
        self._admission_lock = tracked_lock("service.Service._admission_lock")
        self._job_ids = itertools.count(1)
        #: Span sink for request traces (see :mod:`repro.obs.trace`): bounded
        #: ring buffer, systematic sampling, ``REPRO_TRACE`` kill switch.
        self._tracer = Tracer(
            capacity=self.config.trace_buffer,
            sample=self.config.trace_sample,
            enabled=self.config.trace_enabled,
        )
        self._sweep_ids = itertools.count(1)
        self._plan_ids = itertools.count(1)
        # Resilience substrate: fault plan (explicit, spec string, or the
        # REPRO_FAULTS environment fallback), retry policy, and the native
        # circuit breaker.  The plan is activated globally so the hook sites
        # outside the service (registry, cache, engines, native backend) see
        # it; close() deactivates it again.
        plan = self.config.fault_plan
        if isinstance(plan, str):
            plan = FaultPlan.from_spec(plan)
        elif plan is None:
            plan = FaultPlan.from_env()
        self._faults = plan
        if plan is not None:
            plan.add_listener(self._note_fault)
            faults.activate(plan)
        self._retry_policy = RetryPolicy(limit=self.config.retry_limit)
        #: Jitter RNG for retry backoff; seeded so chaos runs replay exactly.
        self._retry_rng = random.Random(0x5EED)
        self._breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_threshold,
            cooldown_seconds=self.config.breaker_cooldown,
            on_transition=self._note_breaker_transition,
        )
        # Durable serving store (optional).  Opened after the fault plan is
        # activated so chaos drills can poison the open itself; store trouble
        # degrades serving to in-memory-only behavior and never raises into
        # construction or requests.  On a warm restart the cost model is
        # seeded from persisted history here, and the registry listeners
        # catalog loads/evictions and backfill still-valid cached results.
        self._store: ServingStore | None = None
        if self.config.store_path is not None:
            self._store = ServingStore(
                self.config.store_path, on_event=self._note_store_event
            )
            seeded = self._costmodel.seed(self._store.load_cost_rates())
            if seeded:
                logger.info(
                    "cost model warm-started from stored rates (%d applications)",
                    seeded,
                )
            self.registry.add_load_listener(self._on_graph_load)
            self.registry.add_evict_listener(self._on_graph_evict)
        self._started_at = time.perf_counter()
        self._closed = False

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def with_datasets(
        cls,
        symbols: Iterable[str],
        config: ServiceConfig | None = None,
        system: SystemConfig | None = None,
        **load_kwargs,
    ) -> "Service":
        """Build a service pre-registered with Table 2 dataset analogs."""
        service = cls(config=config, system=system)
        for symbol in symbols:
            service.registry.register_dataset(symbol, **load_kwargs)
        return service

    def _resident_edges(self, name: str) -> int | None:
        """Edge count of a *resident* graph, for the cost model; never loads."""
        graph = self.registry.peek(name)
        return None if graph is None else graph.num_edges

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #
    def _note_store_event(self, kind: str, labels: dict) -> None:
        """Store event hook: map store activity onto the metric series."""
        m = self._metrics
        if kind == "op":
            m["repro_store_operations_total"].inc(
                op=labels.get("op", "unknown"),
                outcome=labels.get("outcome", "unknown"),
            )
        elif kind == "hit":
            m["repro_store_hits_total"].inc()
        elif kind == "drop":
            m["repro_store_dropped_writes_total"].inc()
        elif kind == "breaker":
            state = labels.get("state", "unknown")
            m["repro_store_breaker_transitions_total"].inc(state=state)
            logger.warning("durable store circuit breaker -> %s", state)

    def _on_graph_load(self, name: str, graph: CSRGraph) -> None:
        """Registry listener: catalog the load, backfill still-valid results.

        Runs on the loading thread right after a load completes (outside
        every registry lock) — the one place a graph's content fingerprint
        is in hand, so stale persistent-cache rows are purged here and the
        still-valid ones re-installed into the in-memory cache for
        memory-speed warm-restart repeats.
        """
        store = self._store
        if store is None:
            return
        for key, result in store.record_load(name, graph):
            self._cache_put_safe(key, result)

    def _on_graph_evict(self, name: str) -> None:
        store = self._store
        if store is not None:
            store.record_eviction(name)

    def _note_fault(self, site: str) -> None:
        """Fault-plan listener: export every injected fault as a counter bump."""
        self._metrics["repro_faults_injected_total"].inc(site=site)

    def _note_breaker_transition(self, state: str) -> None:
        self._metrics["repro_native_breaker_transitions_total"].inc(state=state)
        logger.warning("native backend circuit breaker -> %s", state)

    @property
    def metrics(self) -> MetricsRegistry:
        """The live metrics registry (always-on counters and summaries)."""
        return self._metrics

    @property
    def store(self) -> ServingStore | None:
        """The durable serving store, or ``None`` when durability is off."""
        return self._store

    def collect_metrics(self) -> MetricsRegistry:
        """Refresh the point-in-time gauges from :meth:`stats` and return the registry."""
        snapshot = self.stats()
        m = self._metrics
        m["repro_pending_jobs"].set(snapshot.pending)
        m["repro_active_workers"].set(snapshot.active_workers)
        m["repro_uptime_seconds"].set(snapshot.uptime_seconds)
        m["repro_cache_entries"].set(snapshot.cache.entries)
        m["repro_cache_hit_rate"].set(snapshot.cache.hit_rate)
        m["repro_costmodel_mean_abs_error_seconds"].set(
            snapshot.cost_model.mean_abs_error_seconds
        )
        m["repro_trace_buffered_spans"].set(len(self._tracer))
        m["repro_native_breaker_state"].set(BREAKER_STATE_CODES[snapshot.breaker_state])
        m["repro_store_state"].set(STORE_STATE_CODES.get(snapshot.store_state, 3))
        m["repro_store_pending_writes"].set(snapshot.store_pending)
        return m

    def drain_traces(self) -> list[dict]:
        """Return and clear the buffered spans as JSON-ready dicts (oldest first)."""
        return [span.to_json() for span in self._tracer.drain()]

    @staticmethod
    def _sweep_groups(groups: list[list[Job]]) -> list[tuple[tuple, int]]:
        """One sweep's groups as the cost model prices them: ``(batch_key, jobs)``."""
        return [(group[0].request.batch_key, len(group)) for group in groups]

    def _observe_cost(
        self, groups: list[list[Job]], seconds: float, predicted: float
    ) -> None:
        """Feed the cost model one engine invocation, scored against ``predicted``."""
        error = self._costmodel.observe(self._sweep_groups(groups), seconds, predicted)
        if error is not None:
            self._metrics["repro_costmodel_abs_error_seconds"].observe(error)
            self._metrics["repro_costmodel_observations_total"].inc()

    @staticmethod
    def _sweep_counters(metrics_list) -> tuple[int, int, int, int, str | None]:
        """One sweep's kernel counters summed over its lanes: iterations,
        frontier vertices, edges, relax candidates, and the relax backend."""
        iterations = vertices = edges = candidates = 0
        backend = None
        for metrics in metrics_list:
            counters = getattr(metrics, "counters", None)
            if counters is None:
                continue
            iterations += counters.iterations
            vertices += counters.frontier_vertices
            edges += counters.edges_traversed
            candidates += counters.relax_candidates
            backend = counters.relax_backend or backend
        return iterations, vertices, edges, candidates, backend

    def _record_kernel_counters(self, app: str, metrics_list) -> str | None:
        """Sum one sweep's lane counters into the registry and count the
        sweep once under its relax backend; returns the backend."""
        m = self._metrics
        iterations, vertices, edges, candidates, backend = self._sweep_counters(metrics_list)
        if iterations:
            m["repro_kernel_iterations_total"].inc(iterations, app=app)
        if vertices:
            m["repro_kernel_frontier_vertices_total"].inc(vertices, app=app)
        if edges:
            m["repro_kernel_edges_total"].inc(edges, app=app)
        if candidates:
            m["repro_kernel_relax_candidates_total"].inc(candidates, app=app)
        if backend:
            m["repro_kernel_backend_total"].inc(app=app, backend=backend)
        return backend

    def _emit_sweep_span(
        self,
        jobs: list[Job],
        started: float,
        elapsed: float,
        lanes: int,
        kind: str,
        schedule_seconds: float = 0.0,
        fusion_seconds: float = 0.0,
        metrics_list=(),
        error: BaseException | None = None,
    ) -> str | None:
        """Emit one shared ``engine_sweep`` span and link every rider to it.

        All jobs executed by one engine invocation (a multi-source word, a
        fused streaming pass, or a solo run) share a single sweep span;
        each job's own ``sweep`` lifecycle span will carry this span's id as
        ``sweep_ref`` plus its sibling/lane context, which is how "my request
        rode a 64-lane word with 31 siblings" stays answerable per trace.
        """
        sweep_id = None
        if self._tracer.enabled and any(job.trace_id is not None for job in jobs):
            sweep_id = f"sweep-{next(self._sweep_ids)}"
            request = jobs[0].request
            attrs = {
                "kind": kind,
                "graph": request.graph,
                "application": request.application.value,
                "jobs": len(jobs),
                "lanes": lanes,
                "schedule_seconds": schedule_seconds,
                "fusion_seconds": fusion_seconds,
            }
            iterations, _, edges, candidates, backend = self._sweep_counters(metrics_list)
            if iterations:
                attrs["kernel_iterations"] = iterations
                attrs["kernel_edges"] = edges
            if candidates:
                attrs["relax_candidates"] = candidates
            if backend:
                attrs["relax_backend"] = backend
            if error is not None:
                attrs["error"] = type(error).__name__
            self._tracer.emit(
                Span(
                    trace_id=sweep_id,
                    span_id=sweep_id,
                    name="engine_sweep",
                    start_unix=jobs[0].wall_clock(started),
                    duration_seconds=elapsed,
                    attributes=attrs,
                )
            )
        for job in jobs:
            job.sweep_ref = sweep_id
            job.sweep_siblings = len(jobs) - 1
            job.sweep_lanes = lanes
        return sweep_id

    # ------------------------------------------------------------------ #
    # Resilience helpers
    # ------------------------------------------------------------------ #
    def _cache_get_safe(self, key: tuple) -> TraversalResult | None:
        """Result-cache read that degrades to a miss instead of failing.

        The cache is an accelerator, never a correctness dependency: a
        request must not fail because its *shortcut* is broken.
        """
        try:
            result = self._cache.get(key)
        except Exception:  # noqa: BLE001 - cache faults degrade to a miss
            self._metrics["repro_cache_errors_total"].inc(op="get")
            logger.warning("result cache get failed; treating as miss", exc_info=True)
            return None
        if result is not None or self._store is None:
            return result
        # Memory missed: fall through to the persistent cache (fingerprint
        # validation happens inside the store's query; any store trouble is
        # absorbed into a miss).  A persistent hit is re-installed into the
        # in-memory cache so repeats stay at memory speed.
        result = self._store.lookup(key)
        if result is not None:
            self._cache_put_safe(key, result)
        return result

    def _cache_put_safe(self, key: tuple, result: TraversalResult) -> None:
        """Result-cache fill that drops the entry instead of failing the job.

        In-memory only: a computed result reaches the durable store through
        its sweep's one write (:meth:`_persist_sweep`).
        """
        try:
            self._cache.put(key, result)
        except Exception:  # noqa: BLE001 - cache faults drop the entry
            self._metrics["repro_cache_errors_total"].inc(op="put")
            logger.warning("result cache put failed; result not cached", exc_info=True)

    def _check_job_fault(self, job: Job) -> None:
        """Arm the per-job ``worker.task`` injection site with match context."""
        faults.check(
            "worker.task",
            job=job.job_id,
            graph=job.request.graph,
            app=job.request.application.value,
            source=job.request.source,
            tenant=job.request.tenant,
        )

    @staticmethod
    def _group_deadline(jobs: list[Job]) -> float | None:
        """Earliest instant past which some member is useless to every waiter."""
        deadlines = [job.expire_at for job in jobs if job.expire_at is not None]
        return min(deadlines) if deadlines else None

    def _maybe_retry(
        self,
        site: str,
        jobs: list[Job],
        attempt: int,
        exc: BaseException,
        sweep_ref: str | None = None,
    ) -> bool:
        """Decide — and perform — one backoff sleep; True means re-run.

        Only :class:`~repro.errors.RetryableError` qualifies, the attempt
        budget is ``config.retry_limit`` per drained group, and the backoff
        is clipped to the group's nearest expiry: a retry that cannot even
        *start* before every waiter's budget lapses is not attempted.
        """
        if not isinstance(exc, RetryableError) or attempt >= self._retry_policy.limit:
            return False
        delay = self._retry_policy.delay(attempt, self._retry_rng)
        deadline = self._group_deadline(jobs)
        if deadline is not None and time.perf_counter() + delay >= deadline:
            return False
        self._metrics["repro_retries_total"].inc(site=site)
        self._emit_retry_span(site, jobs, attempt, delay, exc, sweep_ref)
        logger.warning(
            "retrying %s for %d job(s) after %s (attempt %d, backoff %.3fs)",
            site, len(jobs), type(exc).__name__, attempt + 1, delay,
        )
        time.sleep(delay)
        return True

    def _emit_retry_span(
        self,
        site: str,
        jobs: list[Job],
        attempt: int,
        delay: float,
        exc: BaseException,
        sweep_ref: str | None,
    ) -> None:
        """Record one ``retry`` span (the backoff wait) on a traced waiter."""
        if not self._tracer.enabled:
            return
        traced = next((job for job in jobs if job.trace_id is not None), None)
        if traced is None:
            return
        attrs = {
            "site": site,
            "attempt": attempt + 1,
            "jobs": len(jobs),
            "error": type(exc).__name__,
            "backoff_seconds": delay,
        }
        if sweep_ref is not None:
            attrs["sweep_ref"] = sweep_ref
        self._tracer.emit(
            Span(
                trace_id=traced.trace_id,
                span_id=self._tracer.next_span_id(),
                name="retry",
                start_unix=traced.wall_clock(time.perf_counter()),
                duration_seconds=delay,
                attributes=attrs,
            )
        )

    def _sweep_token(
        self, application: Application, predicted: float, label: str
    ) -> Cancellation | None:
        """Watchdog token for one engine invocation, or None for no budget.

        An absolute ``config.sweep_timeout`` wins; otherwise the budget is
        ``sweep_timeout_multiplier`` x ``predicted``, the cost model's one
        estimate of this invocation — so the watchdog tightens as the model
        learns.  It waits for a learned rate: the prior is an
        order-of-magnitude guess, easily tight enough to cancel a perfectly
        healthy first-contact sweep.
        """
        budget = self.config.sweep_timeout
        if budget is None:
            multiplier = self.config.sweep_timeout_multiplier
            if (
                multiplier is None
                or predicted <= 0
                or self._costmodel.rate(application.value) is None
            ):
                return None
            budget = multiplier * predicted
        return Cancellation(budget, label=label)

    def _relax_method(self) -> str | None:
        """Native-kernel backend for one sweep, as the breaker allows.

        ``None`` (engine default) when the native kernels never compiled —
        the breaker only arbitrates a backend that nominally works.  While
        closed (or probing half-open) the native kernels are used; while
        open, the bit-identical numpy paths ("scatter" relaxation, the numpy
        BFS, CC and PageRank sweeps) serve degraded traffic, and the run
        counts as degraded.
        """
        if not _native.available():
            return None
        if self._breaker.allow():
            return "native"
        self._metrics["repro_native_degraded_total"].inc()
        return "scatter"

    def _stepped_down(
        self, exc: BaseException, relax_method: str | None, label: str
    ) -> bool:
        """The breaker ladder for one failed sweep attempt.

        True when ``exc`` is a native-kernel failure of a native attempt: the
        failure is recorded (opening the breaker at its threshold), the sweep
        counts as degraded, and the caller re-runs it on the bit-identical
        numpy backend — the clients see the same values, just a slower run.
        """
        if not (isinstance(exc, NativeBackendError) and relax_method == "native"):
            return False
        self._breaker.record_failure()
        self._metrics["repro_native_degraded_total"].inc()
        logger.warning(
            "native kernel failed (%s); re-running %s on the numpy backend", exc, label
        )
        return True

    def _classify_failure(self, exc: BaseException) -> None:
        """Bump failure-class counters for one terminal group/job failure."""
        if isinstance(exc, SweepTimeoutError):
            self._metrics["repro_sweep_timeouts_total"].inc()

    @staticmethod
    def _outcome(error: BaseException | None) -> str:
        """Terminal outcome label: completed, expired (in the queue) or failed."""
        if error is None:
            return "completed"
        return "expired" if isinstance(error, DeadlineExceededError) else "failed"

    def _fail_group(self, jobs: list[Job], exc: BaseException, now: float) -> None:
        """Terminally fail every member of a fused group with ``exc``."""
        for job in jobs:
            job.compute_finished_at = now
        self._classify_failure(exc)
        self._metrics["repro_executions_total"].inc(len(jobs))
        for job in jobs:
            job.mark_failed(exc)
            self._queue.release(job)
        self._settle(*jobs)

    def _isolate_group(
        self, jobs: list[Job], graph: CSRGraph, exc: BaseException, schedule_seconds: float
    ) -> None:
        """Fused-group fault isolation: re-execute members one by one, each
        as a sweep of its own.

        A poisoned lane then fails alone — with the *member's* error, not the
        group's — while its siblings complete with results bit-identical to
        what the fused pass would have produced.
        """
        self._metrics["repro_fused_isolations_total"].inc()
        logger.warning(
            "fused %d-job group on %s failed (%s: %s); re-executing members solo",
            len(jobs), graph.name, type(exc).__name__, exc,
        )
        for job in jobs:
            self._execute_sweep([[job]], graph, schedule_seconds)

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def submit(self, request: TraversalRequest) -> Job:
        """Accept a request and return the job that will (or did) answer it.

        The returned job may be shared with earlier clients (deduplication)
        or already complete (result-cache hit); callers should treat it as
        read-only and collect the answer through :meth:`result`.

        Raises :class:`~repro.errors.AdmissionError` when the pending queue
        is at ``config.queue_limit`` or the request's tenant is at
        ``config.tenant_quota``, and (with ``config.reject_infeasible``) its
        :class:`~repro.errors.InfeasibleDeadlineError` subclass when the cost
        model predicts a deadline-carrying request cannot finish within its
        budget.  Submissions that join an in-flight job or hit the result
        cache consume no queue capacity and are always admitted.
        """
        if request.graph not in self.registry:
            # Fail fast at the front door: a typo'd graph name should not
            # consume a worker slot before being rejected.
            self.registry.get(request.graph)  # raises UnknownGraphError
        if request.system is None:
            request = request.with_system(self.system)

        # The closed check, the dedup/cache/enqueue step and the worker
        # wakeup all happen under one admission lock, making submission
        # atomic with respect to close(): once close() has set the flag, no
        # job can slip into the queue or the pool behind it.
        with self._admission_lock:
            if self._closed:
                self._metrics["repro_rejected_after_close_total"].inc()
                raise ServiceClosedError("service is closed")
            job = Job(job_id=f"job-{next(self._job_ids)}", request=request)
            job.trace_id = self._tracer.begin()
            # The dedup-index lookup, cache lookup, admission checks and
            # enqueue are one atomic step (see RequestQueue.push_or_join),
            # so while the cache retains the entry an identical request is
            # answered by exactly one execution no matter how submissions
            # interleave.
            try:
                outcome, payload = self._queue.push_or_join(
                    job,
                    cache_lookup=self._cache_get_safe,
                    queue_limit=self.config.queue_limit,
                    tenant_quota=self.config.tenant_quota,
                    reject_infeasible=self.config.reject_infeasible,
                    workers=self.config.max_workers,
                )
            except AdmissionError as exc:
                self._metrics["repro_requests_rejected_total"].inc(
                    reason="infeasible"
                    if isinstance(exc, InfeasibleDeadlineError)
                    else "admission"
                )
                raise
            self._metrics["repro_requests_submitted_total"].inc()
            if outcome == "joined":
                self._metrics["repro_requests_deduplicated_total"].inc()
                return payload
            if outcome == "cached":
                # Stage boundaries for the trace: admission ends now, the
                # sweep is zero-width (no engine ran), and the remainder is
                # completion bookkeeping.
                job.enqueued_at = time.perf_counter()
                job.mark_done(payload, from_cache=True)
                job.compute_finished_at = job.started_at
                self._metrics["repro_requests_cache_served_total"].inc()
                with self._lock:
                    self._jobs[job.job_id] = job
                self._settle(job)  # also enforces retention
                return job
            job.enqueued_at = time.perf_counter()
            with self._lock:
                self._jobs[job.job_id] = job
                if job.done:
                    # A worker raced ahead and finished the job before this
                    # insert: its _note_finished_locked saw the id missing
                    # from _jobs and skipped the entry, so make it here or
                    # the job would be unprunable forever.
                    self._mark_prunable_locked(job)
                self._prune_finished_jobs()
            try:
                self._pool.submit(self._drain_one_batch)
            except ServiceError as exc:
                # Defensive only: with the admission lock held, close()
                # cannot race this dispatch, so the pool refusing means it
                # failed for its own reasons.  It is a refusal after close
                # all the same, and counted as one.  Withdraw the job so
                # nobody blocks forever on a wakeup that will never come; if
                # a worker already grabbed it, that worker owns its completion.
                self._metrics["repro_rejected_after_close_total"].inc()
                if self._queue.discard(job):
                    job.mark_failed(exc)
                    self._settle(job)
            return job

    def submit_many(self, requests: Iterable[TraversalRequest]) -> list[Job]:
        return [self.submit(request) for request in requests]

    def _prune_finished_jobs(self) -> None:
        """Drop the oldest finished jobs beyond the retention bound.

        Caller holds ``self._lock``.  Keeps the server's memory bounded on
        long-running deployments: pruned jobs are no longer reachable via
        :meth:`job`/:meth:`result`-by-id, but Job objects already handed to
        clients keep working, and reusable results live on in the result
        cache.  The retention bound applies to *finished* jobs only, exactly
        as :attr:`ServiceConfig.job_retention` promises: unfinished jobs are
        never pruned, never scanned (the finished-order deque makes a deep
        unfinished backlog cost O(1) here), and never crowd freshly finished
        jobs out of the table.
        """
        excess = len(self._finished_order) - self.config.job_retention
        while excess > 0 and self._finished_order:
            self._jobs.pop(self._finished_order.popleft(), None)
            excess -= 1

    def _mark_prunable_locked(self, job: Job) -> None:
        """Enter a finished, table-resident job into the pruning order once.

        Caller holds ``self._lock``; ``retention_noted`` keeps the deque and
        the finished-job count exact even when the completion racing with the
        submit-side insert makes both sides try the entry.
        """
        if not job.retention_noted:
            job.retention_noted = True
            self._finished_order.append(job.job_id)

    def _settle(self, *jobs: Job) -> None:
        """Account for jobs that just reached a terminal state, then wake them.

        Every path that moves a job to a terminal state funnels through here,
        after ``mark_done`` / ``mark_failed`` and after the dedup entry is
        released (so no duplicate can still join and mutate the waiter list
        mid-accounting).  Accounting first, completion signal second: a
        client that wakes from :meth:`result` finds the job in every stat,
        series and trace — and is woken even if the accounting raises.
        """
        with self._lock:
            try:
                self._note_finished_locked(*jobs)
            finally:
                for job in jobs:
                    job.wake()

    def _persist_sweep(
        self, graph: CSRGraph, published: list[tuple[Job, TraversalResult]]
    ) -> None:
        """Queue one engine invocation's store write, before its jobs settle.

        One op carries the sweep's results and its application's current
        rate (so a restarted service prices admission from it, not the
        prior); the store's flush thread commits it.  Queued before the
        wake, so a woken client's ``store.flush()`` covers it.
        """
        store = self._store
        if store is not None:
            store.record_sweep(
                graph,
                [(job.request.cache_key, result) for job, result in published],
                self._costmodel.rate,
            )

    def _note_finished_locked(self, *jobs: Job) -> None:
        """Record outcomes, latency samples and deadline results of ``jobs``.

        Caller holds ``self._lock``.  The percentile window and the deadline
        hit counters see cache hits, failures and expiries alike.  Deadlines
        are judged per *waiter*: a deduplicated job carrying both a tight and
        a patient budget can count one miss and one met.
        """
        m = self._metrics
        for job in jobs:
            outcome = self._outcome(job.error)
            m["repro_requests_total"].inc(outcome=outcome)
            wait = job.wait_seconds
            if wait is not None:
                m["repro_queue_wait_seconds"].observe(wait)
            total = job.total_seconds
            if total is not None:
                m["repro_request_latency_seconds"].observe(total)
            if job.job_id in self._jobs:
                self._mark_prunable_locked(job)
            # Per-tenant breakdown, attributed to the job's owning tenant
            # (the first submitter; joined duplicates ride along; anonymous
            # traffic is labelled ""): completed jobs, and deadline-carrying
            # jobs that blew their tightest budget (late, failed or expired).
            # Tenants are expected to be a small, stable set of service
            # classes — do not encode per-user or per-request IDs into
            # :attr:`TraversalRequest.tenant`, which would grow this series
            # (and the WFQ policy's virtual clocks) with label cardinality.
            tenant = job.request.tenant or ""
            if job.status is JobStatus.DONE:
                m["repro_tenant_jobs_total"].inc(tenant=tenant, result="completed")
            if job.met_deadline is False:
                m["repro_tenant_jobs_total"].inc(tenant=tenant, result="missed")
            finished_at = job.finished_at
            for deadline_at in job.deadline_waiters:
                met = (
                    job.status is JobStatus.DONE
                    and finished_at is not None
                    and finished_at <= deadline_at
                )
                m["repro_deadlines_total"].inc(result="met" if met else "missed")
            # Terminal state is the one point every lifecycle funnels
            # through, so sampled jobs are recorded here; their tiling spans
            # are built when the trace is drained.
            if job.trace_id is not None:
                request = job.request
                self._tracer.emit(
                    JobRecord(
                        job.trace_id, job.job_id, request.application.value,
                        request.graph, request.source, request.tenant, outcome,
                        job.from_cache, job.submitted_wall, job.submitted_at,
                        job.enqueued_at, job.started_at, job.compute_finished_at,
                        finished_at, job.sweep_ref, job.sweep_siblings,
                        job.sweep_lanes, self.config.policy,
                    )
                )
        # Enforce the retention bound at completion time, not merely at the
        # next submit, so an idle server does not hold extra finished jobs.
        self._prune_finished_jobs()

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #
    def job(self, job_id: str) -> Job:
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise JobNotFoundError(f"no such job: {job_id!r}") from None

    def result(self, job: Job | str, timeout: float | None = None) -> TraversalResult:
        """Block until a job finishes and return (or raise) its outcome."""
        if isinstance(job, str):
            job = self.job(job)
        if not job.wait(timeout):
            raise ServiceError(
                f"timed out after {timeout}s waiting for {job.job_id} "
                f"({job.request.describe()})"
            )
        if job.status is JobStatus.FAILED:
            raise JobFailedError(
                f"{job.job_id} failed: {job.request.describe()}", job_id=job.job_id
            ) from job.error
        assert job.result is not None
        return job.result

    def wait_all(self, timeout: float | None = None) -> bool:
        """Wait for every job submitted so far; False if the deadline passed."""
        deadline = None if timeout is None else time.perf_counter() + timeout
        with self._lock:
            jobs = list(self._jobs.values())
        for job in jobs:
            remaining = None if deadline is None else deadline - time.perf_counter()
            if remaining is not None and remaining <= 0:
                return False
            if not job.wait(remaining):
                return False
        return True

    # ------------------------------------------------------------------ #
    # Execution (runs on worker threads)
    # ------------------------------------------------------------------ #
    def _drain_one_batch(self) -> None:
        """One worker wakeup: pick work, drain it, never strand a job.

        The pick is always a whole :class:`~repro.service.planner.FusionPlan`
        — the policy-selected anchor group plus whatever compatible backlog
        the planner decided should ride along (nothing, with an injected
        engine or ``config.planner`` off; see :meth:`_build_plan`).

        The catch-alls exist because the future this runs in is never
        awaited — an exception escaping a drain would strand every popped
        job (each waiter blocking until its timeout) while the worker moved
        on.  Jobs the inner path already finished keep their outcome; the
        rest fail with the escaped error.
        """
        pick_started = time.perf_counter()
        try:
            popped = self._queue.pop_plan(self._build_plan)
        except Exception:  # noqa: BLE001 - keep the drain loop alive
            logger.exception("scheduler failed to pick a batch group")
            return
        # Schedule-pick cost: policy selection plus plan enumeration,
        # attributed to the drained batch's sweep span.
        schedule_seconds = time.perf_counter() - pick_started
        if popped is None:
            # Another worker already drained the group this wakeup was for.
            return
        plan, claimed = popped
        if plan.fused:
            plan.restrict(claimed)
        try:
            self._execute_plan(plan, schedule_seconds)
        except Exception as exc:  # noqa: BLE001 - never strand popped jobs
            logger.exception("plan execution failed outside job-level isolation")
            self._fail_stranded(plan.jobs, exc)

    def _fail_stranded(self, jobs: list[Job], exc: BaseException) -> None:
        """Fail every popped job that no engine got to finish, with ``exc``."""
        stranded = [job for job in jobs if not job.done]
        for job in stranded:
            # A job that reached its terminal state but was not settled yet
            # keeps its outcome; it only still needs accounting and a wakeup.
            if job.finished_at is None:
                job.mark_failed(exc)
            self._queue.release(job)
        if stranded:
            self._settle(*stranded)

    def _build_plan(self, anchor: list[Job], snapshot) -> tuple[FusionPlan, list]:
        """Queue callback: plan one drain.

        With ``config.planner`` off the anchor group drains alone as the
        baseline plan; an injected engine additionally runs it job by job,
        which the plan records as kind ``solo``.
        """
        started = time.perf_counter()
        if self._engine is not None or not self.config.planner:
            plan, rider_keys = FusionPlan.baseline(anchor), []
            if self._engine is not None:
                plan.kind = "solo"
        else:
            plan, rider_keys = self._planner.build(anchor, snapshot())
        plan.planning_seconds = time.perf_counter() - started
        return plan, rider_keys

    def _execute_plan(self, plan: FusionPlan, schedule_seconds: float) -> None:
        """Execute one chosen fusion plan with full bookkeeping.

        Expiry filtering, batch accounting, the registry retry ladder and
        the plan-level observability (span + decision log) all live here;
        :meth:`_execute_sweep` only runs engines.
        """
        groups = []
        for group in plan.groups:
            live = self._fail_expired(group)
            if live:
                groups.append(live)  # repro: noqa[REPRO101] — O(groups) per drain
        if not groups:
            # Fully expired plans never reach an engine sweep, so they do
            # not count as batches — amortization stays executions-per-sweep.
            return
        plan.groups = groups
        # Ridden-along groups still count as drained batches so amortization
        # stays executions-per-sweep.
        self._metrics["repro_batches_total"].inc(len(groups))
        all_jobs = plan.jobs
        attempt = 0
        while True:
            try:
                graph = self.registry.get(plan.graph)
            except Exception as exc:  # noqa: BLE001 - retry, then every waiter
                if self._maybe_retry("registry", all_jobs, attempt, exc):
                    attempt += 1
                    continue
                self._fail_stranded(all_jobs, exc)
                return
            break
        started = time.perf_counter()
        swept, predicted = self._execute_sweep(
            groups, graph, schedule_seconds, plan.planning_seconds
        )
        if swept is not groups:
            # Source validation dropped jobs: record the shape that ran (the
            # chosen groups if no source was usable), relabelled if riderless.
            plan.narrow(swept or groups)
        elapsed = time.perf_counter() - started
        self._record_plan(plan, started, elapsed, schedule_seconds, predicted)

    def _record_plan(
        self,
        plan: FusionPlan,
        started: float,
        elapsed: float,
        schedule_seconds: float,
        predicted: float,
    ) -> None:
        """Count one executed plan, log its decision and emit its ``plan`` span.

        One record feeds all three: the shape that ran, what the cost model
        predicted for its engine work and what the plan took.  A
        plan that never reached an engine (every job expired, or the graph
        load failed for good) is neither counted, logged nor traced.  Like
        ``engine_sweep`` spans, plan spans carry their own trace id — one
        plan serves many request traces, and the per-request lifecycle
        tiling (admission+queue+sweep+cache == latency) must stay exact.
        """
        self._metrics["repro_planner_plans_chosen_total"].inc(kind=plan.kind)
        if plan.fused:
            self._metrics["repro_planner_packed_lanes_total"].inc(plan.lanes)
        decision = {
            "kind": plan.kind,
            "shape": plan.shape,
            "graph": plan.graph,
            "application": plan.application.value,
            "groups": len(plan.groups),
            "lanes": plan.lanes,
            "jobs": len(plan.jobs),
            "predicted_seconds": predicted,
            "actual_seconds": elapsed,
        }
        with self._lock:
            self._plan_log.append(decision)
        if not self._tracer.enabled:
            return
        traced = next((job for job in plan.jobs if job.trace_id is not None), None)
        if traced is None:
            return
        plan_id = f"plan-{next(self._plan_ids)}"
        self._tracer.emit(
            Span(
                trace_id=plan_id,
                span_id=plan_id,
                name="plan",
                start_unix=traced.wall_clock(started),
                duration_seconds=elapsed,
                attributes=dict(
                    decision,
                    schedule_seconds=schedule_seconds,
                    planning_seconds=plan.planning_seconds,
                ),
            )
        )

    def plan_decisions(self) -> list[dict]:
        """Recent fusion-plan decisions, oldest first (bounded ring buffer)."""
        with self._lock:
            return list(self._plan_log)

    def _fail_expired(self, batch: list[Job]) -> list[Job]:
        """Fail the jobs whose deadline lapsed in the queue; return the rest.

        Expiry is checked once per drained group, *before* execution: a
        request that can no longer be useful never occupies an engine, which
        is the whole point of deadline-aware scheduling under overload.
        """
        now = time.perf_counter()
        live: list[Job] = []
        expired: list[Job] = []
        for job in batch:
            # queue.expire decides AND retires the dedup entry atomically, so
            # a deadline-free duplicate racing this check either rescued the
            # job (expire_at cleared -> live) or re-executes on its own.
            (expired if self._queue.expire(job, now) else live).append(job)
        if not expired:
            return batch
        for job in expired:
            job.mark_failed(
                DeadlineExceededError(
                    f"{job.job_id} expired in queue: deadline was "
                    f"{job.request.deadline:g}s, waited "
                    f"{now - job.submitted_at:.3f}s ({job.request.describe()})"
                )
            )
        self._settle(*expired)
        return live

    def _execute_sweep(
        self,
        groups: list[list[Job]],
        graph: CSRGraph,
        schedule_seconds: float = 0.0,
        fusion_seconds: float = 0.0,
    ) -> tuple[list[list[Job]], float]:
        """Run the batch groups of one plan as ONE engine invocation.

        This is the only place the service invokes an engine.  Every shape
        runs the same ladder; they differ only in the engine call, the span
        label and how many lanes a group occupies:

        * ``solo`` — one job of a service with an injected ``engine=``,
          which answers one request per call;
        * ``multisource`` — one BFS/SSSP group: each job is a lane of one
          :func:`~repro.traversal.multisource.run_batch` over an arena-shared
          engine, the frontier sweeps paid once per group instead of per job
          (a lone job and each member of an isolation re-run are a group of
          one: a one-lane word);
        * ``packed`` — several BFS/SSSP groups of different platform
          configurations: each job is a lane of one
          :func:`~repro.traversal.multisource.run_packed_batch` word, lanes
          of one group sharing that group's engine;
        * ``streaming`` — CC/PageRank groups: the algorithm pass is
          engine-independent, so each *group* is one (strategy, system) lane
          of one :func:`~repro.traversal.streaming.run_streaming_batch` and
          every job of the group receives that lane's result (a lone job is a
          one-lane pass).

        Every BFS/SSSP sweep on the built-in engines first fails each job
        whose source is missing or out of range, alone, with
        :class:`~repro.errors.SimulationError`: a bad source never reaches
        an engine, so it cannot take the word it rode down with it.

        Each attempt arms the per-job ``worker.task`` fault site, takes its
        own watchdog token and makes the call.  A failed attempt records its
        own engine seconds and error span; then a native-kernel failure of a
        native run steps down to numpy, a transient one backs off and
        retries, and anything else isolates the sweep into one-job re-runs
        (more than one job) or fails it.  A success is published once: counters,
        span, cost observation, cache, store, mark done, release, settle.

        Every lane's values and metrics are its solo run's in every shape,
        so a poisoned rider lane cannot take the anchor down with it.
        Returns the groups left after source validation (``groups`` itself
        when none was dropped) and the engine seconds predicted for
        sweeping them.
        """
        jobs = [job for group in groups for job in group]
        application = jobs[0].request.application
        streaming = application.is_streaming
        if len(jobs) > 1 and self._engine is not None:
            # An injected engine answers one request per call: each job is a
            # solo sweep of its own.
            predicted = sum(
                self._execute_sweep([[job]], graph, schedule_seconds)[1] for job in jobs
            )
            return groups, predicted
        if not streaming and self._engine is None:
            # A missing source is just as poisonous to the word as an
            # out-of-range one.
            invalid = [job for job in jobs if not self._has_source(job.request, graph)]
            for job in invalid:
                self._fail_group(
                    [job],
                    SimulationError(
                        f"source vertex {job.request.source} out of range for "
                        f"graph with {graph.num_vertices} vertices"
                    ),
                    time.perf_counter(),
                )
            if invalid:
                groups = [[job for job in group if job not in invalid] for group in groups]
                groups = [group for group in groups if group]
                jobs = [job for group in groups for job in group]
                if not jobs:
                    return groups, 0.0
        requests = [job.request for job in jobs]
        if self._engine is not None:
            kind, lanes = "solo", requests
        elif streaming:
            kind = "streaming"
            lanes = [
                (group[0].request.strategy, group[0].request.system) for group in groups
            ]
        elif len(groups) == 1:
            kind = "multisource"
            lanes = [request.source for request in requests]
        else:
            kind = "packed"
            lanes = [
                PackedLane(request.source, request.strategy, request.system)
                for request in requests
            ]
        total_lanes = len(lanes)
        # One prediction per sweep, the sum over its groups: it budgets the
        # watchdog, scores the observation and is logged beside the actual.
        predicted = self._costmodel.estimate_sweep(self._sweep_groups(groups))
        for job in jobs:
            job.mark_running()
        # Every built-in run sweeps a native kernel (the BFS word, the SSSP
        # relaxation, the CC min-label sweep or the PageRank step), so it
        # consults the native-backend breaker and reports to it; an injected
        # engine never does.
        relax_method = self._relax_method() if self._engine is None else None
        attempt = 0
        while True:
            started = time.perf_counter()
            try:
                for job in jobs:
                    self._check_job_fault(job)
                token = self._sweep_token(application, predicted, f"{kind} sweep")
                with cancellation_scope(token):
                    if kind == "solo":
                        outcome = self._engine(requests[0], graph)
                    elif kind == "streaming":
                        outcome = run_streaming_batch(
                            application, graph, lanes,
                            arena=self._arena, relax_method=relax_method,
                        )
                    elif kind == "multisource":
                        outcome = run_batch(
                            application, graph, lanes,
                            strategy=requests[0].strategy, system=requests[0].system,
                            arena=self._arena, relax_method=relax_method,
                        )
                    else:
                        outcome = run_packed_batch(
                            application, graph, lanes,
                            arena=self._arena, relax_method=relax_method,
                        )
            except Exception as exc:  # noqa: BLE001 - resilience ladder below
                elapsed = time.perf_counter() - started
                self._metrics["repro_engine_seconds_total"].inc(elapsed)
                sweep_ref = self._emit_sweep_span(
                    jobs, started, elapsed, lanes=total_lanes, kind=kind,
                    schedule_seconds=schedule_seconds,
                    fusion_seconds=fusion_seconds, error=exc,
                )
                if self._stepped_down(exc, relax_method, f"{kind} sweep"):
                    relax_method = "scatter"
                    continue
                if self._maybe_retry("sweep", jobs, attempt, exc, sweep_ref):
                    attempt += 1
                    continue
                if relax_method == "native":
                    # The sweep gives up without a verdict on the native
                    # kernels: a half-open probe it held goes to the next run.
                    self._breaker.release_probe()
                if len(jobs) > 1:
                    self._isolate_group(jobs, graph, exc, schedule_seconds)
                else:
                    self._fail_group(jobs, exc, started + elapsed)
                return groups, predicted
            break
        if relax_method == "native":
            self._breaker.record_success()
        elapsed = time.perf_counter() - started
        now = started + elapsed
        for job in jobs:
            job.compute_finished_at = now
        if kind == "solo":
            published = [(jobs[0], outcome)]
            sweep_metrics = [getattr(outcome, "metrics", None)]
        else:
            # Every lane carries its own solo run's metrics.
            sweep_metrics = [result.metrics for result in outcome.results]
            published = []
            lane = 0
            for group in groups:
                width = 1 if streaming else len(group)
                lane_results = outcome.results[lane : lane + width]
                lane += width
                # A lane's result goes to its job, or to every job of its group.
                published += zip(
                    group, lane_results * len(group) if streaming else lane_results
                )
        # One shared sweep span for the whole sweep: every rider's
        # per-request sweep span will point at it via sweep_ref.
        self._emit_sweep_span(
            jobs, started, elapsed, lanes=total_lanes, kind=kind,
            schedule_seconds=schedule_seconds, fusion_seconds=fusion_seconds,
            metrics_list=sweep_metrics,
        )
        backend = self._record_kernel_counters(application.value, sweep_metrics)
        logger.info(
            "drained %d %s job(s) from %d group(s) as one %s sweep of %d lane(s) "
            "on %s in %.3fs (relax backend: %s)",
            len(jobs), application.value, len(groups), kind, total_lanes,
            graph.name, elapsed, backend or "n/a",
        )
        self._metrics["repro_executions_total"].inc(len(jobs))
        self._metrics["repro_engine_seconds_total"].inc(elapsed)
        self._observe_cost(groups, elapsed, predicted)
        for job, result in published:
            self._cache_put_safe(job.request.cache_key, result)
            job.mark_done(result)
            self._queue.release(job)
        self._persist_sweep(graph, published)
        self._settle(*jobs)
        return groups, predicted

    @staticmethod
    def _has_source(request: TraversalRequest, graph: CSRGraph) -> bool:
        source = request.source
        return source is not None and 0 <= source < graph.num_vertices

    # ------------------------------------------------------------------ #
    # Introspection / lifecycle
    # ------------------------------------------------------------------ #
    @property
    def cost_model(self) -> CostModel:
        """The service's online cost estimator (read-mostly; thread-safe)."""
        return self._costmodel

    def stats(self) -> ServiceStats:
        """Read the ledger, plus the snapshots the components own."""
        # Outside self._lock: the store has its own locks and runs a COUNT
        # query, neither of which belongs under the service-wide lock.
        store = self._store.stats() if self._store is not None else None
        # Under it: the series a finishing job writes together (latency,
        # deadlines, tenants) are read together.
        with self._lock:
            return ServiceStats.from_ledger(
                self._metrics,
                store,
                pending=self._queue.pending_count(),
                active_workers=self._pool.active,
                uptime_seconds=time.perf_counter() - self._started_at,
                cache=self._cache.stats(),
                registry=self.registry.stats(),
                policy=self.config.policy,
                cost_model=self._costmodel.stats(),
                breaker_state=self._breaker.snapshot()["state"],
                faults_injected=(
                    self._faults.total_fired() if self._faults is not None else 0
                ),
            )

    def close(self, wait: bool = True, cancel_pending: bool = False) -> None:
        """Stop accepting work and shut the worker pool down.

        With ``cancel_pending`` the queued-but-unstarted batches are dropped
        and their jobs failed (so no waiter blocks forever) instead of being
        executed; batches already running always complete.
        """
        # Taking the admission lock makes the flag flip atomic with respect
        # to submit(): every submission either completed (enqueued AND
        # dispatched to the pool) before this point — and is then drained or
        # cancelled below — or observes the flag and is rejected.  No job can
        # any longer land in the queue after pool shutdown with only the
        # ServiceError side channel to save its waiters.
        with self._admission_lock:
            self._closed = True
        self._pool.shutdown(wait=wait, cancel_pending=cancel_pending)
        # Graceful drain-and-flush checkpoint: every write the drained pool
        # produced is flushed to the store and the WAL folded back into the
        # main file — before the fault plan deactivates, so chaos drills can
        # poison the checkpoint itself.
        if self._store is not None:
            self._store.close()
        # Deactivate the fault plan only after the pool drained, so in-flight
        # batches keep seeing injected faults; idempotent if another service
        # (or a test) already swapped the active plan.
        if self._faults is not None:
            faults.deactivate(self._faults)
        if not cancel_pending:
            return
        while True:
            batch = self._queue.pop_batch()
            if not batch:
                return
            # Terminal, typed failure: waiters blocked in result() observe
            # ServiceClosedError instead of hanging until their timeout.
            self._fail_stranded(
                batch, ServiceClosedError("service closed before the job was executed")
            )

    def __enter__(self) -> "Service":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
