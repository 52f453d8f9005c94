"""Concurrent graph-traversal serving layer.

The library's one-shot API (:mod:`repro.traversal.api`) answers a single
traversal; this package turns it into a multi-tenant server in the spirit of
the serving stacks built over specialized engines:

* :class:`GraphRegistry` — named graphs, loaded once, byte-budgeted LRU
  residency (:mod:`repro.service.registry`);
* :class:`TraversalRequest` — hashable normalized requests
  (:mod:`repro.service.requests`);
* :class:`RequestQueue` — in-flight deduplication + same-configuration
  batching + bounded admission (:mod:`repro.service.queue`);
* :class:`SchedulingPolicy` — pluggable drain ordering: FIFO, earliest
  deadline first, weighted-fair queueing over tenants
  (:mod:`repro.service.scheduler`);
* :class:`CostModel` — one learned seconds-per-edge-word rate per
  application, pricing WFQ ordering, infeasible-deadline admission and the
  sweep watchdog (:mod:`repro.service.costmodel`);
* :class:`WorkerPool` — bounded thread-pool execution
  (:mod:`repro.service.workers`);
* :class:`ResultCache` — LRU result reuse with hit/miss accounting
  (:mod:`repro.service.cache`);
* :class:`FaultPlan` — deterministic fault injection at named sites, armed
  via ``ServiceConfig(fault_plan=...)`` or ``REPRO_FAULTS``
  (:mod:`repro.service.faults`);
* :class:`RetryPolicy` / :class:`Cancellation` / :class:`CircuitBreaker` —
  backoff retries, cooperative sweep timeouts, and the durable store's
  breaker (:mod:`repro.service.resilience`);
* :class:`Service` — the front door: ``submit() / result() / stats()``
  (:mod:`repro.service.service`);
* :func:`serve_workload_file` — declarative JSON workloads, also behind
  ``python -m repro.cli serve-batch`` (:mod:`repro.service.workload`).
"""

from ..config import SCHEDULING_POLICIES, ServiceConfig, normalize_tenant_weights
from ..errors import (
    AdmissionError,
    DeadlineExceededError,
    FaultInjectedError,
    InfeasibleDeadlineError,
    NativeBackendError,
    PermanentFaultError,
    RetryableError,
    ServiceClosedError,
    SweepTimeoutError,
    TransientFaultError,
)
from ..obs import MetricsRegistry, Span, Tracer, tracing_enabled
from .cache import CacheStats, ResultCache
from .costmodel import CostModel, CostModelStats
from .faults import FaultPlan, FaultSpec
from .jobs import Job, JobStatus
from .queue import RequestQueue
from .registry import GraphRegistry, RegistryStats
from .requests import TraversalRequest
from .resilience import (
    Cancellation,
    CircuitBreaker,
    RetryPolicy,
    cancellation_scope,
    current_cancellation,
)
from .scheduler import (
    EdfPolicy,
    FifoPolicy,
    SchedulingPolicy,
    WeightedFairPolicy,
    make_policy,
)
from .service import Engine, Service, default_engine
from .stats import LatencyStats, ServiceStats, TenantStats
from .store import STORE_STATE_CODES, ServingStore, StoreStats, graph_fingerprint
from .workers import WorkerPool
from .workload import (
    WorkloadReport,
    build_service,
    config_from_spec,
    expand_requests,
    load_workload,
    run_workload,
    serve_workload_file,
)

__all__ = [
    "AdmissionError",
    "CacheStats",
    "Cancellation",
    "CircuitBreaker",
    "CostModel",
    "CostModelStats",
    "DeadlineExceededError",
    "EdfPolicy",
    "FaultInjectedError",
    "FaultPlan",
    "FaultSpec",
    "NativeBackendError",
    "PermanentFaultError",
    "RetryPolicy",
    "RetryableError",
    "ServiceClosedError",
    "SweepTimeoutError",
    "TransientFaultError",
    "Engine",
    "FifoPolicy",
    "GraphRegistry",
    "InfeasibleDeadlineError",
    "Job",
    "JobStatus",
    "LatencyStats",
    "MetricsRegistry",
    "RegistryStats",
    "RequestQueue",
    "ResultCache",
    "SCHEDULING_POLICIES",
    "STORE_STATE_CODES",
    "SchedulingPolicy",
    "Service",
    "ServiceConfig",
    "ServiceStats",
    "ServingStore",
    "StoreStats",
    "graph_fingerprint",
    "Span",
    "TenantStats",
    "TraversalRequest",
    "Tracer",
    "WeightedFairPolicy",
    "WorkerPool",
    "WorkloadReport",
    "make_policy",
    "normalize_tenant_weights",
    "build_service",
    "cancellation_scope",
    "current_cancellation",
    "config_from_spec",
    "default_engine",
    "expand_requests",
    "load_workload",
    "run_workload",
    "serve_workload_file",
    "tracing_enabled",
]
