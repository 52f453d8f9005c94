"""Declarative JSON workloads for driving a :class:`~repro.service.Service`.

A workload file names the graphs to register and the requests to fire::

    {
      "workers": 4,
      "registry_budget_mib": 64,
      "graphs": [
        {"name": "GK", "dataset": "GK", "scale": 40000},
        {"name": "rmat", "generator": "rmat", "vertices": 400, "edges": 3000}
      ],
      "requests": [
        {"app": "bfs", "graph": "GK", "sources": [0, 1, 2]},
        {"app": "cc", "graph": "rmat", "repeat": 4},
        {"app": "sssp", "graph": "GK", "random_sources": 2, "seed": 7}
      ]
    }

Graphs come either from the paper's Table 2 dataset analogs (``dataset``) or
from the synthetic generators (``generator``: rmat / uniform / powerlaw /
web).  Request entries expand multiplicatively: ``sources`` fans one entry out
per source, ``random_sources`` draws sources from the graph, and ``repeat``
duplicates the request — the natural way to exercise deduplication and the
result cache from a workload file.

Scheduling and admission knobs ride along: top-level ``policy`` ("fifo" /
"largest" / "edf" / "wfq"), ``queue_limit``, ``tenant_quota``,
``tenant_weights`` (a tenant→share object for WFQ) and ``reject_infeasible``
(reject deadlines the cost model deems unmeetable at arrival) configure the
service, and per-request ``deadline``
(seconds) / ``tenant`` mark entries for deadline-aware ordering and
per-tenant accounting.  Submissions shed by admission control are reported,
not fatal.

Resilience knobs ride the same way: top-level ``fault_plan`` (a
``REPRO_FAULTS``-format spec string, see :mod:`repro.service.faults`),
``retry_limit``, ``sweep_timeout`` / ``sweep_timeout_multiplier``, and
``breaker_threshold`` / ``breaker_cooldown``.  Durability too: top-level
``store_path`` (SQLite file for the durable serving store, see
:mod:`repro.service.store`), which the CLI's ``--store PATH`` sets; the store
has no tuning knob.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

from ..config import ServiceConfig
from ..errors import (
    AdmissionError,
    InfeasibleDeadlineError,
    RetryableError,
    ServiceError,
)
from ..graph.datasets import get_spec, pick_sources
from ..graph.generators import (
    powerlaw_graph,
    rmat_graph,
    uniform_random_graph,
    web_graph,
)
from ..obs.metrics import MetricsRegistry
from ..types import EMOGI_STRATEGY
from .jobs import JobStatus
from .requests import TraversalRequest
from .service import Service
from .stats import LatencyStats, ServiceStats

_GENERATORS = {
    "rmat": rmat_graph,
    "uniform": uniform_random_graph,
    "powerlaw": powerlaw_graph,
    "web": web_graph,
}


@dataclass(frozen=True)
class WorkloadReport:
    """Outcome of one workload run, ready for a throughput/latency report."""

    total_requests: int
    unique_results: int
    wall_seconds: float
    latencies: tuple[float, ...]
    failures: int
    stats: ServiceStats
    #: The service's metrics registry with gauges refreshed at run end.
    metrics: MetricsRegistry
    #: Submissions refused by admission control (queue limit / tenant quota /
    #: infeasible deadline).
    rejected: int = 0
    #: The subset of ``rejected`` refused for an unmeetable deadline.
    rejected_infeasible: int = 0
    #: Spans drained from the service at the end of the run (JSON-ready
    #: dicts, oldest first; empty when tracing is disabled or sampled out).
    traces: tuple = ()

    @property
    def requests_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.total_requests / self.wall_seconds

    @property
    def latency_stats(self) -> LatencyStats:
        """Percentile summary of the per-request latencies (one formula,
        shared with :class:`~repro.service.stats.ServiceStats`)."""
        return LatencyStats.from_samples(self.latencies)

    def to_table(self) -> str:
        latency = self.latency_stats
        lines = [
            "Serving workload report",
            "=" * 55,
            f"requests served     : {self.total_requests} "
            f"({self.unique_results} unique results, {self.failures} failed, "
            f"{self.rejected} rejected at admission, "
            f"{self.rejected_infeasible} of those infeasible deadlines)",
            f"wall time           : {self.wall_seconds:.3f} s",
            f"throughput          : {self.requests_per_second:.1f} requests/s",
            f"latency mean/p50/p95: {latency.mean_seconds * 1e3:.2f} / "
            f"{latency.p50_seconds * 1e3:.2f} / "
            f"{latency.p95_seconds * 1e3:.2f} ms",
            "-" * 55,
            self.stats.describe(),
        ]
        return "\n".join(lines)


def load_workload(path: str | Path) -> dict:
    """Read and structurally validate a workload JSON file."""
    spec = json.loads(Path(path).read_text())
    if not isinstance(spec, dict):
        raise ServiceError("workload file must contain a JSON object")
    for section in ("graphs", "requests"):
        if not isinstance(spec.get(section), list) or not spec[section]:
            raise ServiceError(f"workload must define a non-empty {section!r} list")
    return spec


#: Knobs a workload file (or a CLI override of the same name) hands straight
#: to the :class:`ServiceConfig` field of that name: key -> cast.  They are
#: forwarded only when given, so ServiceConfig's own defaults stay the single
#: source of truth.
_FORWARDED_KNOBS = {
    "queue_limit": int,
    "tenant_quota": int,
    "tenant_weights": lambda weights: weights,  # ServiceConfig normalizes them
    "reject_infeasible": bool,
    "trace_sample": float,
    "fault_plan": str,
    "retry_limit": int,
    "sweep_timeout": float,
    "sweep_timeout_multiplier": float,
    "breaker_threshold": int,
    "breaker_cooldown": float,
    "planner": bool,
    "store_path": str,
}


def config_from_spec(spec: dict, **overrides) -> ServiceConfig:
    """Service knobs from a workload spec, with optional (CLI) overrides.

    An override — ``workers``, ``budget_mib``, ``cache_entries``, ``policy``
    or any :data:`_FORWARDED_KNOBS` key — beats the file; ``None`` means "not
    given", as does a JSON null in the file.
    """

    def given(name: str, key: str | None = None):
        value = overrides.pop(name, None)
        return value if value is not None else spec.get(key or name)

    workers = given("workers")
    budget_mib = given("budget_mib", "registry_budget_mib")
    cache_entries = given("cache_entries", "result_cache_entries")
    knobs = {
        "max_workers": int(4 if workers is None else workers),
        "registry_budget_bytes": (
            None if budget_mib is None else int(budget_mib * 1024**2)
        ),
        "result_cache_entries": int(1024 if cache_entries is None else cache_entries),
        "policy": str(given("policy") or "fifo"),
    }
    for name, cast in _FORWARDED_KNOBS.items():
        value = given(name)
        if value is not None:
            knobs[name] = cast(value)
    if overrides:
        raise TypeError(f"unknown workload override(s): {', '.join(sorted(overrides))}")
    return ServiceConfig(**knobs)


def build_service(spec: dict, config: ServiceConfig | None = None, **overrides) -> Service:
    """Construct a service with every graph in the workload registered.

    ``overrides`` are forwarded to :func:`config_from_spec` when no explicit
    config is given.
    """
    if config is None:
        config = config_from_spec(spec, **overrides)
    service = Service(config=config)
    for entry in spec["graphs"]:
        _register_graph(service, entry)
    return service


def _register_graph(service: Service, entry: dict) -> None:
    name = entry.get("name")
    if "dataset" in entry:
        get_spec(entry["dataset"])  # fail fast on unknown symbols
        kwargs = {
            key: entry[key]
            for key in ("scale", "element_bytes", "with_weights")
            if key in entry
        }
        service.registry.register_dataset(entry["dataset"], name=name, **kwargs)
        return
    if "generator" in entry:
        kind = entry["generator"]
        try:
            generator = _GENERATORS[kind]
        except KeyError:
            raise ServiceError(
                f"unknown generator {kind!r}; available: {', '.join(sorted(_GENERATORS))}"
            ) from None
        if name is None:
            raise ServiceError("generator graphs need an explicit 'name'")
        vertices = int(entry.get("vertices", 400))
        edges = int(entry.get("edges", 4000))
        seed = int(entry.get("seed", 7))
        service.registry.register(
            name, lambda: generator(vertices, edges, seed=seed, name=name)
        )
        return
    raise ServiceError(f"graph entry needs 'dataset' or 'generator': {entry!r}")


def _get_graph_for_sampling(service: Service, graph: str):
    """Resolve a graph for source sampling, riding out transient loads.

    Source sampling runs at workload-setup time, before any request enters
    the drain loop's retry machinery — so a transient registry fault (a
    chaos drill, a storage hiccup) gets the same bounded retry treatment
    here instead of aborting the whole run.
    """
    attempt = 0
    while True:
        try:
            return service.registry.get(graph)
        except RetryableError:
            attempt += 1
            if attempt > _SAMPLING_RETRY_LIMIT:
                raise
            time.sleep(_SAMPLING_RETRY_BACKOFF * attempt)


#: Bounded retries for setup-time graph resolution (see above).
_SAMPLING_RETRY_LIMIT = 3
_SAMPLING_RETRY_BACKOFF = 0.02


def expand_requests(service: Service, spec: dict) -> list[TraversalRequest]:
    """Expand the workload's request entries into concrete requests."""
    requests: list[TraversalRequest] = []
    for entry in spec["requests"]:
        application = entry.get("app") or entry.get("application")
        graph = entry.get("graph")
        if application is None or graph is None:
            raise ServiceError(f"request entry needs 'app' and 'graph': {entry!r}")
        strategy = entry.get("strategy", EMOGI_STRATEGY)
        repeat = int(entry.get("repeat", 1))
        if str(application).lower() in ("cc", "pagerank"):
            # Streaming applications are source-free; collapsing here keeps
            # every such request identical for dedup regardless of the entry.
            sources: list[int | None] = [None]
        elif "sources" in entry:
            sources = [int(s) for s in entry["sources"]]
        elif "random_sources" in entry:
            picked = pick_sources(
                _get_graph_for_sampling(service, graph),
                int(entry["random_sources"]),
                seed=int(entry.get("seed", 42)),
            )
            sources = [int(s) for s in picked]
        else:
            sources = [int(entry.get("source", 0))]
        deadline = entry.get("deadline")
        tenant = entry.get("tenant")
        for source in sources:
            requests.extend(
                TraversalRequest(
                    application=application,
                    graph=graph,
                    source=source,
                    strategy=strategy,
                    deadline=deadline,
                    tenant=tenant,
                )
                for _ in range(repeat)
            )
    return requests


def run_workload(
    service: Service, requests: list[TraversalRequest], timeout: float | None = None
) -> WorkloadReport:
    """Fire every request at the service and wait for all of them.

    Submissions refused by admission control (queue limit / tenant quota)
    are counted in the report's ``rejected`` field rather than aborting the
    run — an open-loop driver keeps firing when the server sheds load.
    """
    started = time.perf_counter()
    jobs = []
    rejected = 0
    rejected_infeasible = 0
    for request in requests:
        try:
            jobs.append(service.submit(request))
        except AdmissionError as exc:
            rejected += 1
            if isinstance(exc, InfeasibleDeadlineError):
                rejected_infeasible += 1
    if not service.wait_all(timeout):
        raise ServiceError(f"workload did not finish within {timeout}s")
    wall = time.perf_counter() - started
    latencies = tuple(
        job.total_seconds for job in jobs if job.total_seconds is not None
    )
    failures = sum(1 for job in jobs if job.status is JobStatus.FAILED)
    unique = len(
        {job.request.cache_key for job in jobs if job.status is JobStatus.DONE}
    )
    return WorkloadReport(
        total_requests=len(jobs),
        unique_results=unique,
        wall_seconds=wall,
        latencies=latencies,
        failures=failures,
        stats=service.stats(),
        rejected=rejected,
        rejected_infeasible=rejected_infeasible,
        traces=tuple(service.drain_traces()),
        metrics=service.collect_metrics(),
    )


def serve_workload_file(
    path: str | Path,
    config: ServiceConfig | None = None,
    timeout: float | None = None,
    **overrides,
) -> WorkloadReport:
    """One-call driver: load, build, run, report (used by ``repro serve-batch``)."""
    spec = load_workload(path)
    with build_service(spec, config=config, **overrides) as service:
        requests = expand_requests(service, spec)
        try:
            return run_workload(service, requests, timeout=timeout)
        except ServiceError:
            # On timeout, drop queued-but-unstarted work so the error reaches
            # the caller promptly instead of after the whole backlog drains.
            service.close(wait=False, cancel_pending=True)
            raise
