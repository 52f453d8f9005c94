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
"edf" / "wfq"), ``queue_limit``, ``tenant_quota``,
``tenant_weights`` (a tenant→share object for WFQ) and ``reject_infeasible``
(reject deadlines the cost model deems unmeetable at arrival) configure the
service, and per-request ``deadline``
(seconds) / ``tenant`` mark entries for deadline-aware ordering and
per-tenant accounting.  Submissions shed by admission control are reported,
not fatal.

Resilience knobs ride the same way: top-level ``fault_plan`` (a
``REPRO_FAULTS``-format spec string, see :mod:`repro.service.faults`),
``retry_limit`` and ``sweep_timeout`` / ``sweep_timeout_multiplier``.  A
failed native kernel needs no knob: its sweep re-runs once on the
bit-identical numpy backend.  Durability too: top-level
``store_path`` (SQLite file for the durable serving store, see
:mod:`repro.service.store`), which the CLI's ``--store PATH`` sets; the store
has no tuning knob.

:func:`load_workload` refuses any key it does not know, at the top level and
in each graph and request entry, so a misspelt knob fails loudly instead of
quietly serving with its default.
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
    _check_keys(spec, _TOP_LEVEL_KEYS, "workload")
    for section, accepted in (("graphs", _GRAPH_KEYS), ("requests", _REQUEST_KEYS)):
        entries = spec.get(section)
        if not isinstance(entries, list) or not entries:
            raise ServiceError(f"workload must define a non-empty {section!r} list")
        for index, entry in enumerate(entries):
            where = f"{section}[{index}]"
            if not isinstance(entry, dict):
                raise ServiceError(f"{where} must be a JSON object, got {entry!r}")
            _check_keys(entry, accepted, where)
    return spec


def _check_keys(entry: dict, accepted: frozenset, where: str) -> None:
    unknown = sorted(set(entry) - accepted)
    if unknown:
        raise ServiceError(
            f"{where}: unknown key(s) {', '.join(map(repr, unknown))}; "
            f"accepted: {', '.join(sorted(accepted))}"
        )


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
    "store_path": str,
}

#: Every key :func:`load_workload` accepts, per level of the file.
_TOP_LEVEL_KEYS = frozenset(
    {"workers", "registry_budget_mib", "result_cache_entries", "policy",
     "graphs", "requests", *_FORWARDED_KNOBS}
)
_GRAPH_KEYS = frozenset(
    {"name", "dataset", "scale", "element_bytes", "with_weights",
     "generator", "vertices", "edges", "seed"}
)
_REQUEST_KEYS = frozenset(
    {"app", "application", "graph", "strategy", "repeat", "deadline", "tenant",
     "sources", "random_sources", "seed", "source"}
)


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
        if value is None:
            continue
        if cast is bool and not isinstance(value, bool):
            # bool("false") is True: a flag must arrive as a JSON boolean.
            raise ServiceError(f"{name} must be true or false, got {value!r}")
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
            # Before any request exists: a transient load fault rides the
            # service's retry ladder, counted at site ``registry.load``.
            picked = pick_sources(
                service._resolve_graph(graph, []),
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
