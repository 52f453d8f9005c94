"""Scheduling-policy benchmark: deadlines under a skewed open-loop burst.

This is the perf harness behind ``repro.cli bench-scheduler`` and
``benchmarks/test_perf_scheduler.py``.  It builds a deliberately skewed
serving workload — a deep backlog of bulk batch groups with no deadlines,
then a late trickle of small urgent requests with tight deadlines — fires it
open-loop at one :class:`~repro.service.Service` per scheduling policy, and
reports per-policy deadline hit rates, latency percentiles and batching
amortization as JSON (``BENCH_scheduler.json``).

The urgent deadline is *calibrated* on the machine running the benchmark:
long enough for EDF to preempt the backlog (one in-flight group plus the
urgent group itself), far too short for FIFO to drain the bulk work first.
A second mini-benchmark fills a bounded queue to show admission control
shedding load instead of growing the backlog without bound.

The **resilience section** records the cost of the fault-injection substrate
when it is armed but idle: a plan whose trigger can never fire, timed against
no plan at all on one bulk batch group, interleaved min-of-N.  The serving
contract is that chaos drills run against production-shaped configs without
distorting what they measure, so the armed arm must stay within 5%.

The **multi-tenant scenario** contrasts FIFO with cost-model-driven
weighted-fair queueing: an aggressive tenant floods the queue with bulk batch
groups, then a polite tenant submits a handful of small groups.  Under FIFO
the polite tenant waits out the entire burst (its p95 collapses to the full
drain time); under ``wfq`` each group is charged its estimated cost against
its tenant's share, so the polite tenant's groups jump the burst and its p95
holds.  The same scenario fires one infeasible-deadline probe: with
``reject_infeasible`` the cost model refuses it at submit
(``rejected_infeasible``), where FIFO-without-admission lets it expire in the
queue.

The **restart scenario** measures what the durable store buys across a
process boundary: a cold service on a fresh store serves a request burst
(every request executes), then a second service opens the *same* store and
replays the burst.  First-request latency and cache hit rate for both runs
land in the report, so the warm-restart win is a recorded number rather
than a claim.
"""

from __future__ import annotations

import json
import platform
import tempfile
import time
from pathlib import Path

import numpy as np

from ..config import SCHEDULING_POLICIES, ServiceConfig
from ..errors import AdmissionError, InfeasibleDeadlineError
from ..graph.csr import CSRGraph
from ..graph.generators import random_weights, rmat_graph
from ..service import faults
from ..service.faults import FaultPlan
from ..service.registry import GraphRegistry
from ..service.resilience import Cancellation, cancellation_scope
from ..service.requests import TraversalRequest
from ..service.service import Service
from ..service.stats import LatencyStats
from ..traversal.multisource import run_batch
from ..types import AccessStrategy, Application

DEFAULT_VERTICES = 4000
DEFAULT_EDGES = 60000
#: Sources per bulk batch group; alternating widths so largest-batch-first
#: has something to choose between.
DEFAULT_GROUP_SOURCES = (8, 4)
#: Urgent requests arriving behind the backlog, each with a tight deadline.
DEFAULT_URGENT = 6
#: (application, strategy) combos spanning the bulk groups; with two graphs
#: this yields 2 x len(combos) distinct batch groups.
_BULK_COMBOS = (
    (Application.BFS, AccessStrategy.MERGED_ALIGNED),
    (Application.BFS, AccessStrategy.UVM),
    (Application.SSSP, AccessStrategy.MERGED_ALIGNED),
    (Application.SSSP, AccessStrategy.UVM),
)


def build_bench_graphs(
    num_vertices: int = DEFAULT_VERTICES, num_edges: int = DEFAULT_EDGES, seed: int = 7
) -> tuple[CSRGraph, CSRGraph, CSRGraph]:
    """Two bulk graphs plus a small graph for the urgent traffic."""
    graphs = []
    for index, name in enumerate(("sched-bulk-a", "sched-bulk-b")):
        graph = rmat_graph(num_vertices, num_edges, seed=seed + index, name=name)
        graphs.append(graph.with_weights(random_weights(graph.num_edges, seed=seed + index)))
    urgent = rmat_graph(
        max(200, num_vertices // 4), max(2000, num_edges // 4),
        seed=seed + 9, name="sched-urgent",
    )
    graphs.append(urgent.with_weights(random_weights(urgent.num_edges, seed=seed + 9)))
    return tuple(graphs)


def _calibrate(graphs, group_sources: int) -> dict:
    """Time one bulk BFS group, one bulk SSSP group and the urgent group.

    These direct ``run_batch`` timings anchor the urgent deadline to the
    machine actually running the benchmark, so the FIFO-misses/EDF-meets
    contrast is not at the mercy of CI hardware speed.
    """
    bulk, _, urgent = graphs
    timings = {}
    for label, application, graph in (
        ("bulk_bfs_group_seconds", Application.BFS, bulk),
        ("bulk_sssp_group_seconds", Application.SSSP, bulk),
        ("urgent_group_seconds", Application.BFS, urgent),
    ):
        sources = list(range(group_sources))
        started = time.perf_counter()
        run_batch(application, graph, sources, strategy=AccessStrategy.MERGED_ALIGNED)
        timings[label] = time.perf_counter() - started
    return timings


def build_workload(
    graphs,
    group_sources=DEFAULT_GROUP_SOURCES,
    num_urgent: int = DEFAULT_URGENT,
    urgent_deadline: float = 1.0,
) -> tuple[list[TraversalRequest], list[TraversalRequest]]:
    """The skewed burst: bulk groups without deadlines, urgent ones with."""
    bulk_graphs, urgent_graph = graphs[:2], graphs[2]
    bulk: list[TraversalRequest] = []
    for graph_index, graph in enumerate(bulk_graphs):
        for combo_index, (application, strategy) in enumerate(_BULK_COMBOS):
            width = group_sources[(graph_index + combo_index) % len(group_sources)]
            bulk.extend(
                TraversalRequest(
                    application, graph.name, source=source,
                    strategy=strategy, tenant="bulk",
                )
                for source in range(width)
            )
    urgent = [
        TraversalRequest(
            Application.BFS, urgent_graph.name, source=source,
            deadline=urgent_deadline, tenant="urgent",
        )
        for source in range(num_urgent)
    ]
    return bulk, urgent


def _run_policy(policy: str, graphs, bulk, urgent, timeout: float) -> dict:
    registry = GraphRegistry()
    for graph in graphs:
        registry.register_graph(graph)
    service = Service(
        registry=registry, config=ServiceConfig(max_workers=1, policy=policy)
    )
    started = time.perf_counter()
    for request in bulk:
        service.submit(request)
    urgent_jobs = [service.submit(request) for request in urgent]
    finished = service.wait_all(timeout=timeout)
    wall = time.perf_counter() - started
    service.close()
    stats = service.stats()
    urgent_met = sum(1 for job in urgent_jobs if job.met_deadline)
    urgent_latencies = sorted(
        job.total_seconds for job in urgent_jobs if job.total_seconds is not None
    )
    return {
        "policy": policy,
        "finished_in_time": finished,
        "wall_seconds": wall,
        "completed": stats.completed,
        "failed": stats.failed,
        "expired": stats.expired,
        "deadlines_met": stats.deadlines_met,
        "deadlines_missed": stats.deadlines_missed,
        "urgent_met": urgent_met,
        "urgent_missed": len(urgent_jobs) - urgent_met,
        "urgent_worst_latency_ms": 1e3 * urgent_latencies[-1] if urgent_latencies else None,
        "amortization": stats.amortization,
        "latency_p50_ms": 1e3 * stats.latency.p50_seconds,
        "latency_p95_ms": 1e3 * stats.latency.p95_seconds,
        "queue_wait_p95_ms": 1e3 * stats.queue_wait.p95_seconds,
    }


#: Sources per aggressive bulk group in the multi-tenant scenario.
DEFAULT_AGGRESSIVE_SOURCES = 8
#: Sources per polite group (the polite tenant asks for little).
DEFAULT_POLITE_SOURCES = 2
#: Fair-queueing shares of the multi-tenant scenario: the polite tenant is
#: favored 4:1, the usual interactive-over-batch split.
DEFAULT_TENANT_WEIGHTS = {"polite": 4.0, "aggressive": 1.0}




def _run_multi_tenant_policy(
    policy: str, graphs, aggressive, polite, probe, timeout: float
) -> dict:
    """One policy run of the two-tenant contrast plus the infeasible probe.

    The probe rides along differently per policy: the ``wfq`` run enables
    cost-model admission (``reject_infeasible``) so the hopeless deadline is
    refused at submit, while the ``fifo`` run admits it and lets it expire in
    the queue — the exact failure mode admission control removes.
    """
    registry = GraphRegistry()
    for graph in graphs:
        registry.register_graph(graph)
    service = Service(
        registry=registry,
        config=ServiceConfig(
            max_workers=1,
            policy=policy,
            tenant_weights=DEFAULT_TENANT_WEIGHTS,
            reject_infeasible=(policy == "wfq"),
        ),
    )
    started = time.perf_counter()
    jobs_by_tenant: dict[str, list] = {"aggressive": [], "polite": []}
    for request in aggressive:
        jobs_by_tenant["aggressive"].append(service.submit(request))
    for request in polite:
        jobs_by_tenant["polite"].append(service.submit(request))
    probe_rejected = False
    probe_job = None
    try:
        probe_job = service.submit(probe)
    except InfeasibleDeadlineError:
        probe_rejected = True
    finished = service.wait_all(timeout=timeout)
    wall = time.perf_counter() - started
    service.close()
    stats = service.stats()
    tenants = {}
    for tenant, jobs in jobs_by_tenant.items():
        # One percentile definition for the whole repo: the ceil-based
        # nearest rank of LatencyStats, not a hand-rolled copy of it.
        latency = LatencyStats.from_samples(
            job.total_seconds for job in jobs if job.total_seconds is not None
        )
        tenants[tenant] = {
            "jobs": len(jobs),
            "p50_ms": 1e3 * latency.p50_seconds if latency.count else None,
            "p95_ms": 1e3 * latency.p95_seconds if latency.count else None,
            "worst_ms": 1e3 * latency.max_seconds if latency.count else None,
        }
    return {
        "policy": policy,
        "finished_in_time": finished,
        "wall_seconds": wall,
        "completed": stats.completed,
        "throughput_rps": stats.completed / wall if wall > 0 else 0.0,
        "tenants": tenants,
        "probe_rejected_at_submit": probe_rejected,
        "probe_expired_in_queue": probe_job is not None
        and stats.expired > 0,
        "rejected_infeasible": stats.rejected_infeasible,
        "expired": stats.expired,
        # Key kept for BENCH_scheduler.json readers: it counts learned rates.
        "cost_model_families": stats.cost_model.applications,
        "cost_model_mean_abs_error_ms": 1e3 * stats.cost_model.mean_abs_error_seconds,
    }


def bench_multi_tenant(
    graphs,
    aggressive_sources: int = DEFAULT_AGGRESSIVE_SOURCES,
    polite_sources: int = DEFAULT_POLITE_SOURCES,
    timeout: float = 300.0,
) -> dict:
    """Aggressive-vs-polite tenant contrast under fifo and wfq.

    The aggressive tenant floods every bulk combo on both bulk graphs before
    the polite tenant's small groups arrive, so arrival order is maximally
    unfair; the report shows whether the policy repairs it.
    """
    bulk_graphs, small = graphs[:2], graphs[2]
    # Warm the engine code paths once so the first timed run (fifo) does not
    # pay one-off numpy/JIT-cache costs the second run skips — the
    # throughput comparison must measure scheduling, not warmup order.
    for graph in graphs:
        run_batch(
            Application.BFS, graph, [0], strategy=AccessStrategy.MERGED_ALIGNED
        )
    aggressive = [
        TraversalRequest(
            application, graph.name, source=source,
            strategy=strategy, tenant="aggressive",
        )
        for graph in bulk_graphs
        for application, strategy in _BULK_COMBOS
        for source in range(aggressive_sources)
    ]
    polite = [
        TraversalRequest(
            application, small.name, source=source,
            strategy=strategy, tenant="polite",
        )
        for application, strategy in _BULK_COMBOS
        for source in range(polite_sources)
    ]
    # A deadline no backlog this deep can meet: the admission-enabled run
    # must reject it at submit, the FIFO run lets it expire in the queue.
    probe = TraversalRequest(
        Application.BFS, small.name, source=small.num_vertices - 1,
        strategy=AccessStrategy.NAIVE, deadline=1e-3, tenant="probe",
    )
    runs = [
        _run_multi_tenant_policy(policy, graphs, aggressive, polite, probe, timeout)
        for policy in ("fifo", "wfq")
    ]
    by_policy = {run["policy"]: run for run in runs}
    fifo, wfq = by_policy["fifo"], by_policy["wfq"]
    fifo_p95 = fifo["tenants"]["polite"]["p95_ms"]
    wfq_p95 = wfq["tenants"]["polite"]["p95_ms"]
    throughput_ratio = (
        wfq["throughput_rps"] / fifo["throughput_rps"]
        if fifo["throughput_rps"]
        else None
    )
    return {
        "workload": {
            "aggressive_jobs": len(aggressive),
            "aggressive_groups": 2 * len(_BULK_COMBOS),
            "polite_jobs": len(polite),
            "polite_groups": len(_BULK_COMBOS),
            "tenant_weights": dict(DEFAULT_TENANT_WEIGHTS),
            "probe_deadline_seconds": probe.deadline,
        },
        "policies": runs,
        "summary": {
            "fifo_polite_p95_ms": fifo_p95,
            "wfq_polite_p95_ms": wfq_p95,
            "wfq_holds_polite_p95": (
                wfq_p95 < fifo_p95
                if fifo_p95 is not None and wfq_p95 is not None
                else None
            ),
            "throughput_ratio_wfq_over_fifo": throughput_ratio,
            "throughput_within_10pct": (
                abs(throughput_ratio - 1.0) <= 0.10
                if throughput_ratio is not None
                else None
            ),
            "probe_rejected_under_wfq": wfq["probe_rejected_at_submit"]
            and wfq["rejected_infeasible"] == 1,
            "probe_expired_under_fifo": fifo["probe_expired_in_queue"],
        },
    }


#: Sources per fusible BFS/SSSP batch group in the planner scenario; three
#: strategy groups of this width bin-pack comfortably into one 64-lane word.
DEFAULT_PLANNER_SOURCES = 6
#: Strategy spread of the planner scenario: three same-graph groups per
#: application, each a distinct platform configuration the planner fuses.
_PLANNER_STRATEGIES = (
    AccessStrategy.MERGED_ALIGNED,
    AccessStrategy.UVM,
    AccessStrategy.NAIVE,
)


def _planner_workload(graph, sources: int) -> list[TraversalRequest]:
    """A mixed-application, same-graph backlog with fusion headroom.

    BFS and SSSP groups across three strategies (packed-plan candidates),
    plus CC and PageRank configuration groups (streaming-plan candidates).
    """
    requests: list[TraversalRequest] = []
    for application in (Application.BFS, Application.SSSP):
        for strategy in _PLANNER_STRATEGIES:
            requests.extend(
                TraversalRequest(application, graph.name, source=source, strategy=strategy)
                for source in range(sources)
            )
    for strategy in _PLANNER_STRATEGIES:
        requests.append(TraversalRequest(Application.CC, graph.name, strategy=strategy))
    for strategy in _PLANNER_STRATEGIES[:2]:
        requests.append(
            TraversalRequest(Application.PAGERANK, graph.name, strategy=strategy)
        )
    return requests


def _run_planner_mode(enabled: bool, graphs, requests, timeout: float) -> dict:
    registry = GraphRegistry()
    for graph in graphs:
        registry.register_graph(graph)
    service = Service(
        registry=registry,
        config=ServiceConfig(max_workers=1, planner=enabled),
    )
    started = time.perf_counter()
    for request in requests:
        service.submit(request)
    finished = service.wait_all(timeout=timeout)
    wall = time.perf_counter() - started
    decisions = service.plan_decisions()
    service.close()
    stats = service.stats()
    fused = [entry for entry in decisions if entry["groups"] > 1]
    return {
        "planner": enabled,
        "finished_in_time": finished,
        "wall_seconds": wall,
        "completed": stats.completed,
        "failed": stats.failed,
        "throughput_rps": stats.completed / wall if wall > 0 else 0.0,
        "amortization": stats.amortization,
        "plans_logged": len(decisions),
        "fused_plans": len(fused),
        "fused_kinds": sorted({entry["kind"] for entry in fused}),
        "fused_lanes": sum(entry["lanes"] for entry in fused),
        "plan_decisions": decisions,
    }


def bench_planner(
    graphs,
    sources: int = DEFAULT_PLANNER_SOURCES,
    repetitions: int = 2,
    timeout: float = 300.0,
) -> dict:
    """Mixed-application fusible workload: fusion planner on vs off.

    Interleaved best-of-N per mode so runner noise cannot decide the
    contrast; the planner-on arm's plan-decision log (every drain's shape
    and actual seconds) rides along for the archived trend.
    """
    graph = graphs[0]
    # Warm the engine code paths once so the first timed arm pays no one-off
    # numpy cache costs the second arm skips.
    run_batch(Application.BFS, graph, [0], strategy=AccessStrategy.MERGED_ALIGNED)
    requests = _planner_workload(graph, sources)
    best: dict[bool, dict] = {}
    for _ in range(repetitions):
        for enabled in (False, True):
            run = _run_planner_mode(enabled, graphs, requests, timeout)
            if (
                enabled not in best
                or run["throughput_rps"] > best[enabled]["throughput_rps"]
            ):
                best[enabled] = run
    on, off = best[True], best[False]
    ratio = (
        on["throughput_rps"] / off["throughput_rps"]
        if off["throughput_rps"]
        else None
    )
    return {
        "workload": {
            "jobs": len(requests),
            "group_sources": sources,
            "strategies": [strategy.value for strategy in _PLANNER_STRATEGIES],
            "repetitions": repetitions,
        },
        "modes": [on, off],
        "summary": {
            "planner_on_throughput_rps": on["throughput_rps"],
            "planner_off_throughput_rps": off["throughput_rps"],
            "throughput_ratio_on_over_off": ratio,
            "planner_not_slower": ratio >= 1.0 if ratio is not None else None,
            "fused_plans": on["fused_plans"],
            "fused_kinds": on["fused_kinds"],
        },
    }


def bench_admission(graph: CSRGraph, queue_limit: int = 4, burst: int = 32) -> dict:
    """Fill a bounded queue and count how much of the burst is shed."""
    registry = GraphRegistry()
    registry.register_graph(graph)
    service = Service(
        registry=registry,
        config=ServiceConfig(max_workers=1, queue_limit=queue_limit),
    )
    rejected = 0
    for source in range(burst):
        try:
            service.submit(TraversalRequest(Application.BFS, graph.name, source=source))
        except AdmissionError:
            rejected += 1
    service.wait_all(timeout=120)
    service.close()
    stats = service.stats()
    return {
        "queue_limit": queue_limit,
        "burst": burst,
        "admitted": burst - rejected,
        "rejected": rejected,
        "rejected_in_stats": stats.rejected,
        "completed": stats.completed,
    }


#: Armed-but-idle plan: the nth-call trigger sits far beyond any checkpoint
#: count the bench reaches, so every probe walks the spec list and declines.
IDLE_FAULT_SPEC = "seed=1;engine.sweep:transient:n=1000000000"
#: Armed-but-idle must stay within 5% of faults-off (plus 2ms slack).
RESILIENCE_OVERHEAD_LIMIT = 0.05
RESILIENCE_SLACK_SECONDS = 0.002


def bench_resilience(
    graph: CSRGraph, group_sources: int = 8, repetitions: int = 3
) -> dict:
    """Armed-but-idle fault-plan overhead on one bulk batch group.

    Interleaved min-of-N with a cancellation token in scope, so the timed
    path is exactly what a sweep under an armed (but quiet) chaos plan pays:
    one plan probe plus one token check per frontier iteration.
    """
    plan = FaultPlan.from_spec(IDLE_FAULT_SPEC)
    sources = list(range(group_sources))

    def timed(armed: bool) -> float:
        token = Cancellation(budget_seconds=3600.0)
        if armed:
            faults.activate(plan)
        try:
            started = time.perf_counter()
            with cancellation_scope(token):
                run_batch(
                    Application.BFS, graph, sources,
                    strategy=AccessStrategy.MERGED_ALIGNED,
                )
            return time.perf_counter() - started
        finally:
            faults.deactivate(plan)

    # Warm both arms once so first-touch allocations bias neither.
    timed(True)
    timed(False)
    armed_times, off_times = [], []
    for _ in range(repetitions):
        armed_times.append(timed(True))
        off_times.append(timed(False))
    best_on, best_off = min(armed_times), min(off_times)
    return {
        "spec": IDLE_FAULT_SPEC,
        "repetitions": repetitions,
        "group_sources": group_sources,
        "armed_idle_ms": 1e3 * best_on,
        "off_ms": 1e3 * best_off,
        "overhead_pct": 100.0 * (best_on / best_off - 1.0),
        "within_limit": best_on
        <= best_off * (1.0 + RESILIENCE_OVERHEAD_LIMIT) + RESILIENCE_SLACK_SECONDS,
        "faults_fired": plan.total_fired(),
    }


#: Requests per restart phase; enough for a meaningful hit rate, small
#: enough that the scenario stays a footnote of the bench's wall time.
DEFAULT_RESTART_REQUESTS = 8


def _run_restart_phase(graph, store_path, num_requests: int, timeout: float) -> dict:
    """One serving pass against a durable store; cold or warm is decided
    entirely by whether ``store_path`` already holds this graph's results."""
    registry = GraphRegistry()
    registry.register_graph(graph)
    service = Service(
        registry=registry,
        config=ServiceConfig(max_workers=1, store_path=str(store_path)),
    )
    started = time.perf_counter()
    first = service.submit(TraversalRequest(Application.BFS, graph.name, source=0))
    service.result(first, timeout=timeout)
    first_request_seconds = time.perf_counter() - started
    jobs = [
        service.submit(TraversalRequest(Application.BFS, graph.name, source=source))
        for source in range(1, num_requests)
    ]
    for job in jobs:
        service.result(job, timeout=timeout)
    wall = time.perf_counter() - started
    service.close()
    stats = service.stats()
    return {
        "first_request_ms": 1e3 * first_request_seconds,
        "wall_seconds": wall,
        "completed": stats.completed,
        "executions": stats.executions,
        "store_hits": stats.store_hits,
        "store_backfilled": stats.store_backfilled,
        "hit_rate": stats.store_hits / num_requests if num_requests else 0.0,
        "store_state": stats.store_state,
    }


def bench_restart(
    graph: CSRGraph,
    num_requests: int = DEFAULT_RESTART_REQUESTS,
    timeout: float = 120.0,
) -> dict:
    """Warm-vs-cold restart on one durable store.

    The cold phase starts from an empty database, so every request executes
    and writes through; ``Service.close()`` drains and checkpoints.  The warm
    phase is a fresh process-shaped restart — new registry, new service, same
    file — whose requests should be answered from the persistent result
    cache without touching the engine.
    """
    with tempfile.TemporaryDirectory(prefix="bench-restart-") as scratch:
        store_path = Path(scratch) / "restart.db"
        cold = _run_restart_phase(graph, store_path, num_requests, timeout)
        warm = _run_restart_phase(graph, store_path, num_requests, timeout)
    speedup = (
        cold["first_request_ms"] / warm["first_request_ms"]
        if warm["first_request_ms"]
        else None
    )
    return {
        "requests": num_requests,
        "cold": cold,
        "warm": warm,
        "summary": {
            "cold_first_request_ms": cold["first_request_ms"],
            "warm_first_request_ms": warm["first_request_ms"],
            "first_request_speedup": speedup,
            "cold_hit_rate": cold["hit_rate"],
            "warm_hit_rate": warm["hit_rate"],
            "warm_served_without_execution": warm["executions"] == 0,
        },
    }


def bench_scheduler(
    graphs=None,
    policies=SCHEDULING_POLICIES,
    group_sources=DEFAULT_GROUP_SOURCES,
    num_urgent: int = DEFAULT_URGENT,
    timeout: float = 300.0,
) -> dict:
    """Run the skewed workload under every policy and return the report."""
    graphs = graphs if graphs is not None else build_bench_graphs()
    calibration = _calibrate(graphs, max(group_sources))
    # EDF must survive one in-flight bulk group (the scheduler is
    # non-preemptive) plus the urgent group itself; FIFO must not be able to
    # drain half the backlog first.  1.5x the slowest single group sits well
    # between those two regimes for any realistic group count.
    slowest_group = max(
        calibration["bulk_bfs_group_seconds"], calibration["bulk_sssp_group_seconds"]
    )
    urgent_deadline = 1.5 * (slowest_group + calibration["urgent_group_seconds"])
    bulk, urgent = build_workload(
        graphs,
        group_sources=group_sources,
        num_urgent=num_urgent,
        urgent_deadline=urgent_deadline,
    )
    runs = [
        _run_policy(policy, graphs, bulk, urgent, timeout) for policy in policies
    ]
    multi_tenant = bench_multi_tenant(graphs, timeout=timeout)
    by_policy = {run["policy"]: run for run in runs}
    # The headline contrast only exists when both policies actually ran; a
    # deliberate subset must not fabricate a comparison against urgent_met=0.
    fifo_run = by_policy.get("fifo")
    edf_run = by_policy.get("edf")
    fifo_met = fifo_run["urgent_met"] if fifo_run is not None else None
    edf_met = edf_run["urgent_met"] if edf_run is not None else None
    return {
        "benchmark": "service-scheduling",
        "platform": {"python": platform.python_version(), "numpy": np.__version__},
        "workload": {
            "bulk_jobs": len(bulk),
            "bulk_groups": 2 * len(_BULK_COMBOS),
            "urgent_jobs": len(urgent),
            "urgent_deadline_seconds": urgent_deadline,
            "calibration": calibration,
        },
        "policies": runs,
        "admission": bench_admission(graphs[2]),
        "multi_tenant": multi_tenant,
        "planner": bench_planner(graphs, timeout=timeout),
        "resilience": bench_resilience(graphs[0]),
        "restart": bench_restart(graphs[2]),
        "summary": {
            "fifo_urgent_met": fifo_met,
            "edf_urgent_met": edf_met,
            "edf_meets_deadlines_fifo_misses": (
                edf_met > fifo_met
                if fifo_met is not None and edf_met is not None
                else None
            ),
            "wfq_holds_polite_p95": multi_tenant["summary"]["wfq_holds_polite_p95"],
        },
    }


def plan_decision_lines(report: dict) -> list[str]:
    """The planner-on arm's plan-decision log as JSONL lines.

    One line per drain decision (kind, shape, lane counts, actual seconds)
    — the artifact CI archives next to the report so a regression in
    planning is diagnosable from the run that hit it.
    """
    planner = report.get("planner")
    if planner is None:
        return []
    lines = []
    for mode in planner["modes"]:
        if not mode["planner"]:
            continue
        lines.extend(
            json.dumps(entry, sort_keys=True) for entry in mode["plan_decisions"]
        )
    return lines


def headline_ok(report: dict) -> bool | None:
    """Did EDF hold the line on this report?

    True when EDF met every urgent deadline (nothing left to beat) or met
    deadlines FIFO missed; False when it did neither; None when the
    fifo/edf contrast was not part of the run.  The single definition used
    by both the CLI exit code and the perf smoke test.
    """
    summary = report["summary"]
    edf_met = summary["edf_urgent_met"]
    if edf_met is not None and edf_met == report["workload"]["urgent_jobs"]:
        return True
    return summary["edf_meets_deadlines_fifo_misses"]


def write_report(report: dict, path: str | Path) -> Path:
    """Write the benchmark report as pretty-printed JSON."""
    path = Path(path)
    path.write_text(json.dumps(report, indent=2) + "\n")
    return path


def format_report(report: dict) -> str:
    """Render the report as an aligned plain-text table."""
    header = (
        f"{'policy':8s} {'urgent met':>10s} {'expired':>8s} {'amort':>6s} "
        f"{'p50':>9s} {'p95':>9s} {'wall':>8s}"
    )
    workload = report["workload"]
    lines = [
        f"bench-scheduler: {workload['bulk_jobs']} bulk jobs in "
        f"{workload['bulk_groups']} groups + {workload['urgent_jobs']} urgent "
        f"(deadline {workload['urgent_deadline_seconds'] * 1e3:.0f} ms)",
        header,
        "-" * len(header),
    ]
    for run in report["policies"]:
        lines.append(
            f"{run['policy']:8s} {run['urgent_met']:>7d}/{run['urgent_met'] + run['urgent_missed']:<2d} "
            f"{run['expired']:>8d} {run['amortization']:>5.2f} "
            f"{run['latency_p50_ms']:>7.1f}ms {run['latency_p95_ms']:>7.1f}ms "
            f"{run['wall_seconds']:>7.2f}s"
        )
    admission = report["admission"]
    summary = report["summary"]
    lines.append(
        f"admission: {admission['rejected']}/{admission['burst']} shed at "
        f"queue_limit={admission['queue_limit']}"
    )
    verdict = summary["edf_meets_deadlines_fifo_misses"]
    if verdict is None:
        lines.append("EDF-vs-FIFO contrast: n/a (both policies were not run)")
    else:
        lines.append(
            "EDF meets deadlines FIFO misses: "
            f"{'yes' if verdict else 'NO'} "
            f"(fifo {summary['fifo_urgent_met']}, edf {summary['edf_urgent_met']})"
        )
    multi = report.get("multi_tenant")
    if multi is not None:
        mt_summary = multi["summary"]
        workload = multi["workload"]

        def ms(value):
            # A degraded run (timeout, zero finished polite jobs) reports
            # None; render it instead of crashing the whole report.
            return "n/a" if value is None else f"{value:.1f} ms"

        ratio = mt_summary["throughput_ratio_wfq_over_fifo"]
        lines.append(
            f"multi-tenant: {workload['aggressive_jobs']} aggressive jobs vs "
            f"{workload['polite_jobs']} polite; polite p95 "
            f"fifo {ms(mt_summary['fifo_polite_p95_ms'])} -> "
            f"wfq {ms(mt_summary['wfq_polite_p95_ms'])} "
            f"({'held' if mt_summary['wfq_holds_polite_p95'] else 'NOT held'}), "
            f"throughput ratio {'n/a' if ratio is None else f'{ratio:.2f}'}"
        )
        lines.append(
            "infeasible probe: "
            f"wfq rejected at submit: "
            f"{'yes' if mt_summary['probe_rejected_under_wfq'] else 'NO'}; "
            f"fifo expired in queue: "
            f"{'yes' if mt_summary['probe_expired_under_fifo'] else 'NO'}"
        )
    planner = report.get("planner")
    if planner is not None:
        planner_summary = planner["summary"]
        ratio = planner_summary["throughput_ratio_on_over_off"]
        lines.append(
            f"planner: {planner['workload']['jobs']} mixed-app jobs, "
            f"{planner_summary['fused_plans']} fused plans "
            f"({', '.join(planner_summary['fused_kinds']) or 'none'}); "
            f"throughput on/off "
            f"{'n/a' if ratio is None else f'{ratio:.2f}'} "
            f"({'not slower' if planner_summary['planner_not_slower'] else 'SLOWER'})"
        )
    resilience = report.get("resilience")
    if resilience is not None:
        lines.append(
            "resilience: armed-but-idle faults "
            f"{resilience['armed_idle_ms']:.1f} ms vs off "
            f"{resilience['off_ms']:.1f} ms "
            f"({resilience['overhead_pct']:+.1f}%, "
            f"{'within' if resilience['within_limit'] else 'OVER'} "
            f"{100 * RESILIENCE_OVERHEAD_LIMIT:.0f}% limit)"
        )
    restart = report.get("restart")
    if restart is not None:
        restart_summary = restart["summary"]
        lines.append(
            f"restart: first request cold "
            f"{restart_summary['cold_first_request_ms']:.1f} ms -> warm "
            f"{restart_summary['warm_first_request_ms']:.1f} ms, "
            f"warm hit rate {100 * restart_summary['warm_hit_rate']:.0f}% "
            f"({'served from store' if restart_summary['warm_served_without_execution'] else 'RE-EXECUTED'})"
        )
    return "\n".join(lines)
