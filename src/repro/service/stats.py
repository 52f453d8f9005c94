"""Aggregated serving statistics.

:meth:`repro.service.Service.stats` returns one immutable
:class:`ServiceStats` snapshot, *read* from the service's one ledger — the
catalog-declared :class:`~repro.obs.metrics.MetricsRegistry` every count is
written to exactly once — plus the snapshots its components own (result
cache, graph registry, store, cost model, ...), so operators (and tests) read
a single consistent view instead of poking at internals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from ..obs.metrics import LatencyStats, MetricsRegistry
from .cache import CacheStats
from .costmodel import CostModelStats
from .registry import RegistryStats
from .store import StoreStats, failed_operations

__all__ = ["LatencyStats", "ServiceStats", "TenantStats"]


@dataclass(frozen=True)
class TenantStats:
    """Per-tenant serving outcomes (jobs attributed to their first submitter)."""

    #: Jobs of this tenant that finished successfully.
    completed: int = 0
    #: Deadline-carrying jobs of this tenant that blew their tightest budget
    #: (finished late, failed, or expired in the queue).
    missed: int = 0


@dataclass(frozen=True)
class ServiceStats:
    """Point-in-time snapshot of a running service."""

    #: Total ``submit()`` calls accepted.
    submitted: int
    #: Submissions coalesced onto an identical in-flight job.
    deduplicated: int
    #: Jobs that finished successfully (including cache-served ones).
    completed: int
    #: Jobs that finished with an error.
    failed: int
    #: Engine invocations (a cache hit or a deduplicated submit runs nothing).
    executions: int
    #: Batch groups drained by workers.
    batches: int
    #: Jobs queued, not yet picked up by a worker.
    pending: int
    #: Worker tasks queued on or running in the pool.
    active_workers: int
    #: Wall-clock seconds workers spent inside the engine.
    engine_seconds: float
    #: Wall-clock seconds since the service was constructed.
    uptime_seconds: float
    cache: CacheStats
    registry: RegistryStats
    #: Active scheduling policy name ("fifo" / "edf" / "wfq").
    policy: str = "fifo"
    #: Submissions refused by admission control (queue limit / tenant quota /
    #: infeasible deadline).
    rejected: int = 0
    #: The subset of ``rejected`` refused because the cost model judged the
    #: requested deadline unmeetable at arrival.
    rejected_infeasible: int = 0
    #: Jobs failed because their deadline passed while still queued.
    expired: int = 0
    #: Deadline-carrying jobs that completed within their budget.
    deadlines_met: int = 0
    #: Deadline-carrying jobs that finished late, failed, or expired.
    deadlines_missed: int = 0
    #: Queueing delay (submission -> execution start) percentiles.
    queue_wait: LatencyStats = field(default_factory=LatencyStats)
    #: End-to-end latency (submission -> completion) percentiles.
    latency: LatencyStats = field(default_factory=LatencyStats)
    #: Coverage and accuracy of the online cost model feeding WFQ and
    #: infeasible-deadline admission.
    cost_model: CostModelStats = field(default_factory=CostModelStats)
    #: Per-tenant completed/missed breakdown (``None`` = anonymous traffic).
    tenants: Mapping[str | None, TenantStats] = field(default_factory=dict)
    #: Backoff retries of transient graph-load / sweep failures.
    retries: int = 0
    #: Sweeps cancelled by the cooperative watchdog (SweepTimeoutError).
    sweep_timeouts: int = 0
    #: Fused multisource/streaming groups whose members were re-executed solo
    #: after a group failure (fault isolation).
    isolations: int = 0
    #: Sweeps re-run on the numpy backend after a native-kernel failure
    #: (values stay bit-identical).
    degraded: int = 0
    #: Submissions refused because the service or its pool was already closed.
    rejected_after_close: int = 0
    #: Faults fired by the active fault-injection plan (0 without a plan).
    faults_injected: int = 0
    #: Result-cache get/put failures absorbed by the service (a failing read
    #: is a miss, a failing write is dropped; requests never fail on these).
    cache_errors: int = 0
    #: Durable-store condition: ``disabled`` (no store configured), ``ok``,
    #: ``degraded`` (breaker open / connection lost — serving is in-memory
    #: only), or ``quarantined`` (durable again after renaming a corrupt
    #: predecessor aside this boot).
    store_state: str = "disabled"
    #: Requests answered from the persistent result cache (reads the
    #: in-memory cache missed).
    store_hits: int = 0
    #: Rows committed to the store (results, rates, catalog upserts, purges
    #: and evictions).
    store_writes: int = 0
    #: Store failures absorbed (armed faults included); these trip the store
    #: breaker, never requests.
    store_errors: int = 0
    #: Sweep writes queued for or running on the store's writer thread.
    store_pending: int = 0
    #: Cached results re-installed into the in-memory cache at graph load
    #: (warm restart backfill).
    store_backfilled: int = 0

    @classmethod
    def from_ledger(
        cls, metrics: MetricsRegistry, store: StoreStats | None = None, **snapshots
    ) -> "ServiceStats":
        """Read every counted field off ``metrics``; the rest is ``snapshots``.

        ``snapshots`` are the point-in-time fields the service's components
        own (``pending``, ``cache``, ``registry``, ``cost_model``, ...), and
        ``store`` the durable store's (its state and queue depth), when one is
        attached.
        """

        def count(name: str, **labels) -> int:
            return int(metrics[name].value(**labels))

        def total(name: str) -> int:
            return int(metrics[name].total())

        expired = count("repro_requests_total", outcome="expired")
        tally = metrics["repro_tenant_jobs_total"].samples()
        if store is not None:
            snapshots.update(store_state=store.state, store_pending=store.pending)
        return cls(
            submitted=count("repro_requests_submitted_total"),
            deduplicated=count("repro_requests_deduplicated_total"),
            completed=count("repro_requests_total", outcome="completed"),
            failed=count("repro_requests_total", outcome="failed") + expired,
            executions=count("repro_executions_total"),
            batches=count("repro_batches_total"),
            engine_seconds=metrics["repro_engine_seconds_total"].value(),
            rejected=total("repro_requests_rejected_total"),
            rejected_infeasible=count(
                "repro_requests_rejected_total", reason="infeasible"
            ),
            expired=expired,
            deadlines_met=count("repro_deadlines_total", result="met"),
            deadlines_missed=count("repro_deadlines_total", result="missed"),
            queue_wait=metrics["repro_queue_wait_seconds"].snapshot(),
            latency=metrics["repro_request_latency_seconds"].snapshot(),
            tenants={
                # The anonymous tenant is labelled "" (no real tenant can be)
                # and listed last.
                tenant or None: TenantStats(
                    completed=int(tally.get((tenant, "completed"), 0)),
                    missed=int(tally.get((tenant, "missed"), 0)),
                )
                for tenant in sorted({t for t, _ in tally}, key=lambda t: (not t, t))
            },
            retries=total("repro_retries_total"),
            sweep_timeouts=count("repro_sweep_timeouts_total"),
            isolations=count("repro_fused_isolations_total"),
            degraded=count("repro_native_degraded_total"),
            rejected_after_close=count("repro_rejected_after_close_total"),
            faults_injected=total("repro_faults_injected_total"),
            cache_errors=total("repro_cache_errors_total"),
            store_hits=count("repro_store_hits_total"),
            store_writes=count("repro_store_rows_written_total"),
            store_backfilled=count("repro_store_backfilled_total"),
            store_errors=failed_operations(metrics),
            **snapshots,
        )

    @property
    def throughput_rps(self) -> float:
        """Completed requests per wall-clock second of uptime."""
        if self.uptime_seconds <= 0:
            return 0.0
        return self.completed / self.uptime_seconds

    @property
    def dedup_rate(self) -> float:
        """Fraction of submissions answered by an already in-flight job."""
        if self.submitted == 0:
            return 0.0
        return self.deduplicated / self.submitted

    @property
    def amortization(self) -> float:
        """Average executed jobs per batch (>1 means batching paid off)."""
        if self.batches == 0:
            return 0.0
        return self.executions / self.batches

    def describe(self) -> str:
        """Multi-line human-readable rendering used by the CLI report."""
        lines = [
            f"submitted={self.submitted}  deduplicated={self.deduplicated} "
            f"({self.dedup_rate:.0%})  completed={self.completed}  failed={self.failed}",
            f"scheduling: policy={self.policy}  rejected={self.rejected} "
            f"({self.rejected_infeasible} infeasible)  expired={self.expired}  "
            f"deadlines {self.deadlines_met} met / "
            f"{self.deadlines_missed} missed",
            f"cost model: {self.cost_model.describe()}",
            f"latency p50/p95/p99: queued {self.queue_wait.describe_ms()}, "
            f"total {self.latency.describe_ms()} "
            f"(window of {self.latency.count})",
            f"engine executions={self.executions} in {self.batches} batches "
            f"(amortization {self.amortization:.2f} jobs/batch, "
            f"{self.engine_seconds:.3f}s in engine)",
            f"result cache: {self.cache.hits} hits / {self.cache.misses} misses "
            f"({self.cache.hit_rate:.0%} hit rate), {self.cache.entries} entries, "
            f"{self.cache.evictions} evictions",
            f"registry: {self.registry.loads} loads, {self.registry.hits} hits, "
            f"{self.registry.evictions} evictions, "
            f"{self.registry.resident_graphs} resident "
            f"({self.registry.resident_bytes} simulated bytes, "
            f"{self.registry.pinned_bytes} pinned by loader closures)",
            f"resilience: {self.retries} retries, {self.sweep_timeouts} sweep "
            f"timeouts, {self.isolations} fused groups isolated, "
            f"{self.degraded} degraded sweeps, "
            f"{self.rejected_after_close} rejected after close, "
            f"{self.faults_injected} faults injected, "
            f"{self.cache_errors} cache errors absorbed",
            f"store: {self.store_state}, {self.store_hits} hits, "
            f"{self.store_writes} writes, "
            f"{self.store_backfilled} backfilled, "
            f"{self.store_errors} errors absorbed, "
            f"{self.store_pending} pending",
        ]
        if self.tenants:
            lines.append(
                "tenants: "
                + "  ".join(
                    f"{tenant or '(anonymous)'}: {outcome.completed} completed / "
                    f"{outcome.missed} missed"
                    for tenant, outcome in self.tenants.items()
                )
            )
        return "\n".join(lines)
