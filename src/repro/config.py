"""Hardware and calibration configuration for the simulated EMOGI testbed.

The paper's evaluation platform (Table 1) is a dual-socket Cascade Lake server
with an NVIDIA V100 16GB attached over PCIe 3.0 x16, plus a DGX A100 used for
the PCIe 4.0 scaling study (Figure 12).  We reproduce both platforms as
*calibrated analytical models*: every constant below is either taken directly
from the paper (TLP header size, tag width, measured cudaMemcpy peak, DDR4
sequential bandwidth, round-trip latency range) or chosen so the derived
bandwidth envelope matches the figures in Section 3.3.

Because the evaluation graphs are scaled down by :data:`DATASET_SCALE`, the
simulated GPU memory capacity is scaled by the same factor so the ratio of
graph size to device memory — the quantity that actually drives thrashing and
I/O amplification — matches the paper.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import astuple, dataclass, field, replace
from pathlib import Path

from .errors import ConfigurationError
from .types import gibibytes

#: Factor by which the paper's billion-edge graphs (and the 16 GiB V100
#: memory) are scaled down so experiments run in seconds on a laptop.
DATASET_SCALE = 2000.0


@dataclass(frozen=True)
class PCIeConfig:
    """Analytical model of a PCIe x16 link used for GPU zero-copy reads.

    The model exposes two ceilings for a stream of fixed-size read requests:

    * a *payload ceiling*: the raw link bandwidth discounted by the 18-byte
      transaction-layer-packet (TLP) header carried by every completion
      (§3.3: "fetching 32-byte of data makes the PCIe overhead ratio of at
      least 36%"), and
    * a *latency ceiling*: with an 8-bit tag field only 256 read requests can
      be outstanding, so small requests cannot cover the ~1.0-1.6us round
      trip (§3.3: "the maximum bandwidth we can achieve with only 32-byte
      requests and 1.0us of RTT is merely 7.63GB/s").
    """

    generation: int
    lanes: int = 16
    #: Raw payload bandwidth ceiling in GB/s before per-TLP header overhead.
    raw_payload_gbps: float = 14.0
    tlp_header_bytes: int = 18
    max_outstanding_reads: int = 256
    round_trip_time_us: float = 1.5
    #: Largest single read request the GPU issues (one 128B cache line).
    max_read_request_bytes: int = 128

    def __post_init__(self) -> None:
        if self.generation not in (3, 4, 5):
            raise ConfigurationError(f"unsupported PCIe generation: {self.generation}")
        if self.raw_payload_gbps <= 0:
            raise ConfigurationError("raw_payload_gbps must be positive")
        if self.max_outstanding_reads <= 0:
            raise ConfigurationError("max_outstanding_reads must be positive")
        if self.round_trip_time_us <= 0:
            raise ConfigurationError("round_trip_time_us must be positive")

    def header_efficiency(self, request_bytes: float) -> float:
        """Fraction of link throughput that is payload for a request size."""
        if request_bytes <= 0:
            raise ConfigurationError("request_bytes must be positive")
        return request_bytes / (request_bytes + self.tlp_header_bytes)

    def payload_limited_gbps(self, request_bytes: float) -> float:
        """Payload bandwidth ceiling imposed by TLP header overhead."""
        return self.raw_payload_gbps * self.header_efficiency(request_bytes)

    def latency_limited_gbps(self, request_bytes: float) -> float:
        """Payload bandwidth ceiling imposed by the outstanding-request limit."""
        if request_bytes <= 0:
            raise ConfigurationError("request_bytes must be positive")
        rtt_seconds = self.round_trip_time_us * 1e-6
        return (request_bytes * self.max_outstanding_reads / rtt_seconds) / 1e9

    def effective_read_gbps(self, request_bytes: float) -> float:
        """Achievable payload bandwidth for a homogeneous read-request stream."""
        return min(
            self.payload_limited_gbps(request_bytes),
            self.latency_limited_gbps(request_bytes),
        )

    @property
    def block_transfer_gbps(self) -> float:
        """Peak bandwidth of a bulk ``cudaMemcpy``-style transfer.

        Bulk copies use maximum-size packets, so this equals the payload
        ceiling at the largest request size (≈12.3 GB/s on the paper's
        PCIe 3.0 platform, ≈24.6 GB/s on PCIe 4.0).
        """
        return self.payload_limited_gbps(self.max_read_request_bytes)


@dataclass(frozen=True)
class DRAMConfig:
    """Host DDR4 model: minimum access granularity and sequential bandwidth."""

    min_access_bytes: int = 64
    #: Aggregate host-memory bandwidth available to the PCIe DMA engine.  The
    #: paper's server has quad-channel DDR4-2933 (~94 GB/s theoretical); the
    #: effective figure here leaves the link, not the DIMMs, as the bottleneck
    #: for well-formed request streams, while the 64-byte minimum access still
    #: doubles the DRAM traffic of a 32-byte request stream (§3.3).
    sequential_bandwidth_gbps: float = 75.0

    def __post_init__(self) -> None:
        if self.min_access_bytes <= 0:
            raise ConfigurationError("min_access_bytes must be positive")
        if self.sequential_bandwidth_gbps <= 0:
            raise ConfigurationError("sequential_bandwidth_gbps must be positive")

    def bytes_touched(self, request_bytes: int) -> int:
        """DRAM bytes actually read to serve a PCIe request of a given size."""
        if request_bytes <= 0:
            raise ConfigurationError("request_bytes must be positive")
        blocks = -(-request_bytes // self.min_access_bytes)
        return blocks * self.min_access_bytes


@dataclass(frozen=True)
class GPUConfig:
    """Simulated GPU: SIMT geometry, memory capacity and compute throughput."""

    name: str = "Tesla V100 (scaled)"
    memory_bytes: int = int(gibibytes(16.0) / DATASET_SCALE)
    warp_size: int = 32
    cacheline_bytes: int = 128
    sector_bytes: int = 32
    num_sms: int = 80
    kernel_launch_overhead_us: float = 8.0
    #: Edge-processing throughput when data is already on chip (edges/s).
    compute_edges_per_second: float = 10e9
    #: Throughput of simple per-vertex bookkeeping work (vertices/s).
    compute_vertices_per_second: float = 50e9
    #: Probability that a Naive (strided) thread's next element access within
    #: the same 32-byte sector still hits the GPU cache.  §3.3 observes that
    #: the strided pattern "will likely occupy GPU cache and can be evicted
    #: before all elements are traversed due to cache thrashing", causing the
    #: same sector to be re-fetched; this calibration constant reproduces the
    #: measured effect (Naive transferring more bytes than the dataset and
    #: landing at ~0.73x of UVM in Figure 9) without a cycle-level cache model.
    strided_sector_hit_rate: float = 0.5

    def __post_init__(self) -> None:
        if self.warp_size <= 0:
            raise ConfigurationError("warp_size must be positive")
        if self.cacheline_bytes % self.sector_bytes != 0:
            raise ConfigurationError("cacheline_bytes must be a multiple of sector_bytes")
        if self.memory_bytes <= 0:
            raise ConfigurationError("memory_bytes must be positive")

    @property
    def sectors_per_line(self) -> int:
        return self.cacheline_bytes // self.sector_bytes


@dataclass(frozen=True)
class UVMConfig:
    """Unified Virtual Memory model (§2.2).

    Every 4KB migration pays a CPU-side driver overhead in addition to the
    link transfer.  The overhead is independent of the link generation, which
    is what prevents UVM from scaling with PCIe 4.0 in Figure 12.
    """

    page_bytes: int = 4096
    #: CPU-side driver cost per migrated page (fault handling, mapping).
    fault_service_overhead_us: float = 0.12
    #: Model cudaMemAdviseSetReadMostly: read-only duplication, no write-back.
    read_mostly: bool = True
    #: Pages migrated together when a fault is serviced.  The UVM driver does
    #: not move single 4KB pages for dense fault batches: its tree-based
    #: prefetcher migrates naturally-aligned multi-page blocks, which is a
    #: major source of the I/O read amplification the paper measures for
    #: sparse neighbor-list accesses (Figure 10).  16 pages = 64KB, the
    #: granularity the open-source UVM driver uses for its prefetch blocks.
    prefetch_pages: int = 16

    def __post_init__(self) -> None:
        if self.page_bytes <= 0 or self.page_bytes & (self.page_bytes - 1):
            raise ConfigurationError("page_bytes must be a positive power of two")
        if self.fault_service_overhead_us < 0:
            raise ConfigurationError("fault_service_overhead_us cannot be negative")
        if self.prefetch_pages <= 0:
            raise ConfigurationError("prefetch_pages must be positive")


@dataclass(frozen=True)
class HostConfig:
    """Host CPU model used by the Subway-style baseline (§5.6).

    Subway compacts the active subgraph on the host before each transfer; the
    compaction is a gather over the active edges whose throughput is bounded
    by the CPU, not the link.
    """

    dram: DRAMConfig = field(default_factory=DRAMConfig)
    #: Cost of compacting one active edge into the Subway-style subgraph.
    #: Calibrated so subgraph generation dominates the transfer roughly 2:1,
    #: as the Subway comparison in Table 3 implies.
    subgraph_gather_ns_per_edge: float = 0.8
    #: Per-iteration cost of rebuilding the compacted offset array: Subway
    #: scans every vertex's activeness to lay out the new subgraph, so deep
    #: traversals (SSSP, high-diameter BFS) pay this repeatedly.
    subgraph_build_ns_per_vertex: float = 4.0
    memcpy_launch_overhead_us: float = 10.0


@dataclass(frozen=True)
class SystemConfig:
    """A complete simulated platform: GPU + interconnect + host."""

    name: str
    gpu: GPUConfig
    pcie: PCIeConfig
    host: HostConfig
    uvm: UVMConfig

    def with_pcie(self, pcie: PCIeConfig) -> "SystemConfig":
        """Return a copy of this platform with a different interconnect."""
        return replace(self, pcie=pcie, name=f"{self.name} (PCIe {pcie.generation}.0)")

    def with_gpu_memory(self, memory_bytes: int) -> "SystemConfig":
        """Return a copy with a different simulated device-memory capacity."""
        return replace(self, gpu=replace(self.gpu, memory_bytes=memory_bytes))

    def fingerprint(self) -> str:
        """Short stable digest of every model parameter of this platform.

        Two platforms share a fingerprint exactly when all their nested
        configuration values are equal, so the digest is safe to use in cache
        keys where the human-readable ``name`` is not (two differently named
        configs may be physically identical, and vice versa).

        Digested once per instance: this class and everything nested in it
        are frozen, so the value cannot change.  The memo lives in the
        instance ``__dict__`` rather than in a field, which keeps it out of
        ``==``, ``hash``, ``repr``, ``astuple`` and ``replace`` (a replaced
        copy digests afresh); pickle and deepcopy carry it along with the
        field values it was computed from.
        """
        memo = self.__dict__
        try:
            return memo["_fingerprint"]
        except KeyError:
            digest = hashlib.sha1(repr(astuple(self)).encode()).hexdigest()[:12]
            memo["_fingerprint"] = digest
            return digest


def system_key(system: SystemConfig | None) -> str:
    """Identity of a platform in cache, batch and engine keys.

    ``None`` — no explicit platform, so whatever the executing service or
    engine defaults to — is spelled ``"default"``; anything else is its
    :meth:`SystemConfig.fingerprint`.
    """
    return "default" if system is None else system.fingerprint()


#: Scheduling policies accepted by :attr:`ServiceConfig.policy`; the
#: implementations live in :mod:`repro.service.scheduler` (which validates
#: against this tuple so the two cannot drift apart).
SCHEDULING_POLICIES = ("fifo", "largest", "edf", "wfq")


def normalize_tenant_weights(weights) -> tuple[tuple[str, float], ...] | None:
    """Canonicalize a tenant→weight mapping for weighted-fair queueing.

    Accepts any mapping (or an already-normalized item tuple) and returns a
    sorted, immutable ``((tenant, weight), ...)`` tuple so the frozen
    :class:`ServiceConfig` stays hashable and two configs with the same
    weights compare equal regardless of dict ordering.  Weights are relative
    shares — only their ratios matter — so no rescaling is applied; each must
    be a positive finite number and each tenant a non-empty string.
    """
    if weights is None:
        return None
    items = weights.items() if hasattr(weights, "items") else weights
    normalized = []
    for tenant, weight in items:
        if not isinstance(tenant, str) or not tenant:
            raise ConfigurationError(
                f"tenant_weights keys must be non-empty tenant names, got {tenant!r}"
            )
        if isinstance(weight, bool) or not isinstance(weight, (int, float)):
            raise ConfigurationError(
                f"tenant_weights[{tenant!r}] must be a number, got {weight!r}"
            )
        weight = float(weight)
        if not math.isfinite(weight) or weight <= 0:
            raise ConfigurationError(
                f"tenant_weights[{tenant!r}] must be positive and finite, "
                f"got {weight!r}"
            )
        normalized.append((tenant, weight))
    deduped = dict(normalized)
    if len(deduped) != len(normalized):
        raise ConfigurationError("tenant_weights names a tenant twice")
    return tuple(sorted(deduped.items()))


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of the :mod:`repro.service` traversal-serving layer.

    These are deliberately kept next to the hardware models: a deployment is
    one :class:`SystemConfig` (what we simulate) plus one :class:`ServiceConfig`
    (how we serve it).
    """

    #: Width of the worker pool executing traversal jobs.
    max_workers: int = 4
    #: Byte budget for resident graphs in the registry (simulated footprint,
    #: i.e. :attr:`repro.graph.csr.CSRGraph.total_bytes`).  ``None`` disables
    #: eviction.
    registry_budget_bytes: int | None = None
    #: Maximum number of traversal results kept by the LRU result cache.
    result_cache_entries: int = 1024
    #: Maximum finished jobs kept addressable by id; the oldest finished jobs
    #: beyond this are pruned so a long-running server's memory stays bounded.
    job_retention: int = 4096
    #: Which pending batch group a free worker drains next: ``"fifo"``
    #: (arrival order, the default), ``"largest"`` (most jobs first, maximizing
    #: multi-source amortization per engine sweep), ``"edf"`` (earliest
    #: deadline first), or ``"wfq"`` (start-time weighted-fair queueing over
    #: tenants, charged by predicted drain cost).  See
    #: :mod:`repro.service.scheduler`.
    policy: str = "fifo"
    #: Relative fair-queueing shares per tenant for the ``"wfq"`` policy,
    #: given as a mapping (canonicalized to a sorted item tuple).  A tenant
    #: absent from the mapping — including the anonymous ``None`` tenant —
    #: gets weight 1.0.  Only ratios matter: ``{"a": 3, "b": 1}`` lets tenant
    #: ``a`` drain three units of estimated engine cost for every one of
    #: ``b``'s while both are backlogged.
    tenant_weights: tuple | None = None
    #: Reject deadline-carrying submissions whose estimated queue wait plus
    #: execution already exceeds their budget
    #: (:class:`~repro.errors.InfeasibleDeadlineError` at ``submit``) instead
    #: of letting them expire in the queue.
    reject_infeasible: bool = False
    #: Maximum jobs waiting in the queue; a submit beyond this raises
    #: :class:`~repro.errors.AdmissionError` instead of growing the backlog
    #: without bound.  ``None`` disables the limit.
    queue_limit: int | None = None
    #: Maximum *pending* jobs per tenant (requests without a tenant share the
    #: anonymous bucket); a submit beyond this raises
    #: :class:`~repro.errors.AdmissionError`.  ``None`` disables quotas.
    tenant_quota: int | None = None
    #: Number of recently finished jobs whose queueing/total latencies feed
    #: the percentile estimates in :class:`~repro.service.stats.ServiceStats`.
    latency_window: int = 2048
    #: Fraction of requests that receive a full span trace, in [0, 1].
    #: Sampling is systematic (every ``1/trace_sample``-th request), so low
    #: rates still give deterministic coverage.  Metrics counters are always
    #: on regardless of this knob.
    trace_sample: float = 1.0
    #: Capacity of the span ring buffer; the oldest spans are evicted when an
    #: unattended service outruns ``drain_traces()``.
    trace_buffer: int = 8192
    #: Tracing master switch: ``None`` defers to the ``REPRO_TRACE``
    #: environment variable (enabled unless set to a falsy value), ``False``
    #: disables span recording outright, ``True`` forces it on.
    trace_enabled: bool | None = None
    #: Fault-injection plan: a :class:`repro.service.faults.FaultPlan`, a
    #: spec string in the ``REPRO_FAULTS`` format, or ``None`` (in which case
    #: the service consults the ``REPRO_FAULTS`` environment variable).
    fault_plan: object | None = None
    #: Maximum retries (beyond the first attempt) of a graph load or engine
    #: sweep that failed with a transient
    #: :class:`~repro.errors.RetryableError`.  ``0`` disables retries.
    retry_limit: int = 2
    #: Absolute per-sweep watchdog budget in seconds; a sweep past it raises
    #: :class:`~repro.errors.SweepTimeoutError` at the next iteration
    #: boundary.  ``None`` defers to ``sweep_timeout_multiplier``.
    sweep_timeout: float | None = None
    #: Cost-model-driven watchdog: budget = multiplier x the model's
    #: estimated engine seconds for the group (used when ``sweep_timeout`` is
    #: ``None``; ``None`` disables the watchdog entirely).
    sweep_timeout_multiplier: float | None = None
    #: Fusion planning on the built-in execution path: each drain takes every
    #: compatible pending group that fits (≤64-lane packed cross-config
    #: words, streaming platform lanes) along with the policy-selected one
    #: (:mod:`repro.service.planner`).  With ``False`` every policy-selected
    #: group drains alone — the planner-off baseline the scheduler benchmark
    #: compares against.
    planner: bool = True
    #: Consecutive native-kernel failures that trip the circuit breaker from
    #: closed to open (degrading sweeps to the bit-identical numpy backend).
    breaker_threshold: int = 3
    #: Seconds the breaker stays open before a half-open probe sweep may try
    #: the native backend again.
    breaker_cooldown: float = 30.0
    #: Filesystem path of the durable serving store
    #: (:mod:`repro.service.store`): an SQLite/WAL database persisting the
    #: graph catalog, result cache and cost-model rates across restarts.
    #: ``None`` (the default) disables durability — today's in-memory-only
    #: behavior.
    store_path: str | None = None

    def __post_init__(self) -> None:
        if self.max_workers <= 0:
            raise ConfigurationError("max_workers must be positive")
        if self.registry_budget_bytes is not None and self.registry_budget_bytes <= 0:
            raise ConfigurationError("registry_budget_bytes must be positive or None")
        if self.result_cache_entries < 0:
            raise ConfigurationError("result_cache_entries cannot be negative")
        if self.job_retention <= 0:
            raise ConfigurationError("job_retention must be positive")
        if self.policy not in SCHEDULING_POLICIES:
            raise ConfigurationError(
                f"unknown scheduling policy {self.policy!r}; "
                f"choose one of: {', '.join(SCHEDULING_POLICIES)}"
            )
        object.__setattr__(
            self, "tenant_weights", normalize_tenant_weights(self.tenant_weights)
        )
        if self.queue_limit is not None and self.queue_limit <= 0:
            raise ConfigurationError("queue_limit must be positive or None")
        if self.tenant_quota is not None and self.tenant_quota <= 0:
            raise ConfigurationError("tenant_quota must be positive or None")
        if self.latency_window <= 0:
            raise ConfigurationError("latency_window must be positive")
        if not isinstance(self.trace_sample, (int, float)) or not (
            0.0 <= float(self.trace_sample) <= 1.0
        ):
            raise ConfigurationError(
                f"trace_sample must be in [0, 1], got {self.trace_sample!r}"
            )
        if self.trace_buffer <= 0:
            raise ConfigurationError("trace_buffer must be positive")
        if self.fault_plan is not None and not (
            isinstance(self.fault_plan, str)
            or callable(getattr(self.fault_plan, "check", None))
        ):
            # Duck-typed (a FaultPlan exposes .check) so this module never
            # imports repro.service, which itself imports this module.
            raise ConfigurationError(
                "fault_plan must be a FaultPlan, a REPRO_FAULTS spec string, "
                f"or None, got {self.fault_plan!r}"
            )
        if self.retry_limit < 0:
            raise ConfigurationError("retry_limit cannot be negative")
        if self.sweep_timeout is not None and self.sweep_timeout <= 0:
            raise ConfigurationError("sweep_timeout must be positive or None")
        if (
            self.sweep_timeout_multiplier is not None
            and self.sweep_timeout_multiplier <= 0
        ):
            raise ConfigurationError(
                "sweep_timeout_multiplier must be positive or None"
            )
        if self.breaker_threshold < 1:
            raise ConfigurationError("breaker_threshold must be >= 1")
        if self.breaker_cooldown < 0:
            raise ConfigurationError("breaker_cooldown cannot be negative")
        if self.store_path is not None and (
            not isinstance(self.store_path, (str, Path)) or not str(self.store_path)
        ):
            raise ConfigurationError(
                f"store_path must be a non-empty path or None, got {self.store_path!r}"
            )


#: PCIe 3.0 x16 as measured in the paper (cudaMemcpy peak ≈ 12.3 GB/s).
PCIE3_X16 = PCIeConfig(generation=3, raw_payload_gbps=14.0, round_trip_time_us=1.5)

#: PCIe 4.0 x16 as measured on the DGX A100 (peak ≈ 24.6 GB/s).
PCIE4_X16 = PCIeConfig(generation=4, raw_payload_gbps=28.0, round_trip_time_us=1.2)


def volta_pcie3() -> SystemConfig:
    """The paper's primary platform: V100 16GB over PCIe 3.0 (Table 1)."""
    return SystemConfig(
        name="Xeon Gold 6230 + Tesla V100 16GB (PCIe 3.0)",
        gpu=GPUConfig(),
        pcie=PCIE3_X16,
        host=HostConfig(),
        uvm=UVMConfig(),
    )


def ampere_pcie3() -> SystemConfig:
    """DGX A100 with the root port forced to PCIe 3.0 mode (Figure 12)."""
    return SystemConfig(
        name="DGX A100 (PCIe 3.0 mode)",
        gpu=GPUConfig(name="A100 (scaled)", num_sms=108),
        pcie=PCIE3_X16,
        host=HostConfig(),
        uvm=UVMConfig(),
    )


def ampere_pcie4() -> SystemConfig:
    """DGX A100 in its native PCIe 4.0 mode (Figure 12)."""
    return SystemConfig(
        name="DGX A100 (PCIe 4.0 mode)",
        gpu=GPUConfig(name="A100 (scaled)", num_sms=108),
        pcie=PCIE4_X16,
        host=HostConfig(),
        uvm=UVMConfig(),
    )


def titan_xp_pcie3() -> SystemConfig:
    """Titan Xp 12GB platform used only for the HALO comparison (Table 3)."""
    return SystemConfig(
        name="Titan Xp 12GB (PCIe 3.0)",
        gpu=GPUConfig(
            name="Titan Xp (scaled)",
            memory_bytes=int(gibibytes(12.0) / DATASET_SCALE),
            num_sms=60,
            compute_edges_per_second=7e9,
        ),
        pcie=PCIE3_X16,
        host=HostConfig(),
        uvm=UVMConfig(),
    )


def default_system() -> SystemConfig:
    """The platform used by every experiment unless stated otherwise."""
    return volta_pcie3()
