"""Timing model: converts counted memory-system events into simulated time.

The traversal engine counts *events* — PCIe read requests by size, UVM page
migrations, block-transfer bytes, edges processed, kernels launched.  The
:class:`TimingModel` converts those counts into seconds using the calibrated
platform description in :mod:`repro.config`, and :class:`TrafficRecord`
accumulates the raw counts a whole run produced (the quantities the paper's
FPGA/VTune measurements report).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import SystemConfig
from ..timing import TimeBreakdown
from .coalescer import REQUEST_SIZES, RequestHistogram
from .interconnect import PCIeLink


@dataclass
class TrafficRecord:
    """Raw traffic counters accumulated over one traversal run."""

    request_histogram: RequestHistogram = field(default_factory=RequestHistogram)
    uvm_migrated_bytes: int = 0
    uvm_migrations: int = 0
    uvm_pages_touched: int = 0
    block_transfer_bytes: int = 0
    block_transfers: int = 0
    dram_bytes: int = 0
    #: Bytes of edge-list data the algorithm actually needed (useful bytes).
    useful_bytes: int = 0
    edges_processed: int = 0
    vertices_processed: int = 0
    kernel_launches: int = 0

    @property
    def zero_copy_bytes(self) -> int:
        return self.request_histogram.total_bytes

    @property
    def host_bytes_read(self) -> int:
        """All bytes moved from host memory to the GPU over the link."""
        return self.zero_copy_bytes + self.uvm_migrated_bytes + self.block_transfer_bytes

    def io_amplification(self, dataset_bytes: int) -> float:
        """Host bytes read divided by the dataset size (Figure 10)."""
        if dataset_bytes <= 0:
            return 0.0
        return self.host_bytes_read / dataset_bytes

    def counter_row(self) -> tuple[int, ...]:
        """Every integer counter, the four request sizes first, then the
        scalar counters in field order (the inverse of
        :meth:`from_counter_row`).

        Batched multi-source runs scale whole rows of these at once: the
        batch engine records one shared traffic stream, and each source's
        share is that stream scaled by the fraction of work it contributed.
        """
        counts = self.request_histogram.counts
        return (
            *(counts[size] for size in REQUEST_SIZES),
            self.uvm_migrated_bytes,
            self.uvm_migrations,
            self.uvm_pages_touched,
            self.block_transfer_bytes,
            self.block_transfers,
            self.dram_bytes,
            self.useful_bytes,
            self.edges_processed,
            self.vertices_processed,
            self.kernel_launches,
        )

    @classmethod
    def from_counter_row(cls, row) -> "TrafficRecord":
        """Rebuild a record from a :meth:`counter_row` sequence."""
        sizes = len(REQUEST_SIZES)
        return cls(RequestHistogram(dict(zip(REQUEST_SIZES, row[:sizes]))), *row[sizes:])

    def merge(self, other: "TrafficRecord") -> None:
        self.request_histogram.merge_in_place(other.request_histogram)
        self.uvm_migrated_bytes += other.uvm_migrated_bytes
        self.uvm_migrations += other.uvm_migrations
        self.uvm_pages_touched += other.uvm_pages_touched
        self.block_transfer_bytes += other.block_transfer_bytes
        self.block_transfers += other.block_transfers
        self.dram_bytes += other.dram_bytes
        self.useful_bytes += other.useful_bytes
        self.edges_processed += other.edges_processed
        self.vertices_processed += other.vertices_processed
        self.kernel_launches += other.kernel_launches


class TimingModel:
    """Calibrated cost model for one simulated platform."""

    def __init__(self, system: SystemConfig) -> None:
        self.system = system
        self.link = PCIeLink(system.pcie, system.host.dram)

    # ------------------------------------------------------------------ #
    # Data movement
    # ------------------------------------------------------------------ #
    def zero_copy_time(self, histogram: RequestHistogram) -> TimeBreakdown:
        """Time to serve a zero-copy request stream (overlapped with compute)."""
        result = self.link.transfer_requests(histogram)
        return TimeBreakdown(
            interconnect_seconds=result.link_seconds,
            dram_seconds=result.dram_bytes
            / (self.system.host.dram.sequential_bandwidth_gbps * 1e9),
        )

    def uvm_time(self, migrated_bytes: int, migrations: int) -> TimeBreakdown:
        """Time for a batch of UVM page migrations.

        The link transfer happens at full block-transfer bandwidth, but every
        migration also pays the CPU-side fault-service overhead, which is
        serial and does not shrink with a faster interconnect.
        """
        transfer = self.link.transfer_block(migrated_bytes)
        fault_seconds = migrations * self.system.uvm.fault_service_overhead_us * 1e-6
        return TimeBreakdown(
            interconnect_seconds=transfer.link_seconds,
            dram_seconds=transfer.dram_bytes
            / (self.system.host.dram.sequential_bandwidth_gbps * 1e9),
            fault_handling_seconds=fault_seconds,
        )

    def block_transfer_time(self, num_bytes: int, include_launch: bool = True) -> TimeBreakdown:
        """Time for an explicit ``cudaMemcpy`` (used by the Subway baseline)."""
        transfer = self.link.transfer_block(num_bytes)
        launch = (
            self.system.host.memcpy_launch_overhead_us * 1e-6 if include_launch else 0.0
        )
        return TimeBreakdown(
            interconnect_seconds=transfer.link_seconds,
            dram_seconds=transfer.dram_bytes
            / (self.system.host.dram.sequential_bandwidth_gbps * 1e9),
            host_preprocess_seconds=launch,
        )

    # ------------------------------------------------------------------ #
    # Compute and control
    # ------------------------------------------------------------------ #
    def compute_time(self, edges: int, vertices: int = 0) -> TimeBreakdown:
        """GPU-side processing time once the data is available."""
        gpu = self.system.gpu
        seconds = edges / gpu.compute_edges_per_second
        seconds += vertices / gpu.compute_vertices_per_second
        return TimeBreakdown(compute_seconds=seconds)

    def kernel_launch_time(self, launches: int = 1) -> TimeBreakdown:
        """Host-side launch overhead; one traversal iteration = one kernel (§4.2)."""
        seconds = launches * self.system.gpu.kernel_launch_overhead_us * 1e-6
        return TimeBreakdown(kernel_launch_seconds=seconds)

    def host_gather_time(self, edges: int) -> TimeBreakdown:
        """CPU-side subgraph compaction cost (Subway baseline, §5.6)."""
        seconds = edges * self.system.host.subgraph_gather_ns_per_edge * 1e-9
        return TimeBreakdown(host_preprocess_seconds=seconds)

    # ------------------------------------------------------------------ #
    # Reference figures
    # ------------------------------------------------------------------ #
    @property
    def memcpy_peak_gbps(self) -> float:
        return self.link.memcpy_peak_gbps
