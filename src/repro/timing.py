"""Time and bandwidth helpers shared by the memory and traversal simulators.

All simulated times are expressed in seconds and all bandwidths in GB/s
(decimal gigabytes, matching how the paper quotes PCIe and DRAM figures).
"""

from __future__ import annotations

from dataclasses import dataclass, field

GB = 1e9


def us(value: float) -> float:
    """Microseconds to seconds."""
    return value * 1e-6


def ns(value: float) -> float:
    """Nanoseconds to seconds."""
    return value * 1e-9


def to_gbps(num_bytes: float, seconds: float) -> float:
    """Bytes over seconds to GB/s; returns 0 for a zero-length interval."""
    if seconds <= 0.0:
        return 0.0
    return num_bytes / seconds / GB


def transfer_seconds(num_bytes: float, bandwidth_gbps: float) -> float:
    """Time to move ``num_bytes`` at ``bandwidth_gbps`` GB/s."""
    if num_bytes < 0:
        raise ValueError("cannot transfer a negative number of bytes")
    if bandwidth_gbps <= 0:
        raise ValueError("bandwidth must be positive")
    return num_bytes / (bandwidth_gbps * GB)


@dataclass
class TimeBreakdown:
    """Accumulated per-component times for one traversal run.

    The total is *not* simply the sum: interconnect transfer and GPU compute
    largely overlap in the real system, so :meth:`total` models the run as the
    serial CPU-side costs plus the maximum of the overlapping components.
    """

    interconnect_seconds: float = 0.0
    dram_seconds: float = 0.0
    compute_seconds: float = 0.0
    fault_handling_seconds: float = 0.0
    host_preprocess_seconds: float = 0.0
    kernel_launch_seconds: float = 0.0
    extra: dict[str, float] = field(default_factory=dict)

    def add(self, other: "TimeBreakdown") -> None:
        """Accumulate another breakdown into this one in place."""
        self.interconnect_seconds += other.interconnect_seconds
        self.dram_seconds += other.dram_seconds
        self.compute_seconds += other.compute_seconds
        self.fault_handling_seconds += other.fault_handling_seconds
        self.host_preprocess_seconds += other.host_preprocess_seconds
        self.kernel_launch_seconds += other.kernel_launch_seconds
        for key, value in other.extra.items():
            self.extra[key] = self.extra.get(key, 0.0) + value

    def components(self) -> tuple[float, float, float, float, float, float]:
        """The six fixed components in field order (``extra`` excluded).

        ``TimeBreakdown(*components)`` rebuilds the breakdown; the engine
        prices sweeps as rows of these, and a BFS/SSSP lane's run-level
        breakdown is its sweeps' rows accumulated in order.
        """
        return (
            self.interconnect_seconds,
            self.dram_seconds,
            self.compute_seconds,
            self.fault_handling_seconds,
            self.host_preprocess_seconds,
            self.kernel_launch_seconds,
        )

    def overlapped_transfer_seconds(self) -> float:
        """The data-movement critical path (link, DRAM and compute overlap)."""
        return max(self.interconnect_seconds, self.dram_seconds, self.compute_seconds)

    def total(self) -> float:
        """End-to-end simulated wall-clock time for the run."""
        serial = (
            self.fault_handling_seconds
            + self.host_preprocess_seconds
            + self.kernel_launch_seconds
            + sum(self.extra.values())
        )
        return serial + self.overlapped_transfer_seconds()
