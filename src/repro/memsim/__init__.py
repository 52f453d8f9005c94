"""Memory-system simulator: coalescing, PCIe, zero-copy, UVM, DRAM.

This package is the stand-in for the hardware the paper measures with an FPGA
PCIe monitor (§3.2): it turns the memory access streams generated by the
traversal kernels into PCIe read requests (with the exact 32/64/96/128-byte
merging behaviour of Figure 3), UVM page migrations, DRAM traffic, and finally
simulated time via the calibrated link model.
"""

from .address_space import AddressSpace, Allocation
from .coalescer import (
    RequestHistogram,
    coalesce_contiguous_spans,
    coalesce_warp_addresses,
    merged_warp_spans,
    strided_request_counts,
    vertex_request_table,
)
from .dram import DRAMModel
from .gpu_memory import DeviceMemory
from .interconnect import PCIeLink
from .metrics import TrafficRecord
from .monitor import PCIeTrafficMonitor
from .uvm import UVMSpace
from .zero_copy import ZeroCopyRegion

__all__ = [
    "AddressSpace",
    "Allocation",
    "RequestHistogram",
    "coalesce_contiguous_spans",
    "coalesce_warp_addresses",
    "merged_warp_spans",
    "strided_request_counts",
    "vertex_request_table",
    "DRAMModel",
    "DeviceMemory",
    "PCIeLink",
    "TrafficRecord",
    "PCIeTrafficMonitor",
    "UVMSpace",
    "ZeroCopyRegion",
]
