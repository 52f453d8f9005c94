"""PCIe link model: turns request streams into transfer time and bandwidth.

The model follows §3.3 of the paper.  For a stream of read requests the link
is constrained by two ceilings:

* **Header (payload) ceiling** — every completion carries an 18-byte TLP
  header, so small requests waste a large fraction of the raw link bandwidth
  (36% overhead at 32 bytes, 12.3% at 128 bytes).
* **Latency ceiling** — the PCIe 3.0 tag field is 8 bits wide, so at most 256
  read requests can be outstanding; with a 1.0-1.6us round trip, a 32-byte
  request stream cannot exceed roughly 5-8 GB/s no matter how wide the link.

Block transfers (``cudaMemcpy``-style, used by UVM migrations and the Subway
baseline) run at the payload ceiling of maximum-size packets — the paper's
measured 12.3 GB/s (PCIe 3.0) and ~24.6 GB/s (PCIe 4.0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import DRAMConfig, PCIeConfig
from ..errors import SimulationError
from .coalescer import REQUEST_SIZES, RequestHistogram


@dataclass(frozen=True)
class LinkTransferResult:
    """Outcome of pushing a request stream (or block) through the link model."""

    payload_bytes: int
    wire_bytes: int
    num_requests: int
    link_seconds: float
    dram_bytes: int

    @property
    def achieved_payload_gbps(self) -> float:
        if self.link_seconds <= 0:
            return 0.0
        return self.payload_bytes / self.link_seconds / 1e9


class PCIeLink:
    """Analytical PCIe link shared by the zero-copy and UVM access paths."""

    def __init__(self, config: PCIeConfig, dram: DRAMConfig | None = None) -> None:
        self.config = config
        self.dram = dram or DRAMConfig()
        self._sizes = np.array(REQUEST_SIZES, dtype=np.int64)
        self._dram_touched = np.array(
            [self.dram.bytes_touched(size) for size in REQUEST_SIZES], dtype=np.int64
        )

    # ------------------------------------------------------------------ #
    # Zero-copy request streams
    # ------------------------------------------------------------------ #
    def transfer_requests(self, histogram: RequestHistogram) -> LinkTransferResult:
        """Time to serve a stream of cache-line-sector read requests."""
        counts = [histogram.counts[size] for size in REQUEST_SIZES]
        num_requests = sum(counts)
        link_seconds, dram_bytes = self.price_requests(counts)
        payload_bytes = histogram.total_bytes
        return LinkTransferResult(
            payload_bytes=payload_bytes,
            wire_bytes=payload_bytes + num_requests * self.config.tlp_header_bytes,
            num_requests=num_requests,
            link_seconds=link_seconds,
            dram_bytes=dram_bytes,
        )

    def price_requests(self, counts) -> tuple[float, int]:
        """``(link seconds, DRAM bytes)`` of a request stream given as counts
        per size, ordered like :data:`~repro.memsim.coalescer.REQUEST_SIZES`:
        one row of :meth:`price_request_rows`."""
        seconds, dram_bytes = self.price_request_rows(np.array([counts], dtype=np.int64))
        return float(seconds[0]), int(dram_bytes[0])

    def price_request_rows(self, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Link seconds and DRAM bytes of each row of a ``(rows, 4)`` matrix
        of request counts, each row one stream priced on its own.

        The link time is the larger of a header-limited and a latency-limited
        time, so streams priced apart do not add up to their sum priced once.
        Every element takes the same IEEE operations as one scalar stream, so
        a row's price does not depend on the rows beside it.
        """
        num_requests = counts.sum(axis=1)
        payload_bytes = counts @ self._sizes
        wire_bytes = payload_bytes + num_requests * self.config.tlp_header_bytes
        header_limited_seconds = wire_bytes / (self.config.raw_payload_gbps * 1e9)

        # Little's law with the 8-bit tag limit: the link cannot have more
        # than max_outstanding_reads requests in flight at once.
        rtt_seconds = self.config.round_trip_time_us * 1e-6
        latency_limited_seconds = (
            num_requests * rtt_seconds / self.config.max_outstanding_reads
        )
        dram_bytes = counts @ self._dram_touched
        return np.maximum(header_limited_seconds, latency_limited_seconds), dram_bytes

    # ------------------------------------------------------------------ #
    # Block transfers (page migrations, cudaMemcpy)
    # ------------------------------------------------------------------ #
    def transfer_block(self, num_bytes: int) -> LinkTransferResult:
        """Time for a bulk DMA transfer of ``num_bytes`` (maximum-size packets)."""
        if num_bytes < 0:
            raise SimulationError("cannot transfer a negative number of bytes")
        if num_bytes == 0:
            return LinkTransferResult(0, 0, 0, 0.0, 0)
        seconds, dram_bytes, packets = self.transfer_block_rows(
            np.array([num_bytes], dtype=np.int64)
        )
        num_packets = int(packets[0])
        return LinkTransferResult(
            payload_bytes=num_bytes,
            wire_bytes=num_bytes + num_packets * self.config.tlp_header_bytes,
            num_requests=num_packets,
            link_seconds=float(seconds[0]),
            dram_bytes=int(dram_bytes[0]),
        )

    def transfer_block_rows(
        self, num_bytes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Link seconds, DRAM bytes and packets of each of several block
        transfers (non-negative byte counts; zero bytes cost nothing)."""
        packet_payload = self.config.max_read_request_bytes
        num_packets = -(-num_bytes // packet_payload)
        wire_bytes = num_bytes + num_packets * self.config.tlp_header_bytes
        link_seconds = wire_bytes / (self.config.raw_payload_gbps * 1e9)
        dram_bytes = self.dram.bytes_touched(packet_payload) * num_packets
        return link_seconds, dram_bytes, num_packets

    # ------------------------------------------------------------------ #
    # Reference bandwidth figures
    # ------------------------------------------------------------------ #
    @property
    def memcpy_peak_gbps(self) -> float:
        """Measured-equivalent ``cudaMemcpy`` peak (the Figure 8 dashed line)."""
        return self.config.block_transfer_gbps

    def steady_state_gbps(self, request_bytes: int) -> float:
        """Achievable bandwidth for an endless stream of fixed-size requests."""
        return self.config.effective_read_gbps(request_bytes)
