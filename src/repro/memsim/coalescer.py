"""GPU coalescing-unit model: how warp accesses become PCIe read requests.

This module reproduces the access-size behaviour the paper observes with its
FPGA monitor (§3.3, Figure 3):

* A zero-copy read can be 32, 64, 96 or 128 bytes — one request per 128-byte
  cache line, sized by how many 32-byte *sectors* of that line the warp
  touches at once.
* *Strided* per-thread scans generate an individual 32-byte request every time
  a thread crosses a sector boundary (Figure 3a).
* A warp reading 32 consecutive elements is *merged* by the coalescing unit
  into maximum-size requests (Figure 3b); if the warp's span is not 128-byte
  aligned, the first and last lines produce smaller (e.g. 32B + 96B) requests
  (Figure 3c).

Everything here is pure address arithmetic; the heavy-weight entry points are
vectorized with numpy so multi-million-edge traversals coalesce in bulk.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from ..errors import SimulationError

#: Size of one GPU cache-line sector — the smallest zero-copy request.
SECTOR_BYTES = 32

#: Size of one full GPU cache line — the largest zero-copy request.
CACHELINE_BYTES = 128

#: Number of sectors per cache line.
SECTORS_PER_LINE = CACHELINE_BYTES // SECTOR_BYTES

#: The four request sizes the FPGA monitor observes (§3.3).
REQUEST_SIZES = tuple(SECTOR_BYTES * i for i in range(1, SECTORS_PER_LINE + 1))


@dataclass
class RequestHistogram:
    """Count of PCIe read requests per request size (32/64/96/128 bytes)."""

    counts: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for size in self.counts:
            self._check_size(size)
        for size in REQUEST_SIZES:
            self.counts.setdefault(size, 0)

    @staticmethod
    def _check_size(size: int) -> None:
        if size not in REQUEST_SIZES:
            raise SimulationError(
                f"invalid PCIe request size {size}; must be one of {REQUEST_SIZES}"
            )

    @classmethod
    def from_array(cls, per_size_counts: np.ndarray) -> "RequestHistogram":
        """Build from a length-4 array ordered ``[32B, 64B, 96B, 128B]``."""
        per_size_counts = np.asarray(per_size_counts).ravel()
        if per_size_counts.size != len(REQUEST_SIZES):
            raise SimulationError("per_size_counts must have four entries")
        return cls(
            {size: int(count) for size, count in zip(REQUEST_SIZES, per_size_counts)}
        )

    @classmethod
    def single(cls, size: int, count: int = 1) -> "RequestHistogram":
        cls._check_size(size)
        return cls({size: count})

    def add(self, size: int, count: int = 1) -> None:
        self._check_size(size)
        if count < 0:
            raise SimulationError("request counts cannot be negative")
        self.counts[size] += count

    def merge(self, other: "RequestHistogram") -> "RequestHistogram":
        """Return a new histogram combining both operands."""
        merged = {size: self.counts[size] + other.counts[size] for size in REQUEST_SIZES}
        return RequestHistogram(merged)

    def merge_in_place(self, other: "RequestHistogram") -> None:
        for size in REQUEST_SIZES:
            self.counts[size] += other.counts[size]

    @property
    def total_requests(self) -> int:
        return sum(self.counts.values())

    @property
    def total_bytes(self) -> int:
        return sum(size * count for size, count in self.counts.items())

    def fraction(self, size: int) -> float:
        """Fraction of requests that have the given size (0 if empty)."""
        self._check_size(size)
        total = self.total_requests
        if total == 0:
            return 0.0
        return self.counts[size] / total

    def distribution(self) -> dict[int, float]:
        """Request-size distribution as fractions (the Figure 5 quantity)."""
        return {size: self.fraction(size) for size in REQUEST_SIZES}

    def as_array(self) -> np.ndarray:
        return np.array([self.counts[size] for size in REQUEST_SIZES], dtype=np.int64)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RequestHistogram):
            return NotImplemented
        return self.counts == other.counts

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(f"{size}B: {self.counts[size]}" for size in REQUEST_SIZES)
        return f"RequestHistogram({parts})"


def coalesce_warp_addresses(
    byte_addresses: np.ndarray,
    access_bytes: int = 8,
    active_mask: np.ndarray | None = None,
) -> RequestHistogram:
    """Coalesce one warp memory instruction given per-lane byte addresses.

    This is the exact (per-warp) model: the touched 32-byte sectors are
    grouped by 128-byte cache line and each line produces one request whose
    size covers the touched sectors within it.  Used by the toy-example
    kernels and by tests; the bulk traversal paths use the vectorized
    span-based functions below.
    """
    byte_addresses = np.asarray(byte_addresses, dtype=np.int64).ravel()
    if active_mask is not None:
        active_mask = np.asarray(active_mask, dtype=bool).ravel()
        if active_mask.size != byte_addresses.size:
            raise SimulationError("active_mask must match byte_addresses length")
        byte_addresses = byte_addresses[active_mask]
    if byte_addresses.size == 0:
        return RequestHistogram()
    if np.any(byte_addresses < 0):
        raise SimulationError("byte addresses cannot be negative")
    # Every lane touches the sectors its access spans (usually exactly one).
    first_sector = byte_addresses // SECTOR_BYTES
    last_sector = (byte_addresses + access_bytes - 1) // SECTOR_BYTES
    sectors = np.unique(
        np.concatenate(
            [np.arange(f, l + 1) for f, l in zip(first_sector, last_sector)]
        )
    )
    lines = sectors // SECTORS_PER_LINE
    histogram = RequestHistogram()
    for line in np.unique(lines):
        in_line = sectors[lines == line]
        low = int(in_line.min() % SECTORS_PER_LINE)
        high = int(in_line.max() % SECTORS_PER_LINE)
        histogram.add((high - low + 1) * SECTOR_BYTES)
    return histogram


def coalesce_contiguous_spans(
    span_start_bytes: np.ndarray, span_end_bytes: np.ndarray
) -> RequestHistogram:
    """Coalesce many *contiguous* warp accesses, one request per touched line.

    Each span ``[start, end)`` represents one warp instruction in which the
    active lanes read consecutive bytes (the Merged kernels of §4.3.1).  For
    every 128-byte line a span touches, one request is generated covering the
    touched 32-byte sectors of that line, exactly as in Figure 3(b)/(c).

    Fully vectorized: runs in O(number of spans).
    """
    start = np.asarray(span_start_bytes, dtype=np.int64).ravel()
    end = np.asarray(span_end_bytes, dtype=np.int64).ravel()
    if start.size != end.size:
        raise SimulationError("span start/end arrays must have the same length")
    valid = end > start
    start, end = start[valid], end[valid]
    if start.size == 0:
        return RequestHistogram()
    if np.any(start < 0):
        raise SimulationError("span addresses cannot be negative")

    first_sector = start // SECTOR_BYTES
    last_sector = (end - 1) // SECTOR_BYTES
    first_line = first_sector // SECTORS_PER_LINE
    last_line = last_sector // SECTORS_PER_LINE
    num_lines = last_line - first_line + 1

    counts = np.zeros(len(REQUEST_SIZES), dtype=np.int64)

    # Spans confined to a single cache line: one request sized by the sector span.
    single = num_lines == 1
    if np.any(single):
        sizes = (last_sector[single] - first_sector[single] + 1).astype(np.int64)
        counts += np.bincount(sizes - 1, minlength=len(REQUEST_SIZES))[: len(REQUEST_SIZES)]

    # Spans covering several lines: a head request, full-line middles, a tail request.
    multi = ~single
    if np.any(multi):
        head_sectors = SECTORS_PER_LINE - (first_sector[multi] % SECTORS_PER_LINE)
        tail_sectors = (last_sector[multi] % SECTORS_PER_LINE) + 1
        counts += np.bincount(head_sectors - 1, minlength=len(REQUEST_SIZES))[
            : len(REQUEST_SIZES)
        ]
        counts += np.bincount(tail_sectors - 1, minlength=len(REQUEST_SIZES))[
            : len(REQUEST_SIZES)
        ]
        counts[SECTORS_PER_LINE - 1] += int((num_lines[multi] - 2).sum())

    return RequestHistogram.from_array(counts)


def strided_request_counts(
    span_start_bytes: np.ndarray, span_end_bytes: np.ndarray
) -> RequestHistogram:
    """Requests generated by per-thread sequential scans (Naive / Figure 3a).

    Each span ``[start, end)`` is scanned by a *single* thread one element at
    a time; the thread issues a new 32-byte request whenever it crosses a
    sector boundary, so the span produces one 32-byte request per touched
    sector.  Cross-thread merging is extremely rare in this pattern (§5.3.1
    reports 1.3% of requests larger than 32B on FS) and is ignored here; the
    approximation is documented in DESIGN.md.
    """
    start = np.asarray(span_start_bytes, dtype=np.int64).ravel()
    end = np.asarray(span_end_bytes, dtype=np.int64).ravel()
    if start.size != end.size:
        raise SimulationError("span start/end arrays must have the same length")
    valid = end > start
    start, end = start[valid], end[valid]
    if start.size == 0:
        return RequestHistogram()
    if np.any(start < 0):
        raise SimulationError("span addresses cannot be negative")
    sectors = (end - 1) // SECTOR_BYTES - start // SECTOR_BYTES + 1
    return RequestHistogram.single(SECTOR_BYTES, int(sectors.sum()))


def merged_warp_spans(
    start_elements: np.ndarray,
    end_elements: np.ndarray,
    element_bytes: int,
    base_address: int = 0,
    warp_size: int = 32,
    aligned: bool = False,
    align_bytes: int = CACHELINE_BYTES,
) -> tuple[np.ndarray, np.ndarray]:
    """Expand per-vertex neighbor ranges into per-warp-iteration byte spans.

    This models the Merged (and Merged+Aligned) kernels of Listing 2: one
    warp walks one vertex's neighbor list ``warp_size`` elements at a time.
    When ``aligned`` is True the walk starts at the closest preceding
    ``align_bytes`` boundary with the leading lanes masked off, so every
    iteration's span begins on a 128-byte boundary.

    Returns two arrays (span start / end byte addresses) with one entry per
    warp iteration across all vertices, ready for
    :func:`coalesce_contiguous_spans`.
    """
    starts = np.asarray(start_elements, dtype=np.int64).ravel()
    ends = np.asarray(end_elements, dtype=np.int64).ravel()
    if starts.size != ends.size:
        raise SimulationError("start/end element arrays must have the same length")
    if element_bytes <= 0 or align_bytes % element_bytes != 0:
        raise SimulationError("element_bytes must divide the alignment boundary")
    nonempty = ends > starts
    starts, ends = starts[nonempty], ends[nonempty]
    if starts.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty

    elements_per_boundary = align_bytes // element_bytes
    if aligned:
        # Listing 2 aligns the *element index* (start & ~0xF for 8-byte data);
        # this equals address alignment whenever the allocation base is
        # 128-byte aligned, which the CUDA pinned-memory allocators guarantee.
        walk_base = starts - (starts % elements_per_boundary)
    else:
        walk_base = starts

    iterations = -(-(ends - walk_base) // warp_size)
    total = int(iterations.sum())
    vertex_of_iteration = np.repeat(np.arange(starts.size), iterations)
    iteration_offsets = np.concatenate(([0], np.cumsum(iterations)[:-1]))
    local_iteration = np.arange(total) - np.repeat(iteration_offsets, iterations)

    iteration_base = walk_base[vertex_of_iteration] + local_iteration * warp_size
    span_start = np.maximum(iteration_base, starts[vertex_of_iteration])
    span_end = np.minimum(iteration_base + warp_size, ends[vertex_of_iteration])

    span_start_bytes = base_address + span_start * element_bytes
    span_end_bytes = base_address + span_end * element_bytes
    return span_start_bytes, span_end_bytes


def naive_thread_spans(
    start_elements: np.ndarray,
    end_elements: np.ndarray,
    element_bytes: int,
    base_address: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Byte spans scanned by single threads in the Naive kernel (Listing 1)."""
    starts = np.asarray(start_elements, dtype=np.int64).ravel()
    ends = np.asarray(end_elements, dtype=np.int64).ravel()
    if starts.size != ends.size:
        raise SimulationError("start/end element arrays must have the same length")
    return (
        base_address + starts * element_bytes,
        base_address + ends * element_bytes,
    )


#: Request tables of every live offsets array, each with its column totals:
#: ``id(offsets) -> {walk: (table, totals)}``.  A finalizer drops an array's
#: entry when the array is freed.
_REQUEST_TABLES: dict[int, dict[tuple, tuple[np.ndarray, np.ndarray]]] = {}


def vertex_request_table(
    offsets: np.ndarray,
    element_bytes: int,
    base_address: int = 0,
    warp_size: int = 32,
    aligned: bool = False,
    strided: bool = False,
) -> np.ndarray:
    """Per-vertex zero-copy request counts of one walk over a CSR edge list.

    Row ``v`` counts the requests issued while scanning vertex ``v``'s
    neighbor range ``[offsets[v], offsets[v + 1])``.  The coalescer merges
    lanes only within one warp instruction (Figure 3b/c) and a Naive thread
    scans only its own range, so no request serves two vertices and the
    histogram of any frontier is ``table[frontier].sum(0)``.

    The merged walk (Listing 2; ``aligned`` for Merged+Aligned) gives a
    ``(V, 4)`` table ordered like :data:`REQUEST_SIZES`, row for row equal to
    :func:`coalesce_contiguous_spans` of :func:`merged_warp_spans`.  The
    ``strided`` walk (Listing 1) gives a ``(V,)`` column of 32-byte sector
    counts, equal to :func:`strided_request_counts` of
    :func:`naive_thread_spans`; cache-thrashing refetches depend on a whole
    iteration's totals and are not in it.

    A row depends only on the range, ``element_bytes``, the base address
    modulo one cache line, ``warp_size`` and ``aligned``, so each table is
    built once per offsets array and memoised by the array's identity; the
    memo entry goes when the array does.  The returned array is shared and
    read-only.
    """
    return _memoised_table(
        offsets, element_bytes, base_address, warp_size, aligned, strided
    )[0]


def vertex_request_totals(
    offsets: np.ndarray,
    element_bytes: int,
    base_address: int = 0,
    warp_size: int = 32,
    aligned: bool = False,
    strided: bool = False,
) -> np.ndarray:
    """Column totals of :func:`vertex_request_table`: the every-vertex histogram.

    A frontier holding every vertex once (CC's first iteration, every
    PageRank iteration) requests ``table.sum(0)``; a table is immutable, so
    the totals are memoised beside it.  The returned array is shared and
    read-only: shape ``(4,)`` for the merged walk, ``()`` for the strided one.
    """
    return _memoised_table(
        offsets, element_bytes, base_address, warp_size, aligned, strided
    )[1]


def _memoised_table(
    offsets: np.ndarray,
    element_bytes: int,
    base_address: int,
    warp_size: int,
    aligned: bool,
    strided: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """The memo entry ``(table, totals)`` of one walk over ``offsets``."""
    key = (element_bytes, base_address % CACHELINE_BYTES, warp_size, aligned, strided)
    tables = _REQUEST_TABLES.get(id(offsets))
    if tables is None:
        fresh: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
        tables = _REQUEST_TABLES.setdefault(id(offsets), fresh)
        if tables is fresh:
            weakref.finalize(offsets, _REQUEST_TABLES.pop, id(offsets), None)
    entry = tables.get(key)
    if entry is None:
        # Threads racing on a missing table each build an equal one;
        # setdefault keeps the first.
        table = _build_request_table(offsets, *key)
        totals = np.asarray(table.sum(axis=0))
        totals.flags.writeable = False
        entry = tables.setdefault(key, (table, totals))
    return entry


def _build_request_table(
    offsets: np.ndarray,
    element_bytes: int,
    base_address: int,
    warp_size: int,
    aligned: bool,
    strided: bool,
) -> np.ndarray:
    """The table :func:`vertex_request_table` memoises, built in one pass."""
    offsets = np.asarray(offsets, dtype=np.int64)
    starts, ends = offsets[:-1], offsets[1:]
    if strided:
        first_sector = (base_address + starts * element_bytes) // SECTOR_BYTES
        last_sector = (base_address + ends * element_bytes - 1) // SECTOR_BYTES
        table = np.where(ends > starts, last_sector - first_sector + 1, 0)
    else:
        span_start, span_end = merged_warp_spans(
            starts, ends, element_bytes, base_address, warp_size, aligned
        )
        # A warp narrower than an alignment boundary can walk a fully
        # masked-off iteration; it issues nothing.
        issued = span_end > span_start
        span_start, span_end = span_start[issued], span_end[issued]
        # Spans come out in vertex order, each inside its vertex's range, so
        # a span's owner is the last vertex whose range starts at or before it.
        vertex_start = base_address + starts * element_bytes
        owner = np.searchsorted(vertex_start, span_start, side="right") - 1
        first_sector = span_start // SECTOR_BYTES
        last_sector = (span_end - 1) // SECTOR_BYTES
        lines = last_sector // SECTORS_PER_LINE - first_sector // SECTORS_PER_LINE + 1
        multi = lines > 1
        # A request's size class is its sector count minus one.  A span inside
        # one line is one request; a longer span is a head request, a tail
        # request and full lines between them.
        head = np.where(
            multi,
            SECTORS_PER_LINE - 1 - first_sector % SECTORS_PER_LINE,
            last_sector - first_sector,
        )
        tail = last_sector[multi] % SECTORS_PER_LINE
        cells = starts.size * SECTORS_PER_LINE
        table = np.bincount(owner * SECTORS_PER_LINE + head, minlength=cells)
        table += np.bincount(owner[multi] * SECTORS_PER_LINE + tail, minlength=cells)
        table = table.reshape(starts.size, SECTORS_PER_LINE)
        middles = np.bincount(owner[multi], weights=lines[multi] - 2, minlength=starts.size)
        table[:, -1] += middles.astype(np.int64)
    table.flags.writeable = False
    return table
