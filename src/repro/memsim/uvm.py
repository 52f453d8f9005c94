"""Unified Virtual Memory (UVM) simulator (§2.2).

UVM serves GPU accesses to host-resident data by migrating 4KB pages on
demand.  The model tracks, for one UVM-allocated region (the CSR edge list):

* which pages are currently resident in the GPU's leftover device memory,
* LRU eviction once the resident set exceeds that capacity (page thrashing),
* the number of migrations and migrated bytes (the I/O read-amplification
  numerator of Figure 10), and
* the CPU-side fault-handling cost per migration, which is what keeps UVM
  from scaling with faster interconnects (Figure 12).

``cudaMemAdviseSetReadMostly`` (the paper's best-performing UVM configuration)
is modelled by treating migrations as read-only duplications: pages never need
to be written back on eviction.

A space replays its accesses on one of two arms over the same state: the
numpy passes below (the fallback, and the reference), or the native
``repro_uvm_replay`` kernel (:func:`repro.traversal._native.uvm_replay`), which
replays one :meth:`UVMSpace.access_byte_ranges` call — or, through
:meth:`UVMSpace.replay_lanes`, every lane of a traced word's sequence of
them, each from a reset — in one C call, in place.  The residency flags,
the last-touch clocks and one small int64 array holding the clock and the
running totals are shared, so calls on either arm may be interleaved on one
space and give bit-identical results and state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import UVMConfig
from ..errors import SimulationError
from .address_space import Allocation

_native = None


def _native_backend():
    """The native kernels module, bound on first use.

    Importing :mod:`repro.traversal` at module scope would be circular: the
    traversal package imports its engine, which imports this module.
    """
    global _native
    if _native is None:
        from ..traversal import _native as backend

        _native = backend
    return _native


#: Slots of ``UVMSpace._state`` (``repro_uvm_replay``'s layout).
_STATE_SLOTS = 5

#: Columns of :meth:`UVMSpace.replay_lanes`' counters, in
#: :class:`UVMAccessResult` field order.
COUNTER_COLUMNS = 4

_OUT_OF_BOUNDS = "access range outside the UVM allocation"

#: ``lanes`` of an unmasked replay (not read).
_NO_LANES = np.zeros(0, dtype=np.int64)

#: :meth:`UVMSpace._replay` errors by ``repro_uvm_replay`` return code.
_REPLAY_ERRORS = {
    -1: _OUT_OF_BOUNDS,
    -2: "a sweep's pages must not descend to replay its lanes natively",
    -3: "no memory to fold the sweeps for the native UVM replay",
}


@dataclass(frozen=True)
class UVMAccessResult:
    """Outcome of one batch of accesses to a UVM region."""

    pages_touched: int
    page_faults: int
    migrated_bytes: int
    evicted_pages: int

    @property
    def hit_pages(self) -> int:
        return self.pages_touched - self.page_faults


class UVMSpace:
    """Page-granular residency tracking for one UVM-managed region."""

    def __init__(
        self,
        allocation: Allocation,
        config: UVMConfig,
        capacity_pages: int,
    ) -> None:
        if capacity_pages < 0:
            raise SimulationError("capacity_pages cannot be negative")
        self.allocation = allocation
        self.config = config
        self.capacity_pages = capacity_pages
        self.num_pages = max(1, -(-allocation.size_bytes // config.page_bytes))
        self._resident = np.zeros(self.num_pages, dtype=bool)
        self._last_touch = np.zeros(self.num_pages, dtype=np.int64)
        #: The clock and the four running totals (``total_*``); see
        #: ``repro_uvm_replay``.
        self._state = np.zeros(_STATE_SLOTS, dtype=np.int64)
        self._resident_bytes = self._resident.view(np.uint8)
        # The native arm's scratch and pinned addresses, made by its first call.
        self._scratch: np.ndarray | None = None
        self._pins = None

    # ------------------------------------------------------------------ #
    # Access paths
    # ------------------------------------------------------------------ #
    def access_byte_ranges(
        self, start_bytes: np.ndarray, end_bytes: np.ndarray, native: bool = False
    ) -> UVMAccessResult:
        """Access a batch of ``[start, end)`` byte ranges within the region.

        Ranges are relative to the allocation base (element offsets times the
        element size) and are processed *in order*, the way a kernel sweeps
        the frontier's neighbor lists: the touched pages stream through the
        LRU page cache in chunks, so a working set larger than the cache
        thrashes within the iteration exactly as the paper describes (§2.2).

        ``native`` replays the call with the compiled kernel (the caller has
        checked it is wanted); its result and the state it leaves are
        exactly the numpy arm's.
        """
        start_bytes = np.asarray(start_bytes, dtype=np.int64).ravel()
        end_bytes = np.asarray(end_bytes, dtype=np.int64).ravel()
        if start_bytes.size != end_bytes.size:
            raise SimulationError("start/end arrays must have the same length")
        if native:
            counters = self._replay(
                start_bytes, end_bytes, None, np.array([0, start_bytes.size]), _NO_LANES
            )
            return UVMAccessResult(*counters[0].tolist())
        valid = end_bytes > start_bytes
        start_bytes, end_bytes = start_bytes[valid], end_bytes[valid]
        if start_bytes.size == 0:
            return UVMAccessResult(0, 0, 0, 0)
        if np.any(start_bytes < 0) or np.any(end_bytes > self.allocation.size_bytes):
            raise SimulationError(_OUT_OF_BOUNDS)

        pages = self._pages_for_ranges(start_bytes, end_bytes)
        return self._touch_streaming(pages)

    def replay_lanes(
        self,
        start_bytes: np.ndarray,
        end_bytes: np.ndarray,
        masks: np.ndarray,
        bounds: np.ndarray,
        lanes: np.ndarray,
        native: bool = False,
    ) -> np.ndarray:
        """Replay every lane of a traced word, each on a freshly reset space.

        The ranges ``bounds[k]:bounds[k + 1]`` are the word's sweep ``k``
        and ``masks`` their lane words; lane ``l`` replays, sweep by sweep,
        one :meth:`access_byte_ranges` call over the ranges carrying its
        bit — its own solo run's accesses.  Returns the calls' counters as
        a ``(lanes, sweeps, 4)`` int64 array in :class:`UVMAccessResult`
        field order.

        The numpy arm does exactly that, lane by lane and sweep by sweep,
        and is the reference.  ``native`` replays every lane in one C call
        that first folds each sweep to the pages it touches, each carrying
        the OR of the lane words of the ranges touching it: a sweep's pages
        must not descend, as a traversal frontier's ascending neighbour
        lists do not, so a lane's page stream is exactly the pages carrying
        its bit.
        """
        start_bytes = np.ascontiguousarray(start_bytes, dtype=np.int64)
        end_bytes = np.ascontiguousarray(end_bytes, dtype=np.int64)
        masks = np.ascontiguousarray(masks, dtype=np.uint64)
        bounds = np.ascontiguousarray(bounds, dtype=np.int64)
        lanes = np.ascontiguousarray(lanes, dtype=np.int64)
        if native:
            return self._replay(start_bytes, end_bytes, masks, bounds, lanes)
        counters = np.zeros((lanes.size, bounds.size - 1, COUNTER_COLUMNS), dtype=np.int64)
        for index, lane in enumerate(lanes.tolist()):
            self.reset()
            taken = (masks >> np.uint64(lane)) & np.uint64(1) != 0
            for sweep, (lo, hi) in enumerate(zip(bounds[:-1].tolist(), bounds[1:].tolist())):
                keep = taken[lo:hi]
                result = self.access_byte_ranges(
                    start_bytes[lo:hi][keep], end_bytes[lo:hi][keep]
                )
                counters[index, sweep] = (
                    result.pages_touched,
                    result.page_faults,
                    result.migrated_bytes,
                    result.evicted_pages,
                )
        return counters

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def resident_pages(self) -> int:
        return int(self._resident.sum())

    @property
    def page_bytes(self) -> int:
        return self.config.page_bytes

    def is_resident(self, page_id: int) -> bool:
        if not 0 <= page_id < self.num_pages:
            raise SimulationError(f"page {page_id} outside the UVM allocation")
        return bool(self._resident[page_id])

    def fault_handling_seconds(self, migrations: int | None = None) -> float:
        """CPU-side driver time for ``migrations`` pages, or for every page
        migrated so far (:attr:`total_faults`, the ``page_faults`` the timing
        model prices, prefetched pages included)."""
        count = self.total_faults if migrations is None else migrations
        return count * self.config.fault_service_overhead_us * 1e-6

    @property
    def total_faults(self) -> int:
        """Pages migrated so far: the sum of every call's ``page_faults``."""
        return int(self._state[1])

    @property
    def total_migrated_bytes(self) -> int:
        return int(self._state[2])

    @property
    def total_evictions(self) -> int:
        return int(self._state[3])

    def reset(self) -> None:
        """Forget every page and total, writing in place (so the native arm's
        addresses stay valid)."""
        self._resident[:] = False
        self._last_touch[:] = 0
        self._state[:] = 0
        if self._scratch is not None:
            # The chunk stamps are clock values, and the clock restarts.
            self._scratch[0] = 0

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _replay(
        self,
        start_bytes: np.ndarray,
        end_bytes: np.ndarray,
        masks: np.ndarray | None,
        bounds: np.ndarray,
        lanes: np.ndarray,
    ) -> np.ndarray:
        """The native arm: one ``repro_uvm_replay`` call; returns the
        counters, ``(segments, 4)`` unmasked, ``(lanes, segments, 4)``
        masked."""
        native = _native_backend()
        if self._scratch is None:
            self._scratch = np.zeros((3, self.num_pages), dtype=np.int64)
            self._pins = native.Pins()
        shape = (bounds.size - 1, COUNTER_COLUMNS)
        if masks is not None:
            shape = (lanes.size, *shape)
        counters = np.empty(shape, dtype=np.int64)
        code = native.uvm_replay(
            start_bytes, end_bytes, masks, bounds, lanes, self.allocation.size_bytes,
            self.config.page_bytes, self.capacity_pages, self.config.prefetch_pages,
            self._resident_bytes, self._last_touch, self._state, self._scratch,
            counters, self._pins,
        )
        if code:
            raise SimulationError(_REPLAY_ERRORS[code])
        return counters

    def _pages_for_ranges(self, start_bytes: np.ndarray, end_bytes: np.ndarray) -> np.ndarray:
        """Pages covered by each range, concatenated in range order.

        Consecutive duplicate pages are dropped from the stream: adjacent
        neighbor-list ranges usually straddle the same page (and high-degree
        frontiers repeat it thousands of times), so without the dedup the
        concatenated stream balloons far beyond the number of distinct page
        touches it encodes.  An immediately repeated touch hits the page that
        was just migrated, so the deduped stream is the more faithful model
        of the fault sequence the driver sees; note it does shift the
        fixed-size chunk boundaries of :meth:`_touch_streaming`, so thrashing
        metrics differ slightly from the pre-dedup formulation (the figure
        tolerances in ``benchmarks/`` cover the recalibration).
        """
        first_page = start_bytes // self.config.page_bytes
        last_page = (end_bytes - 1) // self.config.page_bytes
        counts = last_page - first_page + 1
        total = int(counts.sum())
        range_index = np.repeat(np.arange(first_page.size), counts)
        offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
        within = np.arange(total) - np.repeat(offsets, counts)
        pages = first_page[range_index] + within
        if pages.size > 1:
            keep = np.empty(pages.size, dtype=bool)
            keep[0] = True
            np.not_equal(pages[1:], pages[:-1], out=keep[1:])
            pages = pages[keep]
        return pages

    def _touch_streaming(self, pages: np.ndarray) -> UVMAccessResult:
        """Stream an ordered page-touch sequence through the LRU cache."""
        if pages.size == 0:
            return UVMAccessResult(0, 0, 0, 0)
        # Process the sweep in bounded chunks so a working set larger than the
        # page cache actually thrashes (one giant atomic batch would not).
        if self.capacity_pages <= 0:
            chunk_pages = 1024
        else:
            chunk_pages = max(1, self.capacity_pages // 4)
        touched = 0
        faults = 0
        migrated_bytes = 0
        evicted = 0
        for start in range(0, pages.size, chunk_pages):
            chunk = pages[start : start + chunk_pages]
            # Deduplicate within the chunk while preserving first-touch order.
            chunk = chunk[np.sort(np.unique(chunk, return_index=True)[1])]
            result = self._touch_chunk(chunk)
            touched += result.pages_touched
            faults += result.page_faults
            migrated_bytes += result.migrated_bytes
            evicted += result.evicted_pages
        return UVMAccessResult(
            pages_touched=touched,
            page_faults=faults,
            migrated_bytes=migrated_bytes,
            evicted_pages=evicted,
        )

    def _touch_chunk(self, pages: np.ndarray) -> UVMAccessResult:
        if pages.size == 0:
            return UVMAccessResult(0, 0, 0, 0)
        state = self._state
        state[0] += 1
        clock = int(state[0])
        faulting = pages[~self._resident[pages]]
        migrated: np.ndarray = np.empty(0, dtype=np.int64)
        evicted = 0
        if faulting.size:
            migrated = self._expand_to_prefetch_blocks(faulting)
            evicted = self._make_room(migrated.size, protect=pages)
            self._resident[migrated] = True
            self._last_touch[migrated] = clock
        self._last_touch[pages] = clock
        if self.capacity_pages <= 0 and migrated.size:
            # With no device-side page cache nothing stays resident: every
            # future touch of these pages will fault and migrate again.
            self._resident[migrated] = False
        migrated_bytes = int(migrated.size) * self.config.page_bytes
        state[1] += migrated.size
        state[2] += migrated_bytes
        state[3] += evicted
        state[4] += pages.size
        return UVMAccessResult(
            pages_touched=int(pages.size),
            page_faults=int(migrated.size),
            migrated_bytes=migrated_bytes,
            evicted_pages=evicted,
        )

    def _expand_to_prefetch_blocks(self, faulting_pages: np.ndarray) -> np.ndarray:
        """All non-resident pages of the prefetch blocks containing the faults.

        The driver migrates naturally-aligned ``prefetch_pages``-sized blocks;
        pages of the block that are already resident are not moved again.
        """
        granule = self.config.prefetch_pages
        if granule <= 1:
            return np.unique(faulting_pages)
        blocks = np.unique(faulting_pages // granule)
        candidates = (blocks[:, None] * granule + np.arange(granule)[None, :]).ravel()
        candidates = candidates[candidates < self.num_pages]
        return candidates[~self._resident[candidates]]

    def _make_room(self, incoming: int, protect: np.ndarray) -> int:
        """Evict LRU pages so ``incoming`` new pages fit; returns evictions."""
        if self.capacity_pages <= 0:
            # No page cache at all: everything is migrated and dropped again.
            resident_now = np.flatnonzero(self._resident)
            self._resident[resident_now] = False
            return int(resident_now.size)
        overflow = self.resident_pages + incoming - self.capacity_pages
        if overflow <= 0:
            return 0
        resident_ids = np.flatnonzero(self._resident)
        protected = np.zeros(self.num_pages, dtype=bool)
        protected[protect] = True
        candidates = resident_ids[~protected[resident_ids]]
        if candidates.size == 0:
            return 0
        overflow = min(overflow, candidates.size)
        order = np.argsort(self._last_touch[candidates], kind="stable")
        victims = candidates[order[:overflow]]
        self._resident[victims] = False
        return int(victims.size)
