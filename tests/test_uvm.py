"""Tests for the UVM page-migration simulator, on both of its arms."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import UVMConfig, default_system
from repro.errors import SimulationError
from repro.memsim.address_space import AddressSpace
from repro.memsim.gpu_memory import DeviceMemory
from repro.memsim.metrics import TimingModel
from repro.memsim.uvm import UVMSpace
from repro.traversal import _native
from repro.types import MemorySpace

PAGE = 4096


def make_uvm(
    size_pages=64, capacity_pages=16, prefetch_pages=1, overhead_us=0.12, size_bytes=None
):
    device = DeviceMemory(capacity_bytes=max(capacity_pages, 1) * PAGE + PAGE)
    space = AddressSpace(device)
    if size_bytes is None:
        size_bytes = size_pages * PAGE
    allocation = space.allocate("edges", size_bytes, MemorySpace.UVM)
    config = UVMConfig(
        page_bytes=PAGE,
        fault_service_overhead_us=overhead_us,
        prefetch_pages=prefetch_pages,
    )
    return UVMSpace(allocation, config, capacity_pages=capacity_pages)


def touch(uvm, *pages, native=False):
    """Access each of ``pages`` whole, in order, as one batch of ranges."""
    starts = np.array(pages, dtype=np.int64) * PAGE
    return uvm.access_byte_ranges(starts, starts + PAGE, native=native)


class TestBasicMigration:
    def test_first_touch_faults(self):
        uvm = make_uvm()
        result = uvm.access_byte_ranges(np.array([0]), np.array([PAGE]))
        assert result.pages_touched == 1
        assert result.page_faults == 1
        assert result.migrated_bytes == PAGE
        assert uvm.is_resident(0)

    def test_second_touch_hits(self):
        uvm = make_uvm()
        uvm.access_byte_ranges(np.array([0]), np.array([PAGE]))
        result = uvm.access_byte_ranges(np.array([0]), np.array([PAGE]))
        assert result.page_faults == 0
        assert result.hit_pages == 1

    def test_range_spanning_pages(self):
        uvm = make_uvm()
        result = uvm.access_byte_ranges(np.array([100]), np.array([3 * PAGE + 10]))
        assert result.pages_touched == 4
        assert result.page_faults == 4

    def test_multiple_ranges_sharing_a_page_count_once(self):
        uvm = make_uvm()
        result = uvm.access_byte_ranges(
            np.array([0, 128, 256]), np.array([64, 192, 320])
        )
        assert result.pages_touched == 1
        assert result.page_faults == 1

    def test_empty_and_zero_length_ranges(self):
        uvm = make_uvm()
        result = uvm.access_byte_ranges(np.array([10]), np.array([10]))
        assert result.pages_touched == 0
        result = uvm.access_byte_ranges(np.array([]), np.array([]))
        assert result.pages_touched == 0

    def test_out_of_bounds_rejected(self):
        uvm = make_uvm(size_pages=2)
        with pytest.raises(SimulationError):
            uvm.access_byte_ranges(np.array([0]), np.array([3 * PAGE]))
        with pytest.raises(SimulationError):
            uvm.access_byte_ranges(np.array([-1]), np.array([10]))

    def test_mismatched_arrays_rejected(self):
        uvm = make_uvm()
        with pytest.raises(SimulationError):
            uvm.access_byte_ranges(np.array([0, 1]), np.array([10]))


class TestCapacityAndEviction:
    def test_graph_fitting_in_memory_never_remigrates(self):
        """The SK case: once everything is resident, amplification stays 1.0."""
        uvm = make_uvm(size_pages=8, capacity_pages=16)
        for _ in range(5):
            uvm.access_byte_ranges(np.array([0]), np.array([8 * PAGE]))
        assert uvm.total_migrated_bytes == 8 * PAGE

    def test_working_set_larger_than_cache_thrashes(self):
        """Repeated sweeps over a too-large region must keep migrating pages."""
        uvm = make_uvm(size_pages=64, capacity_pages=16)
        uvm.access_byte_ranges(np.array([0]), np.array([64 * PAGE]))
        first_pass = uvm.total_migrated_bytes
        uvm.access_byte_ranges(np.array([0]), np.array([64 * PAGE]))
        assert uvm.total_migrated_bytes > first_pass
        assert uvm.resident_pages <= 16 + 16  # capacity plus one in-flight chunk

    def test_eviction_is_lru(self):
        uvm = make_uvm(size_pages=8, capacity_pages=2)
        touch(uvm, 0)
        touch(uvm, 1)
        touch(uvm, 2)  # should evict page 0, the oldest
        assert not uvm.is_resident(0)
        assert uvm.is_resident(1)
        assert uvm.is_resident(2)

    def test_zero_capacity_always_faults(self):
        uvm = make_uvm(size_pages=4, capacity_pages=0)
        touch(uvm, 1)
        touch(uvm, 1)
        assert uvm.total_faults == 2

    def test_evictions_counted(self):
        uvm = make_uvm(size_pages=32, capacity_pages=4)
        uvm.access_byte_ranges(np.array([0]), np.array([32 * PAGE]))
        assert uvm.total_evictions > 0


class TestPrefetchGranularity:
    def test_fault_migrates_whole_prefetch_block(self):
        uvm = make_uvm(size_pages=64, capacity_pages=64, prefetch_pages=4)
        result = touch(uvm, 5)
        assert result.page_faults == 4  # pages 4..7
        assert uvm.is_resident(4) and uvm.is_resident(7)
        assert not uvm.is_resident(8)

    def test_resident_pages_of_block_not_migrated_again(self):
        uvm = make_uvm(size_pages=64, capacity_pages=64, prefetch_pages=4)
        touch(uvm, 5)
        result = touch(uvm, 6)
        assert result.page_faults == 0

    def test_block_clamped_at_region_end(self):
        uvm = make_uvm(size_pages=6, capacity_pages=16, prefetch_pages=4)
        result = touch(uvm, 5)
        assert result.page_faults == 2  # pages 4 and 5 only

    def test_prefetch_increases_amplification_for_sparse_access(self):
        sparse_pages = (0, 16, 32, 48)
        no_prefetch = make_uvm(size_pages=64, capacity_pages=64, prefetch_pages=1)
        with_prefetch = make_uvm(size_pages=64, capacity_pages=64, prefetch_pages=8)
        touch(no_prefetch, *sparse_pages)
        touch(with_prefetch, *sparse_pages)
        assert with_prefetch.total_migrated_bytes > no_prefetch.total_migrated_bytes


class TestAccounting:
    def test_fault_handling_seconds(self):
        uvm = make_uvm(overhead_us=0.5)
        uvm.access_byte_ranges(np.array([0]), np.array([4 * PAGE]))
        assert uvm.fault_handling_seconds() == pytest.approx(4 * 0.5e-6)
        assert uvm.fault_handling_seconds(10) == pytest.approx(10 * 0.5e-6)

    def test_reset(self):
        uvm = make_uvm()
        uvm.access_byte_ranges(np.array([0]), np.array([2 * PAGE]))
        uvm.reset()
        assert uvm.total_faults == 0
        assert uvm.resident_pages == 0
        assert uvm.total_migrated_bytes == 0

    def test_invalid_page_queries(self):
        uvm = make_uvm(size_pages=4)
        with pytest.raises(SimulationError):
            uvm.is_resident(99)
        with pytest.raises(SimulationError):
            touch(uvm, 99)

    def test_negative_capacity_rejected(self):
        with pytest.raises(SimulationError):
            make_uvm(capacity_pages=-1)


ARMS = [
    False,
    pytest.param(
        True,
        marks=pytest.mark.skipif(not _native.available(), reason="native kernels unavailable"),
    ),
]


@pytest.mark.parametrize("native", ARMS, ids=["numpy", "native"])
def test_fault_handling_seconds_is_what_the_engine_charges(native):
    """Regression: ``total_faults`` counted first-touch pages, while each
    call's ``page_faults`` (what the timing model prices) counts the whole
    prefetch expansion, so ``fault_handling_seconds()`` read 16x low."""
    uvm = make_uvm(size_pages=64, capacity_pages=64, prefetch_pages=16)
    timing = TimingModel(replace(default_system(), uvm=uvm.config))
    results = [touch(uvm, 0, 20, native=native), touch(uvm, 40, 5, native=native)]
    assert [result.page_faults for result in results] == [32, 16]
    assert uvm.total_faults == 48
    charged = sum(
        timing.uvm_time(result.migrated_bytes, result.page_faults).fault_handling_seconds
        for result in results
    )
    assert uvm.fault_handling_seconds() == pytest.approx(charged)


@pytest.mark.parametrize("native", ARMS, ids=["numpy", "native"])
def test_a_chunk_never_evicts_its_own_pages(native):
    uvm = make_uvm(size_pages=64, capacity_pages=8, prefetch_pages=16)
    touch(uvm, 0, native=native)  # one 16-page block: twice what the cache holds
    # One chunk (capacity // 4 = 2 pages): page 20's block overflows the
    # cache by 24, but page 1 is the chunk's own and stays.
    result = touch(uvm, 20, 1, native=native)
    assert result.page_faults == 16
    assert result.evicted_pages == 15
    assert uvm.is_resident(1) and not uvm.is_resident(0)


@st.composite
def uvm_call_sequences(draw):
    """A region (not always a whole number of pages), a page cache from
    none to larger than the region, a prefetch granule, and a sequence of
    calls on the one space, with ``reset()``s (``None``) among them.  A call's
    ranges may be empty, zero-length or negative, straddle pages, repeat, or
    come in descending order; one call in ten has a range out of bounds."""
    size_pages = draw(st.integers(1, 80))
    size_bytes = max(1, size_pages * PAGE - draw(st.sampled_from((0, 1, PAGE // 2, PAGE - 1))))
    # Chunks of two or more pages (capacity >= 8) under 16-page prefetch can
    # overflow the cache by more than the resident pages outside the chunk.
    capacity = draw(
        st.sampled_from((0, 1, 2, 3, 5, 8, 17, max(1, size_pages // 3), size_pages + 8))
    )
    prefetch = draw(st.sampled_from((1, 2, 16)))
    one_range = st.tuples(st.integers(0, size_bytes), st.integers(-PAGE, 3 * PAGE))
    calls = []
    for _ in range(draw(st.integers(1, 8))):
        if draw(st.integers(0, 9)) == 0:
            calls.append(None)
            continue
        ranges = draw(st.lists(one_range, max_size=25))
        ranges += ranges[: draw(st.integers(0, 4))]
        if draw(st.booleans()):
            ranges.sort(reverse=True)
        starts = np.array([start for start, _ in ranges], dtype=np.int64)
        lengths = np.array([length for _, length in ranges], dtype=np.int64)
        ends = np.minimum(starts + lengths, size_bytes)
        if ranges and draw(st.integers(0, 9)) == 0:
            index = draw(st.integers(0, len(ranges) - 1))
            if draw(st.booleans()):
                ends[index] = size_bytes + draw(st.integers(1, PAGE))
            else:
                starts[index] = -draw(st.integers(1, PAGE))
                ends[index] = max(ends[index], 1)
        calls.append((starts, ends))
    return size_bytes, capacity, prefetch, calls


def _state(uvm):
    """Everything a call may change: residency, last touches, the clock and
    the four totals."""
    return uvm._resident.tobytes(), uvm._last_touch.tobytes(), uvm._state[:5].tolist()


@pytest.mark.skipif(not _native.available(), reason="native kernels unavailable")
class TestNativeReplay:
    """``repro_uvm_replay`` against the numpy arm it replays."""

    @given(sequence=uvm_call_sequences())
    @settings(max_examples=300, deadline=None)
    def test_native_replays_the_numpy_arm_exactly(self, sequence):
        """Three spaces take the same calls: numpy only, native only, and
        the arms alternating on one space.  Every result, and the state every
        call leaves, is the same; an out-of-range call raises on every arm
        and changes nothing."""
        size_bytes, capacity, prefetch, calls = sequence
        spaces = [
            make_uvm(capacity_pages=capacity, prefetch_pages=prefetch, size_bytes=size_bytes)
            for _ in range(3)
        ]
        for number, call in enumerate(calls):
            if call is None:
                for space in spaces:
                    space.reset()
                continue
            before = _state(spaces[0])
            results = []
            for space, native in zip(spaces, (False, True, number % 2 == 1)):
                try:
                    results.append(space.access_byte_ranges(*call, native=native))
                except SimulationError:
                    results.append(None)
            assert results[0] == results[1] == results[2]
            if results[0] is None:
                assert _state(spaces[0]) == before
            assert _state(spaces[0]) == _state(spaces[1]) == _state(spaces[2])

    def test_replay_checks_its_buffers(self):
        uvm = make_uvm(size_pages=4)
        starts = np.array([0], dtype=np.int64)
        segments = (None, np.array([0, 1]), np.zeros(0, dtype=np.int64))
        buffers = [uvm._resident_bytes, uvm._last_touch, uvm._state, np.zeros((3, 4), np.int64)]
        counters = np.zeros((1, 4), dtype=np.int64)
        args = (uvm.allocation.size_bytes, PAGE, 16, 1)
        with pytest.raises(ValueError, match="do not match"):
            _native.uvm_replay(starts, starts[:0], *segments, *args, *buffers, counters)
        with pytest.raises(ValueError, match="do not match"):
            _native.uvm_replay(
                starts, starts + 1, *segments, *args, *buffers[:3], np.zeros(11, np.int64),
                counters,
            )
        with pytest.raises(ValueError, match="do not match"):
            _native.uvm_replay(starts, starts + 1, *segments, *args, *buffers, counters[:, :3])
        with pytest.raises(ValueError, match="bounds must be ascending"):
            _native.uvm_replay(
                starts, starts + 1, None, np.array([0, 2]), *segments[2:], *args, *buffers,
                counters,
            )
        with pytest.raises(ValueError, match="C-contiguous int64"):
            _native.uvm_replay(
                starts.astype(np.float64), starts + 1.0, *segments, *args, *buffers, counters
            )
        with pytest.raises(ValueError, match="C-contiguous uint8"):
            _native.uvm_replay(
                starts, starts + 1, *segments, *args, uvm._resident, *buffers[1:], counters
            )
        assert _native.uvm_replay(starts, starts + 1, *segments, *args, *buffers, counters) == 0
        assert counters.ravel().tolist() == [1, 1, PAGE, 0]
        # A masked replay folds each segment to pages, which must not descend.
        lanes = np.zeros(1, dtype=np.int64)
        masked = (np.ones(2, np.uint64), np.array([0, 2]), lanes)
        two = np.array([PAGE, 0], dtype=np.int64)
        code = _native.uvm_replay(two, two + 1, *masked, *args, *buffers, counters)
        assert code == -2 and counters.ravel().tolist() == [1, 1, PAGE, 0]


@st.composite
def traced_words(draw):
    """A region, a page cache and prefetch granule as for
    :func:`uvm_call_sequences`, and a traced word over it: sweeps of
    ascending, disjoint ranges (some empty), each with a lane word over up to
    70 lanes' worth of bits, and the lanes to replay."""
    size_pages = draw(st.integers(1, 40))
    size_bytes = max(1, size_pages * PAGE - draw(st.sampled_from((0, 1, PAGE // 2))))
    capacity = draw(st.sampled_from((0, 1, 2, 5, 8, max(1, size_pages // 3), size_pages + 8)))
    prefetch = draw(st.sampled_from((1, 2, 16)))
    lanes = draw(st.integers(1, 64))
    starts, ends, masks, bounds = [], [], [], [0]
    for _ in range(draw(st.integers(1, 6))):
        cuts = sorted(draw(st.lists(st.integers(0, size_bytes), max_size=30)))
        for start, end in zip(cuts[::2], cuts[1::2]):
            starts.append(start)
            ends.append(end)
            masks.append(draw(st.integers(0, (1 << lanes) - 1)))
        bounds.append(len(starts))
    replayed = draw(st.lists(st.integers(0, lanes - 1), min_size=1, max_size=lanes, unique=True))
    return (
        size_bytes, capacity, prefetch,
        np.array(starts, dtype=np.int64), np.array(ends, dtype=np.int64),
        np.array(masks, dtype=np.uint64), np.array(bounds), np.array(sorted(replayed)),
    )


class TestReplayLanes:
    """``UVMSpace.replay_lanes``: the native arm, one C call over the sweeps
    folded to pages, against the numpy arm, which replays each lane's own
    ranges call by call from a reset."""

    ARMS = (False, True) if _native.available() else (False,)

    @pytest.mark.skipif(not _native.available(), reason="native kernels unavailable")
    @given(word=traced_words())
    @settings(max_examples=200, deadline=None)
    def test_native_replays_every_lane_like_the_numpy_arm(self, word):
        size_bytes, capacity, prefetch, *trace = word
        spaces = [
            make_uvm(capacity_pages=capacity, prefetch_pages=prefetch, size_bytes=size_bytes)
            for _ in range(2)
        ]
        numpy_counters = spaces[0].replay_lanes(*trace, native=False)
        native_counters = spaces[1].replay_lanes(*trace, native=True)
        assert np.array_equal(numpy_counters, native_counters)
        # Both spaces are left as the last lane left them.
        assert _state(spaces[0]) == _state(spaces[1])

    def test_each_lane_starts_from_a_reset_space(self):
        starts = np.array([0, PAGE], dtype=np.int64)
        masks = np.array([0b11, 0b10], dtype=np.uint64)
        for native in self.ARMS:
            uvm = make_uvm()
            touch(uvm, 5, 6)
            counters = uvm.replay_lanes(
                starts, starts + PAGE, masks, np.array([0, 2]), np.array([0, 1]), native
            )
            # Lane 0 takes page 0, lane 1 pages 0 and 1: every page faults.
            assert counters[:, 0, :2].tolist() == [[1, 1], [2, 2]]
            assert not uvm.is_resident(5)

    def test_descending_pages_raise_natively(self):
        if not _native.available():
            pytest.skip("native kernels unavailable")
        starts = np.array([PAGE, 0], dtype=np.int64)
        uvm = make_uvm()
        with pytest.raises(SimulationError, match="must not descend"):
            uvm.replay_lanes(
                starts, starts + 1, np.ones(2, np.uint64), np.array([0, 2]), np.array([0]), True
            )

    def test_out_of_range_ranges_raise(self):
        starts = np.array([0], dtype=np.int64)
        for native in self.ARMS:
            uvm = make_uvm(size_pages=2)
            with pytest.raises(SimulationError, match="outside the UVM allocation"):
                uvm.replay_lanes(
                    starts, starts + 3 * PAGE, np.ones(1, np.uint64), np.array([0, 1]),
                    np.array([0]), native,
                )
