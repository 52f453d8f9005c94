"""Tests for the coalescing-unit model (the Figure 3 behaviours)."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dataclasses import replace

from repro.config import default_system
from repro.errors import SimulationError
from repro.graph.csr import CSRGraph
from repro.memsim.coalescer import (
    CACHELINE_BYTES,
    REQUEST_SIZES,
    SECTOR_BYTES,
    RequestHistogram,
    coalesce_contiguous_spans,
    coalesce_warp_addresses,
    merged_warp_spans,
    naive_thread_spans,
    strided_request_counts,
    vertex_request_table,
    vertex_request_totals,
)
from repro.traversal.engine import TraversalEngine
from repro.types import AccessStrategy


class TestRequestHistogram:
    def test_starts_empty(self):
        histogram = RequestHistogram()
        assert histogram.total_requests == 0
        assert histogram.total_bytes == 0
        assert set(histogram.counts) == set(REQUEST_SIZES)

    def test_add_and_totals(self):
        histogram = RequestHistogram()
        histogram.add(32, 3)
        histogram.add(128, 2)
        assert histogram.total_requests == 5
        assert histogram.total_bytes == 3 * 32 + 2 * 128

    def test_invalid_size_rejected(self):
        with pytest.raises(SimulationError):
            RequestHistogram().add(48)
        with pytest.raises(SimulationError):
            RequestHistogram({100: 1})

    def test_negative_count_rejected(self):
        with pytest.raises(SimulationError):
            RequestHistogram().add(32, -1)

    def test_merge(self):
        first = RequestHistogram.single(32, 2)
        second = RequestHistogram.single(128, 1)
        merged = first.merge(second)
        assert merged.counts[32] == 2
        assert merged.counts[128] == 1
        # Merge is non-destructive.
        assert first.counts[128] == 0

    def test_merge_in_place(self):
        histogram = RequestHistogram.single(64, 1)
        histogram.merge_in_place(RequestHistogram.single(64, 4))
        assert histogram.counts[64] == 5

    def test_distribution(self):
        histogram = RequestHistogram({32: 1, 64: 0, 96: 0, 128: 3})
        distribution = histogram.distribution()
        assert distribution[32] == pytest.approx(0.25)
        assert distribution[128] == pytest.approx(0.75)

    def test_distribution_empty(self):
        assert RequestHistogram().fraction(128) == 0.0

    def test_array_roundtrip(self):
        histogram = RequestHistogram({32: 1, 64: 2, 96: 3, 128: 4})
        assert RequestHistogram.from_array(histogram.as_array()) == histogram

    def test_from_array_wrong_length(self):
        with pytest.raises(SimulationError):
            RequestHistogram.from_array(np.array([1, 2, 3]))


class TestWarpCoalescing:
    """Exact warp-level coalescing, mirroring Figure 3."""

    def test_fully_coalesced_warp_is_one_128b_request(self):
        # 32 threads reading 32 consecutive 4-byte elements of an aligned array.
        addresses = np.arange(32) * 4
        histogram = coalesce_warp_addresses(addresses, access_bytes=4)
        assert histogram.counts == {32: 0, 64: 0, 96: 0, 128: 1}

    def test_misaligned_warp_splits_into_96_plus_32(self):
        # Figure 3(c): the warp window is shifted 32 bytes past the 128B boundary.
        addresses = 32 + np.arange(32) * 4
        histogram = coalesce_warp_addresses(addresses, access_bytes=4)
        assert histogram.counts == {32: 1, 64: 0, 96: 1, 128: 0}

    def test_scattered_threads_generate_32b_requests(self):
        # Figure 3(a): each thread reads the first element of its own 128B block.
        addresses = np.arange(32) * 128
        histogram = coalesce_warp_addresses(addresses, access_bytes=4)
        assert histogram.counts == {32: 32, 64: 0, 96: 0, 128: 0}

    def test_8_byte_elements_span_two_lines(self):
        # 32 threads * 8 bytes = 256 bytes = two full cache lines when aligned.
        addresses = np.arange(32) * 8
        histogram = coalesce_warp_addresses(addresses, access_bytes=8)
        assert histogram.counts == {32: 0, 64: 0, 96: 0, 128: 2}

    def test_duplicate_addresses_coalesce_to_one_sector(self):
        addresses = np.zeros(32, dtype=np.int64)
        histogram = coalesce_warp_addresses(addresses, access_bytes=4)
        assert histogram.counts == {32: 1, 64: 0, 96: 0, 128: 0}

    def test_inactive_lanes_are_ignored(self):
        addresses = np.arange(32) * 4
        mask = np.zeros(32, dtype=bool)
        mask[:8] = True  # only the first 8 lanes (one sector) are active
        histogram = coalesce_warp_addresses(addresses, access_bytes=4, active_mask=mask)
        assert histogram.counts == {32: 1, 64: 0, 96: 0, 128: 0}

    def test_empty_warp(self):
        histogram = coalesce_warp_addresses(np.array([]), access_bytes=4)
        assert histogram.total_requests == 0

    def test_negative_address_rejected(self):
        with pytest.raises(SimulationError):
            coalesce_warp_addresses(np.array([-4]), access_bytes=4)

    def test_mask_length_mismatch(self):
        with pytest.raises(SimulationError):
            coalesce_warp_addresses(np.array([0, 4]), active_mask=np.array([True]))


class TestContiguousSpans:
    def test_aligned_full_line(self):
        histogram = coalesce_contiguous_spans(np.array([0]), np.array([128]))
        assert histogram.counts == {32: 0, 64: 0, 96: 0, 128: 1}

    def test_single_sector(self):
        histogram = coalesce_contiguous_spans(np.array([0]), np.array([8]))
        assert histogram.counts[32] == 1
        assert histogram.total_requests == 1

    def test_misaligned_line_split(self):
        # A 128-byte span starting 32 bytes into a line: 96B head + 32B tail.
        histogram = coalesce_contiguous_spans(np.array([32]), np.array([160]))
        assert histogram.counts == {32: 1, 64: 0, 96: 1, 128: 0}

    def test_multi_line_span(self):
        # 0..512 bytes aligned: four full lines.
        histogram = coalesce_contiguous_spans(np.array([0]), np.array([512]))
        assert histogram.counts == {32: 0, 64: 0, 96: 0, 128: 4}

    def test_multi_line_misaligned_span(self):
        # 96..416: head 32B, two full 128B lines, tail 32B.
        histogram = coalesce_contiguous_spans(np.array([96]), np.array([416]))
        assert histogram.counts == {32: 2, 64: 0, 96: 0, 128: 2}

    def test_multiple_spans_accumulate(self):
        histogram = coalesce_contiguous_spans(
            np.array([0, 128]), np.array([128, 256])
        )
        assert histogram.counts[128] == 2

    def test_empty_spans_are_skipped(self):
        histogram = coalesce_contiguous_spans(np.array([64, 0]), np.array([64, 32]))
        assert histogram.total_requests == 1

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(SimulationError):
            coalesce_contiguous_spans(np.array([0]), np.array([32, 64]))

    def test_matches_exact_warp_model_for_warp_sized_spans(self):
        """A 32-lane contiguous access must coalesce identically in both models."""
        for start_element in (0, 3, 16, 21):
            addresses = (start_element + np.arange(32)) * 8
            exact = coalesce_warp_addresses(addresses, access_bytes=8)
            spans = coalesce_contiguous_spans(
                np.array([start_element * 8]), np.array([(start_element + 32) * 8])
            )
            assert exact == spans


class TestStridedRequests:
    def test_one_request_per_sector(self):
        histogram = strided_request_counts(np.array([0]), np.array([256]))
        assert histogram.counts == {32: 8, 64: 0, 96: 0, 128: 0}

    def test_partial_sector_counts_once(self):
        histogram = strided_request_counts(np.array([0]), np.array([10]))
        assert histogram.counts[32] == 1

    def test_span_crossing_sector_boundary(self):
        histogram = strided_request_counts(np.array([24]), np.array([40]))
        assert histogram.counts[32] == 2

    def test_total_bytes_cover_span(self):
        spans_start = np.array([0, 100, 1000])
        spans_end = np.array([64, 200, 1500])
        histogram = strided_request_counts(spans_start, spans_end)
        assert histogram.total_bytes >= (spans_end - spans_start).sum()


class TestMergedWarpSpans:
    def test_unaligned_walk_starts_at_list_start(self):
        starts = np.array([3])
        ends = np.array([40])
        span_start, span_end = merged_warp_spans(starts, ends, element_bytes=8, aligned=False)
        assert span_start[0] == 3 * 8
        assert span_end[-1] == 40 * 8
        # Two iterations: elements [3,35) and [35,40).
        assert len(span_start) == 2

    def test_aligned_walk_iterations_start_on_cacheline_boundaries(self):
        starts = np.array([3])
        ends = np.array([40])
        span_start, span_end = merged_warp_spans(starts, ends, element_bytes=8, aligned=True)
        # The first iteration still begins at the real list start (the lanes
        # before it are masked off, Listing 2), but every later iteration
        # begins exactly on a 128-byte boundary.
        assert span_start[0] == 3 * 8
        assert span_end[-1] == 40 * 8
        assert np.all(span_start[1:] % CACHELINE_BYTES == 0)

    def test_alignment_is_relative_to_the_allocation_base(self):
        # Listing 2 aligns the element index, so with a 128B-aligned base the
        # later iterations are address-aligned...
        aligned_base, _ = merged_warp_spans(
            np.array([3]), np.array([100]), element_bytes=8, base_address=4096, aligned=True
        )
        assert np.all(aligned_base[1:] % CACHELINE_BYTES == 0)
        # ...but a deliberately misaligned base defeats the optimization, as it
        # would on real hardware.
        misaligned_base, _ = merged_warp_spans(
            np.array([3]), np.array([100]), element_bytes=8, base_address=4096 + 32, aligned=True
        )
        assert np.all(misaligned_base[1:] % CACHELINE_BYTES == 32)

    def test_spans_cover_all_requested_elements(self):
        starts = np.array([5, 100, 1000])
        ends = np.array([64, 130, 1003])
        span_start, span_end = merged_warp_spans(starts, ends, element_bytes=8)
        covered = int((span_end - span_start).sum())
        assert covered == int(((ends - starts) * 8).sum())

    def test_empty_ranges_produce_no_spans(self):
        span_start, span_end = merged_warp_spans(
            np.array([10]), np.array([10]), element_bytes=8
        )
        assert span_start.size == 0

    def test_element_bytes_must_divide_alignment(self):
        with pytest.raises(SimulationError):
            merged_warp_spans(np.array([0]), np.array([10]), element_bytes=3)

    def test_naive_thread_spans_are_byte_ranges(self):
        start, end = naive_thread_spans(np.array([2]), np.array([10]), 8, base_address=4096)
        assert start[0] == 4096 + 16
        assert end[0] == 4096 + 80


# --------------------------------------------------------------------------- #
# Property-based tests
# --------------------------------------------------------------------------- #
span_strategy = st.lists(
    st.tuples(st.integers(0, 5000), st.integers(1, 200)), min_size=1, max_size=50
)


@given(spans=span_strategy)
@settings(max_examples=100, deadline=None)
def test_contiguous_spans_cover_exactly_the_touched_sectors(spans):
    """Property: merged requests cover every touched 32B sector exactly once."""
    starts = np.array([s * 8 for s, _ in spans], dtype=np.int64)
    ends = np.array([(s + l) * 8 for s, l in spans], dtype=np.int64)
    histogram = coalesce_contiguous_spans(starts, ends)
    expected_sector_count = int(
        (((ends - 1) // SECTOR_BYTES) - (starts // SECTOR_BYTES) + 1).sum()
    )
    assert histogram.total_bytes == expected_sector_count * SECTOR_BYTES


@given(spans=span_strategy)
@settings(max_examples=100, deadline=None)
def test_request_sizes_are_always_valid(spans):
    """Property: every request is 32/64/96/128 bytes and counts are non-negative."""
    starts = np.array([s for s, _ in spans], dtype=np.int64)
    ends = np.array([s + l for s, l in spans], dtype=np.int64)
    histogram = coalesce_contiguous_spans(starts, ends)
    assert set(histogram.counts) == set(REQUEST_SIZES)
    assert all(count >= 0 for count in histogram.counts.values())


@given(
    start=st.integers(0, 10_000),
    length=st.integers(1, 2_000),
    aligned=st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_merged_spans_match_exact_warp_simulation(start, length, aligned):
    """Property: the vectorized warp-span expansion agrees with lane-exact coalescing."""
    element_bytes = 8
    starts = np.array([start])
    ends = np.array([start + length])
    span_start, span_end = merged_warp_spans(
        starts, ends, element_bytes=element_bytes, aligned=aligned
    )
    fast = coalesce_contiguous_spans(span_start, span_end)

    # Lane-exact reference: walk the list one warp instruction at a time.
    exact = RequestHistogram()
    elements_per_line = 128 // element_bytes
    walk = start - (start % elements_per_line) if aligned else start
    while walk < start + length:
        lanes = np.arange(walk, min(walk + 32, start + length))
        lanes = lanes[lanes >= start]
        if lanes.size:
            exact.merge_in_place(
                coalesce_warp_addresses(lanes * element_bytes, access_bytes=element_bytes)
            )
        walk += 32
    assert fast == exact


@given(
    ranges=st.lists(
        st.tuples(st.integers(0, 3000), st.integers(1, 100)), min_size=1, max_size=30
    )
)
@settings(max_examples=60, deadline=None)
def test_merged_never_issues_more_requests_than_strided(ranges):
    """Property: warp-merging can only reduce the number of PCIe requests."""
    starts = np.array([s for s, _ in ranges], dtype=np.int64)
    ends = np.array([s + l for s, l in ranges], dtype=np.int64)
    strided = strided_request_counts(starts * 8, ends * 8)
    merged = coalesce_contiguous_spans(*merged_warp_spans(starts, ends, element_bytes=8))
    assert merged.total_requests <= strided.total_requests


@st.composite
def csr_offsets(draw):
    """Offsets of a random CSR graph, zero-degree vertices included."""
    degrees = draw(st.lists(st.integers(0, 70), min_size=1, max_size=30))
    return np.concatenate(([0], np.cumsum(degrees))).astype(np.int64)


@given(
    offsets=csr_offsets(),
    element_bytes=st.sampled_from((4, 8)),
    misalign=st.sampled_from((0, 32, 40, 896)),
    warp_size=st.sampled_from((4, 8, 16, 32)),
    aligned=st.booleans(),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_request_table_rows_sum_to_every_frontier_histogram(
    offsets, element_bytes, misalign, warp_size, aligned, data
):
    """Property: a frontier's gathered table rows equal the span expansion and
    the exact per-warp-instruction coalescing; the strided column equals
    strided_request_counts."""
    base = 4096 + misalign
    frontier = np.array(
        data.draw(st.lists(st.integers(0, offsets.size - 2), unique=True)), dtype=np.int64
    )
    starts, ends = offsets[frontier], offsets[frontier + 1]
    table = vertex_request_table(offsets, element_bytes, base, warp_size, aligned)
    gathered = RequestHistogram.from_array(table[frontier].sum(axis=0))
    spans = coalesce_contiguous_spans(
        *merged_warp_spans(starts, ends, element_bytes, base, warp_size, aligned)
    )
    exact = RequestHistogram()
    elements_per_line = CACHELINE_BYTES // element_bytes
    for start, end in zip(starts.tolist(), ends.tolist()):
        walk = start - start % elements_per_line if aligned else start
        while walk < end:
            lanes = np.arange(max(walk, start), min(walk + warp_size, end))
            exact.merge_in_place(
                coalesce_warp_addresses(base + lanes * element_bytes, access_bytes=element_bytes)
            )
            walk += warp_size
    assert gathered == spans == exact

    column = vertex_request_table(offsets, element_bytes, base, warp_size, aligned, strided=True)
    strided = strided_request_counts(*naive_thread_spans(starts, ends, element_bytes, base))
    assert int(column[frontier].sum()) == strided.counts[SECTOR_BYTES]


def test_request_table_is_memoised_per_offsets_array_and_released_with_it():
    offsets = np.array([0, 3, 3, 40], dtype=np.int64)
    table = vertex_request_table(offsets, 8, aligned=True)
    # The base address only matters modulo one cache line.
    assert vertex_request_table(offsets, 8, 4096, aligned=True) is table
    assert not table.flags.writeable
    assert vertex_request_table(offsets.copy(), 8, aligned=True) is not table
    released = weakref.ref(table)
    del offsets, table
    gc.collect()
    assert released() is None


@given(
    offsets=csr_offsets(),
    element_bytes=st.sampled_from((4, 8)),
    misalign=st.sampled_from((0, 32, 40, 896)),
    warp_size=st.sampled_from((4, 8, 16, 32)),
    aligned=st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_request_table_totals_are_the_every_vertex_gather(
    offsets, element_bytes, misalign, warp_size, aligned
):
    """Property: the memoised totals equal ``table[arange(V)].sum(0)``, for the
    merged table and the strided column alike, and are memoised beside them."""
    base = 4096 + misalign
    every = np.arange(offsets.size - 1)
    for strided in (False, True):
        walk = (offsets, element_bytes, base, warp_size, aligned, strided)
        table = vertex_request_table(*walk)
        totals = vertex_request_totals(*walk)
        assert totals.tolist() == table[every].sum(axis=0).tolist()
        assert totals.shape == table.shape[1:]
        assert not totals.flags.writeable
        assert vertex_request_totals(*walk) is totals


@given(
    offsets=csr_offsets(),
    element_bytes=st.sampled_from((4, 8)),
    hit_rate=st.sampled_from((0.0, 0.5, 0.3, 0.77, 1.0)),
    strategy=st.sampled_from(
        (AccessStrategy.NAIVE, AccessStrategy.MERGED, AccessStrategy.MERGED_ALIGNED)
    ),
    misalign=st.sampled_from((0, 8, 40)),
)
@settings(max_examples=100, deadline=None)
def test_request_table_totals_price_a_whole_graph_iteration_like_the_gather(
    offsets, element_bytes, hit_rate, strategy, misalign
):
    """Property: an every-vertex iteration priced from the totals is, bit for
    bit, the one priced from the gathered rows -- requests, DRAM bytes and
    time, the strided refetch rounding included."""
    num_vertices = offsets.size - 1
    graph = CSRGraph(
        offsets=offsets,
        edges=np.arange(int(offsets[-1]), dtype=np.int64) % num_vertices,
        directed=True,
        element_bytes=element_bytes,
    )
    base = default_system()
    system = replace(base, gpu=replace(base.gpu, strided_sector_hit_rate=hit_rate))
    every = np.arange(num_vertices, dtype=np.int64)
    edges_touched = int(offsets[-1])
    priced = []
    for whole_graph in (True, False):
        engine = TraversalEngine(graph, strategy, system=system, edge_misalign_bytes=misalign)
        breakdown = engine._access_zero_copy(every, edges_touched, whole_graph)
        priced.append(
            (
                [float(value).hex() for value in breakdown.components()],
                dict(engine.traffic.request_histogram.counts),
                engine.traffic.dram_bytes,
            )
        )
    assert priced[0] == priced[1]
    # process_frontier takes the totals for exactly such a frontier.
    engine = TraversalEngine(graph, strategy, system=system, edge_misalign_bytes=misalign)
    engine.process_frontier(every)
    assert dict(engine.traffic.request_histogram.counts) == priced[1][1]
