"""Property-style tests for the lane-parallel relaxation kernel.

Every backend (native C when available, indexed-ufunc scatter) must produce
per-source SSSP distances bit-identical to the solo ``run_sssp`` runs — across
random weighted graphs with duplicate edges, zero-weight edges, unreachable
components, and word-boundary lane counts.  The native kernel's two arms
(dense AVX2 rows and scalar ``ctz`` lanes, forced through
``_native._dense_arm``) must agree with each other and with ``scatter``
sweep for sweep.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.builder import from_edge_array
from repro.traversal import _native
from repro.traversal.multisource import run_batch, run_sssp_batch
from repro.traversal.relax import (
    RELAX_METHODS,
    RelaxOutcome,
    default_method,
    expand_lane_pairs,
    relax_lanes,
)
from repro.traversal.sssp import run_sssp
from repro.types import Application

NUMPY_METHODS = ("scatter",)
METHODS = tuple(
    method
    for method in RELAX_METHODS
    if method != "native" or _native.available()
)

#: The host runs the dense arm (probed when the kernels loaded).
HAS_DENSE_ARM = _native.available() and _native._dense_arm == 1


def messy_graph(seed: int, num_vertices: int = 120, num_edges: int = 900):
    """A random directed graph stressing the kernel's edge cases.

    Contains duplicate (parallel) edges with different weights, a block of
    zero-weight edges, and a cluster of vertices with no incident edges at
    all (unreachable components).
    """
    rng = np.random.default_rng(seed)
    reachable = max(8, int(num_vertices * 0.8))  # tail vertices stay isolated
    sources = rng.integers(0, reachable, num_edges)
    destinations = rng.integers(0, reachable, num_edges)
    # Force duplicates: repeat a slice of the edges verbatim (they will get
    # fresh, different weights below).
    dup = num_edges // 8
    sources[-dup:] = sources[:dup]
    destinations[-dup:] = destinations[:dup]
    graph = from_edge_array(
        sources,
        destinations,
        num_vertices=num_vertices,
        directed=True,
        name=f"messy-{seed}",
    )
    weights = rng.uniform(0.05, 2.0, graph.num_edges).astype(np.float32)
    weights[rng.random(graph.num_edges) < 0.1] = 0.0  # zero-weight edges
    return graph.with_weights(weights)


@pytest.fixture(scope="module", params=[11, 29, 47])
def graph(request):
    return messy_graph(request.param)


class TestBitIdentityAcrossBackends:
    @pytest.mark.parametrize("method", METHODS)
    def test_distances_match_solo_runs(self, graph, method):
        rng = np.random.default_rng(5)
        sources = rng.integers(0, graph.num_vertices, 24).tolist()
        batch = run_batch(
            Application.SSSP, graph, sources, relax_method=method
        )
        for result in batch.results:
            solo = run_sssp(graph, result.source)
            assert np.array_equal(result.values, solo.values)
            assert result.metrics.iterations == solo.metrics.iterations

    @pytest.mark.parametrize("lanes", [1, 63, 64, 65])
    def test_word_boundary_lane_counts(self, graph, lanes):
        rng = np.random.default_rng(lanes)
        sources = rng.integers(0, graph.num_vertices, lanes).tolist()
        batch = run_sssp_batch(graph, sources)
        assert batch.num_sources == lanes
        assert batch.num_batches == (lanes + 63) // 64
        # Spot-check first, last, and a word-straddling source.
        for index in {0, lanes - 1, min(lanes - 1, 63)}:
            result = batch.results[index]
            solo = run_sssp(graph, result.source)
            assert np.array_equal(result.values, solo.values)

    def test_methods_agree_with_each_other(self, graph):
        sources = [0, 3, 5, 9, 17]
        outcomes = {
            method: run_batch(
                Application.SSSP, graph, sources, relax_method=method
            )
            for method in METHODS
        }
        baseline = outcomes[METHODS[0]]
        for method, outcome in outcomes.items():
            for a, b in zip(baseline.results, outcome.results):
                assert np.array_equal(a.values, b.values), method

    def test_unweighted_graph_scalar_weights(self):
        rng = np.random.default_rng(3)
        sources_arr = rng.integers(0, 40, 200)
        destinations_arr = rng.integers(0, 40, 200)
        graph = from_edge_array(
            sources_arr, destinations_arr, num_vertices=50, directed=True,
            name="unweighted",
        )
        batch = run_sssp_batch(graph, [0, 7, 21])
        for result in batch.results:
            solo = run_sssp(graph, result.source)
            assert np.array_equal(result.values, solo.values)

    def test_unreachable_component_stays_unreachable(self, graph):
        # Sources inside the isolated tail reach only themselves.
        isolated = graph.num_vertices - 1
        batch = run_sssp_batch(graph, [0, isolated])
        values = batch.results[1].values
        assert values[isolated] == 0.0
        assert np.isinf(np.delete(values, isolated)).all()


class TestKernelUnits:
    def test_expand_lane_pairs_is_lane_major(self):
        bits = np.array([0b11, 0b10], dtype=np.uint64)
        lanes, positions = expand_lane_pairs(bits, 2)
        assert lanes.tolist() == [0, 1, 1]
        assert positions.tolist() == [0, 0, 1]

    def test_unknown_method_rejected(self):
        values = np.zeros((4, 2))
        with pytest.raises(ValueError, match="unknown relaxation method"):
            relax_lanes(
                values,
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.uint64),
                method="bogus",
            )

    def test_non_contiguous_values_rejected(self):
        values = np.zeros((8, 4))[:, ::2]
        with pytest.raises(ValueError, match="C-contiguous"):
            relax_lanes(
                values,
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.uint64),
                method="scatter",
            )

    @pytest.mark.parametrize("method", [m for m in METHODS if m in NUMPY_METHODS])
    def test_touched_set_matches_next_bits(self, method):
        # Tiny hand-checked relaxation: vertex 0 relaxes lanes 0 and 1 along
        # one edge to vertex 1; only lane 0 improves (lane 1 already has a
        # better distance at the destination).
        values = np.array(
            [[0.0, 0.0], [np.inf, 0.5], [np.inf, np.inf]], dtype=np.float64
        )
        edges = np.array([1], dtype=np.int64)
        frontier = np.array([0], dtype=np.int64)
        starts = np.array([0], dtype=np.int64)
        ends = np.array([1], dtype=np.int64)
        active = np.array([0b11], dtype=np.uint64)
        weights = np.array([1.0], dtype=np.float64)
        outcome = relax_lanes(
            values, edges, frontier, starts, ends, active,
            weights=weights, method=method,
        )
        assert isinstance(outcome, RelaxOutcome)
        assert outcome.touched.tolist() == [1]
        assert outcome.next_bits[1] == np.uint64(0b01)
        assert values[1].tolist() == [1.0, 0.5]

    def test_default_method_is_known(self):
        assert default_method() in RELAX_METHODS

    @pytest.mark.parametrize("method", NUMPY_METHODS)
    def test_tiny_blocks_stay_bit_identical(self, monkeypatch, method):
        # Force many blocks per sweep: the blocked execution must not let a
        # later block observe values an earlier block already improved.
        import repro.traversal.relax as relax_module

        monkeypatch.setattr(relax_module, "_BLOCK_PAIRS", 7)
        graph = messy_graph(83, num_vertices=60, num_edges=500)
        batch = run_batch(Application.SSSP, graph, [0, 2, 11], relax_method=method)
        for result in batch.results:
            solo = run_sssp(graph, result.source)
            assert np.array_equal(result.values, solo.values)
            assert result.metrics.iterations == solo.metrics.iterations


@pytest.mark.skipif(not _native.available(), reason="native kernels unavailable")
class TestNativeRelaxBuffers:
    """relax_word refuses mismatched buffers, as bfs_word does: a short
    ``starts`` used to crash the process and a short ``active_bits`` to read
    past its end."""

    @staticmethod
    def _buffers(graph, lanes=3):
        size = graph.num_vertices
        values = np.full((size, lanes), np.inf)
        values[0] = 0.0
        return dict(
            frontier=np.arange(size, dtype=np.int64),
            active_bits=np.full(size, (1 << min(lanes, 64)) - 1, dtype=np.uint64),
            starts=graph.offsets[:-1].copy(),
            ends=graph.offsets[1:].copy(),
            edges=graph.edges,
            weights=np.ones(graph.num_edges),
            values=values,
            snapshot=np.empty((size, lanes)),
            next_bits=np.zeros(size, dtype=np.uint64),
        )

    def test_matching_buffers_run(self):
        buffers = self._buffers(messy_graph(5))
        assert _native.relax_word(**buffers) > 0

    @pytest.mark.parametrize(
        "short",
        (
            "frontier", "active_bits", "starts", "ends", "weights", "snapshot",
            "next_bits",
        ),
    )
    def test_short_buffer_raises(self, short):
        buffers = self._buffers(messy_graph(5))
        buffers[short] = buffers[short][:2]
        with pytest.raises(ValueError, match="relax_word buffers"):
            _native.relax_word(**buffers)

    ARRAYS = (
        "frontier", "active_bits", "starts", "ends", "edges", "weights", "values",
        "snapshot", "next_bits",
    )

    @pytest.mark.parametrize("pinned", (False, True))
    @pytest.mark.parametrize("name", ARRAYS)
    def test_wrong_dtype_raises(self, name, pinned):
        # The checks an ndpointer argtype used to make: same itemsize and
        # shape, so only the dtype check can catch it.
        buffers = self._buffers(messy_graph(5))
        array = buffers[name]
        buffers[name] = array.view(np.int64 if array.dtype == np.float64 else np.float64)
        with pytest.raises(ValueError, match="relax_word buffers must be C-contiguous"):
            _native.relax_word(**buffers, pins=_native.Pins() if pinned else None)

    @pytest.mark.parametrize("name", ARRAYS)
    def test_strided_buffer_raises(self, name):
        buffers = self._buffers(messy_graph(5))
        array = buffers[name]
        buffers[name] = np.stack([array, array], axis=-1)[..., 0]
        assert buffers[name].shape == array.shape
        with pytest.raises(ValueError, match="relax_word buffers must be C-contiguous"):
            _native.relax_word(**buffers)

    def test_pins_check_a_new_buffer(self):
        # A pinned run checks each array object once; an array it has not
        # seen is checked afresh, even when a sweep swaps it in mid-run.
        buffers = self._buffers(messy_graph(5))
        pins = _native.Pins()
        assert _native.relax_word(**buffers, pins=pins) > 0
        buffers["next_bits"].fill(0)
        assert _native.relax_word(**buffers, pins=pins) >= 0
        buffers["values"] = buffers["values"].astype(np.float32)
        with pytest.raises(ValueError, match="relax_word buffers must be C-contiguous"):
            _native.relax_word(**buffers, pins=pins)

    def test_more_than_64_lanes_raises(self):
        with pytest.raises(ValueError, match="relax_word buffers"):
            _native.relax_word(**self._buffers(messy_graph(5), lanes=65))

    @pytest.mark.parametrize("short", ("starts", "ends", "active_bits", "weights"))
    def test_relax_lanes_refuses_short_slices_on_native(self, short):
        # A short weights list was read past its end, where scatter raised.
        graph = messy_graph(5)
        buffers = self._buffers(graph)
        buffers[short] = buffers[short][:5]
        with pytest.raises(ValueError, match="relax_word buffers"):
            relax_lanes(
                buffers["values"], graph.edges, buffers["frontier"],
                buffers["starts"], buffers["ends"], buffers["active_bits"],
                weights=buffers["weights"], method="native",
            )


LANE_COUNTS = (1, 3, 4, 15, 16, 17, 63, 64)


@st.composite
def relax_sweeps(draw):
    """One relaxation sweep's inputs: a random graph with self-loops and
    multi-edges, weighted or not, a value matrix with unreached (``inf``)
    rows and entries, and a frontier whose per-vertex lane counts sit on
    both sides of the dense arm's quarter-of-the-lanes threshold."""
    num_vertices = draw(st.integers(1, 30))
    vertex = st.integers(0, num_vertices - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=120))
    pairs += pairs[: draw(st.integers(0, 8))]
    pairs += [(v, v) for v in range(0, num_vertices, 5)]
    sources, destinations = (np.array(side, dtype=np.int64) for side in zip(*pairs))
    graph = from_edge_array(
        sources, destinations, num_vertices=num_vertices, directed=True,
        name="hypothesis",
    )
    lanes = draw(st.sampled_from(LANE_COUNTS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Quarter-steps make exact ties (candidate == stored) common.
    values = rng.integers(0, 12, (num_vertices, lanes)) / 4.0
    values[rng.random((num_vertices, lanes)) < 0.2] = np.inf
    values[rng.random(num_vertices) < 0.3] = np.inf
    weights = None
    if draw(st.booleans()):
        weights = rng.choice([0.0, 0.25, 0.5, 1.0, 1.75], graph.num_edges)
    frontier = np.flatnonzero(rng.random(num_vertices) < 0.6).astype(np.int64)
    if not frontier.size:
        frontier = np.array([0], dtype=np.int64)
    threshold = -(-lanes // 4)
    active_bits = np.zeros(frontier.size, dtype=np.uint64)
    for position in range(frontier.size):
        count = rng.choice(
            [0, 1, max(threshold - 1, 0), threshold, lanes, rng.integers(0, lanes + 1)]
        )
        for lane in rng.choice(lanes, count, replace=False):
            active_bits[position] |= np.uint64(1) << np.uint64(lane)
    return graph, weights, values, frontier, active_bits


def _native_sweep(graph, weights, values, frontier, active_bits, dense_arm):
    values = values.copy()
    next_bits = np.zeros(graph.num_vertices, dtype=np.uint64)
    with mock.patch.object(_native, "_dense_arm", dense_arm):
        improved = _native.relax_word(
            frontier, active_bits, graph.offsets[frontier], graph.offsets[frontier + 1],
            graph.edges, weights, values, np.empty_like(values), next_bits,
        )
    return values, next_bits, improved


@pytest.mark.skipif(not _native.available(), reason="native kernels unavailable")
class TestDenseArm:
    """The dense arm against the scalar arm and the numpy scatter sweep: the
    same values and next-frontier words and (between the arms) the same
    improvement count."""

    @given(sweep=relax_sweeps())
    @settings(max_examples=150, deadline=None)
    def test_arms_match_each_other_and_scatter(self, sweep):
        graph, weights, values, frontier, active_bits = sweep
        dense = _native_sweep(graph, weights, values, frontier, active_bits, 1)
        scalar = _native_sweep(graph, weights, values, frontier, active_bits, 0)
        numpy_values = values.copy()
        outcome = relax_lanes(
            numpy_values, graph.edges, frontier, graph.offsets[frontier],
            graph.offsets[frontier + 1], active_bits, weights=weights,
            method="scatter",
        )
        for arm in (dense, scalar):
            assert arm[0].tobytes() == numpy_values.tobytes()
            assert arm[1].tolist() == outcome.next_bits.tolist()
        assert dense[2] == scalar[2]

    @staticmethod
    def _inactive_snapshot_lanes(lanes, bits, dense_arm):
        """Relax a two-vertex frontier over a snapshot pre-filled with -1 and
        return what each row holds in its inactive lanes: the dense arm
        writes +inf there, the scalar arm never touches them."""
        graph = from_edge_array(
            np.array([0, 1]), np.array([2, 2]), num_vertices=3, name="arms"
        )
        values = np.zeros((3, lanes))
        snapshot = np.full((2, lanes), -1.0)
        frontier = np.array([0, 1], dtype=np.int64)
        with mock.patch.object(_native, "_dense_arm", dense_arm):
            _native.relax_word(
                frontier, np.array(bits, dtype=np.uint64), graph.offsets[:2],
                graph.offsets[1:3], graph.edges, None, values, snapshot,
                np.zeros(3, dtype=np.uint64),
            )
        return [
            set(row[[(mask >> lane) & 1 == 0 for lane in range(lanes)]].tolist())
            for row, mask in zip(snapshot, bits)
        ]

    @pytest.mark.skipif(not HAS_DENSE_ARM, reason="host has no AVX2")
    def test_dense_arm_taken_from_a_quarter_of_the_lanes(self):
        # Row 0 has 2 of 8 lanes active (a quarter: dense), row 1 one lane.
        assert self._inactive_snapshot_lanes(8, [0b101, 0b1], 1) == [{np.inf}, {-1.0}]

    def test_scalar_arm_taken_when_forced(self):
        assert self._inactive_snapshot_lanes(8, [0b101, 0b1], 0) == [{-1.0}, {-1.0}]

    def test_words_under_four_lanes_stay_scalar(self):
        # Two of three lanes is well over a quarter, but a 3-lane word has no
        # full 4-lane group.
        assert self._inactive_snapshot_lanes(3, [0b011, 0b1], 1) == [{-1.0}, {-1.0}]


class TestSanitizerBuildMode:
    """REPRO_NATIVE_SANITIZE gates the sanitized kernel build (_native)."""

    @pytest.fixture(autouse=True)
    def _fresh_probe(self, monkeypatch, tmp_path):
        # Isolate the shared-object cache and force a re-probe around every
        # test so the session's healthy build is not disturbed.
        monkeypatch.setenv("REPRO_NATIVE_DIR", str(tmp_path))
        _native.reset_probe()
        yield
        _native.reset_probe()

    def test_build_flags_fold_sanitizer_in(self, monkeypatch):
        monkeypatch.delenv("REPRO_NATIVE_SANITIZE", raising=False)
        plain, note = _native._build_flags()
        assert note == ""
        monkeypatch.setenv("REPRO_NATIVE_SANITIZE", "asan")
        asan, note = _native._build_flags()
        assert note == " [asan]"
        assert "-fsanitize=address" in asan and "-fno-omit-frame-pointer" in asan
        monkeypatch.setenv("REPRO_NATIVE_SANITIZE", "ubsan")
        ubsan, note = _native._build_flags()
        assert note == " [ubsan]"
        assert "-fsanitize=undefined" in ubsan
        # Different flags -> different cache digests: switching modes can
        # never serve a stale unsanitized object.
        assert len({plain, asan, ubsan}) == 3

    def test_misconfigured_sanitizer_degrades_loudly(self, monkeypatch):
        # The backend switch is checked first; this test is about the
        # sanitizer knob, so it holds under a REPRO_NATIVE=0 run too.
        monkeypatch.delenv("REPRO_NATIVE", raising=False)
        monkeypatch.setenv("REPRO_NATIVE_SANITIZE", "asam")
        assert not _native.available()
        assert "sanitizer misconfigured" in _native.status()
        assert "asam" in _native.status()

    @pytest.mark.skipif(
        not _native.available(), reason="no native backend on this host"
    )
    def test_ubsan_build_stays_bit_identical(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_SANITIZE", "ubsan")
        monkeypatch.setenv("UBSAN_OPTIONS", "halt_on_error=1")
        _native.reset_probe()
        if not _native.available():
            pytest.skip(f"sanitized build unavailable: {_native.status()}")
        assert "[ubsan]" in _native.status()
        graph = messy_graph(7, num_vertices=40, num_edges=260)
        batch = run_batch(Application.SSSP, graph, [0, 3, 9], relax_method="native")
        for result in batch.results:
            solo = run_sssp(graph, result.source)
            assert np.array_equal(result.values, solo.values)
