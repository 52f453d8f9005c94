"""Tests for the online cost model: one learned rate per application.

Everything but the last class injects seconds (no clock).  The last one drives
the ``serve-backlog`` wave shape through a real service and compares each
plan's ``predicted_seconds`` with its ``actual_seconds``.
"""

import math
import statistics
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ServiceConfig
from repro.graph.datasets import load_dataset, pick_sources
from repro.service import GraphRegistry, Service, TraversalRequest
from repro.service.costmodel import (
    EWMA_WEIGHT,
    PRIOR_SECONDS_PER_EDGE,
    UNSIZED_WORD_SECONDS,
    CostModel,
)

from .conftest import _serve_backlog

EDGES = {"g": 10_000, "h": 50_000, "empty": 0}
KEY = ("g", "bfs", "merged_aligned", "default")


def sized():
    return CostModel(edge_lookup=EDGES.get)


class TestBootstrap:
    def test_unknown_family_uses_flat_default(self):
        # No lookup at all: nothing can be sized, every word costs the flat price.
        model = CostModel()
        assert model.estimate_group(KEY, 1) == pytest.approx(UNSIZED_WORD_SECONDS)
        assert model.estimate_group(KEY, 4) == pytest.approx(UNSIZED_WORD_SECONDS)
        assert model.estimate_group(KEY, 65) == pytest.approx(2 * UNSIZED_WORD_SECONDS)

    def test_graph_size_lookup_scales_bootstrap(self):
        model = sized()
        assert model.estimate_group(KEY, 1) == pytest.approx(
            EDGES["g"] * PRIOR_SECONDS_PER_EDGE
        )
        # a bigger graph costs proportionally more before any sample exists
        assert model.estimate_group(("h", *KEY[1:]), 1) == pytest.approx(
            5 * model.estimate_group(KEY, 1)
        )

    def test_lookup_miss_falls_back_to_default(self):
        # Registered but not resident: the flat price, learned rate or not.
        model = sized()
        away = ("not-resident", *KEY[1:])
        assert model.estimate_group(away, 1) == pytest.approx(UNSIZED_WORD_SECONDS)
        model.observe([(KEY, 1)], 0.5)
        assert model.estimate_group(away, 1) == pytest.approx(UNSIZED_WORD_SECONDS)

    def test_lookup_never_called_under_the_model_lock(self):
        held = []

        def lookup(name):
            held.append(model._lock.locked())
            return EDGES[name]

        model = CostModel(edge_lookup=lookup)
        model.estimate_group(KEY, 3)
        model.estimate_sweep([(KEY, 3), (("h", *KEY[1:]), 2)])
        model.observe([(KEY, 3)], 0.010)
        model.observe([(KEY, 3)], 0.010, predicted=0.02)
        assert len(held) == 5 and not any(held)


class TestLearning:
    def test_first_observation_replaces_bootstrap(self):
        model = sized()
        model.observe([(KEY, 4)], 0.020)
        assert model.rate("bfs") == pytest.approx(0.020 / EDGES["g"])
        # one word costs one sweep, however many of its 64 lanes are taken
        for jobs in (1, 4, 64):
            assert model.estimate_group(KEY, jobs) == pytest.approx(0.020)

    def test_words_step_at_64_jobs(self):
        model = sized()
        model.observe([(KEY, 1)], 0.010)
        assert model.estimate_group(KEY, 64) == pytest.approx(0.010)
        assert model.estimate_group(KEY, 65) == pytest.approx(0.020)
        assert model.estimate_group(KEY, 128) == pytest.approx(0.020)
        assert model.estimate_group(KEY, 129) == pytest.approx(0.030)

    def test_ewma_update_math(self):
        model = sized()
        model.observe([(KEY, 1)], 0.010)
        model.observe([(KEY, 1)], 0.030)
        assert EWMA_WEIGHT == 0.25
        # 0.010 + 0.25 * (0.030 - 0.010) = 0.015
        assert model.estimate_group(KEY, 1) == pytest.approx(0.015)

    def test_convergence_to_stationary_cost(self):
        model = sized()
        model.observe([(KEY, 8)], 1.0)  # a wild first contact
        for _ in range(60):
            model.observe([(KEY, 8)], 0.080)
        assert model.estimate_group(KEY, 8) == pytest.approx(0.080, rel=1e-6)
        assert model.stats().samples == 61

    def test_rate_learned_on_one_graph_prices_another_by_its_edges(self):
        model = sized()
        model.observe([(KEY, 8)], 0.010)
        assert model.estimate_group(("h", *KEY[1:]), 8) == pytest.approx(0.050)

    def test_sweep_is_the_sum_of_its_groups_and_feeds_one_observation(self):
        model = sized()
        groups = [(("g", "bfs", strategy, "default"), 16) for strategy in "abc"]
        # three configurations in one word: 3 group-sweeps of g, not 48 jobs
        assert model.estimate_sweep(groups) == pytest.approx(
            3 * model.estimate_group(KEY, 16)
        )
        model.observe(groups, 0.030)
        assert model.stats().samples == 1
        assert model.rate("bfs") == pytest.approx(0.030 / (3 * EDGES["g"]))
        assert model.estimate_sweep(groups) == pytest.approx(0.030)

    def test_strategy_and_system_are_pooled(self):
        model = sized()
        model.observe([(KEY, 1)], 0.010)
        assert model.estimate_group(("g", "bfs", "uvm", "abc123"), 1) == pytest.approx(0.010)

    def test_applications_are_independent(self):
        model = sized()
        model.observe([(KEY, 1)], 0.001)
        model.observe([(("g", "sssp", "uvm", "default"), 1)], 1.0)
        assert model.estimate_group(KEY, 1) == pytest.approx(0.001)
        assert model.estimate_group(("g", "sssp", "merged", "default"), 1) == pytest.approx(1.0)
        # an application never observed is still priced at the prior
        assert model.rate("cc") is None
        assert model.estimate_group(("g", "cc", "uvm", "default"), 1) == pytest.approx(
            EDGES["g"] * PRIOR_SECONDS_PER_EDGE
        )
        assert model.stats().applications == 2

    def test_defensive_rejects_garbage_observations(self):
        model = sized()
        assert model.observe([(KEY, 0)], 1.0) is None
        assert model.observe([(KEY, -3)], 1.0) is None
        assert model.observe([(KEY, 4)], -1.0) is None
        assert model.observe([(KEY, 4)], float("nan")) is None
        assert model.observe([(KEY, 4)], float("inf")) is None
        assert model.observe([], 1.0) is None
        assert model.observe([(("empty", *KEY[1:]), 4)], 1.0) is None  # zero work
        assert model.observe([(("not-resident", *KEY[1:]), 4)], 1.0) is None
        assert model.rate("bfs") is None
        assert model.stats().samples == 0


class TestAccuracyTracking:
    def test_error_scored_against_prior_estimate(self):
        model = sized()
        prior = EDGES["g"] * PRIOR_SECONDS_PER_EDGE
        assert model.observe([(KEY, 1)], prior + 0.005) == pytest.approx(0.005)
        # the second sample is scored against the rate the first one set,
        # not against the rate it is about to produce
        assert model.observe([(KEY, 1)], prior + 0.025) == pytest.approx(0.020)
        stats = model.stats()
        assert stats.samples == 2
        assert stats.mean_abs_error_seconds == pytest.approx(0.0125)

    def test_error_scored_against_the_callers_prediction_when_given(self):
        model = sized()
        assert model.observe([(KEY, 1)], 0.010, predicted=0.014) == pytest.approx(0.004)
        assert model.rate("bfs") == pytest.approx(0.010 / EDGES["g"])

    def test_error_shrinks_as_model_converges(self):
        model = sized()
        model.observe([(KEY, 1)], 0.050)
        early = model.stats().mean_abs_error_seconds
        for _ in range(40):
            model.observe([(KEY, 1)], 0.050)
        late = model.stats().mean_abs_error_seconds
        assert late < early  # the running mean is dragged down by good predictions

    def test_describe_mentions_applications_and_error(self):
        model = sized()
        model.observe([(KEY, 1)], 0.010)
        text = model.stats().describe()
        assert "1 applications" in text and "ms" in text


class TestEstimateProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        jobs=st.integers(min_value=0, max_value=500),
        more=st.integers(min_value=0, max_value=500),
        edges=st.integers(min_value=0, max_value=10**7),
        factor=st.integers(min_value=1, max_value=9),
        seconds=st.floats(min_value=0.0, max_value=10.0),
        strategy=st.sampled_from(["naive", "merged", "merged_aligned", "uvm"]),
        system=st.text(max_size=6),
    )
    def test_non_negative_monotone_linear_in_edges_and_pooled(
        self, jobs, more, edges, factor, seconds, strategy, system
    ):
        model = CostModel(edge_lookup={"g": edges, "big": factor * edges}.get)
        model.observe([(KEY, 7)], seconds)  # learned or (zero work) discarded
        estimate = model.estimate_group(KEY, jobs)
        assert estimate >= 0 and math.isfinite(estimate)
        assert model.estimate_group(KEY, jobs + more) >= estimate
        assert model.estimate_group(("big", *KEY[1:]), jobs) == pytest.approx(
            factor * estimate
        )
        assert model.estimate_group(("g", "bfs", strategy, system), jobs) == estimate


class TestThreadSafety:
    def test_concurrent_observers_lose_no_sample(self):
        model = sized()

        def feed():
            for _ in range(500):
                model.observe([(KEY, 1)], 0.010)
                model.estimate_group(KEY, 3)

        threads = [threading.Thread(target=feed) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert model.stats().samples == 2000
        assert model.estimate_group(KEY, 1) == pytest.approx(0.010)


class TestPredictedAgainstActual:
    """Wall-clock, so the bound is wide: the replay reads 0.2-0.5, the
    per-family size bootstrap this model replaced read 4.4-5.6."""

    #: (BFS sources, SSSP sources) per strategy: the ``serve-backlog`` shape.
    SOURCES = {"GK": (16, 16), "SK": (8, 4)}

    def wave(self, graphs, seed):
        picked = {
            name: [int(s) for s in pick_sources(graph, max(self.SOURCES[name]), seed=seed)]
            for name, graph in graphs.items()
        }
        requests = []
        for name in graphs:
            bfs, sssp = self.SOURCES[name]
            for strategy in ("merged_aligned", "merged", "uvm"):
                requests += [
                    TraversalRequest("bfs", name, s, strategy) for s in picked[name][:bfs]
                ]
            for strategy in ("merged_aligned", "uvm"):
                requests += [
                    TraversalRequest("sssp", name, s, strategy) for s in picked[name][:sssp]
                ]
                requests.append(TraversalRequest("pagerank", name, None, strategy))
        requests += [
            TraversalRequest("cc", "GK", None, strategy)
            for strategy in ("merged_aligned", "merged", "uvm")
        ]
        return requests

    def drain(self, graphs, seed, rates):
        registry = GraphRegistry()
        for graph in graphs.values():
            registry.register_graph(graph)
        with Service(registry, ServiceConfig(max_workers=1)) as service:
            service.cost_model.seed(rates)
            assert _serve_backlog(service, self.wave(graphs, seed)) == 0
            learned = {
                app: service.cost_model.rate(app)
                for app in ("bfs", "sssp", "pagerank", "cc")
            }
            return service.plan_decisions(), learned

    def test_median_relative_error_of_a_seeded_wave(self):
        graphs = {
            name: load_dataset(name, scale=16000, use_cache=False) for name in self.SOURCES
        }
        _, rates = self.drain(graphs, seed=1, rates={})
        assert all(rate is not None and rate > 0 for rate in rates.values())
        plans, _ = self.drain(graphs, seed=2, rates=rates)
        assert len(plans) >= 7
        errors = [
            abs(plan["predicted_seconds"] - plan["actual_seconds"]) / plan["actual_seconds"]
            for plan in plans
        ]
        assert statistics.median(errors) <= 1.0, sorted(errors)
