"""Percentile, median-of-rounds and spread helpers on hand-built inputs."""

import math

import pytest

from benchmarks.e2e.stats import (
    best_completions,
    best_of_replicas,
    best_round,
    digest_text,
    median_throughput,
    percentile,
    relative_spread,
    worse_by,
)


def test_percentile_is_a_sample_and_rounds_up():
    samples = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert percentile(samples, 0.0) == 1.0
    assert percentile(samples, 0.5) == 3.0
    assert percentile(samples, 0.9) == 5.0  # ceil(0.9 * 4) = 4
    assert percentile(samples, 1.0) == 5.0
    # Even window: the upper of the two middle samples, never the lower.
    assert percentile([1.0, 2.0], 0.5) == 2.0


def test_percentile_of_a_step_distribution_lands_inside_the_class():
    # 80 fast ops and 20 slow ones: p50 is a fast op, p90 a slow one.
    samples = [0.1] * 80 + [0.3] * 20
    assert percentile(samples, 0.50) == 0.1
    assert percentile(samples, 0.90) == 0.3


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 1.5)


def test_median_throughput_is_ops_over_the_median_round():
    # Three rounds of 10 ops in 2, 4 and 5 s: the median round takes 4 s.
    assert median_throughput([(10, 2.0), (10, 5.0), (10, 4.0)]) == pytest.approx(10 / 4.0)
    # One slow round out of five does not move it.
    assert median_throughput([(10, 2.0)] * 4 + [(10, 20.0)]) == pytest.approx(5.0)
    with pytest.raises(ValueError):
        median_throughput([])


def test_a_failed_op_lowers_throughput_by_rounds():
    # The failed op returned at once: the round got shorter, the rate must not rise.
    assert median_throughput([(9, 3.6)]) < median_throughput([(10, 4.0)]) + 1e-12
    assert median_throughput([(9, 3.6)]) == pytest.approx(2.5)


def test_best_of_replicas_takes_each_ops_minimum_and_skips_failures():
    rounds = [
        [1.0, 5.0, None, None],
        [2.0, 4.0, 7.0, None],
        [3.0, 6.0, 8.0, None],
    ]
    assert best_of_replicas(rounds) == [1.0, 4.0, 7.0, None]
    with pytest.raises(ValueError):
        best_of_replicas([])
    with pytest.raises(ValueError):
        best_of_replicas([[1.0, 2.0], [1.0]])  # replicas have the same ops


def test_a_disturbed_round_does_not_move_the_best_latencies():
    quiet = [[0.010, 0.020, 0.030], [0.011, 0.019, 0.031]]
    burst = quiet + [[0.050, 0.090, 0.120]]  # one round hit by a slow phase
    assert best_of_replicas(burst) == best_of_replicas(quiet) == [0.010, 0.019, 0.030]


def test_best_completions_rebuilds_the_chain_from_each_links_minimum():
    # Three batches finish at 1, 3, 6 s when undisturbed (links 1, 2, 3).
    # Replica 2 is hit during its second batch, replica 3 during its first;
    # op order inside a row does not matter, only finish rank does.
    waves = [
        [1.0, 3.0, 6.0],
        [7.5, 1.0, 4.5],  # links 1, 3.5, 3
        [3.4, 8.4, 5.4],  # links 3.4, 2, 3
    ]
    assert best_completions(waves) == pytest.approx([1.0, 3.0, 6.0])
    # Jobs of one batch finish together: their links are ~0 and stay ~0.
    assert best_completions([[2.0, 2.0, 5.0], [2.5, 2.5, 5.1]]) == pytest.approx(
        [2.0, 2.0, 4.6]
    )
    with pytest.raises(ValueError):
        best_completions([])


def test_best_round_of_sequential_ops_is_succeeded_ops_over_their_own_time():
    rounds = [
        [0.010, 0.020, 0.400],
        [0.012, 0.018, 0.390],
    ]
    rate, best = best_round(rounds, sequential=True)
    assert best == [0.010, 0.018, 0.390]
    assert rate == pytest.approx(3 / 0.418)


def test_an_op_that_failed_in_every_replica_leaves_rate_and_latencies():
    # The slowest op breaks: its column is None in every round.  Its time
    # leaves the denominator, so it must leave the numerator too, or breaking
    # the slowest op would read as a 15x gain.
    rounds = [
        [0.010, 0.020, None],
        [0.012, 0.018, None],
    ]
    rate, best = best_round(rounds, sequential=True)
    assert best == [0.010, 0.018]
    assert rate == pytest.approx(2 / 0.028)
    assert rate < 3 / 0.028
    # Nothing ever succeeded: rate 0, no latencies, no division by zero.
    assert best_round([[None, None]], sequential=True) == (0.0, [])


def test_best_round_of_a_wave_counts_complete_waves_only():
    waves = [
        [1.0, 3.0, 6.0],
        [1.2, None, 5.0],  # an op failed: the wave is no replica
        [1.5, 3.2, 6.1],
    ]
    rate, best = best_round(waves, sequential=False)
    assert best == pytest.approx([1.0, 2.7, 5.6])  # links 1.0, 1.7, 2.9
    assert rate == pytest.approx(3 / 5.6)
    assert best_round([[1.0, None]], sequential=False) == (0.0, [])


def test_relative_spread_matches_the_driver_formula():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    # statistics.quantiles(n=4) on 1..10 shifted: Q1 = 11.75, Q3 = 17.25.
    assert relative_spread(values) == pytest.approx((17.25 - 11.75) / 14.5)
    assert relative_spread([7.0]) == 0.0
    assert relative_spread([3.0, 3.0, 3.0]) == 0.0


def test_worse_by_respects_direction():
    assert worse_by(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert worse_by(100.0, 110.0, "higher") == pytest.approx(-0.10)
    assert worse_by(100.0, 90.0, "higher") == pytest.approx(0.10)
    assert worse_by(0.0, 0.0, "lower") == 0.0
    assert math.isinf(worse_by(0.0, 1.0, "lower"))


def test_digest_text_separates_parts():
    assert digest_text(["ab", "c"]) != digest_text(["a", "bc"])
    assert digest_text(["ab", "c"]) == digest_text(["ab", "c"])
    assert len(digest_text([])) == 16
