"""The reference work: a fixed pass, and the speed read off its passes."""

import pytest

from benchmarks.e2e.reference import NOMINAL_SECONDS, Reference, machine_speed


def test_machine_speed_takes_each_pieces_minimum():
    # Two pieces, three passes; the slow second pass moves nothing.
    quiet = [[0.006, 0.010], [0.007, 0.009]]
    burst = quiet + [[0.030, 0.050]]
    assert machine_speed(burst) == machine_speed(quiet)
    assert machine_speed(quiet) == pytest.approx(NOMINAL_SECONDS / 0.015)
    # A machine that is slower throughout reads slower: that is the point.
    slow = [[1.4 * seconds for seconds in row] for row in quiet]
    assert machine_speed(slow) == pytest.approx(machine_speed(quiet) / 1.4)
    with pytest.raises(ValueError):
        machine_speed([])
    with pytest.raises(ValueError):
        machine_speed([[0.1, 0.2], [0.1]])  # passes have the same pieces


def test_a_pass_is_the_same_pieces_in_the_same_order_every_time():
    first, second = Reference(), Reference()
    try:
        names = [piece.__name__ for piece in first.pieces]
        assert names == [piece.__name__ for piece in second.pieces]
        assert len(names) == 100 and len(set(names)) == 3
        # Built from a fixed seed, not from --seed: same state, same results.
        assert [piece() for piece in first.pieces[:10]] == [piece() for piece in second.pieces[:10]]
        seconds = first.run_pass()
        assert len(seconds) == 100 and all(s > 0 for s in seconds)
    finally:
        first.close()
        second.close()
