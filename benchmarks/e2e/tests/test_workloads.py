"""Op lists are a function of the seed, and of nothing else."""

import pytest

from benchmarks.e2e.workloads import WORKLOADS, sim_digest, value_digests


def inputs(name, seed, tmp_path):
    workload = WORKLOADS[name](seed, True, tmp_path)
    workload.setup()
    try:
        return workload.describe_inputs()
    finally:
        workload.teardown()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name, tmp_path):
    first = inputs(name, 11, tmp_path)
    assert first and first == inputs(name, 11, tmp_path)
    assert first != inputs(name, 12, tmp_path)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_changes_sources_only(name, tmp_path):
    def shape(labels):
        # kind:application:graph:source:strategy with the source masked out
        return sorted(":".join(parts[:3] + parts[4:])
                      for parts in (label.split(":") for label in labels if ":" in label))

    first, second = shape(inputs(name, 11, tmp_path)), shape(inputs(name, 12, tmp_path))
    if name == "serve-hot":
        # The Zipf draw also decides how often each catalogue class is asked for.
        first, second = set(first), set(second)
    assert first == second


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_a_quick_round_verifies_and_replays_identically(name, tmp_path):
    workload = WORKLOADS[name](3, True, tmp_path)
    workload.setup()
    try:
        first = workload.run_round()
        assert len(first.outputs) == len(first.latencies) == len(workload.ops)
        assert all(latency is not None and latency > 0 for latency in first.latencies)
        assert all(workload.check(i, results) for i, results in enumerate(first.outputs))
        second = workload.run_round()
        assert value_digests(second.outputs) == value_digests(first.outputs)
        assert sim_digest(second.outputs) == sim_digest(first.outputs)
    finally:
        workload.teardown()
    assert not list(tmp_path.glob("*.sqlite*"))


def test_a_wrong_answer_fails_the_check(tmp_path):
    workload = WORKLOADS["paper-sweep"](3, True, tmp_path)
    workload.setup()
    try:
        outputs = workload.run_round().outputs
        outputs[0][0].values[0] += 1
        assert not workload.check(0, outputs[0])
        assert workload.check(1, outputs[1])
    finally:
        workload.teardown()
