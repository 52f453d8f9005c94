"""Tests for the ``repro serve-batch`` CLI subcommand."""

import json
import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.traversal import _native

WORKLOAD = Path(__file__).resolve().parents[1] / "examples" / "workload.json"


class TestServeBatch:
    def test_example_workload_prints_throughput_report(self, capsys):
        assert main(["serve-batch", str(WORKLOAD)]) == 0
        output = capsys.readouterr().out
        assert "Serving workload report" in output
        assert "requests/s" in output
        assert "latency mean/p50/p95" in output
        assert "deduplicated" in output
        assert "result cache" in output

    def test_overrides(self, capsys):
        assert main(["serve-batch", str(WORKLOAD), "--workers", "2",
                     "--budget-mib", "32", "--cache-entries", "64"]) == 0
        assert "requests/s" in capsys.readouterr().out

    def test_scheduling_overrides(self, capsys):
        assert main(["serve-batch", str(WORKLOAD), "--policy", "edf",
                     "--queue-limit", "512", "--tenant-quota", "128"]) == 0
        output = capsys.readouterr().out
        assert "policy=edf" in output
        assert "rejected at admission" in output

    def test_wfq_overrides(self, capsys):
        assert main(["serve-batch", str(WORKLOAD), "--policy", "wfq",
                     "--tenant-weights", "interactive=4,bulk=1",
                     "--reject-infeasible"]) == 0
        output = capsys.readouterr().out
        assert "policy=wfq" in output
        assert "cost model:" in output
        assert "infeasible" in output

    def test_unknown_policy_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve-batch", str(WORKLOAD), "--policy", "lifo"])

    def test_bad_tenant_weights_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve-batch", str(WORKLOAD), "--tenant-weights", "oops"])
        with pytest.raises(SystemExit):
            main(["serve-batch", str(WORKLOAD), "--tenant-weights", "a=heavy"])

    def test_missing_file(self, capsys):
        assert main(["serve-batch", "no-such-workload.json"]) == 2
        assert "serve-batch failed" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["serve-batch", str(bad)]) == 2
        assert "serve-batch failed" in capsys.readouterr().err

    def test_structurally_invalid_workload(self, tmp_path, capsys):
        bad = tmp_path / "empty.json"
        bad.write_text(json.dumps({"graphs": [], "requests": []}))
        assert main(["serve-batch", str(bad)]) == 2
        assert "serve-batch failed" in capsys.readouterr().err

    def test_unknown_dataset_in_workload(self, tmp_path, capsys):
        spec = {
            "graphs": [{"name": "x", "dataset": "NOPE"}],
            "requests": [{"app": "bfs", "graph": "x", "source": 0}],
        }
        path = tmp_path / "bad-dataset.json"
        path.write_text(json.dumps(spec))
        assert main(["serve-batch", str(path)]) == 2
        assert "serve-batch failed" in capsys.readouterr().err

    def test_transient_faults_ride_retries_to_exit_zero(self, capsys):
        assert main([
            "serve-batch", str(WORKLOAD),
            "--faults", "seed=9;registry.load:transient:n=1:limit=1",
        ]) == 0
        output = capsys.readouterr().out
        assert "resilience:" in output
        assert "faults injected" in output

    def test_setup_time_load_faults_are_retried_on_the_ledger(self, capsys):
        # Both faults fire while sources are sampled, before any request is
        # submitted: the service's retry ladder rides them, and they are
        # reported as retries like a drain's.
        assert main([
            "serve-batch", str(WORKLOAD),
            "--faults", "seed=9;registry.load:transient:n=1:limit=2",
        ]) == 0
        output = capsys.readouterr().out
        assert "failed=0" in output
        assert "resilience: 2 retries," in output
        assert "2 faults injected" in output

    def test_permanent_faults_fail_the_batch(self, capsys):
        assert main([
            "serve-batch", str(WORKLOAD),
            "--faults", "worker.task:permanent:tenant=interactive",
        ]) == 1
        captured = capsys.readouterr()
        assert "request(s) failed" in captured.err
        assert "Serving workload report" in captured.out  # report still prints

    @pytest.mark.skipif(not _native.available(), reason="native kernels unavailable")
    @pytest.mark.parametrize(
        "spec, expected",
        [("native.invoke:transient:n=2:limit=2", 2), ("native.invoke:permanent", None)],
        ids=["two-sweeps", "every-call"],
    )
    def test_native_faults_step_down_without_failing_a_request(
        self, capsys, spec, expected
    ):
        # The chaos smoke's native arm: each failed native sweep is re-run
        # once on numpy and returns the same values, so no request fails and
        # the run exits 0 — even when every native call fails.
        assert main(["serve-batch", str(WORKLOAD), "--faults", spec]) == 0
        output = capsys.readouterr().out
        assert "0 failed" in output and "failed=0" in output
        degraded = int(re.search(r"(\d+) degraded sweeps", output).group(1))
        injected = int(re.search(r"(\d+) faults injected", output).group(1))
        assert degraded == injected > 0
        if expected is not None:
            assert degraded == expected

    def test_malformed_fault_spec_is_a_usage_error(self, capsys):
        assert main([
            "serve-batch", str(WORKLOAD), "--faults", "not-a-site:transient",
        ]) == 2
        assert "serve-batch failed" in capsys.readouterr().err

    def test_transient_load_faults_report_no_step_down(self, capsys):
        assert main([
            "serve-batch", str(WORKLOAD),
            "--faults", "seed=7;registry.load:transient:n=2:limit=1",
        ]) == 0
        output = capsys.readouterr().out
        assert "failed=0" in output
        assert "0 degraded sweeps" in output
        assert "store: disabled" in output

    def test_listed_alongside_figures(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "serve-batch" in output
        assert "stats" in output
        assert "health" not in output
        assert main(["health"]) == 2  # an unknown target, not a subcommand
        assert "unknown target(s): health" in capsys.readouterr().err
