"""Tests for the ``repro serve-batch`` CLI subcommand."""

import json
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

    def test_permanent_faults_fail_the_batch(self, capsys):
        assert main([
            "serve-batch", str(WORKLOAD),
            "--faults", "worker.task:permanent:tenant=interactive",
        ]) == 1
        captured = capsys.readouterr()
        assert "request(s) failed" in captured.err
        assert "Serving workload report" in captured.out  # report still prints

    @pytest.mark.skipif(not _native.available(), reason="native kernels unavailable")
    def test_native_faults_step_down_without_failing_a_request(self, capsys):
        # The chaos smoke's native arm: two failed native sweeps, each re-run
        # once on numpy, and the run still exits 0.
        assert main([
            "serve-batch", str(WORKLOAD),
            "--faults", "native.invoke:transient:n=2:limit=2",
        ]) == 0
        output = capsys.readouterr().out
        assert "0 failed" in output
        assert "2 degraded sweeps" in output and "2 faults injected" in output

    def test_malformed_fault_spec_is_a_usage_error(self, capsys):
        assert main([
            "serve-batch", str(WORKLOAD), "--faults", "not-a-site:transient",
        ]) == 2
        assert "serve-batch failed" in capsys.readouterr().err

    def test_health_summary(self, capsys):
        assert main([
            "health", str(WORKLOAD),
            "--faults", "seed=7;registry.load:transient:n=2:limit=1",
        ]) == 0
        output = capsys.readouterr().out
        assert "Service health summary" in output
        assert "native kernels      : 0 sweep(s) re-run on numpy" in output
        assert "health: ok" in output

    @pytest.mark.skipif(not _native.available(), reason="native kernels unavailable")
    def test_health_stays_ok_when_every_native_call_fails(self, capsys):
        # Every sweep steps down to numpy and returns the same values, so no
        # request fails and the exit status stays 0.
        assert main([
            "health", str(WORKLOAD), "--faults", "native.invoke:permanent",
        ]) == 0
        lines = capsys.readouterr().out.splitlines()
        fields = {
            name.strip(): value.strip()
            for name, sep, value in (line.partition(":") for line in lines)
            if sep
        }
        stepped_down = int(fields["native kernels"].split()[0])
        assert stepped_down > 0
        assert fields["faults injected"] == str(stepped_down)
        assert "0 failed" in fields["requests"]
        assert fields["health"] == "ok"

    def test_health_failed_exit_code(self, capsys):
        assert main([
            "health", str(WORKLOAD),
            "--faults", "worker.task:permanent:tenant=interactive",
        ]) == 1
        assert "health: failed" in capsys.readouterr().out

    def test_listed_alongside_figures(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "serve-batch" in output
        assert "health" in output
