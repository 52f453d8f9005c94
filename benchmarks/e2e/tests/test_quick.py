"""``--quick`` emits every name ``BENCHMARK.json`` lists, in the contract's shape."""

import functools
import json
import re
import subprocess
import sys
import time

import pytest

from benchmarks.e2e.cli import ROOT, load_spec

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@functools.cache
def quick(trace: int) -> tuple[dict, float]:
    begin = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--quick", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=120, check=True,
    )
    elapsed = time.perf_counter() - begin
    lines = [json.loads(line) for line in done.stdout.splitlines() if line.startswith("{")]
    names = re.findall(r"^== (\S+)", done.stdout, flags=re.MULTILINE)
    return dict(zip(names, lines, strict=True)), elapsed


def test_spec_lists_the_benchmarks_own_names():
    spec = load_spec()
    assert spec["paths"] == ["benchmarks/e2e"]
    assert len(spec["per_layer"]) == 48
    assert "setup_s" in [m["name"] for m in spec["end_to_end"]]
    every = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in spec[key]]
    assert len(every) == len(set(every))
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in every)


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_quick_emits_every_workload_and_metric(trace, key):
    spec = load_spec()
    results, elapsed = quick(trace)
    assert elapsed < 20
    assert list(results) == [workload["name"] for workload in spec["workloads"]]
    for name, result in results.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0, name
        assert isinstance(result["attempted"], int) and result["attempted"] >= 1
        assert list(result["metrics"]) == [metric["name"] for metric in spec[key]]
        for metric in spec[key]:
            got = result["metrics"][metric["name"]]
            assert got["unit"] == metric["unit"]
            assert isinstance(got["value"], (int, float))
        if not trace:
            assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_quick_trace_writes_span_files():
    spec = load_spec()
    quick(1)
    for workload in spec["workloads"]:
        path = ROOT / "benchmarks/e2e/out" / f"trace-{workload['name']}.jsonl"
        first = json.loads(path.read_text().splitlines()[0])
        assert set(first) == {"id", "parent", "name", "layer", "start", "end", "op", "thread", "round"}
