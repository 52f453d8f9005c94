"""Perf trajectory: scheduling policies under a skewed deadline workload.

This module tracks the implementation rather than the paper: it fires the
calibrated skewed burst from ``repro.bench.scheduler_bench`` (bulk
no-deadline batch groups + late urgent tight-deadline requests) at one
service per scheduling policy and writes ``BENCH_scheduler.json`` at the repo
root so CI can archive the trend.

The headline claim — EDF meets deadlines FIFO misses, and a bounded queue
sheds load with ``AdmissionError`` instead of growing without bound — is
asserted here; latency percentiles and amortization live in the JSON.

The multi-tenant section adds the fairness claim: weighted-fair queueing
holds the polite tenant's p95 where FIFO lets it collapse behind an
aggressive tenant's burst, at comparable aggregate throughput, and an
infeasible-deadline request is rejected at submit (``rejected_infeasible``)
instead of expiring in the queue.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.bench.scheduler_bench import (
    bench_scheduler,
    build_bench_graphs,
    format_report,
    headline_ok,
    plan_decision_lines,
    write_report,
)

#: Repo-root location of the JSON artifact.
BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_scheduler.json"
#: Repo-root plan-decision log of the planner-on bench arm (JSONL, one drain
#: decision per line), archived by CI next to the report.
PLAN_DECISIONS_PATH = BENCH_PATH.parent / "plan_decisions.jsonl"

#: Reduced shape: large enough that a bulk group takes a few milliseconds
#: (so the calibrated urgent deadline is meaningfully tight), small enough
#: that the whole module stays in the seconds range.
BENCH_VERTICES = 2500
BENCH_EDGES = 40000


def test_edf_meets_deadlines_fifo_misses(results_dir):
    graphs = build_bench_graphs(BENCH_VERTICES, BENCH_EDGES)
    report = bench_scheduler(graphs=graphs)
    write_report(report, BENCH_PATH)
    decision_lines = plan_decision_lines(report)
    PLAN_DECISIONS_PATH.write_text("\n".join(decision_lines) + "\n")
    (results_dir / "bench_scheduler.txt").write_text(format_report(report) + "\n")
    print("\n" + format_report(report))

    # The artifact this run just wrote must round-trip as valid JSON.
    parsed = json.loads(BENCH_PATH.read_text())
    assert parsed["benchmark"] == "service-scheduling"
    assert {
        "workload", "policies", "admission", "summary", "planner", "resilience"
    } <= set(parsed)

    by_policy = {run["policy"]: run for run in report["policies"]}
    assert set(by_policy) == {"fifo", "largest", "edf", "wfq"}
    for run in by_policy.values():
        assert run["finished_in_time"]
        # every job is accounted for: completed or failed (incl. expired)
        total = run["completed"] + run["failed"]
        assert total == report["workload"]["bulk_jobs"] + report["workload"]["urgent_jobs"]

    # The headline: deadline-aware ordering must never do worse than FIFO,
    # and on this calibrated workload it meets deadlines FIFO misses — or
    # meets every single one, if the machine is so fast that FIFO does too.
    # The calibration anchors the deadline to this machine's speed, so the
    # contrast survives slow CI hardware (the CI step is non-gating anyway).
    assert by_policy["edf"]["urgent_met"] >= by_policy["fifo"]["urgent_met"]
    assert headline_ok(report)

    # Admission control: a bounded queue sheds part of the burst with
    # AdmissionError instead of growing without bound.
    admission = report["admission"]
    assert admission["rejected"] > 0
    assert admission["rejected"] == admission["rejected_in_stats"]
    assert admission["admitted"] + admission["rejected"] == admission["burst"]

    # Multi-tenant fairness: WFQ holds the polite tenant's p95 where FIFO
    # lets it collapse behind the aggressive burst, at comparable aggregate
    # throughput.
    multi = report["multi_tenant"]
    mt_by_policy = {run["policy"]: run for run in multi["policies"]}
    assert set(mt_by_policy) == {"fifo", "wfq"}
    for run in mt_by_policy.values():
        assert run["finished_in_time"]
    mt_summary = multi["summary"]
    assert mt_summary["wfq_polite_p95_ms"] < mt_summary["fifo_polite_p95_ms"]
    assert mt_summary["wfq_holds_polite_p95"] is True
    # The 10% claim lives in the JSON (throughput_within_10pct) where the
    # archived trend can be inspected; the assertion keeps a wider band so a
    # GC pause on a noisy shared runner cannot fail the suite over wall-clock
    # jitter between two separately timed runs.
    ratio = mt_summary["throughput_ratio_wfq_over_fifo"]
    assert 0.75 <= ratio <= 1.33, f"aggregate throughput collapsed: {ratio:.3f}"

    # The infeasible-deadline probe: cost-model admission rejects it at
    # submit (counted as rejected_infeasible), where FIFO without admission
    # lets the same request expire in the queue.
    assert mt_summary["probe_rejected_under_wfq"] is True
    assert mt_by_policy["wfq"]["rejected_infeasible"] == 1
    assert mt_by_policy["wfq"]["expired"] == 0
    assert mt_summary["probe_expired_under_fifo"] is True
    assert mt_by_policy["fifo"]["rejected_infeasible"] == 0
    assert mt_by_policy["fifo"]["expired"] >= 1

    # Fusion planner: the mixed-application backlog must actually fuse (both
    # packed and streaming shapes), throughput with the planner must not fall
    # behind planner-off beyond timing jitter, and every drain decision must
    # be in the JSONL artifact this run just wrote.
    planner = report["planner"]
    on_run = next(run for run in planner["modes"] if run["planner"])
    off_run = next(run for run in planner["modes"] if not run["planner"])
    for run in (on_run, off_run):
        assert run["finished_in_time"]
        assert run["failed"] == 0
        assert run["completed"] == planner["workload"]["jobs"]
    # Plans are decided by shape alone, so both fused kinds must fire however
    # this machine's timings fall (the queued-then-drained shape contract is
    # tier-1: tests/test_planner.py::TestPlanShapesAreAFunctionOfTheBacklog).
    assert {"packed", "streaming"} <= set(on_run["fused_kinds"])
    # Planner off still drains through the plan path — one record per drain —
    # but never fuses: every plan is its anchor group alone.
    assert off_run["plans_logged"] > 0 and off_run["fused_plans"] == 0
    assert all(entry["groups"] == 1 for entry in off_run["plan_decisions"])
    # Timing, the one non-gating half: the strict >= 1.0 verdict lives in the
    # JSON (planner_not_slower) for the archived trend; the assertion keeps a
    # jitter band like the wfq throughput check above.
    ratio = planner["summary"]["throughput_ratio_on_over_off"]
    assert ratio >= 0.85, f"planner-on throughput collapsed: {ratio:.3f}"
    assert decision_lines and len(decision_lines) == on_run["plans_logged"]
    for line in decision_lines:
        entry = json.loads(line)
        assert {
            "kind", "shape", "groups", "lanes", "predicted_seconds", "actual_seconds"
        } <= set(entry)

    # Resilience substrate: an armed-but-idle fault plan never fired and its
    # hot-path cost stays recorded in the archived trend.  The 5% gate itself
    # lives in benchmarks/test_resilience_overhead.py; here the section just
    # has to be present and internally consistent.
    resilience = report["resilience"]
    assert resilience["faults_fired"] == 0
    assert resilience["armed_idle_ms"] > 0 and resilience["off_ms"] > 0
