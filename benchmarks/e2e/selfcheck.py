"""Noise self-check: do two sets of runs of the same code agree?

``python -m benchmarks.e2e.selfcheck --sets 2 --runs N`` runs every workload
``N`` times per set, the sets alternating run by run (A1 B1 A2 B2 ...) so that
slow drift of the machine lands on both, run ``i`` of every set with seed
``--seed + i`` as the driver does.  Per workload and metric it prints each
set's median and IQR / median, how much worse the second median is than the
first, the bound, and a verdict:

* FAIL — a spread or the second-vs-first difference exceeds the bound, an op
  failed, an exact count differed between rounds of a run, or differed
  between the sets' runs of one seed;
* WARN — either exceeds half the bound;
* PASS — otherwise.

The end-to-end metrics of ``BENCHMARK.json`` are judged as the driver judges
them.  ``ops_per_s`` and the pooled ``latency_p50_ms`` / ``latency_p90_ms``
(the issue's definitions, ``by_rounds`` in a worker's document) are judged on
the two medians only, against the issue's tenth: that is how far they repeat.

The output is markdown; ``NOISE.md`` is a committed copy.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from .cli import OUT, load_spec, run_worker
from .stats import relative_spread, worse_by


def verdict(spreads: list[float], difference: float, bound: float, broken: bool,
            judge_spread: bool = True) -> str:
    """PASS / WARN / FAIL of one metric on one workload."""
    worst = max([difference, *(spreads if judge_spread else [])])
    if broken or worst > bound:
        return "FAIL"
    return "WARN" if worst > bound / 2 else "PASS"


#: The issue's metrics and bound, judged on the medians of the alternated sets.
BY_ROUNDS = (
    {"name": "ops_per_s", "better": "higher", "bound": 0.1},
    {"name": "latency_p50_ms", "better": "lower", "bound": 0.1},
    {"name": "latency_p90_ms", "better": "lower", "bound": 0.1},
)


def render(documents: dict, spec: dict, first_seed: int) -> tuple[str, bool]:
    """The markdown report of ``{workload: [set A runs, set B runs, ...]}``
    and whether anything failed."""
    sets = next(iter(documents.values()))
    fp = sets[0][0]["fingerprint"]
    lines = [
        f"# Noise self-check: {len(sets)} alternating sets x {len(sets[0])} runs, "
        f"seeds {first_seed}..{first_seed + len(sets[0]) - 1}, "
        f"{spec['run_seconds']} s of timed rounds",
        "",
        f"Machine: nproc={fp['nproc']}, Python {fp['python']}, numpy {fp['numpy']}, "
        f"relax backend {fp['relax_backend']}.",
        "",
        "| workload | metric | median A | median B | B worse by | IQR/median A "
        "| IQR/median B | bound | verdict |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    failed = False
    for name, sets in documents.items():
        runs = [document for members in sets for document in members]
        broken = any(d["failed"] or d["repeat"]["unstable"] for d in runs)
        # Runs of one seed must agree on every exact count and on the digest.
        for per_seed in zip(*sets):
            first = per_seed[0]
            broken |= any(
                d["repeat"]["counts"] != first["repeat"]["counts"]
                or d["sim_digest"] != first["sim_digest"]
                for d in per_seed
            )
        for metric in (*spec["end_to_end"], *BY_ROUNDS):
            key = metric["name"]
            judged_by_driver = metric not in BY_ROUNDS
            a, b = (
                [d["metrics"][key]["value"] if judged_by_driver else d["by_rounds"][key]
                 for d in members]
                for members in (sets[0], sets[-1])
            )
            spreads = [relative_spread(a), relative_spread(b)]
            difference = worse_by(statistics.median(a), statistics.median(b), metric["better"])
            # The driver judges setup_s on the medians only.
            outcome = verdict(spreads, difference, metric["bound"], broken,
                              judge_spread=judged_by_driver and key != "setup_s")
            failed |= outcome == "FAIL"
            lines.append(
                f"| {name} | {key} | {statistics.median(a):.5g} | {statistics.median(b):.5g} "
                f"| {difference:+.1%} | {spreads[0]:.1%} | {spreads[1]:.1%} "
                f"| {metric['bound']:.0%}{'' if judged_by_driver else ' on medians'} "
                f"| {outcome} |"
            )
        counts = "identical" if not broken else "DIFFERENT"
        lines.append(f"| {name} | exact counts, sim_digest, failed ops | | | | | | | {counts} |")
        speeds = [d["machine_speed"] for d in runs]
        lines.append(
            f"| {name} | machine_speed, least and most of the runs | | | | | | "
            f"| {min(speeds):.2f} to {max(speeds):.2f} |"
        )
    return "\n".join(lines), failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e.selfcheck", description=__doc__)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.sets < 2 or args.runs < 3:
        parser.error("need at least 2 sets of at least 3 runs")
    spec = load_spec()

    documents: dict[str, list[list[dict]]] = {}
    for workload in spec["workloads"]:
        name = workload["name"]
        sets: list[list[dict]] = [[] for _ in range(args.sets)]
        for run in range(args.runs):
            for index, members in enumerate(sets):
                members.append(
                    run_worker(name, args.seed + run, spec["run_seconds"], False, False)
                )
                print(f"# {name} run {run + 1}/{args.runs} set {'ABCDEFGH'[index % 8]}",
                      file=sys.stderr)
        documents[name] = sets
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "selfcheck.json").write_text(json.dumps(documents))
    report, failed = render(documents, spec, args.seed)
    print(report)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
