"""The runner: one pinned subprocess per workload, one report, one result line.

``python -m benchmarks.e2e [--workload NAME] [--seed N] [--seconds S]
[--trace] [--quick]``.  The driver's form (``--workload X --seed N --seconds S
--trace 0|1``) ends with the JSON line ``BENCHMARK.json`` promises; without
``--workload`` every workload runs in turn and each gets its own line.

This process imports neither numpy nor :mod:`repro`: it only pins what the
worker sees, waits for it, and prints.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

#: Longest a worker may run before the runner gives up on it (the driver
#: allows 180 s per run).
WORKER_TIMEOUT = 170


class BenchmarkError(RuntimeError):
    """A run that produced no result; the runner exits non-zero without one."""


def worker_environment() -> dict[str, str]:
    """What the program sees: hashing, BLAS threads, allocator and switches pinned.

    Every ``REPRO_*`` switch of the caller is dropped; only the native-kernel
    cache is set, inside the benchmark's own output directory, so the build
    the first run makes is the one every later run loads.  One malloc arena:
    with glibc's per-thread arenas the service workloads' peak RSS came out
    at either 192 or 214 MB on identical inputs; with one it repeats to
    0.2 MB.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        MALLOC_ARENA_MAX="1",
        REPRO_NATIVE_DIR=str(OUT / "native"),
        PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(ROOT))),
    )
    return env


def run_worker(workload: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    """Run one workload in a fresh subprocess and return its JSON document."""
    OUT.mkdir(parents=True, exist_ok=True)
    command = [
        sys.executable, "-m", "benchmarks.e2e.worker",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(int(trace)), "--quick", str(int(quick)),
    ]
    if not (ROOT / "src" / "repro").is_dir():
        # Measure this checkout's program or nothing: never an installed copy.
        raise BenchmarkError(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=worker_environment(), stdout=subprocess.PIPE,
            text=True, timeout=WORKER_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"worker for {workload} ran past {WORKER_TIMEOUT} s") from None
    if done.returncode != 0:
        raise BenchmarkError(f"worker for {workload} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def result_line(document: dict) -> str:
    """The contract's last line: correct, attempted, failed, metrics."""
    return json.dumps(
        {key: document[key] for key in ("correct", "attempted", "failed", "metrics")}
    )


def report(document: dict, trace: bool) -> str:
    """Every metric by name with unit and sample count, plus the run's facts."""
    fp = document["fingerprint"]
    rounds = document["round_seconds"]
    lines = [
        f"== {document['workload']}  seed={document['seed']}  "
        f"{document['ops_per_round']} ops/round x {document['rounds']} timed rounds "
        f"({min(rounds):.3f}-{max(rounds):.3f} s)",
        f"   machine: nproc={fp['nproc']} python={fp['python']} numpy={fp['numpy']} "
        f"relax={fp['relax_backend']} loadavg={fp['loadavg_start']:.2f}",
        f"   import_s={document['import_s']:.3f} native_build_s="
        f"{document['native_build_s']:.3f} set-ups="
        + "/".join(f"{s:.3f}" for s in document["setup_seconds"])
        + f" wall_s={document['wall_s']:.1f}",
        f"   ops attempted={document['attempted']} failed={document['failed']} "
        f"sim_digest={document['sim_digest']}  peak RSS after "
        + ", ".join(f"{phase} {mb:.0f} MB" for phase, mb in document["rss_mb"].items()),
    ]
    repeat = document.get("repeat_traced" if trace else "repeat", {})
    if repeat.get("unstable"):
        lines.append(f"   counts differing between rounds: {', '.join(repeat['unstable'])}")

    def line(name: str, value: float, unit: str, note: str = "") -> str:
        return f"   {name:<28}{value:>16.6g} {unit}{note and f'  (n = {note})'}"

    if not trace:
        lines.append(
            f"   machine_speed={document['machine_speed']:.3f} of nominal, from "
            f"{document['rounds']} reference passes; best_* are stated at nominal speed "
            f"(as timed: {document['best_ops_per_s_unscaled']:.6g} ops/s)"
        )
    replicated = f"{document['samples']} ops, each the best of {document['rounds']} replicas"
    samples = {
        "best_ops_per_s": replicated,
        "best_latency_p50_ms": replicated,
        "best_latency_p90_ms": replicated,
        "setup_s": f"{len(document['setup_seconds'])} set-ups, their median",
    }
    for name, metric in document["metrics"].items():
        lines.append(line(name, metric["value"], metric["unit"], samples.get(name, "")))
    if trace:
        lines.append(
            f"   per-layer table of one round (least of {document['traced_rounds']} traced rounds; "
            f"{document['spans_written']} spans in {document['span_file']}):"
        )
        lines.extend("   " + row for row in document["table"].splitlines())
    else:
        typical = document["by_rounds"]
        pooled = f"{typical['pooled_samples']} op latencies pooled over the rounds"
        lines += [
            "   by rounds (the issue's definitions; judged by selfcheck, not by the driver):",
            line("ops_per_s", typical["ops_per_s"], "1/s",
                 f"{document['rounds']} rounds, their median"),
            line("latency_p50_ms", typical["latency_p50_ms"], "ms", pooled),
            line("latency_p90_ms", typical["latency_p90_ms"], "ms", pooled),
            line("latency_p99_ms", typical["latency_p99_ms"], "ms",
                 pooled + "; information only"),
        ]
    return "\n".join(lines)


def load_spec() -> dict:
    """``BENCHMARK.json``: the workload and metric names, and ``run_seconds``."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    workloads = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="benchmarks.e2e", description=__doc__)
    parser.add_argument("--workload", choices=workloads)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=float(spec["run_seconds"]),
        help="wall seconds of timed rounds per workload",
    )
    parser.add_argument(
        "--trace", nargs="?", const=1, default=0, type=int, choices=(0, 1),
        help="traced run: per-layer metrics, table and span file",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="one round at scale 40000 everywhere (a smoke test, not a measurement)",
    )
    args = parser.parse_args(argv)
    for name in [args.workload] if args.workload else workloads:
        try:
            document = run_worker(name, args.seed, args.seconds, bool(args.trace), args.quick)
        except BenchmarkError as error:
            print(f"benchmarks.e2e: {error}", file=sys.stderr)
            return 1
        print(report(document, bool(args.trace)))
        print(result_line(document), flush=True)
    return 0
