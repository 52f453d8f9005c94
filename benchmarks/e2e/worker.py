"""One workload, one process: set up, warm up twice, time replica rounds.

Started by :mod:`benchmarks.e2e.cli` with a pinned environment; prints one
JSON document (its last stdout line) that the runner turns into the report.
Run order and what each phase may touch:

1. imports and the one-time native-kernel build, timed and reported apart;
2. three complete set-ups (the first two are torn down, the third is kept);
3. warm-up round 1, verified op by op against references, whose value digests
   become the expected digests; warm-up round 2;
4. timed rounds until ``--seconds`` have passed (never fewer than
   ``MIN_ROUNDS``), every one a replica of the warm-ups, ``gc.collect()``
   before each, digests compared after each.  After every round one pass of
   the fixed reference work (:mod:`.reference`); between rounds, at even
   intervals, four more complete set-ups on a second instance of the
   workload.  ``setup_s`` is the median of the seven;
5. with ``--trace``: the same again with wrappers installed, then removed.

Two families of numbers come out of step 4 (``README.md``): the ``best_*``
metrics, from every op's minimum over the replicas and stated at the
reference's nominal machine speed, are what ``BENCHMARK.json`` lists;
``ops_per_s`` and the pooled ``latency_p*_ms``, as the issue defined them, are
reported beside them.
"""

from __future__ import annotations

from time import perf_counter

_STARTED = perf_counter()  # before the program under test is imported

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import numpy  # noqa: E402
from repro.traversal import _native, relax  # noqa: E402

from .cli import OUT, load_spec  # noqa: E402
from .layers import TARGETS, layer_metrics  # noqa: E402
from .reference import Reference, machine_speed  # noqa: E402
from .stats import best_round, median_throughput, percentile  # noqa: E402
from .tracing import SpanRecorder, format_table, layer_rows, write_jsonl  # noqa: E402
from .workloads import WORKLOADS, sim_digest, value_digests  # noqa: E402

_IMPORT_S = perf_counter() - _STARTED

#: Fewest timed rounds of a full run, whatever ``--seconds`` says.
MIN_ROUNDS = 7
#: Fewest rounds of each kind (untraced, traced) in a traced run, and the
#: most traced ones: every traced round of ``serve-hot`` keeps ~10^4 spans.
MIN_TRACE_ROUNDS = 3
MAX_TRACED_ROUNDS = 12
#: Complete set-ups per run.  A set-up is one block of 0.03-1.2 s that sees
#: the machine in one state, and slow phases last seconds: set-ups made in a
#: row all fall into the same one, and the median of three in a row came out
#: a fifth apart between two sets of runs of the same code.  Spread over the
#: run they see what the rounds see.
SETUPS_BEFORE = 3
SETUPS_DURING = 4
#: Fewest ops of a round, so that p90 has ten samples beyond it.
MIN_OPS = 100


def timed_setup(workload) -> tuple[float, dict]:
    """One complete set-up: its seconds and the set-up layers' readings."""
    gc.collect()
    begin = perf_counter()
    layers = workload.setup()
    return perf_counter() - begin, layers


class Sidework:
    """What a full run does between rounds, outside every timed window.

    One pass of the reference work after every round; and ``setups`` complete
    set-ups on a second instance of the workload, torn down again, at even
    intervals of ``seconds`` (with four, one each time another fifth of them
    has passed).
    """

    def __init__(self, spare, seconds: float, setups: int) -> None:
        self.spare = spare
        self.setups = setups
        self.interval = seconds / (setups + 1)
        self.reference = Reference()
        self.passes: list[list[float]] = []
        self.setup_seconds: list[float] = []

    def __call__(self, elapsed: float) -> None:
        self.passes.append(self.reference.run_pass())
        done = len(self.setup_seconds)
        if done < self.setups and elapsed >= (done + 1) * self.interval:
            self.setup_seconds.append(timed_setup(self.spare)[0])
            self.spare.teardown()

    def close(self) -> None:
        self.reference.close()
        self.spare.teardown()


def timed_rounds(workload, seconds, minimum, expected, tally, recorder=None,
                 maximum=None, between=None) -> list:
    """Replica rounds for ``seconds`` of wall time, at least ``minimum``.

    After each round (outside its timed window) every op's value digest is
    compared with ``expected``; a mismatch or a missing answer is a failed op
    and loses its latency.  Outputs are dropped once compared; then
    ``between`` is called with the seconds elapsed.
    """
    rounds = []
    begin = perf_counter()
    while len(rounds) < minimum or (
        perf_counter() - begin < seconds and len(rounds) != maximum
    ):
        gc.collect()
        if recorder is not None:
            recorder.round = len(rounds)
        result = workload.run_round(recorder)
        for index, digest in enumerate(value_digests(result.outputs)):
            tally["attempted"] += 1
            if result.latencies[index] is None or digest != expected[index]:
                tally["failed"] += 1
                result.latencies[index] = None
        result.outputs = None
        rounds.append(result)
        if between is not None:
            between(perf_counter() - begin)
    return rounds


def replicas(rounds: list) -> list[list]:
    """Latencies of the rounds that replicated the first one.

    A round whose exact counts differ (the repeat report names the count) did
    other work - on ``serve-backlog``, other batches - and its ops are not
    replicas of the first round's.
    """
    return [r.latencies for r in rounds if r.counts == rounds[0].counts]


def peak_rss_mb() -> float:
    """High-water resident set of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def repeat_report(rounds: list) -> dict:
    """Exact counts of the first round, and the names any later round broke."""
    first = rounds[0].counts
    unstable = sorted(
        name for name in first if any(r.counts.get(name) != first[name] for r in rounds)
    )
    return {"counts": first, "unstable": unstable}


def verify(workload, tally: dict) -> tuple[list, str]:
    """Warm-up round 1: check every op, return the expected value digests
    (``None`` for an op that failed its check) and the ``sim_digest``."""
    gc.collect()
    warm = workload.run_round()
    expected = value_digests(warm.outputs)
    for index, results in enumerate(warm.outputs):
        tally["attempted"] += 1
        if not results or not workload.check(index, results):
            tally["failed"] += 1
            expected[index] = None  # matches nothing: the op stays failed
    return expected, sim_digest(warm.outputs)


def by_rounds(rounds: list) -> dict:
    """The issue's definitions: the median round and the pooled replicas.

    They follow the machine's mood from run to run (a run's median round
    spreads by 7-33 % here, ``NOISE.md``), so the driver does not judge them;
    ``selfcheck`` does, on the medians of alternated sets.
    """
    pooled_ms = [1e3 * latency for r in rounds for latency in r.latencies if latency is not None]
    values = {
        "ops_per_s": median_throughput(
            [(sum(latency is not None for latency in r.latencies), r.seconds) for r in rounds]
        ),
        "pooled_samples": len(pooled_ms),
    }
    for fraction in (0.50, 0.90, 0.99):
        values[f"latency_p{round(100 * fraction)}_ms"] = (
            percentile(pooled_ms, fraction) if pooled_ms else 0.0
        )
    return values


def run(args: argparse.Namespace) -> dict:
    begin = perf_counter()
    native = _native.available()
    native_build_s = perf_counter() - begin
    fingerprint = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "relax_backend": relax.default_method(),
        "native": _native.status() if native else f"unavailable: {_native.status()}",
        "loadavg_start": os.getloadavg()[0],
    }
    spec = load_spec()

    # Where the high-water mark was reached: after imports, set-ups, warm-ups
    # (verification included); the metric is the value at exit.
    rss = {"import": peak_rss_mb()}
    workload = WORKLOADS[args.workload](args.seed, args.quick, OUT)
    setup_seconds = []
    for remaining in reversed(range(1 if args.quick else SETUPS_BEFORE)):
        seconds, setup_layers = timed_setup(workload)
        setup_seconds.append(seconds)
        if remaining:
            workload.teardown()
    rss["setup"] = peak_rss_mb()
    tally = {"attempted": 0, "failed": 0}
    sidework = None
    try:
        ops = len(workload.ops)
        if ops < MIN_OPS and not args.quick:
            raise RuntimeError(f"{workload.name} has {ops} ops per round, needs {MIN_OPS}")
        expected, digest = verify(workload, tally)
        if not args.quick:
            timed_rounds(workload, 0.0, 1, expected, tally)  # warm-up 2
        rss["warmup"] = peak_rss_mb()

        minimum = 1 if args.quick else (MIN_TRACE_ROUNDS if args.trace else MIN_ROUNDS)
        budget = 0.0 if args.quick else args.seconds / 2 if args.trace else args.seconds
        if not args.trace:
            sidework = Sidework(
                WORKLOADS[args.workload](args.seed, args.quick, OUT), budget,
                0 if args.quick else SETUPS_DURING,
            )
        rounds = timed_rounds(workload, budget, minimum, expected, tally, between=sidework)
        best_ops_per_s, best = best_round(replicas(rounds), workload.sequential)
        document = {
            "workload": workload.name,
            "seed": args.seed,
            "ops_per_round": ops,
            "rounds": len(rounds),
            "samples": len(best),
            "round_seconds": [r.seconds for r in rounds],
            "by_rounds": by_rounds(rounds),
            "sim_digest": digest,
            "import_s": _IMPORT_S,
            "native_build_s": native_build_s,
            "fingerprint": fingerprint,
            "repeat": repeat_report(rounds),
            "rss_mb": rss,
        }
        if args.trace:
            recorder = SpanRecorder()
            recorder.install(TARGETS)
            try:
                traced = timed_rounds(
                    workload, budget, minimum, expected, tally, recorder, MAX_TRACED_ROUNDS
                )
            finally:
                recorder.uninstall()
            traced_ops_per_s = best_round(replicas(traced), workload.sequential)[0]
            span_file = OUT / f"trace-{workload.name}.jsonl"
            document.update(
                traced_rounds=len(traced),
                spans_written=write_jsonl(recorder.spans, span_file, _STARTED),
                span_file=str(span_file),
                table=format_table(
                    layer_rows(recorder.spans), min(r.seconds for r in traced)
                ),
                repeat_traced=repeat_report(traced),
            )
            values = layer_metrics(
                recorder.spans, traced, setup_layers,
                # Undisturbed traced round / undisturbed untraced round.
                best_ops_per_s / traced_ops_per_s if traced_ops_per_s else 0.0,
            )
    finally:
        workload.teardown()
        if sidework is not None:
            sidework.close()

    if not args.trace:
        # The undisturbed times, restated at the reference's nominal speed: a
        # run the machine let go at 0.8 of it took 1.25 times as long.
        speed = machine_speed(sidework.passes)
        setup_seconds += sidework.setup_seconds
        document.update(machine_speed=speed, best_ops_per_s_unscaled=best_ops_per_s)
        values = {
            "best_ops_per_s": best_ops_per_s / speed,
            "best_latency_p50_ms": 1e3 * speed * percentile(best, 0.50) if best else 0.0,
            "best_latency_p90_ms": 1e3 * speed * percentile(best, 0.90) if best else 0.0,
            "peak_rss_mb": peak_rss_mb(),
            "setup_s": statistics.median(setup_seconds),
        }
    document["setup_seconds"] = setup_seconds
    document["metrics"] = {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in spec["per_layer" if args.trace else "end_to_end"]
    }
    document.update(tally, correct=tally["failed"] == 0, wall_s=perf_counter() - _STARTED)
    return document


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e.worker")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--quick", type=int, default=0)
    document = run(parser.parse_args(argv))
    print(json.dumps(document), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
