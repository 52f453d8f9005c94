"""Command-line entry point: regenerate figures/tables or serve a workload.

Usage::

    python -m repro.cli list
    python -m repro.cli figure9
    python -m repro.cli all --sources 2
    python -m repro.cli serve-batch examples/workload.json --policy edf
    python -m repro.cli trace examples/workload.json --output trace.jsonl
    python -m repro.cli stats examples/workload.json --format prom
    python -m repro.cli health examples/workload.json --faults 'seed=7;registry.load:transient:n=2:limit=1'
    python -m repro.cli bench-traversal --output BENCH_traversal.json
    python -m repro.cli bench-scheduler --output BENCH_scheduler.json
    python -m repro.cli lint --format json --output lint.json
    python -m repro.cli lint --locks
    python -m repro.cli serve-batch examples/workload.json --store serving.db
    python -m repro.cli store info serving.db
    python -m repro.cli store verify serving.db
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .bench.figures import ALL_FIGURES, FigureResult
from .bench.harness import ExperimentConfig, ExperimentHarness
from .config import DATASET_SCALE, SCHEDULING_POLICIES
from .errors import ReproError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the EMOGI paper's evaluation figures and tables.",
    )
    parser.add_argument(
        "target",
        help="figure4..figure12, table2, table3, 'all', or 'list'",
    )
    parser.add_argument(
        "--sources",
        type=int,
        default=4,
        help="random source vertices per graph (the paper uses 64)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help=f"dataset down-scaling factor (default: {DATASET_SCALE:g})",
    )
    return parser


def _build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve-batch",
        description=(
            "Drive the repro.service traversal server with a JSON workload "
            "file and print a throughput/latency report."
        ),
    )
    parser.add_argument("workload", help="path to a workload JSON file")
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker pool width (overrides the workload file)",
    )
    parser.add_argument(
        "--budget-mib",
        type=float,
        default=None,
        help="registry byte budget in MiB (overrides the workload file)",
    )
    parser.add_argument(
        "--cache-entries",
        type=int,
        default=None,
        help="result cache capacity (overrides the workload file)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="abort if the workload does not finish within this many seconds",
    )
    parser.add_argument(
        "--policy",
        choices=SCHEDULING_POLICIES,
        default=None,
        help="scheduling policy for draining batch groups "
        "(overrides the workload file; default fifo)",
    )
    parser.add_argument(
        "--queue-limit",
        type=int,
        default=None,
        help="maximum pending jobs; submissions beyond this are rejected "
        "with AdmissionError (overrides the workload file)",
    )
    parser.add_argument(
        "--tenant-quota",
        type=int,
        default=None,
        help="maximum pending jobs per tenant (overrides the workload file)",
    )
    parser.add_argument(
        "--tenant-weights",
        type=_parse_tenant_weights,
        default=None,
        metavar="TENANT=W[,TENANT=W...]",
        help="relative fair-queueing shares for the wfq policy, e.g. "
        "'interactive=4,bulk=1' (overrides the workload file)",
    )
    parser.add_argument(
        "--planner",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="enable/disable the fusion planner "
        "(--no-planner drains every group solo; overrides the workload file; "
        "default on)",
    )
    parser.add_argument(
        "--reject-infeasible",
        action="store_true",
        default=None,
        help="reject deadline requests the cost model deems unmeetable at "
        "submit instead of letting them expire in the queue",
    )
    parser.add_argument(
        "--trace-sample",
        type=float,
        default=None,
        help="fraction of requests traced end-to-end, in [0, 1] "
        "(overrides the workload file; default 1.0)",
    )
    parser.add_argument(
        "--trace-output",
        default=None,
        metavar="PATH",
        help="write the run's spans as JSONL to PATH ('-' for stdout)",
    )
    parser.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help="fault-injection plan in REPRO_FAULTS format, e.g. "
        "'seed=7;registry.load:transient:n=2:limit=2' "
        "(overrides the workload file and the environment)",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="SQLite file backing the durable serving store: graph catalog, "
        "persistent result cache, cost-model rates (overrides the "
        "workload file's store_path; default: no durability)",
    )
    return parser


def _parse_tenant_weights(text: str) -> dict:
    """Parse 'tenant=weight,tenant=weight' CLI syntax into a mapping."""
    weights = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        tenant, separator, weight = item.partition("=")
        if not separator:
            raise argparse.ArgumentTypeError(
                f"expected TENANT=WEIGHT, got {item!r}"
            )
        try:
            weights[tenant.strip()] = float(weight)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"weight for {tenant.strip()!r} must be a number, got {weight!r}"
            ) from None
    if not weights:
        raise argparse.ArgumentTypeError("no tenant weights given")
    return weights


def _build_trace_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro trace",
        description=(
            "Run a JSON workload through the traversal service and export "
            "the recorded request/sweep spans as JSONL (one span per line)."
        ),
    )
    parser.add_argument("workload", help="path to a workload JSON file")
    parser.add_argument(
        "--output",
        default="-",
        metavar="PATH",
        help="where to write the JSONL spans (default '-': stdout)",
    )
    parser.add_argument(
        "--sample",
        type=float,
        default=None,
        help="fraction of requests traced, in [0, 1] (default 1.0)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="abort if the workload does not finish within this many seconds",
    )
    return parser


def _build_stats_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro stats",
        description=(
            "Run a JSON workload through the traversal service and render "
            "its metrics registry (request outcomes, kernel counters, cost "
            "model error) in Prometheus text or JSON exposition format."
        ),
    )
    parser.add_argument("workload", help="path to a workload JSON file")
    parser.add_argument(
        "--format",
        choices=("prom", "json"),
        default="prom",
        help="exposition format (default: prom)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="abort if the workload does not finish within this many seconds",
    )
    return parser


def _build_health_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro health",
        description=(
            "Run a JSON workload through the traversal service and print a "
            "resilience-focused health summary: terminal outcomes, retries, "
            "sweep timeouts, fault isolation, and circuit-breaker state.  "
            "Exits 1 when the run ended degraded (breaker not closed) or "
            "with unexpected failures."
        ),
    )
    parser.add_argument("workload", help="path to a workload JSON file")
    parser.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help="fault-injection plan in REPRO_FAULTS format "
        "(overrides the workload file and the environment)",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="SQLite file backing the durable serving store "
        "(overrides the workload file's store_path)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="abort if the workload does not finish within this many seconds",
    )
    return parser


def _build_store_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro store",
        description=(
            "Operate on a durable serving store database (see 'repro "
            "serve-batch --store'): 'info' prints the catalog and row "
            "counts, 'verify' runs SQLite's integrity check (exits 1 on "
            "corruption), 'vacuum' checkpoints the WAL and compacts the "
            "file."
        ),
    )
    parser.add_argument(
        "action",
        choices=("info", "verify", "vacuum"),
        help="operation to run against the store database",
    )
    parser.add_argument("path", help="path to the store's SQLite file")
    return parser


def _store(argv: list[str]) -> int:
    from .errors import StoreError
    from .service.store import store_info, store_vacuum, store_verify

    args = _build_store_parser().parse_args(argv)
    if args.action == "verify":
        ok, detail = store_verify(args.path)
        print(f"{args.path}: {'ok' if ok else 'corrupt'} ({detail})")
        return 0 if ok else 1
    try:
        if args.action == "vacuum":
            store_vacuum(args.path)
            print(f"{args.path}: checkpointed and vacuumed")
            return 0
        info = store_info(args.path)
    except StoreError as exc:
        print(f"store {args.action} failed: {exc}", file=sys.stderr)
        return 2
    graphs = info.pop("graphs")
    print(json.dumps(info, indent=2, sort_keys=True))
    for entry in graphs:
        print(
            f"  {entry['name']}: fingerprint={entry['fingerprint']} "
            f"{entry['num_vertices']}v/{entry['num_edges']}e "
            f"resident={entry['resident']} loads={entry['loads']} "
            f"evictions={entry['evictions']}"
        )
    return 0


def _build_bench_traversal_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro bench-traversal",
        description=(
            "Benchmark batched multi-source traversal against independent "
            "per-source runs and write the report to BENCH_traversal.json."
        ),
    )
    parser.add_argument(
        "--vertices", type=int, default=None, help="benchmark graph vertex count"
    )
    parser.add_argument(
        "--edges", type=int, default=None, help="benchmark graph edge count"
    )
    parser.add_argument(
        "--sources",
        type=int,
        default=None,
        help="sources per run_average batch (the paper uses 64)",
    )
    parser.add_argument(
        "--apps",
        default="bfs,sssp,cc,pagerank",
        help="comma-separated applications to benchmark: bfs/sssp are "
        "batched across sources, cc/pagerank across platform lanes",
    )
    parser.add_argument(
        "--lanes",
        type=int,
        default=None,
        help="platform lanes per streaming (cc/pagerank) scenario "
        "(default: 8, max 64 per word)",
    )
    parser.add_argument(
        "--strategies",
        default="merged_aligned,uvm",
        help="comma-separated access strategies to benchmark",
    )
    parser.add_argument(
        "--output",
        default="BENCH_traversal.json",
        help="path of the JSON report (default: BENCH_traversal.json)",
    )
    return parser


def _build_bench_scheduler_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro bench-scheduler",
        description=(
            "Benchmark the serving scheduler: a skewed open-loop burst of "
            "bulk batch groups plus tight-deadline urgent requests, run under "
            "every scheduling policy, reported to BENCH_scheduler.json."
        ),
    )
    parser.add_argument(
        "--vertices", type=int, default=None, help="bulk benchmark graph vertex count"
    )
    parser.add_argument(
        "--edges", type=int, default=None, help="bulk benchmark graph edge count"
    )
    parser.add_argument(
        "--urgent",
        type=int,
        default=None,
        help="number of tight-deadline urgent requests",
    )
    parser.add_argument(
        "--policies",
        default=",".join(SCHEDULING_POLICIES),
        help="comma-separated scheduling policies to compare",
    )
    parser.add_argument(
        "--output",
        default="BENCH_scheduler.json",
        help="path of the JSON report (default: BENCH_scheduler.json)",
    )
    return parser


def _build_lint_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "Run the repo-invariant lint rules (REPRO101..REPRO106) over the "
            "repro package (or explicit paths) and, with --locks, drive an "
            "in-process service smoke under the lock-order detector.  Exits "
            "non-zero when findings or ordering cycles are reported."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the installed repro package)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="also write the JSON report to PATH (for CI artifacts)",
    )
    parser.add_argument(
        "--locks",
        action="store_true",
        help="run a small in-process serving smoke with lock-order tracking "
        "armed and report any acquisition-order cycles",
    )
    return parser


def _lock_smoke() -> int:
    """Exercise the serving tier's locks in-process and report cycles.

    Lock tracking is armed for every lock created after this point; the
    module-level locks constructed at import time stay plain (arm
    ``REPRO_LOCKCHECK=1`` in the environment before starting Python to cover
    those too, as the CI chaos step does).
    """
    from .analysis import lockorder
    from .config import ServiceConfig
    from .graph.generators import uniform_random_graph
    from .service.registry import GraphRegistry
    from .service.requests import TraversalRequest
    from .service.service import Service

    lockorder.install(True)
    lockorder.reset()
    try:
        graph = uniform_random_graph(400, 4000, seed=11, name="lint-locks")
        registry = GraphRegistry()
        registry.register_graph(graph)
        with Service(
            registry=registry, config=ServiceConfig(max_workers=2)
        ) as service:
            jobs = [
                service.submit(TraversalRequest("bfs", graph.name, source=s))
                for s in range(4)
            ]
            jobs.append(service.submit(TraversalRequest("sssp", graph.name, source=0)))
            jobs.append(service.submit(TraversalRequest("cc", graph.name)))
            for job in jobs:
                service.result(job, timeout=60)
            service.collect_metrics().render_prometheus()
            service.drain_traces()
    finally:
        lockorder.install(None)
    found = lockorder.cycles()
    print(lockorder.format_report(found))
    return 1 if found else 0


def _lint(argv: list[str]) -> int:
    from .analysis import LintEngine, default_config

    args = _build_lint_parser().parse_args(argv)
    engine = LintEngine(default_config())
    if args.paths:
        report = engine.lint_paths(args.paths)
    else:
        from .analysis import lint_tree

        report = lint_tree()
    if args.format == "json":
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(report.format())
    if args.output is not None:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                json.dump(report.to_json(), handle, indent=2, sort_keys=True)
        except OSError as exc:
            print(f"lint report export failed: {exc}", file=sys.stderr)
            return 2
        print(f"(JSON report written to {args.output})")
    status = 0 if report.clean else 1
    if args.locks:
        lock_status = _lock_smoke()
        status = status or lock_status
    return status


def _bench_scheduler(argv: list[str]) -> int:
    from .bench.scheduler_bench import (
        DEFAULT_EDGES,
        DEFAULT_URGENT,
        DEFAULT_VERTICES,
        bench_scheduler,
        build_bench_graphs,
        format_report,
        headline_ok,
        write_report,
    )

    args = _build_bench_scheduler_parser().parse_args(argv)
    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    try:
        graphs = build_bench_graphs(
            num_vertices=args.vertices if args.vertices is not None else DEFAULT_VERTICES,
            num_edges=args.edges if args.edges is not None else DEFAULT_EDGES,
        )
        report = bench_scheduler(
            graphs=graphs,
            policies=policies,
            num_urgent=args.urgent if args.urgent is not None else DEFAULT_URGENT,
        )
        path = write_report(report, args.output)
    except (OSError, ValueError, ReproError) as exc:
        print(f"bench-scheduler failed: {exc}", file=sys.stderr)
        return 2
    print(format_report(report))
    print(f"(report written to {path})")
    # headline_ok is None when the fifo/edf contrast was not requested
    # (e.g. --policies largest): a deliberate subset is simply successful.
    return 1 if headline_ok(report) is False else 0


def _bench_traversal(argv: list[str]) -> int:
    from .bench.traversal_bench import (
        DEFAULT_EDGES,
        DEFAULT_LANES,
        DEFAULT_SOURCES,
        DEFAULT_VERTICES,
        bench_traversal,
        build_bench_graph,
        format_report,
        write_report,
    )

    args = _build_bench_traversal_parser().parse_args(argv)
    try:
        graph = build_bench_graph(
            num_vertices=args.vertices if args.vertices is not None else DEFAULT_VERTICES,
            num_edges=args.edges if args.edges is not None else DEFAULT_EDGES,
        )
        report = bench_traversal(
            graph=graph,
            num_sources=args.sources if args.sources is not None else DEFAULT_SOURCES,
            strategies=[s.strip() for s in args.strategies.split(",") if s.strip()],
            applications=[a.strip() for a in args.apps.split(",") if a.strip()],
            num_lanes=args.lanes if args.lanes is not None else DEFAULT_LANES,
        )
        path = write_report(report, args.output)
    except (OSError, ValueError, ReproError) as exc:
        print(f"bench-traversal failed: {exc}", file=sys.stderr)
        return 2
    print(format_report(report))
    print(f"(report written to {path})")
    return 0 if report["summary"]["all_values_match"] else 1


def _make_harness(args: argparse.Namespace) -> ExperimentHarness:
    kwargs: dict = {"num_sources": args.sources}
    if args.scale is not None:
        kwargs["scale"] = args.scale
    return ExperimentHarness(config=ExperimentConfig(**kwargs))


def _run_one(name: str, harness: ExperimentHarness) -> FigureResult:
    function = ALL_FIGURES[name]
    if name == "figure4":
        return function()
    return function(harness)


def _write_trace_jsonl(spans, path: str) -> None:
    """Write span dicts as JSONL to ``path``, or to stdout when ``-``."""
    lines = "".join(json.dumps(span, sort_keys=True) + "\n" for span in spans)
    if path == "-":
        sys.stdout.write(lines)
        return
    with open(path, "w") as handle:
        handle.write(lines)
    print(f"({len(spans)} span(s) written to {path})")


def _serve_batch(argv: list[str]) -> int:
    from .service.workload import serve_workload_file

    args = _build_serve_parser().parse_args(argv)
    try:
        report = serve_workload_file(
            args.workload,
            timeout=args.timeout,
            workers=args.workers,
            budget_mib=args.budget_mib,
            cache_entries=args.cache_entries,
            policy=args.policy,
            queue_limit=args.queue_limit,
            tenant_quota=args.tenant_quota,
            tenant_weights=args.tenant_weights,
            planner=args.planner,
            reject_infeasible=args.reject_infeasible,
            trace_sample=args.trace_sample,
            fault_plan=args.faults,
            store_path=args.store,
        )
    except (OSError, ValueError, ReproError) as exc:
        print(f"serve-batch failed: {exc}", file=sys.stderr)
        return 2
    print(report.to_table())
    if args.trace_output is not None:
        try:
            _write_trace_jsonl(report.traces, args.trace_output)
        except OSError as exc:
            print(f"serve-batch trace export failed: {exc}", file=sys.stderr)
            return 2
    # Jobs that reached a terminal FAILED state (permanent faults, retry
    # budgets exhausted) make the batch itself a failure: chaos drills in CI
    # rely on this to distinguish "rode out the faults" from "lost requests".
    if report.stats.failed > 0:
        print(
            f"serve-batch: {report.stats.failed} request(s) failed",
            file=sys.stderr,
        )
        return 1
    return 0


def _trace(argv: list[str]) -> int:
    from .service.workload import serve_workload_file

    args = _build_trace_parser().parse_args(argv)
    try:
        report = serve_workload_file(
            args.workload, timeout=args.timeout, trace_sample=args.sample
        )
        _write_trace_jsonl(report.traces, args.output)
    except (OSError, ValueError, ReproError) as exc:
        print(f"trace failed: {exc}", file=sys.stderr)
        return 2
    return 0


def _stats(argv: list[str]) -> int:
    from .service.workload import serve_workload_file

    args = _build_stats_parser().parse_args(argv)
    try:
        report = serve_workload_file(args.workload, timeout=args.timeout)
    except (OSError, ValueError, ReproError) as exc:
        print(f"stats failed: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(report.metrics.render_json(), indent=2, sort_keys=True))
    else:
        sys.stdout.write(report.metrics.render_prometheus())
    return 0


def _health(argv: list[str]) -> int:
    from .service.workload import serve_workload_file

    args = _build_health_parser().parse_args(argv)
    try:
        report = serve_workload_file(
            args.workload,
            timeout=args.timeout,
            fault_plan=args.faults,
            store_path=args.store,
        )
    except (OSError, ValueError, ReproError) as exc:
        print(f"health failed: {exc}", file=sys.stderr)
        return 2
    stats = report.stats
    terminal = stats.completed + stats.failed
    # A degraded/quarantined store never fails requests (serving falls back
    # to in-memory behaviour), so it is *reported* here without flipping the
    # exit status — that stays tied to request outcomes and the native
    # breaker, which chaos drills gate on.
    healthy = stats.breaker_state == "closed" and stats.failed == 0
    lines = [
        "Service health summary",
        "=" * 55,
        f"requests            : {report.total_requests} submitted, "
        f"{stats.deduplicated} coalesced onto in-flight jobs, "
        f"{terminal} terminal ({stats.completed} completed, "
        f"{stats.failed} failed, {stats.expired} of those expired in queue)",
        f"retries             : {stats.retries} "
        f"(transient loader/sweep failures retried with backoff)",
        f"sweep timeouts      : {stats.sweep_timeouts} "
        f"(cancelled at an iteration boundary)",
        f"fault isolation     : {stats.isolations} fused group(s) "
        f"re-executed member-by-member",
        f"native breaker      : {stats.breaker_state} "
        f"({stats.degraded} sweep(s) served degraded on the numpy backend)",
        f"faults injected     : {stats.faults_injected}",
        f"cache errors        : {stats.cache_errors} absorbed "
        f"(reads degraded to misses, writes dropped)",
        f"rejected after close: {stats.rejected_after_close}",
        f"durable store       : {stats.store_state} "
        f"({stats.store_hits} persistent hits, {stats.store_writes} writes, "
        f"{stats.store_backfilled} backfilled, "
        f"{stats.store_errors} errors absorbed)",
        "-" * 55,
        f"health: {'ok' if healthy else 'degraded'}",
    ]
    print("\n".join(lines))
    return 0 if healthy else 1


#: Subcommands with their own argument parser, in ``list`` order; everything
#: else is a figure/table target of the default parser.
SUBCOMMANDS = {
    "serve-batch": _serve_batch,
    "trace": _trace,
    "stats": _stats,
    "health": _health,
    "bench-traversal": _bench_traversal,
    "bench-scheduler": _bench_scheduler,
    "lint": _lint,
    "store": _store,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] in SUBCOMMANDS:
        return SUBCOMMANDS[argv[0]](argv[1:])

    args = _build_parser().parse_args(argv)
    if args.target == "list":
        print("\n".join((*ALL_FIGURES, *SUBCOMMANDS)))
        return 0

    targets = list(ALL_FIGURES) if args.target == "all" else [args.target]
    unknown = [name for name in targets if name not in ALL_FIGURES]
    if unknown:
        print(f"unknown target(s): {', '.join(unknown)}", file=sys.stderr)
        return 2

    harness = _make_harness(args)
    for name in targets:
        started = time.perf_counter()
        result = _run_one(name, harness)
        elapsed = time.perf_counter() - started
        print(result.to_table())
        print(f"(regenerated in {elapsed:.1f}s)\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
