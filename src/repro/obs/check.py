"""Validate a drained trace JSONL file (CI smoke gate).

``python -m repro.obs.check trace.jsonl`` asserts that:

* every line parses as a JSON span with the required fields;
* every request trace carries the full lifecycle — ``admission``, ``queue``,
  ``sweep``, and ``cache`` spans;
* the four stage durations tile the request: they sum to the request's
  measured end-to-end latency (the ``latency_seconds`` attribute stamped on
  the ``admission`` span) within 1ms;
* every ``sweep_ref`` attribution link on a per-request sweep span points at
  an ``engine_sweep`` span that actually exists in the file (fused/deduped
  requests share that sweep).

Exits non-zero with one line per violation, so the CI step is a plain
command, not a test framework.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from typing import Any

from .trace import LIFECYCLE_STAGES

#: Optional span names that may appear any number of times per trace:
#: ``engine_sweep`` (shared engine invocations), ``retry`` (one per backoff
#: wait on the resilience path), and ``plan`` (one per fusion-planner drain
#: decision, carrying the chosen shape and estimated-vs-actual cost).
AUXILIARY_SPANS = ("engine_sweep", "retry", "plan")

#: Maximum allowed |sum(stage durations) - measured latency|, in seconds.
TILE_TOLERANCE_SECONDS = 1e-3

_REQUIRED_FIELDS = ("trace_id", "span_id", "name", "start_unix", "duration_seconds")


def check_trace_lines(lines: list[str]) -> tuple[int, list[str]]:
    """Validate JSONL span lines; returns ``(request_traces_checked, errors)``."""
    errors: list[str] = []
    traces: dict[str, dict[str, dict[str, Any]]] = defaultdict(dict)
    sweep_span_ids: set[str] = set()
    retry_refs: list[tuple[int, str, str]] = []

    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            span = json.loads(line)
        except json.JSONDecodeError as exc:
            errors.append(f"line {lineno}: not valid JSON ({exc})")
            continue
        missing = [key for key in _REQUIRED_FIELDS if key not in span]
        if missing:
            errors.append(f"line {lineno}: span missing fields {missing}")
            continue
        if span["duration_seconds"] < 0:
            errors.append(
                f"line {lineno}: negative duration {span['duration_seconds']}"
            )
        if span["name"] == "engine_sweep":
            sweep_span_ids.add(span["span_id"])
        elif span["name"] == "retry":
            # Retry spans record backoff waits; they ride a request trace but
            # are not lifecycle stages (a trace may carry zero or many).  A
            # sweep_ref, when present, must resolve like any other.
            ref = span.get("attributes", {}).get("sweep_ref")
            if ref is not None:
                retry_refs.append((lineno, span["trace_id"], ref))
        elif span["name"] == "plan":
            # Plan spans record one fusion decision each; a trace sees one
            # per drain it participated in (zero when untraced jobs anchored).
            pass
        elif span["name"] in LIFECYCLE_STAGES:
            stages = traces[span["trace_id"]]
            if span["name"] in stages:
                errors.append(
                    f"trace {span['trace_id']}: duplicate {span['name']} span"
                )
            stages[span["name"]] = span
        else:
            errors.append(f"line {lineno}: unknown span name {span['name']!r}")

    for trace_id, stages in sorted(traces.items()):
        missing_stages = [name for name in LIFECYCLE_STAGES if name not in stages]
        if missing_stages:
            errors.append(f"trace {trace_id}: missing stages {missing_stages}")
            continue
        total = sum(stages[name]["duration_seconds"] for name in LIFECYCLE_STAGES)
        attrs = stages["admission"].get("attributes", {})
        latency = attrs.get("latency_seconds")
        if latency is None:
            errors.append(
                f"trace {trace_id}: admission span lacks latency_seconds attribute"
            )
        elif abs(total - latency) > TILE_TOLERANCE_SECONDS:
            errors.append(
                f"trace {trace_id}: stage durations sum to {total:.6f}s but "
                f"measured latency is {latency:.6f}s "
                f"(|delta| {abs(total - latency) * 1e3:.3f}ms > 1ms)"
            )
        sweep_attrs = stages["sweep"].get("attributes", {})
        sweep_ref = sweep_attrs.get("sweep_ref")
        if sweep_ref is not None and sweep_ref not in sweep_span_ids:
            errors.append(
                f"trace {trace_id}: sweep_ref {sweep_ref!r} does not match any "
                f"engine_sweep span in the file"
            )

    for lineno, trace_id, ref in retry_refs:
        if ref not in sweep_span_ids:
            errors.append(
                f"line {lineno}: retry span of trace {trace_id} references "
                f"sweep_ref {ref!r} with no matching engine_sweep span"
            )

    return len(traces), errors


def check_trace_file(path: str) -> tuple[int, list[str]]:
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.readlines()
    if not lines:
        return 0, [f"{path}: trace file is empty"]
    return check_trace_lines(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.check",
        description="Validate a drained trace JSONL file.",
    )
    parser.add_argument("path", help="trace file (one JSON span per line)")
    parser.add_argument(
        "--min-traces",
        type=int,
        default=1,
        help="fail unless at least this many request traces are present",
    )
    args = parser.parse_args(argv)

    try:
        checked, errors = check_trace_file(args.path)
    except OSError as exc:
        print(f"TRACE CHECK: cannot read {args.path}: {exc}", file=sys.stderr)
        return 1
    if checked < args.min_traces:
        errors.append(
            f"{args.path}: only {checked} request traces found "
            f"(need >= {args.min_traces})"
        )
    for error in errors:
        print(f"TRACE CHECK: {error}", file=sys.stderr)
    if errors:
        return 1
    print(f"TRACE CHECK: OK — {checked} request traces, all stages tiled within 1ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
