"""The per-layer metrics: which calls are wrapped, and how the 48 names that
``BENCHMARK.json`` lists are read off the spans and counts of a traced run.

A layer is a module of the program.  Every ``*_s`` metric taken from spans is
the layer's **self** seconds in one round (duration minus child spans; the
least any traced round spent there), so the metrics of different layers never
count the same interval twice and their shares of a round add up; the printed
table shows busy seconds beside them.
Counts come from public outputs only: result metrics, ``Service.stats()``,
``plan_decisions()`` and ``drain_traces()``.
"""

from __future__ import annotations

from typing import Sequence

from .tracing import Span, layer_rows

#: (owner, attribute, span name, layer).  Class methods are wrapped on the
#: class; module functions on every module name a caller resolves them by
#: (``repro.service.service`` imports the batch entry points by name).
TARGETS = (
    ("repro", "run", "solo", "traversal"),
    ("repro.traversal.engine:TraversalEngine", "__init__", "engine_build", "traversal"),
    ("repro.traversal.engine:TraversalEngine", "process_frontier", "account", "memsim"),
    ("repro.memsim.zero_copy:ZeroCopyRegion", "access_merged", "zero_copy", "memsim"),
    ("repro.memsim.zero_copy:ZeroCopyRegion", "access_strided", "zero_copy", "memsim"),
    ("repro.memsim.uvm:UVMSpace", "access_byte_ranges", "uvm", "memsim"),
    ("repro.traversal.multisource", "run_batch", "batch", "multisource"),
    ("repro.traversal.multisource", "run_packed_batch", "batch", "multisource"),
    ("repro.service.service", "run_batch", "batch", "multisource"),
    ("repro.service.service", "run_packed_batch", "batch", "multisource"),
    ("repro.traversal.multisource", "relax_lanes", "sweep", "relax"),
    ("repro.traversal.streaming", "run_streaming_batch", "pass", "streaming"),
    ("repro.service.service", "run_streaming_batch", "pass", "streaming"),
    ("repro.traversal.arena:EngineArena", "acquire", "acquire", "arena"),
    ("repro.service.queue:RequestQueue", "push_or_join", "push", "queue"),
    ("repro.service.queue:RequestQueue", "pop_plan", "pop", "queue"),
    ("repro.service.planner:FusionPlanner", "build", "build", "planner"),
    ("repro.service.cache:ResultCache", "get", "get", "cache"),
    ("repro.service.cache:ResultCache", "put", "put", "cache"),
    ("repro.service.store:ServingStore", "lookup", "lookup", "store"),
    ("repro.service.store:ServingStore", "__init__", "open", "store"),
    ("repro.service.registry:GraphRegistry", "get", "get", "registry"),
    ("repro.obs.trace:Tracer", "emit", "emit", "obs"),
    ("repro.obs.trace:Tracer", "emit_many", "emit", "obs"),
)

#: Self-seconds metrics read from spans: metric -> ``layer.span``.
SPAN_SECONDS = {
    "traversal.solo_s": "traversal.solo",
    "traversal.engine_build_s": "traversal.engine_build",
    "memsim.account_s": "memsim.account",
    "memsim.zero_copy_s": "memsim.zero_copy",
    "memsim.uvm_s": "memsim.uvm",
    "multisource.batch_s": "multisource.batch",
    "relax.sweep_s": "relax.sweep",
    "streaming.pass_s": "streaming.pass",
    "arena.acquire_s": "arena.acquire",
    "queue.push_s": "queue.push",
    "queue.pop_s": "queue.pop",
    "planner.build_s": "planner.build",
    "cache.get_s": "cache.get",
    "cache.put_s": "cache.put",
    "store.lookup_s": "store.lookup",
    "store.open_s": "store.open",
    "registry.get_s": "registry.get",
    "obs.emit_s": "obs.emit",
}

#: Lifecycle span names of ``Service.drain_traces()`` -> metric.
LIFECYCLE = {
    "admission": "service.admission_s",
    "queue": "service.queue_wait_s",
    "sweep": "service.sweep_s",
    "cache": "service.publish_s",
}

#: Exact per-round counts copied from ``RoundResult.counts`` as they are.
COUNTS = (
    "traversal.edges_traversed",
    "traversal.iterations",
    "memsim.requests_simulated",
    "multisource.lanes",
    "relax.candidates",
    "streaming.lanes",
    "service.executions",
    "service.batches",
    "planner.plans",
    "cache.evictions",
    "store.hits",
    "registry.loads",
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    spans: Sequence[Span],
    rounds: Sequence,
    setup: dict,
    overhead_ratio: float,
) -> dict[str, float]:
    """Every per-layer value of one traced run, for one round.

    ``rounds`` are the traced :class:`~benchmarks.e2e.workloads.RoundResult`
    objects.  Seconds are the minimum over the traced rounds, counts are those
    of a round (every round has the same), ratios are taken over all rounds.
    A layer the workload bypasses reads 0, which is its predicted no-change
    cell made visible.  The names are the ``per_layer`` names of
    ``BENCHMARK.json``, which also holds their units.
    """
    count = len(rounds)
    rows = layer_rows(spans)
    values = {
        metric: rows[span_name].self_seconds if span_name in rows else 0.0
        for metric, span_name in SPAN_SECONDS.items()
    }
    account = rows.get("memsim.account")
    values["memsim.account_calls"] = account.calls if account is not None else 0

    def total(name: str) -> float:
        return sum(r.counts.get(name, 0) for r in rounds)

    for name in COUNTS:
        values[name] = total(name) / count
    # One memsim pass is the accounting call and the coalescing under it.
    values["memsim.host_ns_per_request"] = 1e9 * _ratio(
        account.busy_seconds if account is not None else 0.0,
        values["memsim.requests_simulated"],
    )

    acquires = {span.id for span in spans if span.layer == "arena"}
    built_inside = sum(
        1 for span in spans if span.name == "engine_build" and span.parent in acquires
    )
    values["arena.reuse_ratio"] = (
        1.0 - built_inside / len(acquires) if acquires else 0.0
    )

    lifecycle = []
    for result in rounds:
        sums = dict.fromkeys(LIFECYCLE.values(), 0.0)
        for span in result.service_spans or ():
            metric = LIFECYCLE.get(span["name"])
            if metric is not None:
                sums[metric] += span["duration_seconds"]
        lifecycle.append(sums)
    for metric in LIFECYCLE.values():
        values[metric] = min(sums[metric] for sums in lifecycle)
    values["obs.spans"] = sum(len(r.service_spans or ()) for r in rounds) / count

    values["service.amortization"] = _ratio(
        total("service.executions"), total("service.batches")
    )
    values["planner.fused_ratio"] = _ratio(total("planner.fused"), total("planner.plans"))
    values["cache.hit_ratio"] = _ratio(
        total("cache.hits"), total("cache.hits") + total("cache.misses")
    )
    for gauge in ("costmodel.abs_error_ms", "workers.busy_ratio"):
        values[gauge] = sum(r.gauges.get(gauge, 0.0) for r in rounds) / count

    for name in ("graph.load_s", "graph.edges_built", "store.flush_s", "store.writes"):
        values[name] = float(setup.get(name, 0.0))
    values["trace.overhead_ratio"] = overhead_ratio
    return values
