"""The four workloads: what one replica round is, and how it is checked.

Every workload follows one protocol (see ``README.md``): ``setup`` builds the
graphs and generates the op list once from the seed; ``run_round`` replays
that exact list from an identical initial state (service workloads build a
fresh :class:`repro.Service` per round over graphs registered by reference)
and times it on the host clock; ``check`` verifies the first warm-up round
against independent references.  Nothing here is timed except the windows
inside ``run_round``; digesting and verification run on the outputs a round
hands back.

The seed draws sources and the Zipf sequence only.  Graphs are the fixed-seed
Table 2 analogs, and op order is canonical: on ``serve-backlog`` the order of
first appearance of each batch family decides the FIFO batch order and with it
every queue-wait percentile, so it is fixed by design, not shuffled.

Sizes are small on purpose (ops of 0.1-20 ms, rounds of 0.3-1.5 s, every
round at least 100 ops): the shared machine slows down in bursts, and an op's
minimum over many short replicas is the one statistic that repeats
(``NOISE.md``).
"""

from __future__ import annotations

import os
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, NamedTuple

import numpy as np

import repro
from repro import AccessStrategy, GraphRegistry, Service, ServiceConfig, TraversalRequest
from repro.graph.datasets import load_dataset, pick_sources
from repro.service.jobs import JobStatus
from repro.traversal.bfs import bfs_levels
from repro.traversal.cc import cc_labels
from repro.traversal.sssp import sssp_distances

from .stats import digest_bytes, digest_text

STRATEGIES = tuple(strategy.value for strategy in AccessStrategy)
EMOGI = AccessStrategy.MERGED_ALIGNED.value
UVM = AccessStrategy.UVM.value
MERGED = AccessStrategy.MERGED.value

#: Span ring of every benchmark service: large enough that a traced round's
#: ``drain_traces()`` sees every span.  Used traced and untraced alike so both
#: run the same program.
TRACE_BUFFER = 1 << 16

#: Scale of every graph under ``--quick``.
QUICK_SCALE = 40000.0


class Op(NamedTuple):
    """One operation of a round, as plain data generated from the seed."""

    kind: str  # solo | average | streaming | request
    application: str
    graph: str
    source: int | None = None
    strategy: str | None = None

    @property
    def label(self) -> str:
        source = "-" if self.source is None else str(self.source)
        return f"{self.kind}:{self.application}:{self.graph}:{source}:{self.strategy or '*'}"


@dataclass
class RoundResult:
    """What one round hands back; everything but ``seconds`` and
    ``latencies`` is consumed outside the timed window."""

    seconds: float
    #: Per-op host seconds, ``None`` where the op failed before it had one.
    latencies: list
    #: Per-op list of result objects (each with ``values`` and ``metrics``);
    #: empty for an op that raised or whose job did not finish ``DONE``.
    outputs: list
    #: Exact counts that must repeat in every round of every run of one seed.
    counts: dict = field(default_factory=dict)
    #: Timing-dependent readings (ratios, model error), averaged over rounds.
    gauges: dict = field(default_factory=dict)
    #: ``Service.drain_traces()`` of the round, traced runs only.
    service_spans: list | None = None


def sim_counts(outputs: list) -> dict:
    """Work counters summed over every result of a round (exact integers)."""
    edges = iterations = requests = candidates = 0
    for results in outputs:
        for result in results:
            metrics = result.metrics
            if metrics is None:
                continue
            iterations += metrics.iterations
            requests += metrics.total_pcie_requests + metrics.traffic.uvm_migrations
            if metrics.counters is not None:
                edges += metrics.counters.edges_traversed
                candidates += metrics.counters.relax_candidates
    return {
        "traversal.edges_traversed": int(edges),
        "traversal.iterations": int(iterations),
        "memsim.requests_simulated": int(requests),
        "relax.candidates": int(candidates),
    }


def value_digests(outputs: list) -> list[str]:
    """Per-op digest of the output values (dtype and bytes of every result).

    A result object answering several ops of one round (a cache hit hands
    out the cached object) is digested once.
    """
    seen: dict[int, str] = {}
    digests = []
    for results in outputs:
        parts = []
        for result in results:
            digest = seen.get(id(result))
            if digest is None:
                values = result.values
                digest = seen[id(result)] = digest_bytes(
                    (str(values.dtype).encode(), values.tobytes())
                )
            parts.append(digest)
        digests.append(digest_text(parts))
    return digests


def sim_digest(outputs: list) -> str:
    """Digest of every op's simulated metrics: seconds and traffic counters.

    A host-time-only change must leave this unchanged; floats are rendered
    with ``float.hex`` so the digest is bit-exact.
    """
    parts = []
    for results in outputs:
        for result in results:
            metrics = result.metrics
            if metrics is None:
                parts.append("none")
                continue
            traffic = metrics.traffic
            parts.append(
                ":".join(
                    (
                        float(metrics.seconds).hex(),
                        str(metrics.iterations),
                        repr(sorted(traffic.request_histogram.counts.items())),
                        str(traffic.uvm_migrated_bytes),
                        str(traffic.uvm_migrations),
                        str(traffic.uvm_pages_touched),
                        str(traffic.block_transfer_bytes),
                        str(traffic.dram_bytes),
                        str(traffic.useful_bytes),
                        str(traffic.edges_processed),
                        str(traffic.vertices_processed),
                        str(traffic.kernel_launches),
                    )
                )
            )
    return digest_text(parts)


class Workload:
    """Shared shape of the four workloads."""

    name = ""
    #: True where a round's ops run one after another, so that the round's
    #: duration is the sum of its ops'; False where they overlap in a wave
    #: and ``latencies`` are completion times since the wave arrived.
    sequential = True

    def __init__(self, seed: int, quick: bool, out_dir: Path) -> None:
        self.seed = int(seed)
        self.quick = bool(quick)
        self.out_dir = out_dir
        self.ops: list[Op] = []

    def setup(self) -> dict:
        """One complete set-up; returns the set-up layers' readings."""
        raise NotImplementedError

    def teardown(self) -> None:
        """Drop everything ``setup`` built (files included)."""
        for name in set(vars(self)) - {"seed", "quick", "out_dir"}:
            delattr(self, name)
        self.ops = []

    def run_round(self, recorder=None) -> RoundResult:
        raise NotImplementedError

    def check(self, index: int, results: list) -> bool:
        """Verify op ``index``'s warm-up results against a reference."""
        raise NotImplementedError

    def describe_inputs(self) -> list[str]:
        """Everything the seed decided, as strings (op list first)."""
        return [op.label for op in self.ops]

    def _load_graphs(self, symbols, scale: float) -> tuple[dict, dict]:
        """Generate the graphs; returns them and the ``graph`` layer's readings."""
        start = perf_counter()
        graphs = {
            symbol: load_dataset(
                symbol, scale=QUICK_SCALE if self.quick else scale, use_cache=False
            )
            for symbol in symbols
        }
        readings = {
            "graph.load_s": perf_counter() - start,
            "graph.edges_built": sum(graph.num_edges for graph in graphs.values()),
        }
        return graphs, readings

    def _run_sequential(self, call: Callable[[int, Op], list], recorder) -> tuple:
        """Issue every op in order; returns (seconds, latencies, outputs)."""
        latencies, outputs = [], []
        start = perf_counter()
        for index, op in enumerate(self.ops):
            if recorder is not None:
                recorder.op = f"op{index}"
            begin = perf_counter()
            try:
                results = call(index, op)
            except Exception:
                print(f"op failed: {op.label}", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
                latencies.append(None)
                outputs.append([])
                continue
            latencies.append(perf_counter() - begin)
            outputs.append(results)
        return perf_counter() - start, latencies, outputs


# ---------------------------------------------------------------------- #
# paper-sweep
# ---------------------------------------------------------------------- #
class PaperSweep(Workload):
    """Solo ``repro.run`` per source: the paper's 5.2 protocol."""

    name = "paper-sweep"
    SCALE = 16000.0
    #: Sources per (graph, application, strategy) cell.  Every cell draws its
    #: own, so one round covers 32 sources per application and graph: the seed
    #: moves the round's cost by little, and p90 falls well inside the slowest
    #: large class (SSSP on GK) instead of on its few slowest sources.
    SOURCES_PER_CELL = 8

    def setup(self) -> dict:
        self.graphs, readings = self._load_graphs(("GK", "SK"), self.SCALE)
        per_cell = 1 if self.quick else self.SOURCES_PER_CELL
        ops = []
        for symbol, graph in self.graphs.items():
            drawn = pick_sources(graph, 2 * len(STRATEGIES) * per_cell, seed=self.seed)
            sources = iter(int(source) for source in drawn)
            for application in ("bfs", "sssp"):
                for strategy in STRATEGIES:
                    for _ in range(per_cell):
                        ops.append(Op("solo", application, symbol, next(sources), strategy))
        # CC is evaluated on undirected graphs only (paper 5.4): GK, not SK.
        ops.extend(Op("solo", "cc", "GK", None, strategy) for strategy in STRATEGIES)
        self.ops = ops
        return readings

    def _solo(self, index: int, op: Op) -> list:
        # Looked up on the package at call time: the traced run wraps ``repro.run``.
        return [
            repro.run(op.application, self.graphs[op.graph], op.source,
                      AccessStrategy(op.strategy))
        ]

    def run_round(self, recorder=None) -> RoundResult:
        seconds, latencies, outputs = self._run_sequential(self._solo, recorder)
        return RoundResult(seconds, latencies, outputs, counts=sim_counts(outputs))

    def check(self, index: int, results: list) -> bool:
        op = self.ops[index]
        graph = self.graphs[op.graph]
        if op.application == "bfs":
            expected = bfs_levels(graph, op.source)
        elif op.application == "sssp":
            expected = sssp_distances(graph, op.source)
        else:
            expected = cc_labels(graph)
        return len(results) == 1 and np.array_equal(results[0].values, expected)


# ---------------------------------------------------------------------- #
# batch-64
# ---------------------------------------------------------------------- #
class Batch64(Workload):
    """The paper's 64-source averaging through the batched engines."""

    name = "batch-64"
    SCALE = 40000.0
    SOURCES = 64
    #: Independent draws of 64 distinct sources.  One draw gives 6 averaging
    #: ops, too few for a percentile: with 17 a round has 104 ops, p50 falls
    #: inside the 68 BFS ops and p90 inside the 34 SSSP ops, and a round
    #: averages over 1,088 sources, so the seed hardly moves its cost.
    SOURCE_SETS = 17

    def setup(self) -> dict:
        graphs, readings = self._load_graphs(("FS",), self.SCALE)
        self.graph = graphs["FS"]
        sets = 2 if self.quick else self.SOURCE_SETS
        self.source_sets = [
            pick_sources(self.graph, self.SOURCES, seed=self.seed * 1000 + index)
            for index in range(sets)
        ]
        # ``source`` of an averaging op is the index of its set of 64.
        ops = [
            Op("average", application, "FS", index, strategy)
            for index in range(sets)
            for application, strategies in (("bfs", STRATEGIES), ("sssp", (EMOGI, UVM)))
            for strategy in strategies
        ]
        ops += [Op("streaming", "cc", "FS"), Op("streaming", "pagerank", "FS")]
        self.ops = ops
        # The lane of each batched op that the warm-up checks against a solo run.
        rng = np.random.default_rng(self.seed)
        self.checked_lanes = [int(rng.integers(1 << 30)) for _ in ops]
        return readings

    def describe_inputs(self) -> list[str]:
        return super().describe_inputs() + [
            str(int(source)) for sources in self.source_sets for source in sources
        ]

    def _batched(self, index: int, op: Op) -> list:
        if op.kind == "average":
            return repro.run_average(
                op.application, self.graph, self.source_sets[op.source],
                AccessStrategy(op.strategy),
            ).runs
        return repro.run_streaming(op.application, self.graph, list(AccessStrategy)).results

    def run_round(self, recorder=None) -> RoundResult:
        seconds, latencies, outputs = self._run_sequential(self._batched, recorder)
        lanes = {"multisource.lanes": 0, "streaming.lanes": 0}
        for op, results in zip(self.ops, outputs):
            key = "multisource.lanes" if op.kind == "average" else "streaming.lanes"
            lanes[key] += len(results)
        return RoundResult(seconds, latencies, outputs, counts={**sim_counts(outputs), **lanes})

    def check(self, index: int, results: list) -> bool:
        op = self.ops[index]
        expected_lanes = self.SOURCES if op.kind == "average" else len(STRATEGIES)
        if len(results) != expected_lanes:
            return False
        lane = self.checked_lanes[index] % expected_lanes
        if op.kind == "average":
            solo = repro.run(op.application, self.graph,
                             int(self.source_sets[op.source][lane]),
                             AccessStrategy(op.strategy))
        else:
            solo = repro.run(op.application, self.graph, None, AccessStrategy(STRATEGIES[lane]))
        return np.array_equal(results[lane].values, solo.values)


# ---------------------------------------------------------------------- #
# Service workloads
# ---------------------------------------------------------------------- #
def _service_counts(stats, plans: list) -> dict:
    streaming = sum(plan["lanes"] for plan in plans if plan["kind"] == "streaming")
    return {
        "service.executions": stats.executions,
        "service.batches": stats.batches,
        "planner.plans": len(plans),
        "planner.fused": sum(1 for plan in plans if plan["groups"] > 1),
        "multisource.lanes": sum(plan["lanes"] for plan in plans) - streaming,
        "streaming.lanes": streaming,
        "cache.hits": stats.cache.hits,
        "cache.misses": stats.cache.misses,
        "cache.evictions": stats.cache.evictions,
        "store.hits": stats.store_hits,
        "registry.loads": stats.registry.loads,
    }


def _request(op: Op) -> TraversalRequest:
    return TraversalRequest(op.application, op.graph, op.source, op.strategy)


class ServeBacklog(Workload):
    """One all-miss wave through the whole serving path per round."""

    name = "serve-backlog"
    sequential = False
    SCALE = 16000.0
    #: (BFS sources, SSSP sources) per strategy on each graph.  The planner
    #: fuses a candidate when its predicted saving exceeds the cost model's
    #: error so far, and both are wall-clock readings: with equal counts two
    #: of the wave's decisions sat within 5 % of that threshold and flipped
    #: between rounds.  With these every decision is at least 1.7x away from
    #: it, on either side, so the wave has both fused and unfused plans and
    #: the same ones every round.
    SOURCES = {"GK": (16, 16), "SK": (8, 4)}

    def setup(self) -> dict:
        self.graphs, readings = self._load_graphs(tuple(self.SOURCES), self.SCALE)
        counts = {symbol: (4, 2) for symbol in self.SOURCES} if self.quick else self.SOURCES
        sources = {
            symbol: [int(s) for s in pick_sources(graph, max(counts[symbol]), seed=self.seed)]
            for symbol, graph in self.graphs.items()
        }
        # Canonical wave order.  The worker thread starts on the first submit
        # and takes that request alone; every later plan is built over the
        # complete backlog only if the wave has been submitted by the time
        # the first request is done.  PageRank on GK goes first because it
        # outlasts the submission about twice over (44-82 ms against 18-46 ms
        # in 60 waves); a wave where it did not shows in the exact counts.
        ops = [Op("request", "pagerank", "GK", None, EMOGI)]
        for symbol in self.graphs:
            for strategy in (EMOGI, MERGED, UVM):
                ops += [
                    Op("request", "bfs", symbol, s, strategy)
                    for s in sources[symbol][: counts[symbol][0]]
                ]
        for symbol in self.graphs:
            for strategy in (EMOGI, UVM):
                ops += [
                    Op("request", "sssp", symbol, s, strategy)
                    for s in sources[symbol][: counts[symbol][1]]
                ]
        ops.append(Op("request", "pagerank", "GK", None, UVM))
        ops += [Op("request", "pagerank", "SK", None, strategy) for strategy in (EMOGI, UVM)]
        ops += [Op("request", "cc", "GK", None, strategy) for strategy in (EMOGI, MERGED, UVM)]
        self.ops = ops
        self.requests = [_request(op) for op in ops]
        self.solo_values: dict = {}
        return readings

    def run_round(self, recorder=None) -> RoundResult:
        registry = GraphRegistry()
        for graph in self.graphs.values():
            registry.register_graph(graph)
        service = Service(registry, ServiceConfig(max_workers=1, trace_buffer=TRACE_BUFFER))
        if recorder is not None:
            recorder.op = "wave"
        try:
            start = perf_counter()
            jobs = service.submit_many(self.requests)
            service.wait_all()
            seconds = perf_counter() - start
        finally:
            service.close()
        stats = service.stats()
        outputs = [
            [job.result] if job.status is JobStatus.DONE and job.result is not None else []
            for job in jobs
        ]
        return RoundResult(
            seconds,
            # The wave arrives at once, so every request is on the clock from
            # its arrival: ``Job.total_seconds`` would start up to a few ms
            # later, when ``submit_many`` reached the request.
            [job.finished_at - start if results else None
             for job, results in zip(jobs, outputs)],
            outputs,
            counts={**sim_counts(outputs), **_service_counts(stats, service.plan_decisions())},
            gauges={
                "costmodel.abs_error_ms": stats.cost_model.mean_abs_error_seconds * 1e3,
                "workers.busy_ratio": stats.engine_seconds / seconds,
            },
            service_spans=service.drain_traces() if recorder is not None else None,
        )

    def check(self, index: int, results: list) -> bool:
        # Values do not depend on the access strategy, so one solo run per
        # (application, graph, source) is the reference for every strategy.
        op = self.ops[index]
        key = (op.application, op.graph, op.source)
        if key not in self.solo_values:
            self.solo_values[key] = repro.run(
                op.application, self.graphs[op.graph], op.source
            ).values
        return len(results) == 1 and np.array_equal(results[0].values, self.solo_values[key])


class ServeHot(Workload):
    """All-hit traffic over a catalogue twice the size of the result cache."""

    name = "serve-hot"
    SCALE = 40000.0
    #: An eighth of the default ``result_cache_entries``, so that a round of
    #: a few tenths of a second still overflows the cache and evicts.
    CACHE_ENTRIES = 128
    #: Sources per (application, strategy); the catalogue has four of those.
    CATALOGUE_SOURCES = 64
    REQUESTS = 2000

    def setup(self) -> dict:
        graphs, readings = self._load_graphs(("GK",), self.SCALE)
        self.graph = graphs["GK"]
        self.cache_entries = 16 if self.quick else self.CACHE_ENTRIES
        per_config = 8 if self.quick else self.CATALOGUE_SOURCES
        sources = pick_sources(self.graph, per_config, seed=self.seed)
        catalogue = [
            Op("request", application, "GK", int(source), strategy)
            for application in ("bfs", "sssp")
            for strategy in (EMOGI, UVM)
            for source in sources
        ]
        requests = [_request(op) for op in catalogue]
        # Zipf(s = 1) over a seeded permutation of the catalogue.
        rng = np.random.default_rng(self.seed)
        weights = 1.0 / np.arange(1, len(catalogue) + 1)
        ranked = rng.permutation(len(catalogue))
        count = 200 if self.quick else self.REQUESTS
        self.draw = ranked[rng.choice(len(catalogue), size=count, p=weights / weights.sum())]
        self.ops = [catalogue[i] for i in self.draw]
        self.requests = [requests[i] for i in self.draw]

        # Prewarm: answer every catalogue key through a store-backed service,
        # flush and close.  Rounds reopen this store.  One request at a time:
        # a result's attributed metrics depend on the batch that computed it,
        # and how a burst of submissions is batched is a race between the
        # submitting thread and the worker (25 bursts gave 23 different
        # ``sim_digest``s), so each key is computed alone.
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.store_path = self.out_dir / f"serve-hot-{os.getpid()}-{id(self):x}.sqlite"
        self._remove_store()
        service = self._service()
        try:
            self.prewarm = [service.result(service.submit(request)) for request in requests]
            begin = perf_counter()
            service.store.flush()
            readings["store.flush_s"] = perf_counter() - begin
            stored = service.store.stats()
            readings["store.writes"] = stored.writes
        finally:
            service.close()
        if stored.result_rows != len(catalogue):
            raise RuntimeError(
                f"prewarm persisted {stored.result_rows} of {len(catalogue)} results"
            )
        return readings

    def _service(self) -> Service:
        registry = GraphRegistry()
        registry.register_graph(self.graph)
        return Service(
            registry,
            ServiceConfig(
                max_workers=1,
                trace_buffer=TRACE_BUFFER,
                result_cache_entries=self.cache_entries,
                store_path=str(self.store_path),
            ),
        )

    def _remove_store(self) -> None:
        for suffix in ("", "-wal", "-shm"):
            Path(str(self.store_path) + suffix).unlink(missing_ok=True)

    def teardown(self) -> None:
        if hasattr(self, "store_path"):
            self._remove_store()
        super().teardown()

    def run_round(self, recorder=None) -> RoundResult:
        service = self._service()
        requests, submit, result = self.requests, service.submit, service.result
        try:
            seconds, latencies, outputs = self._run_sequential(
                lambda index, op: [result(submit(requests[index]))], recorder
            )
        finally:
            service.close()
        stats = service.stats()
        return RoundResult(
            seconds,
            latencies,
            outputs,
            # The engines answer nothing here, so this round's traversal work
            # counters are zero by definition and are left out.
            counts=_service_counts(stats, service.plan_decisions()),
            gauges={"workers.busy_ratio": stats.engine_seconds / seconds},
            service_spans=service.drain_traces() if recorder is not None else None,
        )

    def check(self, index: int, results: list) -> bool:
        expected = self.prewarm[self.draw[index]]
        return len(results) == 1 and np.array_equal(results[0].values, expected.values)


WORKLOADS = {
    workload.name: workload for workload in (PaperSweep, Batch64, ServeBacklog, ServeHot)
}
