"""Request spans: trace ids, a bounded ring buffer, sampling, JSONL export.

Span model
----------
A :class:`Span` is a flat, JSON-friendly record: ``(trace_id, span_id, name,
start_unix, duration_seconds, parent_id, attributes)``.  Timestamps are
wall-clock epoch seconds — monotonic ``perf_counter`` values are meaningless
once exported — but durations are always differences of ``perf_counter``
readings taken on the same timeline, so latency math is unaffected by clock
steps (see ``Job.wall_clock``).

The service emits one trace per sampled request with four tiling spans
(``admission`` / ``queue`` / ``sweep`` / ``cache``) whose durations sum to the
request's measured latency, plus standalone ``engine_sweep`` spans shared by
every request fused into the same kernel sweep (linked via the per-request
sweep span's ``sweep_ref`` attribute).

Cost discipline
---------------
A finished request is recorded as one immutable :class:`JobRecord` — its
labels and ``perf_counter`` boundaries, a tuple — appended under the lock;
its four lifecycle spans, their attribute dicts and their span ids are built
only when the buffer is read (:meth:`Tracer.drain`).  The shared
``engine_sweep``, ``plan`` and ``retry`` spans of the miss path are built
eagerly.  The ring buffer counts spans (a record weighs four) and evicts
whole oldest entries, so an unattended service never grows without bound.
Sampling is systematic (an accumulator, not a PRNG): ``sample=0.25`` traces
exactly every 4th request, which keeps tests deterministic and guarantees
coverage at low rates.  ``REPRO_TRACE=0`` (mirroring ``REPRO_NATIVE``)
disables span recording entirely.
"""

from __future__ import annotations

import itertools
import json
from collections import deque
from dataclasses import dataclass, field
from typing import Any, ClassVar, Iterable, Iterator, Mapping, NamedTuple

from ..analysis.lockorder import tracked_lock
from ..envflags import env_flag
from .metrics import CATALOG, MetricsRegistry

#: Environment variable that disables tracing when set to a falsy value.
ENV_SWITCH = "REPRO_TRACE"

#: The spans every finished request trace carries, in timeline order; their
#: durations tile the request's measured latency.
LIFECYCLE_STAGES = ("admission", "queue", "sweep", "cache")


def tracing_enabled(default: bool = True) -> bool:
    """True unless ``REPRO_TRACE`` is set falsy (shared envflags contract)."""
    return env_flag(ENV_SWITCH, default)


@dataclass(frozen=True)
class Span:
    """One timed stage of a request (or a shared engine sweep)."""

    trace_id: str
    span_id: str
    name: str
    start_unix: float
    duration_seconds: float
    parent_id: str | None = None
    attributes: Mapping[str, Any] = field(default_factory=dict)

    #: Spans this buffer entry stands for (see :attr:`JobRecord.span_count`).
    span_count: ClassVar[int] = 1

    def to_json(self) -> dict[str, Any]:
        record: dict[str, Any] = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "name": self.name,
            "start_unix": self.start_unix,
            "duration_seconds": self.duration_seconds,
        }
        if self.parent_id is not None:
            record["parent_id"] = self.parent_id
        if self.attributes:
            record["attributes"] = dict(self.attributes)
        return record

    def to_jsonl(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


class JobRecord(NamedTuple):
    """One finished, traced request: what its four lifecycle spans are built from.

    The service records one per job at its terminal state; :meth:`spans`
    expands it when the buffer is read.  It holds labels and ``perf_counter``
    boundaries only — never the job or its result — so a full ring buffer
    pins no traversal output.
    """

    trace_id: str
    job_id: str
    application: str
    graph: str
    source: int | None
    tenant: str | None
    outcome: str
    from_cache: bool
    #: ``Job.submitted_wall``: the wall-clock anchor of ``submitted``.
    submitted_wall: float
    submitted: float
    enqueued: float | None
    started: float | None
    compute_finished: float | None
    finished: float | None
    sweep_ref: str | None
    siblings: int
    lanes: int
    policy: str

    #: Spans this buffer entry stands for (not a field: no annotation).
    span_count = len(LIFECYCLE_STAGES)

    def spans(self, span_ids: Iterator[int]) -> list[Span]:
        """The four tiling lifecycle spans, numbered from ``span_ids``.

        Admission ends at ``enqueued``, queueing at ``started``, the sweep at
        ``compute_finished`` — so the four durations sum *exactly* to the
        measured end-to-end latency; missing boundaries (failures, cache
        hits) collapse their stage to zero instead of breaking the tiling.
        """
        submitted = self.submitted
        finished = self.finished if self.finished is not None else submitted

        def clamp(value: float | None, lo: float) -> float:
            if value is None:
                return lo
            return min(max(value, lo), finished)

        enqueued = clamp(self.enqueued, submitted)
        started = clamp(self.started, enqueued)
        compute = clamp(self.compute_finished, started)
        common = {"job_id": self.job_id}
        admission_attrs = {
            **common,
            "application": self.application,
            "graph": self.graph,
            "source": self.source,
            "tenant": self.tenant,
            "outcome": self.outcome,
            "from_cache": self.from_cache,
            "latency_seconds": finished - submitted,
        }
        sweep_attrs = {
            **common,
            "siblings": self.siblings,
            "lanes": self.lanes,
            "from_cache": self.from_cache,
        }
        if self.sweep_ref is not None:
            sweep_attrs["sweep_ref"] = self.sweep_ref
        stages = (
            (submitted, enqueued, admission_attrs),
            (enqueued, started, {**common, "policy": self.policy}),
            (started, compute, sweep_attrs),
            (compute, finished, {**common, "outcome": self.outcome}),
        )
        return [
            Span(
                trace_id=self.trace_id,
                span_id=f"span-{next(span_ids)}",
                name=name,
                # Job.wall_clock(begin), to the bit.
                start_unix=self.submitted_wall + (begin - submitted),
                duration_seconds=end - begin,
                attributes=attrs,
            )
            for name, (begin, end, attrs) in zip(LIFECYCLE_STAGES, stages)
        ]


class Tracer:
    """Thread-safe span sink with systematic sampling and a bounded buffer.

    Buffer entries are :class:`Span` objects and :class:`JobRecord` tuples;
    ``capacity`` and every count here are in spans, a record weighing
    :attr:`JobRecord.span_count`.  Spans the full ring drops are counted in
    ``metrics`` (``repro_trace_evicted_spans_total``; default: a registry
    built from :data:`~repro.obs.metrics.CATALOG`).
    """

    def __init__(
        self,
        capacity: int = 8192,
        sample: float = 1.0,
        enabled: bool | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if not 0.0 <= sample <= 1.0:
            raise ValueError(f"sample must be in [0, 1], got {sample}")
        self.capacity = int(capacity)
        self.sample = float(sample)
        # The explicit flag wins; otherwise consult the environment so a
        # deployed service can be silenced without a code change.
        self.enabled = tracing_enabled() if enabled is None else bool(enabled)
        self._entries: deque[Span | JobRecord] = deque()
        self._buffered = 0
        self._lock = tracked_lock("obs.Tracer._lock")
        self._trace_ids = itertools.count(1)
        self._span_ids = itertools.count(1)
        self._accumulator = 0.0
        metrics = MetricsRegistry(CATALOG) if metrics is None else metrics
        self._evicted = metrics["repro_trace_evicted_spans_total"]

    def begin(self, kind: str = "req") -> str | None:
        """Sampling decision for a new trace: an id to record, or ``None``.

        Systematic sampling: an accumulator gains ``sample`` per call and a
        trace is drawn each time it crosses 1, so a rate of ``1/k`` selects
        exactly every ``k``-th request rather than a coin flip per request.
        """
        if not self.enabled or self.sample <= 0.0:
            return None
        with self._lock:
            self._accumulator += self.sample
            if self._accumulator >= 1.0 - 1e-12:
                self._accumulator -= 1.0
                return f"{kind}-{next(self._trace_ids)}"
            return None

    def next_span_id(self, prefix: str = "span") -> str:
        return f"{prefix}-{next(self._span_ids)}"

    def emit(self, entry: Span | JobRecord) -> None:
        if not self.enabled:
            return
        with self._lock:
            evicted = self._append_locked(entry)
        if evicted:
            self._evicted.inc(evicted)

    def emit_many(self, entries: Iterable[Span | JobRecord]) -> None:
        for entry in entries:
            self.emit(entry)

    def _append_locked(self, entry: Span | JobRecord) -> int:
        # Evict whole oldest entries until the spans fit (an entry heavier
        # than the whole buffer goes too); returns the spans evicted.
        entries = self._entries
        entries.append(entry)
        self._buffered += entry.span_count
        evicted = 0
        while self._buffered > self.capacity:
            dropped = entries.popleft().span_count
            self._buffered -= dropped
            evicted += dropped
        return evicted

    def drain(self) -> list[Span]:
        """Return and clear every buffered span (oldest first).

        Job records become their four lifecycle spans here, so span ids are
        assigned in drain order — unique across drains, since every id comes
        from the one counter :meth:`next_span_id` also draws on.
        """
        with self._lock:
            entries = list(self._entries)
            self._entries.clear()
            self._buffered = 0
        spans: list[Span] = []
        for entry in entries:
            if type(entry) is JobRecord:
                spans.extend(entry.spans(self._span_ids))
            else:
                spans.append(entry)
        return spans

    def __len__(self) -> int:
        """Buffered spans (a job record counts as its four)."""
        with self._lock:
            return self._buffered

    @property
    def evicted(self) -> int:
        """Spans the full ring dropped unread (a read of the ledger series)."""
        return int(self._evicted.value())


def write_jsonl(spans: Iterable[Span], path: str) -> int:
    """Write spans as one JSON object per line; returns the span count."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(span.to_jsonl())
            handle.write("\n")
            count += 1
    return count
