"""Metrics registry with Prometheus-text and JSON exposition.

Three instrument kinds, deliberately minimal:

* :class:`Counter` — monotonically increasing, optionally labelled.
* :class:`Gauge` — last-write-wins point-in-time value, optionally labelled.
* :class:`Summary` — a bounded sliding window of observations plus cumulative
  ``sum``/``count``.  Its quantiles are a :class:`LatencyStats` over that
  window — the one ceil-based nearest-rank formula in the tree — so the
  ``p50/p95/p99`` an operator scrapes are the ones ``Service.stats()`` prints.

The registry renders either Prometheus text exposition format (``# HELP`` /
``# TYPE`` headers, ``{label="value"}`` children, summaries as ``quantile``
series plus ``_sum``/``_count``) or a nested JSON document, behind
``repro.cli stats --format prom|json``.

Each instrument guards its children with its own ``obs.Instrument._lock``
(the registry's lock only covers the name table); instruments never call
back into the service, so there is no lock-ordering hazard with the
service's own lock.  (All of them are created through
:func:`repro.analysis.lockorder.tracked_lock`, so ``REPRO_LOCKCHECK=1``
verifies that claim dynamically instead of trusting the comment.)

Every ``repro_*`` series the codebase emits is declared exactly once, in
:data:`CATALOG` below: the service builds its registry from it and reaches a
series as ``metrics["repro_..."]``, and the ``REPRO106`` lint rule rejects
any series-shaped string literal in the tree that the catalog does not
declare — so a typo'd name fails ``repro.cli lint`` instead of raising
``KeyError`` in production.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from ..analysis.lockorder import tracked_lock

_LabelKey = tuple[tuple[str, str], ...]

#: Every ``repro_*`` series this codebase emits, declared once:
#: name -> ``(kind, help, *label names)``.  Adding a series is one line here
#: plus its call site (``metrics["repro_..."].inc(...)``).
CATALOG: dict[str, tuple[str, ...]] = {
    "repro_requests_submitted_total": ("counter", "Requests accepted by submit()."),
    "repro_requests_total": (
        "counter",
        "Requests reaching a terminal state, by outcome (completed / failed / expired).",
        "outcome",
    ),
    "repro_requests_deduplicated_total": (
        "counter", "Requests coalesced onto in-flight jobs.",
    ),
    "repro_requests_cache_served_total": (
        "counter", "Requests answered from the result cache.",
    ),
    "repro_requests_rejected_total": (
        "counter", "Submissions refused at admission, by reason.", "reason",
    ),
    "repro_tenant_jobs_total": (
        "counter",
        "Jobs completed / deadline-carrying jobs missed, by owning tenant "
        '("" = anonymous).',
        "tenant",
        "result",
    ),
    "repro_request_latency_seconds": ("summary", "End-to-end request latency."),
    "repro_queue_wait_seconds": (
        "summary", "Queueing delay from submission to execution start.",
    ),
    "repro_batches_total": ("counter", "Batch groups drained."),
    "repro_executions_total": ("counter", "Jobs executed (cache misses)."),
    "repro_engine_seconds_total": (
        "counter", "Wall-clock seconds spent in engine sweeps.",
    ),
    "repro_deadlines_total": (
        "counter", "Deadline-carrying waiters, by result (met / missed).", "result",
    ),
    "repro_costmodel_abs_error_seconds": (
        "summary", "Absolute cost-model estimate error.",
    ),
    "repro_costmodel_observations_total": (
        "counter", "Cost-model observations folded in.",
    ),
    "repro_kernel_iterations_total": (
        "counter", "Traversal iterations, summed over every lane's own run, by app.", "app",
    ),
    "repro_kernel_frontier_vertices_total": (
        "counter", "Frontier vertices expanded, summed over lanes, by app.", "app",
    ),
    "repro_kernel_edges_total": (
        "counter", "Edges traversed, summed over lanes, by app.", "app",
    ),
    "repro_kernel_relax_candidates_total": (
        "counter", "Relaxation candidates, summed over lanes, by app.", "app",
    ),
    "repro_kernel_backend_total": (
        "counter", "Sweeps executed, by app and relax backend.", "app", "backend",
    ),
    "repro_retries_total": ("counter", "Transient-failure retries, by site.", "site"),
    "repro_sweep_timeouts_total": ("counter", "Sweeps cancelled by the watchdog."),
    "repro_fused_isolations_total": (
        "counter", "Fused groups re-run member-by-member.",
    ),
    "repro_native_degraded_total": (
        "counter", "Sweeps degraded to the numpy backend.",
    ),
    "repro_native_breaker_transitions_total": (
        "counter", "Circuit-breaker transitions, by state.", "state",
    ),
    "repro_faults_injected_total": (
        "counter", "Injected faults fired, by site.", "site",
    ),
    "repro_cache_errors_total": (
        "counter", "Result-cache errors absorbed, by operation.", "op",
    ),
    "repro_rejected_after_close_total": (
        "counter", "Submissions refused because the service or its pool was closed.",
    ),
    "repro_queue_policy_fallback_total": (
        "counter",
        "Drains where the policy named a non-pending group and the queue "
        "fell back to arrival order.",
    ),
    "repro_planner_plans_chosen_total": (
        "counter", "Fusion plans executed, by kind.", "kind",
    ),
    "repro_planner_packed_lanes_total": (
        "counter", "Lanes executed inside fused plans.",
    ),
    "repro_pending_jobs": ("gauge", "Jobs queued, not yet picked up."),
    "repro_active_workers": ("gauge", "Worker tasks queued or running."),
    "repro_uptime_seconds": ("gauge", "Seconds since service construction."),
    "repro_cache_entries": ("gauge", "Results held by the result cache."),
    "repro_cache_hit_rate": ("gauge", "Result cache hit rate in [0, 1]."),
    "repro_costmodel_mean_abs_error_seconds": (
        "gauge", "Mean absolute cost-model error.",
    ),
    "repro_trace_buffered_spans": ("gauge", "Spans buffered in the tracer ring."),
    "repro_native_breaker_state": (
        "gauge", "Circuit-breaker state code (0 closed / 1 half_open / 2 open).",
    ),
    "repro_store_operations_total": (
        "counter", "Durable-store operations, by op and outcome.", "op", "outcome",
    ),
    "repro_store_hits_total": (
        "counter", "Requests answered from the persistent result cache.",
    ),
    "repro_store_dropped_writes_total": (
        "counter", "Sweep writes dropped because the writer's queue was full.",
    ),
    "repro_store_breaker_transitions_total": (
        "counter", "Store breaker transitions, by state.", "state",
    ),
    "repro_store_state": (
        "gauge",
        "Durable-store state code (0 ok / 1 degraded / 2 quarantined / 3 disabled).",
    ),
    "repro_store_pending_writes": (
        "gauge", "Sweep writes queued for or running on the store's writer thread.",
    ),
}


@dataclass(frozen=True)
class LatencyStats:
    """Percentile summary of a sliding window of per-job latency samples.

    Computed over the most recent ``ServiceConfig.latency_window`` finished
    jobs, so a long-running server reports current behaviour rather than an
    all-time average that no longer means anything.
    """

    count: int = 0
    mean_seconds: float = 0.0
    p50_seconds: float = 0.0
    p95_seconds: float = 0.0
    p99_seconds: float = 0.0
    max_seconds: float = 0.0

    @classmethod
    def from_samples(cls, samples: Iterable[float]) -> "LatencyStats":
        ordered = sorted(samples)
        if not ordered:
            return cls()

        def percentile(fraction: float) -> float:
            # Ceil-based nearest rank over the n-1 gaps: round *up* to the
            # next sample, never down.  ``round`` here (with Python's
            # banker's rounding) used to make p50 of an even-sized window
            # return the lower sample — p50 of two samples was the minimum —
            # silently understating every even-window percentile.  A latency
            # percentile should err conservative.
            index = min(len(ordered) - 1, math.ceil(fraction * (len(ordered) - 1)))
            return ordered[index]

        return cls(
            count=len(ordered),
            mean_seconds=sum(ordered) / len(ordered),
            p50_seconds=percentile(0.50),
            p95_seconds=percentile(0.95),
            p99_seconds=percentile(0.99),
            max_seconds=ordered[-1],
        )

    def describe_ms(self) -> str:
        """Compact ``p50/p95/p99`` rendering in milliseconds."""
        return (
            f"{self.p50_seconds * 1e3:.2f}/{self.p95_seconds * 1e3:.2f}/"
            f"{self.p99_seconds * 1e3:.2f} ms"
        )


#: Quantiles rendered for summaries, matching LatencyStats' fields.
SUMMARY_QUANTILES = (0.5, 0.95, 0.99)


def _label_key(label_names: tuple[str, ...], labels: Mapping[str, Any]) -> _LabelKey:
    # ``label_names`` are distinct (checked where the instrument is built), so
    # as many labels as names with every name present is exactly the names.
    if len(labels) == len(label_names):
        try:
            return tuple([(name, str(labels[name])) for name in label_names])
        except KeyError:
            pass
    raise ValueError(f"expected labels {sorted(label_names)}, got {sorted(labels)}")


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _render_labels(key: _LabelKey, extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = key + extra
    if not pairs:
        return ""
    body = ",".join(f'{name}="{_escape(value)}"' for name, value in pairs)
    return "{" + body + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


class _Instrument:
    kind = "untyped"

    def __init__(self, name: str, help: str, label_names: tuple[str, ...]) -> None:
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        if len(set(self.label_names)) != len(self.label_names):
            raise ValueError(f"{name} repeats a label name: {self.label_names}")
        self._lock = tracked_lock("obs.Instrument._lock")

    def render_prometheus(self) -> list[str]:  # pragma: no cover - overridden
        raise NotImplementedError

    def render_json(self) -> Any:  # pragma: no cover - overridden
        raise NotImplementedError


class _Scalar(_Instrument):
    """What counters and gauges share: one float per label set."""

    def __init__(self, name: str, help: str = "", label_names: Iterable[str] = ()) -> None:
        super().__init__(name, help, tuple(label_names))
        self._children: dict[_LabelKey, float] = {}

    def value(self, **labels: Any) -> float:
        key = _label_key(self.label_names, labels)
        with self._lock:
            return self._children.get(key, 0.0)

    def render_prometheus(self) -> list[str]:
        with self._lock:
            children = dict(self._children)
        if not children and not self.label_names:
            children = {(): 0.0}
        return [
            f"{self.name}{_render_labels(key)} {_format_value(value)}"
            for key, value in sorted(children.items())
        ]

    def render_json(self) -> Any:
        with self._lock:
            if not self.label_names:
                return self._children.get((), 0.0)
            return [
                {"labels": dict(key), "value": value}
                for key, value in sorted(self._children.items())
            ]


class Counter(_Scalar):
    """Monotonic counter with optional labels (one child per label set)."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (got {amount})")
        key = _label_key(self.label_names, labels)
        with self._lock:
            self._children[key] = self._children.get(key, 0.0) + amount

    def samples(self) -> dict[tuple[str, ...], float]:
        """Every child's value, keyed by its label values in label-name order."""
        with self._lock:
            return {
                tuple(value for _, value in key): count
                for key, count in self._children.items()
            }

    def total(self) -> float:
        """Sum over all children: a labelled series read without its labels."""
        with self._lock:
            return sum(self._children.values())


class Gauge(_Scalar):
    """Point-in-time value with optional labels; ``set`` is last-write-wins."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        key = _label_key(self.label_names, labels)
        with self._lock:
            self._children[key] = float(value)


class _SummaryChild:
    __slots__ = ("window", "sum", "count")

    def __init__(self, window: int) -> None:
        self.window: deque[float] = deque(maxlen=window)
        self.sum = 0.0
        self.count = 0


class Summary(_Instrument):
    """Sliding-window observations whose quantiles are a :class:`LatencyStats`.

    ``sum``/``count`` are cumulative (Prometheus summary semantics); the
    quantiles come from a bounded window of the most recent observations so a
    long-running service reports current behaviour, exactly like the
    ``latency_window`` the service stats use.
    """

    kind = "summary"

    def __init__(
        self,
        name: str,
        help: str = "",
        label_names: Iterable[str] = (),
        window: int = 1024,
    ) -> None:
        super().__init__(name, help, tuple(label_names))
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = int(window)
        self._children: dict[_LabelKey, _SummaryChild] = {}

    def observe(self, value: float, **labels: Any) -> None:
        key = _label_key(self.label_names, labels)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = _SummaryChild(self.window)
            child.window.append(float(value))
            child.sum += float(value)
            child.count += 1

    def snapshot(self, **labels: Any) -> LatencyStats:
        """LatencyStats over the current window for one label set."""
        key = _label_key(self.label_names, labels)
        with self._lock:
            child = self._children.get(key)
            samples = list(child.window) if child is not None else []
        return LatencyStats.from_samples(samples)

    def render_prometheus(self) -> list[str]:
        with self._lock:
            children = [
                (key, list(child.window), child.sum, child.count)
                for key, child in sorted(self._children.items())
            ]
        lines: list[str] = []
        for key, samples, total, count in children:
            stats = LatencyStats.from_samples(samples)
            quantile_values = {
                0.5: stats.p50_seconds,
                0.95: stats.p95_seconds,
                0.99: stats.p99_seconds,
            }
            for quantile in SUMMARY_QUANTILES:
                labels = _render_labels(key, (("quantile", _format_value(quantile)),))
                lines.append(
                    f"{self.name}{labels} {_format_value(quantile_values[quantile])}"
                )
            lines.append(f"{self.name}_sum{_render_labels(key)} {_format_value(total)}")
            lines.append(f"{self.name}_count{_render_labels(key)} {count}")
        return lines

    def render_json(self) -> Any:
        with self._lock:
            children = [
                (key, list(child.window), child.sum, child.count)
                for key, child in sorted(self._children.items())
            ]
        entries = []
        for key, samples, total, count in children:
            stats = LatencyStats.from_samples(samples)
            entry = {
                "sum": total,
                "count": count,
                "p50": stats.p50_seconds,
                "p95": stats.p95_seconds,
                "p99": stats.p99_seconds,
                "max": stats.max_seconds,
            }
            if self.label_names:
                entries.append({"labels": dict(key), **entry})
            else:
                return entry
        if not self.label_names:
            return {"sum": 0.0, "count": 0, "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0}
        return entries


class MetricsRegistry:
    """Name-keyed collection of instruments with idempotent constructors.

    Built from a catalog (``MetricsRegistry(CATALOG, window=...)``, what the
    service does) every declared series exists up front and call sites reach
    it as ``registry["repro_..."]``; an undeclared name is a ``KeyError``.
    ``registry.counter("x")`` returns the existing counter if one is already
    registered under that name (and raises if the name is taken by a different
    kind or label set), so ad-hoc instrumentation sites never need to
    coordinate creation order.
    """

    def __init__(
        self, catalog: Mapping[str, tuple[str, ...]] | None = None, window: int = 1024
    ) -> None:
        """Declare every ``catalog`` series; ``window`` sizes its summaries."""
        self._lock = tracked_lock("obs.MetricsRegistry._lock")
        self._instruments: dict[str, _Instrument] = {}
        for name, (kind, help, *label_names) in (catalog or {}).items():
            sized = {"window": window} if kind == Summary.kind else {}
            getattr(self, kind)(name, help, label_names, **sized)

    def __getitem__(self, name: str) -> Any:
        # Lock-free on purpose: this is the per-request path, a dict read is
        # atomic, and instruments are only ever added, never replaced.
        return self._instruments[name]

    def counter(
        self, name: str, help: str = "", label_names: Iterable[str] = ()
    ) -> Counter:
        return self._get_or_create(Counter, name, help, tuple(label_names))

    def gauge(self, name: str, help: str = "", label_names: Iterable[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, tuple(label_names))

    def summary(
        self,
        name: str,
        help: str = "",
        label_names: Iterable[str] = (),
        window: int = 1024,
    ) -> Summary:
        return self._get_or_create(
            Summary, name, help, tuple(label_names), window=window
        )

    def _get_or_create(self, cls, name, help, label_names, **kwargs):
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls) or existing.label_names != label_names:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind} with labels {existing.label_names}"
                    )
                return existing
            instrument = cls(name, help, label_names, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def get(self, name: str) -> _Instrument | None:
        with self._lock:
            return self._instruments.get(name)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._instruments)

    def render_prometheus(self) -> str:
        with self._lock:
            instruments = [self._instruments[name] for name in sorted(self._instruments)]
        lines: list[str] = []
        for instrument in instruments:
            if instrument.help:
                lines.append(f"# HELP {instrument.name} {instrument.help}")
            lines.append(f"# TYPE {instrument.name} {instrument.kind}")
            lines.extend(instrument.render_prometheus())
        return "\n".join(lines) + ("\n" if lines else "")

    def render_json(self) -> dict[str, Any]:
        with self._lock:
            instruments = [self._instruments[name] for name in sorted(self._instruments)]
        return {
            instrument.name: {
                "kind": instrument.kind,
                "help": instrument.help,
                "values": instrument.render_json(),
            }
            for instrument in instruments
        }
