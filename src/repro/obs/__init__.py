"""Observability: request tracing, kernel counters, metrics exposition.

The serving layer answers *what* was computed; this package answers *where
the time went*.  Three pieces:

* :mod:`repro.obs.trace` — per-request spans (admission / queue / sweep /
  cache) with trace ids, shared engine-sweep spans that fused requests link
  to, a bounded ring buffer, and JSONL export.  Sampling is configurable
  (:attr:`repro.config.ServiceConfig.trace_sample`) and ``REPRO_TRACE=0``
  kills span recording entirely, mirroring ``REPRO_NATIVE``.
* :mod:`repro.obs.metrics` — the catalog of every ``repro_*`` series and a
  registry of counters / gauges / summaries built from it (the service's one
  ledger: ``Service.stats()`` is read from it, percentiles included) with
  Prometheus-text and JSON renderers, behind
  ``repro.cli stats --format prom|json``.
* :mod:`repro.obs.check` — validates a drained trace file: every completed
  request must carry the full lifecycle and its span durations must tile its
  measured latency (the CI smoke gate).

Kernel-level counters (per-iteration frontier sizes, edges relaxed,
candidate-stream lengths, chosen relax backend) live on
:class:`repro.traversal.results.KernelCounters`, attached to every
:class:`~repro.traversal.results.TraversalMetrics` by the engines.
"""

from .metrics import Counter, Gauge, MetricsRegistry, Summary
from .trace import Span, Tracer, tracing_enabled

__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "Span",
    "Summary",
    "Tracer",
    "tracing_enabled",
]
