"""LRU cache of completed traversal results.

Keys are :attr:`TraversalRequest.cache_key` tuples — ``(graph, app, source,
strategy, system)`` — so a cached entry is exactly "the answer to this
request".  Traversals here are deterministic (the simulator has no hidden
state), which is what makes serving a repeat request from cache semantically
identical to re-running it, minus the simulated run time.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from ..analysis.lockorder import tracked_lock
from ..errors import ConfigurationError
from ..obs.metrics import CATALOG, MetricsRegistry
from ..traversal.results import TraversalResult
from . import faults


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss/eviction counts (reads of the cache's series) plus occupancy."""

    hits: int
    misses: int
    evictions: int
    entries: int
    max_entries: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ResultCache:
    """Thread-safe LRU map from request cache keys to traversal results.

    ``max_entries=0`` disables caching entirely (every lookup misses, stores
    are dropped), which keeps the service code free of special cases.

    Hits, misses and evictions are counted in ``metrics`` (``repro_cache_*``;
    default: a registry built from :data:`~repro.obs.metrics.CATALOG`).
    """

    def __init__(
        self, max_entries: int = 1024, metrics: MetricsRegistry | None = None
    ) -> None:
        if max_entries < 0:
            raise ConfigurationError("max_entries cannot be negative")
        self.max_entries = max_entries
        self._lock = tracked_lock("service.ResultCache._lock")
        self._entries: OrderedDict[tuple, TraversalResult] = OrderedDict()
        metrics = MetricsRegistry(CATALOG) if metrics is None else metrics
        self._hits = metrics["repro_cache_hits_total"]
        # A hit is a whole memory-served request: its write goes through a
        # child bound once, which skips the label-key build.
        self._hit = self._hits.bind()
        self._misses = metrics["repro_cache_misses_total"]
        self._evictions = metrics["repro_cache_evictions_total"]

    def get(self, key: tuple) -> TraversalResult | None:
        faults.check("cache.get")
        with self._lock:
            result = self._entries.get(key)
            if result is not None:
                self._entries.move_to_end(key)
        (self._misses if result is None else self._hit).inc()
        return result

    def put(self, key: tuple, result: TraversalResult) -> None:
        faults.check("cache.put")
        if self.max_entries == 0:
            return
        with self._lock:
            self._entries[key] = result
            self._entries.move_to_end(key)
            evicted = len(self._entries) - self.max_entries
            for _ in range(evicted):
                self._entries.popitem(last=False)
        if evicted > 0:
            self._evictions.inc(evicted)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        with self._lock:
            return key in self._entries

    def stats(self) -> CacheStats:
        return CacheStats(
            hits=int(self._hits.value()),
            misses=int(self._misses.value()),
            evictions=int(self._evictions.value()),
            entries=len(self),
            max_entries=self.max_entries,
        )
