"""Engine pooling: reuse simulated memory systems across traversal runs.

Constructing a :class:`~repro.traversal.engine.TraversalEngine` allocates the
whole simulated address space (vertex list, value arrays, frontier buffers,
edge/weight regions) and the UVM residency arrays.  A 64-source
``run_average`` or a drained service batch used to pay that construction once
per source; an :class:`EngineArena` pays it once per
``(graph, strategy, system, needs_weights)`` configuration and recycles the
engine with :meth:`~repro.traversal.engine.TraversalEngine.reset` between
runs.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from typing import Iterator

from ..analysis.lockorder import tracked_lock
from ..config import SystemConfig, system_key
from ..errors import ConfigurationError
from ..graph.csr import CSRGraph
from ..types import AccessStrategy
from .engine import TraversalEngine


class EngineArena:
    """A bounded, thread-safe pool of reusable traversal engines.

    Engines are keyed by ``(graph identity, strategy, platform fingerprint,
    needs_weights)``.  :meth:`acquire` hands out an engine in freshly-reset
    state and gives the caller exclusive use of it; :meth:`release` resets it
    and parks it for the next acquire.  At most ``max_idle`` engines are kept
    parked — beyond that the least recently released configuration is dropped
    (its simulated allocations are plain numpy arrays, so dropping is just
    garbage collection).
    """

    def __init__(self, max_idle: int = 16) -> None:
        if max_idle < 0:
            raise ConfigurationError("max_idle cannot be negative")
        self.max_idle = max_idle
        self._lock = tracked_lock("traversal.EngineArena._lock")
        self._idle: OrderedDict[tuple, list[TraversalEngine]] = OrderedDict()
        self._idle_count = 0
        self._created = 0
        self._reused = 0

    @staticmethod
    def _key(
        graph: CSRGraph,
        strategy: AccessStrategy,
        system: SystemConfig | None,
        needs_weights: bool,
    ) -> tuple:
        return (graph.name, strategy, system_key(system), bool(needs_weights))

    # ------------------------------------------------------------------ #
    # Leasing
    # ------------------------------------------------------------------ #
    def acquire(
        self,
        graph: CSRGraph,
        strategy: AccessStrategy,
        system: SystemConfig | None = None,
        needs_weights: bool = False,
    ) -> TraversalEngine:
        """Check an engine out of the pool, constructing one on a miss.

        A parked engine is only reused when it was built for this *exact*
        graph object (`is` identity, not just the name): when a registry
        evicts and re-loads a graph under the same name, the stale engines —
        which pin the old graph's arrays — are dropped here instead of being
        handed out against the wrong object.
        """
        key = self._key(graph, strategy, system, needs_weights)
        with self._lock:
            engines = self._idle.get(key)
            if engines:
                kept = [e for e in engines if e.graph is graph]
                dropped = len(engines) - len(kept)
                engine = kept.pop() if kept else None
                if kept:
                    self._idle[key] = kept
                else:
                    del self._idle[key]
                self._idle_count -= dropped + (1 if engine is not None else 0)
                if engine is not None:
                    self._reused += 1
                    return engine
        engine = TraversalEngine(
            graph, strategy, system=system, needs_weights=needs_weights
        )
        engine._arena_key = key
        with self._lock:
            self._created += 1
        return engine

    def release(self, engine: TraversalEngine) -> None:
        """Reset a leased engine and park it for the next acquire."""
        key = getattr(engine, "_arena_key", None)
        if key is None:
            raise ConfigurationError("engine was not acquired from this arena")
        engine.reset()
        with self._lock:
            if self.max_idle == 0:
                return
            self._idle.setdefault(key, []).append(engine)
            self._idle.move_to_end(key)
            self._idle_count += 1
            while self._idle_count > self.max_idle:
                oldest_key, oldest = next(iter(self._idle.items()))
                oldest.pop(0)
                if not oldest:
                    del self._idle[oldest_key]
                self._idle_count -= 1

    @contextmanager
    def lease(
        self,
        graph: CSRGraph,
        strategy: AccessStrategy,
        system: SystemConfig | None = None,
        needs_weights: bool = False,
    ) -> Iterator[TraversalEngine]:
        """``with arena.lease(...) as engine:`` acquire/release bracket."""
        engine = self.acquire(graph, strategy, system=system, needs_weights=needs_weights)
        try:
            yield engine
        finally:
            self.release(engine)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def idle_count(self) -> int:
        with self._lock:
            return self._idle_count

    @property
    def created(self) -> int:
        """Engines constructed (pool misses)."""
        with self._lock:
            return self._created

    @property
    def reused(self) -> int:
        """Acquires served from the pool without construction."""
        with self._lock:
            return self._reused

    def clear(self) -> None:
        """Drop every parked engine."""
        with self._lock:
            self._idle.clear()
            self._idle_count = 0
