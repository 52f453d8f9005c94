"""Engine pooling: reuse simulated memory systems across traversal runs.

Constructing a :class:`~repro.traversal.engine.TraversalEngine` allocates the
whole simulated address space (vertex list, value arrays, frontier buffers,
edge/weight regions) and the UVM residency arrays.  A 64-source
``run_average`` or a drained service batch used to pay that construction once
per source; an :class:`EngineArena` pays it once per
``(graph, strategy, system, needs_weights)`` configuration and recycles the
engine with :meth:`~repro.traversal.engine.TraversalEngine.reset` between
runs.  :func:`config_engines` is how a run loop gets one engine per
configuration: the caller's, a lease from an arena, or a private one.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from typing import Iterator

from ..analysis.lockorder import tracked_lock
from ..config import SystemConfig, system_key
from ..errors import ConfigurationError
from ..graph.csr import CSRGraph
from ..obs.metrics import CATALOG, MetricsRegistry
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

    Acquires are counted in ``metrics``' ``repro_arena_engines_total`` by
    outcome (default: a registry built from :data:`~repro.obs.metrics.CATALOG`).
    """

    def __init__(self, max_idle: int = 16, metrics: MetricsRegistry | None = None) -> None:
        if max_idle < 0:
            raise ConfigurationError("max_idle cannot be negative")
        self.max_idle = max_idle
        self._lock = tracked_lock("traversal.EngineArena._lock")
        self._idle: OrderedDict[tuple, list[TraversalEngine]] = OrderedDict()
        self._idle_count = 0
        metrics = MetricsRegistry(CATALOG) if metrics is None else metrics
        self._engines = metrics["repro_arena_engines_total"]

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
                    self._engines.inc(outcome="reused")
                    return engine
        engine = TraversalEngine(
            graph, strategy, system=system, needs_weights=needs_weights
        )
        engine._arena_key = key
        self._engines.inc(outcome="created")
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
        return int(self._engines.value(outcome="created"))

    @property
    def reused(self) -> int:
        """Acquires served from the pool without construction."""
        return int(self._engines.value(outcome="reused"))

    def clear(self) -> None:
        """Drop every parked engine."""
        with self._lock:
            self._idle.clear()
            self._idle_count = 0


@contextmanager
def config_engines(
    graph: CSRGraph,
    configs: dict,
    arena: EngineArena | None = None,
    engine=None,
    needs_weights: bool = False,
) -> Iterator[dict]:
    """``with config_engines(...) as engines:`` one engine per configuration.

    ``configs`` maps each configuration's key to its ``(strategy, system)``,
    in the order the engines are acquired; ``engines`` maps the same keys to
    ``engine`` (a one-configuration run's own engine, or a baseline's
    drop-in), else to a lease from ``arena``, released when the block exits
    however it exits, else to a private engine.
    """
    engines: dict = {}
    leased: list[TraversalEngine] = []
    try:
        for key, (strategy, system) in configs.items():
            if engine is not None:
                engines[key] = engine
            elif arena is not None:
                engines[key] = arena.acquire(
                    graph, strategy, system=system, needs_weights=needs_weights
                )
                leased.append(engines[key])
            else:
                engines[key] = TraversalEngine(
                    graph, strategy, system=system, needs_weights=needs_weights
                )
        yield engines
    finally:
        for leased_engine in leased:
            arena.release(leased_engine)
