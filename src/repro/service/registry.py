"""Named-graph registry with memoization and byte-budgeted LRU eviction.

The serving layer never ships graphs over the wire: clients name a graph and
the registry owns loading it (from the Table 2 dataset generators, a custom
loader callable, or a pre-built :class:`~repro.graph.csr.CSRGraph`).  Loaded
graphs are memoized so concurrent requests share one CSR instance, and an
optional byte budget bounds how much simulated memory stays resident — least
recently used graphs are dropped first and transparently reloaded on the next
request.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

from ..analysis.lockorder import tracked_rlock
from ..errors import ConfigurationError, ServiceError, UnknownGraphError
from ..graph.csr import CSRGraph
from ..graph.datasets import load_dataset
from ..obs.metrics import CATALOG, MetricsRegistry
from . import faults


@dataclass(frozen=True)
class RegistryStats:
    """Registry counts since construction (reads of its series) plus residency."""

    loads: int
    evictions: int
    hits: int
    misses: int
    resident_graphs: int
    resident_bytes: int
    budget_bytes: int | None
    #: Graphs registered via :meth:`GraphRegistry.register_graph`, whose
    #: bytes are pinned by the loader closure: evicting them drops only the
    #: registry's reference, never the underlying memory.  Reported
    #: separately so ``resident_bytes`` shrinking on eviction is not read as
    #: those bytes actually having been released.
    pinned_graphs: int = 0
    pinned_bytes: int = 0


class GraphRegistry:
    """Thread-safe loader/cache for the graphs a service can traverse.

    ``budget_bytes`` bounds the *simulated* footprint of resident graphs
    (:attr:`CSRGraph.total_bytes`, the quantity the whole simulator is built
    around); the most recently used graph is always kept resident even when it
    alone exceeds the budget, since evicting it would only force an immediate
    reload.

    Lookups, loads and evictions are counted in :attr:`metrics`
    (``repro_registry_*``; default: a registry built from
    :data:`~repro.obs.metrics.CATALOG`).  A service that builds its graph
    registry hands it the service's ledger; one passed into a service (or
    shared by several) keeps its own, and each such service exposes these
    :attr:`series` objects in its ledger as they are.
    """

    def __init__(
        self, budget_bytes: int | None = None, metrics: MetricsRegistry | None = None
    ) -> None:
        if budget_bytes is not None and budget_bytes <= 0:
            raise ConfigurationError("budget_bytes must be positive or None")
        self.budget_bytes = budget_bytes
        self.metrics = MetricsRegistry(CATALOG) if metrics is None else metrics
        self._lookups = self.metrics["repro_registry_lookups_total"]
        self._loads = self.metrics["repro_registry_loads_total"]
        self._evictions = self.metrics["repro_registry_evictions_total"]
        self._lock = tracked_rlock("service.GraphRegistry._lock")
        #: Per-name events marking loads in progress, so concurrent requests
        #: for the same graph wait for one load instead of duplicating it,
        #: while loads of *different* graphs (and hits on resident ones)
        #: proceed without serializing behind a slow generator.
        self._loading: dict[str, threading.Event] = {}
        self._loaders: dict[str, Callable[[], CSRGraph]] = {}
        #: Simulated bytes per graph registered through register_graph: those
        #: loaders close over the CSRGraph itself, so the bytes stay alive for
        #: the registry's lifetime whatever the LRU does (see register_graph).
        self._pinned: dict[str, int] = {}
        self._resident: OrderedDict[str, CSRGraph] = OrderedDict()
        #: Lifecycle listeners (durable catalog, warm backfill).  Always
        #: invoked *outside* the registry lock, and a listener raising never
        #: breaks the load/eviction that triggered it.
        self._load_listeners: list[Callable[[str, CSRGraph], None]] = []
        self._evict_listeners: list[Callable[[str], None]] = []

    @property
    def series(self) -> tuple:
        """The ``repro_registry_*`` instruments this registry counts into."""
        return (self._lookups, self._loads, self._evictions)

    # ------------------------------------------------------------------ #
    # Lifecycle listeners
    # ------------------------------------------------------------------ #
    def add_load_listener(self, callback: Callable[[str, CSRGraph], None]) -> None:
        """Call ``callback(name, graph)`` after every completed load."""
        with self._lock:
            self._load_listeners.append(callback)

    def add_evict_listener(self, callback: Callable[[str], None]) -> None:
        """Call ``callback(name)`` after every eviction (any path)."""
        with self._lock:
            self._evict_listeners.append(callback)

    def _notify_load(self, name: str, graph: CSRGraph) -> None:
        for callback in list(self._load_listeners):
            try:
                callback(name, graph)
            except Exception:
                pass

    def _notify_evictions(self, names: "list[str]") -> None:
        """Count ``names`` as evicted, then tell every listener, one by one."""
        if names:
            self._evictions.inc(len(names))
        for evicted in names:
            for callback in list(self._evict_listeners):
                try:
                    callback(evicted)
                except Exception:
                    pass

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def register(self, name: str, loader: Callable[[], CSRGraph]) -> None:
        """Register a zero-argument loader producing the graph on demand."""
        if not name:
            raise ServiceError("graph name must be non-empty")
        with self._lock:
            if name in self._loaders:
                raise ServiceError(f"graph {name!r} is already registered")
            self._loaders[name] = loader

    def register_graph(self, graph: CSRGraph, name: str | None = None) -> str:
        """Register an already-built graph under ``name`` (default: its own).

        The loader closes over ``graph``, which *pins* it: :meth:`evict` and
        budget eviction only drop the registry's resident reference, so for
        pinned graphs eviction frees no memory (reloading is instant for the
        same reason).  Use :meth:`register` with a loader that rebuilds the
        graph when evictability matters; pinned bytes are reported separately
        in :class:`RegistryStats` so the eviction counters stay honest.
        """
        name = name or graph.name
        self.register(name, lambda: graph)
        with self._lock:
            self._pinned[name] = graph.total_bytes
        return name

    def register_dataset(self, symbol: str, name: str | None = None, **load_kwargs) -> str:
        """Register one of the paper's Table 2 datasets by symbol.

        Extra keyword arguments are forwarded to
        :func:`repro.graph.datasets.load_dataset` (e.g. ``scale=40000`` for a
        quick-to-generate analog).  The module-level dataset cache is bypassed
        so that evicting the graph here actually releases it.
        """
        name = name or symbol
        load_kwargs.setdefault("use_cache", False)
        self.register(name, lambda: load_dataset(symbol, **load_kwargs))
        return name

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def get(self, name: str) -> CSRGraph:
        """Fetch a graph, loading (and possibly evicting others) as needed.

        The loader runs *outside* the registry lock: a slow dataset
        generation blocks only requests for that same graph (they wait on a
        per-name event), never hits on resident graphs or loads of other
        graphs.
        """
        while True:
            with self._lock:
                if name in self._resident:
                    self._lookups.inc(outcome="hit")
                    self._resident.move_to_end(name)
                    return self._resident[name]
                if name not in self._loaders:
                    raise UnknownGraphError(
                        f"unknown graph {name!r}; registered: "
                        f"{', '.join(sorted(self._loaders)) or '(none)'}"
                    )
                pending = self._loading.get(name)
                if pending is None:
                    loader = self._loaders[name]
                    pending = self._loading[name] = threading.Event()
                    self._lookups.inc(outcome="miss")
                    break
            # Another thread is loading this graph; wait and re-check (if its
            # load failed, the next iteration elects this thread as loader).
            pending.wait()
        try:
            # Injected loader faults fire exactly where a real loader failure
            # would: after this thread won the load election, outside the
            # lock, with the standard failure cleanup (re-election) below.
            faults.check("registry.load", graph=name)
            graph = loader()
            if not isinstance(graph, CSRGraph):
                raise ServiceError(
                    f"loader for {name!r} returned {type(graph).__name__}, not CSRGraph"
                )
        except BaseException:
            with self._lock:
                del self._loading[name]
            pending.set()
            raise
        with self._lock:
            self._loads.inc()
            self._resident[name] = graph
            evicted = self._evict_over_budget()
            del self._loading[name]
        pending.set()
        self._notify_evictions(evicted)
        self._notify_load(name, graph)
        return graph

    def metadata(self, name: str) -> dict:
        """Structural metadata for a registered graph.

        Metadata comes from the graph itself, so a graph that is not resident
        is loaded first (and becomes the most recently used entry, exactly as
        a traversal request for it would).
        """
        graph = self.get(name)
        return {
            "name": name,
            "num_vertices": graph.num_vertices,
            "num_edges": graph.num_edges,
            "directed": graph.directed,
            "weighted": graph.has_weights,
            "total_bytes": graph.total_bytes,
            **dict(graph.meta),
        }

    def peek(self, name: str) -> CSRGraph | None:
        """The resident graph named ``name``, or None — never loads.

        Unlike :meth:`get` this neither triggers the loader nor touches the
        LRU order, so cheap introspection (e.g. the cost model bootstrapping
        an estimate from graph size) cannot evict anything or block on a slow
        load.
        """
        with self._lock:
            return self._resident.get(name)

    def names(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._loaders))

    def resident_names(self) -> tuple[str, ...]:
        """Resident graphs, least recently used first."""
        with self._lock:
            return tuple(self._resident)

    def resident_bytes(self) -> int:
        with self._lock:
            return sum(graph.total_bytes for graph in self._resident.values())

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._loaders

    def __len__(self) -> int:
        with self._lock:
            return len(self._loaders)

    # ------------------------------------------------------------------ #
    # Eviction
    # ------------------------------------------------------------------ #
    def evict(self, name: str) -> bool:
        """Drop one resident graph; returns whether it was resident.

        For graphs registered via :meth:`register_graph` this only removes
        the registry's reference — the loader closure still pins the actual
        bytes (see :class:`RegistryStats`).
        """
        with self._lock:
            if name not in self._resident:
                return False
            del self._resident[name]
        self._notify_evictions([name])
        return True

    def clear_resident(self) -> None:
        """Drop every resident graph (registrations are kept)."""
        with self._lock:
            dropped = list(self._resident)
            self._resident.clear()
        self._notify_evictions(dropped)

    def _evict_over_budget(self) -> "list[str]":
        evicted: list[str] = []
        if self.budget_bytes is None:
            return evicted
        while (
            len(self._resident) > 1
            and sum(g.total_bytes for g in self._resident.values()) > self.budget_bytes
        ):
            evicted.append(self._resident.popitem(last=False)[0])
        return evicted

    # ------------------------------------------------------------------ #
    # Stats
    # ------------------------------------------------------------------ #
    def stats(self) -> RegistryStats:
        lookups = self._lookups.samples()
        with self._lock:
            return RegistryStats(
                loads=int(self._loads.value()),
                evictions=int(self._evictions.value()),
                hits=int(lookups.get(("hit",), 0)),
                misses=int(lookups.get(("miss",), 0)),
                resident_graphs=len(self._resident),
                resident_bytes=sum(g.total_bytes for g in self._resident.values()),
                budget_bytes=self.budget_bytes,
                pinned_graphs=len(self._pinned),
                pinned_bytes=sum(self._pinned.values()),
            )
