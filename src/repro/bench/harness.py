"""Experiment harness shared by all figure/table reproductions.

The harness owns the evaluation graphs, the random source vertices (§5.2
picks 64 per graph; the default here is smaller so the full suite runs in
seconds) and a cache of completed runs, since several figures slice the same
BFS executions in different ways (request sizes, request counts, bandwidth,
speedup, amplification).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import DATASET_SCALE, SystemConfig, default_system
from ..graph.csr import CSRGraph
from ..graph.datasets import DATASET_SYMBOLS, load_dataset, pick_sources
from ..traversal.api import run_average
from ..traversal.results import AggregateResult
from ..types import AccessStrategy, Application


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs controlling how the evaluation is scaled down."""

    symbols: tuple[str, ...] = DATASET_SYMBOLS
    num_sources: int = 4
    scale: float = DATASET_SCALE
    element_bytes: int = 8
    seed: int = 42

    def small(self) -> "ExperimentConfig":
        """A further-reduced configuration for quick smoke tests."""
        return ExperimentConfig(
            symbols=self.symbols,
            num_sources=1,
            scale=self.scale * 10,
            element_bytes=self.element_bytes,
            seed=self.seed,
        )


@dataclass
class ExperimentHarness:
    """Loads graphs, picks sources, runs configurations, caches results."""

    config: ExperimentConfig = field(default_factory=ExperimentConfig)
    system: SystemConfig = field(default_factory=default_system)
    _graphs: dict[tuple[str, int], CSRGraph] = field(default_factory=dict)
    _sources: dict[str, np.ndarray] = field(default_factory=dict)
    _runs: dict[tuple, AggregateResult] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # Inputs
    # ------------------------------------------------------------------ #
    def graph(self, symbol: str, element_bytes: int | None = None) -> CSRGraph:
        element_bytes = element_bytes or self.config.element_bytes
        key = (symbol, element_bytes)
        if key not in self._graphs:
            self._graphs[key] = load_dataset(
                symbol, element_bytes=element_bytes, scale=self.config.scale
            )
        return self._graphs[key]

    def sources(self, symbol: str) -> np.ndarray:
        if symbol not in self._sources:
            self._sources[symbol] = pick_sources(
                self.graph(symbol), self.config.num_sources, seed=self.config.seed
            )
        return self._sources[symbol]

    # ------------------------------------------------------------------ #
    # Runs
    # ------------------------------------------------------------------ #
    def run(
        self,
        application: Application | str,
        symbol: str,
        strategy: AccessStrategy,
        system: SystemConfig | None = None,
        element_bytes: int | None = None,
    ) -> AggregateResult:
        """Run (or fetch from cache) one app/graph/strategy configuration."""
        application = Application(application)
        system = system or self.system
        element_bytes = element_bytes or self.config.element_bytes
        key = (application, symbol, strategy, system.name, element_bytes)
        if key not in self._runs:
            graph = self.graph(symbol, element_bytes=element_bytes)
            # One word per configuration: every source's metrics are its
            # fully independent solo run's (§5.2).
            self._runs[key] = run_average(
                application, graph, self.sources(symbol), strategy=strategy,
                system=system,
            )
        return self._runs[key]

    def speedup_over_uvm(
        self,
        application: Application | str,
        symbol: str,
        strategy: AccessStrategy,
        system: SystemConfig | None = None,
    ) -> float:
        """Normalized performance of ``strategy`` relative to the UVM baseline."""
        baseline = self.run(application, symbol, AccessStrategy.UVM, system=system)
        candidate = self.run(application, symbol, strategy, system=system)
        return candidate.speedup_over(baseline)

    def clear(self) -> None:
        self._graphs.clear()
        self._sources.clear()
        self._runs.clear()
