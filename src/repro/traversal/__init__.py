"""EMOGI core: zero-copy graph traversal on the simulated memory system.

The public entry points are :func:`~repro.traversal.api.bfs`,
:func:`~repro.traversal.api.sssp` and :func:`~repro.traversal.api.cc`, each of
which runs the corresponding vertex-centric traversal under one of the four
edge-list access strategies the paper compares (UVM, Naive zero-copy, Merged,
Merged+Aligned — the last one being "EMOGI").
"""

from ..types import AccessStrategy, Application, EMOGI_STRATEGY
from .api import bfs, cc, run, run_average, run_streaming, sssp
from .arena import EngineArena
from .engine import TraversalEngine
from .multisource import MultiSourceResult, run_batch
from .pagerank import PageRankResult, run_pagerank
from .streaming import run_streaming_batch
from .results import AggregateResult, KernelCounters, TraversalMetrics, TraversalResult
from .toy import AccessPattern, ToyResult, run_array_copy, run_uvm_array_scan

__all__ = [
    "AccessStrategy",
    "Application",
    "EMOGI_STRATEGY",
    "bfs",
    "sssp",
    "cc",
    "run",
    "run_average",
    "run_batch",
    "run_streaming",
    "run_streaming_batch",
    "MultiSourceResult",
    "EngineArena",
    "run_pagerank",
    "PageRankResult",
    "KernelCounters",
    "TraversalEngine",
    "TraversalMetrics",
    "TraversalResult",
    "AggregateResult",
    "AccessPattern",
    "ToyResult",
    "run_array_copy",
    "run_uvm_array_scan",
]
