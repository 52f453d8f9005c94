"""EMOGI reproduction: zero-copy out-of-memory graph traversal on GPUs.

This package reproduces "EMOGI: Efficient Memory-access for Out-of-memory
Graph-traversal In GPUs" (Min et al., VLDB 2020) as a pure-Python library: the
graph substrate (CSR, generators, datasets), a calibrated simulator of the
GPU/PCIe/UVM memory system, the EMOGI traversal kernels (BFS, SSSP, CC under
four edge-list access strategies), the HALO- and Subway-style baselines, and a
benchmark harness that regenerates every figure and table of the paper's
evaluation.

Quickstart::

    from repro import bfs, load_dataset, AccessStrategy

    graph = load_dataset("GK")
    emogi = bfs(graph, source=0, strategy=AccessStrategy.MERGED_ALIGNED)
    uvm = bfs(graph, source=0, strategy=AccessStrategy.UVM)
    print(f"speedup over UVM: {uvm.seconds / emogi.seconds:.2f}x")
"""

from .config import (
    DATASET_SCALE,
    PCIE3_X16,
    PCIE4_X16,
    SystemConfig,
    ampere_pcie3,
    ampere_pcie4,
    default_system,
    titan_xp_pcie3,
    volta_pcie3,
)
from .errors import (
    AdmissionError,
    AllocationError,
    ConfigurationError,
    DatasetError,
    DeadlineExceededError,
    GraphFormatError,
    InfeasibleDeadlineError,
    ReproError,
    SimulationError,
)
from .graph import (
    CSRGraph,
    DATASET_SYMBOLS,
    dataset_specs,
    from_edge_array,
    from_neighbor_lists,
    load_dataset,
    powerlaw_graph,
    rmat_graph,
    uniform_random_graph,
    web_graph,
)
from .traversal import (
    AccessStrategy,
    Application,
    EMOGI_STRATEGY,
    EngineArena,
    MultiSourceResult,
    TraversalEngine,
    TraversalResult,
    bfs,
    cc,
    run,
    run_average,
    run_batch,
    run_pagerank,
    run_streaming,
    run_streaming_batch,
    sssp,
)
from .baselines import run_halo, run_subway
from .config import ServiceConfig
from .service import GraphRegistry, Service, TraversalRequest

__version__ = "1.1.0"

__all__ = [
    "__version__",
    # configuration
    "SystemConfig",
    "default_system",
    "volta_pcie3",
    "ampere_pcie3",
    "ampere_pcie4",
    "titan_xp_pcie3",
    "PCIE3_X16",
    "PCIE4_X16",
    "DATASET_SCALE",
    # errors
    "ReproError",
    "ConfigurationError",
    "GraphFormatError",
    "AllocationError",
    "SimulationError",
    "DatasetError",
    "AdmissionError",
    "InfeasibleDeadlineError",
    "DeadlineExceededError",
    # graphs
    "CSRGraph",
    "from_edge_array",
    "from_neighbor_lists",
    "rmat_graph",
    "uniform_random_graph",
    "powerlaw_graph",
    "web_graph",
    "load_dataset",
    "dataset_specs",
    "DATASET_SYMBOLS",
    # traversal
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
    "run_pagerank",
    "TraversalEngine",
    "TraversalResult",
    "MultiSourceResult",
    "EngineArena",
    # baselines
    "run_halo",
    "run_subway",
    # serving
    "Service",
    "ServiceConfig",
    "GraphRegistry",
    "TraversalRequest",
]
