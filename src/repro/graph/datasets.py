"""Scaled analogs of the paper's six evaluation graphs (Table 2).

The originals are 1.9-6.7 billion-edge graphs; each analog here preserves the
original's vertex/edge *ratio* (average degree), directedness and degree
shape, with edge counts scaled down by :data:`repro.config.DATASET_SCALE`
(2000x by default).  The simulated GPU memory is scaled by the same factor in
:mod:`repro.config`, so "how much of this graph fits in device memory" matches
the paper graph-for-graph — e.g. SK still almost fits, GK/GU are ~2x memory,
and ML is ~3x.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..config import DATASET_SCALE
from ..errors import DatasetError
from .csr import CSRGraph
from .generators import (
    dense_biomedical_graph,
    powerlaw_graph,
    random_weights,
    rmat_graph,
    uniform_random_graph,
    web_graph,
)


@dataclass(frozen=True)
class DatasetSpec:
    """Description of one evaluation graph from Table 2 of the paper."""

    symbol: str
    full_name: str
    #: Vertex / edge counts of the *original* graph.
    paper_num_vertices: int
    paper_num_edges: int
    #: Edge-list / weight-list sizes reported in the paper (GB).
    paper_edge_gb: float
    paper_weight_gb: float
    directed: bool
    generator: Callable[..., CSRGraph]
    generator_kwargs: dict
    seed: int

    def scaled_counts(self, scale: float = DATASET_SCALE) -> tuple[int, int]:
        """Scaled (num_vertices, num_edges) preserving the average degree."""
        num_vertices = max(64, int(round(self.paper_num_vertices / scale)))
        num_edges = max(256, int(round(self.paper_num_edges / scale)))
        return num_vertices, num_edges

    @property
    def paper_average_degree(self) -> float:
        return self.paper_num_edges / self.paper_num_vertices


_SPECS: dict[str, DatasetSpec] = {
    "GK": DatasetSpec(
        symbol="GK",
        full_name="GAP-kron",
        paper_num_vertices=134_200_000,
        paper_num_edges=4_220_000_000,
        paper_edge_gb=31.5,
        paper_weight_gb=15.7,
        directed=False,
        generator=rmat_graph,
        generator_kwargs={},
        seed=101,
    ),
    "GU": DatasetSpec(
        symbol="GU",
        full_name="GAP-urand",
        paper_num_vertices=134_200_000,
        paper_num_edges=4_290_000_000,
        paper_edge_gb=32.0,
        paper_weight_gb=16.0,
        directed=False,
        generator=uniform_random_graph,
        generator_kwargs={"degree_spread": 0.5},
        seed=102,
    ),
    "FS": DatasetSpec(
        symbol="FS",
        full_name="Friendster",
        paper_num_vertices=65_600_000,
        paper_num_edges=3_610_000_000,
        paper_edge_gb=26.9,
        paper_weight_gb=13.5,
        directed=False,
        generator=powerlaw_graph,
        generator_kwargs={"exponent": 2.3},
        seed=103,
    ),
    "ML": DatasetSpec(
        symbol="ML",
        full_name="MOLIERE_2016",
        paper_num_vertices=30_200_000,
        paper_num_edges=6_670_000_000,
        paper_edge_gb=49.7,
        paper_weight_gb=24.8,
        directed=False,
        generator=dense_biomedical_graph,
        generator_kwargs={"sigma": 0.5},
        seed=104,
    ),
    "SK": DatasetSpec(
        symbol="SK",
        full_name="sk-2005",
        paper_num_vertices=50_600_000,
        paper_num_edges=1_950_000_000,
        paper_edge_gb=14.5,
        paper_weight_gb=7.3,
        directed=True,
        generator=web_graph,
        generator_kwargs={
            "exponent": 1.9,
            "locality": 0.45,
            "locality_scale": 400.0,
            "permute_ids": True,
        },
        seed=105,
    ),
    "UK5": DatasetSpec(
        symbol="UK5",
        full_name="uk-2007-05",
        paper_num_vertices=105_900_000,
        paper_num_edges=3_740_000_000,
        paper_edge_gb=27.8,
        paper_weight_gb=13.9,
        directed=True,
        generator=web_graph,
        generator_kwargs={
            "exponent": 2.0,
            "locality": 0.35,
            "locality_scale": 800.0,
            "permute_ids": True,
        },
        seed=106,
    ),
}

#: Dataset symbols in the order the paper's figures list them.
DATASET_SYMBOLS = ("GK", "GU", "FS", "ML", "SK", "UK5")

#: Undirected datasets only — CC is evaluated only on these (§5.4).
UNDIRECTED_SYMBOLS = tuple(s for s in DATASET_SYMBOLS if not _SPECS[s].directed)

_CACHE: dict[tuple, CSRGraph] = {}


def dataset_specs() -> dict[str, DatasetSpec]:
    """All dataset specifications keyed by their Table 2 symbol."""
    return dict(_SPECS)


def get_spec(symbol: str) -> DatasetSpec:
    try:
        return _SPECS[symbol.upper()]
    except KeyError as exc:
        raise DatasetError(
            f"unknown dataset {symbol!r}; available: {', '.join(DATASET_SYMBOLS)}"
        ) from exc


def load_dataset(
    symbol: str,
    element_bytes: int = 8,
    scale: float = DATASET_SCALE,
    with_weights: bool = True,
    use_cache: bool = True,
) -> CSRGraph:
    """Generate (or fetch from the in-process cache) one evaluation graph.

    Parameters
    ----------
    symbol:
        One of ``GK``, ``GU``, ``FS``, ``ML``, ``SK``, ``UK5``.
    element_bytes:
        Simulated size of one edge-list element (8 by default; 4 reproduces
        the Subway comparison which only supports 4-byte edges).
    scale:
        Down-scaling factor applied to the paper's vertex/edge counts.
    with_weights:
        Attach uniformly random integer weights in ``[8, 72]`` (§5.2).
    """
    spec = get_spec(symbol)
    key = (spec.symbol, element_bytes, float(scale), bool(with_weights))
    if use_cache and key in _CACHE:
        return _CACHE[key]

    num_vertices, num_edges = spec.scaled_counts(scale)
    # Generators produce directed edge arrays; undirected graphs are
    # symmetrized inside from_edge_array, which roughly doubles the stored
    # entries.  Halve the requested count so the final entry count matches.
    requested_edges = num_edges if spec.directed else max(128, num_edges // 2)
    graph = spec.generator(
        num_vertices,
        requested_edges,
        seed=spec.seed,
        element_bytes=element_bytes,
        name=spec.symbol,
        **spec.generator_kwargs,
    )
    if not spec.directed:
        from .builder import symmetrize

        graph = symmetrize(graph).renamed(spec.symbol)
    if with_weights:
        weights = random_weights(graph.num_edges, seed=spec.seed + 7000)
        graph = graph.with_weights(weights)
    graph = graph.renamed(spec.symbol)
    graph.meta.update(
        {
            "symbol": spec.symbol,
            "full_name": spec.full_name,
            "directed": spec.directed,
            "scale": float(scale),
            "paper_num_vertices": spec.paper_num_vertices,
            "paper_num_edges": spec.paper_num_edges,
        }
    )
    if use_cache:
        _CACHE[key] = graph
    return graph


def clear_cache() -> None:
    """Drop all cached datasets (mainly useful in tests)."""
    _CACHE.clear()


def pick_sources(graph: CSRGraph, count: int, seed: int = 42) -> np.ndarray:
    """Pick random source vertices that have at least one outgoing edge (§5.2)."""
    degrees = graph.degrees()
    candidates = np.flatnonzero(degrees > 0)
    if candidates.size == 0:
        raise DatasetError(f"graph {graph.name!r} has no vertex with outgoing edges")
    rng = np.random.default_rng(seed)
    count = min(count, candidates.size)
    return rng.choice(candidates, size=count, replace=False)
