"""Catalog of scaled stand-ins for the paper's Table I datasets.

Each entry reproduces one Table I dataset's *family* and degree statistics
at laptop scale (the paper runs 0.24M-265M edges on a 12 GB TITAN V; the
simulated substrate runs the same experiment shapes at thousandths of the
size).  ``paper_vertices`` / ``paper_edges`` keep the original sizes around
for paper-vs-measured reporting.

All graphs are undirected (symmetric edge sets), like the SuiteSparse
matrices the paper uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.coo import COO
from repro.datasets.delaunay import delaunay_graph
from repro.datasets.powerlaw import mesh_like_graph, powerlaw_graph
from repro.datasets.rgg import rgg_graph
from repro.datasets.road import road_graph
from repro.util.errors import ValidationError

__all__ = ["DATASETS", "load", "DATASET_ORDER"]


@dataclass(frozen=True)
class DatasetSpec:
    """One Table I dataset and its scaled generator."""

    name: str
    family: str  # road | delaunay | rgg | mesh | social
    generator: Callable[[int], COO]
    paper_vertices: int
    paper_edges: int
    paper_avg_degree: float
    paper_max_degree: int

    def generate(self, seed: int = 0) -> COO:
        return self.generator(seed)


def _spec(name, family, gen, pv, pe, pavg, pmax) -> DatasetSpec:
    return DatasetSpec(name, family, gen, pv, pe, pavg, pmax)


#: Paper order (Table I, top to bottom).
DATASET_ORDER = [
    "luxembourg_osm",
    "germany_osm",
    "road_usa",
    "delaunay_n23",
    "delaunay_n20",
    "rgg_n_2_20_s0",
    "rgg_n_2_24_s0",
    "coAuthorsDBLP",
    "ldoor",
    "soc-LiveJournal1",
    "soc-orkut",
    "hollywood-2009",
]

DATASETS: dict[str, DatasetSpec] = {
    "luxembourg_osm": _spec(
        "luxembourg_osm", "road", lambda s=0: road_graph(4_000, seed=s), 114_000, 239_000, 2.1, 6
    ),
    "germany_osm": _spec(
        "germany_osm",
        "road",
        lambda s=0: road_graph(20_000, seed=s),
        11_500_000,
        24_700_000,
        2.1,
        13,
    ),
    "road_usa": _spec(
        "road_usa", "road", lambda s=0: road_graph(28_000, seed=s), 23_900_000, 57_710_000, 2.4, 9
    ),
    "delaunay_n23": _spec(
        "delaunay_n23",
        "delaunay",
        lambda s=0: delaunay_graph(14_000, seed=s),
        8_400_000,
        50_300_000,
        6.0,
        28,
    ),
    "delaunay_n20": _spec(
        "delaunay_n20",
        "delaunay",
        lambda s=0: delaunay_graph(4_000, seed=s),
        1_000_000,
        6_300_000,
        6.0,
        23,
    ),
    "rgg_n_2_20_s0": _spec(
        "rgg_n_2_20_s0",
        "rgg",
        lambda s=0: rgg_graph(4_000, 13.1, seed=s),
        1_000_000,
        13_800_000,
        13.1,
        36,
    ),
    "rgg_n_2_24_s0": _spec(
        "rgg_n_2_24_s0",
        "rgg",
        lambda s=0: rgg_graph(12_000, 16.0, seed=s),
        16_800_000,
        265_100_000,
        16.0,
        40,
    ),
    "coAuthorsDBLP": _spec(
        "coAuthorsDBLP",
        "social",
        lambda s=0: powerlaw_graph(4_000, 6.4, 2.5, seed=s),
        299_000,
        1_900_000,
        6.4,
        336,
    ),
    "ldoor": _spec(
        "ldoor",
        "mesh",
        lambda s=0: mesh_like_graph(4_000, 48.0, seed=s),
        952_000,
        45_500_000,
        47.7,
        76,
    ),
    "soc-LiveJournal1": _spec(
        "soc-LiveJournal1",
        "social",
        lambda s=0: powerlaw_graph(8_000, 17.2, 2.1, seed=s),
        4_800_000,
        85_700_000,
        17.2,
        20_000,
    ),
    "soc-orkut": _spec(
        "soc-orkut",
        "social",
        lambda s=0: powerlaw_graph(4_000, 60.0, 2.1, seed=s),
        3_000_000,
        212_700_000,
        70.9,
        27_000,
    ),
    "hollywood-2009": _spec(
        "hollywood-2009",
        "social",
        lambda s=0: powerlaw_graph(3_000, 80.0, 2.0, seed=s),
        1_100_000,
        112_800_000,
        98.9,
        11_000,
    ),
}


def load(name: str, seed: int = 0) -> COO:
    """Generate the scaled stand-in for a Table I dataset by name."""
    try:
        spec = DATASETS[name]
    except KeyError:
        raise ValidationError(f"unknown dataset {name!r}; choose from {sorted(DATASETS)}") from None
    return spec.generate(seed)
