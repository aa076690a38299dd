"""Synthetic dataset generators matching the paper's Table I shapes.

The paper benchmarks on twelve SuiteSparse/SNAP datasets spanning four
families; each family has a generator here that matches its degree
statistics (min/max/mean/σ) at configurable scale:

- :mod:`repro.datasets.road` — road networks (deg ≈ 2.1-2.4, σ < 1):
  luxembourg_osm, germany_osm, road_usa;
- :mod:`repro.datasets.delaunay` — Delaunay triangulations (deg ≈ 6.0,
  σ ≈ 1.3): delaunay_n20, delaunay_n23;
- :mod:`repro.datasets.rgg` — random geometric graphs (deg ≈ 13-16,
  σ ≈ 3.6-4.0): rgg_n_2_20_s0, rgg_n_2_24_s0;
- :mod:`repro.datasets.powerlaw` — heavy-tailed graphs (max degree in the
  thousands): coAuthorsDBLP, soc-LiveJournal1, soc-orkut, hollywood-2009
  (ldoor, a FEM mesh with deg ≈ 48 σ ≈ 12, gets a near-regular generator);
- :mod:`repro.datasets.rmat` — RMAT graphs for the Figure 2/3 load-factor
  sweeps.

:mod:`repro.datasets.registry` catalogs a scaled-down stand-in for each
Table I dataset so the benches can iterate "all twelve datasets" exactly
like the paper does.
"""

from repro.datasets.delaunay import delaunay_graph
from repro.datasets.powerlaw import mesh_like_graph, powerlaw_graph
from repro.datasets.registry import DATASETS, load
from repro.datasets.rgg import rgg_graph
from repro.datasets.rmat import rmat_graph
from repro.datasets.road import road_graph

__all__ = [
    "DATASETS",
    "delaunay_graph",
    "load",
    "mesh_like_graph",
    "powerlaw_graph",
    "rgg_graph",
    "rmat_graph",
    "road_graph",
]
