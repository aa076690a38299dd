"""Comparison data structures the paper evaluates against.

- :mod:`repro.baselines.hornet` — a Hornet-like structure: per-vertex
  power-of-two blocks, CPU-side block manager, sort-based deduplication on
  insertion (Busato et al., HPEC 2018);
- :mod:`repro.baselines.faimgraph` — a faimGraph-like structure: 128-byte
  page chains, full-scan deduplication, hole-filling compaction deletes,
  page reclamation and vertex-id reuse queues (Winter et al., SC 2018);
- :mod:`repro.baselines.gpma` — a GPMA-like packed-memory-array adjacency
  store with density-threshold rebalancing (Sha et al., VLDB 2017);
- :mod:`repro.baselines.sorting` — the sorted-adjacency maintenance costs
  of Table VIII (CUB-style segmented sort vs. faimGraph's paged sort).

Each structure exposes the common subset of the dynamic-graph API
(``insert_edges`` / ``delete_edges`` / ``bulk_build`` / ``export_coo`` /
``sorted_adjacency``) so the bench harness can drive them uniformly.
"""

from repro.baselines.faimgraph import FaimGraph
from repro.baselines.gpma import GPMAGraph
from repro.baselines.hornet import HornetGraph

__all__ = ["FaimGraph", "GPMAGraph", "HornetGraph"]
