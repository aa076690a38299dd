"""Gunrock-lite analytics over dynamic graph structures.

The paper integrates its data structure into Gunrock and evaluates triangle
counting; this subpackage provides the equivalent algorithm layer:

- :mod:`repro.analytics.frontier` — bulk advance/filter primitives over any
  structure exposing the batched adjacency iterator;
- :mod:`repro.analytics.triangle_count` — static TC in both flavors
  (hash-probe for our structure, sorted-intersection for list baselines)
  and the dynamic insert-then-count workload of Table IX;
- :mod:`repro.analytics.bfs`, :mod:`repro.analytics.pagerank`,
  :mod:`repro.analytics.connected_components`,
  :mod:`repro.analytics.sssp` — classic primitives exercising queries and
  iteration; :mod:`repro.analytics.kcore` peels through in-algorithm
  dynamic vertex deletion, the truly-dynamic usage pattern the paper's
  introduction motivates.

Every algorithm is backend-agnostic: traversal kernels drive the
:class:`repro.api.GraphBackend` adjacency iterator, whole-graph kernels
(PageRank, components, k-core membership, sorted TC) read the uniform
:meth:`repro.api.Graph.snapshot` CSR view via :func:`repro.api.as_snapshot`,
so the same code runs over the slab-hash graph, the B-tree, Hornet,
faimGraph, GPMA, or any other :class:`repro.api.GraphBackend`.
"""

from repro.analytics.bfs import bfs
from repro.analytics.connected_components import connected_components
from repro.analytics.frontier import advance, filter_frontier, vertex_space
from repro.analytics.kcore import kcore, kcore_membership
from repro.analytics.pagerank import pagerank, power_iteration
from repro.analytics.sssp import sssp
from repro.analytics.triangle_count import (
    dynamic_triangle_count,
    triangle_count_csr,
    triangle_count_hash,
    triangle_count_sorted,
    undirected_triangles,
)
from repro.analytics.wedges import closing_wedges

__all__ = [
    "advance",
    "bfs",
    "closing_wedges",
    "connected_components",
    "dynamic_triangle_count",
    "filter_frontier",
    "kcore",
    "kcore_membership",
    "pagerank",
    "power_iteration",
    "sssp",
    "triangle_count_csr",
    "triangle_count_hash",
    "triangle_count_sorted",
    "undirected_triangles",
    "vertex_space",
]
