"""Gunrock-lite analytics over dynamic graph structures.

The paper integrates its data structure into Gunrock and evaluates triangle
counting; this subpackage provides the equivalent algorithm layer:

- :mod:`repro.analytics.frontier` — bulk advance/filter primitives over
  the batched adjacency iterator;
- :mod:`repro.analytics.triangle_count` — static TC in both flavors
  (hash-probe for our structure, sorted-intersection for list baselines)
  and the dynamic insert-then-count workload of Table IX;
- :mod:`repro.analytics.bfs`, :mod:`repro.analytics.pagerank`,
  :mod:`repro.analytics.connected_components`,
  :mod:`repro.analytics.sssp` — classic primitives exercising queries and
  iteration; :mod:`repro.analytics.kcore` peels a snapshot to k-core
  membership, the cold kernel the incremental k-core repairs around.

Every algorithm takes a :class:`repro.api.Graph`, a
:class:`repro.api.GraphBackend` or a :class:`repro.api.CSRSnapshot`:
traversal kernels drive the batched ``adjacencies`` iterator all three
expose, whole-graph kernels (PageRank, components, k-core membership,
sorted TC) read the uniform :meth:`repro.api.Graph.snapshot` CSR view via
:func:`repro.api.as_snapshot`, so the same code runs over the slab-hash
graph, the B-tree, Hornet, faimGraph, GPMA, or a snapshot of any of them.
"""

from repro.analytics.bfs import bfs
from repro.analytics.connected_components import connected_components
from repro.analytics.frontier import advance, filter_frontier
from repro.analytics.kcore import kcore_membership
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
    "kcore_membership",
    "pagerank",
    "power_iteration",
    "sssp",
    "triangle_count_csr",
    "triangle_count_hash",
    "triangle_count_sorted",
    "undirected_triangles",
]
