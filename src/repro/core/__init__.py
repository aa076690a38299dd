"""The paper's primary contribution: a hash-table-per-vertex dynamic graph.

:class:`repro.core.graph.DynamicGraph` is the public entry point; the
sibling modules hold the batched kernels it delegates to:

- :mod:`repro.core.vertex_dict` — the vertex dictionary (table handles,
  exact edge counts, growth by shallow pointer copy);
- :mod:`repro.core.edge_ops` — Algorithm 1 semantics (insert) and its
  deletion variant;
- :mod:`repro.core.vertex_ops` — Section IV-D (vertex insertion, Algorithm
  2 deletion);
- :mod:`repro.core.queries` — adjacency iteration, COO export;
- :mod:`repro.core.bulk` — bulk and incremental build workloads;
- :mod:`repro.core.rehash` — chain-length-triggered rehashing.
"""

from repro.core.graph import DynamicGraph

__all__ = ["DynamicGraph"]
