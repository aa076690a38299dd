"""repro — a reproduction of "Dynamic Graphs on the GPU" (Awad et al., 2020).

The package implements the paper's hash-table-per-vertex dynamic graph data
structure (on SlabHash) together with every substrate it depends on and the
baselines it is evaluated against, on a simulated-GPU substrate:

- :mod:`repro.api` — the unified GraphBackend protocol, capability
  registry, and the ``Graph`` facade every consumer targets;
- :mod:`repro.core` — the dynamic graph (the paper's contribution; backend
  name ``"slabhash"``);
- :mod:`repro.slabhash` — the slab hash (concurrent map & set) and slab
  allocator;
- :mod:`repro.gpusim` — warp primitives, the WCWS reference engine, and the
  kernel cost counters standing in for GPU hardware;
- :mod:`repro.baselines` — Hornet-, faimGraph- and GPMA-like structures;
- :mod:`repro.btree` — the B-tree-per-vertex backend (Section VII);
- :mod:`repro.analytics` — Gunrock-lite graph algorithms (triangle
  counting, BFS, SSSP, PageRank, connected components, k-core),
  all backend-agnostic;
- :mod:`repro.datasets` — synthetic generators matching the paper's Table I
  dataset shapes;
- :mod:`repro.bench` — the evaluation harness regenerating Tables II-IX and
  Figures 2-3.

Quickstart (the unified API)::

    from repro import Graph
    g = Graph.create("slabhash", num_vertices=1000, weighted=True)
    g.insert_edges([0, 1, 2], [1, 2, 0], weights=[5, 6, 7])
    g.edge_exists([0], [1])          # -> array([ True])
    snap = g.snapshot()              # sorted-CSR view for analytics

    import repro.api as api
    api.backend_names()              # ('btree', 'faimgraph', 'gpma', 'hornet', 'slabhash')
    api.create("hornet", num_vertices=1000)   # raw backend by name

The slab-hash structure itself is :class:`repro.core.DynamicGraph`.
"""

from repro.api import Capabilities, CSRSnapshot, Graph, GraphBackend
from repro.api import backend_names, capabilities, create
from repro.coo import COO

__version__ = "2.0.0"

__all__ = [
    "COO",
    "Capabilities",
    "CSRSnapshot",
    "Graph",
    "GraphBackend",
    "backend_names",
    "capabilities",
    "create",
    "__version__",
]
