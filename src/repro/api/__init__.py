"""Unified dynamic-graph API: protocol, capability registry, and facade.

The paper (Awad et al., IPDPS 2020) compares one dynamic-graph structure
against Hornet-, faimGraph-, GPMA- and B-tree-style competitors; this
package is the contract that lets every consumer in the repository —
analytics, the bench harness, examples, tests — drive all five structures
through one stable surface:

- :class:`GraphBackend` (``repro.api.backend``) — the typed ABC whose
  public update/query methods check every batch by one rule and call the
  private hooks each structure implements;
- :class:`Capabilities` (``repro.api.capabilities``) — per-backend feature
  flags (weighted storage, vertex deletion, sorted ranges, rehash,
  tombstone flush) that consumers branch on instead of ``hasattr`` probes;
- the **registry** (``repro.api.registry``) — ``create("hornet",
  num_vertices=...)`` constructs any of the five structures by name;
- :class:`Graph` (``repro.api.facade``) — batch policies applied exactly
  once, capability-gated dispatch, and the :meth:`Graph.snapshot`
  sorted-CSR view whole-graph analytics consume;
- :class:`CSRSnapshot` / :func:`as_snapshot` (``repro.api.snapshot``) —
  the immutable read view of a phase-concurrent structure.  Snapshots are
  cached keyed on each backend's ``mutation_version`` and maintained
  incrementally by the facade's delta-merge (cold O(E log E) rebuilds are
  paid only when the structure changed in ways a sorted merge cannot
  express); :func:`cached_snapshot` peeks at a fresh cache without
  building anything.

Quickstart::

    import repro.api as api

    g = api.Graph.create("slabhash", num_vertices=1_000, weighted=True)
    g.insert_edges([0, 1, 2], [1, 2, 0], weights=[5, 6, 7])
    g.edge_exists([0], [1])                  # -> array([ True])

    from repro.analytics import pagerank
    pagerank(g)                              # reads g.snapshot()

    raw = api.create("gpma", num_vertices=64)   # unwrapped backend
    api.capabilities("gpma").vertex_dynamic     # False
"""

from repro.api.backend import GraphBackend
from repro.api.capabilities import Capabilities
from repro.api.facade import Graph
from repro.api.registry import backend_names, capabilities, create
from repro.api.sharding import (
    DispatchReport,
    PartialDispatchError,
    Partitioner,
    ShardedGraph,
    ShardError,
)
from repro.api.snapshot import CSRSnapshot, as_snapshot, cached_snapshot, merge_csr_delta

__all__ = [
    "Capabilities",
    "CSRSnapshot",
    "DispatchReport",
    "Graph",
    "GraphBackend",
    "PartialDispatchError",
    "Partitioner",
    "ShardError",
    "ShardedGraph",
    "as_snapshot",
    "backend_names",
    "cached_snapshot",
    "capabilities",
    "create",
    "merge_csr_delta",
]
