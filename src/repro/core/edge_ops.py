"""Batched edge insertion and deletion (Algorithm 1 and Section IV-C2).

The vectorized pipeline per batch:

1. validate, coerce and drop self-loops (Algorithm 1 line 3) — done once
   by the :class:`repro.api.GraphBackend` template methods, which call
   the functions here with clean int64 arrays;
2. for an undirected graph, mirror the batch (Section IV-C: "inserting an
   edge ... also requires an operation on the edge in the other
   direction");
3. run the slab-hash replace/delete kernel (intra-batch duplicates resolve
   to the paper's "most recent wins" / "only one delete succeeds"); an
   insert launch gives each first-seen source a single-bucket table
   (Section III-b: no connectivity information available);
4. update exact per-vertex edge counts from the success mask — the
   vectorized equivalent of ``popc(ballot(success))`` in Algorithm 1 lines
   9-10.

Complexity contract: every step above is **O(batch + touched slabs)**,
never O(|V|) — the paper's central claim that batched updates cost
proportional to the batch, not the graph.  Counter updates are scatter-adds
over the batch's sources (via
:meth:`repro.core.vertex_dict.VertexDictionary.add_edge_counts` /
``sub_edge_counts``), which also keep the dictionary's aggregate
``total_edges`` counter current so ``num_edges()`` stays O(1); no other
per-vertex state is written.  ``benchmarks/bench_regression_scaling.py``
locks this in by asserting that small-batch throughput does not degrade as
vertex capacity grows.

Weights: the public API accepts integer weights in ``[0, 2**32)``, stored
exactly in the 32-bit value lanes; the template method rejects any other
(``DynamicGraph._weight_range``) rather than let the cast wrap it.  Float
weights can be carried by viewing them as uint32 at the caller.
"""

from __future__ import annotations

import numpy as np

__all__ = ["insert_edges", "delete_edges"]


def insert_edges(graph, src, dst, w) -> int:
    """Insert a clean, self-loop-free batch; returns the number newly added.

    Existing (src, dst) pairs have their weight replaced and do not count.
    For undirected graphs both orientations are inserted and the return
    value counts directed slots (i.e. a brand-new undirected edge adds 2).
    """
    if not graph.directed:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        w = np.concatenate([w, w]) if w is not None else None
    vd = graph._dict
    added = vd.arena.insert(src, dst, w)  # absent weights on a map are stored as 0
    count = int(np.count_nonzero(added))
    if count:
        vd.add_edge_counts(src[added])
    return count


def delete_edges(graph, src, dst) -> int:
    """Delete a clean batch of directed edges; returns the number removed.

    Absent pairs are no-ops.  Undirected graphs delete both orientations
    (the return value counts directed removals).
    """
    if not graph.directed:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    removed = graph._dict.arena.delete(src, dst)
    if removed.any():
        graph._dict.sub_edge_counts(src[removed])
    return int(removed.sum())
