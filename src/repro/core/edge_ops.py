"""Batched edge insertion and deletion (Algorithm 1 and Section IV-C2).

The vectorized pipeline per batch:

1. validate and coerce the arrays (once, at the boundary);
2. drop self-loops (Algorithm 1 line 3);
3. for an undirected graph, mirror the batch (Section IV-C: "inserting an
   edge ... also requires an operation on the edge in the other
   direction");
4. create single-bucket tables for sources seen for the first time
   (Section III-b: no connectivity information available);
5. run the slab-hash replace/delete kernel (intra-batch duplicates resolve
   to the paper's "most recent wins" / "only one delete succeeds");
6. update exact per-vertex edge counts from the success mask — the
   vectorized equivalent of ``popc(ballot(success))`` in Algorithm 1 lines
   9-10.

Complexity contract: every step above is **O(batch + touched slabs)**,
never O(|V|) — the paper's central claim that batched updates cost
proportional to the batch, not the graph.  Counter updates are scatter-adds
over the batch's sources (via
:meth:`repro.core.vertex_dict.VertexDictionary.add_edge_counts` /
``sub_edge_counts``), which also keep the dictionary's aggregate
``total_edges`` / ``num_active`` counters current so size queries stay
O(1).  ``benchmarks/bench_regression_scaling.py`` locks this in by asserting
that small-batch throughput does not degrade as vertex capacity grows.

Weights: the public API accepts integer weights (stored in the 32-bit value
lanes).  Float weights can be carried by viewing them as uint32 at the
caller; the examples show this pattern.
"""

from __future__ import annotations

import numpy as np

from repro.util.validation import as_int_array, check_equal_length, check_in_range

__all__ = ["insert_edges", "delete_edges"]


def _prepare(graph, src, dst, weights):
    graph._reject_weights_if_unweighted(weights)
    src = as_int_array(src, "src")
    dst = as_int_array(dst, "dst")
    n = check_equal_length(("src", src), ("dst", dst))
    if weights is None:
        w = None
    else:
        w = as_int_array(weights, "weights")
        check_equal_length(("src", src), ("weights", w))
    if n:
        check_in_range(src, 0, graph.vertex_capacity, "src")
        check_in_range(dst, 0, graph.vertex_capacity, "dst")
    return src, dst, w


def insert_edges(graph, src, dst, weights=None) -> int:
    """Insert a batch of directed edges; returns the number newly added.

    Existing (src, dst) pairs have their weight replaced and do not count.
    For undirected graphs both orientations are inserted and the return
    value counts directed slots (i.e. a brand-new undirected edge adds 2).
    """
    src, dst, w = _prepare(graph, src, dst, weights)
    if src.size == 0:
        return 0
    graph._bump_version()

    keep = src != dst  # no self-edges (Algorithm 1, line 3)
    src, dst = src[keep], dst[keep]
    w = w[keep] if w is not None else None
    if src.size == 0:
        return 0

    if not graph.directed:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        w = np.concatenate([w, w]) if w is not None else None
    return _insert_prepared(graph, src, dst, w)


def _insert_prepared(graph, src, dst, w) -> int:
    vd = graph._dict
    vd.ensure_tables(src)
    if graph.weighted and w is None:
        w = np.zeros(src.shape[0], dtype=np.int64)
    added = vd.arena.insert(src, dst, w if graph.weighted else None)
    if added.any():
        vd.add_edge_counts(src[added])
    if graph.directed:
        vd.activate(np.concatenate([src, dst]))
    else:
        # The mirrored batch makes dst a permutation of src: one pass covers both.
        vd.activate(src)
    return int(added.sum())


def delete_edges(graph, src, dst) -> int:
    """Delete a batch of directed edges; returns the number removed.

    Absent pairs are no-ops.  Undirected graphs delete both orientations
    (the return value counts directed removals).
    """
    src, dst, _ = _prepare(graph, src, dst, None)
    if src.size == 0:
        return 0
    graph._bump_version()
    if not graph.directed:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    removed = graph._dict.arena.delete(src, dst)
    if removed.any():
        graph._dict.sub_edge_counts(src[removed])
    return int(removed.sum())
