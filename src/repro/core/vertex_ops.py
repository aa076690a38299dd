"""Batched vertex insertion and deletion (Section IV-D, Algorithm 2).

Vertex insertion is "inserting edges connected to a vertex that has an
empty adjacency list": grow the dictionary if the ids exceed capacity
(shallow pointer copy) and create appropriately sized tables — one
:meth:`repro.core.vertex_dict.VertexDictionary.activate` call — then run
the ordinary edge-insertion kernel.

Vertex deletion follows Algorithm 2.  On hardware each warp drains an
atomic work queue of doomed vertices and, per vertex, iterates its
adjacency to erase the reverse edges; vectorized, all doomed vertices'
adjacencies are gathered in one iterator sweep and all reverse deletions
run as one delete kernel — the same slab traffic without the queue (the
queue exists to load-balance warps, which a batch kernel gets for free).
Overflow slabs are freed, base slabs retained, and edge counts zeroed
(Algorithm 2 lines 18-22); the dictionary keeps no other per-vertex state.

Like the edge kernels, counter maintenance here is O(batch + touched
slabs): per-vertex deltas are scatter-adds over the affected sources and
the dictionary's aggregate edge counter rides along incrementally (see
:mod:`repro.core.vertex_dict`).
"""

from __future__ import annotations

import numpy as np

from repro.gpusim.counters import get_counters
from repro.slabhash.iterate import iterate_tables
from repro.util.errors import ValidationError
from repro.util.groupby import sorted_unique
from repro.util.validation import as_int_array, check_equal_length

__all__ = ["insert_vertices", "delete_vertices"]


def insert_vertices(graph, vertex_ids, expected_degree=None) -> None:
    """Register vertices (growing the dictionary if needed).

    ``expected_degree`` sizes each new table from connectivity information;
    omitted, new tables get one bucket.  Ids beyond current capacity
    trigger dictionary growth (Section IV-A1's pointer-copying extension).
    Edges are attached afterwards with :meth:`DynamicGraph.insert_edges`.
    """
    vertex_ids = as_int_array(vertex_ids, "vertex_ids")
    if expected_degree is not None:
        expected_degree = as_int_array(expected_degree, "expected_degree")
        check_equal_length(("vertex_ids", vertex_ids), ("expected_degree", expected_degree))
    if vertex_ids.size == 0:
        return
    if vertex_ids.min() < 0:
        raise ValidationError("vertex_ids must be non-negative")
    graph._bump_version()
    graph._dict.activate(vertex_ids, expected_degree, graph.load_factor)


def delete_vertices(graph, vertex_ids) -> int:
    """Delete a clean, non-empty batch of vertices and every edge touching
    them; returns the edges removed.

    Follows Algorithm 2 for undirected graphs (erase the vertex from each
    neighbour's table via the adjacency iterator).  For directed graphs the
    reverse edges cannot be found from the vertex's own table, so the
    paper's "follow-up lookup" applies: a full sweep deletes the doomed ids
    from every remaining table.
    """
    vertex_ids = sorted_unique(vertex_ids)
    vd = graph._dict
    counters = get_counters()
    # Algorithm 2 uses one atomicAdd per vertex acquisition; charge those.
    counters.atomics += int(vertex_ids.size)

    if graph.directed:
        removed_total = _cleanup_references(graph, vertex_ids)
    else:
        # Iterate the doomed vertices' adjacency lists and erase the reverse
        # edges (Algorithm 2, lines 11-17).
        owners, neighbors, _ = vd.arena.iterate(vertex_ids)
        removed_total = _erase(vd, neighbors, vertex_ids[owners])

    # Free dynamically allocated slabs, reset bases, zero the counts
    # (lines 18-22).
    vd.arena.clear_tables(vertex_ids)
    removed_total += vd.zero_edge_counts(vertex_ids)
    return removed_total


def _cleanup_references(graph, doomed: np.ndarray) -> int:
    """Directed-case sweep: delete edges *into* the doomed vertices.

    The paper ends vertex deletion "with a follow-up lookup and delete of
    all of the deleted vertices in all of the hash tables"; this is that
    pass, restricted to tables that exist.
    """
    vd = graph._dict
    all_ids = np.flatnonzero(vd.arena.table_base != -1)
    # Skip the doomed tables themselves; they are cleared wholesale.
    all_ids = all_ids[~np.isin(all_ids, doomed)]
    # The sweep reads every slab but materialises only the doomed keys.
    owners, neighbors, _ = iterate_tables(vd.arena, all_ids, only=doomed)
    return _erase(vd, all_ids[owners], neighbors)


def _erase(vd, tables, keys) -> int:
    """Delete the (table, key) pairs the sweep found; returns how many existed."""
    if keys.size == 0:
        return 0
    removed = vd.arena.delete(tables, keys)
    if removed.any():
        vd.sub_edge_counts(tables[removed])
    return int(removed.sum())
