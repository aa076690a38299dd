"""Frontier primitives (Gunrock's advance / filter, batched).

Gunrock expresses graph algorithms as bulk operations on *frontiers* —
arrays of active vertices.  ``advance`` expands a frontier through the
adjacency iterator of any structure implementing ``adjacencies`` (our
graph) or ``neighbors`` (baselines, adapted per vertex); ``filter_frontier``
deduplicates and masks.  These two are all the traversal algorithms in
this package need.
"""

from __future__ import annotations

import numpy as np

from repro.util.errors import ValidationError
from repro.util.groupby import sorted_unique
from repro.util.validation import as_int_array, check_in_range

__all__ = ["advance", "filter_frontier", "vertex_space", "adjacencies_of"]


def vertex_space(graph) -> int:
    """Vertex-id space of any graph-like object.

    Every :class:`repro.api.GraphBackend` (and the ``Graph`` facade)
    exposes ``num_vertices``; the slab-hash structure also calls it
    ``vertex_capacity``.  Raises for objects exposing neither.
    """
    n = getattr(graph, "num_vertices", None)
    if n is None:
        n = getattr(graph, "vertex_capacity", None)
    if n is None:
        raise ValidationError("graph exposes neither num_vertices nor vertex_capacity")
    return int(n)


def adjacencies_of(graph, vertex_ids) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched adjacency iterator over any graph-like object.

    Uses the protocol's ``adjacencies`` when available (all registered
    backends inherit one), falling back to per-vertex ``neighbors`` calls
    for foreign objects (e.g. a bare :class:`repro.api.CSRSnapshot`).
    """
    if hasattr(graph, "adjacencies"):
        return graph.adjacencies(vertex_ids)
    from repro.api.backend import gather_adjacencies

    return gather_adjacencies(graph.neighbors, vertex_ids)


def advance(graph, frontier: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Expand a frontier one hop.

    Returns ``(sources, destinations)`` — one row per traversed edge, with
    ``sources[i]`` the frontier vertex that generated ``destinations[i]``.
    """
    frontier = as_int_array(frontier, "frontier")
    if frontier.size == 0:
        e = np.empty(0, dtype=np.int64)
        return e, e.copy()
    owner_pos, dst, _ = adjacencies_of(graph, frontier)
    return frontier[owner_pos], dst


def filter_frontier(candidates: np.ndarray, visited: np.ndarray) -> np.ndarray:
    """Deduplicate candidates and drop already-visited vertices.

    ``visited`` is a boolean mask indexed by vertex id; the returned
    frontier is unique, sorted ascending, and unvisited (Gunrock's filter
    operator).  Wide hops dedup by an O(n) scatter into a boolean mask
    over the vertex space instead of an O(c log c) sort of the candidate
    list; tiny frontiers on huge graphs (high-diameter road networks)
    keep the sort, which is cheaper than touching n mask slots per hop.

    Candidates outside ``[0, len(visited))`` raise
    :class:`ValidationError`: a negative id would otherwise wrap around
    the ``visited`` mask (id ``-1`` reads slot ``n-1``) and silently drop
    or emit wrong frontier vertices.
    """
    candidates = as_int_array(candidates, "candidates")
    if candidates.size == 0:
        return candidates
    n = visited.shape[0]
    check_in_range(candidates, 0, n, "candidates")
    if candidates.size * 16 < n:
        return sorted_unique(candidates[~visited[candidates]])
    fresh = np.zeros(n, dtype=bool)
    fresh[candidates] = True
    fresh &= ~visited
    return np.flatnonzero(fresh)
