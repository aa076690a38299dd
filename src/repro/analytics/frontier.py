"""Frontier primitives (Gunrock's advance / filter, batched).

Gunrock expresses graph algorithms as bulk operations on *frontiers* —
arrays of active vertices.  ``advance`` expands a frontier through the
batched ``adjacencies`` iterator that every :class:`repro.api.Graph`,
:class:`repro.api.GraphBackend` and :class:`repro.api.CSRSnapshot`
exposes; ``filter_frontier`` deduplicates and masks.  These two are all
the traversal algorithms in this package need.
"""

from __future__ import annotations

import numpy as np

from repro.util.groupby import sorted_unique
from repro.util.validation import as_int_array, check_in_range

__all__ = ["advance", "filter_frontier"]


def advance(graph, frontier: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Expand a frontier one hop.

    Returns ``(sources, destinations)`` — one row per traversed edge, with
    ``sources[i]`` the frontier vertex that generated ``destinations[i]``.
    """
    frontier = as_int_array(frontier, "frontier")
    if frontier.size == 0:
        e = np.empty(0, dtype=np.int64)
        return e, e.copy()
    owner_pos, dst, _ = graph.adjacencies(frontier)
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
