"""Breadth-first search over the dynamic graph's adjacency iterator.

A direct Gunrock-style advance/filter loop; exercises the batched iterator
exactly the way a framework algorithm would (read-only phase).
"""

from __future__ import annotations

import numpy as np

from repro.analytics.frontier import advance, filter_frontier
from repro.api.backend import _checked_id

__all__ = ["bfs"]


def bfs(graph, source: int) -> np.ndarray:
    """Hop distances from ``source``; unreachable vertices get -1.

    Works on any :class:`repro.api.GraphBackend`, the ``Graph`` facade, or
    a :class:`repro.api.CSRSnapshot`.
    """
    n = graph.num_vertices
    source = _checked_id(source, n, "source")

    dist = np.full(n, -1, dtype=np.int64)
    visited = np.zeros(n, dtype=bool)
    dist[source] = 0
    visited[source] = True
    frontier = np.array([source], dtype=np.int64)
    depth = 0
    while frontier.size:
        _, dsts = advance(graph, frontier)
        frontier = filter_frontier(dsts, visited)
        depth += 1
        if frontier.size:
            visited[frontier] = True
            dist[frontier] = depth
    return dist
