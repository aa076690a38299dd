"""Single-source shortest paths over weighted adjacency (Bellman-Ford).

The frontier-relaxation formulation Gunrock uses: each round relaxes every
edge out of the current frontier (one batched adjacency sweep) and the
vertices whose distance improved form the next frontier.  Terminates after
at most |V| rounds: negative weights are fine as long as no negative cycle
is reachable from the source — shortest simple paths have at most |V|-1
edges, so a frontier that is still improving after |V| full rounds proves
a reachable negative cycle and raises :class:`ValidationError` instead of
silently returning too-small distances.

Unreachable convention: distances are maintained against an ``INF``
sentinel (``np.iinfo(np.int64).max // 4`` — the headroom guards the
``dist + weight`` relaxation against int64 overflow); any vertex still at
or above the sentinel when the frontier drains is reported as ``-1``.
"""

from __future__ import annotations

import numpy as np

from repro.analytics.frontier import adjacencies_of, vertex_space
from repro.api.backend import _checked_id
from repro.util.errors import ValidationError

__all__ = ["sssp"]


def sssp(graph, source: int, max_rounds: int | None = None) -> np.ndarray:
    """Shortest-path distances from ``source``; unreachable = -1.

    Requires a weighted graph (``graph.weighted``); weights are read
    through the batched adjacency iterator.  Works on any weighted
    :class:`repro.api.GraphBackend` or the ``Graph`` facade.

    ``max_rounds`` truncates relaxation early (distances are then lower
    bounds over paths of that edge length).  Left at the default, the
    full |V| rounds run and a still-improving frontier at round |V|
    raises ``ValidationError("negative cycle ...")``.
    """
    if not getattr(graph, "weighted", False):
        raise ValidationError("sssp requires a weighted graph (map variant)")
    n = vertex_space(graph)
    source = _checked_id(source, n, "source")

    INF = np.iinfo(np.int64).max // 4
    dist = np.full(n, INF, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    rounds = max_rounds if max_rounds is not None else n

    for _ in range(rounds):
        if frontier.size == 0:
            break
        owner_pos, dst, w = adjacencies_of(graph, frontier)
        if dst.size == 0:
            frontier = np.empty(0, dtype=np.int64)
            break
        cand = dist[frontier[owner_pos]] + w
        # Per-destination minimum of candidate distances this round.
        proposed = dist.copy()
        np.minimum.at(proposed, dst, cand)
        improved = proposed < dist
        dist = proposed
        frontier = np.flatnonzero(improved)

    if frontier.size and rounds >= n:
        # Shortest simple paths have <= n-1 edges; an improvement during
        # round n can only come from revisiting a vertex at a net gain.
        raise ValidationError(
            "negative cycle reachable from source: distances still "
            f"improving after {n} relaxation rounds"
        )
    out = np.where(dist >= INF, -1, dist)
    return out
