"""End-to-end integration: a streaming graph scenario across the full stack.

Simulates the real-world usage the paper motivates: a graph ingests a
stream of edge batches and vertex churn while an analytics pipeline
(triangle counts, BFS, PageRank) runs between update phases, with
periodic maintenance (rehash + tombstone flush).  Validated against the
dict model and networkx at checkpoints.
"""

import networkx as nx
import numpy as np

from repro.core import DynamicGraph
from repro.analytics import bfs, connected_components, triangle_count_hash
from repro.datasets import powerlaw_graph
from tests.conftest import structure_edges


def test_streaming_scenario():
    rng = np.random.default_rng(2024)
    n = 300
    base = powerlaw_graph(n, 6.0, seed=1)

    g = DynamicGraph(num_vertices=n, weighted=False, directed=False)
    keep = base.src < base.dst
    g.insert_edges(base.src[keep], base.dst[keep])

    ref = nx.Graph()
    ref.add_nodes_from(range(n))
    ref.add_edges_from(zip(base.src.tolist(), base.dst.tolist()))

    for epoch in range(6):
        # Phase 1: edge stream (inserts + deletes).
        ins_s = rng.integers(0, n, 250)
        ins_d = rng.integers(0, n, 250)
        g.insert_edges(ins_s, ins_d)
        ref.add_edges_from((int(s), int(d)) for s, d in zip(ins_s, ins_d) if s != d)
        del_s = rng.integers(0, n, 100)
        del_d = rng.integers(0, n, 100)
        g.delete_edges(del_s, del_d)
        ref.remove_edges_from(zip(del_s.tolist(), del_d.tolist()))

        # Phase 2: vertex churn.
        doomed = rng.choice(n, size=3, replace=False)
        g.delete_vertices(doomed)
        for v in doomed.tolist():
            ref.remove_edges_from(list(ref.edges(v)))

        # Phase 3: maintenance every other epoch.
        if epoch % 2 == 1:
            g.rehash()
            g.flush_tombstones()

        # Checkpoint: structure equals reference.
        expected = {(s, d) for a, b in ref.edges() for s, d in ((a, b), (b, a))}
        assert structure_edges(g) == expected
        assert g.num_edges() == 2 * ref.number_of_edges()

        # Phase 4: analytics between update phases (read-only).
        tri = triangle_count_hash(g)
        assert tri == sum(nx.triangles(ref).values()) // 3

        src_v = int(rng.integers(0, n))
        dist = bfs(g, src_v)
        ref_dist = nx.single_source_shortest_path_length(ref, src_v)
        assert all(dist[v] == ref_dist.get(v, -1) for v in range(n))

        labels = connected_components(g)
        comps = {frozenset(c) for c in nx.connected_components(ref)}
        mine = {}
        for v, l in enumerate(labels.tolist()):
            mine.setdefault(l, set()).add(v)
        assert {frozenset(s) for s in mine.values()} == comps


def test_capacity_growth_under_stream():
    """Vertex ids beyond the initial capacity arrive mid-stream."""
    g = DynamicGraph(num_vertices=8, weighted=True)
    rng = np.random.default_rng(5)
    ref = {}
    hi = 8
    for _ in range(5):
        hi *= 2
        g.insert_vertices([hi - 1])
        src = rng.integers(0, hi, 50)
        dst = rng.integers(0, hi, 50)
        w = rng.integers(0, 9, 50)
        g.insert_edges(src, dst, w)
        for s, d, ww in zip(src.tolist(), dst.tolist(), w.tolist()):
            if s != d:
                ref[(s, d)] = ww
    assert g.num_vertices >= hi
    got = {
        (int(s), int(d)): int(w)
        for s, d, w in zip(*(lambda c: (c.src, c.dst, c.weights))(g.export_coo()))
    }
    assert got == ref
