"""Analytics validated against networkx on random graphs."""

import networkx as nx
import numpy as np
import pytest

from repro.core import DynamicGraph
from repro.analytics import (
    advance,
    bfs,
    connected_components,
    dynamic_triangle_count,
    filter_frontier,
    pagerank,
    triangle_count_hash,
    triangle_count_sorted,
)
from repro.baselines import HornetGraph
from repro.datasets import powerlaw_graph, rgg_graph
from repro.util.errors import ValidationError


@pytest.fixture(params=["rgg", "powerlaw"])
def undirected_case(request):
    if request.param == "rgg":
        coo = rgg_graph(300, 9.0, seed=4)
    else:
        coo = powerlaw_graph(250, 7.0, seed=4)
    G = nx.Graph()
    G.add_nodes_from(range(coo.num_vertices))
    G.add_edges_from(zip(coo.src.tolist(), coo.dst.tolist()))
    g = DynamicGraph(coo.num_vertices, weighted=False)
    g.bulk_build(coo)
    return coo, G, g


class TestTriangleCounting:
    def test_hash_matches_networkx(self, undirected_case):
        _, G, g = undirected_case
        expected = sum(nx.triangles(G).values()) // 3
        assert triangle_count_hash(g) == expected

    def test_sorted_matches_networkx(self, undirected_case):
        _, G, g = undirected_case
        expected = sum(nx.triangles(G).values()) // 3
        row_ptr, col = g.sorted_adjacency()
        assert triangle_count_sorted(row_ptr, col) == expected

    def test_small_chunks_same_answer(self, undirected_case):
        _, G, g = undirected_case
        expected = sum(nx.triangles(G).values()) // 3
        assert triangle_count_hash(g, chunk_size=64) == expected

    def test_known_triangle(self):
        g = DynamicGraph(4, weighted=False, directed=False)
        g.insert_edges([0, 1, 2], [1, 2, 0])
        assert triangle_count_hash(g) == 1

    def test_empty_graph(self):
        g = DynamicGraph(4, weighted=False)
        assert triangle_count_hash(g) == 0
        assert triangle_count_sorted(np.zeros(5, np.int64), np.empty(0, np.int64)) == 0

    def test_dynamic_tc_counts_monotone(self, rng):
        n = 150
        g = DynamicGraph(n, weighted=False)
        batches = [
            (rng.integers(0, n, 200), rng.integers(0, n, 200)) for _ in range(3)
        ]
        steps = dynamic_triangle_count(g, batches, mode="hash")
        assert len(steps) == 3
        assert all(s.triangles >= p.triangles for p, s in zip(steps, steps[1:]))

    def test_dynamic_tc_modes_agree(self, rng):
        n = 120
        batches = [
            (rng.integers(0, n, 150), rng.integers(0, n, 150)) for _ in range(3)
        ]
        g1 = DynamicGraph(n, weighted=False)
        hash_steps = dynamic_triangle_count(g1, batches, mode="hash")
        g2 = HornetGraph(n, weighted=False)
        sorted_steps = dynamic_triangle_count(g2, batches, mode="sorted")
        assert [s.triangles for s in hash_steps] == [s.triangles for s in sorted_steps]
        assert all(s.sort_model > 0 for s in sorted_steps)

    def test_dynamic_tc_bad_mode(self):
        with pytest.raises(ValidationError):
            dynamic_triangle_count(DynamicGraph(4, weighted=False), [], mode="nope")


class TestTraversal:
    def test_bfs_matches_networkx(self, undirected_case):
        coo, G, g = undirected_case
        src = int(coo.src[0]) if coo.num_edges else 0
        dist = bfs(g, src)
        ref = nx.single_source_shortest_path_length(G, src)
        for v in range(coo.num_vertices):
            assert dist[v] == ref.get(v, -1)

    def test_bfs_max_depth(self, undirected_case):
        coo, _, g = undirected_case
        src = int(coo.src[0])
        dist = bfs(g, src, max_depth=2)
        assert dist.max() <= 2

    def test_bfs_source_out_of_range(self):
        with pytest.raises(ValidationError):
            bfs(DynamicGraph(4, weighted=False), 9)

    def test_bfs_on_baseline_structure(self, rng):
        """BFS works through the neighbors() fallback too."""
        n = 40
        coo = rgg_graph(n, 6.0, seed=1)
        h = HornetGraph(n, weighted=False)
        h.bulk_build(coo)
        g = DynamicGraph(n, weighted=False)
        g.bulk_build(coo)
        assert np.array_equal(bfs(h, 0), bfs(g, 0))

    def test_advance_and_filter(self):
        g = DynamicGraph(6, weighted=False)
        g.insert_edges([0, 0, 1], [1, 2, 3])
        srcs, dsts = advance(g, np.array([0, 1]))
        assert sorted(zip(srcs.tolist(), dsts.tolist())) == [(0, 1), (0, 2), (1, 3)]
        visited = np.zeros(6, dtype=bool)
        visited[2] = True
        out = filter_frontier(dsts, visited)
        assert sorted(out.tolist()) == [1, 3]

    def test_filter_frontier_dedups_sorted_without_sort(self):
        visited = np.zeros(8, dtype=bool)
        visited[5] = True
        candidates = np.array([7, 3, 3, 5, 1, 7, 1], dtype=np.int64)
        out = filter_frontier(candidates, visited)
        assert out.tolist() == [1, 3, 7]  # unique, ascending, unvisited
        assert filter_frontier(np.empty(0, dtype=np.int64), visited).size == 0

    def test_filter_frontier_rejects_negative_ids_mask_path(self):
        """id -1 must not wrap to visited[n-1] and corrupt the frontier."""
        visited = np.zeros(8, dtype=bool)
        with pytest.raises(ValidationError, match="candidates"):
            filter_frontier(np.array([-1, 2, 3], dtype=np.int64), visited)

    def test_filter_frontier_rejects_negative_ids_sort_path(self):
        # Few candidates on a large mask take the np.unique path.
        visited = np.zeros(10_000, dtype=bool)
        with pytest.raises(ValidationError, match="candidates"):
            filter_frontier(np.array([-1, 2], dtype=np.int64), visited)

    def test_filter_frontier_rejects_out_of_range_ids_both_paths(self):
        small = np.zeros(4, dtype=bool)  # mask path
        with pytest.raises(ValidationError, match="candidates"):
            filter_frontier(np.array([0, 4], dtype=np.int64), small)
        large = np.zeros(10_000, dtype=bool)  # sort path
        with pytest.raises(ValidationError, match="candidates"):
            filter_frontier(np.array([10_000], dtype=np.int64), large)

    def test_cc_matches_networkx(self, undirected_case):
        coo, G, g = undirected_case
        labels = connected_components(g)
        mine = {}
        for v, l in enumerate(labels.tolist()):
            mine.setdefault(l, set()).add(v)
        theirs = {frozenset(c) for c in nx.connected_components(G)}
        assert {frozenset(s) for s in mine.values()} == theirs

    def test_pagerank_matches_networkx(self, undirected_case):
        coo, G, g = undirected_case
        pr = pagerank(g, tol=1e-12)
        ref = nx.pagerank(G.to_directed(), alpha=0.85, tol=1e-12)
        assert max(abs(pr[v] - ref[v]) for v in range(coo.num_vertices)) < 1e-6

    def test_pagerank_sums_to_one(self, undirected_case):
        _, _, g = undirected_case
        assert pagerank(g).sum() == pytest.approx(1.0)

    def test_pagerank_bad_damping(self):
        with pytest.raises(ValidationError):
            pagerank(DynamicGraph(4, weighted=False), damping=1.5)
