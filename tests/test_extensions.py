"""Tests for the paper's future-work extensions: SSSP and k-core."""

import networkx as nx
import numpy as np
import pytest

from repro.core import DynamicGraph
from repro.analytics import kcore_membership, sssp
from repro.datasets import rgg_graph
from repro.util.errors import ValidationError


@pytest.fixture
def weighted_case():
    coo = rgg_graph(200, 8.0, seed=5)
    rng = np.random.default_rng(1)
    w = rng.integers(1, 20, coo.num_edges)
    g = DynamicGraph(coo.num_vertices, weighted=True)
    g.insert_edges(coo.src, coo.dst, w)
    G = nx.DiGraph()
    G.add_nodes_from(range(coo.num_vertices))
    for s, d, ww in zip(coo.src.tolist(), coo.dst.tolist(), w.tolist()):
        G.add_edge(s, d, weight=int(ww))
    return g, G


class TestSSSP:
    def test_matches_networkx(self, weighted_case):
        g, G = weighted_case
        dist = sssp(g, 0)
        ref = nx.single_source_dijkstra_path_length(G, 0, weight="weight")
        for v in range(g.num_vertices):
            assert dist[v] == ref.get(v, -1), v

    def test_source_distance_zero(self, weighted_case):
        g, _ = weighted_case
        assert sssp(g, 5)[5] == 0

    def test_requires_weighted(self):
        g = DynamicGraph(4, weighted=False)
        with pytest.raises(ValidationError):
            sssp(g, 0)

    def test_source_out_of_range(self, weighted_case):
        g, _ = weighted_case
        with pytest.raises(ValidationError):
            sssp(g, 10**6)

    def test_isolated_source(self):
        g = DynamicGraph(4, weighted=True)
        g.insert_edges([0], [1], [5])
        dist = sssp(g, 3)
        assert dist[3] == 0 and dist[0] == -1

    @staticmethod
    def negative_weight_graph(n, src, dst, w):
        # The slab-hash value lanes are 32-bit (negative weights are
        # rejected); Hornet stores plain int64 weights, and sssp is
        # backend-agnostic.
        import repro.api as api

        g = api.create("hornet", num_vertices=n, weighted=True)
        g.insert_edges(np.array(src), np.array(dst), np.array(w))
        return g

    def test_negative_weights_without_cycle(self):
        g = self.negative_weight_graph(4, [0, 1, 0], [1, 2, 2], [5, -3, 9])
        assert sssp(g, 0).tolist() == [0, 5, 2, -1]

    def test_negative_cycle_raises(self):
        # 1 <-> 2 with net gain -4; reachable from 0.
        g = self.negative_weight_graph(4, [0, 1, 2], [1, 2, 1], [1, -2, -2])
        with pytest.raises(ValidationError, match="negative cycle"):
            sssp(g, 0)

    def test_negative_cycle_unreachable_is_fine(self):
        g = self.negative_weight_graph(5, [0, 2, 3], [1, 3, 2], [7, -2, -2])
        assert sssp(g, 0).tolist() == [0, 7, -1, -1, -1]

    def test_path_needing_every_round_does_not_raise(self):
        # 0 -> 1 -> ... -> n-1: the last vertex settles in round n-1, so a
        # cycle check that fired a round early would refuse this graph.
        n = 12
        ids = np.arange(n - 1)
        g = self.negative_weight_graph(n, ids, ids + 1, np.full(n - 1, -1))
        assert sssp(g, 0).tolist() == [-v for v in range(n)]

    def test_negative_cycle_at_the_end_of_a_long_chain_raises(self):
        # The cycle n-3 <-> n-2 is first reached in round n-3: detection
        # has to keep relaxing for the full |V| rounds to see it.
        n = 40
        src = list(range(n - 3)) + [n - 3, n - 2]
        dst = list(range(1, n - 2)) + [n - 2, n - 3]
        g = self.negative_weight_graph(n, src, dst, [1] * (n - 3) + [-2, -2])
        with pytest.raises(ValidationError, match="negative cycle"):
            sssp(g, 0)


class TestKCore:
    def build(self, seed=6):
        coo = rgg_graph(200, 7.0, seed=seed)
        g = DynamicGraph(coo.num_vertices, weighted=False, directed=False)
        keep = coo.src < coo.dst
        g.insert_edges(coo.src[keep], coo.dst[keep])
        G = nx.Graph()
        G.add_nodes_from(range(coo.num_vertices))
        G.add_edges_from(zip(coo.src.tolist(), coo.dst.tolist()))
        return g, G

    def test_matches_networkx(self):
        g, G = self.build()
        k = 4
        members = kcore_membership(g, k)
        assert set(np.flatnonzero(members).tolist()) == set(nx.k_core(G, k).nodes())

    def test_k1_keeps_exactly_the_non_isolated(self):
        g = DynamicGraph(5, weighted=False, directed=False)
        g.insert_edges([0], [1])
        assert kcore_membership(g, 1).tolist() == [True, True, False, False, False]
        assert g.num_edges() == 2  # membership never mutates the graph

    def test_bad_k(self):
        g, _ = self.build()
        with pytest.raises(ValidationError):
            kcore_membership(g, 0)
