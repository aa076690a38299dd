"""Tests for the paper's future-work extensions: vertex-id recycling,
SSSP, and k-core."""

import networkx as nx
import numpy as np
import pytest

from repro.core import DynamicGraph
from repro.analytics import kcore, sssp
from repro.core.id_reuse import VertexIdRecycler
from repro.datasets import rgg_graph
from repro.util.errors import ValidationError


class TestVertexIdRecycling:
    def test_requires_opt_in(self):
        g = DynamicGraph(8, weighted=False)
        with pytest.raises(ValidationError):
            g.allocate_vertex_ids(1)

    @pytest.mark.parametrize("n", [-1, 1.5, True, None])
    def test_bad_count_vends_and_activates_nothing(self, n):
        g = DynamicGraph(16, weighted=False, reuse_vertex_ids=True)
        g.insert_edges([1], [2])
        g.delete_vertices([2])
        version = g.mutation_version
        with pytest.raises(ValidationError):
            g.allocate_vertex_ids(n)
        assert g.num_active_vertices() == 1
        assert g.mutation_version == version
        g._dict.check_invariants()
        assert g.allocate_vertex_ids(0).size == 0
        assert g.allocate_vertex_ids(2.0).tolist() == [2, 0]  # queue intact, then fresh

    def test_deleted_ids_recycled(self):
        g = DynamicGraph(32, weighted=False, directed=False, reuse_vertex_ids=True)
        g.insert_edges([1, 2, 3], [4, 5, 6])
        g.delete_vertices([2, 3])
        ids = g.allocate_vertex_ids(2)
        assert set(ids.tolist()) == {2, 3}

    def test_lifo_order(self):
        g = DynamicGraph(32, weighted=False, directed=False, reuse_vertex_ids=True)
        g.insert_edges([1, 2], [5, 6])
        g.delete_vertices([1])
        g.delete_vertices([2])
        assert g.allocate_vertex_ids(1).tolist() == [2]  # most recent first

    def test_never_active_ids_not_recycled(self):
        """Deleting an id that never participated must not feed the queue."""
        g = DynamicGraph(32, weighted=False, directed=False, reuse_vertex_ids=True)
        g.insert_edges([1], [2])
        g.delete_vertices([7, 9])  # 7 and 9 were never active
        assert len(g._recycler) == 0
        ids = g.allocate_vertex_ids(1)
        assert ids.tolist() != [9] and ids.tolist() != [7]

    def test_double_delete_queues_id_once(self):
        g = DynamicGraph(32, weighted=False, directed=False, reuse_vertex_ids=True)
        g.insert_edges([1, 2], [5, 6])
        g.delete_vertices([1])
        g.delete_vertices([1])  # second delete of a dead id is a no-op
        assert len(g._recycler) == 1
        g.delete_vertices([1, 1, 2])  # intra-batch duplicate of a dead id
        assert len(g._recycler) == 2

    def test_mixed_batch_queues_only_deactivated(self):
        g = DynamicGraph(32, weighted=False, directed=False, reuse_vertex_ids=True)
        g.insert_edges([1, 2], [5, 6])
        g.delete_vertices([1, 20])  # 1 active, 20 never active
        assert len(g._recycler) == 1
        assert g.allocate_vertex_ids(1).tolist() == [1]

    def test_fresh_ids_when_queue_empty(self):
        g = DynamicGraph(4, weighted=False, reuse_vertex_ids=True)
        g.insert_edges([0, 1], [1, 2])
        ids = g.allocate_vertex_ids(2)
        assert len(set(ids.tolist())) == 2
        assert not any(i in (0, 1, 2) for i in ids.tolist())

    def test_capacity_grows_when_exhausted(self):
        g = DynamicGraph(2, weighted=False, reuse_vertex_ids=True)
        g.insert_edges([0], [1])
        ids = g.allocate_vertex_ids(5)
        assert len(set(ids.tolist())) == 5
        assert g.vertex_capacity >= int(ids.max()) + 1

    def test_reactivated_id_not_vended(self):
        g = DynamicGraph(16, weighted=False, directed=False, reuse_vertex_ids=True)
        g.insert_edges([3], [4])
        g.delete_vertices([3])
        # Id 3 comes back into use directly before allocation.
        g.insert_edges([3], [5])
        ids = g.allocate_vertex_ids(1)
        assert 3 not in ids.tolist()

    def test_recycled_id_memory_reused(self):
        """Reusing an id reuses its retained base slabs: allocator traffic
        stays flat (faimGraph's memory-efficiency argument)."""
        g = DynamicGraph(16, weighted=False, directed=False, reuse_vertex_ids=True)
        g.insert_edges([2], [3])
        slabs_before = g._dict.arena.pool.num_allocated
        g.delete_vertices([2])
        vid = int(g.allocate_vertex_ids(1)[0])
        assert vid == 2
        # Reconnect the recycled id to an existing vertex: both tables'
        # base slabs already exist, so no new allocation happens.
        g.insert_edges([vid], [3])
        assert g._dict.arena.pool.num_allocated == slabs_before

    def test_recycler_unit(self):
        r = VertexIdRecycler()
        assert r.push(np.array([1, 2, 2])) == 2  # duplicate ignored
        assert len(r) == 2
        assert r.pop(5).size == 2
        assert r.pop(1).size == 0
        r.push(np.array([7]))
        r.discard(np.array([7]))
        assert len(r) == 0


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
        for v in range(g.vertex_capacity):
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

    def test_max_rounds_truncation_does_not_raise(self):
        g = self.negative_weight_graph(4, [0, 1, 2], [1, 2, 1], [1, -2, -2])
        dist = sssp(g, 0, max_rounds=2)
        assert dist[0] == 0  # truncated lower bounds, no cycle check


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
        kcore(g, k)
        out = g.export_coo()
        mine = {(min(a, b), max(a, b)) for a, b in zip(out.src.tolist(), out.dst.tolist())}
        theirs = {(min(a, b), max(a, b)) for a, b in nx.k_core(G, k).edges()}
        assert mine == theirs

    def test_bad_k(self):
        g, _ = self.build()
        with pytest.raises(ValidationError):
            kcore(g, 0)

    def test_k1_removes_isolated_only(self):
        g = DynamicGraph(5, weighted=False, directed=False)
        g.insert_edges([0], [1])
        deleted = kcore(g, 1)
        assert deleted == 0  # no isolated *active* vertices
        assert g.num_edges() == 2
