"""Semantic tests for the public DynamicGraph API."""

import numpy as np
import pytest

from repro import COO
from repro.core import DynamicGraph
from repro.util.errors import ValidationError
from tests.conftest import structure_edges, structure_state


class TestBasics:
    def test_insert_and_query(self):
        g = DynamicGraph(num_vertices=10)
        assert g.insert_edges([0, 1], [1, 2], weights=[10, 20]) == 2
        assert g.edge_exists([0, 1, 2], [1, 2, 0]).tolist() == [True, True, False]
        found, w = g.edge_weights([0], [1])
        assert found[0] and w[0] == 10

    def test_self_loops_dropped(self):
        g = DynamicGraph(num_vertices=4)
        assert g.insert_edges([1, 2], [1, 3]) == 1
        assert g.num_edges() == 1
        assert not g.edge_exists([1], [1])[0]

    def test_replace_updates_weight_not_count(self):
        g = DynamicGraph(num_vertices=4)
        g.insert_edges([0], [1], weights=[5])
        assert g.insert_edges([0], [1], weights=[9]) == 0
        assert g.num_edges() == 1
        _, w = g.edge_weights([0], [1])
        assert w[0] == 9

    def test_delete(self):
        g = DynamicGraph(num_vertices=4)
        g.insert_edges([0, 0], [1, 2])
        assert g.delete_edges([0, 0], [1, 3]) == 1
        assert g.num_edges() == 1
        assert not g.edge_exists([0], [1])[0]

    def test_degree_counters_exact(self):
        g = DynamicGraph(num_vertices=6)
        g.insert_edges([0, 0, 0, 1], [1, 2, 2, 0], weights=[1, 2, 3, 4])
        assert g.degree([0, 1, 2]).tolist() == [2, 1, 0]
        g.delete_edges([0], [2])
        assert g.degree([0]).tolist() == [1]

    def test_degree_negative_id_rejected(self):
        """-1 must raise, not silently wrap to the last dictionary slot."""
        g = DynamicGraph(num_vertices=6)
        g.insert_edges([5], [0], weights=[1])
        with pytest.raises(ValidationError):
            g.degree([-1])

    def test_degree_out_of_range_rejected(self):
        g = DynamicGraph(num_vertices=6)
        with pytest.raises(ValidationError):
            g.degree([6])
        with pytest.raises(ValidationError):
            g.degree(np.array([0, 2, 99]))

    def test_neighbors(self):
        g = DynamicGraph(num_vertices=5)
        g.insert_edges([2, 2, 2], [0, 1, 4], weights=[7, 8, 9])
        dst, w = g.neighbors(2)
        assert dict(zip(dst.tolist(), w.tolist())) == {0: 7, 1: 8, 4: 9}

    def test_adjacencies_batched(self):
        g = DynamicGraph(num_vertices=5, weighted=False)
        g.insert_edges([0, 0, 3], [1, 2, 4])
        owners, dst, _ = g.adjacencies([0, 3])
        got = sorted(zip(owners.tolist(), dst.tolist()))
        assert got == [(0, 1), (0, 2), (1, 4)]

    def test_export_coo_roundtrip(self):
        g = DynamicGraph(num_vertices=8)
        g.insert_edges([0, 1, 5], [3, 2, 7], weights=[1, 2, 3])
        coo = g.export_coo()
        g2 = DynamicGraph(num_vertices=8)
        g2.bulk_build(coo)
        assert structure_state(g2) == structure_state(g)

    def test_repr(self):
        g = DynamicGraph(num_vertices=3)
        assert "DynamicGraph" in repr(g)


class TestUndirected:
    def test_mirrored_insert(self):
        g = DynamicGraph(num_vertices=4, directed=False)
        assert g.insert_edges([0], [1], weights=[5]) == 2
        assert g.edge_exists([0, 1], [1, 0]).tolist() == [True, True]

    def test_mirrored_delete(self):
        g = DynamicGraph(num_vertices=4, directed=False)
        g.insert_edges([0], [1])
        assert g.delete_edges([1], [0]) == 2
        assert g.num_edges() == 0


class TestValidation:
    def test_out_of_range_src(self):
        g = DynamicGraph(num_vertices=4)
        with pytest.raises(ValidationError):
            g.insert_edges([4], [0])

    def test_out_of_range_dst(self):
        g = DynamicGraph(num_vertices=4)
        with pytest.raises(ValidationError):
            g.insert_edges([0], [9])

    def test_bad_load_factor(self):
        with pytest.raises(ValidationError):
            DynamicGraph(num_vertices=4, load_factor=0.0)
        with pytest.raises(ValidationError):
            DynamicGraph(num_vertices=4, load_factor=100.0)

    def test_empty_batches_ok(self):
        g = DynamicGraph(num_vertices=4)
        assert g.insert_edges([], []) == 0
        assert g.delete_edges([], []) == 0
        assert g.edge_exists([], []).size == 0


class TestRandomizedVsModel:
    def test_mixed_workload(self, rng, dict_graph):
        n = 120
        g = DynamicGraph(num_vertices=n)
        for _ in range(12):
            m = int(rng.integers(10, 400))
            src = rng.integers(0, n, m)
            dst = rng.integers(0, n, m)
            w = rng.integers(0, 1000, m)
            added = g.insert_edges(src, dst, w)
            assert added == dict_graph.insert(src, dst, w)
            k = int(rng.integers(5, 200))
            ds = rng.integers(0, n, k)
            dd = rng.integers(0, n, k)
            removed = g.delete_edges(ds, dd)
            assert removed == dict_graph.delete(ds, dd)
            assert g.num_edges() == dict_graph.num_edges()
        assert structure_state(g) == dict_graph.edges()
        # Degree counters agree everywhere.
        for v in range(n):
            assert int(g.degree([v])[0]) == dict_graph.degree(v)

    def test_query_only_phase_does_not_mutate(self, rng):
        g = DynamicGraph(num_vertices=50, weighted=False)
        src = rng.integers(0, 50, 500)
        dst = rng.integers(0, 50, 500)
        g.insert_edges(src, dst)
        before = structure_edges(g)
        g.edge_exists(rng.integers(0, 50, 1000), rng.integers(0, 50, 1000))
        g.adjacencies(np.arange(50))
        _ = g.stats()
        assert structure_edges(g) == before


class TestStats:
    def test_stats_reflect_load_factor(self):
        coo = COO(np.zeros(90, np.int64), np.arange(1, 91), num_vertices=100)
        tight = DynamicGraph(num_vertices=100, weighted=False, load_factor=5.0)
        tight.bulk_build(coo)
        loose = DynamicGraph(num_vertices=100, weighted=False, load_factor=0.3)
        loose.bulk_build(coo)
        assert tight.stats().num_buckets < loose.stats().num_buckets
        assert tight.stats().memory_utilization > loose.stats().memory_utilization
        assert tight.memory_bytes() < loose.memory_bytes()

    def test_memory_bytes_positive_after_build(self):
        g = DynamicGraph(num_vertices=10)
        g.insert_edges([0], [1])
        assert g.memory_bytes() >= 128
