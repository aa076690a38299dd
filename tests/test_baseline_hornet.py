"""Tests for the Hornet-like baseline."""

import numpy as np
import pytest

from repro.baselines.hornet import HornetGraph, _next_pow2
from repro.coo import COO
from repro.gpusim.counters import counting
from repro.util.errors import ValidationError
from tests.conftest import structure_state


def test_next_pow2():
    out = _next_pow2(np.array([1, 2, 3, 4, 5, 17, 1024]))
    assert out.tolist() == [1, 2, 4, 4, 8, 32, 1024]


class TestBulkBuild:
    def test_dedup_and_self_loops(self):
        coo = COO([0, 0, 0, 1], [1, 1, 0, 1], num_vertices=3, weights=[5, 7, 9, 1])
        g = HornetGraph(3)
        assert g.bulk_build(coo) == 1  # (0,1) once; self loops dropped
        assert structure_state(g) == {(0, 1): 7}  # last weight wins

    def test_block_capacity_is_pow2(self, rng):
        coo = COO(rng.integers(0, 20, 300), rng.integers(0, 20, 300), 20)
        g = HornetGraph(20)
        g.bulk_build(coo)
        caps = g.block_cap[g.block_cap > 0]
        assert np.all((caps & (caps - 1)) == 0)
        assert np.all(g.degree(np.arange(g.num_vertices)) <= g.block_cap)

    def test_requires_empty(self, rng):
        g = HornetGraph(4)
        g.insert_edges([0], [1])
        with pytest.raises(ValidationError):
            g.bulk_build(COO([0], [1], 4))


class TestUpdates:
    def test_insert_dedup_within_and_across(self):
        g = HornetGraph(4)
        assert g.insert_edges([0, 0], [1, 1], weights=[3, 4]) == 1
        assert g.insert_edges([0], [1], weights=[9]) == 0
        assert structure_state(g) == {(0, 1): 9}

    def test_insert_charges_sort(self):
        g = HornetGraph(16)
        with counting() as delta:
            g.insert_edges(np.arange(8), (np.arange(8) + 1) % 16)
        assert delta["sorted_elements"] > 0  # sort-based dedup

    def test_block_growth_copies(self):
        g = HornetGraph(4)
        g.insert_edges([0], [1])
        with counting() as delta:
            g.insert_edges([0, 0], [2, 3])  # 1 -> cap 4? grows past pow2(1)
        # Growing from capacity 1 to 4 copies the old adjacency.
        assert delta["bytes_copied"] > 0
        assert g.degree([0])[0] == 3

    def test_block_reuse_after_growth(self):
        g = HornetGraph(4)
        g.insert_edges([0], [1])
        g.insert_edges([0], [2])  # grow: frees the 1-block
        g.insert_edges([1], [0])  # should reuse the freed 1-block
        assert g.block_off[1] != -1

    def test_delete_compacts(self, rng):
        g = HornetGraph(10)
        g.insert_edges(np.zeros(6, np.int64), np.arange(1, 7), weights=np.arange(6))
        assert g.delete_edges([0, 0], [3, 9]) == 1
        assert g.degree([0])[0] == 5
        d, w = g.neighbors(0)
        assert sorted(d.tolist()) == [1, 2, 4, 5, 6]
        # Weight association preserved through compaction.
        got = dict(zip(d.tolist(), w.tolist()))
        assert got[1] == 0 and got[6] == 5

    def test_edge_exists_scans(self, rng):
        g = HornetGraph(10)
        g.insert_edges([2, 2], [3, 5])
        with counting() as delta:
            ex = g.edge_exists([2, 2, 4], [3, 4, 2])
        assert ex.tolist() == [True, False, False]
        assert delta["scanned_elements"] > 0

    def test_vertex_deletion_unsupported(self):
        g = HornetGraph(4)
        with pytest.raises(NotImplementedError):
            g.delete_vertices([0])

    def test_randomized_vs_model(self, rng, dict_graph):
        n = 100
        g = HornetGraph(n)
        for _ in range(10):
            m = int(rng.integers(20, 300))
            src, dst = rng.integers(0, n, m), rng.integers(0, n, m)
            w = rng.integers(0, 50, m)
            assert g.insert_edges(src, dst, w) == dict_graph.insert(src, dst, w)
            k = int(rng.integers(10, 150))
            ds, dd = rng.integers(0, n, k), rng.integers(0, n, k)
            assert g.delete_edges(ds, dd) == dict_graph.delete(ds, dd)
        assert structure_state(g) == dict_graph.edges()
        assert g.num_edges() == dict_graph.num_edges()

    def test_sorted_adjacency(self, rng):
        n = 30
        g = HornetGraph(n)
        g.insert_edges(rng.integers(0, n, 200), rng.integers(0, n, 200))
        row_ptr, col = g.sorted_adjacency()
        for v in range(n):
            seg = col[row_ptr[v] : row_ptr[v + 1]]
            assert np.all(np.diff(seg) > 0)  # strictly sorted (unique)
        assert row_ptr[-1] == g.num_edges()
