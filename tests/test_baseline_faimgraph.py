"""Tests for the faimGraph-like baseline (pages, compaction, reuse queues)."""

import numpy as np

from repro.baselines.faimgraph import FaimGraph
from repro.coo import COO
from repro.gpusim.counters import counting
from tests.conftest import structure_edges, structure_state


class TestDenseInvariant:
    def check_dense(self, g):
        """Every vertex's entries occupy positions 0..deg-1 of its chain."""
        for v in range(g.num_vertices):
            deg = int(g.degree([v])[0])
            owner, dsts, pages, lanes = g._gather(np.array([v]))
            assert dsts.size == deg
            if deg:
                assert np.all(dsts >= 0)

    def test_after_mixed_ops(self, rng):
        n = 60
        g = FaimGraph(n)
        for _ in range(8):
            m = int(rng.integers(20, 300))
            g.insert_edges(rng.integers(0, n, m), rng.integers(0, n, m))
            k = int(rng.integers(10, 150))
            g.delete_edges(rng.integers(0, n, k), rng.integers(0, n, k))
            self.check_dense(g)


class TestUpdates:
    def test_insert_full_scan_dedup(self):
        g = FaimGraph(8)
        assert g.insert_edges([0, 0, 0], [1, 1, 2]) == 2
        with counting() as delta:
            assert g.insert_edges([0], [1]) == 0
        assert delta["scanned_elements"] >= 2  # scanned the whole list

    def test_weight_replace(self):
        g = FaimGraph(8, weighted=True)
        g.insert_edges([0], [1], weights=[5])
        g.insert_edges([0], [1], weights=[9])
        assert structure_state(g) == {(0, 1): 9}

    def test_page_chain_growth(self):
        g = FaimGraph(8)
        dsts = np.arange(1, 8).tolist() * 10  # duplicates collapse
        g.insert_edges([0] * 31, list(range(1, 8)) * 4 + [1, 2, 3])
        # Force >30 distinct neighbors for a multi-page chain.
        g2 = FaimGraph(100)
        g2.insert_edges(np.zeros(90, np.int64), np.arange(1, 91))
        assert g2.degree([0])[0] == 90
        _, pages, _ = g2._collect_pages(np.array([0]))
        assert pages.size == 3  # ceil(90/30)

    def test_delete_compaction_frees_pages(self):
        g = FaimGraph(100)
        g.insert_edges(np.zeros(90, np.int64), np.arange(1, 91))
        with counting() as delta:
            g.delete_edges(np.zeros(70, np.int64), np.arange(1, 71))
        assert delta["slabs_freed"] >= 2  # 3 pages -> 1 page
        assert g.degree([0])[0] == 20
        d, _ = g.neighbors(0)
        assert sorted(d.tolist()) == list(range(71, 91))

    def test_page_queue_recycles(self):
        g = FaimGraph(100)
        g.insert_edges(np.zeros(90, np.int64), np.arange(1, 91))
        g.delete_edges(np.zeros(90, np.int64), np.arange(1, 91))
        bump = g._bump
        g.insert_edges(np.ones(60, np.int64), np.arange(2, 62))
        assert g._bump == bump  # reused freed pages

    def test_randomized_vs_model(self, rng, dict_graph):
        n = 90
        g = FaimGraph(n, weighted=True)
        for _ in range(10):
            m = int(rng.integers(20, 400))
            src, dst = rng.integers(0, n, m), rng.integers(0, n, m)
            w = rng.integers(0, 50, m)
            assert g.insert_edges(src, dst, w) == dict_graph.insert(src, dst, w)
            k = int(rng.integers(10, 200))
            ds, dd = rng.integers(0, n, k), rng.integers(0, n, k)
            assert g.delete_edges(ds, dd) == dict_graph.delete(ds, dd)
        assert structure_state(g) == dict_graph.edges()

    def test_bulk_build(self, rng):
        coo = COO(rng.integers(0, 40, 500), rng.integers(0, 40, 500), 40)
        g = FaimGraph(40)
        g.bulk_build(coo)
        ref = {(int(s), int(d)) for s, d in zip(coo.src, coo.dst) if s != d}
        assert structure_edges(g) == ref


class TestVertexOps:
    def test_delete_vertices_erases_incident_edges(self, rng):
        n = 50
        g = FaimGraph(n)
        src = rng.integers(0, n, 400)
        dst = rng.integers(0, n, 400)
        both_s = np.concatenate([src, dst])
        both_d = np.concatenate([dst, src])
        g.insert_edges(both_s, both_d)
        g.delete_vertices([4, 9])
        assert g.degree([4])[0] == 0 and g.degree([9])[0] == 0
        edges = structure_edges(g)
        assert not any(4 in e or 9 in e for e in edges)

    def test_vertex_queue_atomics_charged(self, rng):
        g = FaimGraph(20)
        g.insert_edges([0, 1], [1, 0])
        with counting() as delta:
            g.delete_vertices([0])
        assert delta["atomics"] >= 1


class TestSortedAdjacency:
    def test_page_sort_produces_sorted_rows(self, rng):
        n = 40
        g = FaimGraph(n)
        g.insert_edges(rng.integers(0, n, 2000), rng.integers(0, n, 2000))
        row_ptr, col = g.sorted_adjacency()
        assert row_ptr[-1] == g.num_edges()
        for v in range(n):
            seg = col[row_ptr[v] : row_ptr[v + 1]]
            assert np.all(np.diff(seg) > 0)

    def test_page_sort_cost_scales_with_chain(self, rng):
        """A high-degree vertex pays quadratically more sort passes —
        the Table VIII blow-up."""
        # Low: 10 vertices, one full page each (no padding distortion).
        low = FaimGraph(400)
        src = np.repeat(np.arange(10), 30)
        dst = (np.tile(np.arange(30), 10) + 10 + src * 7) % 400
        low.insert_edges(src, dst)
        low_edges = low.num_edges()
        with counting() as d_low:
            low.sorted_adjacency()
        # High: the same edge count concentrated in one 10-page chain.
        high = FaimGraph(400)
        high.insert_edges(np.zeros(399, np.int64), np.arange(1, 400))
        with counting() as d_high:
            high.sorted_adjacency()
        per_edge_low = d_low["faim_sort_elements"] / low_edges
        per_edge_high = d_high["faim_sort_elements"] / 399
        assert per_edge_high > 3 * per_edge_low
