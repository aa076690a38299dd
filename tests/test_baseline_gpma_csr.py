"""Tests for the GPMA baseline and the sorting cost models."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.gpma import GPMAGraph
from repro.baselines.sorting import segmented_sort_csr
from repro.coo import COO
from repro.gpusim.counters import counting
from tests.conftest import structure_edges


class TestGPMA:
    def test_insert_search_delete(self):
        g = GPMAGraph(16)
        assert g.insert_edges([0, 0, 1], [1, 2, 0]) == 3
        assert g.edge_exists([0, 0, 1, 2], [1, 2, 0, 0]).tolist() == [
            True,
            True,
            True,
            False,
        ]
        assert g.delete_edges([0], [1]) == 1
        assert g.num_edges() == 2

    def test_pma_stays_sorted(self, rng):
        g = GPMAGraph(64)
        for _ in range(10):
            g.insert_edges(rng.integers(0, 64, 200), rng.integers(0, 64, 200))
            g.delete_edges(rng.integers(0, 64, 80), rng.integers(0, 64, 80))
            live = g._live()
            assert np.all(np.diff(live) > 0)  # strictly sorted, unique

    def test_density_bounds(self, rng):
        g = GPMAGraph(64)
        for _ in range(15):
            g.insert_edges(rng.integers(0, 64, 300), rng.integers(0, 64, 300))
        assert g.density() <= 0.92
        # Heavy deletion shrinks the array.
        coo = g.export_coo()
        g.delete_edges(coo.src[:-5], coo.dst[:-5])
        assert g.density() > 0.05

    def test_capacity_doubles_on_overflow(self):
        g = GPMAGraph(4096, segment_size=32)
        cap0 = g.capacity
        g.insert_edges(np.repeat(np.arange(200), 10), np.tile(np.arange(10) + 300, 200) % 4096)
        assert g.capacity > cap0

    def test_randomized_vs_model(self, rng, dict_graph):
        n = 80
        g = GPMAGraph(n)
        for _ in range(10):
            m = int(rng.integers(20, 300))
            src, dst = rng.integers(0, n, m), rng.integers(0, n, m)
            assert g.insert_edges(src, dst) == dict_graph.insert(src, dst)
            k = int(rng.integers(10, 150))
            ds, dd = rng.integers(0, n, k), rng.integers(0, n, k)
            assert g.delete_edges(ds, dd) == dict_graph.delete(ds, dd)
        assert structure_edges(g) == dict_graph.edge_set()
        assert g.num_edges() == dict_graph.num_edges()

    def test_degrees_tracked(self, rng):
        g = GPMAGraph(32)
        g.insert_edges([3, 3, 3, 5], [1, 2, 4, 3])
        assert g.degree([3])[0] == 3 and g.degree([5])[0] == 1
        g.delete_edges([3], [2])
        assert g.degree([3])[0] == 2

    def test_neighbors_sorted(self):
        g = GPMAGraph(16)
        g.insert_edges([2, 2, 2], [9, 1, 5])
        d, _ = g.neighbors(2)
        assert d.tolist() == [1, 5, 9]

    def test_queries_charge_a_binary_search(self):
        g = GPMAGraph(16)
        g.insert_edges(np.arange(10), np.arange(10) + 5)  # 10 live keys: 4 steps
        with counting() as charges:
            g.edge_exists([0, 1, 2], [5, 6, 0])
        charged = {name: n for name, n in charges.items() if n}
        assert charged == {"kernel_launches": 1, "sorted_probes": 3 * 4}
        with counting() as charges:
            g.degree([0, 1])
        assert not any(charges.values())

    def test_a_scenario_query_phase_models_time(self):
        from repro.stream import insert_heavy_scenario, run_scenario

        result = run_scenario(insert_heavy_scenario(1 << 10, batch=64, rounds=2), "gpma")
        queries = [p for p in result.phases if p.kind == "query"]
        assert queries and all(p.model_seconds > 0 for p in queries)

    def test_sorted_adjacency_free(self):
        g = GPMAGraph(16)
        g.insert_edges([0, 1, 0], [1, 2, 3])
        row_ptr, col = g.sorted_adjacency()
        assert row_ptr.tolist()[:3] == [0, 2, 3]
        assert col[:2].tolist() == [1, 3]

    @given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)), max_size=150))
    @settings(max_examples=40, deadline=None)
    def test_property_vs_set(self, pairs):
        g = GPMAGraph(31)
        ref = set()
        if pairs:
            src = np.array([p[0] for p in pairs])
            dst = np.array([p[1] for p in pairs])
            g.insert_edges(src, dst)
            ref = {(s, d) for s, d in pairs if s != d}
        assert structure_edges(g) == ref


class TestSegmentedSort:
    def test_sorts_each_row(self, rng):
        row_ptr = np.array([0, 3, 3, 7])
        col = np.array([5, 1, 3, 9, 2, 8, 0])
        out = segmented_sort_csr(row_ptr, col)
        assert out.tolist() == [1, 3, 5, 0, 2, 8, 9]
        assert col.tolist() == [5, 1, 3, 9, 2, 8, 0]  # input untouched

    def test_charges_per_segment(self):
        row_ptr = np.arange(0, 101)  # 100 rows of one element
        col = np.arange(100)
        with counting() as delta:
            segmented_sort_csr(row_ptr, col)
        assert delta["sort_segments"] == 100
