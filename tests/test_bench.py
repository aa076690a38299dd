"""Tests for the bench harness, workloads, and (smoke) table/figure engines."""

import numpy as np
import pytest

from repro.bench.figures import figure2_sweep, figure3_sweep
from repro.bench.harness import format_table, mean, time_call
from repro.bench.workloads import (
    STRUCTURES,
    bulk_built_structure,
    make_structure,
    random_edge_batch,
    random_vertex_batch,
)
from repro.coo import COO
from repro.util.errors import ValidationError


class TestWorkloads:
    def test_random_edge_batch(self):
        src, dst, w = random_edge_batch(100, 50, seed=1)
        assert src.shape == dst.shape == (50,)
        assert w is None
        assert src.max() < 100

    def test_random_edge_batch_weighted(self):
        _, _, w = random_edge_batch(100, 50, seed=1, weighted=True)
        assert w is not None and w.shape == (50,)

    def test_batch_deterministic(self):
        a = random_edge_batch(100, 50, seed=9)
        b = random_edge_batch(100, 50, seed=9)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_vertex_batch_distinct(self):
        vids = random_vertex_batch(100, 64, seed=2)
        assert np.unique(vids).size == vids.size

    def test_vertex_batch_capped(self):
        assert random_vertex_batch(10, 100, seed=0).size == 10

    def test_make_structure_all(self):
        for name in STRUCTURES:
            g = make_structure(name, 16)
            assert g.num_edges() == 0 if callable(getattr(g, "num_edges", None)) else True

    def test_make_structure_unknown(self):
        with pytest.raises(ValidationError):
            make_structure("no-such-backend", 16)

    def test_make_structure_btree_registered(self):
        # The registry opened the factory to every backend, btree included.
        g = make_structure("btree", 16)
        assert g.num_edges() == 0

    def test_bulk_built_structure(self, rng):
        coo = COO(rng.integers(0, 30, 100), rng.integers(0, 30, 100), 30)
        for name in STRUCTURES:
            g = bulk_built_structure(name, coo)
            assert g.num_edges() > 0


class TestHarness:
    def test_time_call_returns_result(self):
        rec, out = time_call("lbl", lambda a, b: a + b, 2, 3, items=10)
        assert out == 5
        assert rec.label == "lbl" and rec.items == 10
        assert not any(rec.counters.values()) and rec.model_seconds == 0

    def test_counters_captured(self):
        g = make_structure("ours", 16, weighted=False)
        rec, _ = time_call("ins", g.insert_edges, [0, 1], [1, 2], items=2)
        assert rec.counters.get("slab_writes", 0) > 0
        assert rec.model_seconds > 0
        assert rec.throughput_m > 0

    def test_mean(self):
        assert mean([1.0, 3.0]) == 2.0
        assert mean([]) == 0.0

    def test_format_table(self):
        text = format_table("T", ["a", "b"], [[1, 2.5], ["x", None]])
        assert "T" in text and "2.50" in text and "—" in text


class TestFigureSweeps:
    @pytest.fixture(scope="class")
    def fig2_points(self):
        import repro.bench.figures as F

        # Tiny smoke sweep: one edge factor, three load factors.
        old_ef, old_lf = F.EDGE_FACTORS, F.LOAD_FACTORS
        F.EDGE_FACTORS, F.LOAD_FACTORS = [16], [0.3, 1.0, 5.0]
        try:
            yield figure2_sweep(scale=8, seed=0)
        finally:
            F.EDGE_FACTORS, F.LOAD_FACTORS = old_ef, old_lf

    def test_fig2_utilization_rises_with_load(self, fig2_points):
        utils = [p.memory_utilization for p in fig2_points]
        assert utils == sorted(utils)

    def test_fig2_memory_falls_with_load(self, fig2_points):
        mems = [p.memory_mb for p in fig2_points]
        assert mems == sorted(mems, reverse=True)

    def test_fig2_chain_length_tracks_load_factor(self, fig2_points):
        chains = [p.mean_chain_length for p in fig2_points]
        assert chains == sorted(chains)

    def test_fig3_tc_time_rises_at_high_load(self):
        import repro.bench.figures as F

        old_ef, old_lf = F.TC_EDGE_FACTORS, F.LOAD_FACTORS
        F.TC_EDGE_FACTORS, F.LOAD_FACTORS = [16], [0.7, 5.0]
        try:
            pts = figure3_sweep(scale=8, seed=0)
        finally:
            F.TC_EDGE_FACTORS, F.LOAD_FACTORS = old_ef, old_lf
        assert pts[1].tc_seconds > pts[0].tc_seconds
