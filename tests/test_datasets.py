"""Dataset generators: determinism, symmetry, and Table I degree shapes."""

import numpy as np
import pytest

from repro.datasets import (
    DATASETS,
    delaunay_graph,
    load,
    mesh_like_graph,
    powerlaw_graph,
    rgg_graph,
    rmat_graph,
    road_graph,
)
from repro.datasets.registry import DATASET_ORDER
from repro.util.errors import ValidationError


def is_symmetric(coo):
    fwd = set(zip(coo.src.tolist(), coo.dst.tolist()))
    return all((d, s) in fwd for s, d in fwd)


def no_dups_no_loops(coo):
    pairs = list(zip(coo.src.tolist(), coo.dst.tolist()))
    return len(pairs) == len(set(pairs)) and all(s != d for s, d in pairs)


GENERATORS = {
    "road": lambda seed: road_graph(900, seed=seed),
    "delaunay": lambda seed: delaunay_graph(500, seed=seed),
    "rgg": lambda seed: rgg_graph(500, 10.0, seed=seed),
    "powerlaw": lambda seed: powerlaw_graph(500, 8.0, seed=seed),
    "mesh": lambda seed: mesh_like_graph(300, 20.0, seed=seed),
}


@pytest.mark.parametrize("family", sorted(GENERATORS))
class TestGeneratorContracts:
    def test_deterministic(self, family):
        a = GENERATORS[family](7)
        b = GENERATORS[family](7)
        assert np.array_equal(a.src, b.src) and np.array_equal(a.dst, b.dst)

    def test_seed_sensitivity(self, family):
        a = GENERATORS[family](1)
        b = GENERATORS[family](2)
        assert a.num_edges != b.num_edges or not np.array_equal(a.src, b.src)

    def test_symmetric_simple(self, family):
        coo = GENERATORS[family](3)
        assert is_symmetric(coo)
        assert no_dups_no_loops(coo)


class TestDegreeShapes:
    def test_road_low_degree(self):
        st = road_graph(2000, seed=0).degree_stats()
        assert 1.8 < st["mean"] < 2.8
        assert st["max"] <= 10

    def test_delaunay_mean_six(self):
        st = delaunay_graph(2000, seed=0).degree_stats()
        assert 5.5 < st["mean"] < 6.1
        assert st["min"] >= 3

    def test_rgg_target_mean(self):
        st = rgg_graph(3000, 13.0, seed=0).degree_stats()
        assert 10.0 < st["mean"] < 16.0

    def test_powerlaw_heavy_tail(self):
        st = powerlaw_graph(3000, 15.0, 2.1, seed=0).degree_stats()
        assert st["max"] > 8 * st["mean"]  # heavy tail
        assert st["std"] > st["mean"]

    def test_mesh_low_variance(self):
        st = mesh_like_graph(2000, 48.0, seed=0).degree_stats()
        assert 40 < st["mean"] < 56
        assert st["std"] < 0.35 * st["mean"]


class TestRmat:
    def test_size(self):
        coo = rmat_graph(8, 4.0, seed=1)
        assert coo.num_vertices == 256
        assert coo.num_edges == 1024

    def test_deterministic(self):
        a = rmat_graph(8, 4.0, seed=5)
        b = rmat_graph(8, 4.0, seed=5)
        assert np.array_equal(a.src, b.src) and np.array_equal(a.dst, b.dst)

    def test_skewed_degrees(self):
        st = rmat_graph(12, 8.0, seed=0).degree_stats()
        assert st["max"] > 10 * st["mean"]  # RMAT hubs

    def test_uniform_probabilities_flatten(self):
        """Equal quadrant probabilities give an Erdős–Rényi-like graph."""
        st = rmat_graph(12, 8.0, a=0.25, b=0.25, c=0.25, seed=0).degree_stats()
        assert st["max"] < 5 * st["mean"]

    def test_deduplicate_option(self):
        coo = rmat_graph(6, 32.0, seed=0, deduplicate=True)
        pairs = set(zip(coo.src.tolist(), coo.dst.tolist()))
        assert len(pairs) == coo.num_edges

    def test_bad_scale(self):
        with pytest.raises(ValidationError):
            rmat_graph(0)

    def test_bad_probabilities(self):
        with pytest.raises(ValidationError):
            rmat_graph(4, a=0.8, b=0.3, c=0.3)


class TestRegistry:
    def test_all_twelve_present(self):
        assert len(DATASET_ORDER) == 12
        assert set(DATASET_ORDER) == set(DATASETS)

    def test_load_by_name(self):
        coo = load("luxembourg_osm")
        assert coo.num_edges > 0

    def test_unknown_name(self):
        with pytest.raises(ValidationError):
            load("not-a-dataset")

    def test_specs_have_paper_sizes(self):
        for spec in DATASETS.values():
            assert spec.paper_vertices > 0
            assert spec.paper_edges > spec.paper_vertices

    @pytest.mark.parametrize("name", DATASET_ORDER)
    def test_scaled_family_shapes(self, name):
        """Every scaled dataset keeps its family's degree signature."""
        coo = load(name)
        st = coo.degree_stats()
        spec = DATASETS[name]
        if spec.family == "road":
            assert st["mean"] < 3.5
        elif spec.family == "delaunay":
            assert 5 < st["mean"] < 7
        elif spec.family == "rgg":
            assert 10 < st["mean"] < 20
        elif spec.family == "mesh":
            assert st["std"] < 0.3 * st["mean"]
        elif spec.family == "social":
            assert st["max"] > 5 * st["mean"]
        assert is_symmetric(coo)
