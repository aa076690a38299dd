"""Invariant tests for the incrementally maintained aggregate counters.

The hot-path rework made ``num_edges()`` an O(1) read of a counter that
every mutation updates incrementally (scatter-adds over the batch, never a
capacity-sized scan).  These tests hammer the mutation API with randomized
workloads and verify the incremental aggregate always equals the
ground-truth full-array sum.
"""

import numpy as np
import pytest

from repro.core import DynamicGraph
from repro.core.vertex_dict import VertexDictionary
from repro.gpusim.wcws import delete_vertices_reference, insert_edges_reference


def assert_aggregates_exact(g: DynamicGraph):
    """The incremental counters must equal the full-array ground truth."""
    vd = g._dict
    assert g.num_edges() == int(vd.edge_count.sum())
    vd.check_invariants()  # the library's own debug check agrees


@pytest.mark.parametrize("directed", [True, False])
def test_randomized_workload_keeps_aggregates_exact(rng, directed):
    n = 120
    g = DynamicGraph(num_vertices=n, weighted=False, directed=directed)
    g._dict.debug_invariants = True  # re-verify after every mutation
    for step in range(12):
        src = rng.integers(0, n, 90)
        dst = rng.integers(0, n, 90)
        g.insert_edges(src, dst)
        assert_aggregates_exact(g)
        g.delete_edges(rng.integers(0, n, 40), rng.integers(0, n, 40))
        assert_aggregates_exact(g)
        if step % 3 == 0:
            g.delete_vertices(rng.choice(n, size=5, replace=False))
            assert_aggregates_exact(g)


def test_aggregates_survive_capacity_growth(rng):
    g = DynamicGraph(num_vertices=8, weighted=False)
    g.insert_edges([0, 1, 2], [1, 2, 3])
    before_edges = g.num_edges()
    g.insert_vertices([500])  # forces dictionary doubling
    assert g.num_vertices >= 501
    assert g.num_edges() == before_edges
    assert_aggregates_exact(g)


def test_aggregates_exact_under_wcws_reference_engine(rng):
    """The scalar Algorithm 1/2 reference path maintains the same counters."""
    n = 48
    g = DynamicGraph(num_vertices=n, weighted=True, directed=False)
    g._dict.debug_invariants = True
    src = rng.integers(0, n, 64)
    dst = rng.integers(0, n, 64)
    w = rng.integers(0, 100, 64)
    both_s = np.concatenate([src, dst])
    both_d = np.concatenate([dst, src])
    insert_edges_reference(g, both_s, both_d, np.concatenate([w, w]))
    assert_aggregates_exact(g)
    delete_vertices_reference(g, np.array([3, 9, 11]))
    assert_aggregates_exact(g)


def test_duplicate_heavy_batches(rng):
    """Duplicates within a batch must not double-credit any counter."""
    g = DynamicGraph(num_vertices=16, weighted=True)
    g._dict.debug_invariants = True
    src = np.array([1, 1, 1, 2, 2, 1])
    dst = np.array([2, 2, 2, 3, 3, 2])
    added = g.insert_edges(src, dst, weights=[1, 2, 3, 4, 5, 6])
    assert added == 2  # (1,2) once, (2,3) once
    assert g.num_edges() == 2
    removed = g.delete_edges([1, 1, 2], [2, 2, 3])
    assert removed == 2  # only one delete of a pair succeeds
    assert g.num_edges() == 0
    assert_aggregates_exact(g)


def test_zero_edge_counts_collapses_duplicates():
    vd = VertexDictionary(8, weighted=False)
    vd.add_edge_counts(np.array([3, 3, 5]))
    dropped = vd.zero_edge_counts(np.array([3, 3, 5, 5]))
    assert dropped == 3
    assert vd.total_edges() == 0
    vd.check_invariants()


def test_activate_grows_and_registers_each_id_once():
    """``activate`` is vertex registration (Section IV-D1): grow the
    dictionary, then one table per id lacking one; counters untouched."""
    vd = VertexDictionary(4, weighted=False)
    vd.debug_invariants = True
    vd.activate(np.array([9, 2, 9]))
    assert vd.capacity == 16
    assert vd.arena.table_buckets[[2, 9]].tolist() == [1, 1]
    assert np.flatnonzero(vd.arena.table_base != -1).tolist() == [2, 9]
    vd.activate(np.array([2, 5]), expected_degree=np.array([900, 900]))
    assert vd.arena.table_buckets[2] == 1  # already had a table: not resized
    assert vd.arena.table_buckets[5] > 1
    assert vd.capacity == 16
    assert vd.total_edges() == 0


def test_debug_mode_catches_desync():
    """The debug invariant actually fires when counters are corrupted."""
    vd = VertexDictionary(8, weighted=False)
    vd.debug_invariants = True
    vd.edge_count[0] = 5  # illegal direct write desyncs the aggregate
    with pytest.raises(AssertionError):
        vd.add_edge_counts(np.array([1]))
