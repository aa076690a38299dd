"""Tests for vertex insertion and deletion (Section IV-D, Algorithm 2)."""

import numpy as np
import pytest

from repro.core import DynamicGraph
from repro.gpusim.counters import counting
from repro.util.errors import ValidationError
from tests.conftest import structure_edges


class TestVertexInsertion:
    def test_grows_dictionary(self):
        g = DynamicGraph(num_vertices=4)
        g.insert_vertices([10, 11])
        assert g.num_vertices >= 12
        g.insert_edges([10], [11], weights=[1])
        assert g.edge_exists([10], [11])[0]

    def test_growth_preserves_existing_edges(self):
        g = DynamicGraph(num_vertices=4)
        g.insert_edges([0, 1], [1, 2], weights=[5, 6])
        before = structure_edges(g)
        g.insert_vertices([100])
        assert structure_edges(g) == before
        found, w = g.edge_weights([0], [1])
        assert found[0] and w[0] == 5

    def test_expected_degree_sizes_buckets(self):
        g = DynamicGraph(num_vertices=64, weighted=False)
        g.insert_vertices([1], expected_degree=[300])
        g.insert_vertices([2])  # no connectivity info: one bucket
        arena = g._dict.arena
        assert int(arena.table_buckets[1]) > 1
        assert int(arena.table_buckets[2]) == 1

    def test_duplicate_id_is_sized_by_its_first_occurrence(self):
        g = DynamicGraph(num_vertices=64, weighted=False)
        g.insert_vertices([5, 9, 5, 9, 3], expected_degree=[1, 900, 900, 1, 300])
        buckets = g._dict.arena.table_buckets
        lanes = g._dict.arena.pool.lane_capacity
        expect = g._dict.arena.buckets_for([300, 1, 900], g.load_factor, lanes)
        assert buckets[[3, 5, 9]].tolist() == expect.tolist()

    def test_expected_degree_length_mismatch_rejected(self):
        """Regression: escaped as IndexError('boolean index did not match')."""
        g = DynamicGraph(num_vertices=4)
        with pytest.raises(ValidationError, match=r"'vertex_ids': 3.*'expected_degree': 2"):
            g.insert_vertices([1, 2, 9], expected_degree=[4, 4])
        with pytest.raises(ValidationError, match="expected_degree"):
            g.insert_vertices([1], expected_degree=[4, 4])
        # Rejected before any mutation: no growth, no table.
        assert g.num_vertices == 4
        assert not g._dict.arena.has_table(np.array([1, 2])).any()

    def test_expected_degree_is_validated_like_every_other_id_array(self):
        """Behaviour change that rode along with the length fix: a fractional
        degree used to be truncated and a mismatch on an empty batch ignored."""
        g = DynamicGraph(num_vertices=64, weighted=False)
        with pytest.raises(ValidationError, match="expected_degree contains non-integral"):
            g.insert_vertices([1], expected_degree=[1.5])
        with pytest.raises(ValidationError, match=r"'vertex_ids': 0.*'expected_degree': 1"):
            g.insert_vertices([], expected_degree=[1])
        g.insert_vertices([1], expected_degree=[300.0])  # integral floats still pass
        assert int(g._dict.arena.table_buckets[1]) > 1

    def test_negative_vertex_rejected(self):
        """Must be ValidationError, consistent with every other mutation API."""
        g = DynamicGraph(num_vertices=4)
        with pytest.raises(ValidationError):
            g.insert_vertices([-1])
        with pytest.raises(ValidationError):
            g.insert_vertices([3, -7, 2])

    def test_empty_ok(self):
        g = DynamicGraph(num_vertices=4)
        g.insert_vertices([])


class TestVertexDeletionUndirected:
    def build(self, rng, n=80):
        g = DynamicGraph(num_vertices=n, directed=False, weighted=False)
        src = rng.integers(0, n, 600)
        dst = rng.integers(0, n, 600)
        g.insert_edges(src, dst)
        return g

    def test_deleted_vertex_has_no_edges(self, rng):
        g = self.build(rng)
        g.delete_vertices([3, 7])
        assert g.degree([3, 7]).tolist() == [0, 0]
        dst, _ = g.neighbors(3)
        assert dst.size == 0

    def test_no_false_positives_after_delete(self, rng):
        """Paper requirement: 'no edge query involving u may have a false
        positive result'."""
        g = self.build(rng)
        g.delete_vertices([5])
        n = g.num_vertices
        qs = np.concatenate([np.full(n, 5), np.arange(n)])
        qd = np.concatenate([np.arange(n), np.full(n, 5)])
        assert not g.edge_exists(qs, qd).any()

    def test_matches_reference_model(self, rng, dict_graph):
        n = 80
        g = DynamicGraph(num_vertices=n, directed=False, weighted=False)
        src = rng.integers(0, n, 600)
        dst = rng.integers(0, n, 600)
        g.insert_edges(src, dst)
        both_s = np.concatenate([src, dst])
        both_d = np.concatenate([dst, src])
        dict_graph.insert(both_s, both_d)
        doomed = [0, 13, 42, 79]
        removed = g.delete_vertices(doomed)
        expected_removed = dict_graph.delete_vertex_undirected(doomed)
        assert removed == expected_removed
        assert structure_edges(g) == dict_graph.edge_set()
        assert g.num_edges() == dict_graph.num_edges()

    def test_overflow_slabs_freed(self, rng):
        g = DynamicGraph(num_vertices=200, directed=False, weighted=False)
        # A hub with >30 neighbors overflows its single base slab.
        others = np.arange(1, 120, dtype=np.int64)
        g.insert_edges(np.zeros(others.size, np.int64), others)
        with counting() as delta:
            g.delete_vertices([0])
        assert delta["slabs_freed"] > 0

    def test_reinsert_after_delete(self, rng):
        g = self.build(rng)
        g.delete_vertices([2])
        assert g.insert_edges([2], [3]) == 2  # undirected: both directions
        assert g.edge_exists([2], [3])[0] and g.edge_exists([3], [2])[0]


class TestVertexDeletionDirected:
    def test_incoming_edges_also_removed(self, rng, dict_graph):
        n = 60
        g = DynamicGraph(num_vertices=n, weighted=False)
        src = rng.integers(0, n, 500)
        dst = rng.integers(0, n, 500)
        g.insert_edges(src, dst)
        dict_graph.insert(src, dst)
        doomed = [1, 30]
        g.delete_vertices(doomed)
        # Reference: drop rows and all references.
        for v in doomed:
            dict_graph.adj.pop(v, None)
        for row in dict_graph.adj.values():
            for v in doomed:
                row.pop(v, None)
        assert structure_edges(g) == dict_graph.edge_set()

    def test_out_of_range_rejected(self):
        g = DynamicGraph(num_vertices=4)
        with pytest.raises(ValidationError):
            g.delete_vertices([9])

    def test_empty_ok(self):
        g = DynamicGraph(num_vertices=4)
        assert g.delete_vertices([]) == 0


class TestVertexDeletionBatches:
    """What a deletion batch does with bad, dead, never-active or repeated
    ids, and what re-inserting a deleted id costs."""

    @staticmethod
    def build():
        g = DynamicGraph(num_vertices=32, directed=False, weighted=False)
        g.insert_edges([1, 2], [5, 6])
        return g

    @pytest.mark.parametrize(
        "batch",
        [[1, -1], [1, 1.5], [True], [1, None]],
        ids=["negative", "fractional", "bool", "none"],
    )
    def test_bad_id_deletes_nothing(self, batch):
        g = self.build()
        before = structure_edges(g)
        version = g.mutation_version
        with pytest.raises(ValidationError, match="vertex_ids"):
            g.delete_vertices(batch)
        # Refused whole: the live id 1 beside the bad one keeps its edges.
        assert structure_edges(g) == before
        assert g.mutation_version == version
        g._dict.check_invariants()

    def test_second_delete_of_a_dead_id_removes_nothing(self):
        g = self.build()
        assert g.delete_vertices([1]) == 2  # undirected: both directions
        edges = structure_edges(g)
        assert g.delete_vertices([1]) == 0
        assert structure_edges(g) == edges
        g._dict.check_invariants()

    def test_never_active_ids_remove_nothing_and_build_no_table(self):
        g = self.build()
        before = structure_edges(g)
        assert g.delete_vertices([7, 9]) == 0
        assert structure_edges(g) == before
        assert not g._dict.arena.has_table(np.array([7, 9])).any()

    def test_repeated_id_in_a_batch_counts_once(self):
        once, twice = self.build(), self.build()
        assert twice.delete_vertices([1, 1, 2, 1]) == once.delete_vertices([1, 2]) == 4
        assert structure_edges(twice) == structure_edges(once) == set()
        twice._dict.check_invariants()

    def test_mixed_batch_deletes_only_the_live_id(self):
        g = self.build()
        assert g.delete_vertices([1, 20]) == 2  # 1 is live, 20 never was
        assert structure_edges(g) == {(2, 6), (6, 2)}

    def test_reinserted_id_regains_its_edges(self):
        g = self.build()
        g.delete_vertices([1])
        assert g.insert_edges([1], [6]) == 2
        assert g.degree([1, 6]).tolist() == [1, 2]
        assert structure_edges(g) == {(1, 6), (6, 1), (2, 6), (6, 2)}

    def test_reinsertion_reuses_the_retained_base_slabs(self):
        """Deletion keeps a table's base slabs, so reconnecting the id to a
        vertex that still has its table allocates nothing."""
        g = DynamicGraph(num_vertices=16, directed=False, weighted=False)
        g.insert_edges([2], [3])
        slabs = g._dict.arena.pool.num_allocated
        g.delete_vertices([2])
        assert g._dict.arena.pool.num_allocated == slabs
        g.insert_edges([2], [3])
        assert g._dict.arena.pool.num_allocated == slabs
        assert g.edge_exists([2, 3], [3, 2]).all()
