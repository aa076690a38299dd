"""Tests for bulk build, its equivalence with streamed inserts (Table VI's
incremental build), and rehashing."""

import numpy as np
import pytest

from repro import COO
from repro.core import DynamicGraph
from repro.core.rehash import MAX_CHAIN_SLABS
from repro.util.errors import ValidationError
from tests.conftest import structure_state


def random_coo(rng, n=100, m=1500, weighted=True):
    return COO(
        rng.integers(0, n, m),
        rng.integers(0, n, m),
        n,
        weights=rng.integers(0, 100, m) if weighted else None,
    )


class TestBulkBuild:
    def test_requires_empty_graph(self, rng):
        g = DynamicGraph(num_vertices=10)
        g.insert_edges([0], [1])
        with pytest.raises(ValidationError):
            g.bulk_build(random_coo(rng, 10, 5))

    def test_refuses_ids_outside_the_graph(self, rng):
        """A build never grows the vertex space (only insert_vertices
        does): a COO reaching past the graph is refused before any step."""
        coo = random_coo(rng, 100, 200)
        g = DynamicGraph(num_vertices=4)
        with pytest.raises(ValidationError):
            g.bulk_build(coo)
        assert (g.num_vertices, g.num_edges(), g.mutation_version) == (4, 0, 0)

    def test_equals_streamed_inserts(self, rng):
        coo = random_coo(rng)
        bulk = DynamicGraph(num_vertices=coo.num_vertices)
        bulk.bulk_build(coo)

        streamed = DynamicGraph(num_vertices=coo.num_vertices)
        for batch in coo.batches(137):
            streamed.insert_edges(batch.src, batch.dst, batch.weights)
        assert structure_state(bulk) == structure_state(streamed)
        assert bulk.num_edges() == streamed.num_edges()

    def test_equals_incremental_build(self, rng):
        coo = random_coo(rng)
        bulk = DynamicGraph(num_vertices=coo.num_vertices)
        bulk.bulk_build(coo)
        inc = DynamicGraph(num_vertices=coo.num_vertices)
        for batch in coo.batches(100):
            inc.insert_edges(batch.src, batch.dst, batch.weights)
        assert structure_state(bulk) == structure_state(inc)

    def test_undirected_bulk(self, rng):
        coo = random_coo(rng, 40, 300, weighted=False)
        g = DynamicGraph(num_vertices=40, directed=False, weighted=False)
        g.bulk_build(coo)
        ex_fwd = g.edge_exists(coo.src, coo.dst)
        ex_rev = g.edge_exists(coo.dst, coo.src)
        keep = coo.src != coo.dst
        assert ex_fwd[keep].all() and ex_rev[keep].all()

    def test_bucket_sizing_from_degrees(self, rng):
        """Bulk build sizes buckets a priori: no overflow chains at the
        default load factor."""
        coo = random_coo(rng, 50, 3000, weighted=False)
        g = DynamicGraph(num_vertices=50, weighted=False)
        g.bulk_build(coo)
        st = g.stats()
        assert st.mean_chain_length == pytest.approx(1.0, abs=0.1)

    def test_incremental_single_bucket_tables(self, rng):
        """Incremental build has no connectivity info: single buckets and
        multi-slab chains (the paper's worst case)."""
        # Few sources, many destinations => long per-table chains.
        src = rng.integers(0, 10, 3000)
        dst = rng.integers(0, 500, 3000)
        coo = COO(src, dst, 500)
        g = DynamicGraph(num_vertices=500, weighted=False)
        for batch in coo.batches(500):
            g.insert_edges(batch.src, batch.dst)
        arena = g._dict.arena
        created = arena.table_buckets[arena.table_base != -1]
        assert (created == 1).all()
        assert g.stats().mean_chain_length > 1.5


class TestRehash:
    def build_overloaded(self):
        """One vertex with a long chain in a single-bucket table."""
        g = DynamicGraph(num_vertices=8, weighted=False)
        g.insert_edges(np.zeros(400, np.int64), np.arange(1, 401) % 500 + 8)
        return g

    def test_candidates_detects_overload(self):
        g = DynamicGraph(num_vertices=600, weighted=False)
        g.insert_edges(np.zeros(400, np.int64), np.arange(1, 401))
        cands = g.rehash_candidates()
        assert 0 in cands.tolist()

    def test_candidates_exceed_the_chain_threshold_strictly(self):
        g = DynamicGraph(num_vertices=600, weighted=False)
        at_limit = int(MAX_CHAIN_SLABS * g._dict.arena.pool.lane_capacity)
        g.insert_edges(np.zeros(at_limit, np.int64), np.arange(1, at_limit + 1))
        assert g.rehash_candidates().size == 0  # exactly at the limit
        g.insert_edges([0], [at_limit + 1])
        assert g.rehash_candidates().tolist() == [0]

    def test_rehash_preserves_state(self):
        g = DynamicGraph(num_vertices=600, weighted=False)
        g.insert_edges(np.zeros(400, np.int64), np.arange(1, 401))
        before = structure_state(g)
        count_before = g.num_edges()
        assert g.rehash([0]) == 1
        g._dict.arena.check_invariants(dense=[0])
        assert structure_state(g) == before
        assert g.num_edges() == count_before

    def test_rehash_shortens_chains(self):
        g = DynamicGraph(num_vertices=600, weighted=False)
        g.insert_edges(np.zeros(400, np.int64), np.arange(1, 401))
        chains_before = g.stats().mean_chain_length
        g.rehash([0])
        assert g.stats().mean_chain_length < chains_before
        assert g.rehash_candidates().size == 0

    def test_rehash_auto_selects_candidates(self):
        g = DynamicGraph(num_vertices=600, weighted=False)
        g.insert_edges(np.zeros(400, np.int64), np.arange(1, 401))
        rebuilt = g.rehash()
        assert rebuilt >= 1

    def test_rehash_weighted_preserves_weights(self, rng):
        g = DynamicGraph(num_vertices=600)
        dst = np.arange(1, 301)
        w = rng.integers(0, 99, 300)
        g.insert_edges(np.zeros(300, np.int64), dst, w)
        g.rehash([0])
        g._dict.arena.check_invariants(dense=[0])
        found, got = g.edge_weights(np.zeros(300, np.int64), dst)
        assert found.all() and np.array_equal(got, w)

    def test_flush_tombstones_graph_level(self, rng):
        g = DynamicGraph(num_vertices=50, weighted=False)
        src = rng.integers(0, 50, 800)
        dst = rng.integers(0, 50, 800)
        g.insert_edges(src, dst)
        g.delete_edges(src[:400], dst[:400])
        before = structure_state(g)
        g.flush_tombstones()
        g._dict.arena.check_invariants(dense=np.arange(50))
        assert structure_state(g) == before
        assert g.stats().tombstones == 0


class TestRejectedMaintenanceLeavesGraphUntouched:
    """A rejected ``rehash`` / ``flush_tombstones`` call raises before the
    version bump and before any table is torn down."""

    EDGES = [(0, 1), (0, 5), (1, 2), (2, 3)]

    def build(self):
        from repro import Graph

        g = Graph.create("slabhash", 16)
        g.insert_edges(*zip(*self.EDGES))
        return g

    def assert_untouched(self, g, version, events):
        coo = g.export_coo()
        assert sorted(zip(coo.src.tolist(), coo.dst.tolist())) == self.EDGES
        assert g.edge_exists([0, 0], [1, 5]).all()
        assert g.num_edges() == len(self.EDGES)
        assert g.mutation_version == version
        assert g.events.next_seq == events  # no structural event published
        g.backend._dict.check_invariants()
        g.backend._dict.arena.check_invariants()

    @pytest.mark.parametrize("load_factor", [0, float("nan"), -1, 1e9, 17.0])
    def test_rehash_validates_load_factor_like_the_constructor(self, load_factor):
        with pytest.raises(ValidationError, match="load_factor"):
            DynamicGraph(16, load_factor=load_factor)
        g = self.build()
        version, events = g.mutation_version, g.events.next_seq
        with pytest.raises(ValidationError, match="load_factor"):
            g.rehash([0], load_factor=load_factor)
        self.assert_untouched(g, version, events)
        assert g.rehash([0], load_factor=16.0) == 1  # the closed upper bound

    @pytest.mark.parametrize("op", ["rehash", "flush_tombstones"])
    @pytest.mark.parametrize("vertex_ids", [[1.5], [0, 16], [-1], [[0, 1]], ["a"]])
    def test_vertex_ids_are_coerced_and_range_checked(self, op, vertex_ids):
        g = self.build()
        version, events = g.mutation_version, g.events.next_seq
        with pytest.raises(ValidationError):
            getattr(g, op)(vertex_ids)
        self.assert_untouched(g, version, events)
        getattr(g, op)(np.array([0.0, 1.0]))  # integral floats coerce
        getattr(g, op)(2)  # so does a scalar
        assert g.mutation_version == version + 2
