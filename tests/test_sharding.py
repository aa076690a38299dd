"""Tests for the sharded multi-graph service (Partitioner + ShardedGraph).

The load-bearing contract: the same workload applied to a ShardedGraph
and to a single Graph must produce **bit-identical** global snapshots —
and therefore identical pagerank / connected-components / triangle-count
results — across every registered backend.
"""

import numpy as np
import pytest

from repro.analytics import connected_components, pagerank
from repro.analytics.triangle_count import triangle_count_csr
from repro.api import (
    CSRSnapshot,
    Graph,
    PartialDispatchError,
    Partitioner,
    ShardedGraph,
    backend_names,
    capabilities,
)
from repro.coo import COO
from repro.gpusim.counters import counting
from repro.stream.incremental import IncrementalConnectedComponents, IncrementalPageRank
from repro.util.errors import ValidationError

ALL_BACKENDS = tuple(backend_names())


def workload(rng, n, e):
    return (
        rng.integers(0, n, e, dtype=np.int64),
        rng.integers(0, n, e, dtype=np.int64),
        rng.integers(1, 50, e, dtype=np.int64),
    )


def apply_mixed(g, src, dst, w=None):
    """A mixed stream: staged inserts, then a delete slice, then more."""
    third = len(src) // 3
    g.insert_edges(src[:third], dst[:third], None if w is None else w[:third])
    mid = slice(third, 2 * third)
    g.insert_edges(src[mid], dst[mid], None if w is None else w[mid])
    g.delete_edges(src[: third // 2], dst[: third // 2])
    g.insert_edges(src[2 * third :], dst[2 * third :], None if w is None else w[2 * third :])


def assert_snapshots_identical(a, b):
    assert np.array_equal(a.row_ptr, b.row_ptr)
    assert np.array_equal(a.col_idx, b.col_idx)
    assert np.array_equal(a.keys(), b.keys())
    if a.weights is None:
        assert b.weights is None
    else:
        assert np.array_equal(a.weights, b.weights)


class TestPartitioner:
    def test_covers_all_shards_roughly_evenly(self):
        p = Partitioner(4)
        owners = p.shard_of(np.arange(100_000))
        counts = np.bincount(owners, minlength=4)
        assert counts.min() > 0.8 * counts.max()  # balanced on contiguous ids

    def test_deterministic_and_in_range(self):
        p = Partitioner(3)
        ids = np.array([0, 1, 17, 2**31], dtype=np.int64)
        a, b = p.shard_of(ids), p.shard_of(ids)
        assert np.array_equal(a, b)
        assert a.min() >= 0 and a.max() < 3

    def test_cut_mask(self):
        p = Partitioner(2)
        src = np.arange(1000)
        dst = src.copy()
        assert not p.cut_mask(src, dst).any()  # self-pairs are never cut

    def test_rejects_zero_shards(self):
        with pytest.raises(ValidationError):
            Partitioner(0)


class TestShardedExactness:
    """ShardedGraph == single Graph, bit for bit, on every backend."""

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_snapshot_and_analytics_match_single_graph(self, name, rng):
        n, e = 200, 1200
        weighted = capabilities(name).weighted
        src, dst, w = workload(rng, n, e)
        w = w if weighted else None
        single = Graph.create(name, num_vertices=n, weighted=weighted)
        sharded = ShardedGraph.create(name, n, num_shards=3, weighted=weighted)
        apply_mixed(single, src, dst, w)
        apply_mixed(sharded, src, dst, w)
        assert sharded.num_edges() == single.num_edges()
        assert sharded.vertex_capacity == single.vertex_capacity == n
        s1, s2 = single.snapshot(), sharded.snapshot()
        assert_snapshots_identical(s1, s2)
        for a, b in zip(single.sorted_adjacency(), sharded.sorted_adjacency()):
            assert np.array_equal(a, b)
        assert np.array_equal(connected_components(s1), connected_components(s2))
        assert np.allclose(pagerank(single), pagerank(sharded))
        assert triangle_count_csr(s1) == triangle_count_csr(s2)
        restored = Graph.create(name, num_vertices=n, weighted=weighted)
        sharded_restored = ShardedGraph.create(name, n, num_shards=3, weighted=weighted)
        assert restored.restore_snapshot(s1) == sharded_restored.restore_snapshot(s1)
        assert_snapshots_identical(restored.snapshot(), sharded_restored.snapshot())

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_point_queries_match_single_graph(self, name, rng):
        n, e = 150, 900
        src, dst, _ = workload(rng, n, e)
        single = Graph.create(name, num_vertices=n)
        sharded = ShardedGraph.create(name, n, num_shards=4)
        single.insert_edges(src, dst)
        sharded.insert_edges(src, dst)
        q_src, q_dst, _ = workload(rng, n, 300)
        assert np.array_equal(
            single.edge_exists(q_src, q_dst), sharded.edge_exists(q_src, q_dst)
        )
        assert np.array_equal(single.degree(q_src), sharded.degree(q_src))
        p1, d1, _ = single.adjacencies(q_src[:20])
        p2, d2, _ = sharded.adjacencies(q_src[:20])
        assert np.array_equal(p1, p2)
        # neighbor order within a vertex is backend-native on both sides
        for v in np.unique(q_src[:20]):
            assert np.array_equal(
                np.sort(single.neighbors(int(v))[0]),
                np.sort(sharded.neighbors(int(v))[0]),
            )

    def test_edge_weights_match(self, rng):
        n = 100
        src, dst, w = workload(rng, n, 500)
        single = Graph.create("slabhash", num_vertices=n, weighted=True)
        sharded = ShardedGraph.create("slabhash", n, num_shards=3, weighted=True)
        single.insert_edges(src, dst, w)
        sharded.insert_edges(src, dst, w)
        q_src, q_dst, _ = workload(rng, n, 200)
        e1, w1 = single.edge_weights(q_src, q_dst)
        e2, w2 = sharded.edge_weights(q_src, q_dst)
        assert np.array_equal(e1, e2)
        assert np.array_equal(w1[e1], w2[e2])

    def test_bulk_build_splits_by_owner(self, rng):
        from repro.coo import COO

        n = 120
        src, dst, w = workload(rng, n, 800)
        coo = COO(src, dst, n, weights=w)
        single = Graph.create("hornet", num_vertices=n, weighted=True)
        sharded = ShardedGraph.create("hornet", n, num_shards=4, weighted=True)
        single.bulk_build(coo)
        sharded.bulk_build(coo)
        assert_snapshots_identical(single.snapshot(), sharded.snapshot())

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_delete_vertices_fans_out_to_all_shards(self, name, rng):
        """Symmetric edges, as B-tree and faimGraph deletion requires: they
        erase a victim's in-edges through its own out-list, which lives in
        the victim's owner shard only — the router carries the reverse
        pairs to the shards that own them.  A backend without vertex
        deletion is refused before any shard is touched."""
        n = 80
        src, dst, _ = workload(rng, n, 300)
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        single = Graph.create(name, num_vertices=n)
        sharded = ShardedGraph.create(name, n, num_shards=3)
        single.insert_edges(src, dst)
        sharded.insert_edges(src, dst)
        victims = [3, 17, 42]
        if not capabilities(name).vertex_dynamic:
            for g in (single, sharded):
                with pytest.raises(ValidationError, match="vertex_dynamic"):
                    g.delete_vertices(victims)
            assert sharded.health == ["healthy"] * 3
            assert_snapshots_identical(single.snapshot(), sharded.snapshot())
            return
        single.delete_vertices(victims)
        sharded.delete_vertices(victims)
        # post-state is the contract (return counts differ: a vertex can
        # deactivate once per shard)
        assert_snapshots_identical(single.snapshot(), sharded.snapshot())
        assert sharded.degree(victims).tolist() == [0, 0, 0]
        assert not sharded.edge_exists(src, np.full(src.shape, 17)).any()

    def test_export_coo_matches(self, rng):
        n = 90
        src, dst, _ = workload(rng, n, 400)
        single = Graph.create("slabhash", num_vertices=n)
        sharded = ShardedGraph.create("slabhash", n, num_shards=2)
        single.insert_edges(src, dst)
        sharded.insert_edges(src, dst)
        a, b = single.export_coo(), sharded.export_coo()
        assert sorted(zip(a.src.tolist(), a.dst.tolist())) == sorted(
            zip(b.src.tolist(), b.dst.tolist())
        )


class TestShardedService:
    def test_snapshot_cache_serves_identity_when_unchanged(self):
        sg = ShardedGraph.create("slabhash", 64, num_shards=2)
        sg.insert_edges([0, 1], [1, 2])
        assert sg.snapshot() is sg.snapshot()
        sg.insert_edges([2], [3])
        assert sg.snapshot().num_edges == 3

    def test_mutation_version_is_monotone_aggregate(self):
        """The service version is the router's own counter, not a sum of
        shard versions: one step per routed mutation, however many shards
        the batch reaches."""
        sg = ShardedGraph.create("slabhash", 64, num_shards=3)
        v0 = sg.mutation_version
        sg.insert_edges([0, 1, 2], [1, 2, 3])
        assert sg.mutation_version == v0 + 1
        sg.delete_edges([0], [1])
        assert sg.mutation_version == sg.backend.mutation_version == v0 + 2

    def test_events_published_with_aggregate_versions(self):
        sg = ShardedGraph.create("slabhash", 64, num_shards=2)
        cur = sg.events.cursor()
        v0 = sg.mutation_version
        sg.insert_edges([0, 1, 5], [1, 2, 6])
        sg.delete_vertices([5])
        events, gapped = cur.poll()
        assert not gapped and len(events) == 2
        assert events[0].rows == 3
        assert events[0].before_version == v0
        assert events[0].after_version == events[1].before_version == v0 + 1
        assert events[1].after_version == sg.mutation_version == v0 + 2

    def test_incremental_analytics_attach_to_sharded_service(self, rng):
        n = 100
        sg = ShardedGraph.create("slabhash", n, num_shards=3)
        ref = Graph.create("slabhash", num_vertices=n)
        cc = IncrementalConnectedComponents(sg)
        pr = IncrementalPageRank(sg, tol=1e-8)
        for _ in range(4):
            src, dst, _ = workload(rng, n, 50)
            sg.insert_edges(src, dst)
            ref.insert_edges(src, dst)
            assert np.array_equal(cc.labels(), connected_components(ref.snapshot()))
            assert np.allclose(pr.compute(), pagerank(ref), atol=1e-6)
        assert cc.last_mode == "incremental"
        assert pr.last_mode in ("incremental", "cached")

    def test_normalization_happens_once_globally(self):
        """The router applies the one batch rule: the self-loop is dropped,
        in-batch duplicates resolve by replace semantics in the owner shard."""
        sg = ShardedGraph.create("slabhash", 64, num_shards=4)
        added = sg.insert_edges([1, 1, 2, 2, 3], [2, 2, 3, 3, 3])
        assert added == 2
        assert sg.num_edges() == 2


class TestAssembly:
    """Shard assembly places each shard's keys at its global offsets."""

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("shards", [1, 2, 3, 5])
    def test_sparse_vertex_space_and_edgeless_shards(self, shards, weighted, rng):
        """The ``service`` regime — most ids isolated, |E| << |V| — with
        every source owned by shard 0, so the other shards own nothing;
        first through the cold tier, then through each shard's merge."""
        n = 4096
        owned = np.flatnonzero(Partitioner(shards).shard_of(np.arange(n)) == 0)
        single = Graph.create("slabhash", num_vertices=n, weighted=weighted)
        sharded = ShardedGraph.create("slabhash", n, num_shards=shards, weighted=weighted)
        for round_ in range(3):
            src = rng.choice(owned, 40)
            dst, w = rng.integers(0, n, 40), rng.integers(1, 50, 40)
            for g in (single, sharded):
                g.insert_edges(src, dst, w if weighted else None)
                if round_:
                    g.delete_edges(src[:5], dst[:5])
            want, got = single.snapshot(), sharded.snapshot()
            assert_snapshots_identical(want, got)
            assert got.row_ptr.dtype == got.col_idx.dtype == got.keys().dtype == np.int64
            assert [s.num_edges() for s in sharded.shards[1:]] == [0] * (shards - 1)
            with pytest.raises(ValueError, match="read-only"):
                got.keys()[0] = 0

    @pytest.mark.parametrize("cut", [True, False], ids=["stale", "missing"])
    def test_degraded_view_is_the_rebuild_of_the_contributed_rows(self, cut, rng):
        """Three live shards and a dead one, which serves its rows of the
        last global snapshot (stale) or, with none cut, nothing (missing)."""
        n = 512
        svc = ShardedGraph.create("slabhash", n, num_shards=4)
        first, second = workload(rng, n, 300)[:2], workload(rng, n, 300)[:2]
        svc.insert_edges(*first)
        if cut:
            cut_version = svc.mutation_version
            svc.snapshot()
        svc.kill_shard(1)
        with pytest.raises(PartialDispatchError):  # applied on the live shards
            svc.insert_edges(*second)
        degraded = svc.degraded_snapshot()
        if cut:
            assert (degraded.stale_shards, degraded.missing_shards) == ((1,), ())
            assert degraded.cut_version == cut_version
        else:
            assert (degraded.stale_shards, degraded.missing_shards) == ((), (1,))
            assert degraded.cut_version is None
        src, dst = np.concatenate([first[0], second[0]]), np.concatenate([first[1], second[1]])
        owner = svc.partitioner.shard_of(src)
        contributed = (owner != 1) | (cut & (np.arange(600) < 300))
        keys = np.unique((src << 32 | dst)[contributed & (src != dst)])
        want = CSRSnapshot.from_coo(COO(keys >> 32, keys & 0xFFFFFFFF, n))
        assert_snapshots_identical(want, degraded.snapshot)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_charge_is_one_launch_per_shard_plus_the_copied_rows(self, weighted, rng):
        n = 300
        svc = ShardedGraph.create("slabhash", n, num_shards=3, weighted=weighted)
        src, dst, w = workload(rng, n, 500)
        svc.insert_edges(src, dst, w if weighted else None)
        shard_snaps = [shard.snapshot() for shard in svc.shards]
        with counting() as charged:
            assembled = svc.backend._assemble(shard_snaps)
        assert {k: v for k, v in charged.items() if v} == {
            "kernel_launches": 3,
            "bytes_copied": assembled.num_edges * (16 if weighted else 8) + (n + 1) * 8,
        }


class TestShardedValidation:
    def test_rejects_undirected_shards(self):
        g = Graph.create("slabhash", num_vertices=8, directed=False)
        with pytest.raises(ValidationError, match="directed"):
            ShardedGraph([g])

    def test_rejects_populated_shards(self):
        g = Graph.create("slabhash", num_vertices=8)
        g.insert_edges([0], [1])
        with pytest.raises(ValidationError, match="empty"):
            ShardedGraph([g])

    def test_rejects_mismatched_vertex_spaces(self):
        a = Graph.create("slabhash", num_vertices=8)
        b = Graph.create("slabhash", num_vertices=16)
        with pytest.raises(ValidationError, match="vertex-id space"):
            ShardedGraph([a, b])

    def test_rejects_raw_backends_and_empty_lists(self):
        from repro.api import create

        with pytest.raises(ValidationError):
            ShardedGraph([create("slabhash", num_vertices=8)])
        with pytest.raises(ValidationError):
            ShardedGraph([])

    def test_rejects_negative_event_retention(self):
        # The service's event log is the facade's, and so is the check.
        shards = [Graph.create("slabhash", num_vertices=8) for _ in range(2)]
        with pytest.raises(ValidationError, match="event_retention"):
            ShardedGraph(shards, event_retention=-1)

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_rejected_bulk_build_applies_nothing(self, name):
        """A bulk build into a populated service is refused before any
        shard applies its share: the shard owning no row of the graph
        used to accept its rows before another shard refused."""
        sg = ShardedGraph.create(name, 64, num_shards=4)
        sg.insert_edges([1], [2])
        version, events = sg.mutation_version, sg.events.next_seq
        per_shard = [shard.num_edges() for shard in sg.shards]
        coo = COO(np.arange(20, 40), np.arange(21, 41), 64)
        with pytest.raises(ValidationError, match="requires an empty graph"):
            sg.bulk_build(coo)
        assert [shard.num_edges() for shard in sg.shards] == per_shard
        assert (sg.num_edges(), sg.mutation_version, sg.events.next_seq) == (1, version, events)

    @pytest.mark.parametrize("shard", [1.5, True, "1", None, 2, -1])
    def test_non_integral_or_out_of_range_shard_index_rejected(self, shard):
        sg = ShardedGraph.create("slabhash", 16, num_shards=2)
        sg.insert_edges([0, 1], [1, 2])
        version, events = sg.mutation_version, sg.events.next_seq
        for call in (sg.kill_shard, sg.shard_health, sg.rebuild_shard):
            with pytest.raises(ValidationError):
                call(shard)
        assert sg.health == ["healthy", "healthy"]
        assert sg.mutation_version == version
        assert sg.events.next_seq == events
        assert sg.num_edges() == 2
        sg.kill_shard(np.int64(1))  # integer-likes still address a shard
        assert sg.health == ["healthy", "dead"]

    def test_out_of_range_queries_rejected(self):
        sg = ShardedGraph.create("slabhash", 16, num_shards=2)
        with pytest.raises(ValidationError):
            sg.degree([99])
        with pytest.raises(ValidationError):
            sg.edge_exists([0], [99])
        # Per-shard operations the router does not route: the facade's
        # capability refusal, even over a slab-hash shard that has them.
        for flag, call in [
            ("rehash", sg.rehash),
            ("tombstone_flush", sg.flush_tombstones),
            ("range_queries", lambda: sg.neighbor_range(0, 0, 16)),
        ]:
            with pytest.raises(ValidationError, match=f"capability {flag}=False"):
                call()


class TestScatterGatherShardErrors:
    """Regression: a raw exception inside one shard's scatter-gather leg
    surfaces as a typed ShardError naming the shard and the operation —
    never as the shard's bare RuntimeError/KeyError/etc."""

    def _broken_service(self, op):
        from repro.api import ShardError  # noqa: F401 - re-exported surface

        sg = ShardedGraph.create("slabhash", 32, num_shards=2)
        rng = np.random.default_rng(9)
        sg.insert_edges(
            rng.integers(0, 32, 40, dtype=np.int64), rng.integers(0, 32, 40, dtype=np.int64)
        )

        def boom(*args, **kwargs):
            raise RuntimeError("shard-internal explosion")

        setattr(sg.shards[1].backend, op, boom)
        return sg

    @pytest.mark.parametrize(
        "op, call",
        [
            ("degree", lambda sg: sg.degree(np.arange(32, dtype=np.int64))),
            ("edge_exists", lambda sg: sg.edge_exists([0, 1, 2, 3], [1, 2, 3, 4])),
            ("adjacencies", lambda sg: sg.adjacencies(np.arange(32, dtype=np.int64))),
        ],
    )
    def test_query_wraps_raw_shard_exception(self, op, call):
        from repro.api import ShardError

        sg = self._broken_service(op)
        with pytest.raises(ShardError) as exc:
            call(sg)
        assert exc.value.shard == 1
        assert exc.value.op == op
        assert isinstance(exc.value.__cause__, RuntimeError)
        # The raw error degraded (not killed) the shard; the others serve.
        assert sg.shard_health(1) == "degraded"
        assert sg.shard_health(0) == "healthy"

    def test_edge_weights_wraps_raw_shard_exception(self):
        from repro.api import ShardError

        sg = ShardedGraph.create("slabhash", 32, num_shards=2, weighted=True)
        sg.insert_edges([1, 2, 3], [2, 3, 4], [7, 8, 9])

        def boom(*args, **kwargs):
            raise KeyError("lost bucket")

        sg.shards[0].backend.edge_weights = boom
        with pytest.raises(ShardError) as exc:
            sg.edge_weights(np.arange(32, dtype=np.int64), (np.arange(32, dtype=np.int64) + 1) % 32)
        assert exc.value.op == "edge_weights"
        assert exc.value.shard == 0

    def test_neighbors_wraps_raw_shard_exception(self):
        from repro.api import ShardError

        sg = self._broken_service("neighbors")
        victim = int(np.flatnonzero(sg.partitioner.shard_of(np.arange(32)) == 1)[0])
        with pytest.raises(ShardError) as exc:
            sg.neighbors(victim)
        assert exc.value.shard == 1 and exc.value.op == "neighbors"

    def test_shard_error_is_catchable_as_repro_error(self):
        from repro.api import ShardError
        from repro.util.errors import ReproError

        err = ShardError("boom", shard=3, op="degree")
        assert isinstance(err, ReproError) and isinstance(err, RuntimeError)
        assert err.shard == 3 and err.op == "degree"


def test_shard_artifact_quick_structure():
    from repro.bench.shard_bench import shard_artifact

    art = shard_artifact(seed=0, quick=True)
    by_key = {r.metric: r.value for r in art.results}
    assert by_key.keys() == {"t12/slabhash/shards=4/insert_speedup"}
    assert by_key["t12/slabhash/shards=4/insert_speedup"] >= 2.0
    assert len(art.rows) == 1
