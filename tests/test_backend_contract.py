"""Cross-backend contract suite: every registered backend, one scenario.

The :mod:`repro.api` registry promises that any backend constructed by
name implements the :class:`repro.api.GraphBackend` surface with identical
semantics (self-loop drop, replace-on-duplicate, exact counts) and that
its :class:`repro.api.Capabilities` flags match actual behavior — a flag
is a lie if the operation it advertises raises, or if a disabled flag's
operation silently succeeds.  This suite runs the same
insert/delete/query/export scenario over **all** registered backends so a
new backend (or a regression in an old one) fails loudly here rather than
deep inside the bench harness.
"""

import numpy as np
import pytest

import repro.api as api
from repro.analytics import (
    bfs,
    connected_components,
    kcore_membership,
    pagerank,
    triangle_count_csr,
)
from repro.api import CSRSnapshot, Graph, GraphBackend, as_snapshot, cached_snapshot
from repro.coo import COO
from repro.gpusim.counters import counting
from repro.util.errors import ValidationError

ALL_BACKENDS = sorted(api.backend_names())
VERTEX_DYNAMIC = [name for name in ALL_BACKENDS if api.capabilities(name).vertex_dynamic]
N = 32

#: A fixed scenario batch: duplicates (0,1), one self-loop (2,2).
SRC = [0, 0, 1, 2, 2, 3]
DST = [1, 1, 2, 2, 0, 4]
UNIQUE_EDGES = {(0, 1), (1, 2), (2, 0), (3, 4)}


def make(name, weighted=False):
    return api.create(name, num_vertices=N, weighted=weighted)


def edge_set(g):
    coo = g.export_coo()
    return set(zip(coo.src.tolist(), coo.dst.tolist()))


@pytest.mark.parametrize("name", ALL_BACKENDS)
class TestProtocolSurface:
    def test_is_graph_backend(self, name):
        g = make(name)
        assert isinstance(g, GraphBackend)
        assert g.num_vertices == N

    def test_insert_semantics(self, name):
        g = make(name)
        added = g.insert_edges(SRC, DST)
        assert added == len(UNIQUE_EDGES)  # self-loop dropped, dup collapsed
        assert g.num_edges() == len(UNIQUE_EDGES)
        assert edge_set(g) == UNIQUE_EDGES
        # Re-inserting is idempotent (replace semantics).
        assert g.insert_edges(SRC, DST) == 0
        assert g.num_edges() == len(UNIQUE_EDGES)

    def test_queries(self, name):
        g = make(name)
        g.insert_edges(SRC, DST)
        assert g.edge_exists([0, 1, 0, 9], [1, 2, 9, 0]).tolist() == [
            True,
            True,
            False,
            False,
        ]
        assert g.degree([0, 1, 2, 3, 9]).tolist() == [1, 1, 1, 1, 0]
        dsts, _ = g.neighbors(2)
        assert sorted(dsts.tolist()) == [0]
        owner, dsts, _ = g.adjacencies(np.array([0, 1, 9]))
        got = sorted(zip(owner.tolist(), dsts.tolist()))
        assert got == [(0, 1), (1, 2)]

    def test_delete_semantics(self, name):
        g = make(name)
        g.insert_edges(SRC, DST)
        removed = g.delete_edges([0, 0, 7], [1, 1, 8])  # dup + absent
        assert removed == 1
        assert g.num_edges() == len(UNIQUE_EDGES) - 1
        assert not g.edge_exists([0], [1])[0]

    def test_export_and_sorted_adjacency_agree(self, name):
        g = make(name)
        g.insert_edges(SRC, DST)
        row_ptr, col = g.sorted_adjacency()
        assert row_ptr.shape[0] == N + 1
        assert int(row_ptr[-1]) == g.num_edges()
        rebuilt = set()
        for v in range(N):
            for d in col[row_ptr[v] : row_ptr[v + 1]].tolist():
                rebuilt.add((v, d))
        assert rebuilt == edge_set(g)
        # Rows must be ascending.
        for v in range(N):
            row = col[row_ptr[v] : row_ptr[v + 1]]
            assert np.all(np.diff(row) > 0)

    def test_bulk_build_matches_incremental(self, name):
        rng = np.random.default_rng(7)
        src = rng.integers(0, N, 100)
        dst = rng.integers(0, N, 100)
        from repro.coo import COO

        g_bulk = make(name)
        g_bulk.bulk_build(COO(src, dst, N))
        g_inc = make(name)
        g_inc.insert_edges(src, dst)
        assert edge_set(g_bulk) == edge_set(g_inc)
        assert g_bulk.num_edges() == g_inc.num_edges()

    def test_memory_bytes_reported(self, name):
        g = make(name)
        g.insert_edges(SRC, DST)
        assert isinstance(g.memory_bytes(), int)
        assert g.memory_bytes() > 0

    def test_snapshot_view(self, name):
        g = make(name)
        g.insert_edges(SRC, DST)
        snap = g.snapshot()
        assert snap.num_vertices == N
        assert snap.num_edges == g.num_edges()
        assert set(zip(snap.sources().tolist(), snap.col_idx.tolist())) == edge_set(g)


@pytest.mark.parametrize("name", ALL_BACKENDS)
class TestCapabilityFlagsMatchBehavior:
    def test_weighted_flag(self, name):
        caps = api.capabilities(name)
        if caps.weighted:
            g = make(name, weighted=True)
            g.insert_edges([0, 1], [1, 2], weights=[11, 22])
            found, w = g.edge_weights([0, 1, 5], [1, 2, 6])
            assert found.tolist() == [True, True, False]
            assert w[:2].tolist() == [11, 22]
            # Replace semantics: the most recent weight wins.
            g.insert_edges([0], [1], weights=[99])
            _, w = g.edge_weights([0], [1])
            assert w.tolist() == [99]
        else:
            with pytest.raises(ValidationError):
                make(name, weighted=True)
        # Every backend, configured unweighted, must reject weights loudly.
        g = make(name, weighted=False)
        with pytest.raises(ValidationError):
            g.insert_edges([0], [1], weights=[5])

    def test_vertex_dynamic_flag(self, name):
        caps = api.capabilities(name)
        g = make(name)
        # Symmetric edge set so undirected-semantics deletion is well-posed.
        g.insert_edges([0, 1, 1, 2], [1, 0, 2, 1])
        if caps.vertex_dynamic:
            g.delete_vertices([1])
            assert not g.edge_exists([0, 2, 1, 1], [1, 1, 0, 2]).any()
        else:
            with pytest.raises(NotImplementedError):
                g.delete_vertices([1])

    def test_sorted_neighbors_flag(self, name):
        if not api.capabilities(name).sorted_neighbors:
            pytest.skip("order not guaranteed for this backend")
        g = make(name)
        rng = np.random.default_rng(3)
        dsts = rng.permutation(np.arange(1, 20))
        g.insert_edges(np.zeros(dsts.size, np.int64), dsts)
        got, _ = g.neighbors(0)
        assert got.tolist() == sorted(got.tolist())

    def test_range_queries_flag(self, name):
        caps = api.capabilities(name)
        g = make(name)
        assert hasattr(g, "neighbor_range") == caps.range_queries

    def test_maintenance_flags(self, name):
        caps = api.capabilities(name)
        g = make(name)
        assert hasattr(g, "rehash") == caps.rehash
        assert hasattr(g, "flush_tombstones") == caps.tombstone_flush

    def test_instance_capabilities_narrow_weighted(self, name):
        g = make(name, weighted=False)
        assert not g.instance_capabilities().weighted


@pytest.mark.parametrize("name", ALL_BACKENDS)
class TestFacade:
    def test_create_and_roundtrip(self, name):
        g = Graph.create(name, num_vertices=N)
        assert g.insert_edges(SRC, DST) == len(UNIQUE_EDGES)
        assert g.num_edges() == len(UNIQUE_EDGES)
        assert g.edge_exists([0], [1])[0]
        assert g.degree([0]).tolist() == [1]
        assert g.memory_bytes() > 0

    def test_unweighted_rejects_weights(self, name):
        g = Graph.create(name, num_vertices=N, weighted=False)
        with pytest.raises(ValidationError):
            g.insert_edges([0], [1], weights=[3])

    def test_weight_defaulting(self, name):
        caps = api.capabilities(name)
        if not caps.weighted:
            pytest.skip("unweighted backend")
        g = Graph.create(name, num_vertices=N, weighted=True)
        g.insert_edges([0], [1])  # no weights given -> the default, 0, fills
        found, w = g.edge_weights([0], [1])
        assert found.tolist() == [True]
        assert w.tolist() == [0]

    def test_bounds_validated_once(self, name):
        g = Graph.create(name, num_vertices=N)
        with pytest.raises(ValidationError):
            g.insert_edges([0], [N + 5])
        with pytest.raises(ValidationError):
            g.delete_edges([-1], [0])
        with pytest.raises(ValidationError):
            g.edge_exists([N], [0])
        with pytest.raises(ValidationError):
            g.degree([N])
        with pytest.raises(ValidationError):
            g.degree([-1])

    def test_capability_gated_maintenance(self, name):
        g = Graph.create(name, num_vertices=N)
        caps = g.capabilities
        if not caps.rehash:
            with pytest.raises(ValidationError):
                g.rehash()
        if not caps.tombstone_flush:
            with pytest.raises(ValidationError):
                g.flush_tombstones()
        if not caps.vertex_dynamic:
            with pytest.raises(ValidationError):
                g.delete_vertices([0])


def _cold_snapshot(backend) -> CSRSnapshot:
    """Reference rebuild bypassing every cache layer."""
    return CSRSnapshot.from_coo(backend.export_coo())


def _assert_snapshots_identical(got: CSRSnapshot, want: CSRSnapshot, ctx):
    assert got.num_vertices == want.num_vertices, ctx
    assert np.array_equal(got.row_ptr, want.row_ptr), ctx
    assert np.array_equal(got.col_idx, want.col_idx), ctx
    if want.weights is None:
        assert got.weights is None, ctx
    else:
        assert np.array_equal(got.weights, want.weights), ctx


@pytest.mark.parametrize("name", ALL_BACKENDS)
class TestSnapshotCache:
    """The versioned snapshot cache: invalidation, identity, delta-merge."""

    def test_every_mutating_op_bumps_version(self, name):
        caps = api.capabilities(name)
        g = make(name)
        versions = [g.mutation_version]

        def bumped(label):
            versions.append(g.mutation_version)
            assert versions[-1] > versions[-2], (name, label)

        g.insert_edges(SRC, DST)
        bumped("insert_edges")
        g.delete_edges([0], [1])
        bumped("delete_edges")
        if caps.vertex_dynamic:
            g.delete_vertices([3])
            bumped("delete_vertices")
        if hasattr(g, "insert_vertices"):
            g.insert_vertices([5])
            bumped("insert_vertices")
        if caps.rehash:
            g.rehash([1])
            bumped("rehash")
        if caps.tombstone_flush:
            g.flush_tombstones()
            bumped("flush_tombstones")
        g2 = make(name)
        before = g2.mutation_version
        g2.bulk_build(COO([0, 1], [1, 2], N))
        assert g2.mutation_version > before, (name, "bulk_build")

    def test_empty_batches_do_not_bump_version(self, name):
        g = make(name)
        g.insert_edges(SRC, DST)
        version = g.mutation_version
        empty = np.empty(0, dtype=np.int64)
        g.insert_edges(empty, empty.copy())
        g.delete_edges(empty, empty.copy())
        assert g.mutation_version == version, name

    def test_queries_do_not_bump_version(self, name):
        g = make(name)
        g.insert_edges(SRC, DST)
        version = g.mutation_version
        g.edge_exists([0], [1])
        g.edge_weights([0], [1])
        g.neighbors(0)
        g.adjacencies(np.array([0, 1]))
        g.degree([0, 1])
        g.num_edges()
        g.memory_bytes()
        g.export_coo()
        g.sorted_adjacency()
        g.snapshot()
        assert g.mutation_version == version, name

    def test_unchanged_graph_returns_cached_object_with_zero_work(self, name):
        g = make(name)
        g.insert_edges(SRC, DST)
        with counting() as cold:
            snap = g.snapshot()
        assert cold["sorted_elements"] > 0, name  # the cold sort is priced
        with counting() as hit:
            again = g.snapshot()
        assert again is snap, name
        # The acceptance bar: a cache hit performs zero slab reads and
        # zero sorts — in fact, zero counted device work of any kind.
        assert hit["slab_reads"] == 0, name
        assert hit["sorted_elements"] == 0, name
        assert all(v == 0 for v in hit.values()), (name, hit)
        assert cached_snapshot(g) is snap, name

    def test_mutation_invalidates_cache(self, name):
        g = make(name)
        g.insert_edges(SRC, DST)
        snap = g.snapshot()
        g.insert_edges([5], [6])
        assert cached_snapshot(g) is None, name
        fresh = g.snapshot()
        assert fresh is not snap, name
        _assert_snapshots_identical(fresh, _cold_snapshot(g), name)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_incremental_merge_is_bit_identical_to_cold(self, name, weighted):
        if weighted and not api.capabilities(name).weighted:
            pytest.skip("unweighted backend")
        rng = np.random.default_rng(23)
        g = Graph.create(name, num_vertices=N, weighted=weighted)
        s = rng.integers(0, N, 300)
        d = rng.integers(0, N, 300)
        g.insert_edges(s, d, rng.integers(0, 99, 300) if weighted else None)
        g.snapshot()  # prime the cache

        # Inserts with duplicates (replace semantics), then deletes of a
        # mix of present and absent edges.
        s2 = rng.integers(0, N, 60)
        d2 = rng.integers(0, N, 60)
        g.insert_edges(s2, d2, rng.integers(100, 199, 60) if weighted else None)
        g.delete_edges(np.concatenate([s[:25], [30]]), np.concatenate([d[:25], [31]]))
        logged = g._delta_rows
        assert logged > 0, name
        with counting() as delta:
            merged = g.snapshot()
        # The merge sorts only the logged delta rows, never the edge set.
        assert delta["sorted_elements"] == logged, (name, delta)
        _assert_snapshots_identical(merged, _cold_snapshot(g.backend), name)
        # And the merged snapshot is now the cache for everyone.
        assert g.backend.snapshot() is merged, name

    def test_repeated_merges_stay_identical(self, name):
        rng = np.random.default_rng(5)
        g = Graph.create(name, num_vertices=N)
        g.insert_edges(rng.integers(0, N, 200), rng.integers(0, N, 200))
        g.snapshot()
        for round_ in range(4):
            g.insert_edges(rng.integers(0, N, 30), rng.integers(0, N, 30))
            g.delete_edges(rng.integers(0, N, 10), rng.integers(0, N, 10))
            merged = g.snapshot()
            _assert_snapshots_identical(merged, _cold_snapshot(g.backend), (name, round_))

    def test_structural_ops_fall_back_to_cold_rebuild(self, name):
        caps = api.capabilities(name)
        g = Graph.create(name, num_vertices=N)
        g.insert_edges([0, 1, 1, 2], [1, 0, 2, 1])
        g.snapshot()
        if caps.vertex_dynamic:
            g.delete_vertices([1])
        elif caps.rehash:
            g.rehash()
        else:
            pytest.skip("no structural op beyond bulk_build for this backend")
        _assert_snapshots_identical(g.snapshot(), _cold_snapshot(g.backend), name)

    def test_out_of_band_backend_mutation_detected(self, name):
        g = Graph.create(name, num_vertices=N)
        g.insert_edges(SRC, DST)
        g.snapshot()
        g.insert_edges([7], [8])  # logged
        g.backend.insert_edges([9], [10])  # bypasses the facade log
        snap = g.snapshot()  # must not merge a stale log
        _assert_snapshots_identical(snap, _cold_snapshot(g.backend), name)
        assert g.edge_exists([9], [10])[0], name

    def test_delta_overflow_falls_back(self, name):
        g = Graph.create(name, num_vertices=N)
        g.events.retention_rows = 4
        g.insert_edges(SRC, DST)
        g.snapshot()
        g.insert_edges([1, 2, 3, 4, 5], [2, 3, 4, 5, 6])  # 5 rows > limit 4
        _assert_snapshots_identical(g.snapshot(), _cold_snapshot(g.backend), name)

    def test_facade_weighted_merge_replaces_weights(self, name):
        if not api.capabilities(name).weighted:
            pytest.skip("unweighted backend")
        g = Graph.create(name, num_vertices=N, weighted=True)
        g.insert_edges([0, 1], [1, 2], weights=[10, 20])
        g.snapshot()
        g.insert_edges([0], [1], weights=[99])  # replace via merge
        snap = g.snapshot()
        lo, hi = int(snap.row_ptr[0]), int(snap.row_ptr[1])
        row = dict(zip(snap.col_idx[lo:hi].tolist(), snap.weights[lo:hi].tolist()))
        assert row[1] == 99, name

    def test_delete_only_batch_merges_incrementally(self, name):
        """A delete-only window must merge, not fall back to a rebuild."""
        g = Graph.create(name, num_vertices=N)
        g.insert_edges(SRC, DST)
        g.snapshot()
        g.delete_edges([0, 3, 7], [1, 4, 8])  # two present, one absent
        logged = g._delta_rows
        assert logged > 0, name
        with counting() as delta:
            merged = g.snapshot()
        assert delta["sorted_elements"] == logged, (name, delta)
        _assert_snapshots_identical(merged, _cold_snapshot(g.backend), name)
        assert merged.num_edges == len(UNIQUE_EDGES) - 2, name

    def test_delete_then_reinsert_same_key_in_one_window(self, name):
        """Last op per key wins across the whole logged window."""
        weighted = api.capabilities(name).weighted
        g = Graph.create(name, num_vertices=N, weighted=weighted)
        g.insert_edges([0, 1], [1, 2], weights=[10, 20] if weighted else None)
        g.snapshot()
        g.delete_edges([0], [1])
        g.insert_edges([0], [1], weights=[77] if weighted else None)
        snap = g.snapshot()
        _assert_snapshots_identical(snap, _cold_snapshot(g.backend), name)
        assert g.edge_exists([0], [1])[0], name
        if weighted:
            lo, hi = int(snap.row_ptr[0]), int(snap.row_ptr[1])
            row = dict(zip(snap.col_idx[lo:hi].tolist(), snap.weights[lo:hi].tolist()))
            assert row[1] == 77, name

    def test_insert_then_delete_same_key_in_one_window(self, name):
        g = Graph.create(name, num_vertices=N)
        g.insert_edges(SRC, DST)
        g.snapshot()
        g.insert_edges([9], [10])
        g.delete_edges([9], [10])
        snap = g.snapshot()
        _assert_snapshots_identical(snap, _cold_snapshot(g.backend), name)
        assert not g.edge_exists([9], [10])[0], name


class TestAnalyticsAcrossBackends:
    """The same analytics answers from every backend's snapshot."""

    @pytest.fixture(scope="class")
    def symmetric_batch(self):
        rng = np.random.default_rng(11)
        s = rng.integers(0, N, 120)
        d = rng.integers(0, N, 120)
        keep = s != d
        s, d = s[keep], d[keep]
        return np.concatenate([s, d]), np.concatenate([d, s])

    @pytest.fixture(scope="class")
    def graphs(self, symmetric_batch):
        out = {}
        for name in ALL_BACKENDS:
            g = Graph.create(name, num_vertices=N)
            g.insert_edges(*symmetric_batch)
            out[name] = g
        return out

    def test_snapshots_identical(self, graphs):
        snaps = {n: g.snapshot() for n, g in graphs.items()}
        ref = snaps[ALL_BACKENDS[0]]
        for name, snap in snaps.items():
            assert np.array_equal(snap.row_ptr, ref.row_ptr), name
            assert np.array_equal(snap.col_idx, ref.col_idx), name

    def test_pagerank_agrees(self, graphs):
        ranks = [pagerank(g) for g in graphs.values()]
        for r in ranks[1:]:
            assert np.allclose(r, ranks[0])

    def test_connected_components_agree(self, graphs):
        labels = [connected_components(g) for g in graphs.values()]
        for lab in labels[1:]:
            assert np.array_equal(lab, labels[0])

    def test_triangle_count_agrees(self, graphs):
        counts = {n: triangle_count_csr(g) for n, g in graphs.items()}
        assert len(set(counts.values())) == 1, counts

    def test_bfs_agrees(self, graphs):
        dists = [bfs(g, 0) for g in graphs.values()]
        for d in dists[1:]:
            assert np.array_equal(d, dists[0])

    def test_deleting_the_non_core_vertices_agrees(self, symmetric_batch):
        """Every vertex-dynamic backend removes the same edges when the
        vertices outside the 3-core that have edges are deleted."""
        results = {}
        for name in ALL_BACKENDS:
            if not api.capabilities(name).vertex_dynamic:
                continue
            g = Graph.create(name, num_vertices=N)
            g.insert_edges(*symmetric_batch)
            outside = ~kcore_membership(g, 3) & (g.degree(np.arange(N)) > 0)
            victims = np.flatnonzero(outside)
            assert victims.size
            results[name] = (g.delete_vertices(victims), g.num_edges())
        assert len(results) >= 3  # slabhash, btree, faimgraph
        assert len(set(results.values())) == 1, results

    def test_as_snapshot_accepts_all_forms(self, graphs):
        g = graphs[ALL_BACKENDS[0]]
        snap = g.snapshot()
        assert as_snapshot(snap) is snap
        assert as_snapshot(g).num_edges == snap.num_edges
        assert as_snapshot(g.backend).num_edges == snap.num_edges


class TestRegistry:
    def test_aliases_resolve(self):
        for alias, name in (("ours", "slabhash"), ("dynamic", "slabhash"), ("faim", "faimgraph")):
            assert type(api.create(alias, num_vertices=4)) is type(api.create(name, num_vertices=4))
            assert api.capabilities(alias) == api.capabilities(name)
        assert type(api.create("SLABHASH", num_vertices=4)) is type(make("slabhash"))
        assert api.capabilities("Faim") == api.capabilities("faimgraph")

    def test_backend_names_are_the_sorted_canonical_five(self):
        assert api.backend_names() == ("btree", "faimgraph", "gpma", "hornet", "slabhash")

    def test_unknown_backend(self):
        with pytest.raises(ValidationError) as err:
            api.create("no-such-structure", num_vertices=4)
        for name in api.backend_names():
            assert name in str(err.value)
        with pytest.raises(ValidationError):
            api.capabilities("no-such-structure")

    def test_weighted_on_unweighted_backend_names_the_backend(self):
        with pytest.raises(ValidationError, match="'gpma' cannot store edge weights"):
            api.create("GPMA", num_vertices=4, weighted=True)

    @pytest.mark.parametrize("bad", [1.5, True, "8", None])
    def test_non_integral_num_vertices_rejected(self, bad):
        for name in ALL_BACKENDS:
            with pytest.raises(ValidationError):
                api.create(name, bad)
            assert api.create(name, 8.0).num_vertices == 8  # integral floats coerce

    def test_unregistered_backend_class_wraps_in_graph(self):
        """A structure outside the table needs no registration: the facade
        takes any ``GraphBackend`` instance."""

        class Toy(type(make("slabhash"))):
            pass

        g = Graph(Toy(num_vertices=8))
        g.insert_edges([0, 1], [1, 2])
        assert isinstance(g.backend, Toy)
        assert edge_set(g) == {(0, 1), (1, 2)}
        assert g.snapshot().num_edges == 2


# -- one argument pipeline: hostile input is rejected identically by all five ---------

#: ``2**32 + 2`` as a ``dst`` beside ``src=0`` packs to the composite key of
#: edge (1, 2); ``-1`` as a ``src`` wraps to vertex 15, which owns (15, 3).
HOSTILE_IDS = [-1, 16, 2**32 + 2, 2**63 - 1, 1.5, True, "1"]
PAIR_OPS = ("insert_edges", "delete_edges", "edge_exists", "edge_weights")
VERTEX_OPS = ("adjacencies", "degree", "delete_vertices")


def _hostile_calls():
    """``(label, call)`` for every public op × hostile argument."""
    for op in PAIR_OPS:
        for bad in HOSTILE_IDS:
            yield f"{op}(src={bad!r})", lambda g, op=op, bad=bad: getattr(g, op)([bad], [3])
            yield f"{op}(dst={bad!r})", lambda g, op=op, bad=bad: getattr(g, op)([0], [bad])
        yield f"{op}(length mismatch)", lambda g, op=op: getattr(g, op)([0, 1], [3])
    yield "insert_edges(weights on unweighted)", lambda g: g.insert_edges([0], [3], weights=[7])
    yield "insert_edges(weights length)", lambda g: g.insert_edges([0], [3], [7, 8])
    for bad in HOSTILE_IDS:
        yield f"neighbors({bad!r})", lambda g, bad=bad: g.neighbors(bad)
        yield f"neighbor_range({bad!r})", lambda g, bad=bad: g.neighbor_range(bad, 0, 16)
        for op in VERTEX_OPS:
            yield f"{op}([{bad!r}])", lambda g, op=op, bad=bad: getattr(g, op)([bad])
    yield "neighbors([1, 2])", lambda g: g.neighbors([1, 2])


HOSTILE_CALLS = dict(_hostile_calls())


def _applies(name, label) -> bool:
    """Ops a backend refuses from its capability flags read no argument."""
    caps = api.capabilities(name)
    return (
        (caps.vertex_dynamic or not label.startswith("delete_vertices"))
        and (caps.range_queries or not label.startswith("neighbor_range"))
        and (caps.weighted or "weights length" not in label)
    )


HOSTILE_CASES = [(n, label) for n in ALL_BACKENDS for label in HOSTILE_CALLS if _applies(n, label)]


def _two_edge_graph(name, weighted=False):
    g = api.create(name, 16, weighted=weighted)
    g.insert_edges([1, 15], [2, 3])
    return g


@pytest.mark.parametrize("name,label", HOSTILE_CASES)
def test_hostile_input_is_a_typed_error_and_changes_nothing(name, label):
    """Every backend, driven directly, checks every batch by the one rule
    in ``repro.api.backend`` — a typed error and an untouched structure,
    never an aliased key, a wrapped index or a raw ``IndexError``."""
    g = _two_edge_graph(name, weighted="weights length" in label)
    before = (g.num_edges(), g.mutation_version, edge_set(g))
    with counting() as charged:
        with pytest.raises(ValidationError):
            HOSTILE_CALLS[label](g)
    assert not any(charged.values()), (name, label, charged)
    assert (g.num_edges(), g.mutation_version, edge_set(g)) == before, (name, label)
    assert g.edge_exists([1, 15], [2, 3]).all(), (name, label)


@pytest.mark.parametrize("name", ALL_BACKENDS)
class TestOneArgumentPipeline:
    """What the template methods promise beyond rejecting bad input."""

    graph = staticmethod(_two_edge_graph)

    def test_facade_and_router_scalar_arguments(self, name):
        """``int()`` used to truncate 1.5 and serve vertex 1."""
        from repro.api import ShardedGraph

        facade = Graph(self.graph(name))
        router = ShardedGraph.create(name, 16, num_shards=2)
        router.insert_edges([1, 15], [2, 3])
        for target in (facade, router, facade.backend):
            for bad in (1.5, True, "1", -1, 16):
                with pytest.raises(ValidationError):
                    target.neighbors(bad)
            for ok in (1, 1.0, np.int32(1), np.int64(1)):
                assert target.neighbors(ok)[0].tolist() == [2], (name, ok)
        if facade.capabilities.range_queries:
            for bad in (1.5, True, "1"):
                with pytest.raises(ValidationError):
                    facade.neighbor_range(bad, 0, 16)
            assert facade.neighbor_range(1.0, 0, 16).tolist() == [2]

    def test_all_self_loop_insert_bumps_once_and_charges_nothing(self, name):
        g = self.graph(name)
        version, edges = g.mutation_version, edge_set(g)
        with counting() as charged:
            assert g.insert_edges([3, 4, 4], [3, 4, 4]) == 0
        assert g.mutation_version == version + 1, name
        assert not any(charged.values()), (name, charged)
        assert edge_set(g) == edges

    def test_empty_batches_return_typed_empties_and_charge_nothing(self, name):
        g = self.graph(name)
        version = g.mutation_version
        with counting() as charged:
            assert g.insert_edges([], []) == 0 and g.delete_edges([], []) == 0
            assert g.edge_exists([], []).dtype == bool
            found, weights = g.edge_weights([], [])
            assert found.dtype == bool and weights.dtype == np.int64
            assert g.degree([]).dtype == np.int64 and g.degree([]).shape == (0,)
            assert all(part.shape == (0,) for part in g.adjacencies([]))
            if api.capabilities(name).vertex_dynamic:
                assert g.delete_vertices([]) == 0
        assert not any(charged.values()), (name, charged)
        assert g.mutation_version == version

    def test_mutators_bump_exactly_once(self, name):
        g = self.graph(name)
        version = g.mutation_version
        g.insert_edges([4, 5, 5], [5, 4, 5])
        g.delete_edges([4], [5])
        assert g.mutation_version == version + 2, name
        if api.capabilities(name).vertex_dynamic:
            g.delete_vertices([15, 5])  # faimGraph's reverse-edge erase bumped again
            assert g.mutation_version == version + 3, name

    def test_degree_is_a_method_returning_an_owned_array(self, name):
        g = self.graph(name)
        out = g.degree([1, 15, 0])
        assert out.tolist() == [1, 1, 0] and out.dtype == np.int64
        out[:] = 99
        assert g.degree([1, 15, 0]).tolist() == [1, 1, 0], name

    def test_hooks_leave_the_callers_buffers_alone(self, name):
        """A self-loop-free batch reaches the hook uncopied, so a hook that
        wrote to its arrays would corrupt the caller's buffers and the
        event the facade publishes after it."""
        weighted = api.capabilities(name).weighted
        src = np.array([4, 5, 6, 4], dtype=np.int64)
        dst = np.array([5, 6, 7, 9], dtype=np.int64)
        w = np.array([3, 1, 2, 8], dtype=np.int64) if weighted else None
        kept = [a.copy() for a in (src, dst) + ((w,) if weighted else ())]
        for target in (self.graph(name, weighted), Graph(self.graph(name, weighted))):
            target.insert_edges(src, dst, w)
            target.delete_edges(src[:2], dst[:2])
            for got, want in zip((src, dst, w), kept):
                assert np.array_equal(got, want), name
        logged, _ = target.events.events_since(0)
        assert np.array_equal(logged[0].src, kept[0]) and np.array_equal(logged[0].dst, kept[1])


class TestNoSixthPipeline:
    """Structural guard: the rule lives in ``repro.api.backend`` only."""

    TEMPLATE_METHODS = (
        "insert_edges",
        "delete_edges",
        "edge_exists",
        "edge_weights",
        "neighbors",
        "adjacencies",
        "degree",
        "delete_vertices",
        "bulk_build",
    )

    def test_no_registry_class_overrides_a_template_method(self):
        from repro.api.sharding import ShardRouter

        for cls in [type(make(name)) for name in ALL_BACKENDS] + [ShardRouter]:
            shadowed = [m for m in self.TEMPLATE_METHODS if m in vars(cls)]
            assert not shadowed, f"{cls.__name__} overrides template method(s) {shadowed}"
            for method in self.TEMPLATE_METHODS:
                assert getattr(cls, method) is getattr(GraphBackend, method)

    def test_one_bulk_build_and_one_empty_check(self):
        """``GraphBackend.bulk_build`` is the one backend build; the
        ``Graph`` facade's is the publishing wrapper over it."""
        import ast
        from pathlib import Path

        import repro

        root = Path(repro.__file__).parent
        defined, refusing = [], []
        for path in sorted(root.rglob("*.py")):
            text = path.read_text()
            rel = path.relative_to(root).as_posix()
            for node in ast.walk(ast.parse(text)):
                if isinstance(node, ast.FunctionDef) and node.name == "bulk_build":
                    defined.append(rel)
            if "requires an empty graph" in text:
                refusing.append(rel)
        assert defined == ["api/backend.py", "api/facade.py"]
        assert refusing == ["api/backend.py"]

    def test_structures_do_not_import_the_validators(self):
        import ast
        from pathlib import Path

        import repro

        root = Path(repro.__file__).parent
        for path in sorted([*(root / "baselines").glob("*.py"), *(root / "btree").glob("*.py")]):
            for node in ast.walk(ast.parse(path.read_text())):
                modules = []
                if isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""]
                    if node.module == "repro.util":
                        modules += [f"repro.util.{alias.name}" for alias in node.names]
                elif isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                assert "repro.util.validation" not in modules, (
                    f"{path.relative_to(root)} imports repro.util.validation: argument "
                    "checks belong to the GraphBackend template methods"
                )


# -- bulk_build: the template's one check and one version step ------------------------

BULK_KINDS = ["graph", pytest.param("sharded", marks=pytest.mark.chaos)]


def _bulk_subject(kind, name):
    """A 10-vertex ``Graph``, or a ``ShardedGraph`` of two shards."""
    from repro.api import ShardedGraph

    weighted = api.capabilities(name).weighted
    if kind == "graph":
        return Graph.create(name, 10, weighted=weighted)
    return ShardedGraph.create(name, 10, num_shards=2, weighted=weighted)


def _refused_builds(name):
    """``label -> (coo, populate first)`` for each build the template refuses."""
    negative = COO([1, 2], [2, 3], 10)
    negative.src[0] = -1  # a COO checks its ids when made; its arrays stay writable
    cases = {
        "ids past the graph": (COO([1, 15, 3], [2, 3, 3], 20), False),
        "a dst past the graph": (COO([1, 2], [2, 12], 20), False),
        "a negative id": (negative, False),
        "a non-empty graph": (COO([1], [2], 10), True),
    }
    if name == "slabhash":  # 32-bit value lanes; the others store any int64
        for w in (-1, 2**32):
            cases[f"weight {w}"] = (COO([1, 2], [2, 3], 10, weights=[5, w]), False)
    return cases


def _bulk_trace(g):
    """Everything a refused build must leave as it was."""
    shards = getattr(g, "shards", [])
    return (
        g.num_edges(),
        g.mutation_version,
        len(g.events),
        [(s.num_edges(), s.mutation_version, len(s.events)) for s in shards],
        dict(getattr(g, "fault_stats", {})),
    )


@pytest.mark.parametrize("kind", BULK_KINDS)
@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_a_refused_bulk_build_changes_nothing(kind, name):
    """Ids outside the graph, a negative id, an unstorable weight or a
    populated graph are one ``ValidationError`` on every backend, before
    any step: the slab hash used to grow its vertex space, Hornet and
    faimGraph raised ``IndexError`` (which degraded a shard), GPMA stored
    an edge outside its graph, and a shard applied its share before
    another refused.  A caller's error is never a shard fault."""
    for label, (coo, populate) in _refused_builds(name).items():
        g = _bulk_subject(kind, name)
        if populate:
            g.insert_edges([4], [5])
        before = _bulk_trace(g)
        with pytest.raises(ValidationError):
            g.bulk_build(coo)
        assert _bulk_trace(g) == before, (name, label)
        assert g.num_vertices == 10, (name, label)
        assert all(h == "healthy" for h in getattr(g, "health", [])), (name, label)


@pytest.mark.parametrize("kind", ["graph", "sharded"])
@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_an_accepted_bulk_build_is_one_version_step(kind, name):
    """One step and one event whatever the build stores: the B-tree took
    none on an empty COO and the slab hash two on a non-empty one."""
    builds = {
        "empty": (COO([], [], 10), 0),
        "all self-loops": (COO([3, 7], [3, 7], 10), 0),
        "rows": (COO([1, 2, 2, 5, 5], [2, 3, 3, 5, 9], 10), 3),
    }
    for label, (coo, stored) in builds.items():
        g = _bulk_subject(kind, name)
        version, events = g.mutation_version, len(g.events)
        assert g.bulk_build(coo) == stored, (name, label)
        assert g.num_edges() == stored, (name, label)
        assert (g.mutation_version, len(g.events)) == (version + 1, events + 1), (name, label)


# -- the same rule through the facade, the router and a durable service ----------------

#: Ids each boundary must reject: negative, the first out-of-range id, one
#: far past any packing, fractional, boolean.
BOUNDARY_IDS = [-1, 16, 2**40, 1.5, True]
BOUNDARY_OPS = ("insert_edges", "delete_edges", "edge_exists")


def _boundary_calls():
    """``(label, call)`` for every boundary op × hostile argument."""
    for op in BOUNDARY_OPS:
        for bad in BOUNDARY_IDS:
            yield f"{op}(src={bad!r})", lambda g, op=op, bad=bad: getattr(g, op)([bad], [3])
            yield f"{op}(dst={bad!r})", lambda g, op=op, bad=bad: getattr(g, op)([0], [bad])
            # A self-loop is dropped before the backend sees it: still checked.
            yield f"{op}(loop {bad!r})", lambda g, op=op, bad=bad: getattr(g, op)([bad], [bad])
        yield f"{op}(loop beside an edge)", lambda g, op=op: getattr(g, op)([0, 16], [3, 16])
        yield f"{op}(length mismatch)", lambda g, op=op: getattr(g, op)([0, 1], [3])
    for w in (-1, 2**32, 2**33 + 5):
        yield f"insert_edges(weight {w})", lambda g, w=w: g.insert_edges([0, 1], [3, 2], [1, w])
    yield "insert_edges(weights length)", lambda g: g.insert_edges([0], [3], [7, 8])


BOUNDARY_CALLS = dict(_boundary_calls())


def _durable_service(name, weighted, tmp_path):
    from repro.api import ShardedGraph

    service = ShardedGraph.create(name, 16, num_shards=2, weighted=weighted)
    service.attach_durability(tmp_path / "stores", fsync="never")
    return service


def _subject(kind, name, tmp_path):
    from repro.api import ShardedGraph

    weighted = api.capabilities(name).weighted
    if kind == "facade":
        return Graph.create(name, 16, weighted=weighted)
    if kind == "router":
        return ShardedGraph.create(name, 16, num_shards=2, weighted=weighted)
    return _durable_service(name, weighted, tmp_path)


def _trace(g, tmp_path):
    """Everything a rejected batch must leave as it was."""
    logs = [g.events] + [shard.events for shard in getattr(g, "shards", [])]
    stores = getattr(g, "stores", None)
    if stores is not None:
        stores.sync()
    wal_bytes = sum(p.stat().st_size for p in tmp_path.rglob("*") if p.is_file())
    return g.mutation_version, [len(log) for log in logs], wal_bytes, edge_set(g)


@pytest.mark.parametrize("kind", ["facade", "router", "durable"])
@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_a_rejected_batch_leaves_no_trace(kind, name, tmp_path):
    """The facade only coerces and the shard facades only coerce; the
    check they hand over (to the backend template, or to the router before
    it routes) must still reject every hostile batch before a version
    bump, an event, a WAL record or a modeled charge."""
    g = _subject(kind, name, tmp_path)
    g.insert_edges([1, 15], [2, 3])
    before = _trace(g, tmp_path)
    for label, call in BOUNDARY_CALLS.items():
        rejects_weight = "weight " in label and api.capabilities(name).weighted
        if rejects_weight and name != "slabhash":
            continue  # stored exactly there (test_weights_are_stored_exactly_or_rejected)
        with counting() as charged:
            with pytest.raises(ValidationError):
                call(g)
        assert not any(charged.values()), (kind, name, label, charged)
        assert _trace(g, tmp_path) == before, (kind, name, label)


#: In range for the 32-bit value lanes, then one past each end, then
#: values the cast used to wrap onto 5 and 9.
WEIGHTS = [0, 7, 2**32 - 1, -1, 2**32, 2**33 + 5, 2**40 + 9]
WEIGHTED_BACKENDS = [n for n in ALL_BACKENDS if api.capabilities(n).weighted]


def _weighted_routes(name):
    """``(label, build)``: each way a weight reaches a structure."""
    from repro.api import ShardedGraph

    def facade(w):
        g = Graph.create(name, 4, weighted=True)
        return g, lambda: g.insert_edges([0, 1], [1, 2], [5, w])

    def raw(w):
        g = api.create(name, 4, weighted=True)
        return g, lambda: g.insert_edges([0, 1], [1, 2], [5, w])

    def bulk(w):
        g = Graph.create(name, 4, weighted=True)
        return g, lambda: g.bulk_build(COO([0, 1], [1, 2], 4, weights=[5, w]))

    def restore(w):
        g = Graph.create(name, 4, weighted=True)
        snap = CSRSnapshot.from_coo(COO([0, 1], [1, 2], 4, weights=[5, w]))
        return g, lambda: g.restore_snapshot(snap)

    def router(w):
        g = ShardedGraph.create(name, 4, num_shards=2, weighted=True)
        return g, lambda: g.insert_edges([0, 1], [1, 2], [5, w])

    def router_bulk(w):
        g = ShardedGraph.create(name, 4, num_shards=2, weighted=True)
        return g, lambda: g.bulk_build(COO([0, 1], [1, 2], 4, weights=[5, w]))

    return [facade, raw, bulk, restore, router, router_bulk]


@pytest.mark.parametrize("name", WEIGHTED_BACKENDS)
def test_weights_are_stored_exactly_or_rejected(name):
    """A weight is either read back exactly or refused with a typed error
    that leaves the structure empty and unversioned — the slab-hash value
    lanes used to wrap -1 to 4294967295 and 2**33 + 5 to 5."""
    for route in _weighted_routes(name):
        for w in WEIGHTS:
            g, apply = route(w)
            version = g.mutation_version
            try:
                apply()
            except ValidationError:
                assert name == "slabhash" and not 0 <= w < 2**32, (name, route.__name__, w)
                assert g.mutation_version == version and g.num_edges() == 0
                assert len(getattr(g, "events", ())) == 0
                continue
            assert name != "slabhash" or 0 <= w < 2**32, (name, route.__name__, w)
            found, got = g.edge_weights([0, 1], [1, 2])
            assert found.all() and got.tolist() == [5, w], (name, route.__name__, w)


@pytest.mark.parametrize("name", WEIGHTED_BACKENDS)
def test_an_empty_weighted_export_carries_weights(name):
    """B-tree and faimGraph exported ``weights=None`` while empty, so a
    weighted ``ShardedGraph`` with one empty shard could not export."""
    from repro.api import ShardedGraph

    weights = Graph.create(name, 4, weighted=True).export_coo().weights
    assert weights is not None and weights.shape == (0,), name
    service = ShardedGraph.create(name, 16, num_shards=2, weighted=True)
    service.insert_edges([1, 15], [2, 3], [4, 5])
    assert sorted(service.export_coo().weights.tolist()) == [4, 5], name


def test_shortest_paths_agree_or_the_weight_is_refused():
    """The wrap's visible symptom: sssp over edges (0->1, 5), (1->2, -2)
    answered 4294967299 for vertex 2 on the slab-hash structure."""
    from repro.analytics.sssp import sssp

    hornet = Graph.create("hornet", 4, weighted=True)
    hornet.insert_edges([0, 1], [1, 2], [5, -2])
    assert sssp(hornet, 0).tolist() == [0, 5, 3, -1]
    slabhash = Graph.create("slabhash", 4, weighted=True)
    with pytest.raises(ValidationError, match="weights"):
        slabhash.insert_edges([0, 1], [1, 2], [5, -2])


# -- one id check per boundary, pinned by counting -----------------------------------------


@pytest.fixture
def id_checks(monkeypatch):
    """Count calls of ``checked_ids`` through every ``repro.*`` binding of
    it; the list holds each call's column names."""
    import sys

    from repro.api import backend

    original = backend.checked_ids
    calls = []

    def counted(num_vertices, **columns):
        calls.append(tuple(columns))
        return original(num_vertices, **columns)

    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, key, counted)
    return calls


class TestOneIdCheckPerBoundary:
    """A batch's ids are range-checked once per layer that needs them in
    range: the backend template under a ``Graph``, and under a
    ``ShardedGraph`` the router (it routes by id) plus each shard's
    template.  A re-added duplicate check fails here."""

    # Sources on two of four shards; the self-loop's source alone owns a third.
    SRC = [0, 1, 3, 5, 7, 8, 2]
    DST = [1, 2, 4, 6, 8, 9, 2]
    VICTIMS = [1, 8]

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_graph_mutations_check_once(self, name, id_checks):
        g = Graph.create(name, 16)
        for op in ("insert_edges", "delete_edges"):
            id_checks.clear()
            getattr(g, op)(self.SRC, self.DST)
            assert id_checks == [("src", "dst")], (name, op)

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_routed_mutations_check_once_plus_once_per_shard(self, name, id_checks):
        from repro.api import ShardedGraph

        g = ShardedGraph.create(name, 16, num_shards=4)
        src, dst = np.array(self.SRC), np.array(self.DST)
        loops = src == dst
        reached = np.unique(g.partitioner.shard_of(src[~loops])).size
        assert 1 < reached < 4  # the batch reaches some shards, not all
        for op in ("insert_edges", "delete_edges"):
            id_checks.clear()
            getattr(g, op)(src, dst)
            assert id_checks == [("src", "dst")] * (1 + reached), (name, op)

    @pytest.mark.parametrize("name", VERTEX_DYNAMIC)
    def test_vertex_deletion_checks_once(self, name, id_checks):
        g = Graph.create(name, 16)
        g.insert_edges(self.SRC, self.DST)
        id_checks.clear()
        g.delete_vertices(self.VICTIMS)
        assert id_checks == [("vertex_ids",)], name

    @pytest.mark.parametrize("name", VERTEX_DYNAMIC)
    def test_routed_vertex_deletion_checks_once_per_template(self, name, id_checks):
        """The router's template, each owner shard's ``adjacencies`` (the
        router reads the victims' out-neighbours), and every shard's
        ``delete_vertices`` template — the shards' facades check nothing."""
        from repro.api import ShardedGraph

        g = ShardedGraph.create(name, 16, num_shards=4)
        g.insert_edges(self.SRC, self.DST)
        owners = np.unique(g.partitioner.shard_of(np.array(self.VICTIMS))).size
        id_checks.clear()
        g.delete_vertices(self.VICTIMS)
        vertex_checks = [c for c in id_checks if c == ("vertex_ids",)]
        assert len(vertex_checks) == 1 + owners + g.num_shards, name

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_queries_keep_their_checks(self, name, id_checks):
        from repro.api import ShardedGraph

        g = Graph.create(name, 16)
        g.edge_exists(self.SRC, self.DST)
        g.degree(self.SRC)
        assert id_checks == [("src", "dst"), ("vertex_ids",)], name
        id_checks.clear()
        routed = ShardedGraph.create(name, 16, num_shards=4)
        reached = np.unique(routed.partitioner.shard_of(np.array(self.SRC))).size
        routed.edge_exists(self.SRC, self.DST)
        assert id_checks == [("src", "dst")] * (1 + reached), name


def test_a_snapshot_applies_the_one_id_rule(tmp_path):
    """``adjacencies([-2])`` and ``neighbors(-2)`` used to index ``row_ptr``
    from its end and answer with vertex 3's row; ``neighbors(-1)`` raised a
    bare ``ValueError``.  Every way a snapshot is built refuses both."""
    from repro.api import ShardedGraph
    from repro.persist import load_checkpoint, write_checkpoint

    g = Graph.create("slabhash", 4)
    g.insert_edges([3, 3], [0, 2])
    cold = g.snapshot()
    g.insert_edges([1], [2])
    merged = g.snapshot()
    sharded = ShardedGraph.create("slabhash", 4, num_shards=2)
    sharded.insert_edges([3, 3], [0, 2])
    manifest = write_checkpoint(tmp_path, cold, seq=0, backend="slabhash", weighted=False)
    snaps = {
        "cold": cold,
        "merged": merged,
        "assembled": sharded.snapshot(),
        "loaded": load_checkpoint(manifest.path)[0],
    }
    for kind, snap in snaps.items():
        assert snap.neighbors(3)[0].tolist() == [0, 2], kind
        for bad in (-1, -2, 4):
            with pytest.raises(ValidationError, match="must be in"):
                snap.adjacencies([bad])
            with pytest.raises(ValidationError, match="must be in"):
                snap.neighbors(bad)


class TestSnapshotIdRule:
    """``CSRSnapshot.adjacencies`` / ``neighbors`` apply the facade's id
    rule (``checked_ids`` / the scalar ``_checked_id``): a scalar id used
    to raise a raw ``IndexError``, ``None`` and ``"x"`` a raw ``TypeError``
    / ``ValueError``, and a 2-D id array answered with empty arrays."""

    @pytest.fixture
    def graph_and_snapshot(self):
        g = Graph.create("slabhash", 6, weighted=True)
        g.insert_edges([3, 3, 1], [0, 2, 4], weights=[5, 6, 7])
        return g, g.snapshot()

    def test_a_scalar_id_answers_like_the_facade(self, graph_and_snapshot):
        g, snap = graph_and_snapshot
        for got, want in zip(snap.adjacencies(3), g.adjacencies(3)):
            assert sorted(got.tolist()) == sorted(want.tolist())
        assert snap.adjacencies(3)[1].tolist() == [0, 2]

    @pytest.mark.parametrize(
        "bad", [None, "x", np.array([[1, 3]]), [1.5], [True], np.array([3], dtype=object)], ids=repr
    )
    def test_a_malformed_id_batch_is_a_validation_error(self, graph_and_snapshot, bad):
        g, snap = graph_and_snapshot
        with pytest.raises(ValidationError):
            g.adjacencies(bad)
        with pytest.raises(ValidationError):
            snap.adjacencies(bad)

    @pytest.mark.parametrize("bad", [None, "x", 1.5, True, [1, 3], -1, 6], ids=repr)
    def test_a_malformed_vertex_is_a_validation_error(self, graph_and_snapshot, bad):
        g, snap = graph_and_snapshot
        with pytest.raises(ValidationError):
            g.neighbors(bad)
        with pytest.raises(ValidationError):
            snap.neighbors(bad)
