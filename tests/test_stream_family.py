"""The delta-aware analytics family: incremental TC, BFS/SSSP, k-core.

Mirrors the CC/PageRank contract suites: on every registered backend,
every new incremental analytic's answer is bit-identical to the cold
kernel on the live snapshot after insert-heavy, delete, churn, and
out-of-band-mutation windows — the incremental path is an optimization,
never an approximation.  The shared-kernel regression pins the Table IX
dynamic TC and the streaming TC to one wedge-closure kernel.
"""

import ast
import inspect
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
import repro.api as api
import repro.stream.incremental as incremental
from repro.analytics import (
    bfs,
    connected_components,
    dynamic_triangle_count,
    kcore_membership,
    pagerank,
    sssp,
    undirected_triangles,
)
from repro.api import Graph
from repro.api.snapshot import CSRSnapshot
from repro.gpusim.counters import counting
from repro.stream import (
    IncrementalBFS,
    IncrementalConnectedComponents,
    IncrementalKCore,
    IncrementalPageRank,
    IncrementalSSSP,
    IncrementalTriangleCount,
    insert_heavy_scenario,
    mixed_scenario,
    quick_scenarios,
    run_scenario,
)
from repro.util.errors import ValidationError

ALL_BACKENDS = sorted(api.backend_names())

#: The family members the unweighted scenario gate prices.
UNWEIGHTED_FAMILY = ("cc", "pagerank", "tc", "bfs", "kcore")


def cold_snapshot(g) -> CSRSnapshot:
    """The cold reference view: a from-scratch sort of the live edge set."""
    return CSRSnapshot.from_coo(g.backend.export_coo())


def make_family(g, source=0, k=3):
    """All four new analytics attached to one facade (sssp iff weighted)."""
    fam = {
        "tc": IncrementalTriangleCount(g),
        "bfs": IncrementalBFS(g, source=source),
        "kcore": IncrementalKCore(g, k=k),
    }
    if g.weighted:
        fam["sssp"] = IncrementalSSSP(g, source=source)
    return fam


def assert_family_exact(g, fam, expect_modes=None, tc_modes=None):
    """Every member equals its cold kernel on the live snapshot
    (``tc_modes`` overrides ``expect_modes`` for the triangle count)."""
    snap = cold_snapshot(g)
    answers = {
        "tc": (fam["tc"].count(), undirected_triangles(snap)),
        "bfs": (fam["bfs"].distances(), bfs(snap, fam["bfs"].source)),
        "kcore": (fam["kcore"].members(), kcore_membership(snap, fam["kcore"].k)),
    }
    if "sssp" in fam:
        answers["sssp"] = (fam["sssp"].distances(), sssp(snap, fam["sssp"].source))
    for name, (got, cold) in answers.items():
        if name == "tc":
            assert got == cold, (name, got, cold)
        else:
            assert np.array_equal(got, cold), name
    if expect_modes is not None:
        for name, inc in fam.items():
            allowed = tc_modes if name == "tc" and tc_modes else expect_modes
            assert inc.last_mode in allowed, (name, inc.last_mode)


@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_family_exact_through_all_window_kinds(name):
    """The acceptance bar: exactness through insert-heavy, delete, churn,
    and out-of-band windows, on every backend."""
    n = 128
    rng = np.random.default_rng(11)
    weighted = api.capabilities(name).weighted
    g = Graph.create(name, num_vertices=n, weighted=weighted)

    def weights(size):
        return rng.integers(1, 50, size) if weighted else None

    g.insert_edges(rng.integers(0, n, 300), rng.integers(0, n, 300), weights(300))
    fam = make_family(g)
    assert_family_exact(g, fam)  # initial cold build

    for _ in range(3):  # insert-heavy windows fold incrementally
        g.insert_edges(rng.integers(0, n, 40), rng.integers(0, n, 40), weights(40))
        assert_family_exact(g, fam, expect_modes=("incremental", "cold"))

    assert_family_exact(g, fam, expect_modes=("cached",))  # no new events

    # Delete window: TC folds the net window, every other member re-runs cold.
    coo = g.export_coo()
    g.delete_edges(coo.src[:60], coo.dst[:60])
    assert_family_exact(g, fam, expect_modes=("cold",), tc_modes=("incremental",))

    g.insert_edges([1, 2], [2, 3], weights(2))  # cold pass re-anchored the cursor
    assert_family_exact(g, fam, expect_modes=("incremental", "cold"))

    if g.capabilities.vertex_dynamic:  # churn window: structural → cold
        g.delete_vertices([5, 6, 7])
        assert_family_exact(g, fam, expect_modes=("cold",))

    # Out-of-band mutation bypassing the facade: the version check must
    # catch it even though no event was published.
    if weighted:
        g.backend.insert_edges(np.array([0]), np.array([100]), np.array([7]))
    else:
        g.backend.insert_edges(np.array([0]), np.array([100]))
    assert_family_exact(g, fam, expect_modes=("cold",))


@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_family_exact_after_every_phase_every_quick_scenario(name):
    """Scenario-level contract: validate=True re-derives the cold
    references after every phase with the whole family subscribed."""
    for scn in quick_scenarios():
        run_scenario(
            scn,
            name,
            mode="incremental",
            tol=1e-10,
            max_iters=500,
            validate=True,
            analytics=UNWEIGHTED_FAMILY,
        )
    if api.capabilities(name).weighted:
        wscn = insert_heavy_scenario(1 << 10, batch=64, rounds=2, weighted=True)
        run_scenario(
            wscn,
            name,
            mode="incremental",
            tol=1e-10,
            max_iters=500,
            validate=True,
            analytics=("cc", "pagerank", "tc", "bfs", "sssp", "kcore"),
        )


class TestIncrementalTriangleCount:
    def make(self, n=96, seed=5, directed=True):
        rng = np.random.default_rng(seed)
        g = Graph.create("slabhash", num_vertices=n, directed=directed)
        g.insert_edges(rng.integers(0, n, 250), rng.integers(0, n, 250))
        return g, rng

    def test_insert_only_stays_incremental_and_exact(self):
        g, rng = self.make()
        tc = IncrementalTriangleCount(g)
        for _ in range(4):
            g.insert_edges(rng.integers(0, 96, 25), rng.integers(0, 96, 25))
            got = tc.count()
            assert tc.last_mode == "incremental"
            assert got == undirected_triangles(cold_snapshot(g))

    def test_duplicate_and_reversed_inserts_change_nothing(self):
        g, _ = self.make()
        tc = IncrementalTriangleCount(g)
        before = tc.count()
        coo = g.export_coo()
        # Re-insert existing edges and their reversals: the undirected
        # view is unchanged, so the count must not move.
        g.insert_edges(coo.src[:30], coo.dst[:30])
        g.insert_edges(coo.dst[:30], coo.src[:30])
        assert tc.count() == before == undirected_triangles(cold_snapshot(g))
        assert tc.last_mode == "incremental"

    def test_batch_closing_its_own_triangle_counted_once(self):
        g = Graph.create("slabhash", num_vertices=8)
        g.insert_edges([6], [7])
        tc = IncrementalTriangleCount(g)
        assert tc.count() == 0
        # All three edges of a triangle arrive in one batch (plus a
        # duplicate orientation): exactly one new triangle.
        g.insert_edges([0, 1, 2, 1], [1, 2, 0, 0], None)
        assert tc.count() == 1
        assert tc.last_mode == "incremental"
        # Two batches each closing wedges against the other's edges:
        # {0,1,3}, {0,2,3}, {1,2,3} join the original {0,1,2}.
        g.insert_edges([0, 1], [3, 3])
        g.insert_edges([2, 3], [3, 4])
        assert tc.count() == undirected_triangles(cold_snapshot(g)) == 4

    def test_delete_goes_cold_then_reanchors(self):
        """Only *structural* deletes go cold now: a pure edge-delete window
        folds, a vertex-delete window rebuilds and re-anchors the cursor."""
        g, rng = self.make()
        tc = IncrementalTriangleCount(g)
        coo = g.export_coo()
        g.delete_edges(coo.src[:40], coo.dst[:40])
        assert tc.count() == undirected_triangles(cold_snapshot(g))
        assert tc.last_mode == "incremental"
        g.delete_vertices([3, 4])
        assert tc.count() == undirected_triangles(cold_snapshot(g))
        assert tc.last_mode == "cold"
        g.insert_edges(rng.integers(0, 96, 10), rng.integers(0, 96, 10))
        assert tc.count() == undirected_triangles(cold_snapshot(g))
        assert tc.last_mode == "incremental"

    def test_net_window_cases_fold_incrementally(self):
        """One window mixing every no-op and net-change shape."""
        g = Graph.create("slabhash", num_vertices=8)
        g.insert_edges([0, 1, 2, 2, 3, 4], [1, 2, 0, 3, 2, 5])  # triangle {0,1,2}; 2<->3 both ways
        tc = IncrementalTriangleCount(g)
        assert tc.count() == 1
        g.delete_edges([6], [7])  # absent edge
        g.insert_edges([1, 0], [0, 1])  # reversed duplicate + upsert of a live key
        g.insert_edges([3], [0])  # insert then delete within the window
        g.delete_edges([3], [0])
        g.delete_edges([1], [2])  # delete then re-insert: {0,1,2} survives
        g.insert_edges([1], [2])
        g.delete_edges([2], [3])  # one orientation leaves, 3->2 keeps {2,3} alive
        g.insert_edges([1], [3])  # ... so this closes {1,2,3}
        g.delete_edges([4], [5])
        assert tc.count() == undirected_triangles(cold_snapshot(g)) == 2
        assert tc.last_mode == "incremental"
        g.delete_edges([3, 0], [2, 1])  # last orientation of {2,3}; 1->0 keeps {0,1}
        assert tc.count() == undirected_triangles(cold_snapshot(g)) == 1
        assert tc.last_mode == "incremental"

    def test_failed_fold_is_not_served_as_fresh(self, monkeypatch):
        g, rng = self.make()
        tc = IncrementalTriangleCount(g)
        real, calls = incremental.closing_wedges, []

        def raise_once(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise MemoryError("injected")
            return real(*args, **kwargs)

        monkeypatch.setattr(incremental, "closing_wedges", raise_once)
        g.insert_edges(rng.integers(0, 96, 25), rng.integers(0, 96, 25))
        with pytest.raises(MemoryError):
            tc.count()
        assert tc.count() == undirected_triangles(cold_snapshot(g))
        assert tc.last_mode == "cold"

    def test_undirected_facade(self):
        g, rng = self.make(directed=False)
        tc = IncrementalTriangleCount(g)
        for _ in range(3):
            g.insert_edges(rng.integers(0, 96, 20), rng.integers(0, 96, 20))
            assert tc.count() == undirected_triangles(cold_snapshot(g))
            assert tc.last_mode == "incremental"

    def test_retention_gap_forces_cold(self):
        g = Graph.create("slabhash", num_vertices=32, event_retention=4)
        g.insert_edges([0, 1], [1, 2])
        tc = IncrementalTriangleCount(g)
        tc.count()
        # One batch larger than retention: trimmed immediately, the
        # cursor observes a gap instead of the events.
        rng = np.random.default_rng(0)
        g.insert_edges(rng.integers(0, 32, 12), rng.integers(0, 32, 12))
        assert tc.count() == undirected_triangles(cold_snapshot(g))
        assert tc.last_mode == "cold"


class TestIncrementalDistances:
    def make(self, n=96, seed=7, weighted=True):
        rng = np.random.default_rng(seed)
        g = Graph.create("slabhash", num_vertices=n, weighted=weighted)
        w = rng.integers(1, 60, 260) if weighted else None
        g.insert_edges(rng.integers(0, n, 260), rng.integers(0, n, 260), w)
        return g, rng

    def test_bfs_insert_only_stays_incremental_and_exact(self):
        g, rng = self.make(weighted=False)
        inc = IncrementalBFS(g, source=3)
        for _ in range(4):
            g.insert_edges(rng.integers(0, 96, 25), rng.integers(0, 96, 25))
            got = inc.distances()
            assert inc.last_mode == "incremental"
            assert np.array_equal(got, bfs(cold_snapshot(g), 3))

    def test_bfs_newly_reachable_region(self):
        g = Graph.create("slabhash", num_vertices=8)
        g.insert_edges([0, 4, 5], [1, 5, 6])  # 4-5-6 unreachable from 0
        inc = IncrementalBFS(g)
        assert inc.distances().tolist() == [0, 1, -1, -1, -1, -1, -1, -1]
        g.insert_edges([1], [4])  # bridges the far component
        assert inc.distances().tolist() == [0, 1, -1, -1, 2, 3, 4, -1]
        assert inc.last_mode == "incremental"

    def test_sssp_insert_only_stays_incremental_and_exact(self):
        g, rng = self.make()
        inc = IncrementalSSSP(g, source=3)
        for _ in range(4):
            # Fresh vertex pairs mostly; grown upserts on duplicate keys
            # legitimately force cold, asserted separately below.
            got_mode_exact = None
            g.insert_edges(
                rng.integers(0, 96, 25), rng.integers(0, 96, 25), rng.integers(1, 60, 25)
            )
            got = inc.distances()
            got_mode_exact = inc.last_mode
            assert got_mode_exact in ("incremental", "cold")
            assert np.array_equal(got, sssp(cold_snapshot(g), 3))

    def test_sssp_shrinking_upsert_repairs_incrementally(self):
        g = Graph.create("slabhash", num_vertices=6, weighted=True)
        g.insert_edges([0, 1, 0], [1, 2, 2], [4, 4, 20])
        inc = IncrementalSSSP(g)
        assert inc.distances().tolist() == [0, 4, 8, -1, -1, -1]
        g.insert_edges([0], [2], [5])  # weight 20 → 5: distances only drop
        assert inc.distances().tolist() == [0, 4, 5, -1, -1, -1]
        assert inc.last_mode == "incremental"

    def test_sssp_growing_upsert_falls_back_cold(self):
        g = Graph.create("slabhash", num_vertices=6, weighted=True)
        g.insert_edges([0, 1, 0], [1, 2, 2], [4, 4, 5])
        inc = IncrementalSSSP(g)
        assert inc.distances().tolist() == [0, 4, 5, -1, -1, -1]
        g.insert_edges([0], [2], [20])  # weight 5 → 20: paths can lengthen
        assert inc.distances().tolist() == [0, 4, 8, -1, -1, -1]
        assert inc.last_mode == "cold"

    def test_delete_goes_cold(self):
        g, _ = self.make()
        inc = IncrementalSSSP(g, source=3)
        coo = g.export_coo()
        g.delete_edges(coo.src[:50], coo.dst[:50])
        assert np.array_equal(inc.distances(), sssp(cold_snapshot(g), 3))
        assert inc.last_mode == "cold"

    def test_sssp_requires_weighted_graph(self):
        g, _ = self.make(weighted=False)
        with pytest.raises(ValidationError):
            IncrementalSSSP(g)

    def test_source_out_of_range_rejected(self):
        g, _ = self.make(n=16)
        with pytest.raises(ValidationError):
            IncrementalBFS(g, source=16)
        with pytest.raises(ValidationError):
            IncrementalBFS(g, source=-1)

    @pytest.mark.parametrize("source", [1.5, True, "1"])
    @pytest.mark.parametrize("cls", [IncrementalBFS, IncrementalSSSP])
    def test_non_integral_source_rejected_not_truncated(self, cls, source):
        """``1.5`` and ``True`` used to become vertex 1."""
        g, _ = self.make(n=16)
        with pytest.raises(ValidationError):
            cls(g, source=source)

    def test_undirected_window_mirrors_pending_edges(self):
        g = Graph.create("slabhash", num_vertices=6, weighted=True, directed=False)
        g.insert_edges([0], [1], [3])
        inc = IncrementalSSSP(g)
        # The event carries (2, 0) once; the repair must also relax the
        # mirrored (0, 2) orientation the undirected backend stored.
        g.insert_edges([2], [0], [7])
        assert inc.distances().tolist() == [0, 3, 7, -1, -1, -1]
        assert inc.last_mode == "incremental"

    def test_undirected_reversed_upsert_wins_in_both_orientations(self):
        """Two batches upserting one undirected edge in opposite
        orientations: the later weight holds both ways.  The window used to
        be mirrored as a whole, so the earlier batch's mirror row came last
        for 3 -> 1 and the repair relaxed it at the stale weight 5."""
        g = Graph.create("slabhash", num_vertices=6, weighted=True, directed=False)
        g.insert_edges([0], [3], [1])
        inc = IncrementalSSSP(g)
        assert inc.distances().tolist() == [0, -1, -1, 1, -1, -1]
        g.insert_edges([1], [3], [5])
        g.insert_edges([3], [1], [1])
        assert inc.distances().tolist() == sssp(cold_snapshot(g), 0).tolist() == [0, 2, -1, 1, -1, -1]
        assert inc.last_mode == "incremental"


class TestIncrementalKCore:
    def make(self, n=96, seed=13):
        rng = np.random.default_rng(seed)
        g = Graph.create("slabhash", num_vertices=n)
        g.insert_edges(rng.integers(0, n, 300), rng.integers(0, n, 300))
        return g, rng

    def test_insert_only_stays_incremental_and_exact(self):
        g, rng = self.make()
        kc = IncrementalKCore(g, k=3)
        for _ in range(4):
            g.insert_edges(rng.integers(0, 96, 30), rng.integers(0, 96, 30))
            got = kc.members()
            assert kc.last_mode == "incremental"
            assert np.array_equal(got, kcore_membership(cold_snapshot(g), 3))

    def test_promotion_cascade_through_new_edges(self):
        # A directed 3-cycle with k=2: each vertex needs out-degree 2
        # within the core, reached only once the chords arrive.
        g = Graph.create("slabhash", num_vertices=6)
        g.insert_edges([0, 1, 2], [1, 2, 0])
        kc = IncrementalKCore(g, k=2)
        assert not kc.members().any()
        g.insert_edges([0, 1, 2], [2, 0, 1])  # now a complete digraph on 3
        got = kc.members()
        assert kc.last_mode == "incremental"
        assert got.tolist() == [True, True, True, False, False, False]
        assert np.array_equal(got, kcore_membership(cold_snapshot(g), 2))

    def test_delete_goes_cold_then_reanchors(self):
        g, rng = self.make()
        kc = IncrementalKCore(g, k=3)
        coo = g.export_coo()
        g.delete_edges(coo.src[:60], coo.dst[:60])
        assert np.array_equal(kc.members(), kcore_membership(cold_snapshot(g), 3))
        assert kc.last_mode == "cold"
        g.insert_edges(rng.integers(0, 96, 15), rng.integers(0, 96, 15))
        assert np.array_equal(kc.members(), kcore_membership(cold_snapshot(g), 3))
        assert kc.last_mode == "incremental"

    def test_chain_joins_only_because_its_last_vertex_did(self):
        g = Graph.create("slabhash", num_vertices=8)
        g.insert_edges([0, 1, 2, 5], [1, 2, 3, 6])  # chain 0->1->2->3 and a stray 5->6
        kc = IncrementalKCore(g, k=1)
        assert not kc.members().any()
        g.insert_edges([3, 4], [4, 3])  # 3<->4 closes; 2, 1, 0 follow in turn
        got = kc.members()
        assert kc.last_mode == "incremental"
        # 5 is a candidate no seed is reverse-reachable from: peeled, not promoted.
        assert got.tolist() == [True] * 5 + [False] * 3
        assert np.array_equal(got, kcore_membership(cold_snapshot(g), 1))

    def test_failed_repair_is_not_served_as_fresh(self, monkeypatch):
        g, rng = self.make()
        kc = IncrementalKCore(g, k=3)
        real, calls = CSRSnapshot.adjacencies, []

        def raise_once(self, vertex_ids):
            calls.append(1)
            if len(calls) == 1:
                raise MemoryError("injected")
            return real(self, vertex_ids)

        monkeypatch.setattr(CSRSnapshot, "adjacencies", raise_once)
        while not calls:  # until a window has a candidate seed to peel from
            g.insert_edges(rng.integers(0, 96, 30), rng.integers(0, 96, 30))
            try:
                kc.members()
            except MemoryError:
                break
        assert np.array_equal(kc.members(), kcore_membership(cold_snapshot(g), 3))
        assert kc.last_mode == "cold"

    def test_bad_k_rejected(self):
        g, _ = self.make(n=8)
        with pytest.raises(ValidationError):
            IncrementalKCore(g, k=0)

    @pytest.mark.parametrize("k", [1.5, True, "2"])
    def test_non_integral_k_rejected_not_truncated(self, k):
        g, _ = self.make(n=8)
        with pytest.raises(ValidationError):
            IncrementalKCore(g, k=k)

    def test_fractional_k_cannot_split_incremental_from_cold(self):
        """``k=1.5`` used to be stored as 1 while the cold kernel peeled at
        ``deg < 1.5``: on a triangle with a pendant vertex the two answered
        ``[0 1 2 3]`` and ``[0 1 2]``, and a validated scenario diverged."""
        g = Graph.create("slabhash", num_vertices=4, directed=False)
        g.insert_edges([0, 1, 2, 3], [1, 2, 0, 0])
        for k in (1.5, 2.5):
            with pytest.raises(ValidationError):
                IncrementalKCore(g, k=k)
            with pytest.raises(ValidationError):
                kcore_membership(g.snapshot(), k)
        with pytest.raises(ValidationError):
            run_scenario(
                mixed_scenario(1 << 8, batch=32), "slabhash",
                analytics=("kcore",), kcore_k=2.5, validate=True,
            )


# No self-loops: the facade drops them, and an all-dropped batch publishes no event.
_edge = st.tuples(st.integers(0, 9), st.integers(0, 9)).filter(lambda e: e[0] != e[1])
_edges = st.lists(_edge, min_size=1, max_size=14)
_mixed_window = st.lists(st.tuples(st.booleans(), _edges), min_size=1, max_size=6)


def _apply(g, insert, edges):
    src, dst = (np.array(col, dtype=np.int64) for col in zip(*edges))
    (g.insert_edges if insert else g.delete_edges)(src, dst)


class TestWindowFoldProperties:
    """Ten vertex ids, so windows keep hitting the same keys: absent-edge
    deletes, reversed duplicates, insert-then-delete, delete-then-reinsert
    and half-deleted orientation pairs all occur."""

    @given(st.booleans(), _edges, _mixed_window)
    @settings(max_examples=60, deadline=None)
    def test_tc_folds_any_insert_delete_window(self, directed, base, window):
        g = Graph.create("slabhash", num_vertices=10, directed=directed)
        _apply(g, True, base)
        tc = IncrementalTriangleCount(g)
        for insert, edges in window:
            _apply(g, insert, edges)
        assert tc.count() == undirected_triangles(cold_snapshot(g))
        assert tc.last_mode == "incremental"

    @given(st.integers(1, 5), _edges, st.lists(_edges, min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_kcore_repairs_any_insert_window(self, k, base, window):
        g = Graph.create("slabhash", num_vertices=10)
        _apply(g, True, base)
        kc = IncrementalKCore(g, k=k)
        for edges in window:
            _apply(g, True, edges)
        assert np.array_equal(kc.members(), kcore_membership(cold_snapshot(g), k))
        assert kc.last_mode == "incremental"


class TestSharedWedgeKernel:
    """dynamic_triangle_count and IncrementalTriangleCount drive one
    wedge-closure kernel: identical counts, same counter kinds."""

    def rounds(self, seed=21, n=64, per=40, count=4):
        rng = np.random.default_rng(seed)
        return [
            (rng.integers(0, n, per).astype(np.int64), rng.integers(0, n, per).astype(np.int64))
            for _ in range(count)
        ]

    def test_identical_counts_per_round(self):
        batches = self.rounds()
        snap_graph = Graph.create("slabhash", num_vertices=64)
        steps = dynamic_triangle_count(snap_graph, batches, mode="snapshot")

        stream_graph = Graph.create("slabhash", num_vertices=64, directed=False)
        tc = IncrementalTriangleCount(stream_graph)
        for (bs, bd), step in zip(batches, steps):
            stream_graph.insert_edges(bs, bd)
            assert tc.count() == step.triangles, step.iteration

    def test_both_paths_charge_sorted_probes(self):
        batches = self.rounds(count=2)
        snap_graph = Graph.create("slabhash", num_vertices=64)
        with counting() as dyn_counters:
            dynamic_triangle_count(snap_graph, batches, mode="snapshot")
        stream_graph = Graph.create("slabhash", num_vertices=64, directed=False)
        tc = IncrementalTriangleCount(stream_graph)
        for bs, bd in batches:
            stream_graph.insert_edges(bs, bd)
        with counting() as inc_counters:
            tc.count()
        assert dyn_counters.get("sorted_probes", 0) > 0
        assert inc_counters.get("sorted_probes", 0) > 0


class TestScenarioAnalyticsSelection:
    def test_unknown_analytic_rejected(self):
        scn = quick_scenarios()[0]
        with pytest.raises(ValidationError):
            run_scenario(scn, "slabhash", analytics=("cc", "centrality"))

    def test_sssp_needs_weighted_scenario(self):
        scn = quick_scenarios()[0]
        assert not scn.weighted
        with pytest.raises(ValidationError):
            run_scenario(scn, "slabhash", analytics=("sssp",))

    def test_compute_detail_carries_per_analytic_slices(self):
        scn = insert_heavy_scenario(1 << 10, batch=64, rounds=2)
        for mode in ("incremental", "full"):
            r = run_scenario(scn, "slabhash", mode=mode, analytics=UNWEIGHTED_FAMILY)
            for p in r.phases:
                if p.kind != "compute":
                    continue
                assert set(p.detail["analytic_model"]) == set(UNWEIGHTED_FAMILY)
                assert set(p.detail["modes"]) == set(UNWEIGHTED_FAMILY)
                assert p.detail["snapshot_model"] >= 0
                # The per-analytic modes live under "modes" only; the t11
                # artifact still reads PageRank's sweep count.
                assert "cc_mode" not in p.detail and "pr_mode" not in p.detail
                assert "pr_sweeps" in p.detail


# -- one consumer protocol: every analytic through every window ------------------------

#: Each member's query method, keyed as the scenario runners name them.
QUERY = {
    "cc": "labels",
    "pagerank": "compute",
    "tc": "count",
    "bfs": "distances",
    "sssp": "distances",
    "kcore": "members",
}
PR_TOL = 1e-12


def protocol_graph(directed, event_retention=1 << 16):
    """Two triangles joined through vertex 2, a tail 4-5-8-9-10, and
    isolated 6, 7, 11; weights 3."""
    g = Graph.create(
        "slabhash", num_vertices=12, weighted=True, directed=directed,
        event_retention=event_retention,
    )
    src, dst = [0, 1, 2, 2, 3, 4, 4, 5, 8, 9], [1, 2, 0, 3, 4, 2, 5, 8, 9, 10]
    g.insert_edges(src, dst, [3] * len(src))
    return g


def attach_all(g):
    return {
        "cc": IncrementalConnectedComponents(g),
        "pagerank": IncrementalPageRank(g, tol=PR_TOL, max_iters=1000),
        "tc": IncrementalTriangleCount(g),
        "bfs": IncrementalBFS(g, source=0),
        "sssp": IncrementalSSSP(g, source=0),
        "kcore": IncrementalKCore(g, k=2),
    }


def served_exactly(g, fam) -> dict:
    """Query every member once, assert it equals its cold kernel on the
    live edge set, and return how each was served."""
    snap = cold_snapshot(g)
    cold = {
        "cc": connected_components(snap),
        "pagerank": pagerank(snap, tol=PR_TOL, max_iters=1000),
        "tc": undirected_triangles(snap),
        "bfs": bfs(snap, 0),
        "sssp": sssp(snap, 0),
        "kcore": kcore_membership(snap, 2),
    }
    for name, inc in fam.items():
        got = getattr(inc, QUERY[name])()
        if name == "pagerank":
            assert np.allclose(got, cold[name], atol=1e-9, rtol=0.0), name
        else:
            assert np.array_equal(got, cold[name]), name
    return {name: inc.last_mode for name, inc in fam.items()}


def _insert(g, fam):
    g.insert_edges([1, 6], [6, 7], [1, 1])  # weight 1 never grows an existing edge


def _delete(g, fam):
    g.delete_edges([0, 3], [1, 4])


def _insert_and_delete(g, fam):
    _insert(g, fam)
    _delete(g, fam)


def _structural(g, fam):
    g.delete_vertices([5])


def _gap(g, fam):
    g.insert_edges([6, 7, 8, 9, 10], [7, 8, 9, 10, 11], [1] * 5)  # > 4 rows: trimmed at once


def _out_of_band(g, fam):
    g.backend.insert_edges(np.array([6]), np.array([7]), np.array([1]))


def _after_close(g, fam):
    for inc in fam.values():
        inc.close()
    _insert(g, fam)


def modes(default, **overrides):
    return {name: overrides.get(name, default) for name in QUERY}


#: window -> (mutation, expected last_mode per member).  TC folds every
#: edge batch, PageRank every event; the other four fold insert batches.
PROTOCOL = {
    "none": (lambda g, fam: None, modes("cached")),
    "insert-only": (_insert, modes("incremental")),
    "delete-only": (_delete, modes("cold", pagerank="incremental", tc="incremental")),
    "insert+delete": (_insert_and_delete, modes("cold", pagerank="incremental", tc="incremental")),
    "structural": (_structural, modes("cold", pagerank="incremental")),
    "retention-gap": (_gap, modes("cold")),
    "out-of-band": (_out_of_band, modes("cold")),
    "after-close": (_after_close, modes("cold")),
}


@pytest.mark.parametrize("directed", [True, False], ids=["directed", "undirected"])
@pytest.mark.parametrize("window", PROTOCOL)
def test_protocol_matrix(window, directed):
    """Every member is built cold, serves each window in the mode the one
    window rule dictates, always equals its cold kernel, and serves the
    query after it from cache."""
    g = protocol_graph(directed, event_retention=4 if window == "retention-gap" else 1 << 16)
    fam = attach_all(g)
    assert {inc.last_mode for inc in fam.values()} == {"cold"}
    mutate, expected = PROTOCOL[window]
    mutate(g, fam)
    assert served_exactly(g, fam) == expected
    assert served_exactly(g, fam) == modes("cached")


@pytest.mark.parametrize("name", list(QUERY))
def test_a_raising_repair_leaves_the_next_query_cold(monkeypatch, name):
    g = protocol_graph(directed=True)
    fam = attach_all(g)
    inc = fam[name]

    def injected(self, window):
        raise MemoryError("injected")

    monkeypatch.setattr(type(inc), "_repair", injected)
    _insert(g, fam)
    with pytest.raises(MemoryError):
        getattr(inc, QUERY[name])()
    monkeypatch.undo()
    assert served_exactly(g, fam)[name] == "cold"


def _analytic_classes(cls=incremental.IncrementalAnalytic):
    for sub in cls.__subclasses__():
        yield sub
        yield from _analytic_classes(sub)


def test_the_window_rule_is_stated_once():
    """Structural guard: the fold-or-cold decision is
    ``EventCursor.window`` plus ``IncrementalAnalytic._refresh`` — no
    analytic re-derives it from its own cursor reads, and only the event
    log checks a version chain."""
    for cls in _analytic_classes():
        assert "_refresh" not in vars(cls), cls.__name__
        tree = ast.parse(textwrap.dedent(inspect.getsource(cls)))
        cursor_reads = [n for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr == "_cursor"]
        assert not cursor_reads, f"{cls.__name__} reads _cursor"
    root = Path(repro.__file__).parent
    callers = set()
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called == "version_chain_intact":
                    callers.add(path.relative_to(root).parts[0])
    assert callers == {"eventlog"}
