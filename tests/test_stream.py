"""Streaming scenario engine + delta-aware incremental analytics.

The exactness contract is the headline: after every phase of every quick
scenario, on every registered backend, `IncrementalConnectedComponents`
labels equal a cold `connected_components` on the live snapshot and
`IncrementalPageRank` matches a cold `pagerank` within tol (the
`validate=True` runner re-derives the cold references after each phase).
The rest pins the subscriber wiring (delete → cold re-label, structural →
stale, out-of-band mutation detection, unsubscribe) and the t11 artifact.
"""

import numpy as np
import pytest

import repro.api as api
from repro.analytics import connected_components, pagerank
from repro.api import Graph
from repro.eventlog import EdgeBatch, StructuralEvent
from repro.stream import (
    IncrementalConnectedComponents,
    IncrementalPageRank,
    Phase,
    Scenario,
    build_dataset,
    quick_scenarios,
    run_scenario,
)
from repro.util.errors import ValidationError

ALL_BACKENDS = sorted(api.backend_names())


class TestSpecValidation:
    def test_bad_phase_kind(self):
        with pytest.raises(ValidationError):
            Phase("explode", size=4)

    def test_phase_needs_size(self):
        with pytest.raises(ValidationError):
            Phase("insert")
        Phase("compute")  # compute phases are size-free

    def test_bad_batches(self):
        with pytest.raises(ValidationError):
            Phase("insert", size=4, batches=0)

    def test_bad_family(self):
        with pytest.raises(ValidationError):
            Scenario("s", "social", 64, 4.0, (Phase("compute"),))

    def test_empty_phases(self):
        with pytest.raises(ValidationError):
            Scenario("s", "rmat", 64, 4.0, ())

    def test_bad_mode(self):
        scn = quick_scenarios()[0]
        with pytest.raises(ValidationError):
            run_scenario(scn, "slabhash", mode="sideways")

    def test_bad_damping_and_tol_rejected_in_both_modes(self):
        scn = quick_scenarios()[0]
        for mode in ("incremental", "full"):
            with pytest.raises(ValidationError):
                run_scenario(scn, "slabhash", mode=mode, damping=1.5)
            with pytest.raises(ValidationError):
                run_scenario(scn, "slabhash", mode=mode, tol=0.0)

    def test_build_dataset_families(self):
        for scn in quick_scenarios():
            coo = build_dataset(scn)
            assert coo.num_edges > 0

    def test_weighted_scenario_carries_weights(self):
        scn = Scenario(
            "w", "rgg", 128, 6.0, (Phase("insert", size=16), Phase("compute")), weighted=True
        )
        assert build_dataset(scn).weights is not None
        r = run_scenario(scn, "slabhash", mode="incremental", tol=1e-10, validate=True)
        assert r.phases[0].applied > 0


@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_incremental_exact_after_every_phase_every_quick_scenario(name):
    """The acceptance bar: exactness after every phase, all backends."""
    for scn in quick_scenarios():
        result = run_scenario(
            scn, name, mode="incremental", tol=1e-10, max_iters=500, validate=True
        )
        assert len(result.phases) == len(scn.phases)
        assert all(p.model_seconds >= 0 for p in result.phases)


def test_scenario_is_deterministic_for_fixed_seed():
    scn = quick_scenarios()[0]
    a = run_scenario(scn, "slabhash", mode="incremental")
    b = run_scenario(scn, "slabhash", mode="incremental")
    assert [p.counters for p in a.phases] == [p.counters for p in b.phases]
    assert [p.applied for p in a.phases] == [p.applied for p in b.phases]


def test_vertex_churn_skipped_without_capability():
    scn = next(s for s in quick_scenarios() if any(p.kind == "vertex_churn" for p in s.phases))
    result = run_scenario(scn, "gpma", mode="incremental", tol=1e-10, max_iters=500, validate=True)
    churn = [p for p in result.phases if p.kind == "vertex_churn"]
    assert churn and all(p.skipped for p in churn)
    on_slab = run_scenario(
        scn, "slabhash", mode="incremental", tol=1e-10, max_iters=500, validate=True
    )
    assert not any(p.skipped for p in on_slab.phases if p.kind == "vertex_churn")


class TestIncrementalConnectedComponents:
    def make(self, n=64, seed=3):
        rng = np.random.default_rng(seed)
        g = Graph.create("slabhash", num_vertices=n)
        g.insert_edges(rng.integers(0, n, 150), rng.integers(0, n, 150))
        return g, rng

    def test_insert_only_stays_incremental_and_exact(self):
        g, rng = self.make()
        cc = IncrementalConnectedComponents(g)
        for _ in range(4):
            g.insert_edges(rng.integers(0, 64, 20), rng.integers(0, 64, 20))
            labels = cc.labels()
            assert cc.last_mode == "incremental"
            assert np.array_equal(labels, connected_components(g.backend.snapshot()))

    def test_delete_triggers_cold_relabel(self):
        g, _ = self.make()
        cc = IncrementalConnectedComponents(g)
        coo = g.export_coo()
        g.delete_edges(coo.src[:40], coo.dst[:40])
        labels = cc.labels()
        assert cc.last_mode == "cold"
        assert np.array_equal(labels, connected_components(g.backend.snapshot()))
        # The cold pass re-anchors: the next insert window is incremental.
        g.insert_edges([1, 2], [2, 3])
        cc.labels()
        assert cc.last_mode == "incremental"

    def test_vertex_deletion_triggers_cold_relabel(self):
        g, _ = self.make()
        cc = IncrementalConnectedComponents(g)
        g.delete_vertices([5, 6])
        assert np.array_equal(cc.labels(), connected_components(g.backend.snapshot()))
        assert cc.last_mode == "cold"

    def test_out_of_band_backend_mutation_detected(self):
        g, _ = self.make()
        cc = IncrementalConnectedComponents(g)
        g.backend.insert_edges(np.array([0]), np.array([63]))  # bypasses facade
        labels = cc.labels()
        assert cc.last_mode == "cold"
        assert np.array_equal(labels, connected_components(g.backend.snapshot()))

    def test_facade_batch_cannot_mask_out_of_band_mutation(self):
        """A facade insert after an unseen out-of-band mutation must not
        fast-forward the sync point past the missed change."""
        g = Graph.create("slabhash", num_vertices=8)
        g.insert_edges([0], [1])
        cc = IncrementalConnectedComponents(g)
        g.backend.insert_edges(np.array([2]), np.array([3]))  # unseen
        g.insert_edges([4], [5])  # seen — but must not hide the above
        labels = cc.labels()
        assert cc.last_mode == "cold"
        assert np.array_equal(labels, connected_components(g.backend.snapshot()))
        assert labels[3] == 2

    def test_unsubscribed_analytic_sees_nothing(self):
        g, _ = self.make()
        cc = IncrementalConnectedComponents(g)
        cc.close()
        coo = g.export_coo()
        g.delete_edges(coo.src[:40], coo.dst[:40])
        # Detached: no on_edge_batch fired, but the version check still
        # catches the divergence at query time.
        assert np.array_equal(cc.labels(), connected_components(g.backend.snapshot()))

    def test_isolated_vertices_label_themselves(self):
        g = Graph.create("slabhash", num_vertices=8)
        g.insert_edges([0, 1], [1, 2])
        cc = IncrementalConnectedComponents(g)
        assert cc.labels().tolist() == [0, 0, 0, 3, 4, 5, 6, 7]

    def test_requires_facade(self):
        with pytest.raises(ValidationError):
            IncrementalConnectedComponents(api.create("slabhash", num_vertices=8))


class TestIncrementalPageRank:
    def make(self, n=128, seed=9):
        rng = np.random.default_rng(seed)
        g = Graph.create("slabhash", num_vertices=n)
        s, d = rng.integers(0, n, 400), rng.integers(0, n, 400)
        g.insert_edges(np.concatenate([s, d]), np.concatenate([d, s]))
        return g, rng

    def test_matches_cold_within_tol(self):
        g, rng = self.make()
        pr = IncrementalPageRank(g, tol=1e-12, max_iters=1000)
        pr.compute()
        for _ in range(3):
            g.insert_edges(rng.integers(0, 128, 30), rng.integers(0, 128, 30))
            warm = pr.compute()
            cold = pagerank(g, tol=1e-12, max_iters=1000)
            assert pr.last_mode == "incremental"
            assert np.allclose(warm, cold, atol=1e-10, rtol=0.0)

    def test_warm_start_needs_fewer_sweeps(self):
        g, rng = self.make(n=512, seed=4)
        pr = IncrementalPageRank(g, tol=1e-10, max_iters=1000)  # builds cold
        cold_sweeps = pr.last_sweeps
        assert pr.last_mode == "cold"
        g.insert_edges(rng.integers(0, 512, 16), rng.integers(0, 512, 16))
        pr.compute()
        assert pr.last_mode == "incremental"
        assert 0 < pr.last_sweeps < cold_sweeps

    def test_unchanged_graph_served_from_cache(self):
        g, _ = self.make()
        pr = IncrementalPageRank(g)
        first = pr.compute()
        again = pr.compute()
        assert pr.last_mode == "cached"
        assert pr.last_sweeps == 0
        assert np.array_equal(first, again)

    def test_touched_count_tracks_delta_locality(self):
        g, _ = self.make()
        pr = IncrementalPageRank(g)
        pr.compute()
        assert pr.touched_count == 0
        g.insert_edges([3, 4], [5, 6])
        assert pr.touched_count == 4

    def test_structural_event_recomputes_but_stays_correct(self):
        g, _ = self.make()
        pr = IncrementalPageRank(g, tol=1e-12, max_iters=1000)
        pr.compute()
        g.delete_vertices([7])
        warm = pr.compute()
        assert np.allclose(warm, pagerank(g, tol=1e-12, max_iters=1000), atol=1e-10)

    def test_bulk_build_growth_does_not_crash_touched_mask(self):
        from repro.coo import COO

        g = Graph.create("slabhash", num_vertices=4)
        pr = IncrementalPageRank(g)
        pr.compute()  # ranks over 4 vertices
        g.bulk_build(COO([0, 1], [1, 2], 100))  # grows the vertex space
        g.insert_edges([50], [60])  # ids beyond the old space
        assert pr.touched_count == 2
        ranks = pr.compute()
        assert pr.last_mode == "cold"  # no previous rank for the new ids
        assert ranks.shape[0] == g.num_vertices

    def test_bad_damping(self):
        g, _ = self.make(n=8)
        with pytest.raises(ValidationError):
            IncrementalPageRank(g, damping=1.5)

    @pytest.mark.parametrize(
        "params",
        [
            {"tol": -1, "max_iters": 0},
            {"tol": float("nan")},
            {"max_iters": 0},
            {"max_iters": 2.5},
        ],
        ids=str,
    )
    def test_bad_parameters_rejected(self, params):
        g, _ = self.make(n=8)
        with pytest.raises(ValidationError):
            IncrementalPageRank(g, **params)

    def test_gap_and_out_of_band_mutation_start_cold(self):
        """Warm-starting across a retention gap or a backend mutation the
        log never saw used to report ``"warm"``."""
        g = Graph.create("slabhash", num_vertices=32, event_retention=4)
        g.insert_edges([0, 1, 2], [1, 2, 3])
        pr = IncrementalPageRank(g, tol=1e-12, max_iters=1000)
        g.insert_edges(np.arange(10), np.arange(10) + 1)  # trimmed at once: a gap
        pr.compute()
        assert pr.last_mode == "cold"
        g.backend.insert_edges(np.array([5]), np.array([9]))
        ranks = pr.compute()
        assert pr.last_mode == "cold"
        assert np.allclose(ranks, pagerank(g, tol=1e-12, max_iters=1000), atol=1e-10)


class TestFacadeSubscriberHook:
    """The facade publishes to ``g.events``; a push subscriber sees the
    normalized batches and structural events as they are applied."""

    def test_edge_batches_and_structural_events_delivered(self):
        g = Graph.create("slabhash", num_vertices=16)
        events = []
        g.events.subscribe(events.append)
        g.insert_edges([0, 1, 2], [1, 2, 2])  # self-loop (2,2) normalized away
        g.delete_edges([0], [1])
        g.delete_vertices([3])
        assert [type(e) for e in events] == [EdgeBatch, EdgeBatch, StructuralEvent]
        assert events[0].is_insert is True
        assert events[0].src.tolist() == [0, 1]  # normalized batch
        assert events[1].is_insert is False
        assert events[2].reason == "delete_vertices"

    def test_empty_batches_not_delivered(self):
        g = Graph.create("slabhash", num_vertices=16)
        events = []
        g.events.subscribe(events.append)
        g.insert_edges([], [])
        g.insert_edges([5], [5])  # pure self-loop batch drops to empty
        assert events == []


class TestCompositeKeyGuard:
    class HugeStub:
        """A backend stand-in too large for (src << 32) | dst packing."""

        def __init__(self, num_vertices):
            self.num_vertices = num_vertices
            self.mutation_version = 0

    def test_construction_rejects_unpackable_vertex_space(self):
        with pytest.raises(ValidationError, match="composite-key"):
            Graph(self.HugeStub((1 << 31) + 1))
        with pytest.raises(ValidationError, match="composite-key"):
            Graph(self.HugeStub(1 << 32))

    def test_boundary_accepted(self):
        Graph(self.HugeStub(1 << 31))  # ids fit in 31 bits: packable

    def test_bulk_build_growth_rechecks_guard(self):
        from repro.coo import COO

        g = Graph.create("slabhash", num_vertices=64)
        huge = COO(np.array([0]), np.array([1]), (1 << 31) + 10)
        with pytest.raises(ValidationError, match="composite-key"):
            g.bulk_build(huge)  # would grow the backend past the bound


def test_stream_artifact_quick_structure():
    from repro.bench.stream_bench import stream_artifact
    import repro.bench.stream_bench as SB

    art = stream_artifact(seed=0, quick=True)
    keys = {r.metric for r in art.results}
    assert any(k.startswith("t11/insert-heavy-2^18/slabhash/") for k in keys)
    for name in SB.MIXED_BACKENDS:
        assert f"t11/mixed-2^9/{name}/speedup" in keys
    for name in SB.QUICK_STREAM_BACKENDS:
        for analytic in SB.FAMILY_ANALYTICS:
            assert f"t11/insert-heavy-2^18/{name}/{analytic}_speedup" in keys
        assert f"t11/insert-heavy-w-2^18/{name}/sssp_speedup" in keys
