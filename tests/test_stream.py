"""Streaming scenario engine + delta-aware incremental analytics.

The scenario runner's spec and parameter rules, then the cursor wiring of
`IncrementalConnectedComponents` and `IncrementalPageRank` (delete → cold
re-label, structural → stale, out-of-band mutation detection, close) and
the t11 artifact.  Exactness of all six analytics on every backend through
every window kind is `tests/test_stream_family.py`'s.
"""

import numpy as np
import pytest

import repro.api as api
from repro.analytics import connected_components, pagerank
from repro.api import Graph
from repro.eventlog import EdgeBatch, StructuralEvent
from repro.stream import (
    ANALYTICS,
    IncrementalConnectedComponents,
    IncrementalPageRank,
    Phase,
    Scenario,
    insert_heavy_scenario,
    run_scenario,
)
from repro.stream.scenario import build_dataset
from repro.util.errors import ValidationError

ALL_BACKENDS = sorted(api.backend_names())


def small_scenario():
    """``t11``'s schedule on a 2^10-edge seed graph."""
    return insert_heavy_scenario(1 << 10, batch=64, rounds=2)


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

    def test_empty_phases(self):
        with pytest.raises(ValidationError):
            Scenario("s", 64, 4.0, ())

    def test_negative_phase_size(self):
        with pytest.raises(ValidationError):
            Phase("compute", size=-1)

    def test_scenario_needs_two_vertices(self):
        with pytest.raises(ValidationError):
            Scenario("s", 1, 4.0, (Phase("compute"),))

    @pytest.mark.parametrize("num_vertices", [3000, 100, 3, 1024.0, True, "1024"])
    def test_scenario_needs_a_power_of_two_vertex_count(self, num_vertices):
        with pytest.raises(ValidationError, match="power of two"):
            Scenario("s", num_vertices, 4.0, (Phase("compute"),))

    @pytest.mark.parametrize("num_vertices", [2, 64, 4096, np.int64(64)])
    def test_power_of_two_vertex_counts_build_that_graph(self, num_vertices):
        scn = Scenario("s", num_vertices, 2.0, (Phase("compute"),))
        assert build_dataset(scn).num_vertices == num_vertices

    def test_scenario_needs_positive_avg_degree(self):
        with pytest.raises(ValidationError):
            Scenario("s", 64, 0.0, (Phase("compute"),))

    def test_phases_must_be_phase_instances(self):
        with pytest.raises(ValidationError):
            Scenario("s", 64, 4.0, ("compute",))

    def test_bad_mode(self):
        with pytest.raises(ValidationError):
            run_scenario(small_scenario(), "slabhash", mode="sideways")

    def test_bad_tol_rejected_in_both_modes(self):
        for mode in ("incremental", "full"):
            with pytest.raises(ValidationError):
                run_scenario(small_scenario(), "slabhash", mode=mode, tol=0.0)

    def test_build_dataset_is_seeded(self):
        a, b = build_dataset(small_scenario()), build_dataset(small_scenario())
        assert a.num_edges > 0
        assert np.array_equal(a.src, b.src) and np.array_equal(a.dst, b.dst)
        other = build_dataset(insert_heavy_scenario(1 << 10, batch=64, rounds=2, seed=1))
        assert not (np.array_equal(a.src, other.src) and np.array_equal(a.dst, other.dst))

    def test_unweighted_scenario_has_no_weights(self):
        assert build_dataset(small_scenario()).weights is None

    def test_insert_heavy_schedule(self):
        """Per round: two insert batches, a query probe, a compute phase."""
        scn = small_scenario()
        assert scn.phases == (
            Phase("insert", size=64, batches=2),
            Phase("query", size=32),
            Phase("compute"),
        ) * 2
        assert scn.num_vertices == (1 << 10) // 4 and not scn.weighted
        assert scn.name == "insert-heavy-2^10"
        weighted = insert_heavy_scenario(1 << 10, batch=64, rounds=2, weighted=True)
        assert weighted.weighted and weighted.name == "insert-heavy-w-2^10"

    def test_mean_compute_model_seconds_without_compute_phases(self):
        scn = Scenario("s", 64, 4.0, (Phase("insert", size=8),))
        result = run_scenario(scn, "slabhash")
        assert result.compute_phases() == []
        assert result.mean_compute_model_seconds() == 0.0

    def test_weighted_scenario_carries_weights(self):
        scn = Scenario("w", 128, 6.0, (Phase("insert", size=16), Phase("compute")), weighted=True)
        assert build_dataset(scn).weights is not None
        r = run_scenario(scn, "slabhash", mode="incremental", tol=1e-10, analytics=("sssp",))
        assert r.phases[0].applied > 0


#: One invalid value per run parameter :func:`run_scenario` validates
#: (``sssp`` is invalid here because the scenario is unweighted).
_BAD_RUN_PARAMS = [
    ("mode", "lazy"),
    ("tol", 0.0),
    ("tol", -1.0),
    ("analytics", ("cc", "louvain")),
    ("analytics", ("sssp",)),
]
_BAD_RUN_IDS = [f"{k}={'+'.join(v) if isinstance(v, tuple) else v}" for k, v in _BAD_RUN_PARAMS]


@pytest.mark.parametrize("bad", _BAD_RUN_PARAMS, ids=_BAD_RUN_IDS)
def test_run_scenario_rejects_each_invalid_value(bad):
    with pytest.raises(ValidationError):
        run_scenario(small_scenario(), "slabhash", **dict([bad]))


def test_scenario_is_deterministic_for_fixed_seed():
    scn = small_scenario()
    a = run_scenario(scn, "slabhash", mode="incremental")
    b = run_scenario(scn, "slabhash", mode="incremental")
    assert [p.counters for p in a.phases] == [p.counters for p in b.phases]
    assert [p.applied for p in a.phases] == [p.applied for p in b.phases]


UNWEIGHTED_ANALYTICS = tuple(a for a in ANALYTICS if a != "sssp")
WEIGHTED_BACKENDS = [n for n in ALL_BACKENDS if api.capabilities(n).weighted]


def run_both_modes(name, weighted=False):
    """``(incremental, full)`` runs of the small ``t11`` schedule with every
    analytic the scenario allows."""
    scn = insert_heavy_scenario(1 << 10, batch=64, rounds=2, weighted=weighted)
    analytics = ANALYTICS if weighted else UNWEIGHTED_ANALYTICS
    return tuple(
        run_scenario(scn, name, mode=mode, analytics=analytics)
        for mode in ("incremental", "full")
    )


def update_stream(result):
    """What the non-compute phases applied and found."""
    return [(p.kind, p.applied, p.detail.get("hits")) for p in result.phases if p.kind != "compute"]


@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_both_modes_apply_the_same_stream(name):
    """The compute mode changes only what a compute phase does: both
    modes run the whole schedule and apply the same batches and probes."""
    inc, full = run_both_modes(name)
    for result in (inc, full):
        assert [p.kind for p in result.phases] == [p.kind for p in small_scenario().phases]
        assert all(p.applied > 0 and p.model_seconds >= 0 for p in result.phases)
    assert update_stream(inc) == update_stream(full)


@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_incremental_compute_phases_take_the_delta_path(name):
    """After insert-only windows every analytic folds the delta (PageRank
    warm-starts in fewer sweeps), where the full mode recomputes each one
    cold behind a cold snapshot sort; each analytic is priced on its own."""
    inc, full = run_both_modes(name)
    for p_inc, p_full in zip(inc.compute_phases(), full.compute_phases()):
        assert p_inc.detail["modes"] == dict.fromkeys(UNWEIGHTED_ANALYTICS, "incremental")
        assert p_full.detail["modes"] == dict.fromkeys(UNWEIGHTED_ANALYTICS, "cold")
        assert 0 < p_inc.detail["pr_sweeps"] < p_full.detail["pr_sweeps"]
        assert p_inc.detail["snapshot_model"] < p_full.detail["snapshot_model"]
        for p in (p_inc, p_full):
            assert set(p.detail["analytic_model"]) == set(UNWEIGHTED_ANALYTICS)
    assert 0 < inc.mean_compute_model_seconds() < full.mean_compute_model_seconds()


@pytest.mark.parametrize("name", WEIGHTED_BACKENDS)
def test_weighted_scenario_runs_the_whole_family(name):
    inc, full = run_both_modes(name, weighted=True)
    assert update_stream(inc) == update_stream(full)
    for p_inc, p_full in zip(inc.compute_phases(), full.compute_phases()):
        assert set(p_inc.detail["modes"]) == set(p_full.detail["modes"]) == set(ANALYTICS)
        assert set(p_inc.detail["analytic_model"]) == set(ANALYTICS)
        assert set(p_full.detail["modes"].values()) == {"cold"}
        assert p_inc.detail["modes"]["sssp"] in ("incremental", "cold")


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

    def test_vertex_space_growth_does_not_crash_touched_mask(self):
        g = Graph.create("slabhash", num_vertices=4)
        pr = IncrementalPageRank(g)
        pr.compute()  # ranks over 4 vertices
        g.backend.insert_vertices([99])  # grows the vertex space (no event)
        g.insert_edges([50], [60])  # ids beyond the old space
        assert pr.touched_count == 2
        ranks = pr.compute()
        assert pr.last_mode == "cold"  # no previous rank for the new ids
        assert ranks.shape[0] == g.num_vertices

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
        g = Graph.create("slabhash", num_vertices=32)
        g.events.retention_rows = 4
        g.insert_edges([0, 1, 2], [1, 2, 3])
        pr = IncrementalPageRank(g, tol=1e-12, max_iters=1000)
        g.insert_edges(np.arange(10), np.arange(10) + 1)  # trimmed at once: a gap
        pr.compute()
        assert pr.last_mode == "cold"
        g.backend.insert_edges(np.array([5]), np.array([9]))
        ranks = pr.compute()
        assert pr.last_mode == "cold"
        assert np.allclose(ranks, pagerank(g, tol=1e-12, max_iters=1000), atol=1e-10)


class TestFacadeEventDelivery:
    """The facade publishes to ``g.events``; a cursor reads the
    normalized batches and structural events in the order applied."""

    def test_edge_batches_and_structural_events_delivered(self):
        g = Graph.create("slabhash", num_vertices=16)
        cursor = g.events.cursor()
        g.insert_edges([0, 1, 2], [1, 2, 2])  # self-loop (2,2) normalized away
        g.delete_edges([0], [1])
        g.delete_vertices([3])
        events, gapped = cursor.poll()
        assert not gapped
        assert [type(e) for e in events] == [EdgeBatch, EdgeBatch, StructuralEvent]
        assert events[0].is_insert is True
        assert events[0].src.tolist() == [0, 1]  # normalized batch
        assert events[1].is_insert is False
        assert events[2].reason == "delete_vertices"

    def test_empty_batches_not_delivered(self):
        g = Graph.create("slabhash", num_vertices=16)
        cursor = g.events.cursor()
        g.insert_edges([], [])
        g.insert_edges([5], [5])  # pure self-loop batch drops to empty
        assert cursor.poll() == ([], False)


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

    def test_wide_coo_builds_into_the_graphs_own_space(self):
        """A COO declaring more vertices than the packing bound, whose ids
        fit, builds into the graph's own space: a build never grows it."""
        from repro.coo import COO

        g = Graph.create("slabhash", num_vertices=64)
        huge = COO(np.array([0]), np.array([1]), (1 << 31) + 10)
        assert g.bulk_build(huge) == 1
        assert (g.num_vertices, g.num_edges()) == (64, 1)
        assert g.snapshot().num_vertices == 64


def test_stream_artifact_quick_structure():
    from repro.bench.stream_bench import stream_artifact
    import repro.bench.stream_bench as SB

    art = stream_artifact(seed=0, quick=True)
    keys = {r.metric for r in art.results}
    assert keys == {
        key
        for name in SB.QUICK_STREAM_BACKENDS
        for key in (
            f"t11/insert-heavy-2^18/{name}/speedup",
            *(
                f"t11/insert-heavy-2^18/{name}/{a}_speedup"
                for a in ("pagerank", "tc", "bfs", "kcore")
            ),
            f"t11/insert-heavy-w-2^18/{name}/sssp_speedup",
        )
    }
    assert len(art.rows) == len(keys)  # the table prints what is persisted
