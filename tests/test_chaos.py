"""Fault injection, shard failover, and degraded-mode serving.

The contract under test (docs/robustness.md): a seeded FaultPlan makes
fault schedules a pure function of (seed, operation sequence); wrappers
fault on entry so a faulted op never touched the backend; the sharded
service absorbs transients with retries, marks permanent failures dead,
accounts partial dispatches so they can be re-driven, serves degraded
reads from cached shard snapshots, and rebuilds a dead shard from its
durable WAL bit-identical to a never-faulted run — pinned here across
all five backends.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analytics import connected_components
from repro.api import (
    Graph,
    PartialDispatchError,
    ShardedGraph,
    ShardError,
    backend_names,
)
from repro.api.sharding import MAX_ATTEMPTS, SHARD_DEAD, SHARD_DEGRADED, SHARD_HEALTHY
from repro.chaos import FaultPlan, FaultSpec, FaultyBackend
from repro.chaos.plan import FaultKinds
from repro.coo import COO
from repro.eventlog.events import StructuralEvent
from repro.gpusim.counters import counting
from repro.persist import apply_event, scan_wal
from repro.stream.incremental import IncrementalConnectedComponents
from repro.util.errors import (
    PermanentFault,
    TransientFault,
    ValidationError,
)

pytestmark = pytest.mark.chaos


def schedule(plan):
    """A plan's fired faults as comparable tuples."""
    return [(r.point, r.kind, r.arrival, r.spec_index) for r in plan.fired]


def assert_snaps_identical(got, want):
    assert np.array_equal(got.row_ptr, want.row_ptr)
    assert np.array_equal(got.col_idx, want.col_idx)
    if want.weights is not None:
        assert np.array_equal(got.weights, want.weights)


class TestFaultPlan:
    def test_same_seed_same_schedule(self):
        specs = (FaultSpec("p.*", kind="transient", rate=0.4, max_fires=None),)
        runs = []
        for _ in range(2):
            plan = FaultPlan(7, specs)
            for i in range(200):
                try:
                    plan.arrive(f"p.{i % 3}")
                except TransientFault:
                    pass
            runs.append(schedule(plan))
        assert runs[0] == runs[1]
        assert runs[0]  # rate 0.4 over 200 arrivals certainly fires

    def test_different_seed_different_schedule(self):
        def run(seed):
            plan = FaultPlan(seed, (FaultSpec("x", rate=0.5, max_fires=None),))
            fired = []
            for i in range(64):
                try:
                    plan.arrive("x")
                except TransientFault:
                    fired.append(i)
            return fired

        assert run(1) != run(2)

    def test_spec_streams_are_independent(self):
        """Arrivals at a point only one rule matches never perturb
        another rule's draw stream."""
        spec_a = FaultSpec("a", rate=0.5, max_fires=None)
        spec_b = FaultSpec("b", rate=0.5, max_fires=None)

        def b_schedule(extra_a_arrivals):
            plan = FaultPlan(3, (spec_a, spec_b))
            for _ in range(extra_a_arrivals):
                try:
                    plan.arrive("a")
                except TransientFault:
                    pass
            fired = []
            for i in range(64):
                try:
                    plan.arrive("b")
                except TransientFault:
                    fired.append(i)
            return fired

        assert b_schedule(0) == b_schedule(17)

    def test_after_and_max_fires(self):
        plan = FaultPlan(0, (FaultSpec("w", kind="transient", after=2, max_fires=2),))
        outcomes = []
        for _ in range(6):
            try:
                plan.arrive("w")
                outcomes.append("ok")
            except TransientFault:
                outcomes.append("fault")
        assert outcomes == ["ok", "ok", "fault", "fault", "ok", "ok"]

    def test_permanent_kind_raises_permanent(self):
        plan = FaultPlan(0, (FaultSpec("gone", kind="permanent"),))
        with pytest.raises(PermanentFault):
            plan.arrive("gone")

    @pytest.mark.parametrize("kind", FaultKinds)
    def test_arrivals_charge_no_device_counters(self, kind):
        """A plan shapes failures; it never stretches modeled time."""
        plan = FaultPlan(0, (FaultSpec("p", kind=kind, after=1),))
        raises = {"transient": TransientFault, "permanent": PermanentFault}
        with counting() as charged:
            assert plan.arrive("p") is None
            if kind in raises:
                with pytest.raises(raises[kind]):
                    plan.arrive("p")
            else:
                assert plan.arrive("p").kind == kind
        assert len(plan.fired) == 1
        assert {k: v for k, v in charged.items() if v} == {}

    def test_slow_kind_is_refused(self):
        assert "slow" not in FaultKinds
        with pytest.raises(ValidationError, match="fault kind"):
            FaultSpec("s", kind="slow")

    def test_validation(self):
        with pytest.raises(ValidationError):
            FaultSpec("p", kind="nope")
        with pytest.raises(ValidationError):
            FaultSpec("p", rate=1.5)
        with pytest.raises(ValidationError):
            FaultSpec("p", after=-1)
        with pytest.raises(ValidationError):
            FaultSpec("p", torn_fraction=1.0)


class TestFaultyBackend:
    def test_fault_on_entry_leaves_backend_untouched(self):
        g = Graph.create("slabhash", num_vertices=32)
        plan = FaultPlan(0, (FaultSpec("b.insert_edges", kind="transient"),))
        g.backend = FaultyBackend(g.backend, plan, prefix="b")
        with pytest.raises(TransientFault):
            g.insert_edges([1], [2])
        assert g.num_edges() == 0  # the wrapped backend never ran
        assert len(g.events) == 0  # and nothing was published
        assert g.insert_edges([1], [2]) == 1  # one-shot spec exhausted

    def test_transparent_without_matching_specs(self):
        g = Graph.create("hornet", num_vertices=32)
        plan = FaultPlan(0)
        g.backend = FaultyBackend(g.backend, plan, prefix="b")
        g.insert_edges([0, 1], [1, 2])
        assert g.num_edges() == 2
        assert bool(g.edge_exists([0], [1])[0])
        assert plan.total_arrivals > 0


def service_with_plan(plan, *, n=64, shards=3):
    svc = ShardedGraph.create("slabhash", n, num_shards=shards)
    for s, shard in enumerate(svc.shards):
        shard.backend = FaultyBackend(shard.backend, plan, prefix=f"shard{s}")
    return svc


class TestHealthAndRetry:
    def test_transient_fault_absorbed_by_retry(self):
        plan = FaultPlan(0, (FaultSpec("shard1.insert_edges", kind="transient"),))
        svc = service_with_plan(plan)
        rng = np.random.default_rng(0)
        src = rng.integers(0, 64, 40, dtype=np.int64)
        dst = rng.integers(0, 64, 40, dtype=np.int64)
        applied = svc.insert_edges(src, dst)
        assert applied > 0
        assert svc.health == [SHARD_HEALTHY] * 3
        assert svc.fault_stats["transient_faults"] == 1
        assert svc.fault_stats["retries"] == 1

    def test_retry_exhaustion_marks_degraded(self):
        plan = FaultPlan(
            0, (FaultSpec("shard0.insert_edges", kind="transient", max_fires=None),)
        )
        svc = service_with_plan(plan)
        with pytest.raises(PartialDispatchError) as exc:
            svc.insert_edges(np.arange(12, dtype=np.int64), np.arange(12, dtype=np.int64) + 13)
        assert svc.shard_health(0) == SHARD_DEGRADED
        assert 0 in exc.value.report.failed_shards
        # A later fault-free batch restores the shard to healthy.
        svc2 = service_with_plan(
            FaultPlan(
                0,
                (FaultSpec("shard0.insert_edges", kind="transient", max_fires=MAX_ATTEMPTS),),
            )
        )
        with pytest.raises(PartialDispatchError):
            svc2.insert_edges(np.arange(12, dtype=np.int64), np.arange(12, dtype=np.int64) + 13)
        assert svc2.shard_health(0) == SHARD_DEGRADED
        svc2.insert_edges(np.arange(12, dtype=np.int64), np.arange(12, dtype=np.int64) + 25)
        assert svc2.shard_health(0) == SHARD_HEALTHY

    def test_permanent_fault_marks_dead_and_partial_raises(self):
        plan = FaultPlan(0, (FaultSpec("shard2.insert_edges", kind="permanent"),))
        svc = service_with_plan(plan)
        rng = np.random.default_rng(1)
        src = rng.integers(0, 64, 60, dtype=np.int64)
        dst = rng.integers(0, 64, 60, dtype=np.int64)
        with pytest.raises(PartialDispatchError) as exc:
            svc.insert_edges(src, dst)
        assert svc.shard_health(2) == SHARD_DEAD
        report = exc.value.report
        assert report.failed_shards == (2,)
        assert set(report.applied) <= {0, 1}
        assert svc.fault_stats["permanent_faults"] == 1

    def test_dead_shard_not_reattempted(self):
        plan = FaultPlan(0, (FaultSpec("shard1.insert_edges", kind="permanent"),))
        svc = service_with_plan(plan)
        rng = np.random.default_rng(2)
        reports = []
        for _ in range(3):
            src = rng.integers(0, 64, 30, dtype=np.int64)
            dst = rng.integers(0, 64, 30, dtype=np.int64)
            with pytest.raises(PartialDispatchError) as exc:
                svc.insert_edges(src, dst)
            reports.append(exc.value.report)
        # One permanent fire; later batches skip the dead shard outright.
        assert svc.fault_stats["permanent_faults"] == 1
        assert all("dead" in reason for _, reason in reports[-1].failed)

    def test_thrash_is_absorbed_deterministically(self):
        """Rate-0.3 transient faults on every shard's edge mutations over
        an insert / delete stream: every fault is retried away, the final
        graph equals a fault-free service's, and the schedule is a pure
        function of the plan seed."""
        specs = (
            FaultSpec("shard*.insert_edges", kind="transient", rate=0.3, max_fires=None),
            FaultSpec("shard*.delete_edges", kind="transient", rate=0.3, max_fires=None),
        )

        def run(plan):
            svc = service_with_plan(plan, n=256)
            rng = np.random.default_rng(5)
            for _ in range(6):
                src = rng.integers(0, 256, 96, dtype=np.int64)
                dst = rng.integers(0, 256, 96, dtype=np.int64)
                svc.insert_edges(src, dst)
                svc.delete_edges(src[:32], dst[:32])
            return svc

        plan, replay = FaultPlan(11, specs), FaultPlan(11, specs)
        faulted = run(plan)
        run(replay)
        stats = faulted.fault_stats
        assert stats["transient_faults"] > 0
        assert stats["retries"] == stats["transient_faults"]  # none exhausted the policy
        assert faulted.health == [SHARD_HEALTHY] * 3
        assert_snaps_identical(faulted.snapshot(), run(FaultPlan(11)).snapshot())
        assert schedule(plan) == schedule(replay)


class TestEveryReadTakesTheRetryPath:
    """snapshot() / export_coo() used to call the shards bare — an injected
    fault surfaced raw, uncounted, with health untouched — and neighbors()
    classified faults by hand without retrying.  They now go through the
    same ``_attempt`` as every other routed call."""

    READS = {
        "snapshot": lambda svc, v: svc.snapshot(),
        "export_coo": lambda svc, v: svc.export_coo(),
        "neighbors": lambda svc, v: svc.neighbors(v),
    }

    def build(self, op, kind):
        plan = FaultPlan(0, (FaultSpec(f"shard1.{op}", kind=kind),))
        svc = service_with_plan(plan)
        rng = np.random.default_rng(4)
        svc.insert_edges(
            rng.integers(0, 64, 80, dtype=np.int64), rng.integers(0, 64, 80, dtype=np.int64)
        )
        victim = int(np.flatnonzero(svc.partitioner.shard_of(np.arange(64)) == 1)[0])
        return svc, victim

    @pytest.mark.parametrize("op", sorted(READS))
    def test_transient_fault_absorbed_by_retry(self, op):
        svc, victim = self.build(op, "transient")
        self.READS[op](svc, victim)  # the retry served it
        assert svc.health == [SHARD_HEALTHY] * 3
        assert svc.fault_stats["transient_faults"] == 1
        assert svc.fault_stats["retries"] == 1

    @pytest.mark.parametrize("op", sorted(READS))
    def test_permanent_fault_raises_typed_error_and_kills_shard(self, op):
        svc, victim = self.build(op, "permanent")
        version = svc.mutation_version
        with pytest.raises(ShardError) as exc:
            self.READS[op](svc, victim)
        assert exc.value.shard == 1 and exc.value.op == op
        assert isinstance(exc.value.__cause__, PermanentFault)
        assert svc.shard_health(1) == SHARD_DEAD
        # A death is a version step: no cached or merged snapshot spans it.
        assert svc.mutation_version > version
        assert svc.fault_stats["permanent_faults"] == 1

    def test_degraded_snapshot_retries_before_serving_stale(self):
        svc, _ = self.build("snapshot", "transient")
        assert svc.degraded_snapshot().fresh
        assert svc.fault_stats["retries"] == 1
        assert svc.fault_stats["degraded_reads"] == 0


class TestDegradedReads:
    def build(self):
        plan = FaultPlan(0)
        svc = service_with_plan(plan, n=96, shards=3)
        rng = np.random.default_rng(3)
        src = rng.integers(0, 96, 200, dtype=np.int64)
        dst = rng.integers(0, 96, 200, dtype=np.int64)
        svc.insert_edges(src, dst)
        return svc, rng

    def test_snapshot_refuses_with_dead_shard(self):
        svc, _ = self.build()
        svc.snapshot()
        svc.kill_shard(1)
        with pytest.raises(ShardError) as exc:
            svc.snapshot()
        assert exc.value.shard == 1
        assert "degraded_snapshot" in str(exc.value)

    def test_degraded_read_serves_cached_shard_with_staleness(self):
        svc, rng = self.build()
        live = svc.snapshot()  # populates the per-shard cache
        svc.kill_shard(1)
        degraded = svc.degraded_snapshot()
        assert degraded.stale_shards == (1,)
        assert degraded.missing_shards == ()
        assert not degraded.fresh
        # Nothing changed since the cache was cut: the view is still exact.
        assert_snaps_identical(degraded.snapshot, live)
        # Mutations to live shards show up; the dead shard stays pinned.
        src = rng.integers(0, 96, 50, dtype=np.int64)
        dst = rng.integers(0, 96, 50, dtype=np.int64)
        with pytest.raises(PartialDispatchError):
            svc.insert_edges(src, dst)
        after = svc.degraded_snapshot()
        assert after.snapshot.num_edges > live.num_edges
        assert after.stale_shards == (1,) and after.cut_version >= 0
        assert svc.fault_stats["degraded_reads"] == 2

    def test_degraded_read_without_cache_serves_empty_shard(self):
        svc, _ = self.build()
        svc.kill_shard(2)  # killed before any snapshot was ever cut
        degraded = svc.degraded_snapshot()
        assert degraded.missing_shards == (2,)
        # Served view holds only the live shards' edges.
        assert degraded.snapshot.num_edges < svc.num_edges() + 1


class TestQueryShardErrors:
    def test_queries_raise_typed_shard_error(self):
        svc, _ = TestDegradedReads().build()
        svc.kill_shard(0)
        dead_src = np.flatnonzero(svc.partitioner.shard_of(np.arange(96)) == 0)[:4]
        probes = dead_src.astype(np.int64)
        for op, call in [
            ("degree", lambda: svc.degree(probes)),
            ("edge_exists", lambda: svc.edge_exists(probes, probes + 1)),
            ("adjacencies", lambda: svc.adjacencies(probes)),
            ("neighbors", lambda: svc.neighbors(int(probes[0]))),
        ]:
            with pytest.raises(ShardError) as exc:
                call()
            assert exc.value.shard == 0
            assert exc.value.op == op


class TestKillRebuildPin:
    @pytest.mark.parametrize("name", sorted(backend_names()))
    def test_rebuild_bit_identical_across_backends(self, name, tmp_path):
        """Fixed seeds: kill → rebuild → redrive converges every backend
        to the exact snapshot of a never-faulted run."""
        from repro.api import capabilities

        n, rounds = 96, 4
        weighted = capabilities(name).weighted

        def build(directory, chaos):
            svc = ShardedGraph.create(name, n, num_shards=3, weighted=weighted)
            svc.attach_durability(directory, fsync="never")
            reports = []

            def send(op, *args):
                try:
                    getattr(svc, op)(*args)
                except PartialDispatchError as exc:
                    reports.append(exc.report)  # kept until the shard is back

            rng = np.random.default_rng(11)
            for r in range(rounds):
                src = rng.integers(0, n, 50, dtype=np.int64)
                dst = rng.integers(0, n, 50, dtype=np.int64)
                w = rng.integers(1, 9, 50, dtype=np.int64) if weighted else None
                send("insert_edges", src, dst, w)
                if r == 1 and chaos:
                    svc.kill_shard(1)  # mid-workload
                pick_s = rng.integers(0, n, 10, dtype=np.int64)
                pick_d = rng.integers(0, n, 10, dtype=np.int64)
                send("delete_edges", pick_s, pick_d)
            if chaos:
                assert reports  # the dead shard's rows were reported
                svc.rebuild_shard(1)
                assert [svc.redrive(report) for report in reports] == [None] * len(reports)
            svc.stores.close()
            return svc

        clean = build(tmp_path / "clean", chaos=False)
        faulted = build(tmp_path / "faulted", chaos=True)
        assert faulted.health == [SHARD_HEALTHY] * 3
        assert_snaps_identical(faulted.snapshot(), clean.snapshot())

    def test_mutation_version_strictly_increases_across_failover(self, tmp_path):
        """kill → partial dispatch → rebuild → redrive each step the
        service version: a sum of shard versions stood still on the kill
        and fell on the rebuild, which replays only the WAL tail past
        the shard's checkpoint."""
        svc = ShardedGraph.create("slabhash", 64, num_shards=3)
        stores = svc.attach_durability(tmp_path / "stores", fsync="never")
        rng = np.random.default_rng(8)

        def batch():
            return rng.integers(0, 64, (2, 40), dtype=np.int64)

        for _ in range(20):
            svc.insert_edges(*batch())
        stores.checkpoint()
        for _ in range(3):
            svc.insert_edges(*batch())
        versions = [svc.mutation_version]
        svc.kill_shard(1)
        versions.append(svc.mutation_version)
        with pytest.raises(PartialDispatchError) as exc:
            svc.insert_edges(*batch())
        versions.append(svc.mutation_version)
        svc.rebuild_shard(1)
        versions.append(svc.mutation_version)
        assert svc.redrive(exc.value.report) is None
        versions.append(svc.mutation_version)
        svc.insert_edges(*batch())
        versions.append(svc.mutation_version)
        assert versions == sorted(set(versions)), versions
        stores.close()

    def test_router_markers_never_reach_a_shard_wal(self, tmp_path):
        """A partial dispatch, a kill, a rebuild and a redrive are version
        steps with no event: no ``partial_dispatch`` / ``kill_shard`` /
        ``rebuild_shard`` marker is published anywhere, so none reaches a
        shard WAL, and replay still treats one as a typed error, not a
        record to skip."""
        svc = ShardedGraph.create("slabhash", 64, num_shards=3)
        stores = svc.attach_durability(tmp_path / "stores", fsync="never")
        rng = np.random.default_rng(3)
        batch = rng.integers(0, 64, (2, 80), dtype=np.int64)
        svc.insert_edges(*batch)
        svc.kill_shard(1)
        with pytest.raises(PartialDispatchError) as exc:
            svc.delete_edges(*batch[:, :40])
        svc.rebuild_shard(1)
        assert svc.redrive(exc.value.report) is None
        stores.sync()
        markers = {"partial_dispatch", "kill_shard", "rebuild_shard"}
        published = {getattr(e, "reason", None) for e in svc.events.cursor(0).poll()[0]}
        assert not published & markers
        for s in range(svc.num_shards):
            logged = {getattr(e, "reason", None) for e in scan_wal(stores.wal_dir(s)).events}
            assert not logged & markers, s
        stores.close()
        marker = StructuralEvent(0, 0, 1, reason="partial_dispatch", payload=np.array([1]))
        with pytest.raises(ValidationError, match="cannot replay structural event"):
            apply_event(Graph.create("slabhash", 8), marker)


class TestRedriveEquivalence:
    """kill → op → rebuild → redrive lands every mutator on the state of a
    never-faulted service, and an attached incremental analytic stays
    exact: the steps the facade does not publish answer it cold."""

    N = 96

    def run(self, op, directory, *, faulted=False):
        """Apply ``op`` once; when ``faulted``, shard 1 is dead when it
        arrives, and the raised report is re-driven after the rebuild."""
        svc = ShardedGraph.create("slabhash", self.N, num_shards=3)
        svc.attach_durability(directory, fsync="never")
        cc = IncrementalConnectedComponents(svc)
        rng = np.random.default_rng(21)
        src = rng.integers(0, self.N, 150, dtype=np.int64)
        dst = rng.integers(0, self.N, 150, dtype=np.int64)
        if op != "bulk_build":  # a bulk build needs the empty graph
            svc.insert_edges(src, dst)
        cc.labels()
        more = rng.integers(0, self.N, (2, 60), dtype=np.int64)
        # Victims the dead shard does not own: deleting a vertex reads its
        # out-list from its owner first.
        victims = np.arange(0, self.N, 7)
        victims = victims[svc.partitioner.shard_of(victims) != 1]
        mutate = {
            "insert_edges": lambda: svc.insert_edges(more[0], more[1]),
            "delete_edges": lambda: svc.delete_edges(src[:60], dst[:60]),
            "delete_vertices": lambda: svc.delete_vertices(victims),
            "bulk_build": lambda: svc.bulk_build(COO(src, dst, self.N)),
        }[op]
        if not faulted:
            mutate()
        else:
            svc.kill_shard(1)
            with pytest.raises(PartialDispatchError) as exc:
                mutate()
            report = exc.value.report
            assert report.op == op and report.failed_shards == (1,)
            svc.rebuild_shard(1)
            cc.labels()  # synced before the redrive: its events must fold in
            assert svc.redrive(report) is None
        svc.stores.close()
        return svc, cc

    @pytest.mark.parametrize(
        "op", ["insert_edges", "delete_edges", "delete_vertices", "bulk_build"]
    )
    def test_redriven_op_equals_never_faulted(self, op, tmp_path):
        clean, _ = self.run(op, tmp_path / "clean")
        faulted, cc = self.run(op, tmp_path / "faulted", faulted=True)
        assert faulted.health == [SHARD_HEALTHY] * 3
        assert faulted.num_edges() == clean.num_edges() > 0
        assert_snaps_identical(faulted.snapshot(), clean.snapshot())
        assert np.array_equal(cc.labels(), connected_components(faulted.snapshot()))

    @pytest.mark.parametrize("faulted_shard", [0, 1])
    @pytest.mark.parametrize("name", ["btree", "faimgraph", "slabhash"])
    def test_retried_vertex_delete_returns_the_full_count(self, name, faulted_shard):
        """A shard's share of a vertex delete is the reverse pairs, then
        the victims.  A transient fault on the victims used to re-send the
        pairs on retry; they then removed 0, and the first try's count
        was lost (61 or 55 of 78 on slabhash)."""

        pairs = np.random.default_rng(3).integers(0, 64, (2, 300), dtype=np.int64)
        src, dst = np.concatenate(pairs), np.concatenate(pairs[::-1])
        victims = [5, 9, 17, 33]

        def run(plan):
            svc = ShardedGraph.create(name, 64, num_shards=2)
            for s, shard in enumerate(svc.shards):
                shard.backend = FaultyBackend(shard.backend, plan, prefix=f"shard{s}")
            svc.insert_edges(src, dst)
            return svc, svc.delete_vertices(victims)

        single = Graph.create(name, num_vertices=64)
        single.insert_edges(src, dst)
        want = single.delete_vertices(victims)
        clean, clean_count = run(FaultPlan(0))
        spec = FaultSpec(f"shard{faulted_shard}.delete_vertices", kind="transient")
        faulted, count = run(FaultPlan(0, (spec,)))
        assert faulted.fault_stats["retries"] == 1
        assert count == clean_count == want
        assert_snaps_identical(faulted.snapshot(), clean.snapshot())

    def test_deleting_a_vertex_whose_owner_is_dead_applies_nothing(self):
        """The template may step the version before the reverse-pair read
        raises; no edge moves and no event is published."""
        svc = ShardedGraph.create("slabhash", self.N, num_shards=3)
        svc.insert_edges(*np.random.default_rng(2).integers(0, self.N, (2, 150)))
        victim = int(np.flatnonzero(svc.partitioner.shard_of(np.arange(self.N)) == 1)[0])
        before = svc.snapshot()
        svc.kill_shard(1)
        edges, events = svc.num_edges(), svc.events.next_seq
        with pytest.raises(ShardError) as exc:
            svc.delete_vertices([victim])
        assert exc.value.shard == 1 and exc.value.op == "delete_vertices"
        assert (svc.num_edges(), svc.events.next_seq) == (edges, events)
        assert_snaps_identical(svc.degraded_snapshot().snapshot, before)
