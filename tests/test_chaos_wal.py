"""The durable log under injected disk faults.

Satellites 2 and 3 of the robustness PR: torn and failed writes keep the
on-disk log ``scan_wal``-clean (the writer truncates the partial record
and surfaces a typed PersistError), ``repair_wal`` is idempotent,
``LogFollower.poll`` stays exact across segment rotation while appends
are faulting, teardown (``close``/``flush``) is safe after any fault,
and the sharded stores count durability gaps, refuse unsafe rebuilds,
and recover exactly once a checkpoint heals the gap.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import PartialDispatchError, ShardedGraph
from repro.chaos import FaultPlan, FaultSpec, FaultyStore
from repro.chaos.inject import FaultyFile
from repro.eventlog.events import EdgeBatch
from repro.persist import (
    LogFollower,
    WalWriter,
    list_segments,
    repair_wal,
    scan_wal,
)
from repro.persist.wal import encode_record
from repro.util.errors import PersistError

pytestmark = pytest.mark.chaos


def batch(seq, rows=8, seed=0):
    rng = np.random.default_rng(seed + seq)
    return EdgeBatch(
        seq, seq, seq + 1, True,
        rng.integers(0, 64, rows), rng.integers(0, 64, rows), None, rows=rows,
    )


def faulty_writer(wal_dir, plan, **kwargs):
    store = FaultyStore(plan, prefix="wal")
    kwargs.setdefault("fsync", "never")
    return WalWriter(wal_dir, opener=store.opener, **kwargs)


class TestTornAndFailedWrites:
    def test_failed_append_is_typed_and_log_stays_clean(self, tmp_path):
        plan = FaultPlan(0, (FaultSpec("wal.write", kind="oserror", after=3),))
        w = faulty_writer(tmp_path / "wal", plan)
        w.append(batch(0))
        w.append(batch(1))
        # Arrival 3 is the next record's frame (arrivals 0-2: segment
        # header + two records) — the append fails, the log does not.
        with pytest.raises(PersistError) as exc:
            w.append(batch(2))
        assert exc.value.op == "write"
        w.close()
        scan = scan_wal(tmp_path / "wal")
        assert not scan.torn
        assert [e.seq for e in scan.events] == [0, 1]

    def test_torn_append_truncated_away(self, tmp_path):
        plan = FaultPlan(
            0, (FaultSpec("wal.write", kind="torn", after=3, torn_fraction=0.5),)
        )
        w = faulty_writer(tmp_path / "wal", plan)
        w.append(batch(0))
        w.append(batch(1))
        with pytest.raises(PersistError):
            w.append(batch(2))
        # The half-written record was rewound: the scan sees clean history
        # and a writer resumed at the next seq appends contiguously.
        scan = scan_wal(tmp_path / "wal")
        assert not scan.torn and [e.seq for e in scan.events] == [0, 1]
        if not w.broken:
            w.append(batch(2))
            w.close()
            scan = scan_wal(tmp_path / "wal")
            assert [e.seq for e in scan.events] == [0, 1, 2]

    def test_teardown_safe_after_fault(self, tmp_path):
        plan = FaultPlan(0, (FaultSpec("wal.write", kind="oserror", after=2),))
        w = faulty_writer(tmp_path / "wal", plan)
        w.append(batch(0))
        with pytest.raises(PersistError):
            w.append(batch(1))
        # Idempotent, non-raising teardown regardless of fault state.
        w.flush()
        w.close()
        w.close()
        w.flush()

    def test_injected_close_fault_does_not_leak(self, tmp_path):
        plan = FaultPlan(0, (FaultSpec("wal.close", kind="oserror"),))
        w = faulty_writer(tmp_path / "wal", plan)
        w.append(batch(0))
        w.close()  # the injected close failure is absorbed, not raised
        assert scan_wal(tmp_path / "wal").events


class TestRepairIdempotency:
    def _tear_tail(self, wal_dir, plan=None):
        """Append a half-record to the live segment via a FaultyFile."""
        seg = list_segments(wal_dir)[-1]
        record = encode_record(batch(99), 99)
        plan = plan or FaultPlan(0, (FaultSpec("raw.write", kind="torn"),))
        fh = FaultyFile(open(seg, "ab"), plan, "raw")
        with pytest.raises(OSError):
            fh.write(record)
        fh._fh.close()

    def test_repair_wal_is_idempotent(self, tmp_path):
        wal_dir = tmp_path / "wal"
        with WalWriter(wal_dir, fsync="never") as w:
            for i in range(4):
                w.append(batch(i))
        self._tear_tail(wal_dir)
        scan = scan_wal(wal_dir)
        assert scan.torn
        assert repair_wal(scan) is True
        clean = scan_wal(wal_dir)
        assert not clean.torn and [e.seq for e in clean.events] == [0, 1, 2, 3]
        # Repairing an already-clean scan changes nothing.
        assert repair_wal(clean) is False
        again = scan_wal(wal_dir)
        assert not again.torn and len(again.events) == 4

    def test_repair_then_tear_then_repair(self, tmp_path):
        wal_dir = tmp_path / "wal"
        with WalWriter(wal_dir, fsync="never") as w:
            for i in range(3):
                w.append(batch(i))
        for _ in range(2):  # tear, repair, tear again, repair again
            self._tear_tail(wal_dir)
            scan = scan_wal(wal_dir)
            assert scan.torn
            repair_wal(scan)
            assert not scan_wal(wal_dir).torn
        assert [e.seq for e in scan_wal(wal_dir).events] == [0, 1, 2]


class TestFollowerUnderFaults:
    def test_poll_across_rotation_while_appends_fault(self, tmp_path):
        """The follower sees exactly the records that survived, in order,
        across segment boundaries, while every third append is faulting."""
        wal_dir = tmp_path / "wal"
        plan = FaultPlan(
            3, (FaultSpec("wal.write", kind="oserror", after=4, max_fires=None, rate=0.3),)
        )
        # Small segments force rotation mid-stream.
        w = faulty_writer(wal_dir, plan, segment_bytes=2048)
        follower = LogFollower(wal_dir)
        appended, seen = [], []
        seq = 0
        for i in range(40):
            if w.broken:
                w.close()
                seq = scan_wal(wal_dir).next_seq
                w = faulty_writer(wal_dir, plan, segment_bytes=2048, start_seq=seq)
            try:
                w.append(batch(seq, rows=16))
                appended.append(seq)
                seq += 1
            except PersistError:
                pass  # truncated away; the same seq retries next round
            if i % 7 == 0:
                w.flush()
                seen.extend(e.seq for e in follower.poll())
        w.flush()
        w.close()
        seen.extend(e.seq for e in follower.poll())
        assert len(list_segments(wal_dir)) > 1
        scan = scan_wal(wal_dir)
        assert not scan.torn
        assert [e.seq for e in scan.events] == appended == seen
        assert plan.fires_at("wal.write") > 0


class TestShardStoresUnderFaults:
    def _service(self, tmp_path, plan):
        svc = ShardedGraph.create("slabhash", 64, num_shards=2)
        store = FaultyStore(plan, prefix="wal")
        svc.attach_durability(tmp_path / "stores", fsync="never", opener=store.opener)
        return svc

    def test_gap_refuses_rebuild_until_checkpoint_heals(self, tmp_path):
        plan = FaultPlan(0)
        svc = self._service(tmp_path, plan)
        rng = np.random.default_rng(5)
        svc.insert_edges(
            rng.integers(0, 64, 40, dtype=np.int64), rng.integers(0, 64, 40, dtype=np.int64)
        )
        # Fail the next WAL append on every shard's log: applied in
        # memory, lost to disk — a durability gap, not a dead shard.
        plan.arm("wal.write", kind="oserror", max_fires=2)
        src = rng.integers(0, 64, 30, dtype=np.int64)
        dst = rng.integers(0, 64, 30, dtype=np.int64)
        with pytest.raises(PartialDispatchError) as exc:
            svc.insert_edges(src, dst)
        assert sum(svc.stores.gaps) >= 1
        gapped = next(s for s in range(2) if svc.stores.gaps[s])
        with pytest.raises(PersistError, match="durability gap"):
            svc.stores.rebuild(gapped, None)
        # Healing: a checkpoint captures the full live state.
        svc.stores.checkpoint()
        assert sum(svc.stores.gaps) == 0
        live = svc.snapshot()
        svc.kill_shard(gapped)
        svc.rebuild_shard(gapped)
        assert svc.redrive(exc.value.report) is None
        got = svc.snapshot()
        assert np.array_equal(got.row_ptr, live.row_ptr)
        assert np.array_equal(got.col_idx, live.col_idx)

    def test_partial_dispatch_raised_on_wal_fault(self, tmp_path):
        plan = FaultPlan(0)
        svc = self._service(tmp_path, plan)
        plan.arm("wal.write", kind="oserror", max_fires=1)
        rng = np.random.default_rng(6)
        with pytest.raises(PartialDispatchError) as exc:
            svc.insert_edges(
                rng.integers(0, 64, 30, dtype=np.int64), rng.integers(0, 64, 30, dtype=np.int64)
            )
        assert len(exc.value.report.failed_shards) == 1
        assert svc.fault_stats["partial_dispatches"] == 1

    def test_failed_rebuild_keeps_the_old_shard_durable(self, tmp_path):
        """A rebuild that raises must not leave the still-live shard with
        no WAL sink: its later events still reach its log (or would
        count as a durability gap) — never silence."""
        plan = FaultPlan(0)
        svc = self._service(tmp_path, plan)
        stores = svc.stores
        rng = np.random.default_rng(7)

        def insert(rows):
            svc.insert_edges(
                rng.integers(0, 64, rows, dtype=np.int64), rng.integers(0, 64, rows, dtype=np.int64)
            )

        insert(80)
        stores.sync()
        logged = len(scan_wal(stores.wal_dir(0)).events)
        # The one file open recovery needs — the new writer's — fails.
        plan.arm("wal.open", kind="oserror", max_fires=1)
        with pytest.raises(PersistError):
            svc.rebuild_shard(0)
        assert svc.shard_health(0) == "healthy"
        insert(80)
        stores.sync()
        assert len(scan_wal(stores.wal_dir(0)).events) == logged + 1
        assert stores.gaps == (0, 0)
        # So a retried rebuild restores everything the shard applied.
        live = svc.shards[0].snapshot()
        assert svc.rebuild_shard(0).replayed_events == logged + 1
        got = svc.shards[0].snapshot()
        assert np.array_equal(got.row_ptr, live.row_ptr)
        assert np.array_equal(got.col_idx, live.col_idx)
