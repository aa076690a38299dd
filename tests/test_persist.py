"""Durability tests: WAL framing, checkpoints, crash recovery, replicas.

The acceptance bar for :mod:`repro.persist` is *bit-identity*: after any
combination of checkpoint, crash (torn WAL tail, corrupt record, deleted
checkpoint), and replay, the recovered graph's sorted-CSR snapshot must
equal the lost live instance's exactly — for every registered backend,
weighted and unweighted.
"""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

import repro.api as api
from repro.api import Graph, ShardedGraph
from repro.coo import COO
from repro.eventlog.events import EdgeBatch, StructuralEvent
from repro.persist import (
    LogFollower,
    WalWriter,
    apply_event,
    latest_valid_checkpoint,
    list_segments,
    load_checkpoint,
    open_graph,
    repair_wal,
    scan_wal,
    write_checkpoint,
)
from repro.persist.wal import RECORD_HEADER, SEGMENT_HEADER
from repro.stream.incremental import IncrementalConnectedComponents
from repro.util.errors import PersistError, ValidationError

ALL_BACKENDS = sorted(api.backend_names())


def assert_snaps_identical(got, want, ctx=""):
    assert got.num_vertices == want.num_vertices, ctx
    assert np.array_equal(got.row_ptr, want.row_ptr), ctx
    assert np.array_equal(got.col_idx, want.col_idx), ctx
    if want.weights is None:
        assert got.weights is None, ctx
    else:
        assert np.array_equal(got.weights, want.weights), ctx


def mutate(g, rng, *, weighted, rounds=4, batch=48):
    """A deterministic mixed workload (inserts + deletes + vertex ops)."""
    n = g.num_vertices
    for _ in range(rounds):
        src = rng.integers(0, n, batch, dtype=np.int64)
        dst = rng.integers(0, n, batch, dtype=np.int64)
        w = rng.integers(1, 100, batch, dtype=np.int64) if weighted else None
        g.insert_edges(src, dst, w)
        g.delete_edges(src[: batch // 4], dst[: batch // 4])
    if g.capabilities.vertex_dynamic:
        g.delete_vertices(rng.choice(n, size=3, replace=False).astype(np.int64))


# ---------------------------------------------------------------------------
# WAL framing
# ---------------------------------------------------------------------------


class TestWalFraming:
    def _events_roundtrip(self, tmp_path, events):
        with WalWriter(tmp_path / "wal", fsync="never") as w:
            for e in events:
                w.append(e)
        scan = scan_wal(tmp_path / "wal")
        assert not scan.torn
        assert scan.next_seq == len(events)
        return scan.events

    def test_edge_batches_roundtrip(self, tmp_path):
        src = np.array([3, 1, 4], dtype=np.int64)
        dst = np.array([1, 5, 9], dtype=np.int64)
        w = np.array([10, 20, 30], dtype=np.int64)
        events = [
            EdgeBatch(0, 0, 1, True, src, dst, w, rows=3),
            EdgeBatch(1, 1, 2, False, dst, src, None, rows=6),
            EdgeBatch(2, None, None, True, src, src, None, rows=3),
        ]
        got = self._events_roundtrip(tmp_path, events)
        for orig, back in zip(events, got):
            assert isinstance(back, EdgeBatch)
            assert back.seq == orig.seq
            assert back.is_insert == orig.is_insert
            assert back.rows == orig.rows
            assert back.before_version == orig.before_version
            assert back.after_version == orig.after_version
            assert np.array_equal(back.src, orig.src)
            assert np.array_equal(back.dst, orig.dst)
            if orig.weights is None:
                assert back.weights is None
            else:
                assert np.array_equal(back.weights, orig.weights)

    def test_structural_payloads_roundtrip(self, tmp_path):
        vids = np.array([7, 2, 5], dtype=np.int64)
        coo = COO([0, 1], [1, 2], 8, weights=[5, 6])
        events = [
            StructuralEvent(0, 0, 1, "rehash", None),
            StructuralEvent(1, 1, 2, "delete_vertices", vids),
            StructuralEvent(2, 2, 3, "bulk_build", coo),
            StructuralEvent(3, 3, 4, "bulk_build", COO([0], [1], 4)),
        ]
        got = self._events_roundtrip(tmp_path, events)
        assert got[0].reason == "rehash" and got[0].payload is None
        assert np.array_equal(got[1].payload, vids)
        back = got[2].payload
        assert isinstance(back, COO) and back.num_vertices == 8
        assert np.array_equal(back.src, coo.src) and np.array_equal(back.weights, coo.weights)
        assert got[3].payload.weights is None

    def test_rotation_produces_contiguous_segments(self, tmp_path):
        wal_dir = tmp_path / "wal"
        batch = EdgeBatch(0, 0, 1, True, np.arange(64), np.arange(64), None, rows=64)
        with WalWriter(wal_dir, fsync="never", segment_bytes=2048) as w:
            for _ in range(10):
                w.append(batch)
        segments = list_segments(wal_dir)
        assert len(segments) > 1
        # Each segment is named by its first record's seq.
        scan = scan_wal(wal_dir)
        assert not scan.torn and len(scan.events) == 10
        assert [e.seq for e in scan.events] == list(range(10))

    def test_writer_resumes_into_existing_tail(self, tmp_path):
        wal_dir = tmp_path / "wal"
        batch = EdgeBatch(0, 0, 1, True, np.array([1]), np.array([2]), None, rows=1)
        with WalWriter(wal_dir, fsync="never") as w:
            w.append(batch)
            w.append(batch)
        scan = scan_wal(wal_dir)
        with WalWriter(wal_dir, start_seq=scan.next_seq, fsync="never") as w:
            w.append(batch)
        scan = scan_wal(wal_dir)
        assert not scan.torn
        assert [e.seq for e in scan.events] == [0, 1, 2]
        assert len(list_segments(wal_dir)) == 1

    def test_fsync_policy_validated(self, tmp_path):
        with pytest.raises(ValidationError, match="fsync"):
            WalWriter(tmp_path / "wal", fsync="sometimes")

    def test_fsync_always_is_immediately_scannable(self, tmp_path):
        batch = EdgeBatch(0, 0, 1, True, np.array([1]), np.array([2]), None, rows=1)
        w = WalWriter(tmp_path / "wal", fsync="always")
        w.append(batch)
        # No flush/close: the record must already be durable on disk.
        assert len(scan_wal(tmp_path / "wal").events) == 1
        w.close()


# ---------------------------------------------------------------------------
# Scan + repair of torn and corrupt logs
# ---------------------------------------------------------------------------


def _write_batches(wal_dir, count, *, rows=8, segment_bytes=1 << 20):
    rng = np.random.default_rng(0)
    with WalWriter(wal_dir, fsync="never", segment_bytes=segment_bytes) as w:
        for _ in range(count):
            w.append(
                EdgeBatch(
                    0,
                    0,
                    1,
                    True,
                    rng.integers(0, 32, rows),
                    rng.integers(0, 32, rows),
                    None,
                    rows=rows,
                )
            )


class TestScanAndRepair:
    def test_truncation_mid_record_header(self, tmp_path):
        wal_dir = tmp_path / "wal"
        _write_batches(wal_dir, 5)
        seg = list_segments(wal_dir)[-1]
        size = seg.stat().st_size
        with open(seg, "r+b") as fh:
            fh.truncate(size - 1)  # cut inside the final record's payload
        scan = scan_wal(wal_dir)
        assert scan.torn and len(scan.events) == 4
        assert repair_wal(scan)
        rescan = scan_wal(wal_dir)
        assert not rescan.torn and len(rescan.events) == 4

    def test_truncation_mid_batch_arrays(self, tmp_path):
        wal_dir = tmp_path / "wal"
        _write_batches(wal_dir, 5, rows=32)
        seg = list_segments(wal_dir)[-1]
        # Cut deep inside the last record's src/dst array bytes.
        with open(seg, "r+b") as fh:
            fh.truncate(seg.stat().st_size - 100)
        scan = scan_wal(wal_dir)
        assert scan.torn and len(scan.events) == 4
        repair_wal(scan)
        assert len(scan_wal(wal_dir).events) == 4

    def test_crc_corruption_stops_scan_and_drops_suffix(self, tmp_path):
        wal_dir = tmp_path / "wal"
        _write_batches(wal_dir, 12, rows=32, segment_bytes=1024)
        segments = list_segments(wal_dir)
        assert len(segments) >= 3
        # Flip one payload byte in the *first* record of the second segment.
        target = segments[1]
        data = bytearray(target.read_bytes())
        data[SEGMENT_HEADER.size + RECORD_HEADER.size + 10] ^= 0xFF
        target.write_bytes(bytes(data))
        scan = scan_wal(wal_dir)
        assert scan.torn
        assert "CRC" in scan.torn_detail
        # Valid history = exactly segment 1's records; all later segments drop.
        assert scan.dropped == segments[2:]
        assert scan.tail_path == target
        max_seq = scan.events[-1].seq
        assert max_seq < 11
        repair_wal(scan)
        rescan = scan_wal(wal_dir)
        assert not rescan.torn
        assert [e.seq for e in rescan.events] == list(range(max_seq + 1))

    def test_garbage_segment_header(self, tmp_path):
        wal_dir = tmp_path / "wal"
        wal_dir.mkdir()
        (wal_dir / "seg-00000000000000000000.wal").write_bytes(b"not a wal segment")
        scan = scan_wal(wal_dir)
        assert scan.torn and not scan.events
        repair_wal(scan)
        assert not list_segments(wal_dir)

    def test_empty_directory(self, tmp_path):
        scan = scan_wal(tmp_path / "missing")
        assert not scan.torn and scan.next_seq == 0 and not scan.events


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


class TestCheckpoints:
    def _snap(self, weighted):
        g = Graph.create("slabhash", 32, weighted=weighted)
        rng = np.random.default_rng(1)
        w = rng.integers(1, 50, 40) if weighted else None
        g.insert_edges(rng.integers(0, 32, 40), rng.integers(0, 32, 40), w)
        return g.snapshot()

    @pytest.mark.parametrize("weighted", [False, True])
    def test_roundtrip(self, tmp_path, weighted):
        snap = self._snap(weighted)
        manifest = write_checkpoint(
            tmp_path, snap, seq=17, backend="slabhash", weighted=weighted, mutation_version=5
        )
        assert manifest.seq == 17 and manifest.mutation_version == 5
        back, loaded = load_checkpoint(manifest.path)
        assert_snaps_identical(back, snap)
        assert loaded.backend == "slabhash"

    def test_crc_mismatch_rejected_and_skipped(self, tmp_path):
        snap = self._snap(False)
        m = write_checkpoint(tmp_path, snap, seq=3, backend="slabhash", weighted=False)
        write_checkpoint(tmp_path, snap, seq=9, backend="slabhash", weighted=False)
        newest = tmp_path / "ckpt-00000000000000000009.npz"
        data = bytearray(newest.read_bytes())
        data[len(data) // 2] ^= 0xFF
        newest.write_bytes(bytes(data))
        with pytest.raises(ValidationError, match="CRC32"):
            load_checkpoint(tmp_path / "ckpt-00000000000000000009.json")
        found = latest_valid_checkpoint(tmp_path)
        assert found is not None and found[1].seq == m.seq  # fell back to seq 3

    def test_deleted_npz_skipped(self, tmp_path):
        snap = self._snap(False)
        write_checkpoint(tmp_path, snap, seq=3, backend="slabhash", weighted=False)
        write_checkpoint(tmp_path, snap, seq=9, backend="slabhash", weighted=False)
        (tmp_path / "ckpt-00000000000000000009.npz").unlink()
        assert latest_valid_checkpoint(tmp_path)[1].seq == 3

    def test_min_seq_excludes_unreplayable(self, tmp_path):
        snap = self._snap(False)
        write_checkpoint(tmp_path, snap, seq=3, backend="slabhash", weighted=False)
        write_checkpoint(tmp_path, snap, seq=9, backend="slabhash", weighted=False)
        assert latest_valid_checkpoint(tmp_path, min_seq=5)[1].seq == 9
        assert latest_valid_checkpoint(tmp_path, min_seq=10) is None

    def test_empty_directory(self, tmp_path):
        assert latest_valid_checkpoint(tmp_path / "none") is None


# ---------------------------------------------------------------------------
# Crash recovery, cross-backend (the acceptance criterion)
# ---------------------------------------------------------------------------


class _SingleStore:
    """The recovery matrix's subject as a single store: crash = abandon the
    writer (synced but never closed), recover = :func:`open_graph`."""

    def __init__(self, tmp_path, weighted, backend="slabhash"):
        self.dir = tmp_path / "store"
        self.weighted = weighted
        self.dg = open_graph(self.dir, backend, num_vertices=32, weighted=weighted, fsync="never")

    @property
    def graph(self):
        return self.dg.graph

    @property
    def wal(self):
        return self.dg.wal

    def snapshot(self):
        return self.dg.graph.snapshot()

    def checkpoint(self):
        return self.dg.checkpoint()

    def crash(self):
        self.dg.wal.close()  # flush buffers only — no unsubscribe, no clean close

    def recover(self):
        self.dg = open_graph(self.dir, fsync="never")
        return self.dg


class _ShardStore:
    """The same subject as shard 0 of a two-shard service: mutations go
    through the router, crash = ``kill_shard``, recover = ``rebuild_shard``."""

    def __init__(self, tmp_path, weighted, backend="slabhash"):
        self.weighted = weighted
        self.graph = ShardedGraph.create(backend, 32, num_shards=2, weighted=weighted)
        self.stores = self.graph.attach_durability(tmp_path / "stores", fsync="never")
        self.dir = self.stores.shard_dir(0)

    @property
    def wal(self):
        return self.stores.writers[0]

    def snapshot(self):
        return self.graph.shards[0].snapshot()

    def checkpoint(self):
        return self.stores.checkpoint_shard(0)

    def crash(self):
        self.stores.sync()
        self.graph.kill_shard(0)

    def recover(self):
        return self.graph.rebuild_shard(0)


class _RecoveryMatrix:
    """Corruption cases every recovery entry point must survive — both run
    :func:`repro.persist.store._recover`, so each case is stated once and
    executed per subclass ``subject``."""

    subject = None

    def _subject(self, tmp_path, weighted, backend="slabhash", *, checkpoint=True, seed=0):
        """A subject that ran the mixed workload with a mid-way checkpoint
        and then crashed; returns ``(subject, live_snapshot)``."""
        h = self.subject(tmp_path, weighted, backend)
        rng = np.random.default_rng(seed)
        mutate(h.graph, rng, weighted=weighted)
        if checkpoint:
            h.checkpoint()
        mutate(h.graph, rng, weighted=weighted, rounds=2)
        live = h.snapshot()
        h.crash()
        return h, live

    def _replayed(self, h, events):
        reference = Graph.create("slabhash", 32, weighted=h.weighted)
        for e in events:
            apply_event(reference, e)
        return reference.snapshot()

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    @pytest.mark.parametrize("weighted", [False, True])
    def test_recovered_snapshot_bit_identical(self, tmp_path, name, weighted):
        if weighted and not api.capabilities(name).weighted:
            pytest.skip(f"{name} does not support weights")
        h, live = self._subject(tmp_path, weighted, name)
        info = h.recover()
        assert info.recovered_checkpoint is not None
        assert info.replayed_events > 0
        assert_snaps_identical(h.snapshot(), live, f"{name} weighted={weighted}")

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_full_replay_without_any_checkpoint(self, tmp_path, name):
        h, live = self._subject(tmp_path, False, name, checkpoint=False)
        assert h.recover().recovered_checkpoint is None
        assert_snaps_identical(h.snapshot(), live, name)

    def test_deleting_all_checkpoints_still_recovers(self, tmp_path):
        h, live = self._subject(tmp_path, True)
        for p in (h.dir / "checkpoints").iterdir():
            p.unlink()
        assert h.recover().recovered_checkpoint is None
        assert_snaps_identical(h.snapshot(), live)

    def test_deleting_newest_checkpoint_falls_back(self, tmp_path):
        h = self.subject(tmp_path, True)
        rng = np.random.default_rng(3)
        mutate(h.graph, rng, weighted=True)
        first = h.checkpoint()
        mutate(h.graph, rng, weighted=True, rounds=2)
        second = h.checkpoint()
        mutate(h.graph, rng, weighted=True, rounds=1)
        live = h.snapshot()
        h.crash()
        second.path.unlink()
        second.npz_path.unlink()
        assert h.recover().recovered_checkpoint.seq == first.seq
        assert_snaps_identical(h.snapshot(), live)

    def test_torn_tail_truncated_and_appends_continue(self, tmp_path):
        h, _live = self._subject(tmp_path, False)
        seg = list_segments(h.dir / "wal")[-1]
        with open(seg, "r+b") as fh:
            fh.truncate(seg.stat().st_size - 9)  # tear the final record
        before = scan_wal(h.dir / "wal")
        assert h.recover().repaired_torn_tail
        # The recovered graph equals a replay of the surviving prefix.
        assert_snaps_identical(h.snapshot(), self._replayed(h, before.events))
        # The store keeps working: append, crash again, recover again.
        mutate(h.graph, np.random.default_rng(8), weighted=False, rounds=1)
        live = h.snapshot()
        h.crash()
        assert not h.recover().repaired_torn_tail
        assert_snaps_identical(h.snapshot(), live)

    def test_corrupt_mid_log_record_recovers_prefix(self, tmp_path):
        # No checkpoint: a corrupt record truncates history at that point
        # and recovery replays only the surviving prefix.  (With a later
        # checkpoint the store would anchor there instead — see above.)
        h, _ = self._subject(tmp_path, False, checkpoint=False)
        seg = list_segments(h.dir / "wal")[0]
        data = bytearray(seg.read_bytes())
        data[len(data) // 2] ^= 0x01  # lands inside some mid-log record
        seg.write_bytes(bytes(data))
        scan = scan_wal(h.dir / "wal")
        assert scan.torn and scan.events
        assert h.recover().repaired_torn_tail  # recovers whatever survived
        assert_snaps_identical(h.snapshot(), self._replayed(h, scan.events))

    def test_log_lost_after_checkpoint_serves_the_checkpoint(self, tmp_path):
        # Every WAL segment lost *after* a checkpoint at seq > 0: the
        # checkpoint post-dates every surviving record (there are none).
        h = self.subject(tmp_path, True)
        mutate(h.graph, np.random.default_rng(4), weighted=True)
        ckpt = h.checkpoint()
        assert ckpt.seq > 0
        live = h.snapshot()
        h.crash()
        for seg in list_segments(h.dir / "wal"):
            seg.unlink()
        info = h.recover()
        assert info.recovered_checkpoint.seq == ckpt.seq and info.replayed_events == 0
        assert_snaps_identical(h.snapshot(), live)
        # The next record continues at the checkpoint's seq, so the new
        # log is contiguous with it and a reopen scans clean.
        assert h.wal.next_seq == ckpt.seq
        mutate(h.graph, np.random.default_rng(5), weighted=True, rounds=1)
        live = h.snapshot()
        h.crash()
        scan = scan_wal(h.dir / "wal")
        assert not scan.torn and scan.events and scan.start_seq == ckpt.seq
        info = h.recover()
        assert info.recovered_checkpoint.seq == ckpt.seq and not info.repaired_torn_tail
        assert info.replayed_events == len(scan.events)
        assert_snaps_identical(h.snapshot(), live)


class TestCrashRecovery(_RecoveryMatrix):
    subject = _SingleStore

    def test_bulk_build_and_maintenance_replay(self, tmp_path):
        store = tmp_path / "store"
        coo = COO([0, 1, 2], [1, 2, 3], 16, weights=[5, 6, 7])
        dg = open_graph(store, "slabhash", num_vertices=16, weighted=True, fsync="never")
        dg.graph.bulk_build(coo)
        dg.graph.rehash()  # maintenance: logged but skipped on replay
        dg.graph.insert_edges([3], [0], [9])
        live = dg.graph.snapshot()
        dg.wal.close()
        rec = open_graph(store, fsync="never")
        assert_snaps_identical(rec.graph.snapshot(), live)
        rec.close()


class TestStreamResume:
    """The streaming resume contract (README, "Durability and recovery"):
    ``sync()`` acknowledges a batch; after a crash ``open_graph`` recovers
    every acknowledged batch and possibly some unacknowledged ones, and
    the caller re-sends from the batch after its last acknowledged one —
    replace semantics make a re-sent batch the store already holds
    converge to the uninterrupted run's snapshot.

    Checked at every acknowledged position (the synced seed build
    included), with 0, 1 or 3 unacknowledged batches applied before the
    crash, and once more with the final unacknowledged record torn."""

    N = 48
    BATCHES = 14

    def _stream(self, name):
        """``(weighted, seed, batches)``, each batch an ``(op, args)`` pair.
        Every batch carries both orientations of the edges it touches:
        B-tree and faimGraph delete a vertex's in-edges through its own
        out-list (``test_backend_contract.py``'s vertex-dynamic case)."""
        caps = api.capabilities(name)
        rng = np.random.default_rng(17)

        def symmetric(count):
            u = rng.integers(0, self.N, count, dtype=np.int64)
            v = rng.integers(0, self.N, count, dtype=np.int64)
            u, v = u[u != v], v[u != v]
            return np.concatenate([u, v]), np.concatenate([v, u])

        def weights(rows):
            return rng.integers(1, 100, rows, dtype=np.int64) if caps.weighted else None

        src, dst = symmetric(60)
        seed = COO(src, dst, self.N, weights=weights(src.size))
        half = src.size // 2
        batches = []
        for i in range(self.BATCHES):
            if caps.vertex_dynamic and i % 5 == 4:
                victims = rng.choice(self.N, 2, replace=False).astype(np.int64)
                batches.append(("delete_vertices", (victims,)))
            elif i % 3 == 2:
                pick = rng.choice(half, 8, replace=False)  # seed rows, both orientations
                pick = np.concatenate([pick, pick + half])
                batches.append(("delete_edges", (src[pick], dst[pick])))
            else:
                s, d = symmetric(12)
                batches.append(("insert_edges", (s, d, weights(s.size))))
        return caps.weighted, seed, batches

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_resend_after_the_last_acknowledged_batch_converges(self, tmp_path, name):
        weighted, seed, batches = self._stream(name)

        def send(graph, todo):
            for op, args in todo:
                getattr(graph, op)(*args)

        reference = Graph.create(name, self.N, weighted=weighted)
        reference.bulk_build(seed)
        send(reference, batches)
        want = reference.snapshot()
        states = 0
        for acked in range(len(batches) + 1):
            for extra in sorted({min(k, len(batches) - acked) for k in (0, 1, 3)}):
                for torn in (False, True) if extra else (False,):
                    directory = tmp_path / f"{acked}-{extra}-{torn}"
                    dg = open_graph(
                        directory, name, num_vertices=self.N, weighted=weighted, fsync="never"
                    )
                    dg.graph.bulk_build(seed)
                    dg.sync()  # the stream starts once the seed is acknowledged
                    for batch in batches[:acked]:
                        send(dg.graph, [batch])
                        dg.sync()
                    send(dg.graph, batches[acked : acked + extra])  # never acknowledged
                    dg.wal.close()  # the crash: no unsubscribe, no clean close
                    if torn:
                        seg = list_segments(directory / "wal")[-1]
                        with open(seg, "r+b") as fh:
                            fh.truncate(seg.stat().st_size - 9)
                    with open_graph(directory, fsync="never") as recovered:
                        send(recovered.graph, batches[acked:])
                        ctx = f"{name}: acked={acked} extra={extra} torn={torn}"
                        assert_snaps_identical(recovered.graph.snapshot(), want, ctx)
                    states += 1
        assert states == 69


class TestShardCrashRecovery(_RecoveryMatrix):
    subject = _ShardStore

    def test_shard_directory_is_a_single_graph_store(self, tmp_path):
        """``shard-<i>/`` is what ``open_graph`` reads (the wall-clock
        ``service`` workload relies on it): a copy of a synced shard
        directory opens to the snapshot ``rebuild_shard`` restores."""
        h, _live = self._subject(tmp_path, True)
        copy = tmp_path / "copy"
        shutil.copytree(h.dir, copy)
        h.recover()
        with open_graph(copy, "slabhash", num_vertices=32, weighted=True, fsync="never") as dg:
            assert_snaps_identical(dg.graph.snapshot(), h.snapshot())
        # Attach + checkpoint + rebuild leave nothing else behind.
        assert sorted(p.name for p in h.dir.iterdir()) == ["checkpoints", "wal"]


# ---------------------------------------------------------------------------
# Store identity + DurableGraph behavior
# ---------------------------------------------------------------------------


class TestStoreBehavior:
    def test_fresh_store_requires_num_vertices(self, tmp_path):
        with pytest.raises(ValidationError, match="num_vertices"):
            open_graph(tmp_path / "store")

    def test_read_only_requires_existing_store(self, tmp_path):
        with pytest.raises(ValidationError, match="read replica"):
            open_graph(tmp_path / "store", read_only=True)

    def test_identity_mismatch_raises(self, tmp_path):
        store = tmp_path / "store"
        open_graph(store, "slabhash", num_vertices=32, fsync="never").close()
        with pytest.raises(ValidationError, match="backend"):
            open_graph(store, "hornet")
        with pytest.raises(ValidationError, match="num_vertices"):
            open_graph(store, num_vertices=64)
        with pytest.raises(ValidationError, match="weighted"):
            open_graph(store, weighted=True)
        # Omitting the identity accepts the stored one.
        open_graph(store, fsync="never").close()

    def test_zero_segment_bytes_is_rejected_at_every_layer(self, tmp_path):
        """One spelling of the knob, one validator (``WalWriter``):
        ``attach_durability(dir, segment_bytes=0)`` used to attach with
        4 MiB segments."""
        with pytest.raises(ValidationError, match="segment_bytes"):
            open_graph(tmp_path / "g", "slabhash", num_vertices=8, segment_bytes=0)
        service = ShardedGraph.create("slabhash", 8, num_shards=2)
        with pytest.raises(ValidationError, match="segment_bytes"):
            service.attach_durability(tmp_path / "d", segment_bytes=0)
        assert service.stores is None
        assert [shard.events._subscribers for shard in service.shards] == [[], []]
        service.attach_durability(tmp_path / "d", fsync="never").close()  # corrected call

    def test_failed_attach_leaves_no_writer_bound(self, tmp_path):
        """An attach that fails on shard 1 used to leave shard 0's writer
        open and subscribed; a retried attach bound a second writer to
        ``shard-0/wal``, both stamped the same seqs, and a rebuild came
        back with 3 of shard 0's 5 edges."""
        d = tmp_path / "d"
        seed = ShardedGraph.create("slabhash", 64, num_shards=2)
        stores = seed.attach_durability(d, fsync="always")
        seed.insert_edges(np.arange(20), np.arange(1, 21))
        stores.close()

        def refuse_shard_1(path, *args, **kwargs):
            if "shard-1" in Path(path).parts:
                raise OSError("injected open failure")
            return open(path, *args, **kwargs)

        service = ShardedGraph.create("slabhash", 64, num_shards=2)
        with pytest.raises(PersistError):
            service.attach_durability(d, fsync="always", opener=refuse_shard_1)
        assert service.stores is None
        assert [shard.events._subscribers for shard in service.shards] == [[], []]
        service.attach_durability(d, fsync="always")
        service.insert_edges([2, 4, 6, 8, 3, 5], np.arange(30, 36))
        service.insert_edges([10, 12, 14, 16], np.arange(40, 44))
        want = [shard.num_edges() for shard in service.shards]
        for s in range(2):
            service.kill_shard(s)
            service.rebuild_shard(s)
        assert [shard.num_edges() for shard in service.shards] == want
        service.stores.close()

    def test_rebuild_after_close_is_a_typed_error(self, tmp_path):
        """It used to raise a raw ``AttributeError`` from the closed
        writer; the shard stays dead and nothing on disk changes."""
        service = ShardedGraph.create("slabhash", 64, num_shards=2)
        stores = service.attach_durability(tmp_path / "d", fsync="never")
        service.insert_edges(np.arange(20), np.arange(1, 21))
        stores.close()
        service.kill_shard(1)
        on_disk = {p: p.read_bytes() for p in (tmp_path / "d").rglob("*") if p.is_file()}
        with pytest.raises(ValidationError, match="shard-1.*closed"):
            service.rebuild_shard(1)
        assert service.shard_health(1) == "dead"
        assert {p: p.read_bytes() for p in (tmp_path / "d").rglob("*") if p.is_file()} == on_disk

    @pytest.mark.parametrize(
        "bad",
        [
            {"backend": "nosuch"},
            {"num_vertices": 0},
            {"num_vertices": -1},
            {"backend": "gpma", "weighted": True},
            {"backend": "btree", "num_vertices": 0},
            {"fsync": "sometimes"},
            {"segment_bytes": 0},
            {"segment_bytes": SEGMENT_HEADER.size},
        ],
        ids=lambda bad: "+".join(f"{k}={v}" for k, v in bad.items()),
    )
    def test_rejected_first_open_leaves_no_store(self, tmp_path, bad):
        """The identity is written only after the graph and the writer's
        knobs are accepted: a rejected first open used to leave a
        ``store.json`` recording the rejected identity, which refused the
        corrected call as a mismatch."""
        store = tmp_path / "store"
        kwargs = {"backend": "slabhash", "num_vertices": 8, "fsync": "never", **bad}
        with pytest.raises(ValidationError):
            open_graph(store, **kwargs)
        assert not store.exists()
        with open_graph(store, "slabhash", num_vertices=8, fsync="never") as dg:
            dg.graph.insert_edges([0], [1])
        with open_graph(store, fsync="never") as dg:
            assert dg.graph.num_edges() == 1

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_two_runs_write_byte_identical_stores(self, tmp_path, name):
        """WAL segments, checkpoints and ``store.json`` carry the stream's
        content and no host state, so the store is a pure function of
        the stream."""
        weighted = api.capabilities(name).weighted
        stores = []
        for run in ("a", "b"):
            rng = np.random.default_rng(5)
            store = tmp_path / run
            with open_graph(
                store, name, num_vertices=32, weighted=weighted, fsync="never", segment_bytes=1024
            ) as dg:
                src, dst = rng.integers(0, 32, (2, 40), dtype=np.int64)
                w = rng.integers(1, 9, 40, dtype=np.int64) if weighted else None
                dg.graph.bulk_build(COO(src, dst, 32, weights=w))
                mutate(dg.graph, rng, weighted=weighted, batch=20)
                dg.checkpoint()
                mutate(dg.graph, rng, weighted=weighted, rounds=2, batch=20)
            stores.append(
                {p.relative_to(store): p.read_bytes() for p in store.rglob("*") if p.is_file()}
            )
        assert len(list_segments(tmp_path / "a" / "wal")) > 1
        assert len(list((tmp_path / "a" / "checkpoints").glob("*.npz"))) == 1
        assert stores[0] == stores[1]

    @pytest.mark.parametrize(
        "reason, replays",
        [
            ("rehash", True),
            ("flush_tombstones", True),
            ("partial_dispatch", False),
            ("kill_shard", False),
            ("rebuild_shard", False),
        ],
    )
    def test_recovery_skips_maintenance_and_refuses_router_markers(
        self, tmp_path, reason, replays
    ):
        """Maintenance records leave the edge set alone and are skipped.
        The router's markers never reach a shard WAL
        (``test_chaos.py::TestKillRebuildPin``), so a WAL holding one is
        the typed "cannot replay" error, not a record recovery drops."""
        store = tmp_path / "store"
        with open_graph(store, "slabhash", num_vertices=8, fsync="never") as dg:
            dg.graph.insert_edges([0, 1], [1, 2])
            seq = dg.wal.next_seq
        with WalWriter(store / "wal", start_seq=seq, fsync="never") as wal:
            wal.append(StructuralEvent(seq, 1, 2, reason, np.array([1], dtype=np.int64)))
        if replays:
            with open_graph(store, fsync="never") as dg:
                assert dg.graph.num_edges() == 2
        else:
            with pytest.raises(ValidationError, match=f"cannot replay structural event '{reason}'"):
                open_graph(store, fsync="never")

    def test_replica_is_read_only_and_tails(self, tmp_path):
        store = tmp_path / "store"
        writer = open_graph(store, "slabhash", num_vertices=32, fsync="never")
        writer.graph.insert_edges([0, 1], [1, 2])
        writer.checkpoint()
        writer.sync()

        replica = open_graph(store, read_only=True)
        with pytest.raises(ValidationError, match="read-only"):
            replica.checkpoint()
        files_before = {p: p.stat().st_size for p in (store / "wal").iterdir()}
        assert replica.tail() == 0  # nothing new yet
        inc = IncrementalConnectedComponents(replica.graph)

        writer.graph.insert_edges([2, 3], [3, 4])
        writer.graph.delete_edges([0], [1])
        writer.sync()
        assert replica.tail() == 2
        assert_snaps_identical(replica.graph.snapshot(), writer.graph.snapshot())
        # Cursor-based incremental analytics ride the replica's event log.
        from repro.analytics.connected_components import connected_components

        assert np.array_equal(inc.labels(), connected_components(replica.graph.snapshot()))
        # The replica never modified the writer's files.
        files_after = {p: p.stat().st_size for p in (store / "wal").iterdir()}
        assert files_before.keys() <= files_after.keys()
        for p, size in files_before.items():
            assert files_after[p] >= size
        with pytest.raises(ValidationError, match="tail"):
            writer.tail()
        writer.close()

    def test_follower_sees_rotation(self, tmp_path):
        wal_dir = tmp_path / "wal"
        batch = EdgeBatch(0, 0, 1, True, np.arange(64), np.arange(64), None, rows=64)
        writer = WalWriter(wal_dir, fsync="never", segment_bytes=2048)
        follower = LogFollower(wal_dir)
        total = 0
        for _ in range(5):
            writer.append(batch)
            writer.flush()
            total += len(follower.poll())
        writer.append(batch)
        writer.flush()
        total += len(follower.poll())
        assert total == 6
        assert len(list_segments(wal_dir)) > 1
        writer.close()

    def test_context_manager_closes(self, tmp_path):
        with open_graph(tmp_path / "store", "slabhash", num_vertices=8, fsync="never") as dg:
            dg.graph.insert_edges([0, 2], [1, 3])
            live = dg.graph.snapshot()
        assert dg.read_only  # wal detached by close()
        rec = open_graph(tmp_path / "store", fsync="never")
        assert_snaps_identical(rec.graph.snapshot(), live)
        rec.close()


# ---------------------------------------------------------------------------
# The three identity documents share one reader
# ---------------------------------------------------------------------------


def _attach_two_shards(directory):
    service = ShardedGraph.create("slabhash", 8, num_shards=2)
    return service.attach_durability(directory, fsync="never")


def _identity_document(name, tmp_path):
    """Write one of the JSON identity documents the durable layers keep;
    returns ``(path, reread)`` where ``reread()`` is the public call that
    reads it back."""
    root = tmp_path / "d"
    if name == "store.json":
        open_graph(root, "slabhash", num_vertices=8, fsync="never").close()
        return root / name, lambda: open_graph(root, fsync="never")
    if name == "shards.json":
        _attach_two_shards(root).close()
        return root / name, lambda: _attach_two_shards(root)
    snap = Graph.create("slabhash", 8).snapshot()
    manifest = write_checkpoint(root, snap, seq=0, backend="slabhash", weighted=False)
    return manifest.path, lambda: load_checkpoint(manifest.path)


_DROP = object()


_BROKEN_DOCUMENTS = [
    ("store.json", "backend", _DROP),
    ("store.json", "backend_kwargs", _DROP),
    ("store.json", "weighted", _DROP),
    ("store.json", "num_vertices", _DROP),
    ("shards.json", "num_shards", _DROP),
    ("shards.json", "num_vertices", _DROP),
    ("shards.json", "weighted", _DROP),
    ("manifest", "crc32", _DROP),
    ("manifest", "npz", _DROP),
    ("manifest", "seq", _DROP),
]


@pytest.mark.parametrize(
    "name, field, value",
    _BROKEN_DOCUMENTS,
    ids=[f"{n}-{f}-{'missing' if v is _DROP else 'malformed'}" for n, f, v in _BROKEN_DOCUMENTS],
)
def test_incomplete_identity_document_is_a_typed_error(tmp_path, name, field, value):
    """Parseable but incomplete or malformed: a :class:`ValidationError`
    naming the file and the field — never a raw KeyError / TypeError."""
    path, reread = _identity_document(name, tmp_path)
    doc = json.loads(path.read_text())
    if value is _DROP:
        del doc[field]
    else:
        doc[field] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError) as exc:
        reread()
    assert path.name in str(exc.value) and field in str(exc.value)


def test_document_of_an_older_schema_is_refused(tmp_path):
    """``store.json`` v1 recorded batch policies that no longer exist: it
    is the typed schema error, never reinterpreted under today's one
    policy."""
    path, reread = _identity_document("store.json", tmp_path)
    doc = json.loads(path.read_text())
    assert doc["schema_version"] == 2
    doc.update(schema_version=1, self_loops="error", dedup_batches=True, default_weight=9)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="schema 1, this reader supports 2"):
        reread()


# ---------------------------------------------------------------------------
# The t13 bench artifact (its ≥ 3x gate is the scorecard's `t13-recovery` row)
# ---------------------------------------------------------------------------


def test_persist_artifact_quick_structure():
    from repro.bench.persist_bench import persist_artifact

    art = persist_artifact(seed=0, quick=True)
    keys = {r.metric for r in art.results}
    assert keys == {"t13/E=2^18/tail=2^12/slabhash/recovery_speedup"}
    assert len(art.rows) == 1
