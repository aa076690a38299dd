"""Durability tests: WAL framing, checkpoints, crash recovery, replicas.

The acceptance bar for :mod:`repro.persist` is *bit-identity*: after any
combination of checkpoint, crash (torn WAL tail, corrupt record, deleted
checkpoint), and replay, the recovered graph's sorted-CSR snapshot must
equal the lost live instance's exactly — for every registered backend,
weighted and unweighted.
"""

import json
import shutil
import zlib
from pathlib import Path

import numpy as np
import pytest

import repro.api as api
from repro.api import Graph, ShardedGraph
from repro.api.snapshot import CSRSnapshot, merge_event_window
from repro.coo import COO
from repro.core import DynamicGraph
from repro.eventlog.events import EdgeBatch, StructuralEvent
from repro.gpusim.counters import counting
from repro.persist import (
    DurableGraph,
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
from repro.persist.checkpoint import SCHEMA_VERSION
from repro.persist.store import _recover
from repro.persist.wal import RECORD_HEADER, RECORD_MAGIC, SEGMENT_HEADER, encode_record
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


def mutate(g, rng, *, weighted, rounds=4, batch=48, vertex_ops=True):
    """A deterministic mixed workload (inserts + deletes + vertex ops)."""
    n = g.num_vertices
    for _ in range(rounds):
        src = rng.integers(0, n, batch, dtype=np.int64)
        dst = rng.integers(0, n, batch, dtype=np.int64)
        w = rng.integers(1, 100, batch, dtype=np.int64) if weighted else None
        g.insert_edges(src, dst, w)
        g.delete_edges(src[: batch // 4], dst[: batch // 4])
    if vertex_ops and g.capabilities.vertex_dynamic:
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

    def test_broken_writer_refuses_append(self, tmp_path):
        batch = EdgeBatch(0, 0, 1, True, np.array([1]), np.array([2]), None, rows=1)
        w = WalWriter(tmp_path / "wal", fsync="never")
        w.append(batch)
        w.broken = True
        with pytest.raises(PersistError) as exc:
            w.append(batch)
        assert exc.value.broken
        assert w.next_seq == 1 and w.records_written == 1
        w.close()
        assert len(scan_wal(tmp_path / "wal").events) == 1

    # (fsyncs at segment open, per append, at flush, at close) per policy.
    _FSYNCS = {"never": (0, 0, 0, 0), "batch": (1, 0, 1, 1), "always": (1, 1, 1, 1)}

    @pytest.mark.parametrize("policy", sorted(_FSYNCS))
    def test_fsync_policy_counts(self, tmp_path, policy):
        """An ``opener=`` whose files count ``fsync()`` tells the three
        policies apart: ``never`` never syncs, ``batch`` syncs a new
        segment's header, a flush and a close, ``always`` also each
        append."""
        synced = []

        class CountingFile:
            def __init__(self, fh):
                self._fh = fh

            def fsync(self):
                synced.append(self._fh.name)

            def __getattr__(self, name):
                return getattr(self._fh, name)

        at_open, per_append, at_flush, at_close = self._FSYNCS[policy]
        batch = EdgeBatch(0, 0, 1, True, np.array([1]), np.array([2]), None, rows=1)
        w = WalWriter(
            tmp_path / "wal", fsync=policy, opener=lambda path, mode: CountingFile(open(path, mode))
        )
        assert len(synced) == 0
        for _ in range(3):
            w.append(batch)
        assert len(synced) == at_open + 3 * per_append
        w.flush()
        assert len(synced) == at_open + 3 * per_append + at_flush
        w.close()
        assert len(synced) == at_open + 3 * per_append + at_flush + at_close
        assert len(scan_wal(tmp_path / "wal").events) == 3


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

    @pytest.mark.parametrize(
        "event",
        [
            EdgeBatch(0, 0, 1, True, np.array([1, 2]), np.array([3, 4]), None, rows=2),
            StructuralEvent(0, 0, 1, "delete_vertices", np.array([5, 6])),
        ],
        ids=["edge-batch", "structural"],
    )
    def test_payload_with_trailing_bytes_ends_the_scan(self, tmp_path, event):
        """A record whose CRC is right but whose payload runs past its
        fields is corrupt, not a record with padding."""
        wal_dir = tmp_path / "wal"
        _write_batches(wal_dir, 2)
        record = encode_record(event, 2)
        payload = record[RECORD_HEADER.size :] + b"\0"
        seg = list_segments(wal_dir)[-1]
        with open(seg, "ab") as fh:
            fh.write(RECORD_HEADER.pack(RECORD_MAGIC, len(payload), zlib.crc32(payload)))
            fh.write(payload)
        scan = scan_wal(wal_dir)
        assert scan.torn and "1 trailing bytes" in scan.torn_detail
        assert [e.seq for e in scan.events] == [0, 1]

    def test_list_segments_ignores_other_files(self, tmp_path):
        wal_dir = tmp_path / "wal"
        _write_batches(wal_dir, 12, rows=32, segment_bytes=1024)
        segments = list_segments(wal_dir)
        assert len(segments) >= 3
        (wal_dir / "seg-00000000000000000099.tmp").write_bytes(b"partial")
        (wal_dir / "notes.wal").write_bytes(b"not a segment")
        assert list_segments(wal_dir) == segments
        scan = scan_wal(wal_dir)
        assert not scan.torn and len(scan.events) == 12


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
        assert "row_ptr" not in back.__dict__  # derived on first read, not on load
        assert np.array_equal(back.keys(), snap.keys())
        assert_snaps_identical(back, snap)
        assert back.row_ptr.dtype == snap.row_ptr.dtype
        assert back.col_idx.dtype == snap.col_idx.dtype
        assert loaded.backend == "slabhash"
        with np.load(manifest.npz_path) as arrays:
            want = {"keys", "num_vertices"} | ({"weights"} if weighted else set())
            assert set(arrays.files) == want

    def test_npz_bytes_do_not_grow_with_the_vertex_space(self, tmp_path):
        """The same 64 edges make the same NPZ at |V| = 2^10 and 2^18:
        a checkpoint stores edges, not a ``row_ptr`` over every id."""
        rng = np.random.default_rng(7)
        src, dst = rng.integers(0, 1 << 10, 64), rng.integers(0, 1 << 10, 64)
        sizes = []
        for n in (1 << 10, 1 << 18):
            g = Graph.create("slabhash", n)
            g.insert_edges(src, dst)
            snap = g.snapshot()
            assert snap.num_edges == 64
            manifest = write_checkpoint(
                tmp_path / str(n), snap, seq=1, backend="slabhash", weighted=False
            )
            sizes.append(manifest.npz_path.stat().st_size)
            assert_snaps_identical(load_checkpoint(manifest.path)[0], snap)
        assert sizes[0] == sizes[1]

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

    @staticmethod
    def _replace_npz(manifest, schema=SCHEMA_VERSION, **members):
        """Rewrite ``manifest``'s NPZ with ``members`` and re-stamp its
        CRC32 (and ``schema``), so only a check past the CRC can reject it."""
        np.savez(manifest.npz_path, **members)
        doc = json.loads(manifest.path.read_text())
        doc.update(crc32=zlib.crc32(manifest.npz_path.read_bytes()), schema_version=schema)
        manifest.path.write_text(json.dumps(doc))

    @staticmethod
    def _malformed(case, keys, weights, n):
        """``(members, message)``: the checkpoint's NPZ members with the
        one defect ``case`` names, and the error it must raise."""
        members = {"keys": keys.copy(), "weights": weights, "num_vertices": np.int64(n)}
        bad = members["keys"]
        if case == "no-keys":
            del members["keys"]
            return members, "undecodable"
        if case == "keys-2d":
            members["keys"] = bad[None, :]
            return members, "1-D int64"
        if case in ("keys-float", "keys-int32"):
            members["keys"] = bad.astype(np.float64 if case == "keys-float" else np.int32)
            return members, "1-D int64"
        if case == "unsorted":
            bad[[0, 1]] = bad[[1, 0]]
            return members, "strictly increasing"
        if case == "repeated":
            bad[1] = bad[0]
            return members, "strictly increasing"
        if case == "negative":
            bad[0] = (-1 << 32) | 1  # source -1, destination 1
        elif case == "src-out-of-range":
            bad[-1] = (n << 32) | 1
        elif case == "dst-out-of-range":
            bad[-1] = ((int(bad[-1]) >> 32) << 32) | n
        elif case == "short-weights":
            members["weights"] = weights[:-1]
            return members, "weights for"
        elif case == "vertex-count":
            members["num_vertices"] = np.int64(n + 1)
            return members, "vertices"
        return members, "outside"

    _MALFORMED = (
        "no-keys",
        "keys-2d",
        "keys-float",
        "keys-int32",
        "unsorted",
        "repeated",
        "negative",
        "src-out-of-range",
        "dst-out-of-range",
        "short-weights",
        "vertex-count",
    )

    @pytest.mark.parametrize("case", _MALFORMED)
    def test_malformed_keys_rejected_and_skipped(self, tmp_path, case):
        """The CRC covers the bytes, not their meaning: keys that are not
        a strictly increasing int64 vector of in-range edges are a typed
        error, and recovery falls back to the older checkpoint."""
        snap = self._snap(True)
        write_checkpoint(tmp_path, snap, seq=3, backend="slabhash", weighted=True)
        newest = write_checkpoint(tmp_path, snap, seq=9, backend="slabhash", weighted=True)
        members, message = self._malformed(case, snap.keys(), snap.weights, snap.num_vertices)
        self._replace_npz(newest, **members)
        with pytest.raises(ValidationError, match=message):
            load_checkpoint(newest.path)
        found = latest_valid_checkpoint(tmp_path)
        assert found is not None and found[1].seq == 3
        assert_snaps_identical(found[0], snap)

    @staticmethod
    def _as_schema_1(manifest):
        """Rewrite a checkpoint the way the schema-1 writer stored it: a
        ``row_ptr`` over all of |V| plus ``col_idx``."""
        snap, _ = load_checkpoint(manifest.path)
        members = {
            "row_ptr": snap.row_ptr,
            "col_idx": snap.col_idx,
            "num_vertices": np.int64(snap.num_vertices),
        }
        if snap.weights is not None:
            members["weights"] = snap.weights
        TestCheckpoints._replace_npz(manifest, schema=1, **members)

    def test_schema_1_refused_and_skipped(self, tmp_path):
        snap = self._snap(False)
        write_checkpoint(tmp_path, snap, seq=3, backend="slabhash", weighted=False)
        old = write_checkpoint(tmp_path, snap, seq=9, backend="slabhash", weighted=False)
        self._as_schema_1(old)
        with pytest.raises(ValidationError, match="schema 1, this reader supports 2"):
            load_checkpoint(old.path)
        assert latest_valid_checkpoint(tmp_path)[1].seq == 3

    def test_store_anchored_only_by_schema_1_is_refused(self, tmp_path):
        """A WAL that starts after seq 0 needs its checkpoint; a schema-1
        one cannot anchor it, so the open fails typed instead of
        recovering a graph that lacks the checkpointed edges."""
        root = tmp_path / "store"
        dg = open_graph(root, "slabhash", num_vertices=32, fsync="never", segment_bytes=256)
        rng = np.random.default_rng(3)
        for _ in range(6):
            dg.graph.insert_edges(rng.integers(0, 32, 8), rng.integers(0, 32, 8))
        manifest = dg.checkpoint()
        for _ in range(3):
            dg.graph.insert_edges(rng.integers(0, 32, 8), rng.integers(0, 32, 8))
        live = dg.graph.snapshot()
        dg.close()
        # Keep the log from the segment holding the checkpoint's seq on.
        segments = list_segments(root / "wal")
        first_kept = max(i for i, p in enumerate(segments) if int(p.stem[4:]) <= manifest.seq)
        assert first_kept > 0
        for seg in segments[:first_kept]:
            seg.unlink()
        copy = tmp_path / "copy"
        shutil.copytree(root, copy)
        rec = open_graph(copy, fsync="never")  # schema 2 anchors the cut log
        assert rec.recovered_checkpoint.seq == manifest.seq
        assert_snaps_identical(rec.graph.snapshot(), live)
        rec.close()
        self._as_schema_1(manifest)
        with pytest.raises(ValidationError, match="no valid checkpoint covers"):
            open_graph(root, fsync="never")

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
        self.dg.wal.close()  # flush buffers only — the sink stays set, no clean close

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
        # Over an edge-batch tail the first snapshot after recovery folds
        # the replayed records onto the checkpoint's snapshot: it charges
        # exactly that merge, and no slab is read.
        manifest = h.checkpoint()
        mutate(h.graph, np.random.default_rng(1), weighted=weighted, rounds=2, vertex_ops=False)
        live = h.snapshot()
        h.crash()
        base, _ = load_checkpoint(manifest.path)
        tail = [e for e in scan_wal(h.dir / "wal").events if e.seq >= manifest.seq]
        with counting() as want:
            merge_event_window(base, tail)
        h.recover()
        with counting() as got:
            first = h.snapshot()
        assert got == want and got["slab_reads"] == 0 and got["sorted_elements"] > 0
        assert_snaps_identical(first, live, f"{name} weighted={weighted}")

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

    def test_checkpoint_only_store_first_snapshot_charges_nothing(self, tmp_path):
        """With no WAL tail to replay, the recovered graph's snapshot is
        the checkpoint's own: a cache hit."""
        store = tmp_path / "store"
        with open_graph(store, "slabhash", num_vertices=32, weighted=True, fsync="never") as dg:
            mutate(dg.graph, np.random.default_rng(2), weighted=True)
            dg.checkpoint()
            live = dg.graph.snapshot()
        with open_graph(store, fsync="never") as rec:
            assert rec.replayed_events == 0
            with counting() as charged:
                first = rec.graph.snapshot()
            assert not any(charged.values()), charged
            assert first is rec.graph.snapshot()
            assert_snaps_identical(first, live)


class TestRestoreSnapshot:
    """``restore_snapshot`` caches the snapshot only when the build stores
    exactly its edge set; otherwise the next snapshot is a cold rebuild."""

    @staticmethod
    def cold(g):
        return CSRSnapshot.from_coo(g.export_coo())

    def test_weighted_snapshot_into_an_unweighted_graph(self):
        source = Graph.create("slabhash", 16, weighted=True)
        source.insert_edges([0, 1, 2], [1, 2, 3], [5, 6, 7])
        snap = source.snapshot()
        g = Graph.create("slabhash", 16)
        g.restore_snapshot(snap)
        g.insert_edges([3], [4])
        got = g.snapshot()
        assert got.weights is None and got.num_edges == 4
        assert_snaps_identical(got, self.cold(g))

    def test_a_snapshot_of_a_smaller_vertex_space(self):
        source = Graph.create("slabhash", 8)
        source.insert_edges([0, 1], [1, 7])
        g = Graph.create("slabhash", 16)
        g.restore_snapshot(source.snapshot())
        got = g.snapshot()
        assert got.num_vertices == 16
        assert_snaps_identical(got, self.cold(g))

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_a_snapshot_the_build_does_not_store_verbatim(self, name):
        """A self-loop and a repeated edge are dropped by the build, so
        the snapshot is not the graph's and must not be cached."""
        snap = CSRSnapshot.from_coo(COO([0, 1, 1], [0, 2, 2], 4))
        g = Graph.create(name, 4)
        g.restore_snapshot(snap)
        got = g.snapshot()
        assert got.num_edges == 1
        assert_snaps_identical(got, self.cold(g))

    @pytest.mark.parametrize("source_directed", [False, True])
    def test_undirected_weighted_slabhash(self, source_directed):
        """An undirected backend stores both orientations of what it
        builds: a directed snapshot's lone ``(5, 4)`` gains ``(4, 5)``,
        and its ``(0, 1)`` / ``(1, 0)`` keep their weights 5 and 6."""
        source = Graph(DynamicGraph(16, weighted=True, directed=source_directed))
        source.insert_edges([0, 1, 2, 3, 5], [1, 0, 3, 2, 4], [5, 6, 7, 7, 9])
        g = Graph(DynamicGraph(16, weighted=True, directed=False))
        g.restore_snapshot(source.snapshot())
        g.insert_edges([6], [7], [8])
        got = g.snapshot()
        assert got.num_edges == 8
        assert_snaps_identical(got, self.cold(g))


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
                    dg.wal.close()  # the crash: the sink stays set, no clean close
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

    def test_rebuilt_shard_first_snapshot_is_a_merge(self, tmp_path):
        """After a kill and a rebuild, the service's next snapshot folds
        the rebuilt shard's WAL tail onto its checkpoint, reads no slab,
        and equals the snapshot taken before the kill."""
        service = ShardedGraph.create("slabhash", 64, num_shards=2, weighted=True)
        stores = service.attach_durability(tmp_path / "d", fsync="never")
        rng = np.random.default_rng(9)
        mutate(service, rng, weighted=True, vertex_ops=False)
        stores.checkpoint()
        mutate(service, rng, weighted=True, rounds=2, vertex_ops=False)
        before = service.snapshot()
        stores.sync()
        service.kill_shard(1)
        service.rebuild_shard(1)
        with counting() as charged:
            after = service.snapshot()
        assert charged["slab_reads"] == 0 and charged["sorted_elements"] > 0
        assert np.array_equal(after.keys(), before.keys())
        assert_snaps_identical(after, before)
        stores.close()

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
        assert [shard.events.sink for shard in service.shards] == [None, None]
        service.attach_durability(tmp_path / "d", fsync="never").close()  # corrected call

    def test_failed_attach_leaves_no_writer_bound(self, tmp_path):
        """An attach that fails on shard 1 used to leave shard 0's writer
        open and bound as the sink; a retried attach bound a second writer to
        ``shard-0/wal``, both stamped the same seqs, and a rebuild came
        back with 3 of shard 0's 5 edges.  (The service re-attaches its own
        directory: another service's history is refused before any open.)"""
        d = tmp_path / "d"
        service = ShardedGraph.create("slabhash", 64, num_shards=2)
        stores = service.attach_durability(d, fsync="always")
        service.insert_edges(np.arange(20), np.arange(1, 21))
        stores.close()

        def refuse_shard_1(path, *args, **kwargs):
            if "shard-1" in Path(path).parts:
                raise OSError("injected open failure")
            return open(path, *args, **kwargs)

        with pytest.raises(PersistError):
            service.attach_durability(d, fsync="always", opener=refuse_shard_1)
        assert service.stores is stores  # the failed attach installed nothing
        assert [shard.events.sink for shard in service.shards] == [None, None]
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

    def test_a_closed_service_store_can_be_attached_again(self, tmp_path):
        """``close()`` left ``stores`` set, so a second attach raised
        "already attached" and every later batch went unlogged.  The live
        shards hold the history, so re-attaching to the same directory
        anchors each WAL with a checkpoint and a rebuild is exact."""
        service = ShardedGraph.create("slabhash", 64, num_shards=2)
        service.attach_durability(tmp_path / "d", fsync="never")
        service.insert_edges(np.arange(20), np.arange(1, 21))
        service.stores.close()
        stores = service.attach_durability(tmp_path / "d", fsync="never")
        with pytest.raises(ValidationError, match="already attached"):
            service.attach_durability(tmp_path / "d", fsync="never")  # its writers are open
        service.insert_edges(np.arange(30, 50), np.arange(1, 21))
        want = [shard.snapshot() for shard in service.shards]
        for s in range(2):
            service.kill_shard(s)
            service.rebuild_shard(s)
            assert_snaps_identical(service.shards[s].snapshot(), want[s], f"shard {s}")
        stores.close()

    def test_a_new_service_refuses_another_services_history(self, tmp_path):
        """A fresh service attached to an old directory used to succeed
        with 0 edges and anchor an empty checkpoint over each shard's
        history, so a later rebuild recovered none of the acknowledged
        edges.  It must refuse before writing anything."""
        old = ShardedGraph.create("slabhash", 64, num_shards=2)
        stores = old.attach_durability(tmp_path / "d", fsync="always")
        rng = np.random.default_rng(16)
        old.insert_edges(rng.integers(0, 64, 200), rng.integers(0, 64, 200))
        acknowledged = old.num_edges()
        stores.sync()
        stores.close()
        with open(list_segments(tmp_path / "d" / "shard-0" / "wal")[-1], "ab") as tail:
            tail.write(b"torn")  # a repairing scan would truncate this
        on_disk = {p: p.read_bytes() for p in (tmp_path / "d").rglob("*") if p.is_file()}

        fresh = ShardedGraph.create("slabhash", 64, num_shards=2)
        with pytest.raises(ValidationError, match="did not write"):
            fresh.attach_durability(tmp_path / "d")
        assert fresh.stores is None
        assert {p: p.read_bytes() for p in (tmp_path / "d").rglob("*") if p.is_file()} == on_disk
        recovered = 0  # the history is intact: shard by shard, every edge recovers
        for s in range(2):
            shard = Graph.create("slabhash", 64)
            _recover(shard, tmp_path / "d" / f"shard-{s}", repair=False)
            recovered += shard.num_edges()
        assert recovered == acknowledged > 0

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
        assert dg.wal is None and dg.graph.events.sink is None
        rec = open_graph(tmp_path / "store", fsync="never")
        assert_snaps_identical(rec.graph.snapshot(), live)
        rec.close()

    def test_a_second_store_on_a_bound_graph_is_refused(self, tmp_path):
        """Two writers on one graph used to both append, stamping the same
        seqs; the second is now refused before it creates any file."""
        first = open_graph(tmp_path / "a", "slabhash", num_vertices=8, fsync="never")
        first.graph.insert_edges([0], [1])
        on_disk = sorted(tmp_path.rglob("*"))
        for directory in (tmp_path / "a", tmp_path / "b"):
            with pytest.raises(ValidationError, match="already has a sink"):
                DurableGraph(
                    directory, first.graph, backend_name="slabhash", next_seq=first.wal.next_seq
                )
        assert sorted(tmp_path.rglob("*")) == on_disk
        first.graph.insert_edges([1], [2])
        first.close()
        assert [e.seq for e in scan_wal(tmp_path / "a" / "wal").events] == [0, 1]

    def test_a_closed_store_releases_the_graph(self, tmp_path):
        old = open_graph(tmp_path / "a", "slabhash", num_vertices=8, fsync="never")
        old.graph.insert_edges([0], [1])
        old.close()
        assert old.graph.events.sink is None
        new = DurableGraph(tmp_path / "b", old.graph, backend_name="slabhash", next_seq=0)
        old.graph.insert_edges([1], [2])
        new.close()
        assert len(scan_wal(tmp_path / "a" / "wal").events) == 1  # the old writer logged nothing
        assert [e.seq for e in scan_wal(tmp_path / "b" / "wal").events] == [0]

    def test_a_closed_writer_is_not_a_replica(self, tmp_path):
        """``read_only`` read ``wal is None``, so a closed writer reported
        True and ``checkpoint()`` blamed a replica."""
        dg = open_graph(tmp_path / "store", "slabhash", num_vertices=8, fsync="never")
        dg.close()
        assert not dg.read_only
        with pytest.raises(ValidationError, match="store.*closed"):
            dg.checkpoint()
        replica = open_graph(tmp_path / "store", read_only=True)
        assert replica.read_only
        replica.close()
        assert replica.read_only


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
