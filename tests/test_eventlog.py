"""Tests for the first-class event log: cursors, retention, the sink."""

import numpy as np
import pytest

from repro.api import Graph
from repro.eventlog import (
    EdgeBatch,
    EventLog,
    StructuralEvent,
    version_chain_intact,
)
from repro.stream.incremental import IncrementalConnectedComponents


def batch(log, is_insert, pairs, before, after):
    src = np.array([p[0] for p in pairs], dtype=np.int64)
    dst = np.array([p[1] for p in pairs], dtype=np.int64)
    return log.publish_edge_batch(
        is_insert, src, dst, None, before_version=before, after_version=after
    )


class TestCursorsAndRetention:
    def test_cursor_pulls_only_new_events(self):
        log = EventLog()
        batch(log, True, [(0, 1)], 0, 1)
        cur = log.cursor()  # positioned at the tail
        assert cur.peek() == ([], False)
        e = batch(log, True, [(1, 2)], 1, 2)
        events, gapped = cur.poll()
        assert not gapped and [ev.seq for ev in events] == [e.seq]
        assert cur.poll() == ([], False)

    def test_readers_are_decoupled(self):
        log = EventLog()
        a, b = log.cursor(), log.cursor()
        batch(log, True, [(0, 1), (1, 2)], 0, 1)
        assert len(a.poll()[0]) == 1
        # a draining did not move b
        assert b.lag == 1
        assert len(b.poll()[0]) == 1

    def test_cursor_past_retention_horizon_reports_gap(self):
        log = EventLog(retention_rows=4)
        cur = log.cursor()
        batch(log, True, [(0, 1), (1, 2), (2, 3)], 0, 1)  # 3 rows retained
        batch(log, True, [(3, 4), (4, 5)], 1, 2)  # 5 rows -> first trimmed
        assert log.horizon > 0
        events, gapped = cur.poll()
        assert gapped  # incomplete history: the reader must rebuild cold
        assert [type(e) for e in events] == [EdgeBatch]  # surviving suffix
        # polling re-anchored at the tail: complete again
        assert cur.peek() == ([], False)

    def test_gapped_pending_rows_counts_only_retained(self):
        log = EventLog(retention_rows=2)
        cur = log.cursor()
        batch(log, True, [(0, 1), (1, 2), (2, 3)], 0, 1)  # trimmed instantly
        assert cur.pending_rows() == 0
        assert cur.peek()[1] is True

    def test_structural_events_cost_no_retention(self):
        log = EventLog(retention_rows=2)
        cur = log.cursor()
        for i in range(10):
            log.publish_structural("rehash", before_version=i, after_version=i + 1)
        events, gapped = cur.poll()
        assert not gapped and len(events) == 10

    def test_gap_forces_cold_relabel_downstream(self):
        """A consumer lagging past the horizon rebuilds cold (exactly)."""
        g = Graph.create("slabhash", num_vertices=32)
        g.events.retention_rows = 4
        cc = IncrementalConnectedComponents(g)
        # One batch bigger than the retention bound: trimmed immediately,
        # so the analytic's cursor observes a gap, not the events.
        g.insert_edges([0, 1, 2, 3, 4], [1, 2, 3, 4, 5])
        labels = cc.labels()
        assert cc.last_mode == "cold"
        assert labels[:6].tolist() == [0] * 6
        # After the cold pass the cursor is re-anchored: small batches
        # stream incrementally again.
        g.insert_edges([10], [11])
        cc.labels()
        assert cc.last_mode == "incremental"


class TestSink:
    def test_raising_sink_leaves_the_event_appended_and_raises(self):
        """The sink runs once the event is logged and trimmed; its
        exception reaches the publisher with the log intact."""
        log = EventLog(retention_rows=2)
        batch(log, True, [(0, 1), (1, 2)], 0, 1)
        seen = []

        def bad(event):
            seen.append((event.seq, log.next_seq, log.horizon))
            raise RuntimeError("sink failed")

        log.sink = bad
        with pytest.raises(RuntimeError, match="sink failed"):
            batch(log, True, [(2, 3)], 1, 2)
        assert seen == [(1, 2, 1)]  # already appended, already trimmed
        events, gapped = log.events_since(1)
        assert not gapped and [e.seq for e in events] == [1]
        log.sink = None
        batch(log, True, [(3, 4)], 2, 3)
        assert log.next_seq == 3 and seen == [(1, 2, 1)]


class TestOrderingAndChain:
    def test_interleaved_events_preserve_order(self):
        """Inserts, deletes, and structural events replay in publication
        order with contiguous sequence numbers."""
        log = EventLog()
        cur = log.cursor()
        batch(log, True, [(0, 1)], 0, 1)
        batch(log, False, [(0, 1)], 1, 2)
        log.publish_structural("delete_vertices", before_version=2, after_version=3)
        batch(log, True, [(2, 3)], 3, 4)
        events, gapped = cur.poll()
        assert not gapped
        assert [e.seq for e in events] == [0, 1, 2, 3]
        kinds = [
            (type(e).__name__, getattr(e, "is_insert", getattr(e, "reason", None)))
            for e in events
        ]
        assert kinds == [
            ("EdgeBatch", True),
            ("EdgeBatch", False),
            ("StructuralEvent", "delete_vertices"),
            ("EdgeBatch", True),
        ]
        assert version_chain_intact(events, 0, 4)

    def test_facade_interleaving_matches_mutation_order(self):
        g = Graph.create("slabhash", num_vertices=16)
        cur = g.events.cursor()
        g.insert_edges([0, 1], [1, 2])
        g.delete_edges([0], [1])
        g.delete_vertices([2])
        g.insert_edges([3], [4])
        events, gapped = cur.poll()
        assert not gapped
        shapes = [
            (e.is_insert, e.rows) if isinstance(e, EdgeBatch) else e.reason
            for e in events
        ]
        assert shapes == [(True, 2), (False, 1), "delete_vertices", (True, 1)]
        assert version_chain_intact(events, events[0].before_version, g.mutation_version)

    def test_chain_rejects_gaps_and_versionless_backends(self):
        log = EventLog()
        e1 = batch(log, True, [(0, 1)], 0, 1)
        e3 = batch(log, True, [(1, 2)], 2, 3)  # skips version 1 -> 2
        assert not version_chain_intact([e1, e3], 0, 3)
        assert version_chain_intact([e1], 0, 1)
        assert not version_chain_intact([e1], 0, 2)  # live moved past window
        e_none = batch(log, True, [(2, 3)], None, None)
        assert not version_chain_intact([e_none], None, None)

    def test_published_arrays_are_copies(self):
        log = EventLog()
        src = np.array([0, 1], dtype=np.int64)
        dst = np.array([1, 2], dtype=np.int64)
        event = log.publish_edge_batch(
            True, src, dst, None, before_version=0, after_version=1
        )
        src[0] = 99  # caller refills its buffer
        assert event.src[0] == 0


class TestSeqValidation:
    """Out-of-range positions raise instead of silently clamping — a
    caller holding such a seq has confused logs, and a clamped read would
    mask that as an empty or complete history."""

    def _log(self):
        log = EventLog()
        batch(log, True, [(0, 1), (1, 2)], 0, 1)
        batch(log, False, [(0, 1)], 1, 2)
        return log

    def test_negative_retention_is_a_validation_error(self):
        from repro.util.errors import ValidationError

        with pytest.raises(ValidationError, match="retention_rows"):
            EventLog(retention_rows=-1)

    def test_cursor_rejects_out_of_range_seqs(self):
        from repro.util.errors import ValidationError

        log = self._log()
        with pytest.raises(ValidationError, match="outside this log's published range"):
            log.cursor(-1)
        with pytest.raises(ValidationError, match="outside this log's published range"):
            log.cursor(log.next_seq + 1)

    def test_events_since_rejects_out_of_range_seqs(self):
        from repro.util.errors import ValidationError

        log = self._log()
        with pytest.raises(ValidationError, match="outside this log's published range"):
            log.events_since(-1)
        with pytest.raises(ValidationError, match="outside this log's published range"):
            log.events_since(log.next_seq + 1)

    def test_boundary_seqs_accepted(self):
        log = self._log()
        events, gapped = log.events_since(0)
        assert len(events) == 2 and not gapped
        # The tail itself is a valid (empty-history) position.
        events, gapped = log.events_since(log.next_seq)
        assert events == [] and not gapped
        assert log.cursor(log.next_seq).peek() == ([], False)
