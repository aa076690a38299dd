"""An append-only, sequence-numbered event log with cursors and retention.

:class:`EventLog` is the spine the :class:`repro.api.Graph` facade, the
shard router, and the incremental analytics all share.  It replaces the
facade's former private ``_delta_log`` list and ad-hoc row accounting
with one first-class object:

- **append-only, sequence-numbered** — every published event gets the
  next ``seq``; history is never rewritten;
- **cursor-based readers** — any number of consumers each hold an
  :class:`EventCursor` and pull the events published since their last
  read.  Readers are fully decoupled: one consumer draining the log does
  not affect another's position;
- **bounded retention** — the log retains at most ``retention_rows``
  edge-batch rows.  Older events are trimmed; a cursor that has fallen
  behind the retention horizon observes a *gap* on its next read and must
  fall back to a cold rebuild of whatever it was maintaining (every
  facade log keeps the default :data:`DEFAULT_RETENTION_ROWS`).
  :meth:`EventCursor.window` is that decision, stated once with the
  version-chain check: the facade's snapshot merge and every incremental
  analytic fold what it returns or rebuild cold;
- **one durable sink** — :attr:`EventLog.sink` is ``None`` or one
  callable that each append hands its event to, synchronously, once the
  event is in the log and retention has trimmed.  A raising sink leaves
  the event logged and its exception reaches the publisher.  The one
  binding is :class:`repro.persist.store.DurableGraph`'s WAL append;
  every other consumer reads through a cursor.
"""

from __future__ import annotations

from collections import deque

from repro.eventlog.events import EdgeBatch, Event, StructuralEvent, version_chain_intact
from repro.util.errors import ValidationError

__all__ = ["EventLog", "EventCursor"]

#: Default bound on retained edge-batch rows.  Past ~|E| retained rows an
#: incremental consumer stops beating a cold rebuild anyway; 2^16 keeps
#: the log's memory bounded regardless of graph size.
DEFAULT_RETENTION_ROWS = 1 << 16


class EventLog:
    """Append-only log of typed graph events (see module docstring)."""

    def __init__(self, retention_rows: int = DEFAULT_RETENTION_ROWS) -> None:
        if retention_rows < 0:
            raise ValidationError("retention_rows must be non-negative")
        self.retention_rows = int(retention_rows)
        self._events: deque = deque()
        self._next_seq = 0
        self._horizon = 0  # seq of the oldest retained event
        self._retained_rows = 0
        #: ``None``, or the callable every append hands its event to (see
        #: the module docstring).
        self.sink = None

    # -- introspection -----------------------------------------------------------

    @property
    def next_seq(self) -> int:
        """Sequence number the next published event will receive."""
        return self._next_seq

    @property
    def horizon(self) -> int:
        """Oldest retained sequence number (reads below it are gapped)."""
        return self._horizon

    @property
    def retained_rows(self) -> int:
        """Edge-batch rows currently held against the retention bound."""
        return self._retained_rows

    def __len__(self) -> int:
        return len(self._events)

    # -- publishing --------------------------------------------------------------

    def publish_edge_batch(
        self,
        is_insert: bool,
        src,
        dst,
        weights,
        *,
        before_version,
        after_version,
        rows: int | None = None,
    ) -> EdgeBatch:
        """Append one normalized edge batch and hand it to the sink.

        The arrays are copied: publishers fast-path clean caller buffers
        through normalization, so without a copy a logged batch could
        alias a buffer the caller refills before a reader replays it.
        """
        event = EdgeBatch(
            seq=self._next_seq,
            before_version=before_version,
            after_version=after_version,
            is_insert=bool(is_insert),
            src=src.copy(),
            dst=dst.copy(),
            weights=None if weights is None else weights.copy(),
            rows=int(src.shape[0]) if rows is None else int(rows),
        )
        self._append(event, event.rows)
        return event

    def publish_structural(
        self, reason: str, *, before_version, after_version, payload=None
    ) -> StructuralEvent:
        """Append one structural event (costs zero retention rows).

        ``payload`` is the replay-enabling detail (see
        :class:`~repro.eventlog.events.StructuralEvent`); publishers should
        pass copies, since the event may outlive the caller's buffers.
        """
        event = StructuralEvent(
            seq=self._next_seq,
            before_version=before_version,
            after_version=after_version,
            reason=str(reason),
            payload=payload,
        )
        self._append(event, 0)
        return event

    def _append(self, event: Event, rows: int) -> None:
        self._events.append(event)
        self._next_seq += 1
        self._retained_rows += rows
        while self._events and self._retained_rows > self.retention_rows:
            old = self._events.popleft()
            if isinstance(old, EdgeBatch):
                self._retained_rows -= old.rows
            self._horizon = old.seq + 1
        if not self._events:
            self._horizon = self._next_seq
        if self.sink is not None:
            self.sink(event)

    # -- cursor reads ------------------------------------------------------------

    def cursor(self, seq: int | None = None) -> "EventCursor":
        """A new reader positioned at ``seq`` (default: the tail, so it
        observes only events published after its creation).

        ``seq`` must refer to a position the log has actually reached:
        negative values and values beyond :attr:`next_seq` raise
        :class:`ValidationError` instead of silently clamping — a caller
        holding such a seq has confused logs (or positions from a
        different log), and a clamped read would mask that as an empty or
        complete history.
        """
        return EventCursor(self, self._next_seq if seq is None else self._check_seq(seq))

    def events_since(self, seq: int) -> tuple[list, bool]:
        """``(events, gapped)`` for everything at or after ``seq``.

        ``gapped`` is True when retention already trimmed events the
        reader never saw (``seq < horizon``) — the returned (possibly
        empty) suffix is then an incomplete history and the reader must
        rebuild cold.  Like :meth:`cursor`, a negative ``seq`` or one
        beyond :attr:`next_seq` raises :class:`ValidationError`.
        """
        seq = self._check_seq(seq)
        gapped = seq < self._horizon
        start = max(seq, self._horizon)
        skip = start - self._horizon
        events = [e for i, e in enumerate(self._events) if i >= skip]
        return events, gapped

    def _check_seq(self, seq) -> int:
        seq = int(seq)
        if seq < 0 or seq > self._next_seq:
            raise ValidationError(
                f"seq {seq} is outside this log's published range "
                f"[0, {self._next_seq}] — cursors and reads must reference "
                "a position the log has actually reached"
            )
        return seq


class EventCursor:
    """A pull-based reader position over an :class:`EventLog`."""

    def __init__(self, log: EventLog, seq: int) -> None:
        self.log = log
        self.position = int(seq)

    def peek(self) -> tuple[list, bool]:
        """``(pending_events, gapped)`` without advancing the cursor."""
        return self.log.events_since(self.position)

    def poll(self) -> tuple[list, bool]:
        """``(pending_events, gapped)``, advancing the cursor to the tail.

        Polling clears a gap: the cursor re-anchors at the live tail and
        subsequent reads are complete again (the consumer is expected to
        have rebuilt cold when ``gapped`` was True).
        """
        events, gapped = self.log.events_since(self.position)
        self.position = self.log.next_seq
        return events, gapped

    def window(self, absorbs, base_version, live_version) -> list | None:
        """The one fold-or-cold rule of every consumer of the log.

        Polls, and returns the pending events iff a consumer whose state
        reflects ``base_version`` may fold them to reach ``live_version``:
        no retention gap, ``absorbs(event)`` true for every event, and the
        version chain intact (:func:`version_chain_intact` — which also
        catches a mutation applied behind the publisher's back).  ``[]``
        means already in sync; ``None`` means rebuild cold.  Either way
        the cursor ends at the tail.
        """
        events, gapped = self.poll()
        if gapped or not all(absorbs(e) for e in events):
            return None
        return events if version_chain_intact(events, base_version, live_version) else None

    def pending_rows(self) -> int:
        """Retention rows of the pending edge batches (0 when gapped
        events were trimmed — those rows are unknowable)."""
        events, _ = self.peek()
        return sum(e.rows for e in events if isinstance(e, EdgeBatch))

    @property
    def lag(self) -> int:
        """Events published since this cursor's position."""
        return self.log.next_seq - self.position
