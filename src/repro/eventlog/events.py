"""Typed events of the graph event log.

Every mutation a facade applies is recorded as exactly one event:

- :class:`EdgeBatch` — a normalized batch of edge insertions or deletions
  (the arrays are the post-normalization batch the backend actually saw:
  self-loops dropped, intra-batch duplicates collapsed if the facade
  dedups, weights defaulted);
- :class:`StructuralEvent` — a mutation that cannot be expressed as an
  edge delta (vertex deletion, bulk build, rehash, tombstone flush).

Both carry the publisher's ``mutation_version`` observed immediately
*before* and *after* the backend dispatch.  A consumer that replays a
window of events can therefore prove the window is a faithful history:
the versions must chain (each event's ``after_version`` equals the next
event's ``before_version``) and the final ``after_version`` must equal
the live version — any mutation applied behind the publisher's back
breaks the chain and forces a cold fallback, with no per-consumer
version bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Event", "EdgeBatch", "StructuralEvent", "version_chain_intact"]


@dataclass(frozen=True)
class Event:
    """Common header: position in the log + the version transition."""

    #: Monotone position in the log (0-based, gap-free at append time).
    seq: int
    #: Publisher's ``mutation_version`` immediately before the dispatch
    #: (``None`` when the backend does not version its mutations — such
    #: events can never prove a faithful window and always force cold).
    before_version: int | None
    #: Publisher's ``mutation_version`` immediately after the dispatch.
    after_version: int | None


@dataclass(frozen=True)
class EdgeBatch(Event):
    """One applied (normalized) batch of edge insertions or deletions."""

    is_insert: bool
    src: np.ndarray
    dst: np.ndarray
    weights: np.ndarray | None
    #: Rows this event accounts against the log's retention bound.
    #: Undirected publishers mirror each row internally, so this may be
    #: ``2 * len(src)``; it is also the row count a snapshot merge sorts.
    rows: int


@dataclass(frozen=True)
class StructuralEvent(Event):
    """A mutation with no edge-delta representation (see ``reason``).

    ``payload`` carries whatever is needed to *re-apply* the mutation on a
    replay consumer (the write-ahead log in :mod:`repro.persist`, a read
    replica): the deleted vertex-id array for ``"delete_vertices"``, the
    built :class:`repro.coo.COO` for ``"bulk_build"``.  Maintenance events
    (``"rehash"``, ``"flush_tombstones"``) carry ``None`` — they do not
    change the logical edge set, so replayers skip them.
    """

    reason: str
    payload: object | None = None


def version_chain_intact(events, base_version, live_version) -> bool:
    """True iff ``events`` is a provably complete history from
    ``base_version`` to ``live_version``.

    Requires every event to be versioned (no ``None``), the first to start
    at ``base_version``, consecutive events to chain ``after -> before``,
    every event to have actually advanced the version, and the last to
    land on ``live_version``.  An empty window is intact iff the versions
    already agree.
    """
    if base_version is None or live_version is None:
        return False
    expect = base_version
    for e in events:
        if e.before_version is None or e.after_version is None:
            return False
        if e.before_version != expect or e.after_version <= e.before_version:
            return False
        expect = e.after_version
    return expect == live_version
