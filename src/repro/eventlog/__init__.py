"""First-class graph event log: typed events, cursors, bounded retention.

The :class:`repro.api.Graph` facade publishes every normalized edge batch
and every structural change through an :class:`EventLog`; the snapshot
delta-merge and the incremental analytics in :mod:`repro.stream` are
cursor consumers of the same log.  See :mod:`repro.eventlog.log` for the full contract.
"""

from repro.eventlog.events import (
    EdgeBatch,
    Event,
    StructuralEvent,
    version_chain_intact,
)
from repro.eventlog.log import EventCursor, EventLog

__all__ = [
    "EdgeBatch",
    "Event",
    "EventCursor",
    "EventLog",
    "StructuralEvent",
    "version_chain_intact",
]
