"""Streaming scenario engine + delta-aware incremental analytics.

The paper's workload is phase-concurrent streams: batches of edge
insertions and deletions interleaved with query and compute phases.  This
package makes that workload a first-class object:

- :mod:`repro.stream.scenario` — the ``t11`` schedule: seeded
  :class:`Scenario` specs (insert, query and compute phases over an R-MAT
  seed graph) runnable against any registered backend through the
  :class:`repro.api.Graph` facade, with per-phase model/counter records;
- :mod:`repro.stream.incremental` — analytics that read the facade's
  per-batch edge deltas through an event-log cursor and update in
  O(batch) instead of recomputing from scratch: :class:`IncrementalConnectedComponents`
  (union-find, cold re-label on deletions/vertex ops),
  :class:`IncrementalPageRank` (warm-start power iteration),
  :class:`IncrementalTriangleCount` (net-window wedge closure — inserts
  and edge deletes fold together against the cached symmetric CSR),
  :class:`IncrementalBFS` / :class:`IncrementalSSSP` (frontier
  re-relaxation seeded from the delta), and :class:`IncrementalKCore`
  (candidate-set peeling with the old core credited).

The ``t11`` bench artifact (:mod:`repro.bench.stream_bench`) prices the
incremental compute phases against the full-recompute baseline the other
structures model.

A scenario runs one way, on an in-memory :class:`repro.api.Graph`.  A
stream that must survive a crash drives a durable store directly
(:func:`repro.persist.open_graph`, with ``sync()`` as the acknowledgement;
the README's "Durability and recovery" section states the resume
contract), and a stream over shards
that fail re-drives each :class:`repro.api.PartialDispatchError`'s report
after the rebuild (``docs/robustness.md``).
"""

from repro.stream.incremental import (
    IncrementalBFS,
    IncrementalConnectedComponents,
    IncrementalKCore,
    IncrementalPageRank,
    IncrementalSSSP,
    IncrementalTriangleCount,
)
from repro.stream.scenario import (
    ANALYTICS,
    Phase,
    Scenario,
    insert_heavy_scenario,
    run_scenario,
)

__all__ = [
    "ANALYTICS",
    "IncrementalBFS",
    "IncrementalConnectedComponents",
    "IncrementalKCore",
    "IncrementalPageRank",
    "IncrementalSSSP",
    "IncrementalTriangleCount",
    "Phase",
    "Scenario",
    "insert_heavy_scenario",
    "run_scenario",
]
