"""Streaming scenario engine + delta-aware incremental analytics.

The paper's workload is phase-concurrent streams: batches of edge
insertions and deletions interleaved with query and compute phases.  This
package makes that workload a first-class object:

- :mod:`repro.stream.scenario` — seeded :class:`Scenario` specs (mixed
  phase schedules over the Table I dataset generators) runnable against
  any registered backend through the :class:`repro.api.Graph` facade,
  with per-phase model/counter records;
- :mod:`repro.stream.incremental` — analytics that subscribe to the
  facade's per-batch edge deltas and update in O(batch) instead of
  recomputing from scratch: :class:`IncrementalConnectedComponents`
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

:mod:`repro.stream.durable` runs the same schedules against a
:class:`repro.persist.DurableGraph`, with phase-boundary progress records
so a paused or crashed run resumes bit-identically.

:mod:`repro.stream.chaos` runs schedules with chaos phases (kill-shard,
disk-fault, rebuild, checkpoint) against a
:class:`repro.api.ShardedGraph` under a seeded
:class:`repro.chaos.FaultPlan` — the fault/failover/degraded-read
workloads ``docs/robustness.md`` describes and the ``t14`` bench prices.
"""

from repro.stream.chaos import (
    disk_fault_scenario,
    kill_rebuild_scenario,
    run_chaos_scenario,
    thrash_fault_specs,
    thrash_scenario,
)
from repro.stream.durable import run_scenario_durable
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
    CHAOS_PHASE_KINDS,
    Phase,
    PhaseResult,
    Scenario,
    ScenarioResult,
    build_dataset,
    insert_heavy_scenario,
    quick_scenarios,
    run_scenario,
)

__all__ = [
    "ANALYTICS",
    "CHAOS_PHASE_KINDS",
    "IncrementalBFS",
    "IncrementalConnectedComponents",
    "IncrementalKCore",
    "IncrementalPageRank",
    "IncrementalSSSP",
    "IncrementalTriangleCount",
    "Phase",
    "PhaseResult",
    "Scenario",
    "ScenarioResult",
    "build_dataset",
    "disk_fault_scenario",
    "insert_heavy_scenario",
    "kill_rebuild_scenario",
    "quick_scenarios",
    "run_chaos_scenario",
    "run_scenario",
    "run_scenario_durable",
    "thrash_fault_specs",
    "thrash_scenario",
]
