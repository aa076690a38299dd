"""Chaos scenarios: seeded fault-injection workloads on a sharded service.

:func:`run_chaos_scenario` executes a :class:`~repro.stream.scenario.Scenario`
whose schedule may include the chaos phase kinds
(:data:`~repro.stream.scenario.CHAOS_PHASE_KINDS`) against a
:class:`~repro.api.sharding.ShardedGraph` with durable per-shard stores
attached and every fault seam wired to one seeded
:class:`~repro.chaos.FaultPlan`:

- each shard's backend is wrapped in a :class:`~repro.chaos.FaultyBackend`
  (fault points ``shard<i>.<op>``), so armed specs can make shards flaky,
  slow, or dead mid-workload;
- each shard's WAL opens files through a :class:`~repro.chaos.FaultyStore`
  (fault points ``wal.open`` / ``wal.write`` / ``wal.fsync`` ...), so disk
  faults strike the durable log;
- the service runs with ``partial_dispatch="record"`` — a batch that
  fails on some shards is accounted (not raised) and re-driven by the
  next ``rebuild_shard`` phase, keeping the schedule's RNG stream
  identical to a fault-free run.

Data phases (insert / delete / query / churn) reuse the plain scenario
engine's executor, so a chaos run draws the *same* random batches as
:func:`~repro.stream.scenario.run_scenario` given the same scenario seed
— which is what lets tests pin a killed-and-rebuilt service bit-identical
to a never-faulted one.  Compute phases serve degraded-mode reads while
shards are dead (:meth:`~repro.api.sharding.ShardedGraph.degraded_snapshot`),
and every phase record carries the faults the plan fired during it plus
the service's health vector — the fault/recovery timeline of the run.

See ``docs/robustness.md`` for the fault model and a scenario guide.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.analytics.connected_components import connected_components
from repro.api.sharding import ShardedGraph
from repro.chaos import FaultPlan, FaultSpec, FaultyBackend, FaultyStore
from repro.gpusim.counters import get_counters
from repro.gpusim.model import simulated_seconds
from repro.stream.scenario import (
    CHAOS_PHASE_KINDS,
    Phase,
    Scenario,
    _check_run_params,
    _cold_pagerank,
    _execute_phase,
    _record_phase,
    build_dataset,
)
from repro.util.errors import ValidationError

__all__ = [
    "run_chaos_scenario",
    "kill_rebuild_scenario",
    "disk_fault_scenario",
    "thrash_scenario",
]


@dataclass
class ChaosResult:
    """A chaos scenario run: phase records plus the live service.

    ``phases`` mirror the plain engine's
    :class:`~repro.stream.scenario.PhaseResult` records, with chaos
    extras in ``detail``: ``faults`` (the
    :class:`~repro.chaos.FireRecord`\\ s the plan fired during the
    phase), ``health`` (the post-phase shard health vector), and the
    kind-specific recovery stats (events replayed, reports redriven,
    gaps healed).  Call :meth:`close` when done — it closes the per-shard
    stores and removes the run's scratch directory (when the runner
    created one).
    """

    scenario: Scenario
    backend: str
    num_shards: int
    phases: list
    service: ShardedGraph
    plan: FaultPlan
    _tmp: object = field(default=None, repr=False)

    def close(self) -> None:
        """Close the durable stores and clean the scratch directory."""
        if self.service.stores is not None:
            self.service.stores.close()
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None

    def __enter__(self) -> "ChaosResult":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _chaos_compute(service, *, damping, tol, max_iters):
    """Compute-phase closure: serve a global snapshot (degraded while
    shards are dead) and run the cold analytics on it."""

    def compute_once() -> dict:
        detail: dict = {}
        counters = get_counters()
        before = counters.snapshot()
        if service.dead_shards:
            degraded = service.degraded_snapshot()
            snap = degraded.snapshot
            detail["degraded"] = True
            detail["stale_shards"] = list(degraded.stale_shards)
            detail["missing_shards"] = list(degraded.missing_shards)
            detail["staleness"] = list(degraded.staleness)
        else:
            snap = service.snapshot()
            detail["degraded"] = False
        detail["snapshot_model"] = simulated_seconds(counters.diff(before))
        connected_components(snap)
        detail["pr_sweeps"] = _cold_pagerank(snap, damping, tol, max_iters)[1]
        return detail

    return compute_once


def _chaos_phase(phase, service, plan) -> tuple:
    """``(applied, skipped, detail)`` of one kill / rebuild / disk-fault /
    checkpoint phase."""
    detail: dict = {}
    if phase.kind == "kill_shard":
        service.kill_shard(phase.target)
        detail["shard"] = phase.target
        applied = 1
    elif phase.kind == "rebuild_shard":
        info = service.rebuild_shard(phase.target)
        # The factory hands rebuild_shard an unwrapped replacement; put it
        # back behind the fault plan so the rebuilt shard stays injectable.
        shard = service.shards[phase.target]
        shard.backend = FaultyBackend(shard.backend, plan, prefix=f"shard{phase.target}")
        remaining = service.redrive_pending()
        detail["shard"] = phase.target
        detail["replayed_events"] = info.replayed_events
        detail["from_checkpoint"] = info.recovered_checkpoint is not None
        detail["repaired_torn_tail"] = info.repaired_torn_tail
        detail["pending_after_redrive"] = remaining
        applied = info.replayed_events
    elif phase.kind == "checkpoint":
        healed = service.stores.durability_gap
        service.stores.checkpoint()
        detail["healed_gaps"] = healed
        applied = service.num_shards
    else:  # disk_fault: the next `size` WAL appends fail with OSError
        spec = plan.arm("wal.write", kind="oserror", rate=1.0, max_fires=phase.size)
        detail["armed"] = {"point": spec.point, "kind": spec.kind, "max_fires": spec.max_fires}
        applied = phase.size
    return applied, False, detail


def run_chaos_scenario(
    scenario: Scenario,
    backend_name: str,
    *,
    num_shards: int = 4,
    fault_seed: int = 0,
    faults=(),
    directory=None,
    fsync: str = "never",
    damping: float = 0.85,
    tol: float = 1e-8,
    max_iters: int = 100,
) -> ChaosResult:
    """Execute a scenario (chaos phases allowed) on a sharded service.

    The service is built over ``num_shards`` fresh ``backend_name``
    shards with durability attached under ``directory`` (a scratch
    directory is created — and owned by the returned result — when None);
    ``faults`` are :class:`~repro.chaos.FaultSpec` rules pre-armed on the
    run's :class:`~repro.chaos.FaultPlan` seeded with ``fault_seed``.
    The whole run is deterministic in ``(scenario.seed, fault_seed)``.

    A ``rebuild_shard`` phase while the rebuilt shard's WAL has a
    durability gap raises :class:`~repro.util.errors.PersistError` —
    schedule a ``checkpoint`` phase between the disk fault and the
    rebuild, as :func:`disk_fault_scenario` does.
    """
    coo = build_dataset(scenario)
    _check_run_params(scenario, coo.num_vertices, damping=damping, tol=tol, max_iters=max_iters)
    for phase in scenario.phases:
        if phase.kind in ("kill_shard", "rebuild_shard") and not (
            0 <= phase.target < num_shards
        ):
            raise ValidationError(
                f"phase {phase.kind!r} targets shard {phase.target}, but the "
                f"run has {num_shards} shards"
            )
    service = ShardedGraph.create(
        backend_name,
        coo.num_vertices,
        num_shards=num_shards,
        weighted=scenario.weighted,
        partial_dispatch="record",
    )
    plan = FaultPlan(fault_seed, faults)
    for s, shard in enumerate(service.shards):
        shard.backend = FaultyBackend(shard.backend, plan, prefix=f"shard{s}")
    tmp = None
    if directory is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-chaos-")
        directory = Path(tmp.name) / "stores"
    store_faults = FaultyStore(plan, prefix="wal")
    service.attach_durability(directory, fsync=fsync, opener=store_faults.opener)
    service.bulk_build(coo)
    plan.drain_events()  # seeding is setup, not workload
    compute_once = _chaos_compute(service, damping=damping, tol=tol, max_iters=max_iters)
    rng = np.random.default_rng(scenario.seed + 0x51AB)
    results: list = []
    for index, phase in enumerate(scenario.phases):
        if phase.kind in CHAOS_PHASE_KINDS:
            result = _record_phase(index, phase, _chaos_phase, service, plan)
        else:
            result = _execute_phase(index, phase, service, coo, rng, scenario, compute_once)
        result.detail["faults"] = plan.drain_events()
        result.detail["health"] = list(service.health)
        results.append(result)
    return ChaosResult(
        scenario=scenario,
        backend=backend_name,
        num_shards=num_shards,
        phases=results,
        service=service,
        plan=plan,
        _tmp=tmp,
    )


# -- chaos scenario catalog -----------------------------------------------------------


def kill_rebuild_scenario(
    num_vertices: int = 1 << 10,
    *,
    batch: int = 256,
    shard: int = 1,
    seed: int = 0,
) -> Scenario:
    """Kill one shard mid-stream, serve degraded, rebuild, verify.

    Inserts land before and *while* the shard is dead (the dead shard's
    rows are recorded as partial dispatches), a compute phase serves the
    degraded snapshot, then ``rebuild_shard`` replays the WAL and
    re-drives the recorded batches — the final compute runs on an exact
    global view again.
    """
    phases = (
        Phase("insert", size=batch, batches=2),
        Phase("compute"),
        Phase("kill_shard", target=shard),
        Phase("insert", size=batch),
        Phase("compute"),  # degraded-mode read
        Phase("rebuild_shard", target=shard),
        Phase("compute"),
    )
    return Scenario(
        name=f"chaos-kill-rebuild-2^{int(np.log2(num_vertices))}",
        family="rmat",
        num_vertices=num_vertices,
        avg_degree=4.0,
        phases=phases,
        seed=seed,
    )


def disk_fault_scenario(
    num_vertices: int = 1 << 10,
    *,
    batch: int = 256,
    shard: int = 0,
    fires: int = 2,
    seed: int = 0,
) -> Scenario:
    """WAL appends fail mid-stream; checkpoint heals; rebuild still exact.

    The ``disk_fault`` phase arms ``fires`` one-shot ``OSError`` faults
    on ``wal.write``; the following inserts open durability gaps (applied
    in memory, lost to the log).  The ``checkpoint`` phase heals the gaps
    — making the subsequent kill + rebuild of a shard safe again.
    """
    phases = (
        Phase("insert", size=batch, batches=2),
        Phase("disk_fault", size=fires),
        Phase("insert", size=batch),
        Phase("checkpoint"),
        Phase("kill_shard", target=shard),
        Phase("rebuild_shard", target=shard),
        Phase("compute"),
    )
    return Scenario(
        name=f"chaos-disk-fault-2^{int(np.log2(num_vertices))}",
        family="powerlaw",
        num_vertices=num_vertices,
        avg_degree=4.0,
        phases=phases,
        seed=seed,
    )


def thrash_scenario(
    num_vertices: int = 1 << 10,
    *,
    batch: int = 192,
    seed: int = 0,
) -> Scenario:
    """Edge churn under flaky shards (pair with rate-based transient
    faults on ``shard*.insert_edges`` / ``shard*.delete_edges`` — see
    :func:`thrash_fault_specs`): the retry policy should absorb every
    fault without changing the final state."""
    phases = (
        Phase("insert", size=batch, batches=2),
        Phase("delete", size=batch // 2),
        Phase("compute"),
        Phase("insert", size=batch, batches=2),
        Phase("delete", size=batch // 2),
        Phase("query", size=batch),
        Phase("compute"),
    )
    return Scenario(
        name=f"chaos-thrash-2^{int(np.log2(num_vertices))}",
        family="rgg",
        num_vertices=num_vertices,
        avg_degree=6.0,
        phases=phases,
        seed=seed,
    )


def thrash_fault_specs(rate: float = 0.25):
    """Transient-fault rules for :func:`thrash_scenario`: every shard
    mutation point fires with probability ``rate``, unlimited times —
    retries must absorb all of it."""
    return (
        FaultSpec("shard*.insert_edges", kind="transient", rate=rate, max_fires=None),
        FaultSpec("shard*.delete_edges", kind="transient", rate=rate, max_fires=None),
    )
