"""Streaming scenario artifact (``t11``): incremental vs. full recompute.

The paper's workload is phase-concurrent streams — update batches
interleaved with query and compute phases.  This artifact runs seeded
:mod:`repro.stream` scenarios twice per backend and prices each compute
phase under the two strategies:

- **full** — the recompute-from-scratch baseline a Hornet-/faimGraph-
  style pipeline pays between update phases: cold edge-set export, the
  O(E log E) snapshot sort, then every selected analytic from scratch;
- **incr** — the facade's O(batch) delta-merged snapshot plus the
  delta-aware analytics family (:class:`IncrementalConnectedComponents`
  union-find updates, :class:`IncrementalPageRank` warm-start sweeps,
  :class:`IncrementalTriangleCount` net-window wedge closure,
  :class:`IncrementalBFS` / :class:`IncrementalSSSP` seeded
  re-relaxation, :class:`IncrementalKCore` candidate-set peeling).

Reported times are modeled device milliseconds per compute phase
(deterministic, baseline-gated).  Each (scenario, backend) emits one
aggregate row plus a row per analytic, sliced from the compute phases'
``analytic_model`` details; ``speedup`` is full/incr, which the quick CI
gate keeps ≥ 3x per analytic for the insert-heavy scenarios at
|E| = 2^18.  ``incr upd`` is the incremental mode's subscriber overhead
summed over the scenario's *mutation* phases — the price of staying
warm, reported so the speedup column cannot hide it.  PageRank runs at
the monitoring-grade ``STREAM_TOL`` (the two modes' sweep counts are
reported side by side).  SSSP needs weights, so it rides a separate
weighted insert-heavy scenario.  The B-tree backend joins on the small
mixed scenario only: its per-edge Python build dominates wall-clock at
streaming sizes while its facade-side delta paths are the identical
protocol defaults.
"""

from __future__ import annotations

from repro.bench.harness import BenchRecord
from repro.bench.results import ArtifactBuilder, ArtifactResult
from repro.stream import insert_heavy_scenario, mixed_scenario, run_scenario

__all__ = ["stream_artifact"]

#: PageRank tolerance for streaming compute phases (monitoring-grade:
#: per-vertex ranks stable to 1e-5 between phases).
STREAM_TOL = 1e-5

#: Vectorized backends priced on the large insert-heavy scenarios.
STREAM_BACKENDS = ("slabhash", "hornet", "faimgraph", "gpma")

#: The weight-capable subset for the SSSP scenario (gpma stores no weights).
WEIGHTED_STREAM_BACKENDS = ("slabhash", "hornet", "faimgraph")

#: Quick-mode subset for the 2^18 gate scenarios.
QUICK_STREAM_BACKENDS = ("slabhash", "hornet")

#: All registered structures join the small mixed scenario.
MIXED_BACKENDS = ("slabhash", "btree", "hornet", "faimgraph", "gpma")

#: The unweighted analytics family the insert-heavy scenarios price.
FAMILY_ANALYTICS = ("cc", "pagerank", "tc", "bfs", "kcore")

_MUTATION_KINDS = ("insert", "delete", "vertex_churn")


def _phase_records(result, kinds) -> list:
    """Phase results of the given kinds as BenchRecords (for metrics)."""
    return [
        BenchRecord(p.kind, items=p.applied, counters=p.counters)
        for p in result.phases
        if p.kind in kinds
    ]


def _analytic_mean_ms(result, analytic: str) -> float:
    """Mean modeled ms/compute-phase of one analytic's slice."""
    phases = result.compute_phases()
    if not phases:
        return 0.0
    total = sum(p.detail.get("analytic_model", {}).get(analytic, 0.0) for p in phases)
    return total / len(phases) * 1e3


def stream_artifact(seed: int = 0, quick: bool = False) -> ArtifactResult:
    """Price streaming compute phases: incremental vs. full recompute."""
    out = ArtifactBuilder(
        "t11",
        "Table XI — streaming compute phases: incremental vs full recompute (ms/phase)",
        [
            "Scenario",
            "Backend",
            "Analytic",
            "Full",
            "Incr",
            "Incr upd",
            "Speedup",
            "Cold swp",
            "Warm swp",
        ],
    )
    if quick:
        panel = [
            (mixed_scenario(1 << 9, seed=seed), MIXED_BACKENDS, ("cc", "pagerank")),
            (
                insert_heavy_scenario(1 << 18, seed=seed),
                QUICK_STREAM_BACKENDS,
                FAMILY_ANALYTICS,
            ),
            (
                insert_heavy_scenario(1 << 18, seed=seed, weighted=True),
                QUICK_STREAM_BACKENDS,
                ("sssp",),
            ),
        ]
    else:
        panel = [
            (mixed_scenario(1 << 12, seed=seed), MIXED_BACKENDS, ("cc", "pagerank")),
            (insert_heavy_scenario(1 << 16, seed=seed), STREAM_BACKENDS, FAMILY_ANALYTICS),
            (insert_heavy_scenario(1 << 18, seed=seed), STREAM_BACKENDS, FAMILY_ANALYTICS),
            (
                insert_heavy_scenario(1 << 18, seed=seed, weighted=True),
                WEIGHTED_STREAM_BACKENDS,
                ("sssp",),
            ),
        ]
    for scenario, backends, analytics in panel:
        for name in backends:
            full = run_scenario(
                scenario, name, mode="full", tol=STREAM_TOL, analytics=analytics
            )
            incr = run_scenario(
                scenario, name, mode="incremental", tol=STREAM_TOL, analytics=analytics
            )
            full_ms = full.mean_compute_model_seconds() * 1e3
            incr_ms = incr.mean_compute_model_seconds() * 1e3
            # Subscriber overhead: extra modeled time the incremental mode
            # spends inside the scenario's mutation phases to stay warm.
            upd_ms = (
                sum(incr.model_seconds(k) - full.model_seconds(k) for k in _MUTATION_KINDS) * 1e3
            )
            speedup = full_ms / incr_ms if incr_ms > 0 else 0.0
            sweeps_cold = sum(p.detail.get("pr_sweeps", 0) for p in full.compute_phases())
            sweeps_warm = sum(p.detail.get("pr_sweeps", 0) for p in incr.compute_phases())
            out.add_row(
                [
                    scenario.name,
                    name,
                    "all",
                    full_ms,
                    incr_ms,
                    upd_ms,
                    speedup,
                    sweeps_cold,
                    sweeps_warm,
                ]
            )
            key = (scenario.name, name)
            out.metric(
                full_ms,
                "ms",
                *key,
                "full",
                backend=name,
                records=_phase_records(full, ("compute",)),
            )
            out.metric(
                incr_ms,
                "ms",
                *key,
                "incr",
                backend=name,
                records=_phase_records(incr, ("compute",)),
            )
            out.metric(
                upd_ms,
                "ms",
                *key,
                "incr_update",
                backend=name,
                records=_phase_records(incr, _MUTATION_KINDS),
            )
            out.metric(speedup, "x", *key, "speedup", backend=name)
            out.metric(sweeps_cold, "sweeps", *key, "pr_sweeps_cold", backend=name)
            out.metric(sweeps_warm, "sweeps", *key, "pr_sweeps_warm", backend=name)
            for analytic in analytics:
                a_full = _analytic_mean_ms(full, analytic)
                a_incr = _analytic_mean_ms(incr, analytic)
                a_speedup = a_full / a_incr if a_incr > 0 else 0.0
                out.add_row(
                    [scenario.name, name, analytic, a_full, a_incr, None, a_speedup, None, None]
                )
                out.metric(a_full, "ms", *key, f"{analytic}_full", backend=name)
                out.metric(a_incr, "ms", *key, f"{analytic}_incr", backend=name)
                out.metric(a_speedup, "x", *key, f"{analytic}_speedup", backend=name)
    return out.build()
