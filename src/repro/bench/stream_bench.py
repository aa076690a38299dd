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

A speedup is full/incr modeled device time per compute phase
(deterministic, baseline-gated): ``speedup`` over every analytic of the
scenario, ``<analytic>_speedup`` over one analytic's slice of the compute
phases' ``analytic_model`` details.  Persisted are exactly those the
scorecard's ``t11-incremental`` claim keeps ≥ 3x at |E| = 2^18 (the
aggregate and tc / bfs / kcore of the unweighted scenario, sssp of the
weighted one) plus PageRank's, the target of ROADMAP item 7; CC is priced
in the aggregate only.  PageRank runs at the monitoring-grade
``STREAM_TOL``.  SSSP needs weights, so it rides a separate weighted
insert-heavy scenario.
"""

from __future__ import annotations

from repro.bench.results import ArtifactBuilder, ArtifactResult
from repro.stream import insert_heavy_scenario, run_scenario

__all__ = ["stream_artifact"]

#: PageRank tolerance for streaming compute phases (monitoring-grade:
#: per-vertex ranks stable to 1e-5 between phases).
STREAM_TOL = 1e-5

#: Vectorized backends priced on the insert-heavy scenarios.
STREAM_BACKENDS = ("slabhash", "hornet", "faimgraph", "gpma")

#: The weight-capable subset for the SSSP scenario (gpma stores no weights).
WEIGHTED_STREAM_BACKENDS = ("slabhash", "hornet", "faimgraph")

#: Quick-mode subset for both scenarios.
QUICK_STREAM_BACKENDS = ("slabhash", "hornet")

#: The unweighted analytics family the insert-heavy scenario prices.
FAMILY_ANALYTICS = ("cc", "pagerank", "tc", "bfs", "kcore")


def _mean_ms(result, analytic: str) -> float:
    """Mean modeled ms per compute phase: every analytic's for ``"all"``,
    else the one analytic's slice."""
    if analytic == "all":
        return result.mean_compute_model_seconds() * 1e3
    phases = result.compute_phases()
    total = sum(p.detail.get("analytic_model", {}).get(analytic, 0.0) for p in phases)
    return total / len(phases) * 1e3


def stream_artifact(seed: int = 0, quick: bool = False) -> ArtifactResult:
    """Price streaming compute phases: incremental vs. full recompute."""
    out = ArtifactBuilder(
        "t11",
        "Table XI — streaming compute phases: full recompute / incremental speedup",
        ["Scenario", "Backend", "Analytic", "Speedup"],
    )
    backends = QUICK_STREAM_BACKENDS if quick else STREAM_BACKENDS
    weighted = QUICK_STREAM_BACKENDS if quick else WEIGHTED_STREAM_BACKENDS
    # (scenario, backends, analytics run, speedups persisted)
    panel = [
        (
            insert_heavy_scenario(1 << 18, seed=seed),
            backends,
            FAMILY_ANALYTICS,
            ("all", "pagerank", "tc", "bfs", "kcore"),
        ),
        (insert_heavy_scenario(1 << 18, seed=seed, weighted=True), weighted, ("sssp",), ("sssp",)),
    ]
    for scenario, names, analytics, reported in panel:
        for name in names:
            full, incr = (
                run_scenario(scenario, name, mode=mode, tol=STREAM_TOL, analytics=analytics)
                for mode in ("full", "incremental")
            )
            for analytic in reported:
                speedup = _mean_ms(full, analytic) / _mean_ms(incr, analytic)
                out.add_row([scenario.name, name, analytic, speedup])
                suffix = "speedup" if analytic == "all" else f"{analytic}_speedup"
                out.metric(speedup, "x", scenario.name, name, suffix, backend=name)
    return out.build()
