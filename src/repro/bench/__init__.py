"""Evaluation harness regenerating the paper's Tables II-IX and Figures 2-3.

Layout:

- :mod:`repro.bench.workloads` — batch generators implementing Section V's
  workload definitions (random edge batches with duplicates allowed,
  vertex batches, incremental build schedules) and structure factories;
- :mod:`repro.bench.harness` — counter-delta measurement (modeled device
  time, throughput) and result records;
- :mod:`repro.bench.tables` — one function per paper table, returning
  structured :class:`~repro.bench.results.ArtifactResult` records
  (`table2_edge_insertion()` etc.);
- :mod:`repro.bench.figures` — the Figure 2/3 load-factor sweeps;
- :mod:`repro.bench.results` — versioned machine-readable result records
  (``BenchResult``/``SuiteResult``) with JSON round-tripping;
- :mod:`repro.bench.compare` — the equality gate against a committed
  baseline (every persisted field; ``changed`` or ``missing`` fails);
- :mod:`repro.bench.claims` — the reproduction scorecard: every claim the
  suite makes, as a row of data checked against the metrics of a run;
- :mod:`repro.bench.runner` — ``python -m repro.bench.runner`` regenerates
  every artifact, prints paper-style tables and the scorecard, and drives
  ``--json`` / ``--compare`` / ``--update-baselines``.

Committed baselines live in ``benchmarks/baselines/`` at the repo root.
The suite records modeled numbers only; host time is measured by
``benchmarks/wallclock/``.
"""

from repro.bench.compare import compare_suites
from repro.bench.harness import BenchRecord, format_table, time_call
from repro.bench.results import ArtifactResult, BenchResult, SuiteResult
from repro.bench.workloads import make_structure, random_edge_batch, random_vertex_batch

__all__ = [
    "ArtifactResult",
    "BenchRecord",
    "BenchResult",
    "SuiteResult",
    "compare_suites",
    "format_table",
    "make_structure",
    "random_edge_batch",
    "random_vertex_batch",
    "time_call",
]
