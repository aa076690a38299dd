"""Durable scenario runs: pause, crash, and resume mid-schedule.

:func:`run_scenario_durable` executes the same phase schedule as
:func:`repro.stream.scenario.run_scenario`, but against a
:class:`repro.persist.DurableGraph` — every applied batch is framed into
the store's write-ahead log — and records its progress (next phase index,
RNG state, completed phase results) in an atomically-written
``scenario.json`` beside the store after every phase.

That makes three interruption shapes recoverable:

- **pause** — pass ``stop_after_phase=i`` to stop once phase ``i``
  completes; a later call with the same scenario picks up at phase
  ``i + 1``;
- **crash** — a killed process resumes from the last completed phase
  (or from the seed build, which is recorded the same way with phase 0
  next): the store recovers checkpoint + WAL-tail, and the persisted RNG
  state (``numpy``'s ``bit_generator.state``) makes every subsequent
  batch draw the exact values the uninterrupted run would have drawn, so
  the final graph is bit-identical (pinned by the tests);
- **read replica** — a second process can ``open_graph(dir,
  read_only=True)`` at any point and tail the run's WAL.

Progress is only recorded at phase boundaries: a crash *inside* a phase
re-runs that phase from its start on resume.  Replaying the phase's
batches is idempotent for the graph (replace semantics, same RNG draws)
— but the WAL then holds the partial attempt *and* the re-run, so resume
cuts a checkpoint right before re-entering the schedule, anchoring
recovery past the duplicated records.
"""

from __future__ import annotations

from dataclasses import asdict
from pathlib import Path

import numpy as np

from repro.persist import DEFAULT_SEGMENT_BYTES, open_graph
from repro.persist.checkpoint import _read_identity, _write_identity
from repro.stream.scenario import (
    PhaseResult,
    Scenario,
    ScenarioResult,
    _check_run_params,
    _compute_setup,
    _execute_phase,
    build_dataset,
)
from repro.util.errors import ValidationError

__all__ = ["run_scenario_durable"]

PROGRESS_FILE = "scenario.json"
_PROGRESS_KIND = "repro-scenario-progress"
_PROGRESS_SCHEMA = 2


def _write_progress(path: Path, identity: dict, next_phase: int, rng, results) -> None:
    fields = {
        **identity,
        "next_phase": int(next_phase),
        "complete": next_phase >= identity["num_phases"],
        "rng_state": rng.bit_generator.state,
        "phases": [asdict(r) for r in results],
    }
    _write_identity(path, _PROGRESS_KIND, _PROGRESS_SCHEMA, fields)


def _load_progress(path: Path, identity: dict, rng) -> tuple:
    """``(next_phase, completed PhaseResults)`` from the progress file of
    this very run (resuming a different scenario into the same directory
    would corrupt both), with ``rng`` put back where the run stopped."""
    doc = _read_identity(
        path, _PROGRESS_KIND, _PROGRESS_SCHEMA, ("next_phase", "phases", "rng_state"), identity
    )
    field = "next_phase"
    try:
        next_phase = int(doc[field])
        field = "phases"
        results = [PhaseResult(**r) for r in doc[field]]
        field = "rng_state"
        rng.bit_generator.state = doc[field]
    except (TypeError, ValueError, KeyError) as exc:
        raise ValidationError(f"{path}: field {field!r} is malformed: {exc}") from exc
    return next_phase, results


def run_scenario_durable(
    scenario: Scenario,
    backend_name: str,
    directory,
    *,
    mode: str = "incremental",
    damping: float = 0.85,
    tol: float = 1e-8,
    max_iters: int = 100,
    validate: bool = False,
    analytics: tuple = ("cc", "pagerank"),
    source: int = 0,
    kcore_k: int = 3,
    stop_after_phase: int | None = None,
    fsync: str = "batch",
    segment_bytes: int = DEFAULT_SEGMENT_BYTES,
    checkpoint_every_rows: int | None = None,
) -> ScenarioResult:
    """Run (or resume) a scenario against a durable store at ``directory``.

    Same semantics and arguments as
    :func:`~repro.stream.scenario.run_scenario`, plus:

    - ``stop_after_phase`` — pause once that phase index completes (the
      returned result covers only the phases executed so far);
    - ``fsync`` / ``segment_bytes`` / ``checkpoint_every_rows`` — passed
      through to :func:`repro.persist.open_graph`.

    The returned :class:`ScenarioResult` includes phases completed by
    *earlier* calls (reloaded from the progress file), so a finished
    resumed run reports the full schedule.  Note the incremental
    analytics re-initialize cold on each resume: compute-phase *costs*
    can differ from an uninterrupted run's, the graph content never does.
    Invalid arguments are rejected before anything under ``directory`` is
    created, so the corrected call can use the same directory.
    """
    coo = build_dataset(scenario)
    _check_run_params(
        scenario, coo.num_vertices, mode=mode, damping=damping, tol=tol, max_iters=max_iters,
        analytics=analytics, source=source, kcore_k=kcore_k,
    )
    directory = Path(directory)
    progress_path = directory / PROGRESS_FILE
    identity = {
        "scenario": scenario.name,
        "seed": scenario.seed,
        "backend": backend_name,
        "mode": mode,
        "num_phases": len(scenario.phases),
    }

    open_kwargs = {
        "fsync": fsync,
        "segment_bytes": segment_bytes,
        "checkpoint_every_rows": checkpoint_every_rows,
    }

    rng = np.random.default_rng(scenario.seed + 0x51AB)
    resumed = progress_path.exists()
    if resumed:
        next_phase, prior_results = _load_progress(progress_path, identity, rng)
        dg = open_graph(directory, **open_kwargs)
    else:
        next_phase, prior_results = 0, []
        dg = open_graph(
            directory,
            backend_name,
            num_vertices=coo.num_vertices,
            weighted=scenario.weighted,
            **open_kwargs,
        )

    try:
        g = dg.graph
        if not resumed:
            # Seeding is recorded like a phase — durable first, then the
            # progress file — so a run killed before phase 0 completes
            # resumes into the seeded store instead of seeding it twice.
            g.bulk_build(coo)
            dg.sync()
            _write_progress(progress_path, identity, 0, rng, [])
        compute_once, check_exact = _compute_setup(
            g, mode, damping, tol, max_iters,
            analytics=analytics, source=source, kcore_k=kcore_k,
        )
        if resumed and next_phase < len(scenario.phases):
            # The WAL may hold a partial phase the crash interrupted; the
            # re-run about to happen duplicates those records, which is
            # graph-idempotent but would double-apply under replay.  A
            # checkpoint here anchors recovery past them.
            dg.checkpoint()
        results = list(prior_results)
        for index in range(next_phase, len(scenario.phases)):
            phase = scenario.phases[index]
            results.append(_execute_phase(index, phase, g, coo, rng, scenario, compute_once))
            if validate:
                check_exact((scenario.name, index))
            dg.sync()  # the phase's WAL records must be durable ...
            _write_progress(progress_path, identity, index + 1, rng, results)
            # ... before the progress file claims the phase completed.
            if stop_after_phase is not None and index >= stop_after_phase:
                break
    finally:
        dg.close()
    return ScenarioResult(scenario=scenario, backend=backend_name, mode=mode, phases=results)
