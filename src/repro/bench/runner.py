"""Regenerate every paper artifact: ``python -m repro.bench.runner``.

Runs Tables II-IX, the streaming scenario artifact (``t11``) and the
Figure 2/3 sweeps in paper order, prints each as a fixed-width table, then
checks every claim of :mod:`repro.bench.claims` that the run's metrics can
decide and prints the scorecard.  Optionally persists/compares
machine-readable results:

- ``--quick``                  shrink every sweep to CI size;
- ``--json OUT.json``          write the run as a versioned SuiteResult;
- ``--compare BASELINE.json``  equality check of every persisted field
  against a baseline; exits 1 on any changed or missing metric (see
  :mod:`repro.bench.compare`);
- ``--update-baselines``       rewrite the committed baseline for this
  mode (``benchmarks/baselines/BENCH_baseline_quick.json`` or ``_full``).

Pass artifact ids (``t2 t7 f2`` ...) to run a subset; the whole list
is validated before any work starts, and usage errors go to stderr with
exit code 2.  Exit codes: 0 success, 1 violated claim or baseline
mismatch, 2 bad usage.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from time import perf_counter

from repro.bench import tables as T
from repro.bench.claims import evaluate
from repro.bench.compare import compare_suites
from repro.bench.figures import figure2_artifact, figure3_artifact
from repro.bench.harness import format_table
from repro.bench.stream_bench import stream_artifact
from repro.bench.results import (
    SchemaError,
    SuiteResult,
    environment_fingerprint,
)

__all__ = ["main"]

_ARTIFACTS = {
    "t2": T.table2_edge_insertion,
    "t3": T.table3_edge_deletion,
    "t4": T.table4_vertex_deletion,
    "t5": T.table5_bulk_build,
    "t6": T.table6_incremental_build,
    "t7": T.table7_static_triangle_counting,
    "t8": T.table8_sort_cost,
    "t9": T.table9_dynamic_triangle_counting,
    "t11": stream_artifact,
    "f2": figure2_artifact,
    "f3": figure3_artifact,
}

#: Every runnable artifact id; a run with no ids regenerates them all.
ARTIFACT_IDS = tuple(_ARTIFACTS)

#: Where the committed baselines live, relative to the repo root.
BASELINE_DIR = Path(__file__).resolve().parents[3] / "benchmarks" / "baselines"


def baseline_path(quick: bool, directory: Path | None = None) -> Path:
    mode = "quick" if quick else "full"
    return (directory or BASELINE_DIR) / f"BENCH_baseline_{mode}.json"


def run_suite(artifacts, seed: int = 0, quick: bool = False, echo=print) -> SuiteResult:
    """Run the named artifacts and collect a :class:`SuiteResult`.

    ``echo`` receives each formatted table as it completes (pass a no-op
    to run silently).
    """
    collected = []
    for key in artifacts:
        t0 = perf_counter()
        art = _ARTIFACTS[key](seed=seed, quick=quick)
        collected.append(art)
        echo(format_table(art.title, art.headers, art.rows))
        echo(f"[{key} took {perf_counter() - t0:.1f}s]\n")
    return SuiteResult(
        environment=environment_fingerprint(seed=seed, quick=quick),
        artifacts=collected,
    )


def _format_scorecard(verdicts) -> str:
    counts = {s: sum(v.status == s for v in verdicts) for s in ("pass", "fail", "n/a")}
    tally = ", ".join(f"{n} {s}" for s, n in counts.items() if n)
    rows = [
        [v.status.upper(), v.claim.id, v.claim.source, v.observed, v.claim.paper or "—"]
        for v in verdicts
    ]
    title = f"scorecard: {'VIOLATED' if counts['fail'] else 'OK'} ({tally})"
    return format_table(title, ["status", "claim", "source", "observed", "paper"], rows) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "artifacts", nargs="*", default=[], help=f"subset of {' '.join(ARTIFACT_IDS)}"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quick", action="store_true", help="smaller sweeps")
    parser.add_argument("--json", metavar="OUT.json", help="write machine-readable results here")
    parser.add_argument(
        "--compare",
        metavar="BASELINE.json",
        help="compare against a baseline; exit 1 on any changed or missing metric",
    )
    parser.add_argument(
        "--update-baselines",
        action="store_true",
        help="rewrite the committed baseline for this mode",
    )
    args = parser.parse_args(argv)

    # All usage errors are caught before any (potentially minutes-long)
    # bench work starts: unknown ids, partial baseline refreshes, and
    # unreadable comparison baselines.
    wanted = [a.lower() for a in args.artifacts] or list(_ARTIFACTS)
    unknown = [a for a in wanted if a not in _ARTIFACTS]
    if unknown:
        print(
            f"unknown artifact id(s): {', '.join(map(repr, unknown))}; "
            f"valid: {', '.join(ARTIFACT_IDS)}",
            file=sys.stderr,
        )
        return 2

    if args.update_baselines and not set(_ARTIFACTS) <= set(wanted):
        missing = sorted(set(_ARTIFACTS) - set(wanted))
        print(
            "refusing --update-baselines from a partial run (would drop "
            f"{', '.join(missing)} from the baseline and disable their CI "
            "gating); rerun without artifact ids",
            file=sys.stderr,
        )
        return 2

    baseline = None
    if args.compare:
        try:
            baseline = SuiteResult.load(args.compare)
        except (OSError, SchemaError) as exc:
            print(f"cannot load baseline {args.compare}: {exc}", file=sys.stderr)
            return 2
        if bool(baseline.environment.get("quick")) != bool(args.quick):
            print(
                "warning: baseline and current run differ in --quick mode; "
                "metric coverage will not match",
                file=sys.stderr,
            )

    suite = run_suite(wanted, seed=args.seed, quick=args.quick)
    verdicts = evaluate({key: res.value for key, res in suite.metrics().items()})
    print(_format_scorecard(verdicts))
    ok = not any(v.status == "fail" for v in verdicts)

    if args.json:
        suite.save(args.json)
        print(f"wrote {len(suite.metrics())} metrics to {args.json}")
    if args.update_baselines:
        path = baseline_path(args.quick)
        path.parent.mkdir(parents=True, exist_ok=True)
        suite.save(path)
        print(f"updated baseline {path}")

    if baseline is not None:
        report = compare_suites(baseline, suite)
        print(report.format())
        ok = ok and report.ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
