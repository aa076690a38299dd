#!/usr/bin/env python3
"""Wall-clock benchmark of the dynamic-graph simulator (host time only).

One workload per process::

    python3 benchmarks/wallclock/run.py --workload churn --seed 0 --seconds 10 --trace 0

prints every metric by name and unit and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Without ``--workload`` all five run, each in a fresh child
process, and the results land in ``benchmarks/wallclock/results/``;
``--compare A.json B.json`` diffs two such files against the bounds.

Every number here is *host* time of the simulator.  Simulated device time
(``repro.gpusim``) is the business of ``python -m repro.bench.runner``; the
only simulated values reported here are the ``gpusim.*`` counts, which
must repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent


def _bootstrap() -> None:
    """Pin BLAS to one thread (before NumPy loads: nothing may contend with
    the single client of the closed loop) and make ``repro`` and this
    directory's modules importable without ``PYTHONPATH``."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    for path in (str(ROOT / "src"), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)


def run_all(seed: int, seconds: float, trace: bool, size: str, out: Path | None) -> int:
    """Each workload in its own fresh child process; one results file."""
    import report
    from inputs import WORKLOADS
    from report import RESULTS

    RESULTS.mkdir(exist_ok=True)
    doc = {"fingerprint": report.fingerprint(seed), "size": size, "workloads": {}}
    status = 0
    part = RESULTS / f"part-{os.getpid()}.json"
    for name in WORKLOADS:
        merged = None
        for traced in (0, 1) if trace else (0,):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--out", str(part)]
            cmd += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(traced)]
            cmd += ["--size", size]
            status |= subprocess.run(cmd).returncode
            if not part.exists():
                continue
            result = json.loads(part.read_text())
            part.unlink()
            if merged is None:
                merged = result
            else:
                merged["metrics"].update(result["metrics"])
                merged["attempted"] += result["attempted"]
                merged["failed"] += result["failed"]
                merged["correct"] &= result["correct"]
        if merged is not None:
            doc["workloads"][name] = merged
            doc["fingerprint"]["kernel_tier"] = merged["kernel_tier"]
    out = out or RESULTS / f"wallclock-seed{seed}-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"# results written to {out}")
    return status


def main(argv=None) -> int:
    _bootstrap()
    import report
    from inputs import SIZES, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--out", type=Path, help="write the result document here")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A.json", "B.json"))
    parser.add_argument("--top-layers", type=Path, metavar="RESULTS.json")
    args = parser.parse_args(argv)
    spec = report.load_spec()
    if args.compare:
        return report.compare(*args.compare, spec)
    if args.top_layers:
        print(report.top_layers_table(json.loads(args.top_layers.read_text())))
        return 0
    seconds = float(spec["run_seconds"]) if args.seconds is None else args.seconds
    if args.workload is None:
        return run_all(args.seed, seconds, bool(args.trace), args.size, args.out)
    import harness

    result = harness.run_workload(args.workload, args.seed, seconds, bool(args.trace), args.size)
    if args.out:
        args.out.write_text(json.dumps(result, indent=2) + "\n")
    harness.print_result(result)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
