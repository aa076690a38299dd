"""Result-file tooling: environment fingerprint, ``--compare``, README table."""

from __future__ import annotations

import json
import os
import platform
import subprocess

from pathlib import Path

import numpy as np
from tracer import LAYERS

ROOT = Path(__file__).resolve().parent.parent.parent
RESULTS = Path(__file__).resolve().parent / "results"

#: Values that must agree exactly between two runs of the same commit.
EXACT_PREFIXES = ("gpusim.",)
EXACT_NAMES = ("wal_bytes_per_edge",)


def load_spec() -> dict:
    """``BENCHMARK.json``: the metric names, units and bounds a run emits."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _git(root, *args) -> str | None:
    try:
        proc = subprocess.run(
            ["git", "-C", str(root), *args], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def fingerprint(seed: int) -> dict:
    """Where and on what a results file was measured.

    ``kernel_tier`` is filled in by the caller from the child processes
    (the parent never imports ``repro``).
    """
    sha = _git(ROOT, "rev-parse", "HEAD")
    status = _git(ROOT, "status", "--porcelain")
    return {
        "git_sha": sha or "unknown",
        "git_dirty": bool(status) if status is not None else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "kernel_tier": None,
        "seed": seed,
    }


def _refusal(a: dict, b: dict) -> str | None:
    """Why two result files cannot be compared, or None."""
    for doc in (a, b):
        if doc["size"] != "full":
            return f"size {doc['size']!r} is a smoke-test size, not a measurement"
    for key in ("kernel_tier", "seed"):
        if a["fingerprint"][key] != b["fingerprint"][key]:
            return f"{key} differs: {a['fingerprint'][key]!r} vs {b['fingerprint'][key]!r}"
    for name in a["workloads"].keys() & b["workloads"].keys():
        if a["workloads"][name]["params"] != b["workloads"][name]["params"]:
            return f"sizes of workload {name!r} differ"
    return None


def compare(path_a, path_b, spec: dict) -> int:
    """One row per workload × end-to-end metric: change of B against A and
    the bound; exit status 1 when any metric is worse by more than its bound
    or an exact value differs, 2 when the files cannot be compared."""
    a, b = json.loads(path_a.read_text()), json.loads(path_b.read_text())
    reason = _refusal(a, b)
    if reason:
        print(f"refusing to compare: {reason}")
        return 2
    status = 0
    print(f"{'workload':12s} {'metric':24s} {'A':>14s} {'B':>14s} {'worse by':>9s} {'bound':>6s}")
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        ma, mb = a["workloads"][name]["metrics"], b["workloads"][name]["metrics"]
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            va, vb = ma[key]["value"], mb[key]["value"]
            worse = (vb - va) / va if metric["better"] == "lower" else (va - vb) / va
            status |= worse > bound
            row = f"{name:12s} {key:24s} {va:14.6g} {vb:14.6g} {worse:+9.1%} {bound:6.0%}"
            print(row, "REGRESSION" if worse > bound else "")
        for key in sorted(ma.keys() & mb.keys()):
            if key.startswith(EXACT_PREFIXES) or key in EXACT_NAMES:
                same = ma[key]["value"] == mb[key]["value"]
                status |= not same
                if not same:
                    print(f"{name:12s} {key:24s} {ma[key]['value']!r} != {mb[key]['value']!r}")
    return int(status)


def top_layers_table(doc: dict) -> str:
    """Markdown: the three layers with the largest share of each workload's
    traced wall (needs a results file produced with ``--trace``)."""
    lines = [
        "| workload | 1st | 2nd | 3rd | coverage | tracing overhead |",
        "|---|---|---|---|---|---|",
    ]
    for name, result in doc["workloads"].items():
        metrics = result["metrics"]
        shares = sorted(
            ((metrics[f"{layer}.share"]["value"], layer) for layer in LAYERS), reverse=True
        )
        top = " | ".join(f"`{layer}` {share:.0%}" for share, layer in shares[:3])
        coverage = metrics["trace.coverage"]["value"]
        overhead = metrics["trace.overhead_pct"]["value"]
        lines.append(f"| `{name}` | {top} | {coverage:.3f} | {overhead:.1f} % |")
    return "\n".join(lines)
