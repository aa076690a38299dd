"""Equality gate of a bench run against a persisted baseline.

Every number the suite persists derives from the deterministic device
model, so two runs of the same code are the same document.
:func:`compare_suites` checks every measurement field of every
:class:`~repro.bench.results.BenchResult` for equality and classifies it:

- ``same``    — ``unit``, ``items`` and ``counters`` equal exactly, ``value``
  and ``model_seconds`` equal within :data:`REL_TOL`;
- ``changed`` — any of those fields differs, in either direction;
- ``missing`` — in the baseline but absent from the current run;
- ``new``     — in the current run only (informational).

Anything ``changed`` or ``missing`` fails the gate.  A legitimate move —
faster, slower, renamed or removed — ships by refreshing the baseline
(``runner --update-baselines``) in the same commit.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isclose

from repro.bench.harness import format_table
from repro.bench.results import BenchResult, SuiteResult

__all__ = ["compare_suites"]

#: Relative slack on the float fields: absorbs a last-digit difference in
#: summation order, nothing a reader of the tables could see.
REL_TOL = 1e-9


@dataclass
class MetricComparison:
    """One metric's verdict; ``note`` names the fields that differ."""

    metric: str
    status: str  # same | changed | missing | new
    unit: str = ""
    baseline_value: float | None = None
    current_value: float | None = None
    note: str = ""


@dataclass
class ComparisonReport:
    """All metric verdicts plus the overall gate decision."""

    comparisons: list

    def by_status(self, status: str) -> list:
        return [c for c in self.comparisons if c.status == status]

    @property
    def ok(self) -> bool:
        return not (self.by_status("changed") or self.by_status("missing"))

    def summary(self) -> str:
        counts = {s: len(self.by_status(s)) for s in ("same", "changed", "missing", "new")}
        parts = ", ".join(f"{n} {s}" for s, n in counts.items() if n)
        return f"baseline comparison: {'OK' if self.ok else 'MISMATCH'} ({parts or 'no metrics'})"

    def format(self, verbose: bool = False) -> str:
        """Summary line plus one row per changed / missing metric (all if ``verbose``)."""
        order = {"changed": 0, "missing": 1, "new": 2, "same": 3}
        rows = [
            [c.status.upper(), c.metric, c.baseline_value, c.current_value, c.unit, c.note or "—"]
            for c in sorted(self.comparisons, key=lambda c: (order[c.status], c.metric))
            if verbose or c.status in ("changed", "missing")
        ]
        headers = ["status", "metric", "baseline", "current", "unit", "differs"]
        return self.summary() + (format_table("", headers, rows) if rows else "")


def _equal(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)
    return a == b


def _differences(base: BenchResult, cur: BenchResult) -> list:
    """``field old → new`` for every persisted measurement field that is not equal."""
    fields = ("value", "unit", "model_seconds", "items")
    pairs = [(name, getattr(base, name), getattr(cur, name)) for name in fields]
    pairs += [
        (key, base.counters.get(key, 0), cur.counters.get(key, 0))
        for key in sorted(base.counters.keys() | cur.counters.keys())
    ]
    return [f"{name} {a!r} → {b!r}" for name, a, b in pairs if not _equal(a, b)]


def compare_suites(baseline: SuiteResult, current: SuiteResult) -> ComparisonReport:
    """Compare ``current`` against ``baseline``, metric by metric."""
    base_metrics = baseline.metrics()
    cur_metrics = current.metrics()
    comparisons = []
    for key in sorted(base_metrics.keys() | cur_metrics.keys()):
        base, cur = base_metrics.get(key), cur_metrics.get(key)
        if cur is None:
            comparisons.append(MetricComparison(key, "missing", base.unit, base.value))
        elif base is None:
            comparisons.append(MetricComparison(key, "new", cur.unit, None, cur.value))
        else:
            diffs = _differences(base, cur)
            status = "changed" if diffs else "same"
            comparisons.append(
                MetricComparison(key, status, base.unit, base.value, cur.value, "; ".join(diffs))
            )
    return ComparisonReport(comparisons)
