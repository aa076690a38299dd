"""Tolerance-banded comparison of a bench run against a persisted baseline.

Given two :class:`~repro.bench.results.SuiteResult` documents, compare
every baseline metric against the current run and classify it:

- ``pass``  — within the warn band (or an improvement);
- ``warn``  — regressed past the warn threshold but inside the fail band;
- ``fail``  — regressed past the fail threshold;
- ``missing`` — present in the baseline but absent from the current run
  (a silently dropped measurement; counts as failure by default);
- ``new``   — present in the current run only (informational).

Direction comes from the metric's unit: throughput units regress downward,
time/size units regress upward, everything else is banded in both
directions.  Thresholds are *relative* and can be overridden per metric via
``fnmatch`` patterns (``{"t9/*": Tolerance(warn=0.05, fail=0.10)}``), most
specific match winning by longest pattern.

The table-facing ``value`` fields — which derive from the deterministic
device model — are what is gated; the suite records no host time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatchcase

from repro.bench.harness import format_table
from repro.bench.results import SuiteResult

__all__ = [
    "Tolerance",
    "DEFAULT_TOLERANCE",
    "TOLERANCE_OVERRIDES",
    "HIGHER_IS_BETTER_UNITS",
    "LOWER_IS_BETTER_UNITS",
    "MetricComparison",
    "ComparisonReport",
    "compare_suites",
]


@dataclass(frozen=True)
class Tolerance:
    """Relative regression thresholds for one metric (or a pattern)."""

    warn: float = 0.10
    fail: float = 0.25

    def __post_init__(self):
        if self.warn < 0 or self.fail < 0:
            raise ValueError("tolerances must be non-negative")
        if self.warn > self.fail:
            raise ValueError(f"warn ({self.warn}) must not exceed fail ({self.fail})")


#: Applied when no override pattern matches.  The device model is
#: deterministic for a fixed seed, so the band only has to absorb
#: cross-version RNG/library drift — 2x slowdowns land far outside it.
DEFAULT_TOLERANCE = Tolerance(warn=0.10, fail=0.25)

#: Per-metric threshold overrides shipped with the repo: exact counters
#: (triangle counts) must not drift at all.
TOLERANCE_OVERRIDES: dict[str, Tolerance] = {
    "*/triangles": Tolerance(warn=0.0, fail=0.0),
}

#: Units where a *smaller* current value is a regression.
HIGHER_IS_BETTER_UNITS = {"MEdge/s", "MVertex/s", "x"}

#: Units where a *larger* current value is a regression.
LOWER_IS_BETTER_UNITS = {"ms", "s", "MB", "ratio"}


def _direction(unit: str) -> str:
    if unit in HIGHER_IS_BETTER_UNITS:
        return "higher"
    if unit in LOWER_IS_BETTER_UNITS:
        return "lower"
    return "both"


def _tolerance_for(metric: str, overrides: dict) -> Tolerance:
    best: Tolerance | None = None
    best_len = -1
    for pattern, tol in overrides.items():
        if fnmatchcase(metric, pattern) and len(pattern) > best_len:
            best, best_len = tol, len(pattern)
    return best if best is not None else DEFAULT_TOLERANCE


@dataclass
class MetricComparison:
    """One baseline metric's verdict."""

    metric: str
    status: str  # pass | warn | fail | missing | new
    unit: str = ""
    direction: str = "both"
    baseline_value: float | None = None
    current_value: float | None = None
    change: float | None = None  # signed relative change vs baseline
    note: str = ""

    @property
    def change_pct(self) -> str:
        if self.change is None:
            return "—"
        return f"{self.change * 100:+.1f}%"


@dataclass
class ComparisonReport:
    """All metric verdicts plus the overall gate decision."""

    comparisons: list
    missing_fails: bool = True

    def by_status(self, status: str) -> list:
        return [c for c in self.comparisons if c.status == status]

    @property
    def ok(self) -> bool:
        if self.by_status("fail"):
            return False
        if self.missing_fails and self.by_status("missing"):
            return False
        return True

    def summary(self) -> str:
        counts = {
            s: len(self.by_status(s)) for s in ("pass", "warn", "fail", "missing", "new")
        }
        verdict = "OK" if self.ok else "REGRESSION"
        parts = ", ".join(f"{n} {s}" for s, n in counts.items() if n)
        return f"baseline comparison: {verdict} ({parts or 'no metrics'})"

    def format(self, verbose: bool = False) -> str:
        """Human-readable regression report (worst offenders first)."""
        lines = [self.summary()]
        order = {"fail": 0, "missing": 1, "warn": 2, "new": 3, "pass": 4}
        shown = [
            c
            for c in sorted(self.comparisons, key=lambda c: (order[c.status], c.metric))
            if verbose or c.status in ("fail", "missing", "warn")
        ]
        if shown:
            rows = [
                [
                    c.status.upper(),
                    c.metric,
                    c.baseline_value,
                    c.current_value,
                    c.change_pct,
                    c.unit or "—",
                    c.note or "—",
                ]
                for c in shown
            ]
            lines.append(
                format_table(
                    "",
                    ["status", "metric", "baseline", "current", "change", "unit", "note"],
                    rows,
                ).lstrip("\n")
            )
        return "\n".join(line for line in lines if line)


def _classify(baseline: float, current: float, direction: str, tol: Tolerance):
    """Return (status, signed relative change)."""
    if baseline == 0:
        change = 0.0 if current == 0 else float("inf") * (1 if current > 0 else -1)
    else:
        change = (current - baseline) / abs(baseline)
    if direction == "higher":
        regression = max(0.0, -change)
    elif direction == "lower":
        regression = max(0.0, change)
    else:
        regression = abs(change)
    if regression > tol.fail:
        return "fail", change
    if regression > tol.warn:
        return "warn", change
    return "pass", change


def compare_suites(
    baseline: SuiteResult,
    current: SuiteResult,
    tolerances: dict | None = None,
    missing_fails: bool = True,
) -> ComparisonReport:
    """Compare ``current`` against ``baseline``, metric by metric.

    ``tolerances`` maps ``fnmatch`` patterns over metric keys to
    :class:`Tolerance` overrides; it is layered on top of the shipped
    :data:`TOLERANCE_OVERRIDES` (caller patterns win on equal length).
    """
    overrides = dict(TOLERANCE_OVERRIDES)
    overrides.update(tolerances or {})
    base_metrics = baseline.metrics()
    cur_metrics = current.metrics()
    comparisons = []
    for key in sorted(base_metrics):
        base = base_metrics[key]
        direction = _direction(base.unit)
        cur = cur_metrics.get(key)
        if cur is None:
            comparisons.append(
                MetricComparison(
                    metric=key,
                    status="missing",
                    unit=base.unit,
                    direction=direction,
                    baseline_value=base.value,
                    note="metric absent from current run",
                )
            )
            continue
        tol = _tolerance_for(key, overrides)
        status, change = _classify(base.value, cur.value, direction, tol)
        note = ""
        if status != "pass":
            bound = tol.fail if status == "fail" else tol.warn
            note = f"{status} band ±{bound * 100:.0f}% ({direction})"
        comparisons.append(
            MetricComparison(
                metric=key,
                status=status,
                unit=base.unit,
                direction=direction,
                baseline_value=base.value,
                current_value=cur.value,
                change=change,
                note=note,
            )
        )
    for key in sorted(set(cur_metrics) - set(base_metrics)):
        cur = cur_metrics[key]
        comparisons.append(
            MetricComparison(
                metric=key,
                status="new",
                unit=cur.unit,
                direction=_direction(cur.unit),
                current_value=cur.value,
                note="not in baseline",
            )
        )
    return ComparisonReport(comparisons=comparisons, missing_fails=missing_fails)
