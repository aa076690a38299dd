"""Timing utilities and result records for the bench harness.

Each measurement captures two times:

- **wall-clock seconds** of the vectorized Python kernels (kept on the
  in-memory record only — no results file persists host time), and
- **modeled device seconds** from the calibrated cost model
  (:mod:`repro.gpusim.model`), computed from the kernel-counter delta.

The paper-shaped tables report the modeled time: Python wall-clock inverts
the sort-vs-probe cost ratio the paper measures (NumPy's compiled sort is
disproportionately cheap against interpreted probe rounds), while the
counter-based model prices the same algorithmic work a TITAN V would
execute.  Timings follow the paper's methodology: setup, batch generation
and validation happen outside the timed/counted region.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

from repro.gpusim.counters import get_counters
from repro.gpusim.model import simulated_seconds

__all__ = ["BenchRecord", "time_call", "format_table", "mean"]


@dataclass
class BenchRecord:
    """One timed operation (wall-clock + modeled device time)."""

    label: str
    seconds: float
    items: int = 0
    counters: dict = field(default_factory=dict)

    @property
    def model_seconds(self) -> float:
        """Modeled device time for the counted work."""
        return simulated_seconds(self.counters)

    @property
    def model_millis(self) -> float:
        return self.model_seconds * 1e3

    @property
    def throughput_m(self) -> float:
        """Million items per modeled device second (MEdge/s, MVertex/s)."""
        sec = self.model_seconds
        if sec <= 0:
            return float("inf")
        return self.items / sec / 1e6

    @property
    def wall_throughput_m(self) -> float:
        """Million items per wall-clock second."""
        if self.seconds <= 0:
            return float("inf")
        return self.items / self.seconds / 1e6

    @property
    def millis(self) -> float:
        """Wall-clock milliseconds."""
        return self.seconds * 1e3


def time_call(
    label: str, fn: Callable, *args, items: int = 0, **kwargs
) -> tuple[BenchRecord, object]:
    """Time one call; returns (record, fn's return value)."""
    before = get_counters().snapshot()
    t0 = perf_counter()
    result = fn(*args, **kwargs)
    seconds = perf_counter() - t0
    delta = get_counters().diff(before)
    return BenchRecord(label, seconds, items=items, counters=delta), result


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def format_table(title: str, headers: list[str], rows: list[list]) -> str:
    """Render a paper-style fixed-width text table."""
    str_rows = [[_fmt(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in str_rows)) if str_rows else len(h)
        for i, h in enumerate(headers)
    ]
    lines = [title]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for r in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)


def _fmt(cell) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 100:
            return f"{cell:,.0f}"
        if abs(cell) >= 1:
            return f"{cell:.2f}"
        return f"{cell:.4f}"
    if cell is None:
        return "—"
    return str(cell)
