"""Measurement utilities and result records for the bench harness.

Each measurement captures the kernel-counter delta of one call and prices
it as **modeled device seconds** with the calibrated cost model
(:mod:`repro.gpusim.model`).  No host time is taken: Python wall-clock inverts
the sort-vs-probe cost ratio the paper measures (NumPy's compiled sort is
disproportionately cheap against interpreted probe rounds), while the
counter-based model prices the same algorithmic work a TITAN V would
execute.  Measurements follow the paper's methodology: setup, batch
generation and validation happen outside the counted region.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.gpusim.counters import get_counters
from repro.gpusim.model import simulated_seconds

__all__ = ["BenchRecord", "time_call", "format_table", "mean"]


@dataclass
class BenchRecord:
    """One measured operation: its counter delta, priced by the device model."""

    label: str
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


def time_call(
    label: str, fn: Callable, *args, items: int = 0, **kwargs
) -> tuple[BenchRecord, object]:
    """Count one call's kernel work; returns (record, fn's return value)."""
    before = get_counters().snapshot()
    result = fn(*args, **kwargs)
    delta = get_counters().diff(before)
    return BenchRecord(label, items=items, counters=delta), result


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
