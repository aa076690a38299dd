"""Equality-gate tests for repro.bench.compare.

The class names ``TestBands`` / ``TestOverrides`` predate the equality gate
(they once exercised tolerance bands and per-metric overrides); the cases
kept under them pin what those inputs mean now: any move is ``changed``.
"""

import copy
import inspect

import pytest

from repro.bench.compare import REL_TOL, compare_suites
from repro.bench.harness import BenchRecord
from repro.bench.results import ArtifactBuilder, SuiteResult
from repro.bench.runner import baseline_path


def suite(metrics: dict, counters: dict | None = None) -> SuiteResult:
    """Build a suite from {tail key: (value, unit)} under artifact 'tX'.

    ``counters`` (if given) backs every metric with one measured record, so
    ``model_seconds`` / ``items`` / ``counters`` are populated too.
    """
    b = ArtifactBuilder("tX", "demo", ["k", "v"])
    record = BenchRecord("call", items=4, counters=counters) if counters else None
    for tail, (value, unit) in metrics.items():
        b.add_row([tail, value])
        b.metric(value, unit, tail, record=record)
    return SuiteResult(environment={"seed": 0, "quick": True}, artifacts=[b.build()])


def one(report, key="tX/m"):
    matches = [c for c in report.comparisons if c.metric == key]
    assert len(matches) == 1
    return matches[0]


class TestEquality:
    def test_identical_suites_are_ok(self):
        counters = {"slab_reads": 7, "probe_rounds": 2}
        r = compare_suites(
            suite({"m": (100.0, "ms"), "n": (3.0, "x")}, counters),
            suite({"m": (100.0, "ms"), "n": (3.0, "x")}, counters),
        )
        assert r.ok and len(r.by_status("same")) == 2
        assert r.summary() == "baseline comparison: OK (2 same)"

    @pytest.mark.parametrize("factor", [1.05, 0.95])
    @pytest.mark.parametrize("unit", ["ms", "MEdge/s"])
    def test_five_percent_either_way_is_changed(self, factor, unit):
        r = compare_suites(suite({"m": (100.0, unit)}), suite({"m": (100.0 * factor, unit)}))
        assert one(r).status == "changed" and not r.ok
        assert "tX/m" in r.format() and "value" in r.format()

    def test_counter_off_by_one_is_changed(self):
        base = suite({"m": (100.0, "ms")}, {"slab_reads": 7, "probe_rounds": 2})
        cur = suite({"m": (100.0, "ms")}, {"slab_reads": 7, "probe_rounds": 3})
        r = compare_suites(base, cur)
        assert one(r).status == "changed" and not r.ok
        # The value did not move; the report names what did.
        assert "probe_rounds 2 → 3" in one(r).note
        assert "model_seconds" in one(r).note and "value" not in one(r).note

    def test_counter_appearing_is_changed(self):
        base = suite({"m": (1.0, "ms")}, {"slab_reads": 7})
        cur = suite({"m": (1.0, "ms")}, {"slab_reads": 7, "atomics": 1})
        assert "atomics 0 → 1" in one(compare_suites(base, cur)).note

    def test_items_and_unit_compare_exactly(self):
        base = suite({"m": (1.0, "ms")}, {"slab_reads": 7})
        cur = copy.deepcopy(base)
        cur.artifacts[0].results[0].items += 1
        cur.artifacts[0].results[0].unit = "s"
        note = one(compare_suites(base, cur)).note
        assert "items 4 → 5" in note and "unit 'ms' → 's'" in note

    def test_measurement_appearing_or_vanishing_is_changed(self):
        bare, backed = suite({"m": (1.0, "ms")}), suite({"m": (1.0, "ms")}, {"slab_reads": 7})
        assert one(compare_suites(bare, backed)).status == "changed"
        assert one(compare_suites(backed, bare)).status == "changed"

    def test_last_digit_float_wobble_is_same(self):
        r = compare_suites(suite({"m": (100.0, "ms")}), suite({"m": (100.0 * (1 + 1e-12), "ms")}))
        assert one(r).status == "same" and r.ok

    def test_rel_tol_is_the_boundary(self):
        assert REL_TOL == 1e-9
        r = compare_suites(suite({"m": (100.0, "ms")}), suite({"m": (100.0 * (1 + 1e-8), "ms")}))
        assert one(r).status == "changed"

    def test_signature_has_no_knobs(self):
        assert list(inspect.signature(compare_suites).parameters) == ["baseline", "current"]


class TestBands:
    def test_throughput_drop_past_fail_fails(self):
        r = compare_suites(suite({"m": (100.0, "MEdge/s")}), suite({"m": (70.0, "MEdge/s")}))
        assert one(r).status == "changed" and not r.ok

    def test_time_increase_fails(self):
        r = compare_suites(suite({"m": (10.0, "ms")}), suite({"m": (20.0, "ms")}))
        assert one(r).status == "changed"
        assert one(r).note == "value 10.0 → 20.0"

    def test_directionless_unit_fails_both_ways(self):
        up = compare_suites(suite({"m": (1.0, "util")}), suite({"m": (2.0, "util")}))
        down = compare_suites(suite({"m": (1.0, "util")}), suite({"m": (0.5, "util")}))
        assert one(up).status == "changed"
        assert one(down).status == "changed"

    def test_zero_baseline_zero_current_passes(self):
        r = compare_suites(suite({"m": (0.0, "ms")}), suite({"m": (0.0, "ms")}))
        assert one(r).status == "same"

    def test_zero_baseline_nonzero_current_fails(self):
        r = compare_suites(suite({"m": (0.0, "ms")}), suite({"m": (0.1, "ms")}))
        assert one(r).status == "changed"


class TestMissingAndNew:
    def test_missing_metric_fails_by_default(self):
        r = compare_suites(suite({"m": (1.0, "ms"), "n": (1.0, "ms")}), suite({"m": (1.0, "ms")}))
        assert one(r, "tX/n").status == "missing"
        assert not r.ok
        assert "MISSING" in r.format() and "tX/n" in r.format()

    def test_new_metric_is_informational(self):
        r = compare_suites(suite({"m": (1.0, "ms")}), suite({"m": (1.0, "ms"), "n": (9.0, "ms")}))
        assert one(r, "tX/n").status == "new"
        assert r.ok
        assert "tX/n" not in r.format()


class TestOverrides:
    def test_triangle_counts_must_match_exactly(self):
        # No override needed any more: every metric must match.
        r = compare_suites(
            suite({"d/triangles": (100.0, "count")}),
            suite({"d/triangles": (101.0, "count")}),
        )
        assert one(r, "tX/d/triangles").status == "changed"


class TestReport:
    def test_summary_counts(self):
        r = compare_suites(
            suite({"a": (100.0, "ms"), "b": (10.0, "ms")}),
            suite({"a": (200.0, "ms"), "b": (10.0, "ms")}),
        )
        assert r.summary() == "baseline comparison: MISMATCH (1 same, 1 changed)"

    def test_format_lists_offenders_worst_first(self):
        r = compare_suites(
            suite({"a": (100.0, "ms"), "b": (10.0, "ms")}),
            suite({"b": (11.2, "ms")}),
        )
        text = r.format()
        assert text.index("CHANGED") < text.index("MISSING")
        assert "tX/b" in text and "value 10.0 → 11.2" in text

    def test_format_verbose_includes_passes(self):
        r = compare_suites(suite({"a": (1.0, "ms")}), suite({"a": (1.0, "ms")}))
        assert "tX/a" not in r.format()
        assert "tX/a" in r.format(verbose=True)

    def test_empty_suites(self):
        r = compare_suites(suite({}), suite({}))
        assert r.ok and r.format() == "baseline comparison: OK (no metrics)"


class TestCommittedBaseline:
    """The gate on the real quick baseline (loaded, never run here)."""

    @pytest.fixture(scope="class")
    def baseline(self):
        return SuiteResult.load(baseline_path(quick=True))

    def test_baseline_equals_itself(self, baseline):
        r = compare_suites(baseline, copy.deepcopy(baseline))
        assert r.ok and len(r.by_status("same")) == len(baseline.metrics())

    def test_every_ms_metric_nine_percent_slower_fails(self, baseline):
        # Inside the old ±10 % warn band everywhere: the parent printed OK.
        cur = copy.deepcopy(baseline)
        scaled = [res for res in cur.metrics().values() if res.unit == "ms"]
        for res in scaled:
            res.value *= 1.09
        r = compare_suites(baseline, cur)
        assert scaled and not r.ok
        assert len(r.by_status("changed")) == sum(res.value != 0 for res in scaled)

    @pytest.mark.parametrize("factor", [1.05, 0.95])
    def test_single_value_moved_is_named(self, baseline, factor):
        cur = copy.deepcopy(baseline)
        victim = next(res for res in cur.metrics().values() if res.value)
        victim.value *= factor
        r = compare_suites(baseline, cur)
        assert not r.ok and [c.metric for c in r.by_status("changed")] == [victim.metric]
        assert victim.metric in r.format()

    def test_single_counter_off_by_one_is_named(self, baseline):
        cur = copy.deepcopy(baseline)
        victim = next(res for res in cur.metrics().values() if res.counters)
        name = next(iter(victim.counters))
        victim.counters[name] += 1
        r = compare_suites(baseline, cur)
        assert not r.ok and [c.metric for c in r.by_status("changed")] == [victim.metric]
        assert name in r.format()
