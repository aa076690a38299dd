"""Smoke test of the wall-clock benchmark (collected by tier-1, a few seconds).

Runs all five workloads at the ``tiny`` size, traced and untraced, and pins
the things a later change must not move silently: the metric names of
``BENCHMARK.json``, the seed-0 inputs, and the tracer's clean exit.
"""

from __future__ import annotations

import json
import re

import harness
import pytest
import report
import tracer as tracing
from inputs import SIZES, WORKLOADS, inputs_digest, make_inputs

# pytest puts this directory on sys.path (rootdir-relative "prepend" import
# mode), which is how the sibling modules above resolve.
SPEC = report.load_spec()

#: SHA-256 of the seed-0 ``full`` inputs.  A mismatch means the measured load
#: changed: every baseline number is void and must be re-measured.
SEED0_DIGESTS = {
    "ingest-cold": "20f78fdc97b1fac261cfa103deb186d3c2f828dac1d07249d040a7d8129a2181",
    "ingest-skew": "4be159c8b7991b4edd1ff0874e8b08da6920c30908e1b518b6bfcce3c33a0c6a",
    "churn": "d1c736b537614b1b2f3f343d5f5f0e5a243b0ebd367f7efbb3d440b977ba4ad2",
    "phase": "ac429322d0c89bbd1086ee52e2fa2b9ef79d117a244836b3076fa59ac7eaa1bb",
    "service": "5ee93e64134687d10ce8cf46874a65c9da51d6588875da22be71e34ef8f7bc9e",
}


def _names(section):
    return [metric["name"] for metric in SPEC[section]]


def test_benchmark_json_is_well_formed():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["paths"] == ["benchmarks/wallclock"]
    names = _names("end_to_end") + _names("per_layer") + list(WORKLOADS)
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)
    assert "setup_s" in _names("end_to_end")
    assert all(0 < metric["bound"] <= 0.25 for metric in SPEC["end_to_end"])
    assert set(SIZES["full"]) == set(SIZES["tiny"]) == set(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed0_inputs_are_pinned(workload):
    assert inputs_digest(make_inputs(workload, "full", 0)) == SEED0_DIGESTS[workload]
    tiny = [inputs_digest(make_inputs(workload, "tiny", seed)) for seed in (0, 0, 1)]
    assert tiny[0] == tiny[1] != tiny[2]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_is_correct_and_emits_the_named_metrics(workload):
    plain = harness.run_workload(workload, seed=0, seconds=0.05, trace=False, size="tiny")
    assert plain["size"] == "tiny"
    assert plain["correct"] and plain["failed"] == 0, plain["failed_checks"]
    assert list(plain["metrics"]) == _names("end_to_end")
    assert all(metric["value"] > 0 for metric in plain["metrics"].values())

    # The traced run repeats every untraced repetition with the tracer on and
    # fails its own check unless the simulated counts of both agree exactly.
    traced = harness.run_workload(workload, seed=0, seconds=0.05, trace=True, size="tiny")
    assert traced["correct"] and traced["failed"] == 0, traced["failed_checks"]
    assert list(traced["metrics"]) == _names("per_layer")
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: metric["unit"] for name, metric in traced["metrics"].items()
    }
    assert abs(traced["metrics"]["trace.coverage"]["value"] - 1.0) < 0.15
    assert (report.RESULTS / f"trace-{workload}.jsonl").exists()
    assert not list(report.RESULTS.glob("tmp-*"))


def test_tracer_restores_every_binding():
    bindings = [
        (namespace, key)
        for owner, attribute, _, _ in tracing._targets()
        for namespace, key in tracing._bindings(owner, attribute)
    ]
    assert len(bindings) > 80
    before = [vars(namespace)[key] for namespace, key in bindings]
    with tracing.Tracer():
        during = [vars(namespace)[key] for namespace, key in bindings]
        assert all(now is not was for now, was in zip(during, before))
    after = [vars(namespace)[key] for namespace, key in bindings]
    assert all(now is was for now, was in zip(after, before))


def _results_file(path, size="full", seed=0, scale=1.0):
    metrics = {
        m["name"]: {"value": 10.0 * (scale if m["name"] == "loop_s" else 1.0), "unit": m["unit"]}
        for m in SPEC["end_to_end"]
    }
    doc = {
        "fingerprint": {"kernel_tier": "reference", "seed": seed},
        "size": size,
        "workloads": {"churn": {"params": SIZES[size]["churn"], "metrics": metrics}},
    }
    path.write_text(json.dumps(doc))
    return path


def test_compare_gates_on_bounds_and_refuses_unlike_runs(tmp_path, capsys):
    base = _results_file(tmp_path / "a.json")
    assert report.compare(base, _results_file(tmp_path / "b.json", scale=1.05), SPEC) == 0
    assert report.compare(base, _results_file(tmp_path / "c.json", scale=1.5), SPEC) == 1
    assert "REGRESSION" in capsys.readouterr().out
    assert report.compare(base, _results_file(tmp_path / "d.json", seed=1), SPEC) == 2
    tiny = _results_file(tmp_path / "e.json", size="tiny")
    assert report.compare(tiny, tiny, SPEC) == 2
    assert "smoke-test size" in capsys.readouterr().out
