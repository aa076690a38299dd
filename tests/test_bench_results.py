"""Schema round-trip and validation tests for repro.bench.results."""

import json

import numpy as np
import pytest

from repro.bench.harness import BenchRecord
from repro.bench.results import (
    SCHEMA_VERSION,
    SUITE_KIND,
    ArtifactBuilder,
    ArtifactResult,
    BenchResult,
    SchemaError,
    SuiteResult,
    environment_fingerprint,
    metric_key,
    validate_suite,
)
from repro.util.errors import ValidationError


def make_suite() -> SuiteResult:
    """A small synthetic suite exercising every field."""
    b = ArtifactBuilder("t5", "Table V — demo", ["Dataset", "Hornet", "Ours"])
    b.add_row(["road", np.float64(1.5), 0.5])
    b.metric(
        np.float64(1.5),
        "ms",
        "road",
        "hornet",
        dataset="road",
        backend="hornet",
        record=BenchRecord("x", items=100, counters={"slab_reads": np.int64(7)}),
    )
    b.metric(0.5, "ms", "road", "ours", dataset="road", backend="ours")
    art = b.build()
    return SuiteResult(environment=environment_fingerprint(seed=3, quick=True), artifacts=[art])


class TestRoundTrip:
    def test_json_round_trip_is_lossless(self):
        suite = make_suite()
        restored = SuiteResult.from_json(suite.to_json())
        assert restored.to_dict() == suite.to_dict()
        assert restored.schema_version == SCHEMA_VERSION
        assert restored.environment["seed"] == 3
        assert restored.environment["quick"] is True

    def test_save_load(self, tmp_path):
        suite = make_suite()
        path = tmp_path / "out.json"
        suite.save(path)
        assert SuiteResult.load(path).to_dict() == suite.to_dict()

    def test_numpy_scalars_become_plain_json(self):
        text = make_suite().to_json()
        doc = json.loads(text)  # would raise if np types leaked into dumps
        cell = doc["artifacts"][0]["rows"][0][1]
        assert type(cell) is float
        counters = doc["artifacts"][0]["results"][0]["counters"]
        assert type(counters["slab_reads"]) is int

    def test_metrics_view_is_keyed_and_complete(self):
        metrics = make_suite().metrics()
        assert set(metrics) == {"t5/road/hornet", "t5/road/ours"}
        assert metrics["t5/road/hornet"].unit == "ms"
        assert metrics["t5/road/hornet"].backend == "hornet"

    def test_from_dict_ignores_unknown_keys(self):
        # Forward compatibility: older code reads newer same-major files.
        doc = BenchResult("a/b", 1.0, "ms", "a").to_dict()
        doc["added_in_the_future"] = 42
        assert BenchResult.from_dict(doc).value == 1.0

    def test_environment_fingerprint_fields(self):
        env = environment_fingerprint(seed=7, quick=False)
        for key in ("git_sha", "python", "numpy", "platform", "seed", "quick"):
            assert key in env
        assert env["numpy"] == np.__version__
        assert env["seed"] == 7


class TestBuilder:
    def test_metric_key_join(self):
        assert metric_key("t2", "batch=2^10", "ours") == "t2/batch=2^10/ours"

    def test_aggregate_records_sum_measurements(self):
        b = ArtifactBuilder("t2", "T", ["h"])
        recs = [
            BenchRecord("a", items=10, counters={"probe_rounds": 2}),
            BenchRecord("b", items=30, counters={"probe_rounds": 3, "atomics": 1}),
        ]
        res = b.metric(4.2, "MEdge/s", "batch=2^10", "ours", records=recs)
        assert res.model_seconds == pytest.approx(sum(r.model_seconds for r in recs))
        assert res.items == 40
        assert res.counters == {"probe_rounds": 5, "atomics": 1}

    def test_single_record_measurement(self):
        b = ArtifactBuilder("t5", "T", ["h"])
        res = b.metric(1.0, "ms", "d", "ours", record=BenchRecord("x", items=5))
        assert res.items == 5

    def test_a_repeated_key_is_refused_at_the_second_call(self):
        # Kept, the suite would collapse both into one metric and save a
        # baseline that validate_suite then refuses to load.
        b = ArtifactBuilder("t5", "T", ["h"])
        b.metric(1.0, "ms", "d", "ours")
        with pytest.raises(ValidationError, match="duplicate metric key 't5/d/ours'"):
            b.metric(2.0, "ms", "d", "ours")
        b.metric(2.0, "ms", "d", "hornet")
        art = b.build()
        assert [r.metric for r in art.results] == ["t5/d/ours", "t5/d/hornet"]
        suite = SuiteResult(environment={}, artifacts=[art])
        assert SuiteResult.from_json(suite.to_json()).metrics().keys() == {
            "t5/d/ours",
            "t5/d/hornet",
        }


class TestValidation:
    def test_accepts_own_output(self):
        validate_suite(make_suite().to_dict())

    def test_rejects_non_object(self):
        with pytest.raises(SchemaError, match="object"):
            validate_suite([1, 2])

    def test_rejects_wrong_kind(self):
        doc = make_suite().to_dict()
        doc["kind"] = "something-else"
        with pytest.raises(SchemaError, match="kind"):
            validate_suite(doc)

    def test_rejects_newer_schema(self):
        doc = make_suite().to_dict()
        doc["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(SchemaError, match="newer"):
            validate_suite(doc)

    def test_rejects_missing_artifact_keys(self):
        doc = make_suite().to_dict()
        del doc["artifacts"][0]["headers"]
        with pytest.raises(SchemaError, match="headers"):
            validate_suite(doc)

    def test_rejects_duplicate_metric_keys(self):
        doc = make_suite().to_dict()
        doc["artifacts"][0]["results"][1]["metric"] = "t5/road/hornet"
        with pytest.raises(SchemaError, match="duplicate"):
            validate_suite(doc)

    def test_rejects_non_numeric_value(self):
        doc = make_suite().to_dict()
        doc["artifacts"][0]["results"][0]["value"] = "fast"
        with pytest.raises(SchemaError, match="number"):
            validate_suite(doc)

    def test_from_json_rejects_garbage(self):
        with pytest.raises(SchemaError, match="JSON"):
            SuiteResult.from_json("{not json")

    def test_kind_discriminator_present(self):
        assert make_suite().to_dict()["kind"] == SUITE_KIND

    def test_artifact_round_trip_defaults(self):
        art = ArtifactResult("x", "T", ["h"], [[1]], [])
        assert ArtifactResult.from_dict(art.to_dict()) == art

    def test_no_host_time_is_persisted_and_legacy_fields_still_load(self):
        # A results file is a pure function of code, seed and NumPy version:
        # no record carries a wall clock, so none reaches the JSON ...
        doc = make_suite().to_dict()
        text = json.dumps(doc["artifacts"])
        assert "wall" not in text and "elapsed" not in text
        # ... and files written when it did (elapsed_seconds per artifact,
        # wall_seconds per metric) still load, the extra fields ignored.
        doc["artifacts"][0]["elapsed_seconds"] = 0.25
        doc["artifacts"][0]["results"][0]["wall_seconds"] = 0.01
        restored = SuiteResult.from_dict(doc).to_dict()
        assert restored["artifacts"] == make_suite().to_dict()["artifacts"]
