"""CLI behavior of ``python -m repro.bench.runner``.

Heavy artifacts are replaced with a stub registered under a test-only id,
so these tests exercise the runner's argument validation, JSON emission,
baseline comparison exit codes, the scorecard's exit code, and baseline
refresh without paying for a real sweep.  One test drives a real (tiny)
artifact end to end.
"""

import json

import pytest

import repro.bench.runner as runner
from repro.bench.results import ArtifactBuilder, SuiteResult, validate_suite


def stub_artifact(scale=1.0):
    """A fake table whose metric values scale with ``scale``."""

    def build(seed=0, quick=False):
        b = ArtifactBuilder("tstub", "Stub table", ["Dataset", "Ours"])
        b.add_row(["demo", 10.0 * scale])
        b.metric(10.0 * scale, "ms", "demo", "ours", dataset="demo", backend="ours")
        b.metric(5.0 / scale, "MEdge/s", "demo", "rate", dataset="demo", backend="ours")
        return b.build()

    return build


@pytest.fixture
def stub(monkeypatch):
    monkeypatch.setitem(runner._ARTIFACTS, "tstub", stub_artifact())


class TestArgumentValidation:
    def test_unknown_id_rejected_up_front(self, capsys):
        # The valid id comes first: nothing may run before validation.
        assert runner.main(["t8", "t99"]) == 2
        captured = capsys.readouterr()
        assert "t99" in captured.err
        assert "valid:" in captured.err
        assert captured.out == ""  # t8 never started

    def test_all_unknown_ids_listed(self, capsys):
        assert runner.main(["t99", "f9"]) == 2
        err = capsys.readouterr().err
        assert "'t99'" in err and "'f9'" in err

    @pytest.mark.parametrize("retired", ["t12", "t13", "t14"])
    def test_retired_repo_grown_ids_are_unknown(self, retired, capsys):
        """The sharded-service, durable-store and chaos artifacts are gone:
        their ids are refused like any other unknown id."""
        assert retired not in runner.ARTIFACT_IDS
        assert runner.main([retired]) == 2
        captured = capsys.readouterr()
        assert repr(retired) in captured.err and captured.out == ""

    def test_known_ids_accepted(self, stub, capsys):
        assert runner.main(["tstub"]) == 0
        assert "Stub table" in capsys.readouterr().out


class TestJsonEmission:
    def test_json_output_is_schema_valid(self, stub, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert runner.main(["tstub", "--quick", "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        validate_suite(doc)
        assert [a["artifact"] for a in doc["artifacts"]] == ["tstub"]
        assert doc["environment"]["quick"] is True
        assert "wrote 2 metrics" in capsys.readouterr().out

    def test_update_baselines_writes_mode_path(self, tmp_path, monkeypatch):
        monkeypatch.setattr(runner, "BASELINE_DIR", tmp_path)
        monkeypatch.setattr(runner, "_ARTIFACTS", {"tstub": stub_artifact()})
        assert runner.main(["--quick", "--update-baselines"]) == 0
        assert runner.main(["tstub", "--update-baselines"]) == 0
        assert (tmp_path / "BENCH_baseline_quick.json").exists()
        assert (tmp_path / "BENCH_baseline_full.json").exists()

    def test_update_baselines_refuses_partial_run(self, stub, tmp_path, monkeypatch, capsys):
        # A subset run must not truncate the committed baseline (that would
        # silently turn off CI gating for every metric it drops).
        monkeypatch.setattr(runner, "BASELINE_DIR", tmp_path)
        assert runner.main(["t8", "--quick", "--update-baselines"]) == 2
        captured = capsys.readouterr()
        assert "refusing --update-baselines" in captured.err
        assert captured.out == ""  # refused before any bench work
        assert not (tmp_path / "BENCH_baseline_quick.json").exists()


class TestCompareExitCodes:
    def write_baseline(self, tmp_path, scale):
        suite = runner.run_suite(["tstub"], quick=True, echo=lambda *_: None)
        path = tmp_path / "baseline.json"
        suite.save(path)
        return path

    def test_compare_passes_against_identical_baseline(self, stub, tmp_path, capsys):
        path = self.write_baseline(tmp_path, 1.0)
        assert runner.main(["tstub", "--quick", "--compare", str(path)]) == 0
        assert "baseline comparison: OK" in capsys.readouterr().out

    def test_compare_fails_on_2x_slowdown(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setitem(runner._ARTIFACTS, "tstub", stub_artifact())
        path = self.write_baseline(tmp_path, 1.0)
        # Injected slowdown: times double, throughput halves.
        monkeypatch.setitem(runner._ARTIFACTS, "tstub", stub_artifact(scale=2.0))
        assert runner.main(["tstub", "--quick", "--compare", str(path)]) == 1
        out = capsys.readouterr().out
        assert "baseline comparison: MISMATCH (2 changed)" in out
        assert "tstub/demo/ours" in out

    def test_compare_fails_on_speedup_too(self, tmp_path, monkeypatch, capsys):
        # The gate is equality: a faster run ships with a refreshed baseline.
        monkeypatch.setitem(runner._ARTIFACTS, "tstub", stub_artifact())
        path = self.write_baseline(tmp_path, 1.0)
        monkeypatch.setitem(runner._ARTIFACTS, "tstub", stub_artifact(scale=0.95))
        run = tmp_path / "run.json"
        assert runner.main(["tstub", "--quick", "--compare", str(path), "--json", str(run)]) == 1
        out = capsys.readouterr().out
        assert "MISMATCH" in out and "tstub/demo/rate" in out
        assert run.exists()  # CI uploads the failed run for diffing

    def test_compare_missing_baseline_is_usage_error(self, stub, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert runner.main(["tstub", "--compare", str(missing)]) == 2
        captured = capsys.readouterr()
        assert "cannot load baseline" in captured.err
        assert captured.out == ""  # rejected before the suite ran

    def test_compare_corrupt_baseline_is_usage_error(self, stub, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "other"}')
        assert runner.main(["tstub", "--compare", str(bad)]) == 2
        captured = capsys.readouterr()
        assert "cannot load baseline" in captured.err
        assert captured.out == ""

    def test_mode_mismatch_warns(self, stub, tmp_path, capsys):
        path = self.write_baseline(tmp_path, 1.0)  # quick baseline
        assert runner.main(["tstub", "--compare", str(path)]) == 0  # full run
        assert "differ in --quick mode" in capsys.readouterr().err


class TestScorecardExitCodes:
    """``main`` evaluates the claims on whatever it ran: 1 on a violation."""

    @staticmethod
    def incremental_artifact(lead):
        """A two-series ``t6`` stub: ours ``lead`` times Hornet's rate."""

        def build(seed=0, quick=False):
            b = ArtifactBuilder("t6", "Stub t6", ["Batch", "Hornet", "Ours"])
            b.add_row(["2^12", 1.0, lead])
            b.metric(1.0, "MEdge/s", "batch=2^12", "hornet")
            b.metric(lead, "MEdge/s", "batch=2^12", "ours")
            return b.build()

        return build

    def test_no_claim_decidable_is_success(self, stub, capsys):
        assert runner.main(["tstub"]) == 0
        out = capsys.readouterr().out
        assert "scorecard: OK" in out and "t6-incremental" in out

    def test_held_claim_is_success(self, monkeypatch, capsys):
        monkeypatch.setitem(runner._ARTIFACTS, "t6", self.incremental_artifact(2.5))
        assert runner.main(["t6"]) == 0
        assert "PASS    t6-incremental" in capsys.readouterr().out

    def test_violated_claim_exits_1(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setitem(runner._ARTIFACTS, "t6", self.incremental_artifact(1.5))
        out_json = tmp_path / "r.json"
        assert runner.main(["t6", "--json", str(out_json)]) == 1
        out = capsys.readouterr().out
        assert "scorecard: VIOLATED" in out and "FAIL    t6-incremental" in out
        assert out_json.exists()  # the run is still persisted for inspection

    def test_violated_claim_fails_even_when_the_baseline_agrees(self, monkeypatch, tmp_path):
        monkeypatch.setitem(runner._ARTIFACTS, "t6", self.incremental_artifact(1.5))
        baseline = tmp_path / "baseline.json"
        runner.run_suite(["t6"], echo=lambda *_: None).save(baseline)
        assert runner.main(["t6", "--compare", str(baseline)]) == 1


class TestRealArtifact:
    def test_quick_t8_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "t8.json"
        assert runner.main(["t8", "--quick", "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        validate_suite(doc)
        suite = SuiteResult.from_dict(doc)
        metrics = suite.metrics()
        # Quick panel: 4 datasets x 2 structures.
        assert len(metrics) == 8
        assert all(m.unit == "ms" for m in metrics.values())
        assert all(m.model_seconds > 0 for m in metrics.values())

    def test_committed_quick_baseline_is_loadable(self):
        path = runner.baseline_path(quick=True)
        assert path.exists(), "committed quick baseline missing"
        suite = SuiteResult.load(path)
        expected = set(runner.ARTIFACT_IDS)
        assert {a.artifact for a in suite.artifacts} == expected
        assert suite.environment["quick"] is True
