"""Smoke tests: every example script runs, and the bench runner works.

Examples are the public face of the library; a refactor that breaks one
should fail CI, not a user.  The slower examples run with reduced work via
monkeypatched dataset sizes where needed; the quick ones run as-is.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name):
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")


def test_quickstart_runs(capsys):
    run_example("quickstart.py")
    out = capsys.readouterr().out
    assert "inserted 4 unique edges" in out
    assert "exported snapshot" in out


def test_checkpointing_example_runs(capsys):
    run_example("checkpointing_and_backends.py")
    out = capsys.readouterr().out
    assert "restored checkpoint reproduces SSSP exactly" in out
    assert "range query" in out


def test_streaming_incremental_example_runs(capsys):
    run_example("streaming_incremental_analytics.py")
    out = capsys.readouterr().out
    assert "incremental analytics verified exact after every phase" in out
    assert "speedup" in out


def test_incremental_family_example_runs(capsys):
    run_example("incremental_analytics_family.py")
    out = capsys.readouterr().out
    assert "all six incremental analytics verified exact after every phase" in out
    assert "family speedup" in out
    # The deletion window forces CC/BFS/SSSP/k-core cold; inserts fold incrementally.
    assert "(cold)" in out
    assert "(incremental)" in out


def test_sharded_service_example_runs(capsys):
    run_example("sharded_service.py")
    out = capsys.readouterr().out
    assert "sharded service verified exact against a single graph" in out


def test_durable_service_example_runs(capsys):
    run_example("durable_service.py")
    out = capsys.readouterr().out
    assert "recovered graph is bit-identical to the lost instance" in out
    assert "torn record discarded" in out
    assert "replica tailed" in out


@pytest.mark.chaos
def test_chaos_failover_example_runs(capsys):
    run_example("chaos_failover.py")
    out = capsys.readouterr().out
    assert "transient faults absorbed: 2" in out
    assert "typed query failure: shard=1 op=degree" in out
    assert "degraded read" in out
    assert "recovered service verified bit-identical to a never-faulted run" in out
    assert "strict mode: PartialDispatchError" in out


@pytest.mark.slow
def test_streaming_example_runs(capsys):
    run_example("streaming_social_network.py")
    out = capsys.readouterr().out
    assert "cumulative speedup" in out


@pytest.mark.slow
def test_road_example_runs(capsys):
    run_example("road_network_maintenance.py")
    out = capsys.readouterr().out
    assert "after tombstone flush: 0 tombstones remain" in out


@pytest.mark.slow
def test_load_factor_example_runs(capsys):
    run_example("load_factor_tuning.py")
    out = capsys.readouterr().out
    assert "best query performance" in out


class TestRunner:
    def test_single_artifact(self, capsys):
        from repro.bench.runner import main

        assert main(["t8"]) == 0
        out = capsys.readouterr().out
        assert "Table VIII" in out
        assert "luxembourg_osm" in out

    def test_quick_figure(self, capsys):
        from repro.bench.runner import main

        # The whole quick sweep (~0.3 s): the Figure 2 claims are checked on
        # it, so a truncated sweep would rightly exit 1.
        assert main(["f2", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out and "PASS    f2-chain-span" in out

    def test_unknown_artifact(self, capsys):
        from repro.bench.runner import main

        assert main(["t99"]) == 2
