"""The option surface is pinned: a new option names its second caller.

Every parameter of the constructors, runners and analytics below is one more
configuration the tests and benchmarks must cover, so each signature
equals a committed list of names — adding (or renaming) a parameter
fails here and has to say, in review, which two callers outside
``tests/`` need different values.  The same goes for the two ambient
inputs ``src/`` no longer has: no module reads an environment variable,
and only the bench runner's progress echo reads a host clock.
"""

import ast
import inspect
from pathlib import Path

import pytest

from repro.analytics import bfs, kcore, kcore_membership, pagerank, power_iteration, sssp
from repro.api.facade import Graph, normalize_batch
from repro.api.sharding import ShardedGraph
from repro.core.graph import DynamicGraph
from repro.persist import WalWriter, open_graph
from repro.stream import (
    IncrementalBFS,
    IncrementalConnectedComponents,
    IncrementalKCore,
    IncrementalPageRank,
    IncrementalSSSP,
    IncrementalTriangleCount,
    Phase,
    run_scenario,
)

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

_STORE = "fsync segment_bytes"

SIGNATURES = {
    Graph.__init__: "self backend event_retention",
    Graph.create: "name num_vertices weighted event_retention backend_kwargs",
    normalize_batch: "src dst weights num_vertices weighted fill_default_weight backend_name",
    ShardedGraph.__init__: "self shards event_retention shard_factory",
    ShardedGraph.create: "name num_vertices num_shards weighted event_retention backend_kwargs",
    ShardedGraph.attach_durability: f"self directory {_STORE} opener",
    ShardedGraph.rebuild_shard: "self shard_index",
    open_graph: f"directory backend num_vertices weighted backend_kwargs {_STORE} read_only",
    WalWriter.__init__: "self directory start_seq fsync segment_bytes opener",
    run_scenario: (
        "scenario backend_name mode damping tol max_iters validate analytics source kcore_k"
    ),
    Phase: "kind size batches",
    DynamicGraph.__init__: (
        "self num_vertices weighted directed load_factor hash_seed reuse_vertex_ids"
    ),
    # The analytics: a class stands for its constructor.
    IncrementalConnectedComponents: "graph",
    IncrementalPageRank: "graph damping tol max_iters",
    IncrementalTriangleCount: "graph",
    IncrementalBFS: "graph source",
    IncrementalSSSP: "graph source",
    IncrementalKCore: "graph k",
    pagerank: "graph damping tol max_iters",
    power_iteration: "snap rank damping tol max_iters",
    bfs: "graph source max_depth",
    sssp: "graph source max_rounds",
    kcore_membership: "graph k",
    kcore: "graph k max_rounds",
}


@pytest.mark.parametrize("func", SIGNATURES, ids=lambda func: func.__qualname__)
def test_signature_equals_the_committed_names(func):
    assert list(inspect.signature(func).parameters) == SIGNATURES[func].split()


def _modules():
    return sorted(SRC.rglob("*.py"))


def test_src_reads_no_environment_variable():
    readers = [
        str(path.relative_to(SRC))
        for path in _modules()
        if any(word in path.read_text() for word in ("os.environ", "getenv"))
    ]
    assert readers == []


def test_only_the_bench_runner_reads_a_host_clock():
    importers = []
    for path in _modules():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported = [node.module]
            else:
                continue
            if "time" in imported:
                importers.append(str(path.relative_to(SRC)))
    assert importers == ["bench/runner.py"]
