"""The five workloads: set-up, timed closed loop, and oracle checks.

One client, one thread: every call waits for the previous one (the paper's
phase-concurrent caller).  Each workload class has three methods (and a
``teardown`` for what its set-up opened) —

- ``setup(inputs, ctx)``: build fresh state (timed by the harness as
  ``setup_s``);
- ``loop(state, inputs, rec)``: the timed script, every call into the
  program going through ``rec.timed`` and grouped into *phases* (one round
  of the closed loop: a batch submitted → every answer the round asks for);
- ``verify(state, inputs, rec)``: oracle checks, outside every timed
  region, against NumPy composite-key arithmetic that shares no code with
  the program.
"""

from __future__ import annotations

import shutil
import time
from collections import defaultdict

import numpy as np
from inputs import pack, unpack

from repro.analytics import (
    bfs,
    connected_components,
    kcore_membership,
    pagerank,
    undirected_triangles,
)
from repro.api import CSRSnapshot, Graph, ShardedGraph
from repro.coo import COO
from repro.persist import open_graph
from repro.stream.incremental import (
    IncrementalBFS,
    IncrementalConnectedComponents,
    IncrementalKCore,
    IncrementalPageRank,
    IncrementalTriangleCount,
)

BACKEND = "slabhash"
SAMPLED_ROWS = 4096


class Recorder:
    """Timing samples, row counts and check results of one repetition."""

    def __init__(self, tracer=None) -> None:
        self.samples = defaultdict(list)  # kind -> seconds per timed call
        self.rows = defaultdict(int)  # kind -> rows submitted
        self.extras = {}  # workload-specific per-repetition statistics
        self.checks = []  # (name, ok) oracle results
        self.calls = []  # seconds of every timed call, in script order
        self.tracer = tracer
        self._phase_seconds = 0.0
        self._phases = 0

    def timed(self, kind: str, fn, *args, rows: int = 0):
        """Run one call into the program, timing it under ``kind``."""
        tracer = self.tracer
        if tracer is not None:
            tracer.enabled = True
        start = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.enabled = False
        self.samples[kind].append(elapsed)
        self.calls.append(elapsed)
        self.rows[kind] += rows
        self._phase_seconds += elapsed
        return result

    def end_phase(self, kind: str = "phase") -> None:
        """Close one round of the loop: its wall is the sum of its calls."""
        self.samples[kind].append(self._phase_seconds)
        self._phase_seconds = 0.0
        self._phases += 1
        if self.tracer is not None:
            self.tracer.op_id = self._phases

    @property
    def phases(self) -> int:
        return self._phases

    @property
    def call_seconds(self) -> float:
        """Summed wall of every timed call: the script's makespan."""
        return float(sum(self.calls))

    def check(self, name: str, ok) -> None:
        self.checks.append((name, bool(ok)))


# -- the oracle -------------------------------------------------------------------


def _last_per_key(events):
    """``(keys, time)`` of the last event per composite key."""
    if not events:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    keys = np.concatenate([k for _, k in events])
    times = np.concatenate([np.full(k.shape[0], t, dtype=np.int64) for t, k in events])
    order = np.lexsort((times, keys))
    keys, times = keys[order], times[order]
    last = np.append(keys[1:] != keys[:-1], True)
    return keys[last], times[last]


def oracle_final_keys(num_vertices, inserts, deletes=(), vertex_deletes=()):
    """Sorted composite keys alive after a timestamped operation history.

    An edge is alive iff its last insert is later than its last delete and
    than the last deletion of either endpoint.
    """
    ins_keys, ins_time = _last_per_key(list(inserts))
    del_keys, del_time = _last_per_key(list(deletes))
    killed = np.full(ins_keys.shape[0], -1, dtype=np.int64)
    if del_keys.size:
        pos = np.minimum(np.searchsorted(del_keys, ins_keys), del_keys.shape[0] - 1)
        hit = del_keys[pos] == ins_keys
        killed[hit] = del_time[pos[hit]]
    vertex_time = np.full(num_vertices, -1, dtype=np.int64)
    for t, vids in vertex_deletes:
        vertex_time[vids] = t
    src, dst = unpack(ins_keys)
    killed = np.maximum(killed, np.maximum(vertex_time[src], vertex_time[dst]))
    return ins_keys[ins_time > killed]


def _snapshots_equal(a: CSRSnapshot, b: CSRSnapshot) -> bool:
    return (
        a.num_vertices == b.num_vertices
        and np.array_equal(a.row_ptr, b.row_ptr)
        and np.array_equal(a.col_idx, b.col_idx)
        and (a.weights is None) == (b.weights is None)
        and (a.weights is None or np.array_equal(a.weights, b.weights))
    )


def check_against_oracle(graph, expected_keys, num_vertices, rec, rng_seed=0) -> None:
    """Final edge set, sampled point queries and snapshot vs the oracle."""
    coo = graph.export_coo()
    rec.check("final_edge_set", np.array_equal(np.sort(pack(coo.src, coo.dst)), expected_keys))
    rng = np.random.default_rng(rng_seed)
    take = min(SAMPLED_ROWS // 2, expected_keys.shape[0])
    present = rng.choice(expected_keys, size=take, replace=False)
    absent = pack(
        rng.integers(0, num_vertices, size=SAMPLED_ROWS // 2),
        rng.integers(0, num_vertices, size=SAMPLED_ROWS // 2),
    )
    probe = np.concatenate([present, absent])
    pos = np.minimum(np.searchsorted(expected_keys, probe), max(expected_keys.shape[0] - 1, 0))
    expected = expected_keys[pos] == probe if expected_keys.size else np.zeros(probe.shape, bool)
    src, dst = unpack(probe)
    rec.check("sampled_edge_exists", np.array_equal(graph.edge_exists(src, dst), expected))
    vids = rng.integers(0, num_vertices, size=SAMPLED_ROWS)
    degrees = np.bincount(unpack(expected_keys)[0], minlength=num_vertices)
    rec.check("sampled_degree", np.array_equal(graph.degree(vids), degrees[vids]))
    cold = CSRSnapshot.from_coo(graph.export_coo())
    rec.check("snapshot_bit_identical", _snapshots_equal(graph.snapshot(), cold))


# -- ingest (cold and skewed share the script; only the inputs differ) -----------------


class Workload:
    """``setup`` / ``loop`` / ``verify`` of one workload; ``teardown``
    releases what ``setup`` opened."""

    def teardown(self, state) -> None:
        pass


class Ingest(Workload):
    """Empty graph, then nothing but ``insert_edges`` batches."""

    def setup(self, inputs, ctx):
        return {"graph": Graph.create(BACKEND, inputs["num_vertices"])}

    def loop(self, state, inputs, rec) -> None:
        insert = state["graph"].insert_edges
        rows = inputs["src"].shape[1]
        for src, dst in zip(inputs["src"], inputs["dst"]):
            rec.timed("update", insert, src, dst, rows=rows)
            rec.end_phase()

    def verify(self, state, inputs, rec) -> None:
        expected = np.unique(pack(inputs["src"].ravel(), inputs["dst"].ravel()))
        check_against_oracle(state["graph"], expected, inputs["num_vertices"], rec)


# -- churn ------------------------------------------------------------------------------


class Churn(Workload):
    """Steady state on a bulk-built graph: writes beside reads, deletes,
    vertex deletion and maintenance stalls on one arena."""

    def setup(self, inputs, ctx):
        graph = Graph.create(BACKEND, inputs["num_vertices"])
        graph.bulk_build(COO(inputs["base_src"], inputs["base_dst"], inputs["num_vertices"]))
        return {"graph": graph, "present_answers": []}

    def loop(self, state, inputs, rec) -> None:
        graph = state["graph"]
        answers = state["present_answers"]

        def queries(step):
            found = graph.edge_exists(step["q_src"], step["q_dst"])
            graph.degree(step["deg_v"])
            graph.adjacencies(step["adj_v"])
            return found

        for step in inputs["rounds"]:
            rows = step["ins_src"].shape[0]
            rec.timed("update", graph.insert_edges, step["ins_src"], step["ins_dst"], rows=rows)
            query_rows = step["q_src"].shape[0] + step["deg_v"].shape[0]
            found = rec.timed("query", queries, step, rows=query_rows)
            answers.append(found[: step["q_known_present"]])
            rows = step["del_src"].shape[0]
            rec.timed("update", graph.delete_edges, step["del_src"], step["del_dst"], rows=rows)
            if step["vdel"] is not None:
                rec.timed("vertex_delete", graph.delete_vertices, step["vdel"])
            if step["maintain"]:
                rec.timed("maintenance", graph.flush_tombstones)
                rec.timed("maintenance", graph.rehash)
            rec.end_phase()

    def verify(self, state, inputs, rec) -> None:
        rec.check("known_present_queries", all(found.all() for found in state["present_answers"]))
        inserts = [(0, pack(inputs["base_src"], inputs["base_dst"]))]
        deletes, vertex_deletes = [], []
        for r, step in enumerate(inputs["rounds"]):
            inserts.append((3 * r + 1, pack(step["ins_src"], step["ins_dst"])))
            deletes.append((3 * r + 2, pack(step["del_src"], step["del_dst"])))
            if step["vdel"] is not None:
                vertex_deletes.append((3 * r + 3, step["vdel"]))
        expected = oracle_final_keys(inputs["num_vertices"], inserts, deletes, vertex_deletes)
        check_against_oracle(state["graph"], expected, inputs["num_vertices"], rec)


# -- phase ------------------------------------------------------------------------------


class Phase(Workload):
    """The paper's update → snapshot → compute cycle with five incremental
    analytics attached; delete phases force cold fallbacks."""

    ANALYTICS = ("cc", "pr", "tc", "bfs", "kcore")
    QUERY_METHODS = {
        "cc": "labels",
        "pr": "compute",
        "tc": "count",
        "bfs": "distances",
        "kcore": "members",
    }

    def setup(self, inputs, ctx):
        graph = Graph.create(BACKEND, inputs["num_vertices"])
        graph.bulk_build(COO(inputs["base_src"], inputs["base_dst"], inputs["num_vertices"]))
        graph.snapshot()
        analytics = {
            "cc": IncrementalConnectedComponents(graph),
            "pr": IncrementalPageRank(graph),
            "tc": IncrementalTriangleCount(graph),
            "bfs": IncrementalBFS(graph, source=0),
            "kcore": IncrementalKCore(graph),
        }
        state = {"graph": graph, "analytics": analytics, "answers": {}}
        for name in self.ANALYTICS:
            state["answers"][name] = self._query(state, name)
        return state

    def _query(self, state, name):
        # Resolved per call, so a traced repetition sees the wrapped method.
        return getattr(state["analytics"][name], self.QUERY_METHODS[name])()

    def loop(self, state, inputs, rec) -> None:
        graph, analytics, answers = state["graph"], state["analytics"], state["answers"]
        served = incremental = 0
        for step in inputs["phases"]:
            rows = step["ins_src"].shape[0]
            rec.timed("update", graph.insert_edges, step["ins_src"], step["ins_dst"], rows=rows)
            cold = step["del_src"] is not None
            if cold:
                rows = step["del_src"].shape[0]
                rec.timed("update", graph.delete_edges, step["del_src"], step["del_dst"], rows=rows)
            rec.timed("snapshot", graph.snapshot)
            compute = 0.0
            for name in self.ANALYTICS:
                answers[name] = rec.timed(name, self._query, state, name)
                compute += rec.samples[name][-1]
                served += 1
                incremental += analytics[name].last_mode != "cold"
            rec.samples["cold_compute" if cold else "compute"].append(compute)
            rec.end_phase("cold_phase" if cold else "phase")
        rec.extras["incremental_ratio"] = incremental / served
        rec.extras["events_retained"] = graph.events.retained_rows

    def verify(self, state, inputs, rec) -> None:
        inserts = [(0, pack(inputs["base_src"], inputs["base_dst"]))]
        deletes = []
        for r, step in enumerate(inputs["phases"]):
            inserts.append((2 * r + 1, pack(step["ins_src"], step["ins_dst"])))
            if step["del_src"] is not None:
                deletes.append((2 * r + 2, pack(step["del_src"], step["del_dst"])))
        expected = oracle_final_keys(inputs["num_vertices"], inserts, deletes)
        graph, answers = state["graph"], state["answers"]
        check_against_oracle(graph, expected, inputs["num_vertices"], rec)
        snap = graph.snapshot()
        kcore_k = state["analytics"]["kcore"].k
        rec.check("cc_equals_cold", np.array_equal(answers["cc"], connected_components(snap)))
        rec.check("pr_equals_cold", np.allclose(answers["pr"], pagerank(snap), rtol=0, atol=1e-6))
        rec.check("tc_equals_cold", answers["tc"] == undirected_triangles(snap))
        rec.check("bfs_equals_cold", np.array_equal(answers["bfs"], bfs(snap, 0)))
        rec.check(
            "kcore_equals_cold", np.array_equal(answers["kcore"], kcore_membership(snap, kcore_k))
        )

    def teardown(self, state) -> None:
        for analytic in state["analytics"].values():
            analytic.close()


# -- service ----------------------------------------------------------------------------


def _wal_files(stores):
    return sorted(p for s in range(len(stores.writers)) for p in stores.wal_dir(s).glob("*.wal"))


def _tree_bytes(root) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


class _FlushCountingFile:
    """A WAL segment whose ``fsync()`` is counted, not waited for.

    The sandbox's disk is shared: the same 4-fsync acknowledgement swung
    the whole workload by a third between runs an hour apart, which no
    bound survives.  The writer calls a file's own ``fsync`` when it has
    one (the ``opener`` seam), so the service keeps its flush policy and
    every ``flush()`` to the OS, the flushes a real device would wait for
    are reported as a count (``persist.fsyncs``), and device latency — the
    sandbox's, not a disk's — stays out of the timings.
    """

    def __init__(self, fh, counts) -> None:
        self._fh = fh
        self._counts = counts

    def fsync(self) -> None:
        self._counts["fsyncs"] += 1

    def __getattr__(self, name):
        return getattr(self._fh, name)


class Service(Workload):
    """A 4-shard durable service: every batch acknowledged by ``sync()``,
    reads after each batch, periodic global snapshots and checkpoints,
    then shard kills and recoveries."""

    def setup(self, inputs, ctx):
        directory = ctx.fresh_directory("store")
        service = ShardedGraph.create(
            BACKEND, inputs["num_vertices"], num_shards=inputs["params"]["shards"]
        )
        counts = defaultdict(int)

        def opener(path, mode):
            return _FlushCountingFile(open(path, mode), counts)

        stores = service.attach_durability(directory, fsync="batch", opener=opener)
        for b in range(inputs["params"]["warmup_batches"]):
            service.insert_edges(inputs["src"][b], inputs["dst"][b])
            stores.sync()
        return {
            "service": service,
            "stores": stores,
            "directory": directory,
            "ctx": ctx,
            "wal_counts": counts,
            "present_answers": [],
        }

    def loop(self, state, inputs, rec) -> None:
        service, stores, p = state["service"], state["stores"], inputs["params"]
        answers = state["present_answers"]
        rows = p["rows"]

        def acknowledged_insert(src, dst):
            service.insert_edges(src, dst)
            stores.sync()

        def queries(b):
            found = service.edge_exists(inputs["q_src"][b], inputs["q_dst"][b])
            service.degree(inputs["deg_v"][b])
            return found

        state["wal_counts"].clear()  # set-up's flushes are not the loop's
        first = p["warmup_batches"]
        for i in range(p["batches"]):
            b = first + i
            rec.timed("update", acknowledged_insert, inputs["src"][b], inputs["dst"][b], rows=rows)
            found = rec.timed("query", queries, b, rows=2 * rows)
            answers.append(found[: inputs["q_known_present"]])
            if (i + 1) % p["snapshot_every"] == 0:
                rec.timed("snapshot", service.snapshot)
            if (i + 1) % p["checkpoint_every"] == 0:
                rec.timed("checkpoint", stores.checkpoint)
            rec.end_phase()
        # Counted before any recovery replaces a writer (and its totals).
        rec.extras["wal_bytes"] = sum(f.stat().st_size for f in _wal_files(stores))
        rec.extras["fsyncs"] = state["wal_counts"]["fsyncs"]
        rec.extras["wal_records"] = sum(w.records_written for w in stores.writers)
        rec.extras["wal_rows"] = sum(w.rows_written for w in stores.writers)
        edges = np.array([shard.num_edges() for shard in service.shards], dtype=np.float64)
        rec.extras["shard_skew"] = float(edges.max() / edges.mean())
        replayed = 0
        rebuilt_ok = True
        for k in range(p["recoveries"]):
            s = k % service.num_shards
            before = service.shards[s].snapshot()
            service.kill_shard(s)
            info = rec.timed("recover", service.rebuild_shard, s)
            replayed += info.replayed_events
            rebuilt_ok &= _snapshots_equal(service.shards[s].snapshot(), before)
        rec.check("rebuilt_shard_equals_pre_kill", rebuilt_ok)
        rec.extras["replayed_events"] = replayed
        rec.extras["retries"] = service.fault_stats["retries"]
        rec.extras["events_retained"] = service.events.retained_rows + sum(
            shard.events.retained_rows for shard in service.shards
        )
        rec.extras["checkpoint_bytes"] = sum(
            _tree_bytes(stores.checkpoint_dir(s)) for s in range(service.num_shards)
        )

    def verify(self, state, inputs, rec) -> None:
        service, p = state["service"], inputs["params"]
        rec.check("known_present_queries", all(found.all() for found in state["present_answers"]))
        acked = p["warmup_batches"] + p["batches"]
        expected = np.unique(pack(inputs["src"][:acked].ravel(), inputs["dst"][:acked].ravel()))
        check_against_oracle(service, expected, inputs["num_vertices"], rec)
        self._check_durability(state, inputs, rec, expected)

    def _check_durability(self, state, inputs, rec, acknowledged_keys) -> None:
        """Crash after an unacknowledged batch: a copy of the store cut back
        to the bytes on disk at the last ``sync()`` must recover every
        acknowledged batch.  (Killing the process would leave the OS cache
        intact, so the check discards the unflushed bytes itself.)"""
        service, stores = state["service"], state["stores"]
        stores.sync()
        synced = {f: f.stat().st_size for f in _wal_files(stores)}
        tail = inputs["src"].shape[0] - 1
        service.insert_edges(inputs["src"][tail], inputs["dst"][tail])  # never acknowledged
        copy = state["ctx"].fresh_directory("crash-copy")
        shutil.copytree(state["directory"], copy, dirs_exist_ok=True)
        for path in sorted(copy.rglob("*.wal")):
            original = state["directory"] / path.relative_to(copy)
            if original in synced:
                with open(path, "r+b") as fh:
                    fh.truncate(synced[original])
            else:
                path.unlink()  # a segment opened after the last sync
        recovered = []
        for s in range(service.num_shards):
            with open_graph(copy / f"shard-{s}", BACKEND, inputs["num_vertices"]) as shard:
                coo = shard.graph.export_coo()
                recovered.append(pack(coo.src, coo.dst))
        keys = np.concatenate(recovered)
        rec.check("durability_acknowledged_present", np.isin(acknowledged_keys, keys).all())

    def teardown(self, state) -> None:
        state["stores"].close()


WORKLOADS = {
    "ingest-cold": Ingest(),
    "ingest-skew": Ingest(),
    "churn": Churn(),
    "phase": Phase(),
    "service": Service(),
}
