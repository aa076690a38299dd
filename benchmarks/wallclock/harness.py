"""The measuring harness: repetitions, statistics, and the result document.

A run warms up once (discarded), then repeats the workload's script on
fresh state until the time budget is used.  Every repetition gets the same
inputs, so its i-th timed call does the same work every time; the reported
statistics are computed over each call's *fastest occurrence* across the
repetitions.  On a shared host interference only ever adds time, in bursts
from milliseconds to most of a run: medians over repetitions of identical
runs moved 4-12 % on the reference host, and in its noisy hours even the
best whole repetition moved 10-19 %, because no repetition ran undisturbed
from end to end.  A cost the program itself causes (pool growth at batch
k, a cold phase, a rehash) recurs at the same call of every repetition and
so survives the minimum.

With tracing on, each untraced repetition is followed by a traced one: the
untraced timers still give every user-visible number, the traced repetition
with the least total wall gives the per-layer numbers (one coherent set, so
shares add up to the coverage), and the ratio of the two scripts' summed
fastest calls is the tracing overhead.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import time
from pathlib import Path

import numpy as np
from inputs import make_inputs
from report import RESULTS, load_spec
from tracer import LAYERS, Tracer
from workloads import WORKLOADS, Recorder

from repro.gpusim.counters import get_counters
from repro.gpusim.model import simulated_seconds
from repro.kernels import kernel_tier


class RunContext:
    """Scratch space of one run, inside the checkout and removed at exit."""

    def __init__(self) -> None:
        self.root = RESULTS / f"tmp-{os.getpid()}"
        self._made = 0

    def fresh_directory(self, label: str) -> Path:
        self._made += 1
        path = self.root / f"{label}-{self._made}"
        path.mkdir(parents=True)
        return path

    def cleanup(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


# -- one repetition -----------------------------------------------------------------------


def one_repetition(workload, inputs, ctx, tracer=None):
    """Fresh state, set-up, then the timed loop (GC off inside both)."""
    rec = Recorder(tracer)
    counters = get_counters()
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        state = workload.setup(inputs, ctx)
        rec.extras["setup_s"] = time.perf_counter() - start
        before = counters.snapshot()
        if tracer is not None:
            tracer.install()
        try:
            workload.loop(state, inputs, rec)
        finally:
            if tracer is not None:
                tracer.uninstall()
        rec.extras["gpusim"] = counters.diff(before)
    finally:
        gc.enable()
    return state, rec


def _ms(samples, q) -> float:
    return float(np.percentile(samples, q)) * 1e3 if samples else 0.0


def _rate(rows, samples) -> float:
    return rows / sum(samples) if samples else 0.0


def fastest_calls(recorders) -> Recorder:
    """One recorder holding each timed call's fastest occurrence (and the
    fastest set-up) over repetitions of the same script on the same inputs."""
    last = recorders[-1]
    best = Recorder()
    best.rows, best.extras = last.rows, dict(last.extras)
    best.extras["setup_s"] = min(rec.extras["setup_s"] for rec in recorders)
    for kind in last.samples:
        best.samples[kind] = np.min([rec.samples[kind] for rec in recorders], axis=0).tolist()
    best.calls = np.min([rec.calls for rec in recorders], axis=0).tolist()
    return best


def timer_stats(rec) -> dict:
    """Statistics of the workload's own (untraced) timers."""
    s, x = rec.samples, rec.extras
    gpusim = x["gpusim"]
    stats = {
        "setup_s": x["setup_s"],
        "updates_per_s": _rate(rec.rows["update"], s["update"]),
        "update_batch_ms_p50": _ms(s["update"], 50),
        "update_batch_ms_p95": _ms(s["update"], 95),
        "update_batch_ms_p99": _ms(s["update"], 99),
        "update_batch_ms_max": _ms(s["update"], 100),
        "phase_ms_p50": _ms(s["phase"], 50),
        "loop_s": rec.call_seconds,
        "queries_per_s": _rate(rec.rows["query"], s["query"]),
        "query_batch_ms_p95": _ms(s["query"], 95),
        "snapshot_ms_p50": _ms(s["snapshot"], 50),
        "compute_ms_p50": _ms(s["compute"], 50),
        "cold_phase_ms_p50": _ms(s["cold_phase"], 50),
        "checkpoint_ms_p50": _ms(s["checkpoint"], 50),
        "recover_s": _ms(s["recover"], 50) / 1e3,
        "wal_bytes_per_edge": x.get("wal_bytes", 0) / max(x.get("wal_rows", 0), 1),
        "analytics.cold_compute_ms_p50": _ms(s["cold_compute"], 50),
        "stream.incremental.incremental_ratio": x.get("incremental_ratio", 0.0),
        "eventlog.rows_retained": x.get("events_retained", 0),
        "persist.wal_bytes": x.get("wal_bytes", 0),
        "persist.wal_records": x.get("wal_records", 0),
        "persist.fsyncs": x.get("fsyncs", 0),
        "persist.checkpoint_bytes": x.get("checkpoint_bytes", 0),
        "persist.replayed_events": x.get("replayed_events", 0),
        "api.sharding.shard_skew": x.get("shard_skew", 0.0),
        "api.sharding.retries": x.get("retries", 0),
        "gpusim.modeled_ms": simulated_seconds(gpusim) * 1e3,
        "gpusim.sorted_elements": gpusim.get("sorted_elements", 0),
        "gpusim.bytes_copied": gpusim.get("bytes_copied", 0),
        "slabhash.slab_reads": gpusim.get("slab_reads", 0),
        "slabhash.slab_writes": gpusim.get("slab_writes", 0),
        "slabhash.slabs_allocated": gpusim.get("slabs_allocated", 0),
    }
    for name in ("cc", "pr", "tc", "bfs", "kcore"):
        stats[f"stream.incremental.{name}_ms_p50"] = _ms(s[name], 50)
    return stats


def trace_stats(tracer, rec) -> dict:
    """Per-layer statistics of one traced repetition."""
    phases = max(rec.phases, 1)
    traced_ns = rec.call_seconds * 1e9
    counts, samples = tracer.counts, tracer.samples
    stats = {}
    for layer in LAYERS:
        stats[f"{layer}.self_ms"] = tracer.self_ns[layer] / 1e6 / phases
        stats[f"{layer}.share"] = tracer.self_ns[layer] / traced_ns
        stats[f"{layer}.calls"] = tracer.calls[layer]

    def p50_ms(key):
        return float(np.median(samples[key])) / 1e6 if samples[key] else 0.0

    def per_phase_ms(*names):
        return tracer.inclusive_ms(*names) / phases

    round_calls = counts["kernel_round_calls"]
    launches = sum(tracer.by_name[f"SlabArena.{op}"][0] for op in ("insert", "search", "delete"))
    stats.update(
        {
            "trace.coverage": sum(tracer.self_ns.values()) / traced_ns,
            "api.facade.rows_in": counts["rows_in"],
            "api.facade.rows_out": counts["rows_out"],
            "eventlog.events_published": counts["events_published"],
            "eventlog.cursor_gaps": counts["cursor_gaps"],
            "core.ensure_tables_ms": per_phase_ms("VertexDictionary.ensure_tables"),
            "core.tables_created": counts["tables_created"],
            "core.vertex_delete_ms_p50": p50_ms("vertex_delete"),
            "core.maintenance_ms_p50": p50_ms("maintenance"),
            "slabhash.allocate_ms": per_phase_ms(
                "SlabPool.allocate", "SlabPool.allocate_contiguous"
            ),
            "kernels.insert_ms": per_phase_ms(
                "kernels.insert_round_map", "kernels.insert_round_set"
            ),
            "kernels.search_ms": per_phase_ms(
                "kernels.search_round_map", "kernels.search_round_set"
            ),
            "kernels.delete_ms": per_phase_ms("kernels.delete_round"),
            "kernels.merge_ms": per_phase_ms(
                "kernels.sort_window_last", "kernels.merge_sorted_csr"
            ),
            "kernels.rows_per_call": counts["kernel_round_rows"] / max(round_calls, 1),
            "slabhash.kernel_launches": launches,
            "slabhash.probe_rounds_per_launch": round_calls / max(launches, 1),
            "api.snapshot.cached_count": counts["snapshot_cached"],
            "api.snapshot.merge_count": counts["snapshot_merge"],
            "api.snapshot.cold_count": counts["snapshot_cold"],
            "api.snapshot.cold_ms_p50": p50_ms("snapshot_cold"),
            "persist.wal_append_ms_p50": p50_ms("wal_append"),
            "persist.recover_ms_p50": p50_ms("recover"),
            "api.sharding.router_ms_p50": p50_ms("router"),
            "api.sharding.assembly_ms_p50": p50_ms("assembly"),
        }
    )
    return stats


# -- one workload ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    """Warm up once, repeat on fresh state until ``seconds`` are used, check
    the last state against the oracle, and return the result document."""
    spec = load_spec()
    workload = WORKLOADS[name]
    inputs = make_inputs(name, size, seed)
    ctx = RunContext()
    plain, traced, checks = [], [], []
    cleanest = None  # (wall, tracer, per-layer statistics) of the least disturbed traced repetition
    try:
        state, _ = one_repetition(workload, inputs, ctx)  # warm-up, discarded
        workload.teardown(state)
        deadline = time.perf_counter() + seconds
        while True:
            round_start = time.perf_counter()
            state, rec = one_repetition(workload, inputs, ctx)
            plain.append(rec)
            if trace:
                workload.teardown(state)
                tracer = Tracer()
                state, rec = one_repetition(workload, inputs, ctx, tracer)
                traced.append(rec)
                if cleanest is None or rec.call_seconds < cleanest[0]:
                    cleanest = (rec.call_seconds, tracer, trace_stats(tracer, rec))
            now = time.perf_counter()
            if now + (now - round_start) > deadline:
                break
            workload.teardown(state)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        simulated = [rec.extras["gpusim"] for rec in plain + traced]
        checks.append(("simulated_counts_repeat", all(c == simulated[0] for c in simulated)))
        workload.verify(state, inputs, rec)
        workload.teardown(state)
        checks.extend(rec.checks)
        if cleanest is not None:
            RESULTS.mkdir(exist_ok=True)
            cleanest[1].write_jsonl(RESULTS / f"trace-{name}.jsonl")
    finally:
        ctx.cleanup()

    values = timer_stats(fastest_calls(plain))
    values["peak_rss_mb"] = peak_rss_mb
    if trace:
        values.update(cleanest[2])
        traced_loop_s = fastest_calls(traced).call_seconds
        values["trace.overhead_pct"] = (traced_loop_s / values["loop_s"] - 1.0) * 100.0
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    failed_checks = [check for check, ok in checks if not ok]
    return {
        "workload": name,
        "size": size,
        "params": inputs["params"],
        "seed": seed,
        "seconds": seconds,
        "kernel_tier": kernel_tier(),
        "repetitions": len(plain),
        "correct": not failed_checks,
        "attempted": sum(len(rec.calls) for rec in plain + traced) + len(checks),
        "failed": len(failed_checks),
        "failed_checks": failed_checks,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def print_result(result: dict) -> None:
    """Every metric by name with its unit, then the one-line JSON result."""
    print(
        f"# {result['workload']} size={result['size']} seed={result['seed']} "
        f"kernel_tier={result['kernel_tier']} repetitions={result['repetitions']} "
        f"(statistics over each call's fastest repetition) attempted={result['attempted']} "
        f"failed={result['failed']} {' '.join(result['failed_checks'])}"
    )
    for name, metric in result["metrics"].items():
        print(f"{name:44s} {metric['value']:>16.6g} {metric['unit']}")
    keys = ("correct", "attempted", "failed", "metrics")
    print(json.dumps({key: result[key] for key in keys}))
