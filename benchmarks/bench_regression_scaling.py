"""O(batch) scaling guard — per-batch update cost must not scale with |V|.

The paper's central claim (Section IV-C) is that a batched update costs
O(batch + touched slabs), independent of the vertex dictionary's size.  A
capacity-sized scan sneaking into the per-batch path (a
``bincount(..., minlength=|V|)`` delta, a full-array ``sum()`` inside
``num_edges()``) passes every correctness test while destroying the
small-batch streaming regime of Tables VI and IX.  So: with a fixed batch
of 512 edges, wall-clock insert throughput at |V| = 1e6 must stay within
2x of the throughput at |V| = 1e3.  The timed loop also polls
``num_edges()`` and queries the batch back with one ``edge_exists`` each
batch, so an O(|V|) aggregate scan re-entering that read, or an O(|V|)
term in the search driver, trips the guard the same way one in insert or
delete does.

Table creation sits under it too.  ``_timed_run`` registers every source
before timing, so a second guard times the same batches of rows whose
sources all lack a table — batch ``i`` draws them from its own slice of
the ids below ``CREATE_CAPACITIES[0]`` — into a graph of 1e3 and of 1e6
ids: an O(|V|) term in the insert launch's table creation trips it.

The snapshot delta merge sits under the same rule: a merge of a fixed
16,384-edge snapshot with a 256-upsert / 64-delete delta must take within
2x as long at |V| = 1e6 as at |V| = 1e3 (the same edges, only the vertex
space differs), so a ``row_ptr`` over every id re-entering the merge trips
it.

The bulk build (and so a snapshot restore) sits under it too: the best of
five ``bulk_build`` calls of one fixed 16,384-row COO, each into an empty
graph created outside the timed region, must take within 2x as long at
|V| = 1e6 as at |V| = 1e3, so a degree ``bincount`` over every id or any
other vertex-space pass re-entering the build trips it.

Creating a graph writes one |V|-sized array (the table handles), so the
best of five ``Graph.create("slabhash", 2**22)`` must stay within 3x of
the best of five ``np.full(2**22, -1)``: a per-vertex draw or pass
re-entering creation (such as drawing every table's hash coefficients up
front) trips it.

This is an assertion, not a measurement: nothing is recorded (host-time
numbers are ``benchmarks/wallclock/``'s job).  The capacities are
interleaved inside each repeat so one noisy second on a shared host
lands on all of them alike, and each keeps its best of five.  Tier-1 does
not collect this file (it matches ``test_*.py``); CI's ``scaling-smoke``
lane runs it by name.
"""

from time import perf_counter

import numpy as np

from repro import Graph
from repro.api import create
from repro.api.snapshot import CSRSnapshot, merge_csr_delta
from repro.coo import COO

BATCH_SIZE = 512
NUM_BATCHES = 16
CAPACITIES = (1_000, 100_000, 1_000_000)
REPEATS = 5
MAX_RATIO = 2.0
SEED = 0x5CA1E
MERGE_EDGES, MERGE_UPSERTS, MERGE_DELETES = 16_384, 256, 64
MERGE_CAPACITIES = (1_000, 1_000_000)
MERGES_PER_RUN = 8
BULK_ROWS = 16_384
BULK_CAPACITIES = (1_000, 1_000_000)
CREATE_BATCHES = 8
CREATE_CAPACITIES = (1_000, 1_000_000)
CREATE_VERTICES = 1 << 22
MAX_CREATE_RATIO = 3.0


def _batches(capacity, count, seed):
    rng = np.random.default_rng(seed)
    return [
        (rng.integers(0, capacity, BATCH_SIZE), rng.integers(0, capacity, BATCH_SIZE))
        for _ in range(count)
    ]


def _timed_run(capacity, seed):
    """Seconds for one streaming run: insert batches, poll sizes, query
    each batch back, one delete."""
    graph = create("slabhash", capacity, weighted=False)
    batches = _batches(capacity, NUM_BATCHES, seed)
    # Untimed setup, per the paper's methodology.  Every capacity must
    # measure the same steady-state work — probing existing tables — so the
    # batches' sources are registered up front (else table creation is
    # charged only to the sparse large-|V| runs), the dictionary's
    # ``np.zeros`` arrays are written once (first-touch page faults are not
    # per-batch cost), and two throwaway batches warm the insert path.
    vd = graph._dict
    vd.edge_count.fill(0)
    vd.arena.table_buckets.fill(0)
    graph.insert_vertices(np.unique(np.concatenate([src for src, _ in batches])))
    for src, dst in _batches(capacity, 2, seed ^ 0xBEEF):
        graph.insert_edges(src, dst)

    t0 = perf_counter()
    for src, dst in batches:
        graph.insert_edges(src, dst)
        graph.num_edges()
        graph.edge_exists(src, dst)  # the search path sits under the same guard
    graph.delete_edges(*batches[0])  # the deletion path sits under the same guard
    return perf_counter() - t0


def test_update_throughput_independent_of_capacity():
    best = dict.fromkeys(CAPACITIES, float("inf"))
    for repeat in range(REPEATS):
        for capacity in CAPACITIES:
            best[capacity] = min(best[capacity], _timed_run(capacity, SEED + repeat))
    # Same number of updates at every capacity, so the throughput ratio
    # small/large is the time ratio large/small.
    ratio = best[CAPACITIES[-1]] / best[CAPACITIES[0]]
    detail = ", ".join(f"|V|={c:,}: {s * 1e3:.1f} ms" for c, s in best.items())
    assert ratio <= MAX_RATIO, (
        f"small/large throughput ratio {ratio:.2f} exceeds {MAX_RATIO} ({detail}); "
        "an O(|V|) term has re-entered the per-batch update or query path"
    )


def _timed_creating_run(capacity, seed):
    """Seconds for ``CREATE_BATCHES`` inserts whose every source lacks a
    table; the rows are the same whatever ``capacity`` is."""
    rng = np.random.default_rng(seed)
    side = CREATE_CAPACITIES[0] // CREATE_BATCHES
    batches = [
        (i * side + rng.integers(0, side, BATCH_SIZE), rng.integers(0, side, BATCH_SIZE))
        for i in range(CREATE_BATCHES)
    ]
    graph = create("slabhash", capacity, weighted=False)
    # Write the dictionary's np.zeros arrays once, as _timed_run does:
    # first-touch page faults are not per-batch cost.
    graph._dict.edge_count.fill(0)
    graph._dict.arena.table_buckets.fill(0)
    t0 = perf_counter()
    for src, dst in batches:
        graph.insert_edges(src, dst)
    return perf_counter() - t0


def test_table_creating_insert_time_independent_of_capacity():
    best = dict.fromkeys(CREATE_CAPACITIES, float("inf"))
    for repeat in range(REPEATS):
        for capacity in CREATE_CAPACITIES:
            best[capacity] = min(best[capacity], _timed_creating_run(capacity, SEED + repeat))
    ratio = best[CREATE_CAPACITIES[-1]] / best[CREATE_CAPACITIES[0]]
    detail = ", ".join(f"|V|={c:,}: {s * 1e3:.2f} ms" for c, s in best.items())
    assert ratio <= MAX_RATIO, (
        f"table-creating insert time ratio {ratio:.2f} exceeds {MAX_RATIO} ({detail}); "
        "an O(|V|) term has re-entered table creation"
    )


def _merge_inputs(capacity, seed):
    """A cold base snapshot and a sorted upsert / delete delta; the edges
    have sources and destinations below ``MERGE_CAPACITIES[0]`` whatever
    ``capacity`` is."""
    rng = np.random.default_rng(seed)
    side = MERGE_CAPACITIES[0]
    cells = rng.choice(side * side, MERGE_EDGES + MERGE_UPSERTS, replace=False)
    src, dst = np.divmod(cells, side)
    base = CSRSnapshot.from_coo(COO(src[:MERGE_EDGES], dst[:MERGE_EDGES], capacity))
    upserts = np.sort((src[MERGE_EDGES:] << 32) | dst[MERGE_EDGES:])
    deletes = np.sort(rng.choice(base.keys(), MERGE_DELETES, replace=False))
    return base, upserts, deletes


def _timed_merges(capacity, seed):
    """Seconds for ``MERGES_PER_RUN`` merges of one delta into one base."""
    base, upserts, deletes = _merge_inputs(capacity, seed)
    t0 = perf_counter()
    for _ in range(MERGES_PER_RUN):
        merge_csr_delta(base, upserts, None, deletes)
    return perf_counter() - t0


def test_snapshot_merge_time_independent_of_capacity():
    best = dict.fromkeys(MERGE_CAPACITIES, float("inf"))
    for repeat in range(REPEATS):
        for capacity in MERGE_CAPACITIES:
            best[capacity] = min(best[capacity], _timed_merges(capacity, SEED + repeat))
    ratio = best[MERGE_CAPACITIES[-1]] / best[MERGE_CAPACITIES[0]]
    detail = ", ".join(f"|V|={c:,}: {s * 1e3:.2f} ms" for c, s in best.items())
    assert ratio <= MAX_RATIO, (
        f"merge time ratio {ratio:.2f} exceeds {MAX_RATIO} ({detail}); "
        "an O(|V|) term has re-entered the snapshot merge"
    )


def _timed_bulk_build(capacity, seed):
    """Seconds for one ``bulk_build`` of a fixed COO whose ids lie below
    ``BULK_CAPACITIES[0]`` whatever ``capacity`` is."""
    rng = np.random.default_rng(seed)
    side = BULK_CAPACITIES[0]
    coo = COO(rng.integers(0, side, BULK_ROWS), rng.integers(0, side, BULK_ROWS), capacity)
    graph = Graph.create("slabhash", capacity)
    t0 = perf_counter()
    graph.bulk_build(coo)
    return perf_counter() - t0


def test_bulk_build_time_independent_of_capacity():
    best = dict.fromkeys(BULK_CAPACITIES, float("inf"))
    for _ in range(REPEATS):
        for capacity in BULK_CAPACITIES:
            best[capacity] = min(best[capacity], _timed_bulk_build(capacity, SEED))
    ratio = best[BULK_CAPACITIES[-1]] / best[BULK_CAPACITIES[0]]
    detail = ", ".join(f"|V|={c:,}: {s * 1e3:.2f} ms" for c, s in best.items())
    assert ratio <= MAX_RATIO, (
        f"bulk build time ratio {ratio:.2f} exceeds {MAX_RATIO} ({detail}); "
        "an O(|V|) term has re-entered the bulk build"
    )


def _seconds(make):
    t0 = perf_counter()
    made = make()
    elapsed = perf_counter() - t0
    del made  # freed outside the timed region
    return elapsed


def test_graph_create_pays_no_per_vertex_draw():
    best_create = best_write = float("inf")
    for _ in range(REPEATS):
        best_create = min(best_create, _seconds(lambda: Graph.create("slabhash", CREATE_VERTICES)))
        best_write = min(best_write, _seconds(lambda: np.full(CREATE_VERTICES, -1, np.int64)))
    ratio = best_create / best_write
    assert ratio <= MAX_CREATE_RATIO, (
        f"Graph.create at |V| = 2^22 took {best_create * 1e3:.1f} ms, {ratio:.1f}x one "
        f"|V|-sized write ({best_write * 1e3:.1f} ms; limit {MAX_CREATE_RATIO}x); "
        "a per-vertex pass has re-entered graph creation"
    )
