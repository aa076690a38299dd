"""The one-walk insert schedule: golden long chains, scalar spec, chunking.

``insert_batch`` walks each touched chain once per launch (hit pass + tail
placement) instead of replaying the device's probe rounds, and derives the
device-model charges from resolve depths.  These tests pin that the result
is the round-by-round schedule's, bit for bit:

- a golden long-chain scenario whose counters and pool digest were recorded
  with the round-loop driver of the parent commit (293969f);
- a hypothesis property against the scalar ``reference_insert_one`` spec;
- a chunked hit pass (tiny pair budget) equal to the unchunked one;
- each launch shortcut (the one-gather walk, the tail-first read with its
  occupied count off the first empty lane, the hit pass over occupied
  lane prefixes that skips empty chains, the one bases gather with the
  unhashed one-bucket heads, the group numbering and ranks) equal to the
  form it replaced, on churned arenas;
- the search / delete probe round (one gather, one compare, the empty
  test on the last lane, the first hit per row) equal to the ``any`` /
  ``argmax`` round it replaced, and whole search and delete launches
  equal to scalar chain walks;
- the launch's own table creation equal to creating the tables first
  (``ensure_tables``, then the checked ``arena.insert``) on graphs of
  every kind;
- a launch budget: the calls one small insert, search, delete and bulk
  build make to the named ordering, checking and kernel functions, and
  the pinned number of ``repro`` calls of one 512-row insert.
"""

import copy
import cProfile
import hashlib
import pstats
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DynamicGraph, edge_ops
from repro.core.rehash import rehash_vertices
from repro.api import Graph
from repro.coo import COO
from repro.gpusim.counters import get_counters
from repro.kernels import reference
from repro.slabhash.arena import SlabArena
from repro.slabhash.constants import EMPTY_KEY, MAX_KEY, NULL_SLAB, TOMBSTONE_KEY
from repro.slabhash.insert import _groups, _last_occurrences, _ranks
from repro.util.groupby import group_starts, last_occurrence_mask, ragged_arange, stable_argsort


def counters_dict():
    return {k: v for k, v in vars(get_counters()).items() if k != "_extra"}


def pool_digest(arena, *extra):
    """SHA-256 of the allocated pool rows (+ any result arrays)."""
    pool = arena.pool
    bump = pool._bump
    h = hashlib.sha256()
    h.update(pool.keys[:bump].tobytes())
    h.update(pool.next_slab[:bump].tobytes())
    if pool.weighted:
        h.update(pool.values[:bump].tobytes())
    for arr in extra:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def long_chain_scenario(weighted):
    """Single-bucket tables driven through every shape the schedule handles.

    In order: one launch growing the pool across two doublings (16 -> 32
    -> 64 slabs) while six chains spill five slabs each; a launch building
    a 40+-slab chain; a launch mixing replace hits at every depth of that
    chain, in-batch duplicates, misses that fit a tail, and a fresh tail
    overflowing by four slabs; tombstones; vertex deletion recycling
    overflow slabs; a launch whose chains of different lengths link new
    slabs in the same rounds out of the recycled ids; a flush that
    rebuilds the long chain from recycled slabs.
    """
    rng = np.random.default_rng(2020)
    arena = SlabArena(6, weighted=weighted, initial_slab_capacity=16)
    arena.create_tables(np.arange(6), np.ones(6, dtype=np.int64))
    bc = arena.pool.lane_capacity
    get_counters().reset()
    added = []

    def insert(t, k):
        v = rng.integers(1, 1000, len(k)) if weighted else None
        added.append(arena.insert(np.asarray(t), np.asarray(k), v))

    # Pool growth across two doublings in one launch (6 -> 36 slabs).
    per_table = 5 * bc + 3
    insert(np.repeat(np.arange(6), per_table), np.tile(np.arange(per_table), 6))
    # A >= 40-slab chain in table 0.
    long_keys = 1000 + rng.permutation(41 * bc)
    insert(np.zeros(long_keys.size, dtype=np.int64), long_keys)
    assert int(np.count_nonzero(arena.table_slabs(np.array([0]))[1] == 0)) >= 40
    # Hits at varied depths + duplicates + tail fits + a 4-slab overflow.
    hit_keys = long_keys[:: max(long_keys.size // 40, 1)]
    dup_keys = np.concatenate([hit_keys[:10], hit_keys[:10], [5000, 5000, 5001]])
    fresh = 6000 + np.arange(4 * bc + 2)
    t = np.concatenate(
        [
            np.zeros(hit_keys.size + dup_keys.size, dtype=np.int64),
            np.full(fresh.size, 1),
            np.full(4, 2),
        ]
    )
    k = np.concatenate([hit_keys, dup_keys, fresh, [7000, 7001, 2, 7000]])
    shuffle = rng.permutation(t.size)
    insert(t[shuffle], k[shuffle])
    # Tombstones, then vertex deletion frees overflow slabs for recycling.
    arena.delete(np.zeros(60, dtype=np.int64), long_keys[100:160])
    arena.delete(np.full(20, 4), np.arange(20))
    arena.clear_tables(np.array([2, 3]))
    # Chains of lengths 1, 1, 6, 6 and 10+ link new slabs in shared rounds.
    sizes = {2: 3 * bc + 1, 3: 2 * bc, 4: 3 * bc, 5: bc + 5, 1: 2 * bc + 7}
    t = np.concatenate([np.full(n, tid) for tid, n in sizes.items()])
    k = np.concatenate([9000 + np.arange(n) for n in sizes.values()])
    shuffle = rng.permutation(t.size)
    insert(t[shuffle], k[shuffle])
    # Reinsert tombstoned keys (misses now) next to live ones (hits).
    insert(np.zeros(80, dtype=np.int64), long_keys[90:170])
    arena.flush_tombstones(np.array([0, 4]))
    arena.check_invariants(dense=[0, 4])
    return counters_dict(), pool_digest(arena, arena.pool._free, *added)


#: Recorded at the parent commit (round-loop driver).
GOLDEN = {
    False: (
        {
            "slab_reads": 76389,
            "slab_writes": 4509,
            "probe_rounds": 371,
            "atomics": 206,
            "slabs_allocated": 140,
            "slabs_freed": 66,
            "sorted_elements": 0,
            "scanned_elements": 0,
            "kernel_launches": 8,
            "bytes_copied": 14336,
        },
        "f31f08581e8484506f7884bb5027c160019705fe7706fdb6c2cbef09063e415c",
    ),
    True: (
        {
            "slab_reads": 41426,
            "slab_writes": 2472,
            "probe_rounds": 383,
            "atomics": 209,
            "slabs_allocated": 141,
            "slabs_freed": 68,
            "sorted_elements": 0,
            "scanned_elements": 0,
            "kernel_launches": 8,
            "bytes_copied": 14336,
        },
        "836a0f1911cb4e3c50b77754d6d689ceba549f5f885035c97ebb2a898dd3a6db",
    ),
}


class TestGoldenLongChains:
    @pytest.mark.parametrize("weighted", [False, True])
    def test_counters_and_pool_match_round_loop(self, weighted):
        counters, digest = long_chain_scenario(weighted)
        want_counters, want_digest = GOLDEN[weighted]
        assert counters == want_counters
        assert digest == want_digest


def table_content(arena, num_tables):
    owners, keys, values = arena.iterate(np.arange(num_tables))
    return sorted(zip(owners.tolist(), keys.tolist(), values.tolist()))


launches = st.lists(
    st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 120), st.integers(0, 9)),
        min_size=1,
        max_size=90,
    ),
    min_size=1,
    max_size=5,
)


class TestScalarSpec:
    @given(launches, st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_batch_matches_reference_insert_one(self, batches, weighted):
        """Same ``added`` mask and per-table key -> value content as the
        scalar chain walk, feeding it each batch's surviving occurrences."""
        batched = SlabArena(3, weighted=weighted)
        scalar = SlabArena(3, weighted=weighted)
        for arena in (batched, scalar):
            arena.create_tables(np.arange(3), np.ones(3, dtype=np.int64))
        for items in batches:
            t, k, v = (np.array(col) for col in zip(*items))
            added = batched.insert(t, k, v if weighted else None)
            last = {(ti, ki): i for i, (ti, ki, _) in enumerate(items)}
            want = np.zeros(len(items), dtype=bool)
            for i, (ti, ki, vi) in enumerate(items):
                if last[(ti, ki)] == i:
                    want[i] = scalar.reference_insert_one(ti, ki, vi)
            assert np.array_equal(added, want)
            assert table_content(batched, 3) == table_content(scalar, 3)


class TestChunkedHitPass:
    @pytest.mark.parametrize("weighted", [False, True])
    def test_small_pair_budget_equals_unchunked(self, weighted, monkeypatch):
        def run():
            rng = np.random.default_rng(77)
            arena = SlabArena(5, weighted=weighted)
            arena.create_tables(np.arange(5), np.ones(5, dtype=np.int64))
            get_counters().reset()
            masks = []
            for _ in range(4):
                t = np.minimum(rng.geometric(0.5, 600) - 1, 4)
                k = rng.integers(0, 400, 600)
                v = rng.integers(1, 50, 600) if weighted else None
                masks.append(arena.insert(t, k, v))
            return counters_dict(), pool_digest(arena, *masks)

        whole = run()
        # ~2 pairs per chunk: every launch spans hundreds of chunks, and
        # single items whose chain alone exceeds the budget.
        monkeypatch.setattr(reference, "PAIR_LANE_BUDGET", 64)
        assert run() == whole


# -- each launch shortcut equals the form it replaced ------------------------------------


def level_walk(next_slab, heads):
    """``walk_chains`` before its one-gather exit: the plain level loop."""
    slabs, owners = [heads], [np.arange(heads.shape[0], dtype=np.int64)]
    frontier, owner, levels = heads, owners[0], 0
    while frontier.size:
        levels += 1
        nxt = next_slab[frontier]
        frontier, owner = nxt[nxt != NULL_SLAB], owner[nxt != NULL_SLAB]
        if frontier.size:
            slabs.append(frontier)
            owners.append(owner)
    return np.concatenate(slabs), np.concatenate(owners), levels


@st.composite
def churned_arenas(draw):
    """A set or map arena after random insert / delete / flush / rehash
    steps — tombstones in tails, multi-slab chains, one-bucket tables
    beside many-bucket ones, or no table at all — plus a batch of items
    addressed to its tables."""
    weighted = draw(st.booleans())
    buckets = draw(st.lists(st.integers(1, 3), max_size=5))
    n = len(buckets)
    arena = SlabArena(n, weighted=weighted, initial_slab_capacity=4)
    arena.create_tables(np.arange(n), np.array(buckets, dtype=np.int64))
    rehash_host = SimpleNamespace(_dict=SimpleNamespace(arena=arena), load_factor=0.7)
    step = st.tuples(
        st.sampled_from(["insert", "insert", "delete", "flush", "rehash"]),
        st.integers(0, max(n - 1, 0)),
        st.integers(0, 150),
        st.integers(1, 90),
    )
    prefix = [("insert", 0, 0, 45), ("delete", 0, 0, 45 // 7)] if n else []
    for kind, table, lo, size in prefix + (draw(st.lists(step, max_size=6)) if n else []):
        keys, tables = np.arange(lo, lo + size), np.full(size, table)
        if kind == "insert":
            arena.insert(tables, keys, keys * 3 if weighted else None)
        elif kind == "delete":
            arena.delete(tables, keys * 7)  # spread over the chain, its tail included
        elif kind == "flush":
            arena.flush_tombstones(np.array([table]))
        else:
            rehash_vertices(rehash_host, np.array([table]), draw(st.sampled_from([0.1, 0.7, 4.0])))
    arena.check_invariants()
    item = st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, 200) | st.just(MAX_KEY))
    items = draw(st.lists(item, max_size=60)) if n else []
    t = np.array([i[0] for i in items], dtype=np.int64)
    k = np.array([i[1] for i in items], dtype=np.int64)
    return arena, t, k, draw(st.lists(st.booleans(), min_size=len(items), max_size=len(items)))


def bucket_head_slabs(arena):
    tables = np.flatnonzero(arena.table_base != NULL_SLAB)
    buckets = arena.table_buckets[tables]
    return np.repeat(arena.table_base[tables], buckets) + ragged_arange(buckets)


def launch_inputs(arena, t, k):
    """The arrays ``insert_batch`` hands its hit pass for items ``(t, k)``:
    last occurrences, group-major, each group's chain and its tail read."""
    live = np.flatnonzero(last_occurrence_mask((t << 32) | k))
    heads = arena.bucket_heads(t[live], k[live])
    order = stable_argsort(heads)
    group_heads, group = _groups(heads[order])
    slabs, owner, _ = reference.walk_chains(arena.pool.next_slab, group_heads)
    lengths = np.bincount(owner, minlength=group_heads.shape[0])
    chain_slabs = slabs[stable_argsort(owner)]
    chain_ptr = np.concatenate([[0], np.cumsum(lengths)])
    tail_rows, occupied = reference.read_tails(arena.pool.keys, chain_slabs[chain_ptr[1:] - 1])
    return {
        "chain_slabs": chain_slabs,
        "chain_ptr": chain_ptr,
        "tail_rows": tail_rows,
        "occupied": occupied,
        "group": group,
        "k": k[live][order].astype(np.uint32),
    }


def hit_pass(pool_keys, pool_values, launch, values):
    args = [launch[name] for name in ("chain_slabs", "chain_ptr", "tail_rows", "occupied")]
    group, k = launch["group"], launch["k"]
    if pool_values is None:
        return reference.insert_round_set(pool_keys, *args, group, k)
    return reference.insert_round_map(pool_keys, pool_values, *args, group, k, values)


def full_width_hit_pass(pool_keys, pool_values, launch, values):
    """The form the hit pass replaced: every item against every lane of
    every slab of its chain, tail and empty chains included."""
    chain_slabs, chain_ptr = launch["chain_slabs"], launch["chain_ptr"]
    depth = np.zeros(launch["k"].shape[0], dtype=np.int64)
    for i, (g, key) in enumerate(zip(launch["group"].tolist(), launch["k"].tolist())):
        for pos, slab in enumerate(chain_slabs[chain_ptr[g] : chain_ptr[g + 1]].tolist()):
            lanes = np.flatnonzero(pool_keys[slab] == key)
            if lanes.size:
                if pool_values is not None:
                    pool_values[slab, lanes[0]] = values[i]
                depth[i] = pos + 1
                break
    return depth


class TestLaunchShortcuts:
    @given(churned_arenas())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_each_shortcut_equals_the_form_it_replaced(self, case):
        arena, t, k, missed = case
        pool = arena.pool
        heads = bucket_head_slabs(arena)
        for subset in (heads, heads[::2], heads[:0]):
            got = reference.walk_chains(pool.next_slab, subset)
            for a, b in zip(got, level_walk(pool.next_slab, subset)):
                assert np.asarray(a).dtype == np.asarray(b).dtype and np.array_equal(a, b)

        # Every chain's tail (its last slab in level order), and every slab.
        slabs, owner, _ = level_walk(pool.next_slab, heads)
        tails = np.full(heads.shape[0], NULL_SLAB, dtype=np.int64)
        for slab, chain in zip(slabs.tolist(), owner.tolist()):
            tails[chain] = slab
        for probe in (tails, slabs):
            rows, occupied = reference.read_tails(pool.keys, probe)
            assert np.array_equal(rows, pool.keys[probe])
            empties = np.count_nonzero(pool.keys[probe] == np.uint32(EMPTY_KEY), axis=1)
            assert np.array_equal(occupied, pool.lane_capacity - empties)

        # One bases gather: the heads from the gathered bases are the hashed form.
        hashed = arena.table_base[t] + arena.hash_family.bucket(t, k, arena.table_buckets[t])
        assert np.array_equal(arena.bucket_heads(t, k), hashed)
        assert np.array_equal(arena._heads_at(arena.table_base[t], t, k), hashed)

        # Tail-first read, occupied-prefix hit pass, empty-chain skip: the
        # kernel's depths and value writes are the full-width pair pass's.
        if t.size:
            # In-batch repeats dropped after the group sort, only in groups
            # of several items: the order of a dedup sort, then a group sort.
            order = stable_argsort(hashed)
            group_heads, group = _groups(hashed[order])
            if group_heads.shape[0] < t.shape[0]:
                order, group = _last_occurrences(order, group, k)
            live = np.flatnonzero(last_occurrence_mask((t << 32) | k))
            want = live[stable_argsort(hashed[live])]
            assert np.array_equal(order, want)
            assert np.array_equal(group, _groups(hashed[want])[1])

            launch = launch_inputs(arena, t, k)
            values = np.arange(1, launch["k"].shape[0] + 1, dtype=np.uint32)
            got_values = pool.values.copy() if pool.weighted else None
            want_values = pool.values.copy() if pool.weighted else None
            assert np.array_equal(
                hit_pass(pool.keys, got_values, launch, values),
                full_width_hit_pass(pool.keys, want_values, launch, values),
            )
            if pool.weighted:
                assert np.array_equal(got_values, want_values)

        # The whole launch, duplicates and replaces included, against the
        # scalar chain walk fed each item's surviving occurrence.
        batched, scalar = copy.deepcopy(arena), copy.deepcopy(arena)
        v = np.arange(1, t.shape[0] + 1, dtype=np.int64)
        added = batched.insert(t, k, v if pool.weighted else None)
        last = {(ti, ki): i for i, (ti, ki) in enumerate(zip(t.tolist(), k.tolist()))}
        want = np.zeros(t.shape[0], dtype=bool)
        for i, (ti, ki) in enumerate(zip(t.tolist(), k.tolist())):
            if last[(ti, ki)] == i:
                want[i] = scalar.reference_insert_one(ti, ki, int(v[i]))
        assert np.array_equal(added, want)
        tables = arena.num_tables
        assert table_content(batched, tables) == table_content(scalar, tables)
        batched.check_invariants()

        ordered = np.sort(hashed)
        starts = group_starts(ordered)
        sizes = np.diff(np.append(starts, ordered.shape[0]))
        group_heads, group = _groups(ordered)
        assert np.array_equal(group_heads, ordered[starts])
        assert np.array_equal(group, np.repeat(np.arange(starts.shape[0]), sizes))
        misses = group[np.array(missed, dtype=bool)]
        count, rank = _ranks(misses, starts.shape[0])
        assert np.array_equal(count, np.bincount(misses, minlength=starts.shape[0]))
        assert np.array_equal(rank, ragged_arange(count))


    @pytest.mark.parametrize("weighted", [False, True])
    def test_one_key_tails_and_fresh_tables(self, weighted):
        """The narrowest prefix (one occupied lane) still matches, and a
        launch aimed only at fresh tables skips the pass: every item misses."""
        arena = SlabArena(4, weighted=weighted)
        arena.create_tables(np.arange(4), np.ones(4, dtype=np.int64))
        values = np.array([10, 20]) if weighted else None
        assert arena.insert(np.array([0, 1]), np.array([7, 9]), values).all()
        get_counters().reset()
        again = np.array([30, 40]) if weighted else None
        assert not arena.insert(np.array([0, 1]), np.array([7, 9]), again).any()
        assert counters_dict()["slab_reads"] == 2  # both hit in the head slab
        if weighted:
            assert table_content(arena, 2) == [(0, 7, 30), (1, 9, 40)]
        fresh = reference.insert_round_set(
            arena.pool.keys,
            arena.table_base[2:],
            np.arange(3),
            None,  # never read: no tail holds a key
            np.zeros(2, dtype=np.int64),
            np.array([0, 1]),
            np.array([7, 9], dtype=np.uint32),
        )
        assert fresh.tolist() == [0, 0]


# -- the launch creates its tables as creating them first would --------------------------


def composed_insert(graph, src, dst, w):
    """The insert path with table creation as a pass of its own before
    the launch: ``ensure_tables``, then the checked ``arena.insert``, then
    the edge counts.  Returns the launch's ``added`` mask."""
    if not graph.directed:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        w = None if w is None else np.concatenate([w, w])
    vd = graph._dict
    vd.ensure_tables(src)
    added = vd.arena.insert(src, dst, w)
    vd.add_edge_counts(src[added])
    return added


def folded_insert(graph, src, dst, w):
    """``edge_ops.insert_edges`` as it runs, its launch's ``added`` mask
    recorded."""
    arena, masks = graph._dict.arena, []
    launch = arena.insert

    def record(*args):
        masks.append(launch(*args))
        return masks[-1]

    arena.insert = record
    try:
        edge_ops.insert_edges(graph, src, dst, w)
    finally:
        del arena.insert
    (added,) = masks
    return added


def creation_state(graph):
    """Pool digest (free list included), table handles, hash
    coefficients and edge counts."""
    vd = graph._dict
    arena = vd.arena
    return (
        pool_digest(arena, arena.pool._free),
        arena.table_base.tolist(),
        arena.table_buckets.tolist(),
        arena.hash_family._a.tolist(),
        arena.hash_family._b.tolist(),
        vd.edge_count.tolist(),
        vd.total_edges(),
    )


@st.composite
def creation_cases(draw):
    """A directed or undirected, set or map graph of 48 ids after a bulk
    build (hubs 0 and 1 of twelve edges get several buckets at load
    factor 0.1) and vertex deletion (hub 1 and drawn ids keep empty
    tables), ids 40-47 untouched, and batches over it: a fixed one
    mixing kept, emptied and absent tables with in-batch repeats, drawn
    ones, and a last one whose every source lacks a table (offsets into
    the table-less ids, resolved when it runs)."""
    n = 48
    weighted, directed = draw(st.booleans()), draw(st.booleans())
    graph = DynamicGraph(n, weighted=weighted, directed=directed, load_factor=0.1)
    extra = draw(st.lists(st.tuples(st.integers(2, 15), st.integers(0, 23)), max_size=40))
    src = np.array([0] * 12 + [1] * 12 + [s for s, _ in extra], dtype=np.int64)
    dst = np.array(list(range(2, 26)) + [d for _, d in extra], dtype=np.int64)
    keep = src != dst
    graph.bulk_build(COO(src[keep], dst[keep], n, weights=np.arange(int(keep.sum()))))
    doomed = draw(st.lists(st.integers(2, 15), max_size=3))
    graph.delete_vertices([1] + doomed)
    rows = st.tuples(st.integers(0, 39), st.integers(0, 39), st.integers(0, 9))
    fixed = [(0, 5, 1), (0, 5, 2), (1, 6, 3), (30, 8, 4), (31, 9, 5), (30, 8, 6), (5, 2, 7)]
    batches = [fixed] + draw(st.lists(st.lists(rows, min_size=1, max_size=40), max_size=3))
    new = draw(st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99)), min_size=1, max_size=30))
    return graph, batches, new


class TestLaunchCreatesTables:
    @given(creation_cases())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_folded_creation_equals_creating_first(self, case):
        graph, batches, new = case
        arena = graph._dict.arena
        free = np.flatnonzero(arena.table_base == NULL_SLAB)
        assert free.size >= 8 and (arena.table_buckets[:2] > 1).all()
        for step, items in enumerate(batches + [None]):
            if items is None:  # every source without a table: the all-new launch
                free = np.flatnonzero(arena.table_base == NULL_SLAB)
                items = [(free[i % free.size], free[j % free.size], i) for i, j in new]
            s, d, w = (np.array(col, dtype=np.int64) for col in zip(*items))
            keep = s != d
            s, d, w = s[keep], d[keep], w[keep] if graph.weighted else None
            if not s.size:
                continue
            composed = copy.deepcopy(graph)
            get_counters().reset()
            want = composed_insert(composed, s, d, w)
            want_counters = counters_dict()
            get_counters().reset()
            got = folded_insert(graph, s, d, w)
            assert np.array_equal(got, want), step
            assert counters_dict() == want_counters, step
            assert creation_state(graph) == creation_state(composed), step
            arena.check_invariants()


# -- the search / delete probe round equals the form it replaced ---------------------------


def any_argmax_round(pool_keys, pool_values, cur, k):
    """The probe round before its one-compare form: a full hit matrix
    reduced with ``any``, a second full-width scan of the missed rows for
    an empty lane, and ``argmax`` over each hit row for its lane.  Returns
    ``(status, hits, lanes, values)``."""
    rows = pool_keys[cur]
    hit = rows == k[:, None]
    hit_any = hit.any(axis=1)
    status = np.full(cur.shape[0], reference.STATUS_ADVANCE, dtype=np.uint8)
    rest = np.flatnonzero(~hit_any)
    status[rest[(rows[rest] == np.uint32(EMPTY_KEY)).any(axis=1)]] = reference.STATUS_DONE
    hits = np.flatnonzero(hit_any)
    status[hits] = reference.STATUS_HIT
    lanes = hit[hits].argmax(axis=1)
    values = np.zeros(cur.shape[0], dtype=np.int64)
    if pool_values is not None:
        values[hits] = pool_values[cur[hits], lanes]
    return status, hits, lanes, values


def scalar_search(arena, table, key):
    """Chain-walking scalar search: ``(found, value, slabs read)``."""
    buckets = int(arena.table_buckets[table])
    slab = int(arena.table_base[table]) + arena.hash_family.bucket_single(table, key, buckets)
    pool, depth = arena.pool, 0
    while slab != NULL_SLAB:
        depth += 1
        row = pool.keys[slab]
        lanes = np.flatnonzero(row == np.uint32(key))
        if lanes.size:
            return True, int(pool.values[slab, lanes[0]]) if pool.weighted else 0, depth
        if (row == np.uint32(EMPTY_KEY)).any():
            break
        slab = int(pool.next_slab[slab])
    return False, 0, depth


class TestProbeShortcuts:
    @given(churned_arenas())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_each_shortcut_equals_the_form_it_replaced(self, case):
        arena, t, k, _ = case
        pool = arena.pool
        slabs = level_walk(pool.next_slab, bucket_head_slabs(arena))[0]
        rows = pool.keys[slabs]

        # The last-lane empty test is the full-row one on every live slab.
        empty = np.uint32(EMPTY_KEY)
        assert np.array_equal(rows[:, -1] == empty, (rows == empty).any(axis=1))

        # Every live slab probed for each key it holds — the sentinels,
        # repeated across its lanes, included — and for three more keys.
        extra = np.array([EMPTY_KEY, TOMBSTONE_KEY, MAX_KEY], dtype=np.uint32)
        k_probe = np.concatenate([rows, np.tile(extra, (slabs.shape[0], 1))], axis=1)
        cur = np.repeat(slabs, k_probe.shape[1])
        k_probe = k_probe.ravel()
        values = pool.values if pool.weighted else None
        status, hits, lanes, vals = any_argmax_round(pool.keys, values, cur, k_probe)
        got = reference._probe_round(pool.keys, cur, k_probe)
        for a, b in zip(got, (status, hits, lanes)):
            assert np.array_equal(a, b)
        assert got[0].dtype == np.uint8
        assert np.array_equal(reference.search_round_set(pool.keys, cur, k_probe), status)
        if pool.weighted:
            got_status, got_vals = reference.search_round_map(pool.keys, pool.values, cur, k_probe)
            assert np.array_equal(got_status, status) and np.array_equal(got_vals, vals)
        deleted, want = pool.keys.copy(), pool.keys.copy()
        assert np.array_equal(reference.delete_round(deleted, cur, k_probe), status)
        want[cur[hits], lanes] = np.uint32(TOMBSTONE_KEY)
        assert np.array_equal(deleted, want)

        # Whole launches, every item repeated, against scalar chain walks.
        t, k = np.concatenate([t, t[::-1]]), np.concatenate([k, k[::-1]])
        get_counters().reset()
        found, got_vals = arena.search(t, k)
        searched = counters_dict()
        walks = [scalar_search(arena, ti, ki) for ti, ki in zip(t.tolist(), k.tolist())]
        assert found.tolist() == [w[0] for w in walks]
        assert got_vals.tolist() == [w[1] for w in walks]
        depths = [w[2] for w in walks]
        assert searched["kernel_launches"] == int(t.size > 0)
        assert searched["slab_reads"] == sum(depths)
        assert searched["probe_rounds"] == max(depths, default=0)
        batched, scalar = copy.deepcopy(arena), copy.deepcopy(arena)
        removed = batched.delete(t, k)
        want = [scalar.reference_delete_one(ti, ki) for ti, ki in zip(t.tolist(), k.tolist())]
        assert removed.tolist() == want
        assert pool_digest(batched) == pool_digest(scalar)
        batched.check_invariants()


# -- the launch budget --------------------------------------------------------------------

#: Calls one 8-row ``Graph.insert_edges`` makes, counted at the ``repro``
#: function level (so NumPy's own internals never enter the count): the
#: ids are range-checked by the backend template (2) and by
#: ``SlabArena.insert`` (2); one group sort, which also finds in-batch
#: repeats (none sort again here: every source is its own group) and the
#: two sources without a table, whose tables the launch carves — no
#: ``create_tables``, no unique sort; one call of each kernel.  A
#: re-added pass changes a count here, visibly.
LAUNCH_BUDGET = {
    ("util/validation.py", "check_in_range"): 4,
    ("util/validation.py", "checked_ids"): 1,
    ("util/groupby.py", "stable_argsort"): 1,
    ("util/groupby.py", "sorted_unique"): 0,
    ("kernels/reference.py", "walk_chains"): 1,
    ("kernels/reference.py", "read_tails"): 1,
    ("kernels/reference.py", "insert_round_set"): 1,
    ("kernels/reference.py", "fill_lanes"): 1,
    ("slabhash/arena.py", "insert"): 1,
    ("slabhash/arena.py", "_carve"): 1,
    ("slabhash/arena.py", "create_tables"): 0,
    ("core/vertex_dict.py", "ensure_tables"): 0,
}

#: Calls one 8-row ``Graph.edge_exists`` makes on the same graph: the ids
#: are range-checked by the backend template (2) and once by the launch
#: (2); the table bases are gathered once and the heads derived from that
#: gather (``_heads_at``, never ``bucket_heads``' second gather); every
#: chain is one slab, so the walk is one round: one probe, one kernel call.
SEARCH_BUDGET = {
    ("util/validation.py", "check_in_range"): 4,
    ("util/validation.py", "checked_ids"): 1,
    ("slabhash/arena.py", "bucket_heads"): 0,
    ("slabhash/arena.py", "_heads_at"): 1,
    ("slabhash/search.py", "probe_chains"): 1,
    ("kernels/reference.py", "_probe_round"): 1,
    ("kernels/reference.py", "search_round_set"): 1,
}

#: Calls one 8-row ``Graph.delete_edges`` makes on the same graph: the
#: search's checks, gather and round, plus the facade's normalisation
#: checks and the launch's one dedup sort of (table, key) pairs.
DELETE_BUDGET = {
    ("util/validation.py", "check_in_range"): 4,
    ("util/validation.py", "checked_ids"): 1,
    ("util/groupby.py", "first_occurrence_mask"): 1,
    ("slabhash/arena.py", "bucket_heads"): 0,
    ("slabhash/arena.py", "_heads_at"): 1,
    ("slabhash/search.py", "probe_chains"): 1,
    ("kernels/reference.py", "_probe_round"): 1,
    ("kernels/reference.py", "delete_round"): 1,
}

#: Calls one ``Graph.delete_vertices`` of four ids (one repeat, one with a
#: table, one only a destination, one never used) makes on the same
#: directed graph: the facade and the backend template each check the ids
#: (2); one unique sort of the doomed ids and one in ``zero_edge_counts``;
#: one sweep of every other table for references (a chain walk, a lane
#: read) and one walk to clear the doomed tables; one delete launch for
#: the reference found, and one scatter each into the edge counters.  A
#: re-added per-vertex pass changes a count here.
DELETE_VERTICES_BUDGET = {
    ("util/validation.py", "check_in_range"): 5,
    ("util/validation.py", "checked_ids"): 1,
    ("util/groupby.py", "sorted_unique"): 2,
    ("util/groupby.py", "first_occurrence_mask"): 2,
    ("slabhash/iterate.py", "iterate_tables"): 1,
    ("slabhash/iterate.py", "collect_table_slabs"): 2,
    ("slabhash/iterate.py", "live_lanes"): 1,
    ("kernels/reference.py", "walk_chains"): 2,
    ("slabhash/arena.py", "clear_tables"): 1,
    ("slabhash/arena.py", "delete"): 1,
    ("kernels/reference.py", "_probe_round"): 1,
    ("kernels/reference.py", "delete_round"): 1,
    ("core/vertex_dict.py", "sub_edge_counts"): 1,
    ("core/vertex_dict.py", "zero_edge_counts"): 1,
}


#: Calls one small ``Graph.bulk_build`` makes: one placement pass — no
#: insert launch, no chain walk, no tail read, no hit pass — whose one
#: ``refill_chains`` writes every chain as whole rows.
BULK_BUILD_BUDGET = {
    ("slabhash/insert.py", "refill_chains"): 1,
    ("slabhash/insert.py", "insert_batch"): 0,
    ("kernels/reference.py", "walk_chains"): 0,
    ("kernels/reference.py", "read_tails"): 0,
    ("kernels/reference.py", "insert_round_map"): 0,
    ("kernels/reference.py", "insert_round_set"): 0,
    ("kernels/reference.py", "fill_rows"): 1,
}


def budgeted_calls(budget, call, *args):
    """Run ``call(*args)`` under cProfile; count its calls of the
    functions ``budget`` names (0 for one never called)."""
    profile = cProfile.Profile()
    profile.runcall(call, *args)
    calls = dict.fromkeys(budget, 0)
    for (filename, _, name), (_, ncalls, _, _, _) in pstats.Stats(profile).stats.items():
        path = filename.replace("\\", "/")
        for file, func in budget:
            if name == func and path.endswith("repro/" + file):
                calls[(file, func)] += ncalls
    return calls


def repro_calls(call, *args):
    """Python-level calls ``call(*args)`` makes into functions under
    ``repro`` (itself included), counted by cProfile."""
    profile = cProfile.Profile()
    profile.runcall(call, *args)
    calls = 0
    for (filename, _, _), (_, ncalls, _, _, _) in pstats.Stats(profile).stats.items():
        if "/repro/" in filename.replace("\\", "/"):
            calls += ncalls
    return calls


#: Calls into ``repro`` functions one 512-row insert on the warmed graph
#: makes — NumPy's own Python functions are not counted, so the pin does
#: not move with its version.  A re-added helper, check or pass moves it.
INSERT_512_CALLS = 77


def warmed_graph():
    g = Graph.create("slabhash", 1024)
    for shift in (100, 300):  # warm: sources 0..99 own two-key one-slab tables
        g.insert_edges(np.arange(100), np.arange(100) + shift)
    return g


class TestLaunchBudget:
    def test_a_small_insert_makes_the_budgeted_calls(self):
        g = warmed_graph()
        src = np.array([0, 1, 2, 3, 4, 5, 500, 501])  # two sources have no table yet
        dst = np.array([7, 8, 9, 10, 11, 12, 13, 14])
        assert budgeted_calls(LAUNCH_BUDGET, g.insert_edges, src, dst) == LAUNCH_BUDGET
        assert g.num_edges() == 208

    def test_a_512_row_insert_makes_the_pinned_number_of_repro_calls(self):
        g = warmed_graph()
        rng = np.random.default_rng(512)
        src, dst = rng.integers(0, 200, 512), rng.integers(0, 1024, 512)  # half have tables
        assert repro_calls(g.insert_edges, src, dst) == INSERT_512_CALLS
        warm = [np.arange(100) << 32 | np.arange(100) + shift for shift in (100, 300)]
        assert g.num_edges() == np.union1d(np.concatenate(warm), (src << 32 | dst)[src != dst]).size

    # Two hits, three misses in a table, one repeat, two sources without a table.
    QUERY = (np.array([0, 1, 2, 3, 4, 0, 500, 501]), np.array([100, 301, 9, 10, 11, 100, 13, 14]))

    def test_a_small_search_makes_the_budgeted_calls(self):
        g = warmed_graph()
        get_counters().reset()
        calls = budgeted_calls(SEARCH_BUDGET, g.edge_exists, *self.QUERY)
        assert calls == SEARCH_BUDGET
        assert counters_dict()["probe_rounds"] == calls[("kernels/reference.py", "_probe_round")]
        assert np.flatnonzero(g.edge_exists(*self.QUERY)).tolist() == [0, 1, 5]

    def test_a_small_delete_makes_the_budgeted_calls(self):
        g = warmed_graph()
        get_counters().reset()
        calls = budgeted_calls(DELETE_BUDGET, g.delete_edges, *self.QUERY)
        assert calls == DELETE_BUDGET
        assert counters_dict()["probe_rounds"] == calls[("kernels/reference.py", "_probe_round")]
        assert g.num_edges() == 198

    def test_a_small_bulk_build_places_once(self):
        g = Graph.create("slabhash", 1024, load_factor=4.0)
        # A repeat, a self-loop, and a hub whose 40 keys spill past its one
        # bucket's slab (sized for 120 at this load factor).
        src = np.concatenate([[0, 1, 1, 2, 3], np.full(40, 4)])
        dst = np.concatenate([[7, 8, 8, 2, 9], np.arange(100, 140)])
        calls = budgeted_calls(BULK_BUILD_BUDGET, g.bulk_build, COO(src, dst, 1024))
        assert calls == BULK_BUILD_BUDGET
        assert g.num_edges() == 43
        assert g.degree([4]).tolist() == [40]
        stats = g.backend.stats()
        assert (stats.num_buckets, stats.num_slabs) == (4, 5)  # one slab linked

    def test_a_small_vertex_delete_makes_the_budgeted_calls(self):
        g = warmed_graph()
        doomed = np.array([3, 150, 3, 500])  # 3 owns two edges; 50 -> 150 is one
        calls = budgeted_calls(DELETE_VERTICES_BUDGET, g.delete_vertices, doomed)
        assert calls == DELETE_VERTICES_BUDGET
        assert g.num_edges() == 197
        assert not g.edge_exists([3, 50], [103, 150]).any()
