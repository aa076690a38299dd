"""The maintenance passes against the compositions they replaced.

``flush_tombstones``, ``rehash_vertices``, the iterator and the directed
vertex-deletion sweep used to be compositions of the public arena calls
(``iterate`` -> ``clear_tables`` -> ``insert`` and friends).  Those
compositions live on here as oracles: the array passes must leave the same
pool bits, free list, table metadata and ``gpusim`` charges.  The file also
holds the regression tests for the repeated-id double free.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Graph
from repro.api import ShardedGraph
from repro.core import DynamicGraph
from repro.core.rehash import rehash_vertices
from repro.gpusim.counters import counting, get_counters
from repro.slabhash.arena import SlabArena
from repro.slabhash.constants import EMPTY_KEY, TOMBSTONE_KEY

NUM_TABLES = 7
LOAD_FACTORS = (0.3, 0.7, 1.0)


# -- oracles: the old compositions, from public calls only --------------------------


def distinct(ids):
    ids = np.asarray(ids, dtype=np.int64)
    return ids[np.sort(np.unique(ids, return_index=True)[1])]


def oracle_flush(arena, ids):
    ids = distinct(ids)
    owners, keys, values = arena.iterate(ids)
    arena.clear_tables(ids)
    if keys.size:
        arena.insert(ids[owners], keys, values if arena.pool.weighted else None)


def oracle_rehash(arena, ids, load_factor):
    ids = distinct(ids)
    if ids.size == 0:
        return
    owners, keys, values = arena.iterate(ids)
    slab_ids, _ = arena.table_slabs(ids)
    arena.pool.free(slab_ids)
    arena.table_base[ids] = -1
    arena.table_buckets[ids] = 0
    degrees = np.bincount(owners, minlength=ids.size)
    lanes = arena.pool.lane_capacity
    arena.create_tables(ids, SlabArena.buckets_for(np.maximum(degrees, 1), load_factor, lanes))
    if keys.size:
        arena.insert(ids[owners], keys, values if arena.pool.weighted else None)


def oracle_iterate(arena, ids):
    """The parent's iterator: two compares and a slabs x lanes owner matrix."""
    slab_ids, owner_pos = arena.table_slabs(ids)
    get_counters().slab_reads += int(slab_ids.size)
    pool = arena.pool
    rows = pool.keys[slab_ids]
    live = (rows != np.uint32(EMPTY_KEY)) & (rows != np.uint32(TOMBSTONE_KEY))
    owners = np.repeat(owner_pos, pool.lane_capacity).reshape(rows.shape)[live]
    keys = rows[live].astype(np.int64)
    if pool.weighted:
        return owners, keys, pool.values[slab_ids][live].astype(np.int64)
    return owners, keys, np.zeros(keys.shape[0], dtype=np.int64)


def oracle_delete_vertices(graph, ids):
    """The parent's ``delete_vertices``: every live edge materialised."""
    ids = np.unique(np.asarray(ids, dtype=np.int64))
    vd = graph._dict
    graph._bump_version()
    get_counters().atomics += int(ids.size)
    if graph.directed:
        tables = np.flatnonzero(vd.arena.table_base != -1)
        tables = tables[~np.isin(tables, ids)]
        owners, keys, _ = vd.arena.iterate(tables)
        hit = np.isin(keys, ids)
        tables, keys = tables[owners[hit]], keys[hit]
    else:
        owners, tables, _ = vd.arena.iterate(ids)
        keys = ids[owners]
    total = 0
    if keys.size:
        removed = vd.arena.delete(tables, keys)
        if removed.any():
            vd.sub_edge_counts(tables[removed])
        total = int(removed.sum())
    vd.arena.clear_tables(ids)
    total += vd.zero_edge_counts(ids)
    return total


def arena_state(arena):
    pool = arena.pool
    state = {
        "keys": pool.keys.copy(),
        "next": pool.next_slab.copy(),
        "free": pool._free.copy(),
        "bump": np.array([pool._bump]),
        "base": arena.table_base.copy(),
        "buckets": arena.table_buckets.copy(),
    }
    if pool.weighted:
        state["values"] = pool.values.copy()
    return state


def assert_same_arena(got, expected):
    a, b = arena_state(got), arena_state(expected)
    for name in b:
        assert np.array_equal(a[name], b[name]), name


# -- the hypothesis churn -------------------------------------------------------------

table_ids = st.integers(0, NUM_TABLES - 1)
key_runs = st.tuples(table_ids, st.integers(0, 300), st.integers(1, 120))
steps = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), key_runs),
        st.tuples(st.just("delete"), key_runs),
        st.tuples(st.just("clear"), table_ids),
        st.tuples(st.just("flush"), st.lists(table_ids, max_size=NUM_TABLES + 2)),
        st.tuples(
            st.just("rehash"),
            st.tuples(st.lists(table_ids, max_size=NUM_TABLES + 2), st.sampled_from(LOAD_FACTORS)),
        ),
    ),
    max_size=10,
)


def churned_arena(weighted, buckets):
    """Multi-bucket tables, one never created per zero in ``buckets``,
    chains of two to eight slabs with tombstones, and recycled slabs
    waiting on the free list."""
    arena = SlabArena(NUM_TABLES, weighted=weighted)
    made = np.flatnonzero(buckets)
    arena.create_tables(made, np.asarray(buckets)[made])
    zeros = np.zeros(110, dtype=np.int64)
    arena.insert(zeros + made[0], np.arange(110), np.arange(110) if weighted else None)
    arena.insert(zeros + made[1], np.arange(110), np.arange(110) if weighted else None)
    arena.clear_tables(made[1:2])
    arena.delete(zeros[:40] + made[0], np.arange(0, 80, 2))
    assert arena.pool._free.size >= 1
    return arena


def apply(arena, step, maintain):
    kind, arg = step
    if kind in ("insert", "delete"):
        table, lo, n = arg
        if arena.table_base[table] == -1:
            return
        keys = np.arange(lo, lo + n)
        tables = np.full(n, table)
        if kind == "insert":
            arena.insert(tables, keys, keys * 3 if arena.pool.weighted else None)
        else:
            arena.delete(tables, keys)
    elif kind == "clear":
        arena.clear_tables(np.array([arg]))
    else:
        maintain(arena, kind, arg)


def new_passes(arena, kind, arg):
    if kind == "flush":
        arena.flush_tombstones(np.asarray(arg, dtype=np.int64))
        return
    ids, load_factor = arg
    graph = SimpleNamespace(_dict=SimpleNamespace(arena=arena), load_factor=0.7)
    assert rehash_vertices(graph, np.asarray(ids, dtype=np.int64), load_factor) == len(set(ids))


def old_compositions(arena, kind, arg):
    if kind == "flush":
        oracle_flush(arena, arg)
    else:
        oracle_rehash(arena, *arg)


@given(
    st.booleans(),
    st.lists(st.integers(0, 3), min_size=NUM_TABLES, max_size=NUM_TABLES).filter(
        lambda b: sum(1 for x in b if x) >= 2
    ),
    steps,
    st.sampled_from(["flush", "rehash"]),
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_flush_and_rehash_equal_the_old_composition(weighted, buckets, script, last):
    everything = list(range(NUM_TABLES)) + [0]
    script = script + [(last, everything if last == "flush" else (everything, 0.7))]
    got, expected = churned_arena(weighted, buckets), churned_arena(weighted, buckets)
    for step in script:
        with counting() as new_charges:
            apply(got, step, new_passes)
        with counting() as old_charges:
            apply(expected, step, old_compositions)
        assert new_charges == old_charges, step
        assert_same_arena(got, expected)
        if step[0] in ("flush", "rehash"):
            ids = step[1] if step[0] == "flush" else step[1][0]
            got.check_invariants(dense=np.asarray(ids, dtype=np.int64))


@given(st.booleans(), steps, st.lists(table_ids, max_size=NUM_TABLES + 2))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_iterator_equals_the_parents(weighted, script, ids):
    arena = churned_arena(weighted, [1, 2, 3, 0, 1, 0, 2])
    for step in script:
        apply(arena, step, new_passes)
    ids = np.asarray(ids, dtype=np.int64)  # repeats are legal here: entries come back per position
    with counting() as new_charges:
        got = arena.iterate(ids)
    with counting() as old_charges:
        expected = oracle_iterate(arena, ids)
    assert new_charges == old_charges
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@given(
    st.booleans(),
    st.booleans(),
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(0, 39), min_size=1, max_size=8),
)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_vertex_deletion_equals_the_parents(directed, weighted, seed, doomed):
    def build():
        rng = np.random.default_rng(seed)
        g = DynamicGraph(num_vertices=40, directed=directed, weighted=weighted)
        src, dst = rng.integers(0, 40, 900), rng.integers(0, 40, 900)
        g.insert_edges(src, dst, rng.integers(0, 99, 900) if weighted else None)
        g.delete_edges(src[:200], dst[:200])
        return g

    got, expected = build(), build()
    with counting() as new_charges:
        removed = got.delete_vertices(doomed)
    with counting() as old_charges:
        removed_before = oracle_delete_vertices(expected, doomed)
    assert removed == removed_before
    assert new_charges == old_charges
    assert_same_arena(got._dict.arena, expected._dict.arena)
    assert np.array_equal(got._dict.edge_count, expected._dict.edge_count)


# -- repeated ids must not free a slab twice ------------------------------------------


def assert_free_once(arena):
    free = arena.pool._free
    assert np.unique(free).size == free.size, free.tolist()


def grow_two_hot_vertices(g, first, second):
    """Growth that takes slabs from the free list: with a slab on it twice
    the two vertices end up sharing one."""
    g.insert_edges(np.full(60, first), np.arange(100, 160))
    g.insert_edges(np.full(60, second), np.arange(200, 260))


class TestRepeatedIdsFreeOnce:
    def hot_graph(self):
        g = Graph.create("slabhash", 400)
        g.insert_edges(np.zeros(100, np.int64), np.arange(1, 101))  # a 4-slab chain
        g.delete_edges(np.zeros(50, np.int64), np.arange(1, 51))
        return g, g.backend._dict.arena

    def test_graph_flush(self):
        g, arena = self.hot_graph()
        g.flush_tombstones([0, 0])
        assert sorted(arena.pool._free.tolist()) == [1, 2]
        arena.check_invariants(dense=[0])
        grow_two_hot_vertices(g, 1, 2)
        assert g.num_edges() == g.export_coo().num_edges == 170

    def test_graph_rehash_counts_distinct_tables(self):
        g, arena = self.hot_graph()
        assert g.rehash([0, 0, 5]) == 2
        assert_free_once(arena)
        arena.check_invariants(dense=[0, 5])
        grow_two_hot_vertices(g, 1, 2)
        assert g.num_edges() == g.export_coo().num_edges == 170

    def test_distinct_ids_behave_as_before(self):
        (a, arena_a), (b, arena_b) = self.hot_graph(), self.hot_graph()
        a.flush_tombstones([0, 0, 7, 0])
        b.flush_tombstones([0, 7])
        assert_same_arena(arena_a, arena_b)
        assert a.rehash([7, 0, 7]) == b.rehash([7, 0]) == 2
        assert_same_arena(arena_a, arena_b)

    def test_clear_tables(self):
        _, arena = self.hot_graph()
        arena.clear_tables(np.array([0, 0]))
        assert sorted(arena.pool._free.tolist()) == [1, 2, 3]

    def test_slab_hash_map_flush(self):
        """A standalone map: a one-table, one-bucket weighted arena."""
        arena = SlabArena(1, weighted=True)
        arena.create_tables(np.array([0]), np.array([1]))
        table = np.zeros(60, dtype=np.int64)
        arena.insert(table, np.arange(60), np.arange(60) * 2)
        arena.delete(table[:30], np.arange(0, 60, 2))
        arena.flush_tombstones(np.array([0, 0]))
        assert_free_once(arena)
        arena.check_invariants(dense=[0])
        arena.flush_tombstones(np.array([0]))
        arena.check_invariants(dense=[0])
        arena.insert(table, np.arange(100, 160), np.arange(60))
        _, keys, values = arena.iterate(np.array([0]))
        assert dict(zip(keys.tolist(), values.tolist())) == {
            **{k: 2 * k for k in range(1, 60, 2)},
            **{100 + k: k for k in range(60)},
        }

    def test_sharded_graph(self):
        sg = ShardedGraph.create("slabhash", 400, num_shards=2)
        sg.insert_edges(np.zeros(100, np.int64), np.arange(1, 101))
        sg.delete_edges(np.zeros(50, np.int64), np.arange(1, 51))
        shard = sg.shards[int(sg.partitioner.shard_of(np.array([0]))[0])]
        arena = shard.backend._dict.arena
        shard.flush_tombstones([0, 0])
        assert_free_once(arena)
        assert shard.rehash([0, 0]) == 1
        assert_free_once(arena)
        arena.check_invariants(dense=[0])
        grow_two_hot_vertices(sg, 2, 4)
        assert sg.num_edges() == sg.export_coo().num_edges == 170


def test_dense_check_trips_on_a_tombstone_and_on_a_spare_slab():
    arena = SlabArena(2, weighted=False)
    arena.create_tables(np.arange(2), np.array([1, 1]))
    arena.insert(np.zeros(45, np.int64), np.arange(45))
    arena.delete(np.zeros(15, np.int64), np.arange(15))
    arena.check_invariants()
    arena.check_invariants(dense=[1])
    with pytest.raises(AssertionError, match="dense"):
        arena.check_invariants(dense=[0])
    arena.flush_tombstones(np.array([0]))
    arena.check_invariants(dense=[0, 1])
    # 30 live keys fill one slab; link a second, wholly empty one.
    arena.pool.next_slab[arena.table_base[0]] = arena.pool.allocate(1)[0]
    arena.check_invariants()
    with pytest.raises(AssertionError, match="dense"):
        arena.check_invariants(dense=[0])
