"""Tests for the multi-table slab arena: lifecycle, kernels, memory."""

import copy

import numpy as np
import pytest

from repro.core import DynamicGraph
from repro.core.vertex_dict import VertexDictionary
from repro.gpusim.counters import counting
from repro.slabhash.arena import SlabArena
from repro.slabhash.constants import (
    EMPTY_KEY,
    NULL_SLAB,
    SLAB_KEY_CAPACITY,
    TOMBSTONE_KEY,
)
from repro.slabhash.stats import chain_lengths, compute_stats, live_counts
from repro.util.errors import ValidationError


def make_arena(num_tables=8, weighted=True, buckets=2):
    arena = SlabArena(num_tables, weighted=weighted)
    ids = np.arange(num_tables)
    arena.create_tables(ids, np.full(num_tables, buckets))
    return arena


class TestLifecycle:
    def test_create_tables_contiguous_bases(self):
        arena = SlabArena(3, weighted=False)
        arena.create_tables(np.array([0, 1, 2]), np.array([2, 3, 1]))
        bases = arena.table_base
        # Buckets are carved from one contiguous reservation.
        assert bases[1] == bases[0] + 2
        assert bases[2] == bases[1] + 3

    def test_create_existing_rejected(self):
        arena = make_arena()
        with pytest.raises(ValidationError):
            arena.create_tables(np.array([0]), np.array([1]))

    def test_repeated_id_rejected_before_any_slab_is_carved(self):
        """A repeated id used to carve both runs and keep the second,
        orphaning the first run's slabs."""
        arena = SlabArena(8, weighted=False)
        with pytest.raises(ValidationError, match="more than once"):
            arena.create_tables(np.array([1, 1]), np.array([2, 3]))
        assert arena.pool._bump == 0
        assert not arena.has_table(np.array([1]))[0]
        with pytest.raises(ValidationError, match="more than once"):
            arena.create_tables(np.array([5, 2, 5]), np.array([1, 1, 1]))
        assert arena.pool._bump == 0
        arena.create_tables(np.array([5, 2]), np.array([1, 2]))  # unsorted, distinct
        arena.check_invariants()

    def test_zero_buckets_rejected(self):
        arena = SlabArena(2, weighted=True)
        with pytest.raises(ValidationError):
            arena.create_tables(np.array([0]), np.array([0]))

    def test_grow_tables(self):
        arena = make_arena(4)
        arena.insert(np.array([1]), np.array([77]), np.array([5]))
        arena.grow_tables(16)
        assert arena.num_tables == 16
        found, vals = arena.search(np.array([1]), np.array([77]))
        assert found[0] and vals[0] == 5
        assert not arena.has_table(np.array([12]))[0]

    def test_buckets_for(self):
        out = SlabArena.buckets_for([0, 1, 15, 16, 150], 0.7, 15)
        # ceil(d / 10.5), minimum 1
        assert out.tolist() == [1, 1, 2, 2, 15]


class TestKernels:
    def test_insert_search_roundtrip_across_tables(self):
        arena = make_arena(10)
        t = np.repeat(np.arange(10), 20)
        k = np.tile(np.arange(20), 10)
        v = np.arange(200)
        added = arena.insert(t, k, v)
        assert added.sum() == 200  # same key in different tables is distinct
        found, vals = arena.search(t, k)
        assert found.all() and np.array_equal(vals, v)

    def test_search_missing_table(self):
        arena = SlabArena(4, weighted=True)
        arena.create_tables(np.array([0]), np.array([1]))
        found, _ = arena.search(np.array([3]), np.array([1]))
        assert not found[0]

    def test_insert_creates_missing_table(self):
        """A table id without a table gets a one-bucket table (Section
        III-b) and no hash coefficients, on the slab ids that creating it
        first and then inserting gives."""
        folded = SlabArena(8, weighted=True)
        folded.create_tables(np.array([1, 4]), np.array([3, 1]))
        folded.insert(np.array([1, 4]), np.array([5, 6]), np.array([1, 2]))
        composed = copy.deepcopy(folded)
        t = np.array([6, 1, 2, 6, 4, 2])
        k, v = np.array([9, 7, 9, 8, 6, 9]), np.arange(6)
        added = folded.insert(t, k, v)
        assert folded.table_buckets[[2, 6]].tolist() == [1, 1]
        assert not folded.hash_family._a[[2, 6]].any() and not folded.hash_family._b[[2, 6]].any()
        composed.create_tables(np.array([2, 6]), np.ones(2, dtype=np.int64))
        assert np.array_equal(added, composed.insert(t, k, v))
        assert added.tolist() == [True, True, False, True, False, True]
        for arena in (folded, composed):
            arena.check_invariants()
        assert np.array_equal(folded.table_base, composed.table_base)
        assert np.array_equal(folded.pool.next_slab, composed.pool.next_slab)
        assert np.array_equal(folded.pool.keys, composed.pool.keys)
        assert np.array_equal(folded.pool.values, composed.pool.values)
        _, vals = folded.search(np.array([2, 4]), np.array([9, 6]))
        assert vals.tolist() == [5, 4]

    @pytest.mark.parametrize("table", [-1, 8])
    def test_reference_insert_refuses_out_of_range_table(self, table):
        """The scalar spec creates a missing table only for an id in range:
        a negative id must not wrap to the last table."""
        arena = SlabArena(8, weighted=True)
        with pytest.raises(ValidationError):
            arena.reference_insert_one(table, 3, 1)
        assert (arena.table_base == NULL_SLAB).all() and arena.pool._bump == 0
        g = DynamicGraph(8, weighted=True)
        with pytest.raises(ValidationError):
            g.reference_replace(table, 3, 1)
        assert (g._dict.arena.table_base == NULL_SLAB).all()

    def test_delete_missing_table_is_noop(self):
        arena = SlabArena(4, weighted=True)
        removed = arena.delete(np.array([2]), np.array([1]))
        assert not removed[0]

    def test_batch_dedup_last_wins(self):
        arena = make_arena(2)
        added = arena.insert(np.array([0, 0, 0]), np.array([5, 5, 5]), np.array([1, 2, 3]))
        assert added.sum() == 1
        _, vals = arena.search(np.array([0]), np.array([5]))
        assert vals[0] == 3

    def test_duplicate_deletes_count_once(self):
        arena = make_arena(2)
        arena.insert(np.array([0]), np.array([5]), np.array([1]))
        removed = arena.delete(np.array([0, 0]), np.array([5, 5]))
        assert removed.sum() == 1

    def test_iterate(self):
        arena = make_arena(3)
        arena.insert(np.array([0, 0, 2]), np.array([1, 2, 9]), np.array([5, 6, 7]))
        owners, keys, vals = arena.iterate(np.array([0, 2]))
        got = sorted(zip(owners.tolist(), keys.tolist(), vals.tolist()))
        assert got == [(0, 1, 5), (0, 2, 6), (1, 9, 7)]

    def test_empty_batches(self):
        arena = make_arena(2)
        assert arena.insert([], [], []).size == 0
        assert arena.delete([], []).size == 0
        found, vals = arena.search([], [])
        assert found.size == 0 and vals.size == 0

    def test_key_range_checked(self):
        arena = make_arena(2)
        with pytest.raises(ValidationError):
            arena.insert(np.array([0]), np.array([EMPTY_KEY]), np.array([0]))
        with pytest.raises(ValidationError):
            arena.insert(np.array([0]), np.array([TOMBSTONE_KEY]), np.array([0]))

    def test_set_arena_has_no_values(self):
        arena = SlabArena(2, weighted=False)
        arena.create_tables(np.array([0]), np.array([1]))
        arena.insert(np.array([0]), np.array([3]))
        with pytest.raises(ValidationError):
            _ = arena.pool.values


class TestMemory:
    def test_overflow_allocates_slabs(self):
        arena = SlabArena(1, weighted=False)
        arena.create_tables(np.array([0]), np.array([1]))
        base_allocated = arena.pool.num_allocated
        arena.insert(np.zeros(100, np.int64), np.arange(100))
        assert arena.pool.num_allocated > base_allocated

    def test_clear_tables_frees_overflow_keeps_base(self):
        arena = SlabArena(1, weighted=False)
        arena.create_tables(np.array([0]), np.array([2]))
        arena.insert(np.zeros(200, np.int64), np.arange(200))
        with counting() as delta:
            arena.clear_tables(np.array([0]))
        assert delta["slabs_freed"] > 0
        assert arena.pool.num_allocated == 2  # just the base slabs
        owners, keys, _ = arena.iterate(np.array([0]))
        assert keys.size == 0
        # Table is reusable after clearing.
        arena.insert(np.array([0]), np.array([9]))
        found, _ = arena.search(np.array([0]), np.array([9]))
        assert found[0]

    def test_freed_slabs_recycled(self):
        arena = SlabArena(1, weighted=False)
        arena.create_tables(np.array([0]), np.array([1]))
        arena.insert(np.zeros(200, np.int64), np.arange(200))
        bump_after_fill = arena.pool._bump
        arena.clear_tables(np.array([0]))
        arena.insert(np.zeros(200, np.int64), np.arange(200))
        # Refilling reuses recycled slabs instead of fresh bump space.
        assert arena.pool._bump == bump_after_fill

    def test_allocated_bytes(self):
        arena = make_arena(2, buckets=3)
        assert arena.pool.allocated_bytes == 2 * 3 * 128


class TestStats:
    def test_live_counts_and_chains(self):
        arena = SlabArena(3, weighted=False)
        arena.create_tables(np.arange(3), np.array([1, 1, 1]))
        arena.insert(np.zeros(45, np.int64), np.arange(45))  # 45 keys: 2 slabs
        arena.insert(np.full(5, 2, np.int64), np.arange(5))
        ids = np.arange(3)
        assert live_counts(arena, ids).tolist() == [45, 0, 5]
        chains = chain_lengths(arena, ids)
        assert chains[0] == 2 and chains[2] == 1

    def test_compute_stats_utilization(self):
        arena = SlabArena(1, weighted=False)
        arena.create_tables(np.array([0]), np.array([1]))
        arena.insert(np.zeros(SLAB_KEY_CAPACITY, np.int64), np.arange(SLAB_KEY_CAPACITY))
        st = compute_stats(arena, np.array([0]))
        assert st.memory_utilization == pytest.approx(1.0)
        assert st.live_entries == SLAB_KEY_CAPACITY
        assert st.num_slabs == 1
        assert st.mean_bucket_load == pytest.approx(1.0)

    def test_tombstones_counted(self):
        arena = make_arena(1, buckets=1)
        arena.insert(np.zeros(10, np.int64), np.arange(10), np.arange(10))
        arena.delete(np.zeros(4, np.int64), np.arange(4))
        st = compute_stats(arena, np.array([0]))
        assert st.tombstones == 4
        assert st.live_entries == 6


class TestTombstoneSemantics:
    def test_tombstones_not_overwritten(self):
        """Inserts append past tombstones; lanes are reclaimed only by an
        explicit flush (Section IV-C2)."""
        arena = SlabArena(1, weighted=False)
        arena.create_tables(np.array([0]), np.array([1]))
        arena.insert(np.zeros(10, np.int64), np.arange(10))
        arena.delete(np.zeros(5, np.int64), np.arange(5))
        arena.insert(np.zeros(5, np.int64), np.arange(100, 105))
        base = int(arena.table_base[0])
        row = arena.pool.keys[base]
        # The first five lanes are tombstones, not the new keys.
        assert (row[:5] == np.uint32(TOMBSTONE_KEY)).all()
        owners, keys, _ = arena.iterate(np.array([0]))
        assert sorted(keys.tolist()) == [5, 6, 7, 8, 9, 100, 101, 102, 103, 104]

    def test_flush_restores_density(self):
        arena = SlabArena(1, weighted=True)
        arena.create_tables(np.array([0]), np.array([1]))
        arena.insert(np.zeros(30, np.int64), np.arange(30), np.arange(30) * 2)
        arena.delete(np.zeros(15, np.int64), np.arange(15))
        arena.flush_tombstones(np.array([0]))
        arena.check_invariants(dense=[0])
        st = compute_stats(arena, np.array([0]))
        assert st.tombstones == 0
        assert st.live_entries == 15
        owners, keys, vals = arena.iterate(np.array([0]))
        assert dict(zip(keys.tolist(), vals.tolist())) == {k: 2 * k for k in range(15, 30)}


def check_tail_invariant(arena, table_ids):
    """Assert 'empties only at chain tails': a slab containing an EMPTY lane
    terminates its chain's data, and empty lanes form a suffix of it."""
    slab_ids, _ = arena.table_slabs(np.asarray(table_ids))
    for slab in slab_ids.tolist():
        row = arena.pool.keys[slab]
        empty = row == np.uint32(EMPTY_KEY)
        if empty.any():
            first = int(np.argmax(empty))
            assert empty[first:].all(), f"slab {slab}: EMPTY lane not a suffix"
            nxt = int(arena.pool.next_slab[slab])
            if nxt != NULL_SLAB:
                nrow = arena.pool.keys[nxt]
                assert (nrow == np.uint32(EMPTY_KEY)).all(), (
                    f"slab {slab}: live data beyond an EMPTY lane"
                )


class TestTailInvariant:
    def test_after_mixed_workload(self):
        rng = np.random.default_rng(11)
        arena = SlabArena(6, weighted=True)
        arena.create_tables(np.arange(6), np.array([1, 1, 2, 2, 3, 3]))
        for _ in range(10):
            t = rng.integers(0, 6, 300)
            k = rng.integers(0, 200, 300)
            arena.insert(t, k, rng.integers(0, 50, 300))
            td = rng.integers(0, 6, 150)
            kd = rng.integers(0, 200, 150)
            arena.delete(td, kd)
            check_tail_invariant(arena, np.arange(6))


def break_arena(weighted=False):
    """A small valid arena with one two-slab chain and a freed slab."""
    arena = SlabArena(3, weighted=weighted)
    arena.create_tables(np.arange(3), np.ones(3, dtype=np.int64))
    bc = arena.pool.lane_capacity
    arena.insert(np.zeros(bc + 2, dtype=np.int64), np.arange(bc + 2))
    arena.insert(np.ones(bc + 1, dtype=np.int64), np.arange(bc + 1))
    arena.clear_tables(np.array([1]))
    arena.check_invariants()
    return arena


class TestArenaInvariants:
    def test_valid_after_mixed_workload(self):
        rng = np.random.default_rng(3)
        arena = SlabArena(8, weighted=True)
        arena.create_tables(np.arange(8), rng.integers(1, 3, 8))
        for _ in range(6):
            t, k, v = (rng.integers(0, hi, 400) for hi in (8, 300, 9))
            arena.insert(t, k, v)
            arena.delete(rng.integers(0, 8, 100), rng.integers(0, 300, 100))
            arena.clear_tables(rng.integers(0, 8, 1))
            arena.check_invariants()
        arena.flush_tombstones(np.arange(8))
        arena.check_invariants(dense=np.arange(8))

    def test_empty_lane_before_the_last_slab_trips(self):
        arena = break_arena()
        arena.pool.keys[arena.table_base[0], 3] = EMPTY_KEY
        with pytest.raises(AssertionError, match="empty lane"):
            arena.check_invariants()

    def test_empty_lane_below_an_occupied_one_trips(self):
        arena = break_arena()
        tail = arena.pool.next_slab[arena.table_base[0]]
        arena.pool.keys[tail, 0] = EMPTY_KEY
        with pytest.raises(AssertionError, match="empty lane"):
            arena.check_invariants()

    def test_tombstones_are_not_empties(self):
        arena = break_arena()
        arena.pool.keys[arena.table_base[0], 3] = TOMBSTONE_KEY
        arena.check_invariants()

    def test_cycle_trips(self):
        arena = break_arena()
        head = arena.table_base[0]
        arena.pool.next_slab[arena.pool.next_slab[head]] = head
        with pytest.raises(AssertionError, match="reachable twice"):
            arena.check_invariants()

    def test_shared_slab_trips(self):
        arena = break_arena()
        arena.pool.next_slab[arena.table_base[2]] = arena.pool.next_slab[arena.table_base[0]]
        with pytest.raises(AssertionError, match="reachable twice"):
            arena.check_invariants()

    def test_dangling_next_pointer_trips(self):
        arena = break_arena()
        arena.pool.next_slab[arena.table_base[2]] = arena.pool._bump + 5
        with pytest.raises(AssertionError, match="outside the pool"):
            arena.check_invariants()

    def test_duplicate_free_slab_trips(self):
        arena = break_arena()
        arena.pool._free = np.concatenate([arena.pool._free, arena.pool._free[:1]])
        with pytest.raises(AssertionError, match="free list"):
            arena.check_invariants()

    def test_reachable_slab_on_free_list_trips(self):
        arena = break_arena()
        arena.pool._free = np.append(arena.pool._free, arena.pool.next_slab[arena.table_base[0]])
        with pytest.raises(AssertionError, match="free list"):
            arena.check_invariants()

    def test_slab_owned_by_no_table_and_not_free_trips(self):
        arena = break_arena()
        arena.pool.allocate(2)  # handed out, attached to no chain
        with pytest.raises(AssertionError, match="2 slabs owned by no table and not free"):
            arena.check_invariants()

    def test_hashed_table_without_coefficients_trips(self):
        arena = SlabArena(4, weighted=False)
        arena.create_tables(np.arange(3), np.array([1, 3, 2]))
        arena.check_invariants()
        assert arena.hash_family._a[0] == 0  # one bucket: never hashes
        arena.hash_family._a[1] = 0
        with pytest.raises(AssertionError, match="hash coefficients"):
            arena.check_invariants()

    def test_table_rehashed_from_one_bucket_gets_coefficients(self):
        g = DynamicGraph(num_vertices=64, weighted=False)
        g.insert_edges(np.zeros(60, np.int64), np.arange(1, 61))
        arena = g._dict.arena
        assert arena.table_buckets[0] == 1 and arena.hash_family._a[0] == 0
        g.rehash([0])
        assert arena.table_buckets[0] > 1 and arena.hash_family._a[0] >= 1
        arena.check_invariants(dense=[0])
        heads = arena.bucket_heads(np.zeros(60, np.int64), np.arange(1, 61))
        assert np.unique(heads).size > 1  # the keys spread over the new buckets
        t = np.zeros(60, np.int64)
        vec = arena.hash_family.bucket(t, np.arange(1, 61), arena.table_buckets[t])
        nb = int(arena.table_buckets[0])
        assert [arena.hash_family.bucket_single(0, k, nb) for k in range(1, 61)] == vec.tolist()

    def test_vertex_dictionary_debug_switch_runs_it(self):
        vd = VertexDictionary(4, weighted=False)
        assert vd.debug_invariants is False
        vd.debug_invariants = True
        vd.ensure_tables(np.arange(4))
        vd.arena.insert(np.zeros(5, dtype=np.int64), np.arange(5))
        vd.add_edge_counts(np.zeros(5, dtype=np.int64))
        vd.arena.pool.keys[vd.arena.table_base[0], 0] = EMPTY_KEY
        with pytest.raises(AssertionError, match="empty lane"):
            vd.add_edge_counts(np.array([1]))
