"""The slab hash as a standalone table: a one-table SlabArena.

The concurrent map (weighted, 15 key/value pairs per slab) and the
concurrent set (30 keys per slab) of Section IV, driven through the
arena's batched calls on table 0.
"""

import numpy as np
import pytest

from repro.slabhash import SlabArena
from repro.slabhash.constants import (
    EMPTY_KEY,
    MAX_KEY,
    SLAB_KEY_CAPACITY,
    SLAB_KV_CAPACITY,
    TOMBSTONE_KEY,
)
from repro.util.errors import ValidationError


def one_table(weighted, expected_size=32, load_factor=0.7, num_buckets=None):
    """A map (``weighted``) or a set sized like the graph sizes a vertex
    table: ``SlabArena.buckets_for`` over the variant's lane capacity."""
    if num_buckets is None:
        lanes = SLAB_KV_CAPACITY if weighted else SLAB_KEY_CAPACITY
        num_buckets = int(SlabArena.buckets_for(expected_size, load_factor, lanes)[0])
    arena = SlabArena(1, weighted=weighted)
    arena.create_tables(np.array([0]), np.array([num_buckets]))
    return arena


def table0(keys):
    return np.zeros(keys.shape[0], dtype=np.int64)


def insert(arena, keys, values=None):
    """Insert / replace; the number of new keys."""
    keys = np.asarray(keys, dtype=np.int64)
    if values is not None:
        values = np.asarray(values, dtype=np.int64)
    return int(arena.insert(table0(keys), keys, values).sum())


def delete(arena, keys):
    keys = np.asarray(keys, dtype=np.int64)
    return int(arena.delete(table0(keys), keys).sum())


def search(arena, keys):
    """``(found, values)`` per key."""
    keys = np.asarray(keys, dtype=np.int64)
    return arena.search(table0(keys), keys)


def get(arena, key):
    found, values = search(arena, [key])
    return int(values[0]) if found[0] else None


def items(arena):
    """Live ``(keys, values)``, unordered."""
    _, keys, values = arena.iterate(np.array([0]))
    return keys, values


def size(arena):
    return int(items(arena)[0].shape[0])


def num_slabs(arena):
    return int(arena.table_slabs(np.array([0]))[0].shape[0])


class TestSlabHashMap:
    def test_insert_and_get(self):
        m = one_table(True, 16)
        assert insert(m, [1, 2, 3], [10, 20, 30]) == 3
        assert get(m, 2) == 20
        assert get(m, 99) is None

    def test_replace_semantics(self):
        m = one_table(True, 16)
        assert insert(m, [1, 1], [10, 20]) == 1  # dup within batch
        assert get(m, 1) == 20
        assert insert(m, [1], [30]) == 0  # dup across batches
        assert get(m, 1) == 30
        assert size(m) == 1

    def test_delete(self):
        m = one_table(True, 16)
        insert(m, [1, 2], [10, 20])
        assert delete(m, [1, 5]) == 1
        assert get(m, 1) is None
        assert get(m, 2) == 20
        assert size(m) == 1

    def test_delete_then_reinsert(self):
        m = one_table(True, 16)
        insert(m, [7], [1])
        delete(m, [7])
        assert insert(m, [7], [2]) == 1
        assert get(m, 7) == 2

    def test_contains(self):
        m = one_table(True, 4)
        insert(m, [42], [0])
        assert search(m, [42, 43])[0].tolist() == [True, False]

    def test_items(self):
        m = one_table(True, 8)
        insert(m, [3, 1, 2], [30, 10, 20])
        ks, vs = items(m)
        assert dict(zip(ks.tolist(), vs.tolist())) == {1: 10, 2: 20, 3: 30}

    def test_chaining_with_single_bucket(self):
        """Forcing one bucket exercises multi-slab chains."""
        m = one_table(True, num_buckets=1)
        keys = np.arange(100)
        assert insert(m, keys, keys * 2) == 100
        assert num_slabs(m) > 1
        found, vals = search(m, keys)
        assert found.all()
        assert np.array_equal(vals, keys * 2)

    def test_flush_compacts_tombstones(self):
        m = one_table(True, num_buckets=1)
        keys = np.arange(60)
        insert(m, keys, keys)
        slabs_before = num_slabs(m)
        delete(m, np.arange(0, 60, 2))
        m.flush_tombstones(np.array([0]))
        assert num_slabs(m) <= slabs_before
        ks, vs = items(m)
        assert sorted(ks.tolist()) == list(range(1, 60, 2))
        assert all(int(k) == int(v) for k, v in zip(ks, vs))

    def test_bucket_sizing_uses_load_factor(self):
        m = one_table(True, 150, load_factor=0.5)
        # ceil(150 / (0.5 * 15)) = 20 buckets
        assert int(m.table_buckets[0]) == 20


class TestSlabHashSet:
    def test_insert_and_contains(self):
        s = one_table(False, 8)
        assert insert(s, [5, 6, 5]) == 2
        assert search(s, [5, 6, 7])[0].tolist() == [True, True, False]
        assert size(s) == 2

    def test_items(self):
        s = one_table(False, 8)
        insert(s, [9, 3, 7])
        assert sorted(items(s)[0].tolist()) == [3, 7, 9]

    def test_delete(self):
        s = one_table(False, 8)
        insert(s, [1, 2, 3])
        assert delete(s, [2, 9]) == 1
        assert sorted(items(s)[0].tolist()) == [1, 3]

    def test_set_packs_more_keys_per_slab(self):
        assert SLAB_KEY_CAPACITY == 2 * SLAB_KV_CAPACITY
        s = one_table(False, num_buckets=1)
        insert(s, np.arange(SLAB_KEY_CAPACITY))
        assert num_slabs(s) == 1  # exactly one full slab
        insert(s, [SLAB_KEY_CAPACITY])
        assert num_slabs(s) == 2

    def test_large_random_vs_python_set(self):
        rng = np.random.default_rng(5)
        s = one_table(False, 64)
        ref = set()
        for _ in range(6):
            keys = rng.integers(0, 3000, 2000)
            insert(s, keys)
            ref |= set(keys.tolist())
            dels = rng.integers(0, 3000, 700)
            delete(s, dels)
            ref -= set(dels.tolist())
        assert size(s) == len(ref)
        assert set(items(s)[0].tolist()) == ref

    def test_contains_batch(self):
        s = one_table(False, 8)
        insert(s, [10, 20])
        assert search(s, [10, 15, 20])[0].tolist() == [True, False, True]


class TestKeyRange:
    """Search and delete reject what insert rejects: keys are 32-bit, minus the lane sentinels."""

    @pytest.fixture
    def s(self):
        s = one_table(False, 8)
        insert(s, [5, 6])
        return s

    @pytest.mark.parametrize("key", [2**32 + 5, EMPTY_KEY, TOMBSTONE_KEY, -1])
    def test_contains_rejects_out_of_range_key(self, s, key):
        # Unchecked, 2**32 + 5 aliased to key 5 and both sentinels "matched" a lane.
        with pytest.raises(ValidationError, match="keys"):
            search(s, [5, key])

    @pytest.mark.parametrize("key", [2**32 + 5, EMPTY_KEY, TOMBSTONE_KEY, -1])
    def test_delete_rejects_out_of_range_key(self, s, key):
        # Unchecked, 2**32 + 5 deleted key 5 and EMPTY_KEY tombstoned an empty lane.
        with pytest.raises(ValidationError, match="keys"):
            delete(s, [key])
        assert sorted(items(s)[0].tolist()) == [5, 6]

    def test_max_key_round_trips(self, s):
        insert(s, [MAX_KEY])
        assert search(s, [MAX_KEY, 5])[0].tolist() == [True, True]
        assert delete(s, [MAX_KEY]) == 1 and size(s) == 2

    @pytest.mark.parametrize("value", [-1, 2**32, 2**33 + 5])
    def test_map_rejects_a_value_its_lanes_cannot_hold(self, value):
        # Unchecked, -1 was stored as 4294967295 and 2**33 + 5 as 5.
        m = one_table(True, 8)
        insert(m, [1], [7])
        with pytest.raises(ValidationError, match="values"):
            insert(m, [1, 2], [8, value])
        assert size(m) == 1 and get(m, 1) == 7 and get(m, 2) is None
        insert(m, [2], [2**32 - 1])
        assert get(m, 2) == 2**32 - 1
