"""Tests for the single-table SlabHashMap / SlabHashSet facades."""

import numpy as np
import pytest

from repro.slabhash import SlabHashMap, SlabHashSet
from repro.slabhash.constants import (
    EMPTY_KEY,
    MAX_KEY,
    SLAB_KEY_CAPACITY,
    SLAB_KV_CAPACITY,
    TOMBSTONE_KEY,
)
from repro.util.errors import ValidationError


class TestSlabHashMap:
    def test_insert_and_get(self):
        m = SlabHashMap(expected_size=16)
        assert m.insert_batch([1, 2, 3], [10, 20, 30]) == 3
        assert m.get(2) == 20
        assert m.get(99) is None
        assert m.get(99, default=-1) == -1

    def test_replace_semantics(self):
        m = SlabHashMap(expected_size=16)
        assert m.insert_batch([1, 1], [10, 20]) == 1  # dup within batch
        assert m.get(1) == 20
        assert m.insert_batch([1], [30]) == 0  # dup across batches
        assert m.get(1) == 30
        assert len(m) == 1

    def test_delete(self):
        m = SlabHashMap(expected_size=16)
        m.insert_batch([1, 2], [10, 20])
        assert m.delete_batch([1, 5]) == 1
        assert m.get(1) is None
        assert m.get(2) == 20
        assert len(m) == 1

    def test_delete_then_reinsert(self):
        m = SlabHashMap(expected_size=16)
        m.insert_batch([7], [1])
        m.delete_batch([7])
        assert m.insert_batch([7], [2]) == 1
        assert m.get(7) == 2

    def test_contains(self):
        m = SlabHashMap(expected_size=4)
        m.insert_batch([42], [0])
        assert 42 in m and 43 not in m

    def test_items(self):
        m = SlabHashMap(expected_size=8)
        m.insert_batch([3, 1, 2], [30, 10, 20])
        ks, vs = m.items()
        assert dict(zip(ks.tolist(), vs.tolist())) == {1: 10, 2: 20, 3: 30}

    def test_chaining_with_single_bucket(self):
        """Forcing one bucket exercises multi-slab chains."""
        m = SlabHashMap(num_buckets=1)
        keys = np.arange(100)
        assert m.insert_batch(keys, keys * 2) == 100
        assert m.num_slabs > 1
        found, vals = m.get_batch(keys)
        assert found.all()
        assert np.array_equal(vals, keys * 2)

    def test_flush_compacts_tombstones(self):
        m = SlabHashMap(num_buckets=1)
        keys = np.arange(60)
        m.insert_batch(keys, keys)
        slabs_before = m.num_slabs
        m.delete_batch(np.arange(0, 60, 2))
        m.flush()
        assert m.num_slabs <= slabs_before
        ks, vs = m.items()
        assert sorted(ks.tolist()) == list(range(1, 60, 2))
        assert all(int(k) == int(v) for k, v in zip(ks, vs))

    def test_bucket_sizing_uses_load_factor(self):
        m = SlabHashMap(expected_size=150, load_factor=0.5)
        # ceil(150 / (0.5 * 15)) = 20 buckets
        assert m.num_buckets == 20


class TestSlabHashSet:
    def test_insert_and_contains(self):
        s = SlabHashSet(expected_size=8)
        assert s.insert_batch([5, 6, 5]) == 2
        assert 5 in s and 6 in s and 7 not in s
        assert len(s) == 2

    def test_items(self):
        s = SlabHashSet(expected_size=8)
        s.insert_batch([9, 3, 7])
        assert sorted(s.items().tolist()) == [3, 7, 9]

    def test_delete(self):
        s = SlabHashSet(expected_size=8)
        s.insert_batch([1, 2, 3])
        assert s.delete_batch([2, 9]) == 1
        assert sorted(s.items().tolist()) == [1, 3]

    def test_set_packs_more_keys_per_slab(self):
        assert SLAB_KEY_CAPACITY == 2 * SLAB_KV_CAPACITY
        s = SlabHashSet(num_buckets=1)
        s.insert_batch(np.arange(SLAB_KEY_CAPACITY))
        assert s.num_slabs == 1  # exactly one full slab
        s.insert_batch([SLAB_KEY_CAPACITY])
        assert s.num_slabs == 2

    def test_large_random_vs_python_set(self):
        rng = np.random.default_rng(5)
        s = SlabHashSet(expected_size=64)
        ref = set()
        for _ in range(6):
            keys = rng.integers(0, 3000, 2000)
            s.insert_batch(keys)
            ref |= set(keys.tolist())
            dels = rng.integers(0, 3000, 700)
            s.delete_batch(dels)
            ref -= set(dels.tolist())
        assert len(s) == len(ref)
        assert set(s.items().tolist()) == ref

    def test_contains_batch(self):
        s = SlabHashSet(expected_size=8)
        s.insert_batch([10, 20])
        got = s.contains_batch([10, 15, 20])
        assert got.tolist() == [True, False, True]


class TestKeyRange:
    """Search and delete reject what insert rejects: keys are 32-bit, minus the lane sentinels."""

    @pytest.fixture
    def s(self):
        s = SlabHashSet(expected_size=8)
        s.insert_batch([5, 6])
        return s

    @pytest.mark.parametrize("key", [2**32 + 5, EMPTY_KEY, TOMBSTONE_KEY, -1])
    def test_contains_rejects_out_of_range_key(self, s, key):
        # Unchecked, 2**32 + 5 aliased to key 5 and both sentinels "matched" a lane.
        with pytest.raises(ValidationError, match="keys"):
            s.contains_batch([5, key])

    @pytest.mark.parametrize("key", [2**32 + 5, EMPTY_KEY, TOMBSTONE_KEY, -1])
    def test_delete_rejects_out_of_range_key(self, s, key):
        # Unchecked, 2**32 + 5 deleted key 5 and EMPTY_KEY tombstoned an empty lane.
        with pytest.raises(ValidationError, match="keys"):
            s.delete_batch([key])
        assert len(s) == 2 and sorted(s.items().tolist()) == [5, 6]

    def test_max_key_round_trips(self, s):
        s.insert_batch([MAX_KEY])
        assert s.contains_batch([MAX_KEY, 5]).tolist() == [True, True]
        assert s.delete_batch([MAX_KEY]) == 1 and len(s) == 2

    @pytest.mark.parametrize("value", [-1, 2**32, 2**33 + 5])
    def test_map_rejects_a_value_its_lanes_cannot_hold(self, value):
        # Unchecked, -1 was stored as 4294967295 and 2**33 + 5 as 5.
        m = SlabHashMap(expected_size=8)
        m.insert_batch([1], [7])
        with pytest.raises(ValidationError, match="values"):
            m.insert_batch([1, 2], [8, value])
        assert len(m) == 1 and m.get(1) == 7 and m.get(2) is None
        m.insert_batch([2], [2**32 - 1])
        assert m.get(2) == 2**32 - 1
