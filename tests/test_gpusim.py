"""Tests for the simulated-GPU substrate: warp primitives, counters,
growable memory, and the device cost model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim.counters import counting, get_counters
from repro.gpusim.memory import GrowableArray
from repro.gpusim.model import DeviceCostModel, simulated_seconds
from repro.gpusim.warp import (
    WARP_SIZE,
    ballot,
    find_first_set,
    popc,
    shuffle_idx,
)

lane_bools = st.lists(st.booleans(), min_size=WARP_SIZE, max_size=WARP_SIZE)


class TestWarpPrimitives:
    def test_ballot_empty_and_full(self):
        assert ballot(np.zeros(32, dtype=bool)) == 0
        assert ballot(np.ones(32, dtype=bool)) == (1 << 32) - 1

    def test_ballot_single_lane(self):
        for lane in (0, 5, 31):
            pred = np.zeros(32, dtype=bool)
            pred[lane] = True
            assert ballot(pred) == 1 << lane

    def test_ballot_wrong_shape(self):
        with pytest.raises(ValueError):
            ballot(np.zeros(16, dtype=bool))

    @given(lane_bools)
    @settings(max_examples=50, deadline=None)
    def test_popc_of_ballot_counts_lanes(self, bits):
        pred = np.array(bits)
        assert popc(ballot(pred)) == int(pred.sum())

    @given(lane_bools)
    @settings(max_examples=50, deadline=None)
    def test_ffs_finds_lowest_lane(self, bits):
        pred = np.array(bits)
        mask = ballot(pred)
        if not pred.any():
            assert find_first_set(mask) == -1
        else:
            assert find_first_set(mask) == int(np.flatnonzero(pred)[0])

    def test_shuffle_broadcasts(self):
        vals = np.arange(32) * 10
        out = shuffle_idx(vals, 7)
        assert np.all(out == 70)

    def test_shuffle_wrong_shape(self):
        with pytest.raises(ValueError):
            shuffle_idx(np.arange(8), 0)


class TestCounters:
    def test_reset(self):
        c = get_counters()
        c.slab_reads += 5
        c.add("custom", 2)
        c.reset()
        snap = get_counters().snapshot()
        assert snap["slab_reads"] == 0
        assert "custom" not in snap

    def test_diff(self):
        c = get_counters()
        before = c.snapshot()
        c.slab_writes += 3
        c.add("x", 1)
        delta = c.diff(before)
        assert delta["slab_writes"] == 3
        assert delta["x"] == 1

    def test_counting_context(self):
        with counting() as delta:
            get_counters().atomics += 7
        assert delta["atomics"] == 7


class TestGrowableArray:
    def test_basic_growth_preserves_prefix(self):
        buf = GrowableArray(4, np.int64, fill_value=-1)
        buf.data[:4] = [1, 2, 3, 4]
        buf.ensure(9)
        assert buf.capacity >= 9
        assert buf.data[:4].tolist() == [1, 2, 3, 4]
        assert np.all(buf.data[4:] == -1)

    def test_2d_growth(self):
        buf = GrowableArray(2, np.int32, width=3, fill_value=7)
        buf.data[0] = [1, 2, 3]
        buf.ensure(5)
        assert buf.data.shape[1] == 3
        assert buf.data[0].tolist() == [1, 2, 3]
        assert np.all(buf.data[2:] == 7)

    @pytest.mark.parametrize("width", [None, 3], ids=["1d", "2d"])
    def test_multi_doubling_jump_keeps_prefix_and_fills_tail(self, width):
        """The new buffer starts uninitialised: every slot must come from
        either the copied prefix or the tail fill, across several doublings."""
        buf = GrowableArray(4, np.int32, width=width, fill_value=-9)
        old = np.arange(buf.data.size, dtype=np.int32).reshape(buf.data.shape) + 100
        buf.data[:] = old
        with counting() as delta:
            buf.ensure(33)  # 4 -> 8 -> 16 -> 32 -> 64 in one reallocation
        assert buf.capacity == 64
        assert buf.data.shape[1:] == old.shape[1:]
        assert np.array_equal(buf.data[:4], old)
        assert np.all(buf.data[4:] == -9)
        assert delta["bytes_copied"] == old.nbytes  # only the prefix moves

    def test_no_growth_needed(self):
        buf = GrowableArray(8, np.int64)
        data_id = id(buf.data)
        buf.ensure(8)
        assert id(buf.data) == data_id

    def test_growth_charges_copy_bytes(self):
        buf = GrowableArray(4, np.int64)
        with counting() as delta:
            buf.ensure(100)
        assert delta["bytes_copied"] >= 4 * 8


class TestCostModel:
    def test_zero_delta_zero_time(self):
        assert simulated_seconds({}) == 0.0

    def test_linear_in_counts(self):
        one = simulated_seconds({"slab_reads": 1})
        many = simulated_seconds({"slab_reads": 1000})
        assert many == pytest.approx(1000 * one)

    def test_additive_across_counters(self):
        a = simulated_seconds({"slab_reads": 10})
        b = simulated_seconds({"sorted_elements": 10})
        ab = simulated_seconds({"slab_reads": 10, "sorted_elements": 10})
        assert ab == pytest.approx(a + b)

    def test_calibration_table8_road_usa(self):
        """Paper Table VIII: road_usa CUB segmented sort ≈ 10.9 s for 23.9M
        rows — the calibration anchor for SORT_SEGMENT."""
        model = DeviceCostModel()
        sec = model.seconds({"sort_segments": 23_900_000, "sorted_elements": 57_710_000})
        assert 8.0 < sec < 14.0  # paper: 10.875 s

    def test_calibration_table5_germany(self):
        """Paper Table V: our bulk build of germany_osm ≈ 12.4 ms for
        2 x 24.7M slab transactions."""
        model = DeviceCostModel()
        sec = model.seconds({"slab_reads": 24_700_000, "slab_writes": 24_700_000})
        assert 0.008 < sec < 0.020  # paper: 12.4 ms

    def test_unknown_counters_ignored(self):
        assert simulated_seconds({"nonexistent_counter": 10**9}) == 0.0
