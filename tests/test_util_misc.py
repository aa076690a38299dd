"""Tests for hashing and validation helpers."""

import numpy as np
import pytest

from repro.util.errors import ValidationError
from repro.util.hashing import PRIME, UniversalHashFamily
from repro.util.validation import (
    as_int_array,
    check_equal_length,
    check_in_range,
)


class TestUniversalHashFamily:
    def test_deterministic(self):
        a = UniversalHashFamily(10, seed=42)
        b = UniversalHashFamily(10, seed=42)
        t = np.arange(10)
        k = np.arange(10) * 7
        nb = np.full(10, 8)
        assert np.array_equal(a.bucket(t, k, nb), b.bucket(t, k, nb))

    def test_different_seeds_differ(self):
        a = UniversalHashFamily(64, seed=1)
        b = UniversalHashFamily(64, seed=2)
        t = np.arange(64)
        k = np.arange(64)
        nb = np.full(64, 1024)
        assert not np.array_equal(a.bucket(t, k, nb), b.bucket(t, k, nb))

    def test_range(self):
        fam = UniversalHashFamily(5)
        t = np.zeros(1000, dtype=np.int64)
        k = np.arange(1000)
        nb = np.full(5, 7)
        buckets = fam.bucket(t, k, nb)
        assert buckets.min() >= 0 and buckets.max() < 7

    def test_scalar_matches_vector(self):
        fam = UniversalHashFamily(3)
        nb = np.array([4, 9, 16])
        for table in range(3):
            for key in [0, 1, 99, 12345]:
                vec = fam.bucket(np.array([table]), np.array([key]), nb)[0]
                assert fam.bucket_single(table, key, int(nb[table])) == vec

    def test_grow_preserves_existing(self):
        fam = UniversalHashFamily(4, seed=7)
        before = fam.bucket(np.arange(4), np.arange(4) * 3, np.full(4, 11)).copy()
        fam.grow(16)
        after = fam.bucket(np.arange(4), np.arange(4) * 3, np.full(16, 11)[:16])
        assert np.array_equal(before, after)
        assert fam.num_tables == 16

    def test_spread(self):
        """Keys hashing into one table should spread across buckets."""
        fam = UniversalHashFamily(1)
        nb = np.array([64])
        buckets = fam.bucket(np.zeros(6400, np.int64), np.arange(6400), nb)
        counts = np.bincount(buckets, minlength=64)
        assert counts.max() < 6400 * 0.10  # far from degenerate

    def test_prime_is_mersenne(self):
        assert PRIME == (1 << 31) - 1


class TestValidation:
    def test_as_int_array_from_list(self):
        out = as_int_array([1, 2, 3])
        assert out.dtype == np.int64 and out.tolist() == [1, 2, 3]

    def test_as_int_array_scalar(self):
        assert as_int_array(5).tolist() == [5]

    def test_as_int_array_integral_floats_ok(self):
        assert as_int_array(np.array([1.0, 2.0])).tolist() == [1, 2]

    def test_as_int_array_fractional_rejected(self):
        with pytest.raises(ValidationError):
            as_int_array(np.array([1.5]))

    def test_as_int_array_2d_rejected(self):
        with pytest.raises(ValidationError):
            as_int_array(np.zeros((2, 2)))

    def test_check_equal_length(self):
        assert check_equal_length(("a", np.arange(3)), ("b", np.arange(3))) == 3
        with pytest.raises(ValidationError):
            check_equal_length(("a", np.arange(3)), ("b", np.arange(4)))

    def test_check_in_range(self):
        check_in_range(np.array([0, 4]), 0, 5)
        with pytest.raises(ValidationError):
            check_in_range(np.array([5]), 0, 5)
        with pytest.raises(ValidationError):
            check_in_range(np.array([-1]), 0, 5)
        check_in_range(np.array([], dtype=np.int64), 0, 5)  # empty ok
