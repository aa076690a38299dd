"""Tests for hashing and validation helpers."""

import numpy as np
import pytest

from repro import Graph
from repro.core import DynamicGraph
from repro.datasets.rmat import rmat_graph
from repro.slabhash.arena import SlabArena
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
        a.assign(np.arange(10))
        b.assign(np.arange(10)[::-1])  # a table's pair ignores its batch
        t = np.arange(10)
        k = np.arange(10) * 7
        nb = np.full(10, 8)
        assert np.array_equal(a.bucket(t, k, nb), b.bucket(t, k, nb))

    def test_different_seeds_differ(self):
        a = UniversalHashFamily(64, seed=1)
        b = UniversalHashFamily(64, seed=2)
        a.assign(np.arange(64))
        b.assign(np.arange(64))
        t = np.arange(64)
        k = np.arange(64)
        nb = np.full(64, 1024)
        assert not np.array_equal(a.bucket(t, k, nb), b.bucket(t, k, nb))

    def test_range(self):
        fam = UniversalHashFamily(5)
        fam.assign(np.arange(5))
        t = np.zeros(1000, dtype=np.int64)
        k = np.arange(1000)
        nb = np.full(1000, 7)  # per item
        buckets = fam.bucket(t, k, nb)
        assert buckets.min() >= 0 and buckets.max() < 7

    def test_coefficients_lie_in_the_family(self):
        fam = UniversalHashFamily(1 << 12, seed=-3)
        assert not fam._a.any() and not fam._b.any()  # nothing drawn up front
        fam.assign(np.arange(1 << 12))
        assert fam._a.min() >= 1 and fam._a.max() < PRIME
        assert fam._b.min() >= 0 and fam._b.max() < PRIME
        assert np.unique(np.stack([fam._a, fam._b]), axis=1).shape[1] == fam.num_tables

    def test_scalar_matches_vector(self):
        fam = UniversalHashFamily(3)
        fam.assign(np.arange(3))
        nb = np.array([4, 9, 16])
        for table in range(3):
            for key in [0, 1, 99, 12345]:
                vec = fam.bucket(np.array([table]), np.array([key]), nb[[table]])[0]
                assert fam.bucket_single(table, key, int(nb[table])) == vec

    def test_scalar_matches_vector_after_grow(self):
        fam = UniversalHashFamily(3, seed=5)
        fam.grow(40)
        fam.assign(np.array([1, 38]))
        nb = np.arange(40) + 2
        keys = np.array([0, 1, 99, 12345, (1 << 32) - 3])
        for table in (0, 1, 38, 39):
            vec = fam.bucket(np.full(keys.size, table), keys, np.full(keys.size, nb[table]))
            assert [fam.bucket_single(table, int(k), int(nb[table])) for k in keys] == vec.tolist()

    def test_grow_preserves_existing(self):
        fam = UniversalHashFamily(4, seed=7)
        fam.assign(np.arange(4))
        before = fam.bucket(np.arange(4), np.arange(4) * 3, np.full(4, 11)).copy()
        fam.grow(16)
        fam.assign(np.arange(4, 16))
        after = fam.bucket(np.arange(4), np.arange(4) * 3, np.full(4, 11))
        assert np.array_equal(before, after)
        assert fam.num_tables == 16

    def test_spread(self):
        """Keys hashing into one table should spread across buckets."""
        fam = UniversalHashFamily(1)
        fam.assign(np.array([0]))
        nb = np.array([64])
        buckets = fam.bucket(np.zeros(6400, np.int64), np.arange(6400), nb)
        counts = np.bincount(buckets, minlength=64)
        assert counts.max() < 6400 * 0.10  # far from degenerate

    def test_prime_is_mersenne(self):
        assert PRIME == (1 << 31) - 1


def _skewed_key_sets():
    coo = rmat_graph(16, 8, seed=0)
    hub = np.bincount(coo.src).argmax()
    return {
        "stride-2^16": 7 + (np.arange(256, dtype=np.int64) << 16),
        "stride-2^16-from-0": np.arange(2048, dtype=np.int64) << 16,
        "rmat-destinations": np.unique(coo.dst)[:1024],
        "rmat-hub-adjacency": np.unique(coo.dst[coo.src == hub]),
    }


class TestDerivedCoefficients:
    """A table's ``(a, b)`` is derived from ``(hash_seed, table id)`` when
    the arena creates it with more than one bucket."""

    @pytest.mark.parametrize("buckets", [16, 29])
    def test_bucket_occupancy_meets_the_universal_bound(self, buckets):
        """For a universal family ``Pr[h(x) = h(y)] <= 1/m``, so for any
        fixed key set the occupancy chi-square ``X^2`` over ``m`` buckets
        has ``E[X^2] <= m - 1`` across the family.  By Markov, at most a
        ``1/c`` share of tables may read ``X^2 > c (m - 1)``; 512 derived
        tables must meet that on every skewed key set."""
        tables, m = 512, buckets
        arena = SlabArena(tables, weighted=False, hash_seed=0x5AB0)
        arena.create_tables(np.arange(tables), np.full(tables, m))
        for name, keys in _skewed_key_sets().items():
            assert keys.max() < PRIME, name  # the family's domain
            t = np.repeat(np.arange(tables), keys.size)
            b = arena.bucket_heads(t, np.tile(keys, tables)) - arena.table_base[t]
            occupancy = np.bincount(t * m + b, minlength=tables * m).reshape(tables, m)
            expected = keys.size / m
            chi2 = ((occupancy - expected) ** 2 / expected).sum(axis=1)
            for c in (2, 4, 8):
                assert (chi2 > c * (m - 1)).mean() <= 1 / c, (name, c)
            assert np.unique(chi2).size > 1, name  # tables hash differently

    def test_grown_ids_follow_the_hash_seed(self):
        """Ids past the initial capacity hash by ``hash_seed`` like the
        others, so two seeds place a grown table's keys differently."""
        keys = np.arange(1, 1000, dtype=np.int64)
        layouts = []
        for seed in (1, 2):
            g = DynamicGraph(num_vertices=16, weighted=False, hash_seed=seed)
            g.insert_vertices([1000], expected_degree=[keys.size])
            arena = g._dict.arena
            assert arena.num_tables > 1000 and arena.table_buckets[1000] > 1
            t = np.full(keys.size, 1000)
            layouts.append(arena.bucket_heads(t, keys) - arena.table_base[1000])
        assert not np.array_equal(*layouts)

    def test_create_draws_no_random_numbers(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("graph creation drew from np.random")

        coo = rmat_graph(8, 8, seed=1)
        monkeypatch.setattr(np.random, "default_rng", refuse)
        g = Graph.create("slabhash", 1 << 18)
        g.bulk_build(coo)
        assert (g.backend._dict.arena.table_buckets > 1).any()
        assert g.backend.rehash(np.arange(1 << 8)) > 0


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

    @pytest.mark.parametrize(
        "values, lo, hi, observed",
        [
            (np.array([3, -2, 4]), 0, 5, "[-2, 4]"),  # negative: huge when viewed unsigned
            (np.array([-(2**63), 1]), 0, 5, "[-9223372036854775808, 1]"),
            (np.array([0, 5]), 0, 5, "[0, 5]"),  # == hi
            (np.array([2**40]), 0, 2**32, "[1099511627776, 1099511627776]"),
            (np.array([-1]), 0, 2**64, "[-1, -1]"),  # a bound the unsigned view cannot use
            (np.array([1, 7], dtype=np.int32), 0, 5, "[1, 7]"),
            (np.array([-3], dtype=np.int32), 0, 5, "[-3, -3]"),
            (np.array([6], dtype=np.uint64), 0, 5, "[6, 6]"),
            (np.array([2**63 + 1], dtype=np.uint64), 0, 2**63, f"[{2**63 + 1}, {2**63 + 1}]"),
            (np.array([1.0, 9.0]), 0, 5, "[1, 9]"),
            (np.array([2, 3]), 3, 5, "[2, 3]"),  # lo > 0 keeps min and max
        ],
        ids=repr,
    )
    def test_check_in_range_rejects_with_the_observed_range(self, values, lo, hi, observed):
        with pytest.raises(ValidationError) as info:
            check_in_range(values, lo, hi, "ids")
        assert str(info.value) == f"ids values must be in [{lo}, {hi}); observed range {observed}"

    @pytest.mark.parametrize(
        "values, lo, hi",
        [
            (np.array([0, 4]), 0, 5),
            (np.array([2**63 - 1]), 0, 2**63),
            (np.array([0, 4], dtype=np.int32), 0, 5),
            (np.array([4], dtype=np.uint64), 0, 5),
            (np.array([3, 4]), 3, 5),
            (np.array([-1, 0]), -1, 1),
        ],
        ids=repr,
    )
    def test_check_in_range_accepts_every_in_range_array(self, values, lo, hi):
        check_in_range(values, lo, hi, "ids")

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint64, np.float64])
    def test_check_in_range_accepts_an_empty_array_of_any_dtype(self, dtype):
        check_in_range(np.array([], dtype=dtype), 0, 0, "ids")
