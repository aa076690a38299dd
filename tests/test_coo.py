"""Tests for the COO edge-list container."""

import numpy as np
import pytest

from repro.coo import COO
from repro.util.errors import ValidationError


class TestConstruction:
    def test_infer_num_vertices(self):
        coo = COO([0, 5], [3, 1])
        assert coo.num_vertices == 6

    def test_explicit_num_vertices(self):
        coo = COO([0], [1], num_vertices=10)
        assert coo.num_vertices == 10

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            COO([0, 5], [3, 1], num_vertices=4)

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            COO([-1], [0], num_vertices=4)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            COO([0, 1], [0])

    def test_weights_length_mismatch(self):
        with pytest.raises(ValidationError):
            COO([0, 1], [1, 0], weights=[1])

    def test_empty(self):
        coo = COO([], [], num_vertices=0)
        assert coo.num_edges == 0 and coo.num_vertices == 0


class TestTransforms:
    def test_deduplicated_keeps_last_weight(self):
        coo = COO([0, 0, 0], [1, 1, 2], weights=[10, 20, 30]).deduplicated()
        pairs = dict(zip(zip(coo.src.tolist(), coo.dst.tolist()), coo.weights.tolist()))
        assert pairs == {(0, 1): 20, (0, 2): 30}

    def test_symmetrized_doubles(self):
        coo = COO([0], [1]).symmetrized()
        assert coo.num_edges == 2
        assert set(zip(coo.src.tolist(), coo.dst.tolist())) == {(0, 1), (1, 0)}

    def test_permuted_preserves_multiset(self):
        coo = COO([0, 1, 2, 3], [1, 2, 3, 0], weights=[5, 6, 7, 8])
        perm = coo.permuted(seed=3)
        orig = sorted(zip(coo.src.tolist(), coo.dst.tolist(), coo.weights.tolist()))
        got = sorted(zip(perm.src.tolist(), perm.dst.tolist(), perm.weights.tolist()))
        assert orig == got

    def test_batches(self):
        coo = COO(np.arange(10), np.roll(np.arange(10), 1))
        chunks = list(coo.batches(4))
        assert [c.num_edges for c in chunks] == [4, 4, 2]
        assert np.concatenate([c.src for c in chunks]).tolist() == coo.src.tolist()

    def test_batches_bad_size(self):
        with pytest.raises(ValidationError):
            list(COO([0], [1]).batches(0))

    def test_batches_are_views_not_copies(self):
        coo = COO(np.arange(10), np.roll(np.arange(10), 1), weights=np.arange(10))
        for i, chunk in enumerate(coo.batches(4)):
            assert np.shares_memory(chunk.src, coo.src), i
            assert np.shares_memory(chunk.dst, coo.dst), i
            assert np.shares_memory(chunk.weights, coo.weights), i


class TestConversions:
    def test_to_csr_sorted(self):
        coo = COO([2, 0, 0, 1], [1, 5, 3, 0], num_vertices=6, weights=[9, 8, 7, 6])
        row_ptr, col, w = coo.to_csr()
        assert row_ptr.tolist() == [0, 2, 3, 4, 4, 4, 4]
        assert col[:2].tolist() == [3, 5]  # row 0 sorted
        assert w[:2].tolist() == [7, 8]

    @pytest.mark.parametrize(
        "num_vertices",
        [
            9,  # small: one packed key, value-sorted with its index
            1 << 31,  # key plus index needs > 63 bits: stable_argsort's own fallback
            1 << 32,  # src * num_vertices + dst would overflow int64: two stable passes
        ],
    )
    def test_csr_order_is_lexsort(self, num_vertices):
        """Duplicate (src, dst) pairs keep input order, so their weights do."""
        rng = np.random.default_rng(7)
        ids = np.array([0, 1, 2, 5, num_vertices - 2, num_vertices - 1], dtype=np.int64)
        src, dst = rng.choice(ids, 300), rng.choice(ids, 300)
        coo = COO(src, dst, num_vertices=num_vertices, weights=rng.permutation(300))
        expected = np.lexsort((dst, src))
        order = coo.csr_order()
        assert np.array_equal(coo.dst[order], dst[expected])
        assert np.array_equal(coo.weights[order], coo.weights[expected])
        if num_vertices < 1 << 16:  # to_csr's row_ptr holds num_vertices + 1 entries
            _, col, w = coo.to_csr()
            assert np.array_equal(col, dst[expected])
            assert np.array_equal(w, coo.weights[expected])

    def test_to_csr_rejects_mutated_out_of_range_src(self):
        coo = COO([0, 1], [1, 0], num_vertices=2)
        coo.src = np.array([0, 5], dtype=np.int64)  # mutate behind the back
        with pytest.raises(ValidationError):
            coo.to_csr()
        coo.src = np.array([0, -1], dtype=np.int64)
        with pytest.raises(ValidationError):
            coo.to_csr()
        coo = COO([0, 1], [1, 0], num_vertices=2)
        coo.dst = np.array([1, 99], dtype=np.int64)
        with pytest.raises(ValidationError):
            coo.to_csr()

    def test_out_degrees(self):
        coo = COO([0, 0, 2], [1, 2, 0], num_vertices=4)
        assert coo.out_degrees().tolist() == [2, 0, 1, 0]

    def test_degree_stats(self):
        coo = COO([0, 0, 1], [1, 2, 2], num_vertices=3)
        st = coo.degree_stats()
        assert st["min"] == 0 and st["max"] == 2
        assert st["mean"] == pytest.approx(1.0)

    def test_degree_stats_empty(self):
        st = COO([], [], num_vertices=0).degree_stats()
        assert st["mean"] == 0.0

    def test_weights_or_zeros(self):
        assert COO([0], [1]).weights_or_zeros().tolist() == [0]
        assert COO([0], [1], weights=[9]).weights_or_zeros().tolist() == [9]
