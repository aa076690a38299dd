"""The kernel seam and the snapshot keys a merge chain carries.

``repro.kernels`` is one implementation (``repro.kernels.reference``); its
semantics are pinned elsewhere by independent oracles (the scalar
``reference_insert_one`` spec and the golden pool digests in
``test_insert_schedule.py``, the WCWS model, dict oracles).  Here:

- the seam itself: what the package exports, and that every driver looks
  its kernels up on the module at call time (the wall-clock tracer times
  them by patching those attributes);
- ``merge_csr_delta`` chains: every link equals the cold rebuild, never
  derives ``row_ptr``, and rejects duplicate base keys wherever they came
  from;
- the merge's memory does not grow with the vertex space.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.kernels
from repro import Graph
from repro.api.snapshot import CSRSnapshot, merge_csr_delta
from repro.coo import COO
from repro.kernels import get_kernels, kernel_tier, reference
from repro.util.errors import ValidationError


class TestSeam:
    def test_package_exports_the_two_harness_functions(self):
        assert sorted(repro.kernels.__all__) == ["get_kernels", "kernel_tier"]
        assert get_kernels() is reference
        assert kernel_tier() == "reference"

    def test_drivers_resolve_every_kernel_at_call_time(self, monkeypatch):
        """Wrap each kernel the way the tracer does; a mixed facade run
        (insert, delete, search, iterate, snapshot merge) must reach all of
        them through the patched attributes."""
        called = set()

        def spy(name, fn):
            def wrapped(*args, **kwargs):
                called.add(name)
                return fn(*args, **kwargs)

            return wrapped

        kernels = [n for n in reference.__all__ if callable(getattr(reference, n))]
        for name in kernels:
            monkeypatch.setattr(reference, name, spy(name, getattr(reference, name)))
        rng = np.random.default_rng(1234)
        for weighted in (True, False):
            g = Graph.create("slabhash", num_vertices=48, weighted=weighted)
            src, dst = rng.integers(0, 48, 400), rng.integers(0, 48, 400)
            g.insert_edges(src, dst, *([rng.integers(1, 100, 400)] if weighted else []))
            g.snapshot()
            g.delete_edges(src[:120], dst[:120])
            g.edge_exists(src, dst)
            g.snapshot()
            g.flush_tombstones()
        assert called == set(kernels)


def assert_state_equal(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        if x is None:
            assert y is None
        else:
            assert np.array_equal(x, y)


def _cold(oracle, n, weighted):
    keys = np.array(sorted(oracle), dtype=np.int64)
    w = np.array([oracle[k] for k in keys.tolist()], dtype=np.int64) if weighted else None
    return CSRSnapshot.from_coo(COO(keys >> 32, keys & 0xFFFFFFFF, n, weights=w))


def _merge_chain(n, weighted, base, steps):
    """Drive ``steps`` through :func:`merge_csr_delta` from a cold base;
    every link must equal the cold rebuild of the oracle dict."""
    oracle = {(s << 32) | d: w for s, d, w in base}
    snap = _cold(oracle, n, weighted)
    for ups, dels in steps:
        up = {(s << 32) | d: w for s, d, w in ups}
        live = sorted(oracle)
        # An int picks a live key (a delete that hits); a pair may miss.
        gone = {
            live[d % len(live)] if isinstance(d, int) else (d[0] << 32) | d[1]
            for d in dels
            if live or not isinstance(d, int)
        } - up.keys()
        for k in gone:
            oracle.pop(k, None)
        oracle.update(up)
        up_keys = np.array(sorted(up), dtype=np.int64)
        up_w = np.array([up[k] for k in up_keys.tolist()], dtype=np.int64)
        snap = merge_csr_delta(
            snap, up_keys, up_w if weighted else None, np.array(sorted(gone), dtype=np.int64)
        )
        want = _cold(oracle, n, weighted)
        assert_state_equal(
            (snap.keys(), snap.row_ptr, snap.col_idx, snap.weights),
            (want.keys(), want.row_ptr, want.col_idx, want.weights),
        )
        assert snap.row_ptr.dtype == snap.col_idx.dtype == snap.keys().dtype == np.int64


@st.composite
def merge_chains(draw):
    n = draw(st.sampled_from([1, 2, 7, 40, 5000]))  # 5000: |E| << |V|
    vertex = st.integers(0, n - 1) | st.just(n - 1)  # the last vertex shows up often
    edge = st.tuples(vertex, vertex, st.integers(0, 99))
    delete = st.integers(0, 1 << 20) | edge.map(lambda e: e[:2])
    step = st.tuples(st.lists(edge, max_size=12), st.lists(delete, max_size=12))
    return (
        n,
        draw(st.booleans()),
        draw(st.lists(edge, max_size=30)),
        draw(st.lists(step, min_size=1, max_size=4)),
    )


class TestMergeChain:
    """A snapshot carries its sorted keys through a chain of merges."""

    @given(merge_chains())
    @example((1, True, [], [([(0, 0, 3)], []), ([], [0]), ([], [])]))  # one vertex, empty ends
    @example((5000, False, [], [([(4999, 4999, 0), (0, 1, 0)], []), ([], [(4999, 4999)])]))
    @example((7, True, [(6, 6, 1), (0, 0, 2)], [([], []), ([(6, 5, 9), (6, 6, 4)], [0, 1])]))
    @settings(max_examples=60, deadline=None)
    def test_chain_equals_cold_rebuild(self, chain):
        _merge_chain(*chain)

    def test_a_merge_chain_never_derives_row_ptr(self):
        base = _cold({(1 << 32) | 2: 0, (3 << 32) | 0: 0}, 4, False)
        up = np.array([(0 << 32) | 3], dtype=np.int64)
        merged = merge_csr_delta(base, up, None, np.empty(0, dtype=np.int64))
        again = merge_csr_delta(merged, up + 1, None, up)
        for snap in (base, merged, again):
            assert "row_ptr" not in snap.__dict__
        assert again.keys().tolist() == [4, (1 << 32) | 2, (3 << 32) | 0]
        assert again.row_ptr.tolist() == [0, 1, 2, 2, 3]

    def test_keys_are_read_only(self):
        cold = _cold({5: 1, 9: 2}, 10, True)
        merged = merge_csr_delta(cold, np.array([7]), np.array([3]), np.array([5]))
        for snap in (cold, merged):
            with pytest.raises(ValueError, match="read-only"):
                snap.keys()[0] = 0
        assert merged.keys().tolist() == [7, 9]

    def test_duplicate_base_keys_raise(self):
        """The kernel validates the base keys it is handed, whoever built
        the snapshot: the constructor, or a cold build of a COO that keeps
        its duplicate rows."""
        empty = np.empty(0, dtype=np.int64)
        for bad in (
            CSRSnapshot(np.array([5, 5], dtype=np.int64), None, 6),
            CSRSnapshot.from_coo(COO([0, 0], [5, 5], 6)),
        ):
            assert bad.keys().tolist() == [5, 5]
            with pytest.raises(ValidationError, match="duplicate"):
                merge_csr_delta(bad, empty, None, empty)


def _merge_peak(num_vertices):
    """``tracemalloc`` peak of one merge of a 16,384-edge snapshot with a
    256-upsert / 64-delete delta; the edges are the same at every
    ``num_vertices`` (ids below 2^10)."""
    rng = np.random.default_rng(5)
    cells = rng.choice(1 << 20, 16384 + 256, replace=False)
    src, dst = cells >> 10, cells & 1023
    base = CSRSnapshot.from_coo(COO(src[:16384], dst[:16384], num_vertices))
    upserts = np.sort((src[16384:] << 32) | dst[16384:])
    deletes = np.sort(rng.choice(base.keys(), 64, replace=False))
    tracemalloc.start()
    try:
        merge_csr_delta(base, upserts, None, deletes)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_merge_memory_does_not_grow_with_the_vertex_space():
    """A merge is keys in, keys out: nothing it allocates is sized by |V|."""
    small, large = _merge_peak(1 << 10), _merge_peak(1 << 20)
    assert large <= 1.25 * small, (small, large)
