"""The kernel seam and the snapshot keys a merge chain carries.

``repro.kernels`` is one implementation (``repro.kernels.reference``); its
semantics are pinned elsewhere by independent oracles (the scalar
``reference_insert_one`` spec and the golden pool digests in
``test_insert_schedule.py``, the WCWS model, dict oracles).  Here:

- the seam itself: what the package exports, and that every driver looks
  its kernels up on the module at call time (the wall-clock tracer times
  them by patching those attributes);
- ``merge_csr_delta`` chains: every link equals the cold rebuild, carries
  its sorted keys, and rejects duplicate base keys wherever they came from.
"""

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
        installed = snap._keys  # set by the merge, before anything could derive it
        want = _cold(oracle, n, weighted)
        assert_state_equal(
            (snap.row_ptr, snap.col_idx, snap.weights, installed, snap.keys()),
            (want.row_ptr, want.col_idx, want.weights, want.keys(), want.keys()),
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

    def test_merged_keys_are_not_rederived(self, monkeypatch):
        base = _cold({(1 << 32) | 2: 0, (3 << 32) | 0: 0}, 4, False)
        up = np.array([(0 << 32) | 3], dtype=np.int64)
        merged = merge_csr_delta(base, up, None, np.empty(0, dtype=np.int64))
        monkeypatch.setattr(
            CSRSnapshot, "sources", lambda self: pytest.fail("keys re-derived from row_ptr")
        )
        again = merge_csr_delta(merged, up + 1, None, up)
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
        """The kernel validates the base keys it is handed, wherever the
        snapshot got them: derived by the merge, memoised earlier, or
        installed by a builder."""
        empty = np.empty(0, dtype=np.int64)
        for keys in ("derived", "memoised", "installed"):
            bad = CSRSnapshot(
                row_ptr=np.array([0, 2], dtype=np.int64),
                col_idx=np.array([5, 5], dtype=np.int64),
                weights=None,
                num_vertices=1,
                _keys=np.array([5, 5], dtype=np.int64) if keys == "installed" else None,
            )
            if keys == "memoised":
                bad.keys()
            with pytest.raises(ValidationError, match="duplicate"):
                merge_csr_delta(bad, empty, None, empty)
