"""Kernel-tier dispatch and counter parity.

Pins the contracts the ``repro.kernels`` refactor introduced:

- tier selection (``REPRO_JIT`` override, auto-detection, forced fallback);
- the jit tier is **bit-identical** to the reference tier — outputs, pool
  mutations, device-model counters, and the t2-family bench metrics built
  from them — even when it runs as the uncompiled Python fallback;
- the ``t15`` artifact emits one parity proof per kernel path (the
  scorecard's ``t15-parity`` row holds the committed baseline to them).
"""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import create
from repro.api.snapshot import CSRSnapshot, merge_csr_delta, merge_event_window
from repro.bench.kernel_bench import OPS, kernel_artifact, op_parity
from repro.bench.results import environment_fingerprint
from repro.bench.tables import table2_edge_insertion
from repro.coo import COO
from repro.eventlog.events import EdgeBatch
from repro.gpusim.counters import counting, get_counters
from repro.kernels import (
    KERNEL_TIERS,
    _resolve_initial_tier,
    available_tiers,
    current_tier,
    jit_available,
    kernel_tier,
    set_tier,
    use_tier,
)
from repro.util.errors import ValidationError


def counters_dict():
    c = get_counters()
    return {k: v for k, v in vars(c).items() if k != "_extra"}


class TestTierSelection:
    def test_tier_registry(self):
        assert KERNEL_TIERS == ("reference", "jit")
        assert current_tier() in available_tiers()
        assert kernel_tier() == current_tier()
        assert "reference" in available_tiers()

    def test_env_off_forces_reference(self, monkeypatch):
        monkeypatch.setenv("REPRO_JIT", "0")
        assert _resolve_initial_tier() == "reference"
        monkeypatch.setenv("REPRO_JIT", "off")
        assert _resolve_initial_tier() == "reference"

    def test_env_on_requests_jit(self, monkeypatch):
        monkeypatch.setenv("REPRO_JIT", "1")
        if jit_available():
            assert _resolve_initial_tier() == "jit"
        else:
            with pytest.warns(RuntimeWarning, match="numba is not installed"):
                assert _resolve_initial_tier() == "reference"

    def test_env_unset_autodetects(self, monkeypatch):
        monkeypatch.delenv("REPRO_JIT", raising=False)
        expected = "jit" if jit_available() else "reference"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _resolve_initial_tier() == expected

    def test_env_garbage_warns_and_autodetects(self, monkeypatch):
        monkeypatch.setenv("REPRO_JIT", "maybe")
        with pytest.warns(RuntimeWarning, match="unrecognised REPRO_JIT"):
            tier = _resolve_initial_tier()
        assert tier == ("jit" if jit_available() else "reference")

    def test_set_tier_unknown_raises(self):
        with pytest.raises(ValidationError, match="unknown kernel tier"):
            set_tier("cuda")

    @pytest.mark.skipif(jit_available(), reason="numba installed; jit is selectable")
    def test_set_tier_jit_without_numba_requires_force(self):
        with pytest.raises(ValidationError, match="requires numba"):
            set_tier("jit")

    def test_use_tier_restores_previous(self):
        before = current_tier()
        with use_tier("jit", force=True):
            assert current_tier() == "jit"
            with use_tier("reference"):
                assert current_tier() == "reference"
            assert current_tier() == "jit"
        assert current_tier() == before

    def test_fingerprint_records_tier(self):
        assert environment_fingerprint()["kernel_tier"] == current_tier()


def facade_workload(weighted):
    """A mixed insert/delete/search/snapshot/compaction run on the facade."""
    rng = np.random.default_rng(1234)
    g = create("slabhash", num_vertices=48, weighted=weighted)
    src = rng.integers(0, 48, 400)
    dst = rng.integers(0, 48, 400)
    w = rng.integers(1, 100, 400) if weighted else None
    if weighted:
        g.insert_edges(src, dst, w)
    else:
        g.insert_edges(src, dst)
    g.delete_edges(src[:120], dst[:120])
    exists = np.asarray(g.edge_exists(src, dst))
    snap = g.snapshot()
    g.flush_tombstones()
    s, d = g.sorted_adjacency()
    return (
        exists,
        snap.row_ptr,
        snap.col_idx,
        snap.weights,
        np.asarray(s),
        np.asarray(d),
        counters_dict(),
    )


def assert_state_equal(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        if isinstance(x, dict):
            assert x == y
        elif x is None:
            assert y is None
        else:
            assert np.array_equal(x, y)


class TestCounterParity:
    @pytest.mark.parametrize("weighted", [True, False])
    def test_facade_workload_bit_identical(self, weighted):
        get_counters().reset()
        ref = facade_workload(weighted)
        get_counters().reset()
        with use_tier("jit", force=True):
            jit = facade_workload(weighted)
        assert_state_equal(ref, jit)

    def test_merge_event_window_bit_identical(self):
        rng = np.random.default_rng(7)
        comp = np.unique(
            (rng.integers(0, 32, 300).astype(np.int64) << 32)
            | rng.integers(0, 32, 300)
        )
        base = CSRSnapshot.from_coo(
            COO(comp >> 32, comp & 0xFFFFFFFF, 32,
                weights=np.arange(comp.size, dtype=np.int64))
        )
        events = [
            EdgeBatch(
                seq=i,
                before_version=i,
                after_version=i + 1,
                is_insert=bool(i % 2 == 0),
                src=rng.integers(0, 32, 50),
                dst=rng.integers(0, 32, 50),
                weights=rng.integers(1, 9, 50),
                rows=50,
            )
            for i in range(4)
        ]

        def run():
            get_counters().reset()
            out = merge_event_window(base, events)
            return out.row_ptr, out.col_idx, out.weights, counters_dict()

        ref = run()
        with use_tier("jit", force=True):
            jit = run()
        assert_state_equal(ref, jit)

    def test_merge_duplicate_base_raises_in_both_tiers(self):
        """The kernel validates the base keys it is handed, wherever the
        snapshot got them: derived by the merge, memoised earlier, or
        installed by a builder."""
        empty = np.empty(0, dtype=np.int64)
        for tier in ("reference", "jit"):
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
                with use_tier(tier, force=True):
                    with pytest.raises(ValidationError, match="duplicate"):
                        merge_csr_delta(bad, empty, None, empty)

    def test_t2_metrics_bit_identical(self):
        """The t2 bench values derive from modeled counters, so the whole
        table must be bit-identical with the jit tier on."""
        rng = np.random.default_rng(5)
        comp = np.unique(
            (rng.integers(0, 64, 500).astype(np.int64) << 32)
            | rng.integers(0, 64, 500)
        )
        datasets = {"tiny": COO(comp >> 32, comp & 0xFFFFFFFF, 64)}

        def metrics():
            art = table2_edge_insertion(seed=3, datasets=datasets, quick=True)
            return {r.metric: r.value for r in art.results}

        ref = metrics()
        with use_tier("jit", force=True):
            jit = metrics()
        assert ref == jit
        assert ref  # sanity: the table actually produced metrics


def _cold(oracle, n, weighted):
    keys = np.array(sorted(oracle), dtype=np.int64)
    w = np.array([oracle[k] for k in keys.tolist()], dtype=np.int64) if weighted else None
    return CSRSnapshot.from_coo(COO(keys >> 32, keys & 0xFFFFFFFF, n, weights=w))


def _merge_chain(n, weighted, base, steps):
    """Drive ``steps`` through :func:`merge_csr_delta` from a cold base;
    every link must equal the cold rebuild of the oracle dict.  Returns the
    last link and what the merges (alone) charged."""
    oracle = {(s << 32) | d: w for s, d, w in base}
    snap = _cold(oracle, n, weighted)
    charged = {}
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
        with counting() as delta:
            snap = merge_csr_delta(
                snap, up_keys, up_w if weighted else None, np.array(sorted(gone), dtype=np.int64)
            )
        for name, amount in delta.items():
            charged[name] = charged.get(name, 0) + amount
        installed = snap._keys  # set by the merge, before anything could derive it
        want = _cold(oracle, n, weighted)
        assert_state_equal(
            (snap.row_ptr, snap.col_idx, snap.weights, installed, snap.keys()),
            (want.row_ptr, want.col_idx, want.weights, want.keys(), want.keys()),
        )
        assert snap.row_ptr.dtype == snap.col_idx.dtype == snap.keys().dtype == np.int64
    return snap.row_ptr, snap.col_idx, snap.weights, snap.keys(), charged


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
    def test_chain_equals_cold_rebuild_on_both_tiers(self, chain):
        ref = _merge_chain(*chain)
        with use_tier("jit", force=True):
            jit = _merge_chain(*chain)
        assert_state_equal(ref, jit)

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


class TestKernelBenchArtifact:
    def test_op_parity_all_ops(self):
        for op in OPS:
            assert op_parity(op, seed=11) == 1.0, op

    def test_artifact_shape(self):
        art = kernel_artifact(seed=0, quick=True)
        keys = {r.metric for r in art.results}
        for op in OPS:
            assert f"t15/{op}/jit_parity" in keys
        assert len(keys) == len(OPS)  # the proofs and nothing else
        parities = [r.value for r in art.results if r.metric.endswith("_parity")]
        assert parities and all(v == 1.0 for v in parities)

