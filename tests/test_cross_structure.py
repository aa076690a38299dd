"""Cross-structure equivalence: all four dynamic structures, one op stream.

The bench harness compares structures on identical inputs, which is only
meaningful if they implement identical *semantics*.  This property test
runs a random insert/delete stream through ours, Hornet, faimGraph, and
GPMA and requires identical final edge sets and edge counts at every step.

The second half holds the design-point ablations: device-model facts about
*why* the hash structure is chosen (Sections IV-C2, VII and the related
work) that no runner artifact emits, so the scorecard cannot carry them.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.workloads import (
    STRUCTURES,
    bulk_built_structure,
    make_structure,
    random_edge_batch,
)
from repro.datasets.rmat import rmat_graph
from repro.gpusim.counters import counting
from repro.gpusim.model import simulated_seconds
from tests.conftest import structure_edges

N = 40

op_stream = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete"]),
        st.lists(st.tuples(st.integers(0, N - 1), st.integers(0, N - 1)), max_size=60),
    ),
    max_size=8,
)


@given(op_stream)
@settings(max_examples=30, deadline=None)
def test_all_structures_agree(op_list):
    graphs = {name: make_structure(name, N, weighted=False) for name in STRUCTURES}
    ref: set[tuple[int, int]] = set()
    for op, pairs in op_list:
        if not pairs:
            continue
        src = np.array([p[0] for p in pairs])
        dst = np.array([p[1] for p in pairs])
        if op == "insert":
            expected_delta = {(s, d) for s, d in pairs if s != d} - ref
            ref |= {(s, d) for s, d in pairs if s != d}
        else:
            expected_delta = {(s, d) for s, d in pairs} & ref
            ref -= set(pairs)
        for name, g in graphs.items():
            if op == "insert":
                added = g.insert_edges(src, dst)
                assert added == len(expected_delta), (name, op)
            else:
                removed = g.delete_edges(src, dst)
                assert removed == len(expected_delta), (name, op)
            assert structure_edges(g) == ref, (name, op)
            assert g.num_edges() == len(ref), name


@given(op_stream)
@settings(max_examples=20, deadline=None)
def test_edge_exists_agrees(op_list):
    graphs = {name: make_structure(name, N, weighted=False) for name in STRUCTURES}
    rng = np.random.default_rng(0)
    for op, pairs in op_list:
        if not pairs:
            continue
        src = np.array([p[0] for p in pairs])
        dst = np.array([p[1] for p in pairs])
        for g in graphs.values():
            (g.insert_edges if op == "insert" else g.delete_edges)(src, dst)
    qs = rng.integers(0, N, 100)
    qd = rng.integers(0, N, 100)
    answers = [graphs[name].edge_exists(qs, qd).tolist() for name in STRUCTURES]
    assert all(a == answers[0] for a in answers)


# ---------------------------------------------------------------------------
# Ablations: what the other design points cost under the device model
# ---------------------------------------------------------------------------

BATCH = 1 << 12


@pytest.fixture(scope="module")
def heavy_tailed():
    """A generated heavy-tailed graph (multi-level B-trees, long pages)."""
    return rmat_graph(12, 16, seed=0).deduplicated()


def _insert_cost(structure, coo, duplicate_heavy):
    """Modeled seconds + counter delta of one batch into a prebuilt graph."""
    src, dst, _ = random_edge_batch(coo.num_vertices, BATCH, seed=4)
    if duplicate_heavy:  # the second half of the batch repeats the first
        src[BATCH // 2 :] = src[: BATCH // 2]
        dst[BATCH // 2 :] = dst[: BATCH // 2]
    g = bulk_built_structure(structure, coo)
    with counting() as delta:
        g.insert_edges(src, dst)
    return simulated_seconds(delta), delta


@pytest.mark.parametrize(
    "rival, duplicate_heavy",
    [
        # Every B-tree insert pays a root-to-leaf descent; hash probes stay O(1).
        ("btree", False),
        # PMA updates pay sorted-batch routing plus window rebalancing.
        ("gpma", False),
        # Uniqueness costs the lists a sort (Hornet) or a full scan (faimGraph)
        # per batch; hash-table *replace* gives it for free.
        ("hornet", True),
        ("faimgraph", True),
    ],
)
def test_insert_costs_ours_less_than_the_rival_design(heavy_tailed, rival, duplicate_heavy):
    ours, ours_delta = _insert_cost("ours", heavy_tailed, duplicate_heavy)
    theirs, _ = _insert_cost(rival, heavy_tailed, duplicate_heavy)
    assert ours < theirs
    assert ours_delta.get("sorted_elements", 0) == 0


def test_btree_sorted_view_needs_no_sort(heavy_tailed):
    """The B-tree's side of the trade: it walks its leaf chains for a sorted
    view, where the hash structure pays an export + sort (Table VIII)."""
    tree = bulk_built_structure("btree", heavy_tailed)
    with counting() as delta:
        row_ptr, col = tree.sorted_adjacency()
    assert delta.get("sorted_elements", 0) == 0
    assert row_ptr[-1] == col.size == tree.num_edges()


def test_tombstone_tradeoff_memory_vs_flush_cost():
    """Section IV-C2: tombstones left in place hold memory; flushing reclaims
    it but is a real rebuild pass — and both expose the same live edges."""
    rng = np.random.default_rng(9)
    n, churn = 4000, 6000
    src, dst = rng.integers(0, n, churn), rng.integers(0, n, churn)
    kept, flushed = (make_structure("ours", n) for _ in range(2))
    for g in (kept, flushed):
        g.insert_edges(src, dst)
        g.delete_edges(src[: churn // 2], dst[: churn // 2])
    assert kept.stats().tombstones > 0

    with counting() as flush_delta:
        flushed.flush_tombstones()
    assert flushed.stats().tombstones == 0
    assert flushed.stats().memory_bytes <= kept.stats().memory_bytes
    assert simulated_seconds(flush_delta) > 0
    assert structure_edges(kept) == structure_edges(flushed)
