"""Cross-validation: vectorized kernels vs. the literal Algorithm 1/2
WCWS reference engine.

The reference engine executes the paper's pseudocode lane-by-lane (ballot /
ffs / shuffle / popc scheduling); the production path runs batched NumPy
kernels.  Final graph states and per-vertex edge counters must coincide on
every input — including batches with intra-warp duplicate edges, where both
realize "most recent wins".
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DynamicGraph
from repro.gpusim.wcws import delete_edges_reference, insert_edges_reference
from tests.conftest import structure_state

N = 24

edge_batches = st.lists(
    st.tuples(st.integers(0, N - 1), st.integers(0, N - 1), st.integers(0, 50)),
    min_size=1,
    max_size=120,
)


def unpack(batch):
    src = np.array([e[0] for e in batch], dtype=np.int64)
    dst = np.array([e[1] for e in batch], dtype=np.int64)
    w = np.array([e[2] for e in batch], dtype=np.int64)
    return src, dst, w


@given(edge_batches)
@settings(max_examples=50, deadline=None)
def test_insert_equivalence(batch):
    src, dst, w = unpack(batch)

    fast = DynamicGraph(num_vertices=N, hash_seed=7)
    added_fast = fast.insert_edges(src, dst, w)

    ref = DynamicGraph(num_vertices=N, hash_seed=7)
    added_ref = insert_edges_reference(ref, src, dst, w)

    assert added_fast == added_ref
    assert structure_state(fast) == structure_state(ref)
    assert np.array_equal(fast._dict.edge_count, ref._dict.edge_count)


@given(edge_batches, edge_batches)
@settings(max_examples=50, deadline=None)
def test_insert_then_delete_equivalence(ins_batch, del_batch):
    s1, d1, w1 = unpack(ins_batch)
    s2, d2, _ = unpack(del_batch)

    fast = DynamicGraph(num_vertices=N, hash_seed=3)
    fast.insert_edges(s1, d1, w1)
    removed_fast = fast.delete_edges(s2, d2)

    ref = DynamicGraph(num_vertices=N, hash_seed=3)
    insert_edges_reference(ref, s1, d1, w1)
    removed_ref = delete_edges_reference(ref, s2, d2)

    # Duplicate (s, d) pairs inside a delete batch: the vectorized kernel
    # collapses them (one success), the lane-serial reference also deletes
    # once — totals agree.
    assert removed_fast == removed_ref
    assert structure_state(fast) == structure_state(ref)
    assert np.array_equal(fast._dict.edge_count, ref._dict.edge_count)


def test_insert_exact_warp_boundary():
    """Batches of exactly 32/64 lanes exercise full-warp scheduling."""
    for n in (32, 64):
        src = np.arange(n, dtype=np.int64) % N
        dst = (np.arange(n, dtype=np.int64) * 7 + 1) % N
        w = np.arange(n, dtype=np.int64)
        fast = DynamicGraph(num_vertices=N, hash_seed=1)
        ref = DynamicGraph(num_vertices=N, hash_seed=1)
        assert fast.insert_edges(src, dst, w) == insert_edges_reference(ref, src, dst, w)
        assert structure_state(fast) == structure_state(ref)


def test_same_source_warp_grouping():
    """A warp full of edges sharing one source is the WCWS coalescing case
    (Algorithm 1 lines 6-8): one grouped call, one popc-credited count."""
    src = np.zeros(32, dtype=np.int64)
    dst = np.arange(1, 33, dtype=np.int64) % N
    dst[dst == 0] = N - 1
    ref = DynamicGraph(num_vertices=N, hash_seed=5)
    added = insert_edges_reference(ref, src, dst, np.zeros(32, np.int64))
    assert added == np.unique(dst).size
    assert int(ref._dict.edge_count[0]) == added


def test_grown_and_rehashed_tables_agree():
    """The reference engine's scalar hash (``bucket_single``) and the
    vectorized one agree on a table rehashed from one bucket to several and
    on a many-bucket table created past the initial capacity."""
    grown = 3 * N

    def build():
        g = DynamicGraph(num_vertices=N, hash_seed=13)
        g.insert_edges(np.zeros(N - 1, np.int64), np.arange(1, N), np.arange(1, N))
        g.rehash([0])
        g.insert_vertices([grown], expected_degree=[300])
        return g

    fast, ref = build(), build()
    assert (fast._dict.arena.table_buckets[[0, grown]] > 1).all()
    rng = np.random.default_rng(4)
    src = np.repeat(np.array([0, grown]), 150)
    dst = rng.integers(0, fast.num_vertices, src.size)
    w = rng.integers(0, 50, src.size)
    assert fast.insert_edges(src, dst, w) == insert_edges_reference(ref, src, dst, w)
    assert structure_state(fast) == structure_state(ref)
    kept = src != dst  # self-loops are dropped
    assert ref.edge_exists(src[kept], dst[kept]).all()  # the vector probe finds each key
    assert fast.delete_edges(src[::3], dst[::3]) == delete_edges_reference(ref, src[::3], dst[::3])
    assert structure_state(fast) == structure_state(ref)
    assert np.array_equal(fast._dict.edge_count, ref._dict.edge_count)


@given(
    edge_batches,
    st.lists(st.integers(0, N - 1), min_size=1, max_size=8),
)
@settings(max_examples=30, deadline=None)
def test_vertex_deletion_equivalence(batch, doomed):
    """Algorithm 2 (literal warp engine) vs. the vectorized vertex-deletion
    kernel: identical final states, counts, and removal totals."""
    from repro.gpusim.wcws import delete_vertices_reference

    src, dst, _ = unpack(batch)

    fast = DynamicGraph(num_vertices=N, weighted=False, directed=False, hash_seed=9)
    fast.insert_edges(src, dst)
    removed_fast = fast.delete_vertices(doomed)

    ref = DynamicGraph(num_vertices=N, weighted=False, directed=False, hash_seed=9)
    ref.insert_edges(src, dst)
    removed_ref = delete_vertices_reference(ref, np.array(doomed))

    assert removed_fast == removed_ref
    assert structure_state(fast) == structure_state(ref)
    assert np.array_equal(fast._dict.edge_count, ref._dict.edge_count)
