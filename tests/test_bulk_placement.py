"""The bulk build's one placement pass against the composition it replaced.

``DynamicGraph.bulk_build`` used to size the tables (``ensure_tables`` with
each source's repeat-counting degree) and then send the rows through one
``insert_edges`` batch.  That composition lives on here as the oracle: the
placement pass must leave the same pool bits, free list, bump pointer,
table metadata, hash coefficients, edge counts and ``gpusim`` charges,
and return the same count.  The build is one version step, whatever it
stores, and never grows the vertex space: a COO may declare a wider one,
but its ids lie in the graph's.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coo import COO
from repro.core import DynamicGraph
from repro.gpusim.counters import counting

N = 48


def oracle_bulk_build(graph, coo):
    """The old ``bulk_build``: size the tables, insert the rows."""
    keep = coo.src != coo.dst
    weights = None if coo.weights is None else coo.weights[keep]
    work = COO(coo.src[keep], coo.dst[keep], graph.num_vertices, weights=weights)
    if not graph.directed:
        work = work.symmetrized()
    degrees = work.out_degrees()
    sources = np.flatnonzero(degrees > 0)
    graph._dict.ensure_tables(sources, degrees[sources], graph.load_factor)
    return graph.insert_edges(work.src, work.dst, work.weights if graph.weighted else None)


def graph_state(g):
    vd = g._dict
    arena, pool = vd.arena, vd.arena.pool
    state = {
        "keys": pool.keys,
        "next": pool.next_slab,
        "free": pool._free,
        "bump": np.array([pool._bump]),
        "base": arena.table_base,
        "buckets": arena.table_buckets,
        "a": arena.hash_family._a,
        "b": arena.hash_family._b,
        "edge_count": vd.edge_count,
        "totals": np.array([vd.total_edges()]),
    }
    if pool.weighted:
        state["values"] = pool.values
    return state


def assert_same_graph(got, expected):
    a, b = graph_state(got), graph_state(expected)
    assert a.keys() == b.keys()
    for name in b:
        assert a[name].dtype == b[name].dtype and np.array_equal(a[name], b[name]), name


def hub_rows(rng, rows):
    """Rows whose sources are skewed onto a few hubs, so some tables get
    several buckets and some chains spill past one slab; repeats of a
    pair carry different weights, and some rows are self-loops."""
    src = np.minimum(rng.geometric(0.15, rows) - 1, N - 1)
    dst = rng.integers(0, N, rows)
    dst[: rows // 8] = src[: rows // 8]  # self-loops
    again = rng.integers(0, rows, rows // 4)  # a quarter repeat earlier or later rows
    src[rows - again.shape[0] :], dst[rows - again.shape[0] :] = src[again], dst[again]
    return src, dst


@given(
    st.booleans(),
    st.booleans(),
    st.sampled_from([0.3, 0.7, 4.0]),
    st.integers(0, 2**32 - 1),
    st.integers(0, 700),
    st.sampled_from([N, 3 * N]),
)
@settings(max_examples=80, deadline=None, derandomize=True)
def test_bulk_build_equals_the_old_composition(
    directed, weighted, load_factor, seed, rows, id_space
):
    rng = np.random.default_rng(seed)
    src, dst = hub_rows(rng, rows)
    weights = rng.integers(0, 1 << 32, rows) if rng.random() < 0.8 else None
    coo = COO(src, dst, id_space, weights=weights)

    def graph():
        return DynamicGraph(N, weighted=weighted, directed=directed, load_factor=load_factor)

    got, expected = graph(), graph()
    with counting() as new_charges:
        built = got.bulk_build(coo)
    with counting() as old_charges:
        built_before = oracle_bulk_build(expected, coo)
    assert built == built_before
    assert new_charges == old_charges
    assert_same_graph(got, expected)
    assert (got.num_vertices, got.mutation_version) == (N, 1)
    got._dict.arena.check_invariants()


@given(st.booleans(), st.booleans(), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_tables_left_by_earlier_mutations(directed, weighted, seed):
    """An empty graph may still hold tables — fresh ones from
    ``insert_vertices`` and ones whose edges were deleted, tombstones
    left in their chains; the rows land behind what those hold."""

    def graph():
        rng = np.random.default_rng(seed)
        g = DynamicGraph(N, weighted=weighted, directed=directed)
        g.insert_vertices([1, 2], expected_degree=[40, 2])
        src, dst = hub_rows(rng, 300)
        g.insert_edges(src, dst)
        g.delete_edges(src, dst)
        assert g.num_edges() == 0
        return g, rng

    (got, rng), (expected, _) = graph(), graph()
    coo = COO(*hub_rows(rng, 400), N, weights=rng.integers(0, 99, 400))
    version = got.mutation_version
    with counting() as new_charges:
        built = got.bulk_build(coo)
    with counting() as old_charges:
        built_before = oracle_bulk_build(expected, coo)
    assert built == built_before
    assert new_charges == old_charges
    assert_same_graph(got, expected)
    assert got.mutation_version == version + 1
