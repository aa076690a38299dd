"""Analytics validated against networkx on random graphs."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import DynamicGraph
from repro.analytics import (
    advance,
    bfs,
    connected_components,
    dynamic_triangle_count,
    filter_frontier,
    kcore_membership,
    pagerank,
    sssp,
    triangle_count_hash,
    triangle_count_sorted,
    undirected_triangles,
)
from repro.analytics.pagerank import DAMPING, power_iteration
from repro.analytics.wedges import oriented_triangles
from repro.api import Graph
from repro.baselines import HornetGraph
from repro.datasets import powerlaw_graph, rgg_graph
from repro.gpusim.counters import counting, get_counters
from repro.stream import IncrementalPageRank, IncrementalTriangleCount
from repro.util.errors import ValidationError


@pytest.fixture(params=["rgg", "powerlaw"])
def undirected_case(request):
    if request.param == "rgg":
        coo = rgg_graph(300, 9.0, seed=4)
    else:
        coo = powerlaw_graph(250, 7.0, seed=4)
    G = nx.Graph()
    G.add_nodes_from(range(coo.num_vertices))
    G.add_edges_from(zip(coo.src.tolist(), coo.dst.tolist()))
    g = DynamicGraph(coo.num_vertices, weighted=False)
    g.bulk_build(coo)
    return coo, G, g


class TestTriangleCounting:
    def test_hash_matches_networkx(self, undirected_case):
        _, G, g = undirected_case
        expected = sum(nx.triangles(G).values()) // 3
        assert triangle_count_hash(g) == expected

    def test_sorted_matches_networkx(self, undirected_case):
        _, G, g = undirected_case
        expected = sum(nx.triangles(G).values()) // 3
        row_ptr, col = g.sorted_adjacency()
        assert triangle_count_sorted(row_ptr, col) == expected

    def test_small_chunks_same_answer(self, undirected_case):
        _, G, g = undirected_case
        expected = sum(nx.triangles(G).values()) // 3
        assert triangle_count_hash(g, chunk_size=64) == expected

    def test_known_triangle(self):
        g = DynamicGraph(4, weighted=False, directed=False)
        g.insert_edges([0, 1, 2], [1, 2, 0])
        assert triangle_count_hash(g) == 1

    def test_empty_graph(self):
        g = DynamicGraph(4, weighted=False)
        assert triangle_count_hash(g) == 0
        assert triangle_count_sorted(np.zeros(5, np.int64), np.empty(0, np.int64)) == 0

    def test_dynamic_tc_counts_monotone(self, rng):
        n = 150
        g = DynamicGraph(n, weighted=False)
        batches = [
            (rng.integers(0, n, 200), rng.integers(0, n, 200)) for _ in range(3)
        ]
        steps = dynamic_triangle_count(g, batches, mode="hash")
        assert len(steps) == 3
        assert all(s.triangles >= p.triangles for p, s in zip(steps, steps[1:]))

    def test_dynamic_tc_modes_agree(self, rng):
        n = 120
        batches = [
            (rng.integers(0, n, 150), rng.integers(0, n, 150)) for _ in range(3)
        ]
        g1 = DynamicGraph(n, weighted=False)
        hash_steps = dynamic_triangle_count(g1, batches, mode="hash")
        g2 = HornetGraph(n, weighted=False)
        sorted_steps = dynamic_triangle_count(g2, batches, mode="sorted")
        assert [s.triangles for s in hash_steps] == [s.triangles for s in sorted_steps]
        assert all(s.sort_model > 0 for s in sorted_steps)

    def test_dynamic_tc_bad_mode(self):
        with pytest.raises(ValidationError):
            dynamic_triangle_count(DynamicGraph(4, weighted=False), [], mode="nope")


@st.composite
def simple_graphs(draw):
    """``(num_vertices, canonical u < v edges)``: random edges, a star hub
    and a clique over the same ids, and isolated ids past every edge."""
    n = draw(st.integers(1, 30))
    ids = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(ids, ids), max_size=60))
    hub = draw(ids)
    pairs += [(hub, leaf) for leaf in draw(st.lists(ids, max_size=n))]
    clique = draw(st.lists(ids, unique=True, max_size=7))
    pairs += [(a, b) for a in clique for b in clique]
    edges = sorted({(min(a, b), max(a, b)) for a, b in pairs if a != b})
    return n + draw(st.integers(0, 4)), edges


def _sorted_symmetric_csr(n, edges):
    both = sorted(edges + [(v, u) for u, v in edges])
    row_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount([u for u, _ in both], minlength=n), out=row_ptr[1:])
    return row_ptr, np.array([v for _, v in both], dtype=np.int64)


class TestOrientedTriangles:
    """The whole-graph count finds each triangle once, yet charges the model
    one ``sorted_probes`` per neighbor of each edge's smaller-degree
    endpoint, as the sorted-list kernel it prices always has."""

    @given(simple_graphs())
    @example((1, []))  # no edges
    @example((6, []))  # isolated ids only
    @example((3, [(0, 2)]))  # a single edge
    @example((9, [(0, leaf) for leaf in range(1, 9)]))  # a star hub
    @example((7, [(a, b) for a in range(1, 7) for b in range(a + 1, 7)]))  # a clique
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_counts_and_charges(self, case):
        n, edges = case
        get_counters().reset()
        G = nx.Graph(edges)
        expected = sum(nx.triangles(G).values()) // 3
        deg = np.bincount(np.array(edges, dtype=np.int64).reshape(-1), minlength=n)
        probes = sum(min(deg[u], deg[v]) for u, v in edges)
        row_ptr, col = _sorted_symmetric_csr(n, edges)

        g = Graph.create("slabhash", n)
        g.insert_edges([u for u, _ in edges], [v for _, v in edges])  # one orientation
        for count in (
            lambda: oriented_triangles(row_ptr, col),
            lambda: triangle_count_sorted(row_ptr, col),
            lambda: undirected_triangles(g),
            lambda: IncrementalTriangleCount(g).count(),
        ):
            with counting() as delta:
                assert count() == expected
            assert delta.get("sorted_probes", 0) == probes
        if probes == 0:  # Counters.add(name, 0) would have created the key
            assert "sorted_probes" not in get_counters().snapshot()


class TestTraversal:
    def test_bfs_matches_networkx(self, undirected_case):
        coo, G, g = undirected_case
        src = int(coo.src[0]) if coo.num_edges else 0
        dist = bfs(g, src)
        ref = nx.single_source_shortest_path_length(G, src)
        for v in range(coo.num_vertices):
            assert dist[v] == ref.get(v, -1)

    def test_bfs_agrees_on_facade_backend_and_snapshot(self, undirected_case):
        """The three kinds of graph an analytic accepts give one answer."""
        coo, _, g = undirected_case
        facade = Graph.create("slabhash", num_vertices=coo.num_vertices, weighted=False)
        facade.bulk_build(coo)
        src = int(coo.src[0])
        want = bfs(g, src)
        assert np.array_equal(bfs(facade, src), want)
        assert np.array_equal(bfs(facade.snapshot(), src), want)

    def test_bfs_source_out_of_range(self):
        with pytest.raises(ValidationError):
            bfs(DynamicGraph(4, weighted=False), 9)

    def test_bfs_on_baseline_structure(self, rng):
        """BFS over Hornet's adjacencies agrees with the slab hash's."""
        n = 40
        coo = rgg_graph(n, 6.0, seed=1)
        h = HornetGraph(n, weighted=False)
        h.bulk_build(coo)
        g = DynamicGraph(n, weighted=False)
        g.bulk_build(coo)
        assert np.array_equal(bfs(h, 0), bfs(g, 0))

    def test_advance_and_filter(self):
        g = DynamicGraph(6, weighted=False)
        g.insert_edges([0, 0, 1], [1, 2, 3])
        srcs, dsts = advance(g, np.array([0, 1]))
        assert sorted(zip(srcs.tolist(), dsts.tolist())) == [(0, 1), (0, 2), (1, 3)]
        visited = np.zeros(6, dtype=bool)
        visited[2] = True
        out = filter_frontier(dsts, visited)
        assert sorted(out.tolist()) == [1, 3]

    def test_filter_frontier_dedups_sorted_without_sort(self):
        visited = np.zeros(8, dtype=bool)
        visited[5] = True
        candidates = np.array([7, 3, 3, 5, 1, 7, 1], dtype=np.int64)
        out = filter_frontier(candidates, visited)
        assert out.tolist() == [1, 3, 7]  # unique, ascending, unvisited
        assert filter_frontier(np.empty(0, dtype=np.int64), visited).size == 0

    def test_filter_frontier_rejects_negative_ids_mask_path(self):
        """id -1 must not wrap to visited[n-1] and corrupt the frontier."""
        visited = np.zeros(8, dtype=bool)
        with pytest.raises(ValidationError, match="candidates"):
            filter_frontier(np.array([-1, 2, 3], dtype=np.int64), visited)

    def test_filter_frontier_rejects_negative_ids_sort_path(self):
        # Few candidates on a large mask take the np.unique path.
        visited = np.zeros(10_000, dtype=bool)
        with pytest.raises(ValidationError, match="candidates"):
            filter_frontier(np.array([-1, 2], dtype=np.int64), visited)

    def test_filter_frontier_rejects_out_of_range_ids_both_paths(self):
        small = np.zeros(4, dtype=bool)  # mask path
        with pytest.raises(ValidationError, match="candidates"):
            filter_frontier(np.array([0, 4], dtype=np.int64), small)
        large = np.zeros(10_000, dtype=bool)  # sort path
        with pytest.raises(ValidationError, match="candidates"):
            filter_frontier(np.array([10_000], dtype=np.int64), large)

    def test_cc_matches_networkx(self, undirected_case):
        coo, G, g = undirected_case
        labels = connected_components(g)
        mine = {}
        for v, l in enumerate(labels.tolist()):
            mine.setdefault(l, set()).add(v)
        theirs = {frozenset(c) for c in nx.connected_components(G)}
        assert {frozenset(s) for s in mine.values()} == theirs

    def test_pagerank_matches_networkx(self, undirected_case):
        coo, G, g = undirected_case
        pr = pagerank(g, tol=1e-12)
        ref = nx.pagerank(G.to_directed(), alpha=0.85, tol=1e-12)
        assert max(abs(pr[v] - ref[v]) for v in range(coo.num_vertices)) < 1e-6

    def test_pagerank_sums_to_one(self, undirected_case):
        _, _, g = undirected_case
        assert pagerank(g).sum() == pytest.approx(1.0)

    def test_pagerank_is_the_damped_fixed_point(self):
        """The ranks solve ``r = (1 - d) / n + d (Aᵀ D⁻¹ r + m / n)``, ``m``
        the dangling vertices' mass, at the one damping factor
        ``DAMPING = 0.85``."""
        assert DAMPING == 0.85
        g = DynamicGraph(5, weighted=False)
        src, dst = [0, 0, 1, 2, 3], [1, 2, 2, 0, 0]  # 4 has no out-edges
        g.insert_edges(src, dst)
        r = pagerank(g, tol=1e-14, max_iters=1000)
        out_deg = np.bincount(src, minlength=5).astype(np.float64)
        step = np.zeros((5, 5))
        for s, d in zip(src, dst):
            step[d, s] += 1.0 / out_deg[s]
        dangling_mass = r[out_deg == 0].sum() / 5
        expected = (1.0 - 0.85) / 5 + 0.85 * (step @ r + dangling_mass)
        assert np.allclose(r, expected, atol=1e-12, rtol=0.0)

    @pytest.mark.parametrize("entry", ["pagerank", "power_iteration", "IncrementalPageRank"])
    def test_damping_is_not_a_parameter(self, entry):
        """The damping factor is the constant ``DAMPING``: no PageRank entry
        point takes it as a keyword."""
        g = Graph.create("slabhash", 4)
        g.insert_edges([0, 1], [1, 2])
        calls = {
            "pagerank": lambda: pagerank(g, damping=0.5),
            "power_iteration": lambda: power_iteration(
                g.snapshot(), np.full(4, 0.25), damping=0.5
            ),
            "IncrementalPageRank": lambda: IncrementalPageRank(g, damping=0.5),
        }
        with pytest.raises(TypeError):
            calls[entry]()

    @pytest.mark.parametrize(
        "params",
        [
            {"max_iters": 0},
            {"max_iters": 1.5},
            {"max_iters": True},
            {"tol": float("nan")},
            {"tol": 0.0},
            {"tol": -1.0},
        ],
        ids=str,
    )
    def test_pagerank_rejects_parameters_that_return_no_answer(self, params):
        """``max_iters=0`` used to return the uniform start vector and a
        NaN ``tol`` to run every sweep without converging."""
        with pytest.raises(ValidationError):
            pagerank(DynamicGraph(4, weighted=False), **params)


_NOT_A_REAL = ["0.5", None, np.array([0.5, 0.5]), float("nan"), True, np.bool_(False)]


class TestPageRankFloatRule:
    """``tol`` is one real number: a str or ``None`` used to raise a raw
    ``TypeError``, a 2-element array NumPy's "truth value ... is ambiguous"
    ``ValueError``, and a bool passed as 0 or 1.  ``max_iters`` refuses the
    same values under the integer rule."""

    @pytest.mark.parametrize("name", ["max_iters", "tol"])
    @pytest.mark.parametrize("bad", _NOT_A_REAL, ids=repr)
    def test_pagerank_and_incremental_pagerank_refuse(self, name, bad):
        g = Graph.create("slabhash", 4)
        g.insert_edges([0, 1], [1, 2])
        with pytest.raises(ValidationError):
            pagerank(g, **{name: bad})
        with pytest.raises(ValidationError):
            IncrementalPageRank(g, **{name: bad})

    @pytest.mark.parametrize("bad", _NOT_A_REAL, ids=repr)
    def test_run_scenario_refuses(self, bad):
        from repro.stream import insert_heavy_scenario, run_scenario

        with pytest.raises(ValidationError):
            run_scenario(insert_heavy_scenario(1 << 10, batch=64, rounds=2), "slabhash", tol=bad)

    @pytest.mark.parametrize(
        "tol", [1e-8, np.float32(1e-6), 1, np.int64(1)], ids=repr
    )
    def test_numpy_scalars_and_ints_are_real_numbers(self, tol):
        g = Graph.create("slabhash", 4)
        g.insert_edges([0, 1], [1, 2])
        assert pagerank(g, tol=tol).sum() == pytest.approx(1.0)


class TestScalarArguments:
    """The scalar id rule of ``GraphBackend`` for every analytic's source
    and ``k``: integral, never a bool or a string, in range — a
    fractional or boolean value is rejected, never truncated."""

    @pytest.mark.parametrize("source", [1.5, True, "1", -1, 4], ids=repr)
    def test_bfs_and_sssp_reject_hostile_sources(self, source):
        with pytest.raises(ValidationError):
            bfs(DynamicGraph(4, weighted=False), source)
        with pytest.raises(ValidationError):
            sssp(DynamicGraph(4, weighted=True), source)

    def test_integral_float_source_is_that_vertex(self):
        g = DynamicGraph(4, weighted=False)
        g.insert_edges([1, 2], [2, 3])
        assert bfs(g, 1.0).tolist() == bfs(g, 1).tolist() == [-1, 0, 1, 2]

    @pytest.mark.parametrize("k", [0, -2, 1.5, True, "2"], ids=repr)
    def test_kcore_rejects_hostile_k(self, k):
        g = DynamicGraph(4, weighted=False, directed=False)
        g.insert_edges([0, 1, 2, 3], [1, 2, 0, 0])  # a triangle plus a pendant
        with pytest.raises(ValidationError):
            kcore_membership(g, k)
        assert kcore_membership(g, 2).tolist() == [True, True, True, False]
