import itertools
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from coopsim.network import (
    BA,
    DMS,
    Graph,
    NetworkConfig,
    generate,
    graph_json,
)

from conftest import (
    connected_graphs,
    degree_percentiles,
    diameter,
    fit_degree_exponent,
    global_transitivity,
    load_graph,
    neighbors,
    node_degrees,
    random_connected_edges,
    random_connected_graph,
    reference_from_edges,
    reference_generate_ba,
    star_graph,
)


def brute_force_transitivity(g: Graph) -> float:
    """Oracle: enumerate all node triples and count edges among them."""
    adj = [set(neighbors(g, i).tolist()) for i in range(g.n)]
    triangles = 0
    triples = 0
    for i, j, k in itertools.combinations(range(g.n), 3):
        present = (j in adj[i]) + (k in adj[i]) + (k in adj[j])
        if present == 3:
            triangles += 1
            triples += 3
        elif present == 2:
            triples += 1
    if triples == 0:
        return 0.0
    return 3 * triangles / triples


def check_structure(g: Graph, n: int) -> None:
    """g is a simple connected graph on n nodes: what Graph.from_edges
    assumes of its edges and does not check."""
    assert g.n == n
    indptr, indices = np.asarray(g.indptr), np.asarray(g.indices)
    degrees = node_degrees(g)
    assert degrees.min() >= 1
    rows = np.repeat(np.arange(n), degrees)
    # simple: no self-loop, and each sorted neighbor list strictly increases
    assert np.all(rows != indices)
    assert np.all(np.diff(indices)[rows[1:] == rows[:-1]] > 0)
    # undirected: the entries flipped to (neighbor, row) and sorted are the entries
    flipped = np.lexsort((rows, indices))
    assert np.array_equal(indices[flipped], rows)
    assert np.array_equal(rows[flipped], indices)
    adjacency = csr_matrix((np.ones(indices.size), indices, indptr), shape=(n, n))
    assert connected_components(adjacency, directed=False, return_labels=False) == 1


class TestGeneration:
    def test_ba_n3_is_triangle(self):
        g = generate(NetworkConfig(model=BA, n=3))
        assert g.edges == [[0, 1], [0, 2], [1, 2]]

    def test_dms_n3_is_triangle(self):
        g = generate(NetworkConfig(model=DMS, n=3))
        assert g.edges == [[0, 1], [0, 2], [1, 2]]

    def test_ba_edge_count_formula(self):
        # |E| = 1 + 2 * (n - 2): the edge (0, 1), then two edges per new node
        for n in (10, 500, 5000):
            g = generate(NetworkConfig(model=BA, n=n, seed=n))
            assert g.n_edges == 1 + 2 * (n - 2)
        assert abs(generate(NetworkConfig(model=BA, n=5000, seed=1)).average_degree
                   - 3.9988) < 1e-12

    def test_dms_edge_count(self):
        for n in (10, 500, 2000):
            g = generate(NetworkConfig(model=DMS, n=n, seed=n))
            assert g.n_edges == 3 + 2 * (n - 3)

    @pytest.mark.parametrize("model", [BA, DMS])
    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(3, 300), seed=st.integers(0, 2**63 - 1))
    # The benchmark's BA and DMS graph sizes at its master seed; each runs
    # under both models.
    @example(n=2000, seed=20230116)
    @example(n=5000, seed=20230116)
    def test_structural_invariants(self, model, n, seed):
        check_structure(generate(NetworkConfig(model=model, n=n, seed=seed)), n)

    @pytest.mark.parametrize("model", [BA, DMS])
    def test_same_seed_same_edges(self, model):
        a = generate(NetworkConfig(model=model, n=300, seed=42))
        b = generate(NetworkConfig(model=model, n=300, seed=42))
        assert np.array_equal(a.edges, b.edges)
        c = generate(NetworkConfig(model=model, n=300, seed=43))
        assert not np.array_equal(a.edges, c.edges)

    def test_dms_clusters_more_than_ba(self):
        n = 150
        ba = [global_transitivity(generate(NetworkConfig(model=BA, n=n, seed=s)))
              for s in range(10)]
        dms = [global_transitivity(generate(NetworkConfig(model=DMS, n=n, seed=s)))
               for s in range(10)]
        assert np.mean(dms) > np.mean(ba)

    def test_bounded_draws_match_one_call_per_bound(self):
        # The DMS growth oracle draws a batch of bounded integers in one
        # call, where the library draws one at a time: the batch must give
        # the draws, and leave the stream, of one call per bound.
        for seed in (0, 1, 12345):
            bounds = np.random.default_rng(seed).integers(1, 20_000, size=500)
            bounds[:3] = (1, 2, 20_000)
            batch, loop = np.random.default_rng(seed), np.random.default_rng(seed)
            drawn = batch.integers(0, bounds)
            assert drawn.tolist() == [int(loop.integers(b)) for b in bounds]
            assert batch.random() == loop.random()

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(3, 300), seed=st.integers(0, 2**63 - 1))
    @example(n=2000, seed=20230116)  # the benchmark's graph size and seed
    def test_ba_matches_one_draw_per_call(self, n, seed):
        # Seeded from the config, as a sweep grows its graphs.
        cfg = NetworkConfig(model=BA, n=n, seed=seed)
        got, want = generate(cfg), reference_generate_ba(cfg, np.random.default_rng(seed))
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            NetworkConfig(model=BA, n=2)
        with pytest.raises(ValueError):
            NetworkConfig(model=DMS, n=2)
        with pytest.raises(ValueError):
            NetworkConfig(model="WS", n=10)
        # Growth draws below 32-bit bounds, BA up to 4n - 10: n < 2**30.
        NetworkConfig(model=BA, n=2**30 - 1)
        with pytest.raises(ValueError, match="fewer than 2\\*\\*30 nodes"):
            NetworkConfig(model=BA, n=2**30)
        # Both models grow by two edges per node: no config sets another count.
        for key in ("m0", "m"):
            with pytest.raises(TypeError, match=repr(key)):
                NetworkConfig(model=BA, n=50, **{key: 2})


class TestGraphValidation:
    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(2, 40), seed=st.integers(0, 2**32 - 1))
    def test_csr_matches_sorted_adjacency_oracle(self, n, seed):
        # A simple graph's edges in any order, each in either direction.
        rng = np.random.default_rng(seed)
        canonical = random_connected_edges(n, rng)
        flips = rng.random(len(canonical)) < 0.5
        edges = [(v, u) if flip else (u, v)
                 for (u, v), flip in zip(rng.permutation(canonical).tolist(), flips)]
        adjacency = {i: [] for i in range(n)}
        for u, v in edges:
            adjacency[u].append(v)
            adjacency[v].append(u)
        lists = [sorted(adjacency[i]) for i in range(n)]

        g = Graph.from_edges(n, edges)
        assert g.indptr.tolist() == [0, *itertools.accumulate(map(len, lists))]
        assert g.indices.tolist() == [v for nbrs in lists for v in nbrs]
        assert g.edges == [list(e) for e in canonical]

    @settings(max_examples=100, deadline=None)
    @given(g=connected_graphs(max_n=40), seed=st.integers(0, 2**32 - 1), as_list=st.booleans())
    def test_csr_build_matches_lexsort_oracle(self, g, seed, as_list):
        # The graph's edges shuffled, each in a random direction, as an
        # array or as a list of pairs.
        rng = np.random.default_rng(seed)
        edges = rng.permutation(g.edges)
        flip = rng.random(len(edges)) < 0.5
        edges[flip] = edges[flip, ::-1]
        if as_list:
            edges = edges.tolist()
        built, oracle = Graph.from_edges(g.n, edges), reference_from_edges(g.n, edges)
        for name in ("indptr", "indices"):
            got, want = (np.asarray(getattr(graph, name)) for graph in (built, oracle))
            assert got.dtype == want.dtype == np.int64 and np.array_equal(got, want), name
            assert not got.flags.writeable and got.flags.c_contiguous, name

    def test_csr_arrays_are_contiguous(self):
        g = generate(NetworkConfig(model=DMS, n=200, seed=1))
        assert all(a.c_contiguous for a in (g.indptr, g.indices))

    def test_accepts_long_path(self):
        order = np.random.default_rng(0).permutation(2000)
        edges = [(int(order[i]), int(order[i + 1])) for i in range(2000 - 1)]
        g = Graph.from_edges(2000, edges)
        assert g.n_edges == 1999

    def test_arrays_are_readonly(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(TypeError, match="read-only"):
            g.indices[0] = 5
        with pytest.raises(ValueError, match="read-only"):
            np.asarray(g.indices)[0] = 5

    def test_a_graph_keys_a_dict_by_identity(self):
        g, twin = (generate(NetworkConfig(model=BA, n=50, seed=1)) for _ in range(2))
        index = {g: "g"}
        assert index[g] == "g"
        assert twin not in index and twin != g

    def test_diameter_path_graph(self):
        g = Graph.from_edges(5, [(i, i + 1) for i in range(4)])
        assert diameter(g) == 4


class TestTransitivity:
    def test_triangle_is_one(self):
        g = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
        assert global_transitivity(g) == 1.0

    def test_star_is_zero(self):
        assert global_transitivity(star_graph(4)) == 0.0

    def test_no_connected_triple_defined_as_zero(self):
        g = Graph.from_edges(2, [(0, 1)])
        assert global_transitivity(g) == 0.0

    def test_matches_brute_force_on_random_graphs(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            g = random_connected_graph(10, rng)
            assert global_transitivity(g) == pytest.approx(
                brute_force_transitivity(g), abs=1e-12)


class TestDegreePercentiles:
    def test_star(self):
        q = degree_percentiles(star_graph(4))
        assert q[0] == 1.0
        assert np.all(q[1:] == 0.0)

    def test_regular_graph_all_zero(self):
        # 4-cycle: every node degree 2
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert np.all(degree_percentiles(g) == 0.0)

    def test_matches_sort_and_count_oracle(self):
        g = generate(NetworkConfig(model=BA, n=20, seed=5))
        q = degree_percentiles(g)
        degs = node_degrees(g)
        expected = [sum(1 for j in range(g.n) if j != i and degs[j] < degs[i]) / (g.n - 1)
                    for i in range(g.n)]
        assert np.allclose(q, expected, atol=1e-15)

    def test_monotone_in_degree(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            g = random_connected_graph(30, rng)
            q = degree_percentiles(g)
            degs = node_degrees(g)
            for i in range(g.n):
                for j in range(g.n):
                    if degs[i] < degs[j]:
                        assert q[i] < q[j]
                    elif degs[i] == degs[j]:
                        assert q[i] == q[j]


class TestPowerLawFit:
    def test_recovers_exponent_of_synthetic_power_law(self):
        # round a continuous Pareto sample on [kmin - 1/2, inf): the exact
        # model behind the shifted-threshold discrete MLE
        rng = np.random.default_rng(3)
        alpha, kmin = 3.0, 4
        x = (kmin - 0.5) * rng.random(200_000) ** (-1 / (alpha - 1))
        fitted = fit_degree_exponent(np.rint(x).astype(int), k_min=kmin)
        assert abs(fitted - alpha) < 0.1

    def test_rejects_empty_tail(self):
        with pytest.raises(ValueError):
            fit_degree_exponent([1, 1, 2], k_min=10)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        cfg = NetworkConfig(model=DMS, n=50, seed=9)
        g = generate(cfg)
        path = tmp_path / "g.json"
        path.write_text(graph_json(cfg, g))
        # The file records the config that generated it; the graph is its CSR.
        assert {k: v for k, v in json.loads(path.read_text()).items()
                if k != "edges"} == {"model": DMS, "n": 50, "seed": 9}
        back = load_graph(path)
        assert back.n == g.n
        assert np.array_equal(back.edges, g.edges)
