import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopsim.game import PayoffParams
from coopsim.network import Graph

from conftest import (
    COOPERATE,
    DEFECT,
    accumulate_scores,
    connected_graphs,
    coop_fraction,
    neighbors,
    pairwise_payoff,
    path_graph,
    random_connected_graph,
)

C, D = COOPERATE, DEFECT


def brute_force_scores(g, s, p):
    """Oracle: correctly-rounded sum of payoffs over every ordered neighbor pair."""
    return np.array([
        math.fsum(pairwise_payoff(s[i], s[j], p) for j in neighbors(g, i))
        for i in range(g.n)
    ])


class TestPairwisePayoff:
    def test_matrix_values(self):
        p = PayoffParams(b=1.8)
        assert pairwise_payoff(C, C, p) == 1.0
        assert pairwise_payoff(C, D, p) == 0.0
        assert pairwise_payoff(D, C, p) == 1.8
        assert pairwise_payoff(D, D, p) == 0.0
        assert pairwise_payoff(D, D, PayoffParams(b=1.2)) == 0.0

    def test_b_range_enforced(self):
        with pytest.raises(ValueError):
            PayoffParams(b=1.0)
        with pytest.raises(ValueError):
            PayoffParams(b=2.5)
        PayoffParams(b=2.0)  # boundary allowed


class TestAccumulateScores:
    def test_all_cooperator_triangle(self):
        g = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
        s = np.array([C, C, C], dtype=np.int8)
        assert accumulate_scores(g, s, PayoffParams(b=1.8)).tolist() == [2.0, 2.0, 2.0]

    def test_path_c_d_c(self):
        g = path_graph(3)
        s = np.array([C, D, C], dtype=np.int8)
        scores = accumulate_scores(g, s, PayoffParams(b=1.8))
        assert scores.tolist() == [0.0, 3.6, 0.0]

    @pytest.mark.parametrize("b", [1.2, 1.8, 2.0])
    def test_matches_brute_force(self, b):
        rng = np.random.default_rng(17)
        p = PayoffParams(b=b)
        for _ in range(25):
            g = random_connected_graph(30, rng)
            s = rng.integers(0, 2, g.n, dtype=np.int8)
            assert np.array_equal(accumulate_scores(g, s, p), brute_force_scores(g, s, p))

    @settings(max_examples=200, deadline=None)
    @given(g=connected_graphs(), b=st.floats(1.0, 2.0, exclude_min=True), data=st.data())
    def test_matches_brute_force_property(self, g, b, data):
        s = np.array(data.draw(st.lists(st.sampled_from([C, D]), min_size=g.n,
                                        max_size=g.n)), dtype=np.int8)
        p = PayoffParams(b=b)
        assert np.array_equal(accumulate_scores(g, s, p), brute_force_scores(g, s, p))

    def test_exact_per_role_form(self):
        # a cooperator scores exactly its C-neighbor count; a defector b times that
        rng = np.random.default_rng(23)
        g = random_connected_graph(40, rng)
        s = rng.integers(0, 2, g.n, dtype=np.int8)
        p = PayoffParams(b=1.8)
        scores = accumulate_scores(g, s, p)
        for i in range(g.n):
            c_nbrs = int(np.sum(s[neighbors(g, i)] == C))
            expected = float(c_nbrs) if s[i] == C else p.b * c_nbrs
            assert scores[i] == expected

    def test_edge_decomposition_identity(self):
        rng = np.random.default_rng(29)
        p = PayoffParams(b=1.8)
        for _ in range(10):
            g = random_connected_graph(35, rng)
            s = rng.integers(0, 2, g.n, dtype=np.int8)
            cc = sum(1 for u, v in g.edges if s[u] == C and s[v] == C)
            cd = sum(1 for u, v in g.edges if (s[u] == C) != (s[v] == C))
            total = accumulate_scores(g, s, p).sum()
            assert total == pytest.approx(2.0 * cc + p.b * cd, abs=1e-9)

    def test_pure_function_bit_exact(self):
        rng = np.random.default_rng(31)
        g = random_connected_graph(25, rng)
        s = rng.integers(0, 2, g.n, dtype=np.int8)
        p = PayoffParams(b=1.7)
        first = accumulate_scores(g, s, p)
        assert np.array_equal(first, accumulate_scores(g, s, p))

    def test_length_mismatch_rejected(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            accumulate_scores(g, np.array([C, D], dtype=np.int8), PayoffParams())


class TestStrategies:
    def test_coop_fraction_exact(self):
        assert coop_fraction(np.array([C, C, D, D], dtype=np.int8)) == 0.5
        assert coop_fraction(np.array([D, D], dtype=np.int8)) == 0.0
