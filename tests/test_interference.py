import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopsim.interference import (
    NEB,
    NI,
    POP,
    InterferenceConfig,
)
from coopsim.network import BA, Graph, NetworkConfig, generate

from conftest import (
    COOPERATE,
    DEFECT,
    connected_graphs,
    degree_percentiles,
    eligible,
    neb_eligible,
    neighbors,
    ni_eligible,
    node_degrees,
    pop_eligible,
    random_connected_graph,
    star_graph,
)

C, D = COOPERATE, DEFECT


def strategies(*vals):
    return np.array(vals, dtype=np.int8)


def random_state(rng, n=25):
    g = random_connected_graph(n, rng)
    s = rng.integers(0, 2, size=n).astype(np.int8)
    return g, s


class TestConfigValidation:
    def test_baseline_is_empty(self):
        cfg = InterferenceConfig()
        assert not cfg.active

    def test_theta_required_with_schemes(self):
        with pytest.raises(ValueError):
            InterferenceConfig(schemes=(POP,), p_c=0.5)
        with pytest.raises(ValueError):
            InterferenceConfig(schemes=(POP,), theta=0.0, p_c=0.5)

    def test_threshold_present_iff_scheme_active(self):
        with pytest.raises(ValueError):
            InterferenceConfig(schemes=(POP,), theta=1.0)  # p_c missing
        with pytest.raises(ValueError):
            InterferenceConfig(schemes=(POP,), theta=1.0, p_c=0.5, n_c=0.5)
        with pytest.raises(ValueError):
            InterferenceConfig(theta=1.0)
        with pytest.raises(ValueError):
            InterferenceConfig(schemes=(NI,), theta=1.0, c_I=1.5)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            InterferenceConfig(schemes=("TAX",), theta=1.0)


class TestPopEligible:
    def test_boundary_inclusive(self):
        s = strategies(*([C] * 5 + [D] * 5))
        assert np.count_nonzero(pop_eligible(s, 0.5)) == 5
        assert np.array_equal(pop_eligible(s, 0.5), s == C)

    def test_above_threshold_pays_nobody(self):
        s = strategies(*([C] * 9 + [D]))
        assert not pop_eligible(s, 0.8).any()

    def test_threshold_one_always_invests_in_all_cooperators(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            s = rng.integers(0, 2, size=17).astype(np.int8)
            assert np.array_equal(pop_eligible(s, 1.0), s == C)

    def test_all_or_nothing(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            s = rng.integers(0, 2, size=12).astype(np.int8)
            mask = pop_eligible(s, rng.random())
            assert np.array_equal(mask, s == C) or not mask.any()


class TestNebEligible:
    def test_boundary_inclusive(self):
        # center of a 4-star with 2 cooperating leaves, n_c = 0.5
        g = star_graph(4)
        s = strategies(C, C, C, D, D)
        assert neb_eligible(g, s, 0.5)[0]

    def test_defector_never_eligible(self):
        g = star_graph(4)
        s = strategies(D, D, D, D, D)
        assert not neb_eligible(g, s, 1.0).any()

    def test_above_threshold_excluded(self):
        g = star_graph(4)
        s = strategies(C, C, C, C, D)  # center has 3/4 cooperating neighbors
        assert not neb_eligible(g, s, 0.5)[0]


class TestNiEligible:
    def test_zero_threshold_covers_every_cooperator(self):
        g = star_graph(4)
        s = strategies(C, C, D, C, D)
        assert np.array_equal(ni_eligible(degree_percentiles(g), s, 0.0), s == C)

    def test_one_selects_only_the_top_node(self):
        g = star_graph(4)
        s = strategies(C, C, C, C, C)
        mask = ni_eligible(degree_percentiles(g), s, 1.0)
        assert mask.tolist() == [True, False, False, False, False]

    def test_bottom_five_percent_excluded(self):
        # all-cooperator BA graph: the minimum-degree class has percentile 0,
        # so a 0.05 influence floor drops exactly the least connected nodes
        g = generate(NetworkConfig(model=BA, n=100, seed=2))
        s = np.full(100, C, dtype=np.int8)
        q = degree_percentiles(g)
        mask = ni_eligible(q, s, 0.05)
        assert np.array_equal(mask, q >= 0.05)
        degrees = node_degrees(g)
        assert not mask[degrees == degrees.min()].any()
        assert mask.any()


class TestEligibleSet:
    def test_empty_scheme_set_pays_nobody(self):
        g = star_graph(3)
        s = strategies(C, C, C, C)
        assert not eligible(g, None, s, InterferenceConfig()).any()

    def test_single_scheme_reduces_to_pop(self):
        rng = np.random.default_rng(2)
        cfg = InterferenceConfig(schemes=(POP,), theta=1.0, p_c=0.6)
        for _ in range(20):
            g, s = random_state(rng)
            expected = s == C if np.mean(s == C) <= 0.6 else np.zeros(g.n, dtype=bool)
            assert np.array_equal(eligible(g, None, s, cfg), expected)

    @settings(max_examples=300, deadline=None)
    @given(g=connected_graphs(),
           schemes=st.lists(st.sampled_from([POP, NEB, NI]), min_size=1, max_size=3,
                            unique=True),
           thresholds=st.lists(st.one_of(st.sampled_from([0.0, 0.25, 1 / 3, 0.5, 2 / 3, 1.0]),
                                         st.floats(0.0, 1.0)),
                               min_size=3, max_size=3),
           data=st.data())
    def test_matches_per_node_loop(self, g, schemes, thresholds, data):
        """Every non-empty scheme set against the scheme table, node by node."""
        s = np.array(data.draw(st.lists(st.sampled_from([C, D]), min_size=g.n,
                                        max_size=g.n)), dtype=np.int8)
        p_c, n_c, c_I = thresholds
        cfg = InterferenceConfig(schemes=tuple(schemes), theta=1.0,
                                 p_c=p_c if POP in schemes else None,
                                 n_c=n_c if NEB in schemes else None,
                                 c_I=c_I if NI in schemes else None)
        degree = [len(neighbors(g, i)) for i in range(g.n)]
        coop_fraction = sum(int(x == C) for x in s) / g.n

        def pays(i):
            if s[i] != C:
                return False
            if POP in schemes and not coop_fraction <= p_c:
                return False
            c_nbrs = sum(int(s[j] == C) for j in neighbors(g, i))
            if NEB in schemes and not c_nbrs / degree[i] <= n_c:
                return False
            # percentile: the fraction of other nodes with strictly lower degree
            lower = sum(1 for j in range(g.n) if j != i and degree[j] < degree[i])
            if NI in schemes and not lower / (g.n - 1) >= c_I:
                return False
            return True

        percentile = degree_percentiles(g) if NI in schemes else None
        got = eligible(g, percentile, s, cfg)
        assert got.tolist() == [pays(i) for i in range(g.n)]

    def test_neb_ni_conjunction(self):
        # cooperator in the bottom tail with an all-defector neighborhood:
        # NEB-eligible but excluded by the NI centrality floor
        edges = [(i, i + 1) for i in range(99)]
        g = Graph.from_edges(100, edges)
        s = np.full(100, D, dtype=np.int8)
        s[0] = C
        cfg = InterferenceConfig(schemes=(NEB, NI), theta=1.0, n_c=1.0, c_I=0.05)
        metrics = degree_percentiles(g)
        assert neb_eligible(g, s, 1.0)[0]
        assert not eligible(g, metrics, s, cfg)[0]

    def test_node_in_two_schemes_counted_once(self):
        g = star_graph(4)
        s = strategies(C, D, D, D, D)
        cfg = InterferenceConfig(schemes=(POP, NEB), theta=5.0, p_c=1.0, n_c=1.0)
        mask = eligible(g, None, s, cfg)
        assert mask.tolist() == [True, False, False, False, False]

    def test_only_cooperators_ever_paid(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            g, s = random_state(rng)
            cfg = InterferenceConfig(
                schemes=(POP, NEB, NI), theta=1.0,
                p_c=float(rng.random()), n_c=float(rng.random()),
                c_I=float(rng.random()))
            mask = eligible(g, degree_percentiles(g), s, cfg)
            assert not np.any(mask & (s == D))


class TestThresholdMonotonicity:
    def test_pop_neb_grow_ni_shrinks(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            g, s = random_state(rng, n=20)
            metrics = degree_percentiles(g)
            lo, hi = sorted(rng.random(2))
            pop_lo, pop_hi = pop_eligible(s, lo), pop_eligible(s, hi)
            assert not np.any(pop_lo & ~pop_hi)
            neb_lo, neb_hi = neb_eligible(g, s, lo), neb_eligible(g, s, hi)
            assert not np.any(neb_lo & ~neb_hi)
            ni_lo, ni_hi = ni_eligible(metrics, s, lo), ni_eligible(metrics, s, hi)
            assert not np.any(ni_hi & ~ni_lo)
