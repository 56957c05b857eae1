import itertools
import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coopsim
from coopsim.dynamics import STOCHASTIC, UpdateRuleConfig
from coopsim.engine import RunConfig
from coopsim.game import PayoffParams
from coopsim.network import BA, Graph, NetworkConfig

from conftest import (
    COOPERATE,
    DEFECT,
    accumulate_scores,
    boundary,
    connected_graphs,
    fermi_probability,
    is_homogeneous,
    matches_the_oracle,
    neighbors,
    path_graph,
    random_connected_graph,
    step_deterministic,
    step_stochastic,
)

C, D = COOPERATE, DEFECT

# frozen high-precision evaluations of (1 + e^((f_A - f_B)/K))^-1
FERMI_1_2_K01 = 0.9999546021312976
FERMI_2_1_K01 = 4.5397868702434395e-05


def reference_step_deterministic(g, s, scores, u, order):
    """Oracle: per-node loop in an arbitrary node order, same per-node draws."""
    new_s = np.array(s, copy=True)
    for i in order:
        nbrs = neighbors(g, i)
        nbr_scores = scores[nbrs]
        best = nbr_scores.max()
        ties = nbrs[nbr_scores == best]
        pick = ties[min(int(u[i] * len(ties)), len(ties) - 1)]
        if best > scores[i]:
            new_s[i] = s[pick]
    return new_s


def switch(s, switched):
    """s with the given agents switched to the other strategy."""
    new_s = s.copy()
    new_s[switched] = np.where(s[switched] == C, D, C)
    return new_s


def imitate_step(g, s, scores, rng):
    """step_deterministic applied to s: the new strategies."""
    return switch(s, step_deterministic(g, s, scores, rng))


def fermi_step(g, s, scores, K, rng):
    """step_stochastic with every agent in the front, applied to s: the new
    strategies."""
    return switch(s, step_stochastic(g, s, np.arange(g.n), scores.take, K, rng))


def reference_step_stochastic(g, s, scores, K, u_pick, u_copy, order):
    new_s = np.array(s, copy=True)
    for i in order:
        nbrs = neighbors(g, i)
        j = nbrs[min(int(u_pick[i] * len(nbrs)), len(nbrs) - 1)]
        if u_copy[i] < fermi_probability(scores[i], scores[j], K):
            new_s[i] = s[j]
    return new_s


class TestFermiProbability:
    def test_equal_scores_exactly_half(self):
        assert fermi_probability(3.0, 3.0, 0.1) == 0.5
        assert fermi_probability(0.0, 0.0, 2.0) == 0.5

    def test_frozen_values(self):
        assert fermi_probability(1.0, 2.0, 0.1) == FERMI_1_2_K01
        assert fermi_probability(2.0, 1.0, 0.1) == FERMI_2_1_K01

    def test_complement_identity(self):
        rng = np.random.default_rng(0)
        f_a = rng.normal(0, 50, 10_000)
        f_b = rng.normal(0, 50, 10_000)
        K = 10.0 ** rng.uniform(-2, 2, 10_000)
        total = fermi_probability(f_a, f_b, K) + fermi_probability(f_b, f_a, K)
        assert np.all(np.abs(total - 1.0) < 1e-12)

    def test_monotone_in_score_gap(self):
        gaps = np.linspace(-200, 200, 5001)
        p = fermi_probability(0.0, gaps, 0.1)
        assert np.all(np.diff(p) >= 0)

    def test_extreme_gaps_saturate_without_overflow(self):
        hi = fermi_probability(0.0, 1e9, 0.1)
        lo = fermi_probability(1e9, 0.0, 0.1)
        assert hi == 1.0
        assert 0.0 <= lo < 1e-300
        assert np.isfinite(fermi_probability(-700.0, 700.0, 1.0))

    def test_vectorised_matches_scalar(self):
        f_a = np.array([1.0, 2.0, 5.0])
        out = fermi_probability(f_a, 2.0, 0.1)
        assert out[0] == fermi_probability(1.0, 2.0, 0.1)
        assert out[1] == 0.5


class TestStepDeterministic:
    """The numpy oracle of one imitate-best step (conftest.step_deterministic)
    against a per-node loop. The compiled loop that runs imitate-best is
    compared with the oracle in test_engine's TestCarriedCounts; its tie
    break is also checked here, through dynamics.step_deterministic."""

    def test_homogeneous_population_is_fixed_point(self):
        rng = np.random.default_rng(1)
        g = random_connected_graph(30, rng)
        for strat in (C, D):
            s = np.full(g.n, strat, dtype=np.int8)
            scores = accumulate_scores(g, s, PayoffParams(b=1.8))
            assert np.array_equal(imitate_step(g, s, scores, rng), s)

    def test_path_cdc_collapses_to_defection(self):
        # middle defector scores 3.6 > 0; both ends adopt D, middle keeps D
        g = path_graph(3)
        s = np.array([C, D, C], dtype=np.int8)
        scores = accumulate_scores(g, s, PayoffParams(b=1.8))
        assert scores.tolist() == [0.0, 3.6, 0.0]
        new_s = imitate_step(g, s, scores, np.random.default_rng(0))
        assert new_s.tolist() == [D, D, D]

    def test_equal_best_neighbor_keeps_incumbent(self):
        g = path_graph(2)
        s = np.array([C, D], dtype=np.int8)
        scores = np.array([2.5, 2.5])
        for seed in range(5):
            new_s = imitate_step(g, s, scores, np.random.default_rng(seed))
            assert new_s.tolist() == [C, D]

    def test_matches_reference_under_any_node_order(self):
        rng = np.random.default_rng(2)
        for trial in range(30):
            g = random_connected_graph(25, rng)
            s = rng.integers(0, 2, g.n).astype(np.int8)
            scores = accumulate_scores(g, s, PayoffParams(b=1.8))
            u = np.random.default_rng(trial).random(g.n)
            fast = imitate_step(g, s, scores, np.random.default_rng(trial))
            for perm_seed in range(3):
                order = np.random.default_rng(perm_seed).permutation(g.n)
                assert np.array_equal(
                    fast, reference_step_deterministic(g, s, scores, u, order))

    @settings(max_examples=300, deadline=None)
    @given(g=connected_graphs(), data=st.data())
    def test_matches_reference_when_ties_are_common(self, g, data):
        # b=2 and an integer endowment on random nodes keep every score an
        # integer, so best neighbors tie often, as in POP runs.
        s = np.array(data.draw(st.lists(st.sampled_from([C, D]), min_size=g.n,
                                        max_size=g.n)), dtype=np.int8)
        paid = np.array(data.draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n)))
        theta = data.draw(st.integers(1, 3))
        scores = accumulate_scores(g, s, PayoffParams(b=2.0)) + np.where(paid, theta, 0.0)
        seed = data.draw(st.integers(0, 2**32 - 1))
        u = np.random.default_rng(seed).random(g.n)
        fast = imitate_step(g, s, scores, np.random.default_rng(seed))
        assert fast.dtype == np.int8
        assert np.array_equal(fast, reference_step_deterministic(g, s, scores, u, range(g.n)))

    @settings(max_examples=300, deadline=None)
    @given(g=connected_graphs(), data=st.data())
    def test_returns_the_agents_that_switch(self, g, data):
        # The step returns the agents whose strategy the reference changes,
        # ascending, from the same n tie-break draws, whether it is given
        # strategy labels or the cooperator mask. Integer scores keep ties
        # common.
        s = np.array(data.draw(st.lists(st.sampled_from([C, D]), min_size=g.n,
                                        max_size=g.n)), dtype=np.int8)
        paid = np.array(data.draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n)))
        theta = data.draw(st.integers(1, 3))
        scores = accumulate_scores(g, s, PayoffParams(b=2.0)) + np.where(paid, theta, 0.0)
        population = s == C if data.draw(st.booleans()) else s
        seed = data.draw(st.integers(0, 2**32 - 1))
        draws = np.random.default_rng(seed)
        u = draws.random(g.n)
        rng = np.random.default_rng(seed)
        switched = step_deterministic(g, population, scores, rng)
        want = np.flatnonzero(reference_step_deterministic(g, s, scores, u, range(g.n)) != s)
        assert np.array_equal(switched, want)
        assert np.all(np.diff(switched) > 0)
        assert rng.random() == draws.random()

    def test_tie_break_is_uniform(self):
        # center of a 4-star, all leaves tied strictly better and only one of
        # them a cooperator: whichever leaf it is, the center copies it (and
        # turns C) in ~1/4 of the draws
        g = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        scores = np.array([0.0, 5.0, 5.0, 5.0, 5.0])
        rng = np.random.default_rng(3)
        trials = 2000
        for leaf in range(1, 5):
            s = np.full(5, D, dtype=np.int8)
            s[leaf] = C
            turned = sum(imitate_step(g, s, scores, rng)[0] == C for _ in range(trials))
            assert abs(turned / trials - 1 / 4) < 0.04

    def test_compiled_tie_break_is_uniform(self):
        # The compiled loop's twin of test_tie_break_is_uniform, at b = 2:
        # one step through dynamics.step_deterministic, checked against the
        # oracle and read from coop[1] of a two-generation run. The center (node 0, D) scores 2 from its one
        # cooperating leaf. Every leaf scores 4: the cooperating one from
        # four cooperating pendants, each defecting one from two. So the
        # center's tied best neighbors play both strategies, and whichever
        # leaf cooperates the center turns C in ~1/4 of the seeds. Every
        # other agent's step is fixed: the defecting leaves' six pendants
        # turn D.
        trials = 2000
        for leaf in range(1, 5):
            pendants = itertools.count(5)
            edges = [(0, k) for k in range(1, 5)] + [
                (k, next(pendants)) for k in range(1, 5) for _ in range(4 if k == leaf else 2)]
            g = Graph.from_edges(15, edges)
            start = np.ones(g.n, dtype=bool)
            start[[k for k in range(5) if k != leaf]] = False
            cfg = RunConfig(network=NetworkConfig(model=BA, n=g.n),
                            payoff=PayoffParams(b=2.0), generations=2, stats_window=1)
            after = [matches_the_oracle(replace(cfg, run_seed=seed), g, start)[0].coop[1]
                     * g.n for seed in range(trials)]
            assert set(after) <= {5.0, 6.0}
            assert abs(after.count(6.0) / trials - 1 / 4) < 0.04

    def test_seed_reproducible(self):
        rng = np.random.default_rng(4)
        g = random_connected_graph(40, rng)
        s = rng.integers(0, 2, g.n).astype(np.int8)
        scores = accumulate_scores(g, s, PayoffParams(b=1.8))
        a = imitate_step(g, s, scores, np.random.default_rng(99))
        b = imitate_step(g, s, scores, np.random.default_rng(99))
        assert np.array_equal(a, b)


class TestStepStochastic:
    """The numpy oracle of one Fermi step (conftest.step_stochastic) against
    a per-node loop. The compiled loop that runs the Fermi rule is compared
    with the oracle in test_engine's TestFermiLoop and TestCarriedCounts."""

    def test_identical_strategy_neighbor_never_changes_state(self):
        g = path_graph(2)
        s = np.array([C, C], dtype=np.int8)
        scores = np.array([0.0, 100.0])
        for seed in range(10):
            new_s = fermi_step(g, s, scores, 0.1, np.random.default_rng(seed))
            assert np.array_equal(new_s, s)

    def test_copy_frequency_matches_fermi_probability(self):
        # star with 10^5 cooperating leaves around a defecting hub: every
        # leaf's only neighbor is the hub, so one synchronous step yields
        # 10^5 independent copy decisions at the same (f_A, f_B, K)
        trials = 100_000
        g = Graph.from_edges(trials + 1, [(0, i) for i in range(1, trials + 1)])
        s = np.concatenate([[D], np.full(trials, C)]).astype(np.int8)
        for case, (f_a, f_b) in enumerate(((1.0, 1.1), (1.0, 2.0),
                                           (2.0, 1.0), (0.95, 1.0))):
            p = fermi_probability(f_a, f_b, 0.1)
            scores = np.concatenate([[f_b], np.full(trials, f_a)])
            new_s = fermi_step(g, s, scores, 0.1, np.random.default_rng(case))
            freq = np.count_nonzero(new_s[1:] == D) / trials
            se = np.sqrt(p * (1 - p) / trials)
            assert abs(freq - p) <= 3 * se + 1e-9

    def test_plus_ten_k_copy_probability(self):
        assert fermi_probability(1.0, 1.0 + 10 * 0.1, 0.1) == FERMI_1_2_K01

    def test_matches_reference_under_any_node_order(self):
        rng = np.random.default_rng(5)
        for trial in range(30):
            g = random_connected_graph(25, rng)
            s = rng.integers(0, 2, g.n).astype(np.int8)
            scores = accumulate_scores(g, s, PayoffParams(b=1.8))
            draw_rng = np.random.default_rng(trial)
            u_pick = draw_rng.random(g.n)
            u_copy = draw_rng.random(g.n)
            fast = fermi_step(g, s, scores, 0.1, np.random.default_rng(trial))
            for perm_seed in range(3):
                order = np.random.default_rng(perm_seed).permutation(g.n)
                assert np.array_equal(
                    fast,
                    reference_step_stochastic(g, s, scores, 0.1, u_pick, u_copy, order))

    @settings(max_examples=300, deadline=None)
    @given(g=connected_graphs(), data=st.data())
    def test_matches_reference_property(self, g, data):
        # Populations: all-C, all-D, random, or random with one node's whole
        # neighborhood agreeing with it. Scores: all tied (p = 0.5 for every
        # pick), small integers that tie often, or arbitrary.
        kind = data.draw(st.sampled_from(["all-C", "all-D", "random", "agreeing"]))
        if kind in ("all-C", "all-D"):
            s = np.full(g.n, C if kind == "all-C" else D, dtype=np.int8)
        else:
            s = np.array(data.draw(st.lists(st.sampled_from([C, D]), min_size=g.n,
                                            max_size=g.n)), dtype=np.int8)
            if kind == "agreeing":
                i = data.draw(st.integers(0, g.n - 1))
                s[neighbors(g, i)] = s[i]
        scores = np.array(data.draw(st.one_of(
            st.floats(0.0, 50.0).map(lambda x: [x] * g.n),
            st.lists(st.integers(0, 4).map(float), min_size=g.n, max_size=g.n),
            st.lists(st.floats(0.0, 50.0), min_size=g.n, max_size=g.n))))
        K = data.draw(st.sampled_from([0.1, 1.0]) | st.floats(0.01, 10.0))
        seed = data.draw(st.integers(0, 2**32 - 1))
        draws = np.random.default_rng(seed)
        u_pick, u_copy = draws.random(g.n), draws.random(g.n)
        rng = np.random.default_rng(seed)
        fast = fermi_step(g, s, scores, K, rng)
        assert np.array_equal(
            fast, reference_step_stochastic(g, s, scores, K, u_pick, u_copy, range(g.n)))
        # both per-node arrays are drawn in full, whoever disagrees
        assert rng.random() == draws.random()

    @settings(max_examples=300, deadline=None)
    @given(g=connected_graphs(), data=st.data())
    def test_boundary_front_switches_as_every_agent_does(self, g, data):
        # Only agents with a neighbor of the other strategy can switch, so
        # a front of exactly those agents returns the switches a front of
        # every agent does, from the same draws, and scores nobody else.
        s = np.array(data.draw(st.lists(st.sampled_from([C, D]), min_size=g.n,
                                        max_size=g.n)), dtype=np.int8)
        scores = np.array(data.draw(st.one_of(
            st.lists(st.integers(0, 4).map(float), min_size=g.n, max_size=g.n),
            st.lists(st.floats(0.0, 50.0), min_size=g.n, max_size=g.n))))
        K = data.draw(st.sampled_from([0.1, 1.0]) | st.floats(0.01, 10.0))
        seed = data.draw(st.integers(0, 2**32 - 1))
        front = boundary(g, s)
        scored = []

        def score(nodes):
            scored.extend(nodes.tolist())
            return scores.take(nodes)

        everyone_rng, front_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        everyone = step_stochastic(g, s, np.arange(g.n), scores.take, K, everyone_rng)
        switched = step_stochastic(g, s, front, score, K, front_rng)
        assert np.array_equal(switched, everyone)
        # scored: the deciding agents, then the neighbors they picked
        agents, picked = np.array(scored, dtype=np.int64).reshape(2, -1)
        assert set(agents.tolist()) <= set(front.tolist())
        assert np.all(s[agents] != s[picked])
        assert front_rng.random() == everyone_rng.random()

    def test_seed_reproducible(self):
        rng = np.random.default_rng(6)
        g = random_connected_graph(40, rng)
        s = rng.integers(0, 2, g.n).astype(np.int8)
        scores = accumulate_scores(g, s, PayoffParams(b=1.8))
        a = fermi_step(g, s, scores, 0.1, np.random.default_rng(7))
        b = fermi_step(g, s, scores, 0.1, np.random.default_rng(7))
        assert np.array_equal(a, b)


class TestHomogeneity:
    def test_all_same(self):
        assert is_homogeneous(np.full(10, C, dtype=np.int8))
        assert is_homogeneous(np.full(10, D, dtype=np.int8))

    def test_one_deviant(self):
        s = np.full(10, C, dtype=np.int8)
        s[3] = D
        assert not is_homogeneous(s)


class TestUpdateRuleConfig:
    def test_stochastic_needs_positive_k(self):
        with pytest.raises(ValueError):
            UpdateRuleConfig(rule=STOCHASTIC, K=0.0)
        UpdateRuleConfig(rule=STOCHASTIC, K=0.1)

    def test_stochastic_needs_finite_k(self):
        with pytest.raises(ValueError, match="K must be > 0 and finite"):
            UpdateRuleConfig(rule=STOCHASTIC, K=math.inf)

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError):
            UpdateRuleConfig(rule="majority")

    def test_noise_belongs_to_the_fermi_rule_alone(self):
        assert UpdateRuleConfig().K is None
        with pytest.raises(ValueError, match="K must be > 0"):
            UpdateRuleConfig(rule=STOCHASTIC)
        with pytest.raises(ValueError, match="K is read only"):
            UpdateRuleConfig(K=0.1)

    def test_config_modules_load_neither_numpy_nor_the_loops(self):
        # game, interference and dynamics hold configs: a fresh interpreter
        # imports all three without numpy, the graph module or the loops.
        heavy = ("numpy", "coopsim.network", "coopsim._loops")
        script = ("import sys\n"
                  f"sys.path.insert(0, {str(Path(coopsim.__file__).parent.parent)!r})\n"
                  "import coopsim.game, coopsim.interference, coopsim.dynamics\n"
                  f"print([m for m in {heavy!r} if m in sys.modules])\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"
