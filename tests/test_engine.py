import itertools
import math
import pickle
import random
import threading
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, find, given, settings
from hypothesis import strategies as st

from coopsim import _loops, dynamics, engine, network
from coopsim.dynamics import DETERMINISTIC, STOCHASTIC, UpdateRuleConfig
from coopsim.engine import (
    FrontierRow,
    RunConfig,
    SweepSummary,
    derive_seed,
    efficiency_frontier,
    graph_seeds_for,
    run_simulation,
    sweep,
)
from coopsim.game import PayoffParams
from coopsim.interference import NEB, NI, POP, InterferenceConfig
from coopsim.network import BA, Graph, NetworkConfig, generate

import conftest
from conftest import (
    boundary,
    connected_graphs,
    count_neighbors,
    diameter,
    fermi_probability,
    matches_the_oracle,
    node_degrees,
    pcg64_generator,
    pcg64_words,
    reachable,
    replicate,
    simulate,
)


def ba_config(n=100, **kwargs):
    defaults = dict(
        network=NetworkConfig(model=BA, n=n),
        update=UpdateRuleConfig(rule=DETERMINISTIC),
        generations=30,
        stats_window=10,
        run_seed=1,
    )
    defaults.update(kwargs)
    return RunConfig(**defaults)


def pop_cfg(theta, p_c):
    return InterferenceConfig(schemes=(POP,), theta=theta, p_c=p_c)


class TestDeriveSeed:
    def test_deterministic_and_distinct(self):
        a = derive_seed(42, 0, 3)
        assert a == derive_seed(42, 0, 3)
        assert a != derive_seed(42, 0, 4)
        assert a != derive_seed(43, 0, 3)
        assert 0 <= a < 2 ** 64


# Seeds at the edges of SeedSequence's split of an int into 32-bit words:
# 0, the largest int of one word, the smallest of two, the largest of two.
SEEDS = st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1]) | st.integers(0, 2**100)


class TestDrawsAreNumpys:
    """The compiled library draws every random number coopsim uses, each as
    numpy.random draws it: SeedSequence's words and derive_seed, PCG64's
    seeding, the start, the load check's pinned draws, and the growth of
    both network models, whose numpy oracles are in conftest. A generator's
    end state is compared as the library's array (conftest.pcg64_words)."""

    @settings(max_examples=300, deadline=None)
    @given(entropy=st.lists(SEEDS, min_size=1, max_size=9), n=st.integers(0, 12))
    def test_seed_words(self, entropy, n):
        want = np.random.SeedSequence(entropy).generate_state(n, np.uint32).tolist()
        assert _loops.seed_words(entropy, n) == want

    @settings(max_examples=200, deadline=None)
    @given(master=SEEDS, path=st.lists(st.integers(0, 2**32), max_size=4))
    def test_derive_seed(self, master, path):
        state = np.random.SeedSequence([master, *path]).generate_state(2, np.uint32)
        assert derive_seed(master, *path) == int(state[0]) << 32 | int(state[1])

    @settings(max_examples=300, deadline=None)
    @given(seed=SEEDS)
    def test_seeding(self, seed):
        assert np.array_equal(_loops.generator(seed), pcg64_words(np.random.PCG64(seed)))

    @settings(max_examples=200, deadline=None)
    @given(seed=SEEDS, n=st.integers(1, 2000))
    @example(seed=0, n=1)  # one byte of one 32-bit draw
    @example(seed=0, n=9)  # the first byte of a second 64-bit draw
    def test_start(self, seed, n):
        rng, want = _loops.generator(seed), np.random.default_rng(seed)
        start = _loops.start(rng, n)
        assert np.array_equal(start, want.integers(0, 2, n, dtype=np.int8).view(bool))
        assert np.array_equal(rng, pcg64_words(want))

    @pytest.mark.parametrize("seed, skipped, first, second", _loops._CHECK_DRAWS)
    def test_the_load_check_pins_numpys_draws(self, seed, skipped, first, second):
        want = np.random.Generator(np.random.PCG64(seed).advance(skipped))
        assert [first, second] == want.random(2).tolist()

    @pytest.mark.parametrize("model", network.MODELS)
    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(3, 300), seed=SEEDS)
    @example(n=2000, seed=20230116)  # the benchmark's graph sizes and seed
    @example(n=5000, seed=20230116)
    def test_growth(self, model, n, seed):
        cfg = NetworkConfig(model=model, n=n, seed=seed)
        rng, want_rng = _loops.generator(seed), np.random.default_rng(seed)
        got, want = generate(cfg, rng), conftest.REFERENCE_GENERATE[model](cfg, want_rng)
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(rng, pcg64_words(want_rng))


class TestRunSimulation:
    def test_graph_size_mismatch_rejected(self):
        g = generate(NetworkConfig(model=BA, n=50, seed=0))
        with pytest.raises(ValueError, match="graph has 50 nodes, config expects 60"):
            run_simulation(ba_config(n=60), g)

    @pytest.mark.parametrize("initial", [
        np.ones(100, dtype=np.int8),
        np.full(100, -1, dtype=np.int8),
        np.full(100, 2, dtype=np.int8),
        np.ones(100, dtype=np.float64),
        np.ones(99, dtype=bool),
        np.ones((100, 1), dtype=bool),
    ], ids=["int8-labels", "int8-minus-one", "int8-two", "float-mask", "short", "column"])
    def test_initial_coop_not_a_bool_mask_rejected(self, initial):
        # A start that is not a bool array of shape (n,) is refused by both
        # entry points before any pointer reaches the loop.
        g = generate(NetworkConfig(model=BA, n=100, seed=3))
        coop, invested = np.empty(30), np.zeros(30, np.int64)
        rng = _loops.generator(0)
        state = np.array(rng)
        with pytest.raises(ValueError, match="imitate_best needs contiguous"):
            dynamics.step_deterministic(g, initial, PayoffParams(), InterferenceConfig(),
                                        rng, coop, invested)
        with pytest.raises(ValueError, match="fermi needs contiguous"):
            dynamics.step_stochastic(g, initial, PayoffParams(), InterferenceConfig(),
                                     0.1, rng, coop, invested)
        assert np.array_equal(rng, state)

    def test_compiled_loop_takes_only_arrays_it_can_read(self):
        # The loop reads raw buffers: a wrong dtype or a strided view is
        # refused before any pointer is passed.
        g = generate(NetworkConfig(model=BA, n=100, seed=3))
        mask, coop, invested = np.ones(g.n, bool), np.empty(30), np.zeros(30, np.int64)
        rng = _loops.generator(0)
        for is_coop, coop_, invested_ in ((mask.astype(np.int8), coop, invested),
                                          (mask, np.empty(60)[::2], invested),
                                          (mask, coop, np.zeros(30, np.int32))):
            with pytest.raises(ValueError, match="imitate_best needs contiguous"):
                dynamics.step_deterministic(g, is_coop, PayoffParams(), InterferenceConfig(),
                                            rng, coop_, invested_)
            with pytest.raises(ValueError, match="fermi needs contiguous"):
                dynamics.step_stochastic(g, is_coop, PayoffParams(), InterferenceConfig(),
                                         0.1, rng, coop_, invested_)

    def test_random_start_is_balanced(self):
        n = 100_000
        g = Graph.from_edges(n, np.stack([np.arange(n - 1), np.arange(1, n)], axis=1))
        result = run_simulation(ba_config(n=n, generations=1, stats_window=1, run_seed=5), g)
        assert abs(result.coop[0] - 0.5) < 0.01

    def test_all_defector_start_stays_and_costs_nothing(self):
        cfg = ba_config(interference=pop_cfg(theta=5.0, p_c=1.0))
        g = generate(NetworkConfig(model=BA, n=100, seed=3))
        result, final, _ = matches_the_oracle(cfg, g, np.zeros(100, dtype=bool))
        assert not final.any()
        assert not result.invested.any()
        assert not result.coop.any()
        assert result.absorbed_at == 0

    def test_homogeneous_cooperators_freeze_with_zero_cost(self):
        # deterministic absorbing state: no further interference is paid
        cfg = ba_config(interference=pop_cfg(theta=2.0, p_c=1.0))
        g = generate(NetworkConfig(model=BA, n=100, seed=3))
        result, final, _ = matches_the_oracle(cfg, g, np.ones(100, dtype=bool))
        assert final.all()
        assert not result.invested.any()
        assert result.coop.tolist() == [1.0] * 30

    def test_trace_is_horizon_length_even_when_absorbed(self):
        cfg = ba_config()
        g = generate(NetworkConfig(model=BA, n=100, seed=4))
        result = run_simulation(cfg, g)
        for series in (result.coop, result.invested, result.cost):
            assert len(series) == 30

    def test_guaranteed_takeover_with_large_endowment(self):
        # funded cooperators outscore every defector, so cooperation spreads
        # one hop per generation and fixates within the graph diameter
        for seed in range(5):
            net = NetworkConfig(model=BA, n=150, seed=seed)
            g = generate(net)
            theta = 2 * 1.8 * int(max(node_degrees(g)))
            cfg = RunConfig(network=net, payoff=PayoffParams(b=1.8),
                            update=UpdateRuleConfig(rule=DETERMINISTIC),
                            interference=pop_cfg(theta=theta, p_c=1.0),
                            generations=60, stats_window=5, run_seed=seed)
            result = run_simulation(cfg, g)
            assert result.final_state == "homogeneous-C"
            assert result.absorbed_at is not None
            assert result.absorbed_at <= diameter(g) + 2

    @pytest.mark.parametrize("start", ["all-C", "all-D", "takeover"])
    @pytest.mark.parametrize("rule", [DETERMINISTIC, STOCHASTIC])
    def test_homogeneous_state_absorbs_under_either_rule(self, rule, start):
        # Neither rule can leave a homogeneous state (both copy a neighbor,
        # and there is no mutation), so the run stops there: the state stays,
        # absorbed_at is its first generation and nothing more is paid.
        # "takeover" starts mixed, as run_simulation draws it, and reaches
        # all-C through a large POP endowment paid to every cooperator.
        cfg = ba_config(update=UpdateRuleConfig(rule=rule, K=0.1 if rule == STOCHASTIC else None),
                        interference=pop_cfg(theta=40.0, p_c=1.0),
                        generations=60, stats_window=10, run_seed=4)
        g = generate(NetworkConfig(model=BA, n=100, seed=5))
        initial = None if start == "takeover" else np.full(g.n, start == "all-C")
        result, final, _ = matches_the_oracle(cfg, g, initial)
        at = result.absorbed_at
        assert at is not None
        assert (at == 0) if initial is not None else (at > 0)
        frozen = result.coop[at]
        assert frozen in (0.0, 1.0)
        assert not np.isin(result.coop[:at], (0.0, 1.0)).any()
        assert np.all(np.asarray(result.coop[at:]) == frozen)
        assert not any(result.invested[at:])
        assert np.all(final == frozen)

    @staticmethod
    def assert_draws_per_generation(update, start, draws):
        """A 40-generation run under update from start leaves its generator
        where draws random(n) calls per generation played leave it. The
        random start stays mixed to the horizon; all-C and all-D starts
        absorb at generation 0 and draw nothing."""
        horizon = 40
        cfg = ba_config(update=update, interference=pop_cfg(theta=1.0, p_c=0.5),
                        generations=horizon, stats_window=10, run_seed=12)
        g = generate(NetworkConfig(model=BA, n=100, seed=5))
        initial = None if start == "random" else np.full(g.n, start == "all-C")
        result, _, state = matches_the_oracle(cfg, g, initial)
        played = horizon if initial is None else 0
        assert result.absorbed_at == (None if initial is None else 0)
        want = np.random.default_rng(cfg.run_seed)
        if initial is None:
            want.integers(0, 2, g.n, np.int8)
        for _ in range(played * draws):
            want.random(g.n)
        assert np.array_equal(state, pcg64_words(want))

    @pytest.mark.parametrize("start", ["random", "all-C", "all-D"])
    def test_fermi_generation_draws_2n_uniforms(self, start):
        # Whatever the front holds, each generation played draws n uniforms
        # for the picks, then n for the copies.
        self.assert_draws_per_generation(UpdateRuleConfig(rule=STOCHASTIC, K=0.1), start, 2)

    @pytest.mark.parametrize("start", ["random", "all-C", "all-D"])
    def test_imitate_best_generation_draws_n_uniforms(self, start):
        # One tie-break uniform per agent, read or jumped over: most rows
        # need none.
        self.assert_draws_per_generation(UpdateRuleConfig(), start, 1)

    def test_total_cost_is_theta_times_invested_sum(self):
        cfg = ba_config(interference=pop_cfg(theta=1.5, p_c=0.9), run_seed=8)
        g = generate(NetworkConfig(model=BA, n=100, seed=6))
        result = run_simulation(cfg, g)
        assert result.total_cost == pytest.approx(1.5 * sum(result.invested), abs=1e-9)
        assert np.array_equal(result.cost, 1.5 * np.asarray(result.invested))

    @pytest.mark.parametrize("update", [UpdateRuleConfig(),
                                        UpdateRuleConfig(rule=STOCHASTIC, K=0.1)],
                             ids=["imitate-best", "fermi"])
    def test_total_cost_is_the_exact_sum_rounded_once(self, update):
        # Correctly rounded, so the same on any Python: a left-to-right sum
        # of these costs ends in 123.89999999999999 and 457.7999999999999.
        cfg = ba_config(update=update, interference=pop_cfg(theta=0.3, p_c=0.9), run_seed=3)
        result = run_simulation(cfg, generate(NetworkConfig(model=BA, n=100, seed=6)))
        assert result.total_cost == float(sum(Fraction(c) for c in result.cost))

    def test_baseline_costs_nothing(self):
        cfg = ba_config()
        g = generate(NetworkConfig(model=BA, n=100, seed=7))
        result = run_simulation(cfg, g)
        assert result.total_cost == 0.0
        assert not any(result.invested)

    def test_same_seed_bit_identical(self):
        cfg = ba_config(update=UpdateRuleConfig(rule=STOCHASTIC, K=0.1),
                        interference=pop_cfg(theta=1.0, p_c=0.5),
                        generations=50, stats_window=25, run_seed=11)
        g = generate(NetworkConfig(model=BA, n=100, seed=8))
        a = run_simulation(cfg, g)
        b = run_simulation(cfg, g)
        for x, y in ((a.coop, b.coop), (a.invested, b.invested), (a.cost, b.cost)):
            assert np.array_equal(x, y)
        assert a.mean_coop == b.mean_coop

    def test_mean_coop_windows_trailing_generations(self):
        cfg = ba_config(generations=30, stats_window=10, run_seed=2)
        g = generate(NetworkConfig(model=BA, n=100, seed=9))
        result = run_simulation(cfg, g)
        assert result.mean_coop == pytest.approx(np.mean(result.coop[-10:]))

    def test_window_cannot_exceed_horizon(self):
        with pytest.raises(ValueError):
            ba_config(generations=10, stats_window=25)

    @pytest.mark.parametrize("key", ["generations", "stats_window"])
    def test_counts_must_be_positive(self, key):
        for bad in (0, -3):
            with pytest.raises(ValueError, match=key):
                ba_config(**{key: bad})


class TestInterferenceAccounting:
    """Per-generation investment bookkeeping. Each compiled loop is compared
    with the oracle, which is also observed, under the Fermi rule, through
    the module functions it calls."""

    def record_run(self, monkeypatch, cfg, g):
        """cfg run under the Fermi rule, checked against the oracle, and the
        oracle's record of the same run: each generation's eligible mask,
        the scores scores_from_counts returned (and a copy of them as
        returned) and the nodes and scores the step was given. The compiled
        run equals the oracle's, so the record is the compiled run's too."""
        cfg = replace(cfg, update=UpdateRuleConfig(rule=STOCHASTIC, K=0.1))
        calls = {"eligible": [], "scores": [], "stepped": []}
        eligible_set, scores_from_counts, step = (conftest.eligible_set,
                                                  conftest.scores_from_counts,
                                                  conftest.step_stochastic)

        def spy_eligible(*args):
            mask = eligible_set(*args)
            calls["eligible"].append(mask.copy())
            return mask

        def spy_scores(*args):
            scores = scores_from_counts(*args)
            calls["scores"].append((scores, scores.copy()))
            return scores

        def spy_step(g, s, front, score, *rest):
            def scored(nodes):
                scores = score(nodes)
                calls["stepped"].append((nodes, scores.copy()))
                return scores
            return step(g, s, front, scored, *rest)

        monkeypatch.setattr(conftest, "eligible_set", spy_eligible)
        monkeypatch.setattr(conftest, "scores_from_counts", spy_scores)
        monkeypatch.setattr(conftest, "step_stochastic", spy_step)
        return matches_the_oracle(cfg, g)[0], calls

    def test_invested_is_eligible_count_per_generation(self, monkeypatch):
        cfg = ba_config(interference=InterferenceConfig(
            schemes=(NEB, NI), theta=2.5, n_c=0.5, c_I=0.2), run_seed=3)
        g = generate(NetworkConfig(model=BA, n=100, seed=10))
        result, calls = self.record_run(monkeypatch, cfg, g)
        played = len(calls["eligible"])
        assert played > 0
        assert result.invested[:played].tolist() == \
            [int(np.count_nonzero(m)) for m in calls["eligible"]]
        assert not any(result.invested[played:])

    def test_empty_eligible_set_costs_nothing(self, monkeypatch):
        # POP at p_c = 0 pays only when there is no cooperator to pay
        cfg = ba_config(interference=pop_cfg(theta=9.0, p_c=0.0), run_seed=6)
        g = generate(NetworkConfig(model=BA, n=100, seed=12))
        result, calls = self.record_run(monkeypatch, cfg, g)
        assert calls["eligible"] and not any(m.any() for m in calls["eligible"])
        assert not any(result.cost)
        assert result.total_cost == 0.0
        for (_, before), (_, stepped) in zip(calls["scores"], calls["stepped"]):
            assert np.array_equal(stepped, before)

    def test_cost_is_theta_times_invested_exactly(self):
        rng = np.random.default_rng(4)
        for trial in range(5):
            theta = float(rng.random() * 10 + 0.1)
            cfg = ba_config(interference=pop_cfg(theta=theta, p_c=0.9), run_seed=trial)
            result = run_simulation(cfg, generate(NetworkConfig(model=BA, n=100, seed=trial)))
            assert np.array_equal(result.cost, theta * np.asarray(result.invested))

    def test_endowment_added_without_touching_the_scores(self, monkeypatch):
        theta = 2.0
        cfg = ba_config(interference=pop_cfg(theta=theta, p_c=1.0), run_seed=5)
        g = generate(NetworkConfig(model=BA, n=100, seed=11))
        _, calls = self.record_run(monkeypatch, cfg, g)
        assert calls["stepped"]
        for (scores, before), mask, (nodes, stepped) in zip(
                calls["scores"], calls["eligible"], calls["stepped"]):
            assert np.array_equal(scores, before)  # input scores left unchanged
            assert np.array_equal(stepped, before + np.where(mask[nodes], theta, 0.0))

    @pytest.mark.parametrize("n, icfg, run_seed, graph_seed", [
        (100, InterferenceConfig(schemes=(NEB, NI), theta=2.5, n_c=0.5, c_I=0.2), 3, 10),
        (100, pop_cfg(theta=9.0, p_c=0.0), 6, 12),
        (100, pop_cfg(theta=2.0, p_c=1.0), 5, 11),
        # BA n=2000 imitate-best switches many agents in one generation.
        (2000, pop_cfg(theta=1.0, p_c=0.5), 4, 3),
    ], ids=["NEB+NI", "POP-pays-nobody", "POP-pays-all", "POP-n2000"])
    def test_imitate_best_accounting_matches_the_oracle(self, n, icfg, run_seed, graph_seed):
        cfg = ba_config(n=n, interference=icfg, run_seed=run_seed)
        g = generate(NetworkConfig(model=BA, n=n, seed=graph_seed))
        got = matches_the_oracle(cfg, g)[0]
        assert any(got.invested) == (icfg.p_c != 0.0)

    @settings(max_examples=200, deadline=None)
    @given(g=connected_graphs(min_n=3), data=st.data())
    def test_imitate_best_thresholds_are_inclusive(self, g, data):
        # Thresholds taken from the start itself put one cooperator exactly
        # on all three boundaries: the compiled loop pays it, as the oracle
        # does.
        start = np.array(data.draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n)))
        assume(0 < np.count_nonzero(start) < g.n)
        node = data.draw(st.sampled_from(np.flatnonzero(start).tolist()))
        icfg = InterferenceConfig(
            schemes=(POP, NEB, NI), theta=1.0, p_c=np.count_nonzero(start) / g.n,
            n_c=float(count_neighbors(g, start)[node] / node_degrees(g)[node]),
            c_I=float(conftest.degree_percentiles(g)[node]))
        cfg = RunConfig(network=NetworkConfig(model=BA, n=g.n), interference=icfg,
                        generations=1, stats_window=1)
        got = matches_the_oracle(cfg, g, start)[0]
        assert got.invested[0] >= 1


@st.composite
def run_cases(draw, rules=(DETERMINISTIC, STOCHASTIC)):
    """A graph, a run config over it (any of rules, any scheme combination)
    and optionally the initial cooperator mask, all-C and all-D included.
    The graph has at least 3 nodes, the smallest network a config can name."""
    g = draw(connected_graphs(min_n=3))
    schemes = tuple(x for x in draw(st.permutations([POP, NEB, NI]))
                    if draw(st.booleans()))
    threshold = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]) | st.floats(0.0, 1.0)
    icfg = InterferenceConfig(
        schemes=schemes,
        theta=draw(st.sampled_from([1.0, 2.0]) | st.floats(0.1, 10.0)) if schemes else None,
        p_c=draw(threshold) if POP in schemes else None,
        n_c=draw(threshold) if NEB in schemes else None,
        c_I=draw(threshold) if NI in schemes else None)
    rule = draw(st.sampled_from(rules))
    generations = draw(st.integers(1, 30))
    cfg = RunConfig(
        network=NetworkConfig(model=BA, n=g.n),
        payoff=PayoffParams(b=draw(st.sampled_from([1.5, 2.0]) | st.floats(1.01, 2.0))),
        update=UpdateRuleConfig(rule=rule, K=draw(st.sampled_from([0.01, 0.1, 1.0])
                                                  | st.floats(0.01, 10.0))
                                if rule == STOCHASTIC else None),
        interference=icfg,
        generations=generations,
        stats_window=draw(st.integers(1, generations)),
        run_seed=draw(st.integers(0, 2**32 - 1)))
    initial = draw(st.none()
                   | st.booleans().map(lambda x: np.full(g.n, x))
                   | st.lists(st.booleans(), min_size=g.n, max_size=g.n).map(np.array))
    return g, cfg, initial


@st.composite
def tie_heavy_cases(draw):
    """run_cases under imitate-best at b = 2 and an integer theta: every
    score is an integer, so best neighbors tie often, across both
    strategies too."""
    g, cfg, initial = draw(run_cases(rules=(DETERMINISTIC,)))
    icfg = cfg.interference
    if icfg.schemes:
        icfg = replace(icfg, theta=float(draw(st.integers(1, 3))))
    return g, replace(cfg, payoff=PayoffParams(b=2.0), interference=icfg), initial


# det-grid's two slowest points. On a BA graph of 2000 agents, some 750 to
# 800 of them switch each generation under imitate-best.
SLOW_IMITATE_BEST = (
    ("POP", pop_cfg(5.0, 0.8)),
    ("NEB+NI", InterferenceConfig(schemes=(NEB, NI), theta=5.0, n_c=0.5, c_I=0.05)))

# perfbench's stoch-long points, run at its scale in TestCarriedCounts: DMS,
# n=5000, b=1.8, K=0.1, 500 generations, none absorbing.
STOCH_LONG = (
    ("baseline", InterferenceConfig()),
    ("NEB", InterferenceConfig(schemes=(NEB,), theta=1.0, n_c=0.5)),
    ("POP+NI", InterferenceConfig(schemes=(POP, NI), theta=2.0, p_c=0.5, c_I=0.9)))


class TestCarriedCounts:
    """run_simulation carries neighbor counts across generations, in both
    compiled loops; every number it reports must equal the oracle's, which
    recounts them each generation."""

    @settings(max_examples=300, deadline=None)
    @given(case=run_cases())
    def test_matches_full_recount_loop(self, case):
        g, cfg, initial = case
        matches_the_oracle(cfg, g, initial)

    @settings(max_examples=300, deadline=None)
    @given(case=tie_heavy_cases())
    def test_imitate_best_matches_full_recount_when_ties_are_common(self, case):
        # The compiled loop reads a tie-break uniform only for a row whose
        # tied best neighbors play both strategies: common here.
        g, cfg, initial = case
        matches_the_oracle(cfg, g, initial)

    @settings(max_examples=150, deadline=None)
    @given(case=run_cases(rules=(STOCHASTIC,)))
    def test_carried_counts_equal_a_fresh_count(self, case):
        # The compiled Fermi loop's counts live inside the call, so it is
        # observed after every generation: run to horizon h, then one oracle
        # generation from its state, counted afresh from the mask, must give
        # the compiled loop's state at horizon h + 1 and leave the generator
        # at the same point. The oracle's front is the boundary of that state.
        g, cfg, initial = case
        rng = np.random.default_rng(cfg.run_seed)
        if initial is None:
            initial = rng.integers(0, 2, g.n, dtype=np.int8).view(bool)
        start = pcg64_words(rng)

        def run(step, is_coop, state, horizon):
            """step, dynamics.step_stochastic or the oracle, from is_coop and
            the generator state (an array) to horizon: (absorbed_at, final
            mask, coop, the generator's end state)."""
            rng = state.copy() if step is dynamics.step_stochastic else pcg64_generator(state)
            is_coop, coop = is_coop.copy(), np.empty(horizon)
            absorbed_at = step(g, is_coop, cfg.payoff, cfg.interference, cfg.update.K, rng,
                               coop, np.zeros(horizon, dtype=np.int64))
            return absorbed_at, is_coop, coop, pcg64_words(rng) if step is replicate else rng

        step = conftest.step_stochastic

        def spy_step(g, s, front, *rest):
            assert np.array_equal(front, boundary(g, s))
            return step(g, s, front, *rest)

        absorbed_at, is_coop, state, played = None, initial, start, 0
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(conftest, "step_stochastic", spy_step)
            for horizon in range(1, cfg.horizon + 1):
                at, got, coop, got_state = run(dynamics.step_stochastic, initial, start,
                                               horizon)
                if at is not None:
                    absorbed_at = at
                    break
                played = horizon
                _, want, _, want_state = run(replicate, is_coop, state, 1)
                assert coop[horizon - 1] == np.count_nonzero(is_coop) / g.n
                assert np.array_equal(got, want)
                assert np.array_equal(count_neighbors(g, got), count_neighbors(g, want))
                assert np.array_equal(want_state, got_state)
                is_coop, state = got, got_state
        assert run(dynamics.step_stochastic, initial, start, cfg.horizon)[0] == absorbed_at
        assert played == (absorbed_at if absorbed_at is not None else cfg.horizon)

    @pytest.mark.parametrize("model, n, rule, icfg, generations", [
        *(pytest.param(model, 2000, STOCHASTIC, pop_cfg(1.0, 0.5), 10,
                       id=f"{model}-stochastic")
          for model in (BA, network.DMS)),
        *(pytest.param(model, 2000, DETERMINISTIC, icfg, 75,
                       id=f"{model}-deterministic-{name}")
          for model in (BA, network.DMS) for name, icfg in SLOW_IMITATE_BEST),
        *(pytest.param(network.DMS, 5000, STOCHASTIC, icfg, 500, id=f"stoch-long-{name}")
          for name, icfg in STOCH_LONG)])
    def test_update_follows_the_switchers_share(self, model, n, rule, icfg, generations):
        # BA switches more agents at once than DMS: either compiled loop's
        # counts at n=2000 must still give the oracle's run, and leave its
        # final population. So must the Fermi loop's over every generation
        # of the benchmark's Fermi points, some 500 agents in the front and
        # 150 switching each generation.
        update = UpdateRuleConfig(rule=rule, K=0.1 if rule == STOCHASTIC else None)
        cfg = RunConfig(
            network=NetworkConfig(model=model, n=n, seed=3), update=update,
            interference=icfg, generations=generations, stats_window=5, run_seed=4)
        result = matches_the_oracle(cfg, generate(cfg.network))[0]
        if rule == STOCHASTIC:
            assert result.absorbed_at is None


class TestOraclesStandAlone:
    """The oracle checks the compiled loops only if it does not run them:
    with the library unloadable, it still pays and scores under either rule,
    every scheme active."""

    icfg = InterferenceConfig(schemes=(POP, NEB, NI), theta=1.5, p_c=0.9, n_c=0.75,
                              c_I=0.2)

    @pytest.fixture(autouse=True)
    def no_library(self, monkeypatch):
        def refuse():
            raise AssertionError("an oracle loaded the compiled loops")
        monkeypatch.setattr(_loops, "library", refuse)

    def test_full_recount_run(self):
        net = NetworkConfig(model=BA, n=100, seed=10)
        g = conftest.reference_generate_ba(net, np.random.default_rng(net.seed))
        for update in (UpdateRuleConfig(), UpdateRuleConfig(rule=STOCHASTIC, K=0.1)):
            result = simulate(ba_config(update=update, interference=self.icfg), g)
            assert result.invested.any()

    def test_fermi_replicate(self):
        net = NetworkConfig(model=BA, n=100, seed=10)
        g = conftest.reference_generate_ba(net, np.random.default_rng(net.seed))
        rng = np.random.default_rng(10)
        is_coop = rng.integers(0, 2, g.n, dtype=np.int8).view(bool)
        invested = np.zeros(50, dtype=np.int64)
        conftest.replicate(g, is_coop, PayoffParams(), self.icfg, 0.1, rng, np.empty(50),
                           invested)
        assert invested.any()


class TestFermiLoop:
    """The compiled Fermi loop, dynamics.step_stochastic, against its numpy
    oracle, conftest.replicate."""

    # The memo of copy probabilities in _loops.c's coopsim_fermi: 2^MEMO_BITS
    # slots, keyed by the score difference f_a - f_b.
    MEMO_SLOTS = 1024

    @staticmethod
    def decided_pairs(cfg, g, initial=None):
        """matches_the_oracle's final mask, and the (own, neighbor) score
        pairs the oracle decided on, in its order."""
        pairs = []

        def spy(f_a, f_b, K):
            pairs.extend(zip(np.atleast_1d(f_a).tolist(), np.atleast_1d(f_b).tolist()))
            return fermi_probability(f_a, f_b, K)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(conftest, "fermi_probability", spy)
            return matches_the_oracle(cfg, g, initial)[1], pairs

    @settings(max_examples=300, deadline=None)
    @given(case=run_cases(rules=(STOCHASTIC,)))
    def test_matches_the_oracle(self, case):
        g, cfg, initial = case
        matches_the_oracle(cfg, g, initial)

    @staticmethod
    def k_giving(p, b):
        """A K at which fermi_probability(0, b, K) is exactly p, or None. p
        falls from near 1 toward 0.5 as K grows, monotone but for rounding,
        and may step over a double: bisect, then try the 64 K on either side."""
        lo, hi = 1e-3, 1e3
        while np.nextafter(lo, hi) < hi:
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if fermi_probability(0.0, b, mid) > p else (lo, mid)
        near = [lo, hi]
        for _ in range(64):
            near += [np.nextafter(near[-2], 0.0), np.nextafter(near[-1], np.inf)]
        return next((float(k) for k in near if fermi_probability(0.0, b, k) == p), None)

    @staticmethod
    def two_agents(b, K, seed):
        """One generation of two agents, C then D, at b and K from seed,
        through the compiled loop and the oracle: agent 0 copies agent 1
        when its copy draw (the third) is below p = fermi_probability(0, b,
        K). Asserts that both agree, the generator's end state included, and
        returns whether agent 0 copied. No network config has 2 nodes, so
        both are called directly, not through run_simulation."""
        g = Graph.from_edges(2, [(0, 1)])
        runs = []
        for step, rng in ((dynamics.step_stochastic, _loops.generator(seed)),
                          (replicate, np.random.default_rng(seed))):
            is_coop = np.array([True, False])
            step(g, is_coop, PayoffParams(b=b), InterferenceConfig(), K, rng, np.empty(1),
                 np.zeros(1, dtype=np.int64))
            runs.append((is_coop, rng))
        (got, got_state), (want, want_state) = runs
        assert np.array_equal(got, want)
        assert np.array_equal(got_state, pcg64_words(want_state))
        return not got[0]

    @pytest.mark.parametrize("above", [False, True], ids=["p-equals-u", "p-one-ulp-above-u"])
    def test_a_draw_on_the_probability_is_exact(self, above):
        # The seed and K make the oracle's p the copy draw u itself, or the
        # next double above: a p one ulp off the oracle's decides the other
        # way.
        b = 1.8
        for seed in itertools.count():
            u = np.random.default_rng(seed).random(3)[2]
            K = self.k_giving(np.nextafter(u, 1.0) if above else u, b) if u > 0.6 else None
            if K is not None:
                break
        assert self.two_agents(b, K, seed) == above  # a copy only when u < p

    def test_the_probability_takes_the_c_librarys_exp(self):
        # Here p with the C library's exp, the oracle's, is the copy draw u
        # exactly, and p with numpy's exp (numpy 2.4 on an AVX-512 x86-64
        # CPU) is the next double above u: the loop, deciding by the C
        # library's, does not copy.
        b, seed, K = 1.8, 9, 4.300049650414903
        assert fermi_probability(0.0, b, K) == np.random.default_rng(seed).random(3)[2]
        assert not self.two_agents(b, K, seed)

    def test_more_score_differences_than_memo_slots(self):
        # With b and theta irrational, a BA run under POP+NEB meets far more
        # distinct score differences than the memo has slots, so differences
        # share slots and overwrite each other: every decision must still
        # read the probability of its own difference.
        icfg = InterferenceConfig(schemes=(POP, NEB), theta=math.sqrt(2), p_c=0.6, n_c=0.6)
        cfg = ba_config(n=2000, payoff=PayoffParams(b=(1 + math.sqrt(5)) / 2),
                        update=UpdateRuleConfig(rule=STOCHASTIC, K=0.5), interference=icfg,
                        generations=200, run_seed=5)
        g = generate(NetworkConfig(model=BA, n=2000, seed=5))
        _, pairs = self.decided_pairs(cfg, g)
        assert len({f_a - f_b for f_a, f_b in pairs}) > 1.5 * self.MEMO_SLOTS

    def test_replicates_at_other_k_one_after_the_other(self):
        # The memo lives for one call. Replicates from one seed on one graph
        # meet the same score differences at first; run one after the other
        # on this thread, each must read its own K's probabilities.
        g = generate(NetworkConfig(model=BA, n=300, seed=2))
        for K in (0.1, 2.0, 0.1):
            cfg = ba_config(n=300, update=UpdateRuleConfig(rule=STOCHASTIC, K=K),
                            interference=pop_cfg(0.5, 0.7), run_seed=7)
            matches_the_oracle(cfg, g)

    def test_differences_equal_in_single_precision_are_told_apart(self):
        # A C leaf (agent 0) facing a D with one C neighbor, and a D leaf
        # (agent 6) facing a C with two: under POP with p_c = 1 every C is
        # paid theta, so their differences are theta - b and b - (2 + theta),
        # both about -1 and apart by 2e-9, one float. The seed and K put
        # agent 6's copy draw (the last of the generation) between the two
        # probabilities: it copies only if it reads its own difference's.
        b, theta = 1.8, 0.8 + 1e-9
        first, last = theta - b, b - (2 + theta)
        assert first != last and np.float32(first) == np.float32(last)
        for seed in itertools.count():
            u = np.random.default_rng(seed).random(14)[13]
            if 0.6 < u < 0.9:
                break
        lo, hi = 0.1, 10.0  # p falls toward 0.5 as K grows
        for _ in range(100):
            K = (lo + hi) / 2
            mid = (fermi_probability(first, 0.0, K) + fermi_probability(last, 0.0, K)) / 2
            lo, hi = (K, hi) if mid > u else (lo, K)
        assert fermi_probability(first, 0.0, K) < u - 1e-11
        assert fermi_probability(last, 0.0, K) > u + 1e-11
        g = Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (3, 5), (3, 6)])
        start = np.array([True, False, False, True, True, True, False])
        cfg = ba_config(n=7, payoff=PayoffParams(b=b),
                        update=UpdateRuleConfig(rule=STOCHASTIC, K=K),
                        interference=pop_cfg(theta, 1.0), generations=1, stats_window=1,
                        run_seed=seed)
        final, pairs = self.decided_pairs(cfg, g, start)
        assert pairs[0] == (theta, b) and pairs[-1] == (b, 2 + theta)
        assert final[6]  # agent 6 turned C

    def test_other_bit_generators_are_rejected(self):
        # The loops step a PCG64 state in place, read from a contiguous
        # uint64[4] array: a numpy generator, or an array of another form,
        # is refused before it is read, under either rule, and left as it
        # was.
        g = generate(NetworkConfig(model=BA, n=30, seed=1))
        words = np.array(_loops.generator(1))
        for rng in (np.random.default_rng(1), words[:3], words.astype(np.int64),
                    np.repeat(words, 2)[::2], words.reshape(2, 2), words.view(np.uint32)):
            before = pickle.dumps(rng)
            for rule in ((), (0.1,)):
                step = dynamics.step_stochastic if rule else dynamics.step_deterministic
                with pytest.raises(ValueError, match="needs contiguous"):
                    step(g, np.ones(g.n, dtype=bool), PayoffParams(), InterferenceConfig(),
                         *rule, rng, np.empty(5), np.zeros(5, dtype=np.int64))
            assert pickle.dumps(rng) == before


# Jump lengths at the edges of the loops' jump table: each side of its
# near/far boundary (a skip of 255 draws is one map of 256 steps) and of
# every far map's bit.
JUMP_EDGES = sorted({254, 255, 256, 257, 511, 512,
                     *(2**k + e for k in range(41) for e in (-1, 1))})


class TestDraws:
    """coopsim_pcg64_random reads a draw as the loops do, one jump of the
    skipped draws and the draw itself: it must give numpy's value and leave
    numpy's state at every jump length. TestFermiLoop's graphs are too small
    to skip 255 draws."""

    @staticmethod
    def check(seed, skipped):
        rng = pcg64_words(np.random.PCG64(seed))
        got = _loops.library().coopsim_pcg64_random(rng.ctypes.data, skipped)
        want = np.random.Generator(np.random.PCG64(seed).advance(skipped))
        assert got == want.random(), (seed, skipped)
        assert np.array_equal(rng, pcg64_words(want)), (seed, skipped)

    @pytest.mark.parametrize("skipped", JUMP_EDGES)
    def test_at_the_edges_of_the_jump_table(self, skipped):
        for seed in (0, 20230116, 2**64 - 1):
            self.check(seed, skipped)

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), skipped=st.integers(0, 2**40))
    def test_at_any_jump_length(self, seed, skipped):
        self.check(seed, skipped)


class TestLoopBoundary:
    """The boundary between _loops.run and a loop: NI arrives as one degree,
    a loop that cannot allocate its work block returns -2, and run maps
    what a loop returns."""

    @settings(max_examples=200, deadline=None)
    @given(model=st.sampled_from(network.MODELS), n=st.integers(3, 300),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_ni_degree_pays_the_nodes_whose_percentile_reaches_c_I(self, model, n, seed,
                                                                    data):
        g = generate(NetworkConfig(model=model, n=n, seed=seed))
        percentile = conftest.degree_percentiles(g)
        c_I = data.draw(st.one_of(st.sampled_from([0.0, 1.0, *percentile.tolist()]),
                                  st.floats(0.0, 1.0)))
        assert np.array_equal(node_degrees(g) >= _loops.ni_degree(g, c_I),
                              percentile >= c_I)

    def test_a_work_block_that_cannot_be_allocated_returns_minus_2(self):
        # 2**46 agents need a block past the 47-bit address space, which no
        # overcommit setting grants; the loop must give up before it reads
        # an array (all NULL here) or steps the generator.
        lib, n = _loops.library(), 2**46
        for name, rule in (("coopsim_imitate_best", ()), ("coopsim_fermi", (0.1,))):
            rng = _loops.generator(7)
            before = np.array(rng)
            got = getattr(lib, name)(n, None, None, 1.5, _loops.Pay(), *rule, 10, None,
                                     None, None, rng.buffer_info()[0])
            assert got == -2, name
            assert np.array_equal(rng, before), name

    @pytest.mark.parametrize("returned", [-2, -1, 0, 7])
    def test_run_maps_what_the_loop_returns(self, monkeypatch, returned):
        # -2 is a MemoryError, -1 a run that reached the horizon mixed
        # (None), and any other value the absorption generation, as is.
        g, rng = generate(NetworkConfig(model=BA, n=30, seed=1)), _loops.generator(1)
        monkeypatch.setattr(_loops, "library",
                            lambda: SimpleNamespace(coopsim_fermi=lambda *args: returned))

        def run():
            return _loops.run("coopsim_fermi", g, np.ones(g.n, dtype=bool), PayoffParams(),
                              InterferenceConfig(), rng, np.empty(5),
                              np.zeros(5, dtype=np.int64), 0.1)

        if returned == -2:
            with pytest.raises(MemoryError, match="coopsim_fermi: no memory for its work"):
                run()
        else:
            assert run() == (None if returned == -1 else returned)



# Each b of the theta tests and the spacing of its lattice of theta
# breakpoints. Under imitate-best theta enters only where a paid cooperator
# (nc + theta) meets an unpaid one (an integer nc) or a defector (b * m): a
# decision can change only where theta crosses an integer or b * m - k.
THETA_LATTICES = {1.2: 0.2, 1.5: 0.5, 1.8: 0.2, 2.0: 1.0}
THETA_MARGIN = 1e-6


@st.composite
def theta_cases(draw):
    """An imitate-best run case with a scheme set of one to three schemes, two
    theta at least THETA_MARGIN inside one open interval of its b's lattice,
    and a third as far inside the next interval: (graph, config, initial
    mask or None, (theta_a, theta_b), theta_next)."""
    g = draw(connected_graphs(min_n=3))
    schemes = draw(st.lists(st.sampled_from([POP, NEB, NI]), min_size=1, max_size=3,
                            unique=True))
    threshold = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]) | st.floats(0.0, 1.0)
    b = draw(st.sampled_from(sorted(THETA_LATTICES)))
    step = THETA_LATTICES[b]
    k = draw(st.integers(0, round(8 / step)))
    inside = st.floats(THETA_MARGIN, step - THETA_MARGIN)
    thetas = tuple(k * step + draw(inside) for _ in range(2))
    generations = draw(st.integers(1, 30))
    cfg = RunConfig(
        network=NetworkConfig(model=BA, n=g.n),
        payoff=PayoffParams(b=b),
        interference=InterferenceConfig(
            schemes=tuple(schemes), theta=1.0,
            p_c=draw(threshold) if POP in schemes else None,
            n_c=draw(threshold) if NEB in schemes else None,
            c_I=draw(threshold) if NI in schemes else None),
        generations=generations,
        stats_window=draw(st.integers(1, generations)),
        run_seed=draw(st.integers(0, 2**32 - 1)))
    initial = draw(st.none()
                   | st.lists(st.booleans(), min_size=g.n, max_size=g.n).map(np.array))
    return g, cfg, initial, thetas, (k + 1) * step + draw(inside)


def with_theta(cfg, theta):
    return replace(cfg, interference=replace(cfg.interference, theta=theta))


class TestThetaLattice:
    """Under imitate-best the endowment theta is a step function of the run:
    inside one open interval of its lattice, the run is the same, so only
    the cost, theta times invested, moves. Each run is matches_the_oracle's:
    its result, final mask and generator end state."""

    @settings(max_examples=300, deadline=None)
    @given(case=theta_cases())
    def test_theta_inside_an_interval_changes_only_the_cost(self, case):
        g, cfg, initial, (theta_a, theta_b), _ = case
        (a, final_a, end_a), (b, final_b, end_b) = (
            matches_the_oracle(with_theta(cfg, theta), g, initial)
            for theta in (theta_a, theta_b))
        assert np.array_equal(a.coop, b.coop)
        assert np.array_equal(a.invested, b.invested)
        assert a.absorbed_at == b.absorbed_at
        assert np.array_equal(final_a, final_b)
        assert np.array_equal(end_a, end_b)
        # A run that pays nobody is the run without interference.
        if not any(a.invested):
            base, final_base, end_base = matches_the_oracle(
                replace(cfg, interference=InterferenceConfig()), g, initial)
            assert np.array_equal(a.coop, base.coop)
            assert np.array_equal(final_a, final_base)
            assert np.array_equal(end_a, end_base)

    def test_theta_across_a_breakpoint_can_change_the_run(self):
        # The property above can fail: in some generated case, theta in the
        # next interval runs differently.
        def differs(case):
            g, cfg, initial, (theta, _), theta_next = case
            (a, _, end_a), (b, _, end_b) = (matches_the_oracle(with_theta(cfg, t), g, initial)
                                            for t in (theta, theta_next))
            return not np.array_equal(a.coop, b.coop) or not np.array_equal(end_a, end_b)
        find(theta_cases(), differs,
             settings=settings(max_examples=300, database=None, derandomize=True))


def rounded_sum(values) -> float:
    """Oracle of a correctly rounded sum of values >= 0: their exact sum as a
    Fraction, rounded once to a double; inf past the largest double, or
    where a value is inf, and nan where one is nan."""
    if not all(map(math.isfinite, values)):
        return math.nan if any(map(math.isnan, values)) else math.inf
    try:
        return float(sum(map(Fraction, values), Fraction(0)))
    except OverflowError:
        return math.inf


def mean_std(values) -> tuple[float, float]:
    """Oracle of engine._mean_std, its docstring's definition through
    rounded_sum: the mean is the sum over n, the std the square root of the
    sum of squared deviations from that mean (inf past the largest double)
    over n - 1, and 0.0 for one value."""
    n = len(values)
    mean = rounded_sum(values) / n
    if n == 1:
        return mean, 0.0
    return mean, math.sqrt(rounded_sum([(v - mean) * (v - mean) for v in values]) / (n - 1))


class TestReplication:
    def test_replicates_and_mean(self):
        cfg = ba_config(n=60)
        summary = sweep([cfg], master_seed=5, graphs=2, realisations=3)[0]
        assert summary.replicates == 6
        # recompute the replicate set by hand and compare the aggregate
        coops = []
        for g_idx, gseed in enumerate(graph_seeds_for(5, 2)):
            g = generate(NetworkConfig(model=BA, n=60, seed=gseed))
            for r_idx in range(3):
                rseed = derive_seed(5, 1, 0, g_idx, r_idx)
                result = run_simulation(
                    RunConfig(**{**cfg.__dict__, "run_seed": rseed}), g)
                coops.append(result.mean_coop)
        assert summary.coop_mean == pytest.approx(np.mean(coops), abs=1e-15)

    def test_repeat_invocation_identical(self):
        cfg = ba_config(n=60, interference=pop_cfg(theta=1.0, p_c=0.8))
        a = sweep([cfg], master_seed=7, graphs=2, realisations=2)[0]
        b = sweep([cfg], master_seed=7, graphs=2, realisations=2)[0]
        assert a == b

    def test_initial_states_differ_across_realisations(self, monkeypatch):
        cfg = ba_config(n=60, update=UpdateRuleConfig(rule=STOCHASTIC, K=0.1),
                        generations=5, stats_window=5)
        used = []
        real_run = engine.run_simulation

        def recording_run(run_cfg, g):
            used.append(run_cfg.run_seed)
            return real_run(run_cfg, g)

        monkeypatch.setattr(engine, "run_simulation", recording_run)
        sweep([cfg], master_seed=9, graphs=1, realisations=8)
        assert used == [derive_seed(9, 1, 0, 0, r) for r in range(8)]
        assert len(set(used)) == 8

    def test_parallel_jobs_do_not_change_results(self):
        cfg = ba_config(n=60, interference=pop_cfg(theta=2.0, p_c=0.7))
        threads = threading.active_count()
        serial = sweep([cfg], master_seed=13, graphs=2, realisations=2, jobs=1)
        parallel = sweep([cfg], master_seed=13, graphs=2, realisations=2, jobs=4)
        assert serial == parallel
        # The pool's threads have ended.
        assert threading.active_count() == threads

    def test_a_task_error_in_a_worker_thread_reaches_the_caller(self, monkeypatch):
        real_run = engine.run_simulation
        ran_on = set()

        def failing_run(cfg, g):
            ran_on.add(threading.get_ident())
            if cfg.interference.active:
                raise RuntimeError("a task failed")
            return real_run(cfg, g)

        monkeypatch.setattr(engine, "run_simulation", failing_run)
        cfgs = [ba_config(n=60), ba_config(n=60, interference=pop_cfg(theta=2.0, p_c=0.7))]
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="a task failed"):
            sweep(cfgs, master_seed=13, graphs=2, realisations=2, jobs=2)
        assert threading.active_count() == threads
        assert ran_on and threading.get_ident() not in ran_on

    def test_first_point_ignores_later_points(self):
        cfg = ba_config(n=60)
        other = ba_config(n=60, interference=pop_cfg(theta=1.0, p_c=0.5))
        one = sweep([cfg], master_seed=3, graphs=2, realisations=2)[0]
        assert sweep([cfg, other], master_seed=3, graphs=2, realisations=2)[0] == one

    def test_each_point_reduces_its_own_replicates(self):
        cfgs = [ba_config(n=60), ba_config(n=60, interference=pop_cfg(theta=2.0, p_c=0.5)),
                ba_config(n=60, interference=pop_cfg(theta=5.0, p_c=0.8))]
        summaries = sweep(cfgs, master_seed=17, graphs=2, realisations=3)
        graphs = [generate(NetworkConfig(model=BA, n=60, seed=gseed))
                  for gseed in graph_seeds_for(17, 2)]
        for p_idx, (cfg, summary) in enumerate(zip(cfgs, summaries)):
            pairs = [(r.mean_coop, r.total_cost) for r in (
                run_simulation(RunConfig(**{**cfg.__dict__, "run_seed": rseed}), g)
                for g_idx, g in enumerate(graphs)
                for rseed in (derive_seed(17, 1, p_idx, g_idx, r) for r in range(3)))]
            # Not the sweep's graph-major order: any order gives its bytes.
            random.Random(p_idx).shuffle(pairs)
            coop, cost = zip(*pairs)
            assert summary.config == cfg
            assert summary.replicates == 6
            assert (summary.coop_mean, summary.coop_std) == mean_std(coop)
            assert (summary.cost_mean, summary.cost_std) == mean_std(cost)

    def test_std_is_sample_std(self):
        cfg = ba_config(n=60, update=UpdateRuleConfig(rule=STOCHASTIC, K=0.1),
                        generations=10, stats_window=5)
        summary = sweep([cfg], master_seed=21, graphs=2, realisations=3)[0]
        # reconstruct per-replicate values through the engine itself
        coops = []
        for g_idx, gseed in enumerate(graph_seeds_for(21, 2)):
            g = generate(NetworkConfig(model=BA, n=60, seed=gseed))
            for r_idx in range(3):
                rseed = derive_seed(21, 1, 0, g_idx, r_idx)
                coops.append(run_simulation(
                    RunConfig(**{**cfg.__dict__, "run_seed": rseed}), g).mean_coop)
        assert summary.coop_std == pytest.approx(np.std(coops, ddof=1), abs=1e-15)


class TestReductions:
    """engine sums with math.fsum: each sum is the exact sum rounded once,
    so a mean and a sample std follow their definitions for every order of
    their values, and costs whose sums or squared deviations pass the
    largest double end in an OverflowError naming theta."""

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 2_000), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1.0, 1e3, 1e160, 1e307]))
    @example(n=1, seed=0, scale=1.0)
    @example(n=2, seed=0, scale=1.0)
    @example(n=2_000, seed=0, scale=1.0)
    @example(n=2, seed=0, scale=1e160)  # the squared deviation overflows
    @example(n=300, seed=0, scale=1e307)  # the sum overflows
    def test_mean_and_sample_std_follow_their_definition(self, n, seed, scale):
        values = np.random.default_rng(seed).random(n) * scale
        values[::5] = np.floor(values[::5])  # some equal values, 0 among them
        values = values.tolist()
        assert engine._fsum(values) == rounded_sum(values)
        mean, std = engine._mean_std(values)
        assert (mean, std) == mean_std(values)
        if math.isfinite(mean) and math.isfinite(std):
            engine._check_cost(1.0, cost_mean=mean, cost_std=std)
        else:
            with pytest.raises(OverflowError, match=r"theta=1e\+300 is too large"):
                engine._check_cost(1e300, cost_mean=mean, cost_std=std)

    @settings(max_examples=150, deadline=None)
    @given(pairs=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1e300)), min_size=1,
                          max_size=60),
           data=st.data())
    def test_any_order_gives_the_same_bytes(self, pairs, data):
        # A point's replicates reduce as sweep reduces them: each column of
        # their (mean_coop, total_cost) pairs through _mean_std. Costs up to
        # 1e300 take the squared deviations past the largest double too.
        shuffled = data.draw(st.permutations(pairs))

        def reduced(pairs):
            coop, cost = zip(*pairs)
            stats = [engine._fsum(cost), *engine._mean_std(coop), *engine._mean_std(cost)]
            return np.array(stats).tobytes()

        assert reduced(shuffled) == reduced(pairs)

    @settings(max_examples=100, deadline=None)
    @given(generations=st.integers(1, 300), data=st.data(), run_seed=st.integers(0, 2**32),
           rule=st.sampled_from([DETERMINISTIC, STOCHASTIC]))
    def test_mean_coop_is_the_fsum_over_the_window(self, generations, data, run_seed, rule):
        window = data.draw(st.integers(1, generations))
        cfg = ba_config(n=60, update=UpdateRuleConfig(rule=rule, K=0.1 if rule == STOCHASTIC
                                                      else None),
                        interference=pop_cfg(theta=1.0, p_c=0.6), generations=generations,
                        stats_window=window, run_seed=run_seed)
        result = run_simulation(cfg, generate(NetworkConfig(model=BA, n=60, seed=1)))
        assert result.mean_coop == math.fsum(result.coop[-window:]) / window


def make_summary(schemes, theta, coop_mean, cost_mean, p_c=None, n_c=None, c_I=None):
    cfg = RunConfig(
        network=NetworkConfig(model=BA, n=100),
        interference=InterferenceConfig(schemes=schemes, theta=theta,
                                        p_c=p_c, n_c=n_c, c_I=c_I),
    )
    return SweepSummary(config=cfg, replicates=4, coop_mean=coop_mean, coop_std=0.0,
                        cost_mean=cost_mean, cost_std=1.0, master_seed=0)


def brute_force_frontier(summaries, targets):
    """Oracle: filter, then scan every candidate for the cheapest qualifying one."""
    rows = []
    for t in targets:
        best = None
        for s in summaries:
            if s.cost_mean <= 0.0 or s.coop_mean < t:
                continue
            icfg = s.config.interference
            key = (s.cost_mean, "+".join(icfg.schemes), icfg.theta,
                   (icfg.p_c is None, icfg.p_c or 0.0),
                   (icfg.n_c is None, icfg.n_c or 0.0),
                   (icfg.c_I is None, icfg.c_I or 0.0))
            if best is None or key < best[0]:
                best = (key, s)
        rows.append(FrontierRow(target=t, summary=None if best is None else best[1]))
    return rows


class TestGraphOnce:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_each_graph_generated_once_per_sweep(self, monkeypatch, jobs):
        built = []
        real_generate = network.generate

        def counting_generate(cfg, *args, **kwargs):
            built.append(cfg.seed)
            return real_generate(cfg, *args, **kwargs)

        monkeypatch.setattr(network, "generate", counting_generate)
        cfgs = [ba_config(n=60), ba_config(n=60, interference=pop_cfg(1.0, 0.5)),
                ba_config(n=60, interference=pop_cfg(5.0, 0.8))]
        sweep(cfgs, master_seed=21, graphs=2, realisations=2, jobs=jobs)
        assert built == graph_seeds_for(21, 2)

    def test_sweeps_in_one_process_do_not_share_graphs(self):
        cfgs = [ba_config(n=60), ba_config(n=60, interference=pop_cfg(2.0, 0.7))]
        fresh_a = sweep(cfgs, master_seed=31, graphs=2, realisations=2)
        b = sweep(cfgs, master_seed=32, graphs=2, realisations=2)
        a_after_b = sweep(cfgs, master_seed=31, graphs=2, realisations=2)
        a_again = sweep(cfgs, master_seed=31, graphs=2, realisations=2)
        assert a_after_b == fresh_a
        assert a_again == fresh_a
        assert [s.coop_mean for s in b] != [s.coop_mean for s in fresh_a]


class TestEntryPoints:
    def test_every_threaded_replicate_calls_its_rule_through_dynamics(self, monkeypatch):
        # perfbench's tracer replaces dynamics' two entry points with
        # wrappers, as here: the sweep's threads reach them only if engine
        # looks them up in dynamics at each call.
        calls = {"step_deterministic": [], "step_stochastic": []}

        def counting(name, step):
            def counted(*args, **kwargs):
                calls[name].append(args[0].n)
                return step(*args, **kwargs)
            return counted

        for name in calls:
            monkeypatch.setattr(dynamics, name, counting(name, getattr(dynamics, name)))
        for update in (UpdateRuleConfig(), UpdateRuleConfig(rule=STOCHASTIC, K=0.1)):
            cfgs = [ba_config(n=60, update=update, generations=20, stats_window=5),
                    ba_config(n=60, update=update, generations=20, stats_window=5,
                              interference=pop_cfg(1.0, 0.5))]
            sweep(cfgs, master_seed=41, graphs=2, realisations=2, jobs=2)
        assert calls == {"step_deterministic": [60] * 8, "step_stochastic": [60] * 8}


class TestSweepArguments:
    @pytest.mark.parametrize("bad, name", [
        (dict(cfgs=[]), "cfgs"),
        (dict(graphs=0), "graphs"),
        (dict(realisations=0), "realisations"),
        (dict(jobs=0), "jobs"),
        (dict(jobs=-3), "jobs"),
        (dict(jobs=1.5), "jobs"),
        # All points play on the same graphs, so they must share one network.
        (dict(cfgs=[ba_config(n=60), ba_config(n=80)]), "network"),
    ], ids=["cfgs", "graphs", "realisations", "jobs-0", "jobs-negative", "jobs-float",
            "network"])
    def test_names_the_bad_argument(self, bad, name):
        args = {"cfgs": [ba_config(n=60)], "graphs": 1, "realisations": 1, **bad}
        with pytest.raises(ValueError, match=f"^{name} "):
            sweep(master_seed=1, **args)


class TestEfficiencyFrontier:
    def test_picks_cheapest_reaching_target(self):
        summaries = [
            make_summary((POP,), 1.0, 0.9, 100.0, p_c=0.5),
            make_summary((POP,), 2.0, 0.9, 80.0, p_c=0.5),
            make_summary((POP,), 3.0, 0.95, 200.0, p_c=0.5),
        ]
        rows = efficiency_frontier(summaries, [0.9])
        assert rows[0].summary.cost_mean == 80.0

    def test_unreachable_target_marked(self):
        summaries = [make_summary((POP,), 1.0, 0.9, 10.0, p_c=0.5)]
        rows = efficiency_frontier(summaries, [1.1])
        assert not reachable(rows[0])
        assert rows[0].summary is None

    def test_zero_cost_configurations_excluded(self):
        summaries = [
            make_summary((), None, 0.99, 0.0),
            make_summary((POP,), 1.0, 0.9, 10.0, p_c=0.5),
        ]
        rows = efficiency_frontier(summaries, [0.5])
        assert rows[0].summary.cost_mean == 10.0

    def test_cost_tie_breaks_lexicographically(self):
        a = make_summary((NEB,), 2.0, 0.9, 50.0, n_c=0.4)
        b = make_summary((POP,), 1.0, 0.9, 50.0, p_c=0.4)
        rows = efficiency_frontier([a, b], [0.8])
        assert rows[0].summary.config.interference.schemes == (NEB,)

    def test_matches_brute_force_on_synthetic_table(self):
        rng = np.random.default_rng(17)
        summaries = []
        for _ in range(400):
            scheme = [(POP,), (NEB,), (NI,), (NEB, NI)][rng.integers(4)]
            kwargs = {}
            if POP in scheme:
                kwargs["p_c"] = float(rng.integers(0, 5)) / 4
            if NEB in scheme:
                kwargs["n_c"] = float(rng.integers(0, 5)) / 4
            if NI in scheme:
                kwargs["c_I"] = float(rng.integers(0, 5)) / 4
            summaries.append(make_summary(
                scheme, float(rng.integers(1, 5)),
                coop_mean=float(rng.integers(0, 21)) / 20,
                cost_mean=float(rng.integers(0, 50)) * 10.0,
                **kwargs))
        targets = [0.0, 0.25, 0.5, 0.75, 0.9, 1.0, 1.5]
        assert efficiency_frontier(summaries, targets) == \
            brute_force_frontier(summaries, targets)
