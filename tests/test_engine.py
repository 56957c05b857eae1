import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, find, given, settings
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
    COOPERATE,
    DEFECT,
    accumulate_scores,
    boundary,
    connected_graphs,
    coop_fraction,
    count_neighbors,
    diameter,
    fermi_replicate,
    is_homogeneous,
    neb_eligible,
    ni_eligible,
    pop_eligible,
    reachable,
    step_deterministic,
)

C, D = COOPERATE, DEFECT


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
        g = generate(NetworkConfig(model=BA, n=100, seed=3))
        with pytest.raises(ValueError,
                           match=r"initial_coop must be a bool mask of shape \(100,\)"):
            run_simulation(ba_config(), g, initial_coop=initial)

    def test_compiled_loop_takes_only_arrays_it_can_read(self):
        # The loop reads raw buffers: a wrong dtype or a strided view is
        # refused before any pointer is passed.
        g = generate(NetworkConfig(model=BA, n=100, seed=3))
        mask, coop, invested = np.ones(g.n, bool), np.empty(30), np.zeros(30, np.int64)
        rng = np.random.default_rng(0)
        for is_coop, coop_, invested_ in ((mask.astype(np.int8), coop, invested),
                                          (mask, np.empty(60)[::2], invested),
                                          (mask, coop, np.zeros(30, np.int32))):
            with pytest.raises(ValueError, match="imitate_best needs contiguous"):
                dynamics.step_deterministic(g, is_coop, PayoffParams(), InterferenceConfig(),
                                            None, rng, coop_, invested_)
            with pytest.raises(ValueError, match="fermi needs contiguous"):
                dynamics.step_stochastic(g, is_coop, PayoffParams(), InterferenceConfig(),
                                         None, 0.1, rng, coop_, invested_)

    def test_initial_coop_is_left_unchanged(self):
        g = generate(NetworkConfig(model=BA, n=100, seed=3))
        initial = np.random.default_rng(8).integers(0, 2, g.n, dtype=np.int8) == C
        given = initial.copy()
        result = run_simulation(ba_config(), g, initial_coop=given)
        assert result.coop[1] != result.coop[0]  # agents switched
        assert np.array_equal(given, initial)

    def test_random_start_is_balanced(self):
        n = 100_000
        g = Graph.from_edges(n, np.stack([np.arange(n - 1), np.arange(1, n)], axis=1))
        result = run_simulation(ba_config(n=n, generations=1, stats_window=1, run_seed=5), g)
        assert abs(result.coop[0] - 0.5) < 0.01

    def test_all_defector_start_stays_and_costs_nothing(self):
        cfg = ba_config(interference=pop_cfg(theta=5.0, p_c=1.0))
        g = generate(NetworkConfig(model=BA, n=100, seed=3))
        result = run_simulation(cfg, g, initial_coop=np.zeros(100, dtype=bool))
        assert result.final_state == "homogeneous-D"
        assert result.total_cost == 0.0
        assert result.mean_coop == 0.0
        assert result.absorbed_at == 0

    def test_homogeneous_cooperators_freeze_with_zero_cost(self):
        # deterministic absorbing state: no further interference is paid
        cfg = ba_config(interference=pop_cfg(theta=2.0, p_c=1.0))
        g = generate(NetworkConfig(model=BA, n=100, seed=3))
        result = run_simulation(cfg, g, initial_coop=np.ones(100, dtype=bool))
        assert result.final_state == "homogeneous-C"
        assert result.total_cost == 0.0
        assert result.mean_coop == 1.0
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
            theta = 2 * 1.8 * int(g.degrees.max())
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
        # "takeover" starts mixed and reaches all-C through a large POP
        # endowment paid to every cooperator.
        cfg = ba_config(update=UpdateRuleConfig(rule=rule, K=0.1 if rule == STOCHASTIC else None),
                        interference=pop_cfg(theta=40.0, p_c=1.0),
                        generations=60, stats_window=10, run_seed=4)
        g = generate(NetworkConfig(model=BA, n=100, seed=5))
        initial = None if start == "takeover" else np.full(g.n, start == "all-C")
        result = run_simulation(cfg, g, initial_coop=initial)
        at = result.absorbed_at
        assert at is not None
        assert (at == 0) if initial is not None else (at > 0)
        frozen = result.coop[at]
        assert frozen in (0.0, 1.0)
        assert not np.isin(result.coop[:at], (0.0, 1.0)).any()
        assert np.all(result.coop[at:] == frozen)
        assert not result.invested[at:].any()
        assert not result.cost[at:].any()
        assert result.total_cost == float(sum(result.cost[:at].tolist()))
        assert result.final_state == ("homogeneous-C" if frozen else "homogeneous-D")

    @pytest.mark.parametrize("start", ["random", "all-C", "all-D"])
    def test_fermi_generation_draws_2n_uniforms(self, start):
        # Whatever the front holds, each generation played draws n uniforms
        # for the picks, then n for the copies. All-C and all-D starts
        # absorb at generation 0 and draw nothing.
        horizon = 40
        cfg = ba_config(update=UpdateRuleConfig(rule=STOCHASTIC, K=0.1),
                        interference=pop_cfg(theta=1.0, p_c=0.5),
                        generations=horizon, stats_window=10, run_seed=12)
        g = generate(NetworkConfig(model=BA, n=100, seed=5))
        initial = None if start == "random" else np.full(g.n, start == "all-C")
        rng = np.random.default_rng(cfg.run_seed)
        result = run_simulation(cfg, g, rng=rng, initial_coop=initial)
        played = horizon if initial is None else 0
        assert result.absorbed_at == (None if initial is None else 0)
        want = np.random.default_rng(cfg.run_seed)
        if initial is None:
            want.integers(0, 2, g.n, np.int8)
        for _ in range(played):
            want.random(g.n)
            want.random(g.n)
        assert rng.bit_generator.state == want.bit_generator.state

    def test_total_cost_is_theta_times_invested_sum(self):
        cfg = ba_config(interference=pop_cfg(theta=1.5, p_c=0.9), run_seed=8)
        g = generate(NetworkConfig(model=BA, n=100, seed=6))
        result = run_simulation(cfg, g)
        assert result.total_cost == pytest.approx(1.5 * result.invested.sum(), abs=1e-9)
        assert np.array_equal(result.cost, 1.5 * result.invested)

    def test_baseline_costs_nothing(self):
        cfg = ba_config()
        g = generate(NetworkConfig(model=BA, n=100, seed=7))
        result = run_simulation(cfg, g)
        assert result.total_cost == 0.0
        assert not result.invested.any()

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
    with its oracle; the Fermi oracle is also observed through the module
    functions it calls."""

    def record_run(self, monkeypatch, cfg, g):
        """cfg run under the Fermi rule, and the oracle's record of the same
        run: each generation's eligible mask, the scores scores_from_counts
        returned (and a copy of them as returned) and the nodes and scores
        the step was given. The compiled run equals the oracle's, so the
        record is the compiled run's too."""
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

        result = run_simulation(cfg, g)
        monkeypatch.setattr(conftest, "eligible_set", spy_eligible)
        monkeypatch.setattr(conftest, "scores_from_counts", spy_scores)
        monkeypatch.setattr(conftest, "step_stochastic", spy_step)
        absorbed_at, _, coop, invested = fermi_run(fermi_replicate, cfg, g)
        assert result.absorbed_at == absorbed_at
        assert np.array_equal(result.coop, coop)
        assert np.array_equal(result.invested, invested)
        return result, calls

    def test_invested_is_eligible_count_per_generation(self, monkeypatch):
        cfg = ba_config(interference=InterferenceConfig(
            schemes=(NEB, NI), theta=2.5, n_c=0.5, c_I=0.2), run_seed=3)
        g = generate(NetworkConfig(model=BA, n=100, seed=10))
        result, calls = self.record_run(monkeypatch, cfg, g)
        played = len(calls["eligible"])
        assert played > 0
        assert result.invested[:played].tolist() == \
            [int(np.count_nonzero(m)) for m in calls["eligible"]]
        assert not result.invested[played:].any()

    def test_empty_eligible_set_costs_nothing(self, monkeypatch):
        # POP at p_c = 0 pays only when there is no cooperator to pay
        cfg = ba_config(interference=pop_cfg(theta=9.0, p_c=0.0), run_seed=6)
        g = generate(NetworkConfig(model=BA, n=100, seed=12))
        result, calls = self.record_run(monkeypatch, cfg, g)
        assert calls["eligible"] and not any(m.any() for m in calls["eligible"])
        assert not result.cost.any()
        assert result.total_cost == 0.0
        for (_, before), (_, stepped) in zip(calls["scores"], calls["stepped"]):
            assert np.array_equal(stepped, before)

    def test_cost_is_theta_times_invested_exactly(self):
        rng = np.random.default_rng(4)
        for trial in range(5):
            theta = float(rng.random() * 10 + 0.1)
            cfg = ba_config(interference=pop_cfg(theta=theta, p_c=0.9), run_seed=trial)
            result = run_simulation(cfg, generate(NetworkConfig(model=BA, n=100, seed=trial)))
            assert np.array_equal(result.cost, theta * result.invested)

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
        got, want = run_simulation(cfg, g), full_recount_run(cfg, g)
        assert got.invested.any() == (icfg.p_c != 0.0)
        for name in ("coop", "invested", "cost"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

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
            n_c=float(count_neighbors(g, start)[node] / g.degrees[node]),
            c_I=float(network.degree_percentiles(g)[node]))
        cfg = RunConfig(network=NetworkConfig(model=BA, n=g.n), interference=icfg,
                        generations=1, stats_window=1)
        got = run_simulation(cfg, g, initial_coop=start)
        assert got.invested[0] >= 1
        assert got.invested[0] == full_recount_run(cfg, g, initial_coop=start).invested[0]


def classify(s):
    if not is_homogeneous(s):
        return engine.MIXED
    return engine.HOMOGENEOUS_C if s[0] == C else engine.HOMOGENEOUS_D


def full_recount_run(cfg, g, initial_coop=None, rng=None):
    """Oracle: the numpy generation loop that recounts everything from the
    strategy vector each generation, with the imitate-best step of
    conftest.step_deterministic and the Fermi probability evaluated for
    every agent. rng defaults to one seeded with cfg.run_seed."""
    if rng is None:
        rng = np.random.default_rng(cfg.run_seed)
    icfg = cfg.interference
    percentile = network.degree_percentiles(g)
    theta = icfg.theta if icfg.active else 0.0
    deterministic = cfg.update.rule == DETERMINISTIC
    horizon = cfg.horizon
    if initial_coop is not None:
        s = np.where(initial_coop, C, D).astype(np.int8)
    else:
        s = rng.integers(0, 2, g.n, dtype=np.int8)
    coop = np.empty(horizon)
    invested = np.zeros(horizon, dtype=np.int64)
    absorbed_at = None
    for gen in range(horizon):
        if is_homogeneous(s):
            absorbed_at = gen
            coop[gen:] = coop_fraction(s)
            break
        scores = accumulate_scores(g, s, cfg.payoff)
        coop[gen] = coop_fraction(s)
        if icfg.active:
            eligible = np.ones(g.n, dtype=bool)
            for scheme in icfg.schemes:
                if scheme == POP:
                    eligible &= pop_eligible(s, icfg.p_c)
                elif scheme == NEB:
                    eligible &= neb_eligible(g, s, icfg.n_c)
                else:
                    eligible &= ni_eligible(percentile, s, icfg.c_I)
            invested[gen] = np.count_nonzero(eligible)
            scores = scores + np.where(eligible, theta, 0.0)
        if deterministic:
            switched = step_deterministic(g, s, scores, rng)
            s[switched] = np.where(s[switched] == C, D, C)
        else:
            u_pick = rng.random(g.n)
            u_copy = rng.random(g.n)
            offset = np.minimum((u_pick * g.degrees).astype(np.int64), g.degrees - 1)
            neighbor = g.indices[g.indptr[:-1] + offset]
            p_copy = dynamics.fermi_probability(scores, scores[neighbor], cfg.update.K)
            s = np.where(u_copy < p_copy, s[neighbor], s).astype(np.int8)
    cost = theta * invested
    return engine.RunResult(
        coop=coop, invested=invested, cost=cost,
        total_cost=float(sum(cost.tolist())),
        mean_coop=float(coop[-cfg.stats_window:].mean()),
        absorbed_at=absorbed_at, final_state=classify(s))


def fermi_run(step, cfg, g, initial_coop=None, rng=None):
    """One Fermi replicate of cfg on g through step, dynamics.step_stochastic
    or the oracle conftest.fermi_replicate, started as run_simulation starts
    it: (absorbed_at, final cooperator mask, coop, invested). rng defaults
    to one seeded with cfg.run_seed."""
    if rng is None:
        rng = np.random.default_rng(cfg.run_seed)
    if initial_coop is None:
        is_coop = rng.integers(0, 2, g.n, dtype=np.int8).view(bool)
    else:
        is_coop = initial_coop.copy()
    icfg = cfg.interference
    percentile = network.degree_percentiles(g) if NI in icfg.schemes else None
    coop = np.empty(cfg.horizon)
    invested = np.zeros(cfg.horizon, dtype=np.int64)
    absorbed_at = step(g, is_coop, cfg.payoff, icfg, percentile, cfg.update.K, rng, coop,
                       invested)
    return absorbed_at, is_coop, coop, invested


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


class TestCarriedCounts:
    """run_simulation carries neighbor counts across generations, in both
    compiled loops; every number it reports must equal the full recount's."""

    @settings(max_examples=300, deadline=None)
    @given(case=run_cases())
    def test_matches_full_recount_loop(self, case):
        # Each side draws from its own generator, seeded alike: both must
        # leave it at the same point.
        g, cfg, initial = case
        got_rng, want_rng = (np.random.default_rng(cfg.run_seed) for _ in range(2))
        got = run_simulation(cfg, g, rng=got_rng, initial_coop=initial)
        want = full_recount_run(cfg, g, initial_coop=initial, rng=want_rng)
        for name in ("coop", "invested", "cost"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert got.total_cost == want.total_cost
        assert got.mean_coop == want.mean_coop
        assert got.absorbed_at == want.absorbed_at
        assert got.final_state == want.final_state
        assert got_rng.random() == want_rng.random()

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
        start = rng.bit_generator.state

        def generator(state):
            rng = np.random.Generator(np.random.PCG64())
            rng.bit_generator.state = state
            return rng

        def compiled(horizon):
            rng = generator(start)
            run = fermi_run(dynamics.step_stochastic, replace(cfg, generations=horizon,
                                                              stats_window=1),
                            g, initial, rng)
            return run, rng.bit_generator.state

        step = conftest.step_stochastic

        def spy_step(g, s, front, *rest):
            assert np.array_equal(front, boundary(g, s))
            return step(g, s, front, *rest)

        (absorbed_at, is_coop, _, _), state = (None, initial, None, None), start
        played = 0
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(conftest, "step_stochastic", spy_step)
            for horizon in range(1, cfg.horizon + 1):
                run, run_state = compiled(horizon)
                if run[0] is not None:
                    absorbed_at = run[0]
                    break
                played = horizon
                want = is_coop.copy()
                want_rng = generator(state)
                fermi_replicate(g, want, cfg.payoff, cfg.interference,
                                network.degree_percentiles(g), cfg.update.K, want_rng,
                                np.empty(1), np.zeros(1, dtype=np.int64))
                assert run[2][horizon - 1] == np.count_nonzero(is_coop) / g.n
                assert np.array_equal(run[1], want)
                assert np.array_equal(count_neighbors(g, run[1]), count_neighbors(g, want))
                assert want_rng.bit_generator.state == run_state
                is_coop, state = run[1], run_state
        result = run_simulation(cfg, g, rng=generator(start), initial_coop=initial)
        assert result.absorbed_at == absorbed_at
        assert played == (absorbed_at if absorbed_at is not None else cfg.horizon)

    @pytest.mark.parametrize("model, rule", [(BA, STOCHASTIC), (network.DMS, STOCHASTIC)])
    def test_update_follows_the_switchers_share(self, model, rule):
        # BA switches more agents at once than DMS: the compiled Fermi loop's
        # counts at n=2000 must still give the full recount's run.
        cfg = RunConfig(
            network=NetworkConfig(model=model, n=2000, seed=3),
            update=UpdateRuleConfig(rule=rule, K=0.1),
            interference=pop_cfg(1.0, 0.5), generations=10, stats_window=5, run_seed=4)
        g = generate(cfg.network)
        got_rng, want_rng = (np.random.default_rng(cfg.run_seed) for _ in range(2))
        result = run_simulation(cfg, g, rng=got_rng)
        want = full_recount_run(cfg, g, rng=want_rng)
        assert result.absorbed_at is None
        for name in ("coop", "invested", "cost"):
            assert np.array_equal(getattr(result, name), getattr(want, name)), name
        assert got_rng.random() == want_rng.random()


class TestOraclesStandAlone:
    """The oracles check the compiled loops only if they do not run them:
    with the library unloadable, each still pays and scores, every scheme
    active."""

    icfg = InterferenceConfig(schemes=(POP, NEB, NI), theta=1.5, p_c=0.9, n_c=0.75,
                              c_I=0.2)

    @pytest.fixture(autouse=True)
    def no_library(self, monkeypatch):
        def refuse():
            raise AssertionError("an oracle loaded the compiled loops")
        monkeypatch.setattr(_loops, "library", refuse)

    def test_full_recount_run(self):
        g = generate(NetworkConfig(model=BA, n=100, seed=10))
        for update in (UpdateRuleConfig(), UpdateRuleConfig(rule=STOCHASTIC, K=0.1)):
            result = full_recount_run(ba_config(update=update, interference=self.icfg), g)
            assert result.invested.any()

    def test_fermi_replicate(self):
        cfg = ba_config(update=UpdateRuleConfig(rule=STOCHASTIC, K=0.1),
                        interference=self.icfg)
        _, _, _, invested = fermi_run(fermi_replicate, cfg,
                                      generate(NetworkConfig(model=BA, n=100, seed=10)))
        assert invested.any()


class TestFermiLoop:
    """The compiled Fermi loop, dynamics.step_stochastic, against its numpy
    oracle, conftest.fermi_replicate."""

    @settings(max_examples=300, deadline=None)
    @given(case=run_cases(rules=(STOCHASTIC,)))
    def test_matches_the_oracle(self, case):
        g, cfg, initial = case
        got_rng, want_rng = (np.random.default_rng(cfg.run_seed) for _ in range(2))
        got = fermi_run(dynamics.step_stochastic, cfg, g, initial, got_rng)
        want = fermi_run(fermi_replicate, cfg, g, initial, want_rng)
        assert got[0] == want[0]  # absorbed_at
        for name, a, b in zip(("mask", "coop", "invested"), got[1:], want[1:]):
            assert np.array_equal(a, b), name
        assert got_rng.random() == want_rng.random()

    @settings(max_examples=150, deadline=None)
    @given(case=run_cases(rules=(STOCHASTIC,)))
    def test_a_band_of_one_sends_every_decision_to_fermi_probability(self, case):
        # Every |u - p| is at most 1: each decision calls fermi_probability
        # once, on the pair the oracle scores, in the oracle's order.
        g, cfg, initial = case
        fermi_probability = dynamics.fermi_probability
        pairs = {"got": [], "want": []}

        def recorded(side):
            def spy(f_a, f_b, K):
                pairs[side] += zip(np.atleast_1d(f_a).tolist(), np.atleast_1d(f_b).tolist())
                return fermi_probability(f_a, f_b, K)
            return spy

        got_rng, want_rng = (np.random.default_rng(cfg.run_seed) for _ in range(2))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dynamics, "_FERMI_BAND", 1.0)
            mp.setattr(dynamics, "fermi_probability", recorded("got"))
            got = fermi_run(dynamics.step_stochastic, cfg, g, initial, got_rng)
            mp.setattr(dynamics, "fermi_probability", recorded("want"))
            want = fermi_run(fermi_replicate, cfg, g, initial, want_rng)
        assert pairs["got"] == pairs["want"]
        assert got[0] == want[0]
        for name, a, b in zip(("mask", "coop", "invested"), got[1:], want[1:]):
            assert np.array_equal(a, b), name
        assert got_rng.random() == want_rng.random()

    @staticmethod
    def k_giving(p, b):
        """A K at which fermi_probability(0, b, K) is exactly p, or None. p
        falls from near 1 toward 0.5 as K grows, monotone but for rounding,
        and may step over a double: bisect, then try the 64 K on either side."""
        lo, hi = 1e-3, 1e3
        while np.nextafter(lo, hi) < hi:
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if dynamics.fermi_probability(0.0, b, mid) > p else (lo, mid)
        near = [lo, hi]
        for _ in range(64):
            near += [np.nextafter(near[-2], 0.0), np.nextafter(near[-1], np.inf)]
        return next((float(k) for k in near if dynamics.fermi_probability(0.0, b, k) == p),
                    None)

    @pytest.mark.parametrize("above", [False, True], ids=["p-equals-u", "p-one-ulp-above-u"])
    def test_a_draw_on_the_probability_is_decided_by_numpy(self, above):
        # Two agents, C then D, one generation: agent 0 copies agent 1 when
        # its copy draw u (the third) is below p = fermi_probability(0, b, K).
        # The seed and K make numpy's p u itself, or the next double above:
        # a p one ulp off numpy's decides the other way.
        b = 1.8
        for seed in itertools.count():
            u = np.random.default_rng(seed).random(3)[2]
            K = self.k_giving(np.nextafter(u, 1.0) if above else u, b) if u > 0.6 else None
            if K is not None:
                break
        # fermi_run reads the config's payoff, rule and horizon, not its
        # network: no network config has 2 nodes.
        cfg = RunConfig(network=NetworkConfig(model=BA, n=3), payoff=PayoffParams(b=b),
                        update=UpdateRuleConfig(rule=STOCHASTIC, K=K),
                        generations=1, stats_window=1, run_seed=seed)
        g, start = Graph.from_edges(2, [(0, 1)]), np.array([True, False])
        got_rng, want_rng = (np.random.default_rng(seed) for _ in range(2))
        got = fermi_run(dynamics.step_stochastic, cfg, g, start, got_rng)
        want = fermi_run(fermi_replicate, cfg, g, start, want_rng)
        assert got[1][0] == (not above)  # agent 0 turns D only when u < p
        assert np.array_equal(got[1], want[1])
        assert got_rng.random() == want_rng.random()

    def test_other_bit_generators_are_rejected(self):
        cfg = replace(ba_config(n=30), update=UpdateRuleConfig(rule=STOCHASTIC, K=0.1))
        g = generate(NetworkConfig(model=BA, n=30, seed=1))
        for rule in (cfg.update, UpdateRuleConfig()):
            rng = np.random.Generator(np.random.MT19937(1))
            with pytest.raises(ValueError, match="MT19937"):
                run_simulation(replace(cfg, update=rule), g, rng=rng)
            # Refused before the initial draw: the generator has not moved.
            assert rng.random() == np.random.Generator(np.random.MT19937(1)).random()
        # The loops themselves refuse it too, before reading its state.
        with pytest.raises(ValueError, match="MT19937"):
            dynamics.step_stochastic(g, np.ones(g.n, dtype=bool), PayoffParams(),
                                     InterferenceConfig(), None, 0.1, rng, np.empty(5),
                                     np.zeros(5, dtype=np.int64))


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


def run_and_next_draw(cfg, g, initial):
    rng = np.random.default_rng(cfg.run_seed)
    return run_simulation(cfg, g, rng=rng, initial_coop=initial), rng.random()


class TestThetaLattice:
    """Under imitate-best the endowment theta is a step function of the run:
    inside one open interval of its lattice, only the cost moves."""

    @settings(max_examples=300, deadline=None)
    @given(case=theta_cases())
    def test_theta_inside_an_interval_changes_only_the_cost(self, case):
        g, cfg, initial, (theta_a, theta_b), _ = case
        (a, draw_a), (b, draw_b) = (run_and_next_draw(with_theta(cfg, theta), g, initial)
                                    for theta in (theta_a, theta_b))
        assert np.array_equal(a.coop, b.coop)
        assert np.array_equal(a.invested, b.invested)
        assert a.absorbed_at == b.absorbed_at
        assert draw_a == draw_b
        assert np.allclose(a.cost * theta_b, b.cost * theta_a, rtol=1e-12, atol=0.0)
        assert a.total_cost * theta_b == pytest.approx(b.total_cost * theta_a, rel=1e-12)
        # A run that pays nobody is the run without interference.
        if not a.invested.any():
            base, draw_base = run_and_next_draw(
                replace(cfg, interference=InterferenceConfig()), g, initial)
            assert np.array_equal(a.coop, base.coop)
            assert draw_a == draw_base

    def test_theta_across_a_breakpoint_can_change_the_run(self):
        # The property above can fail: in some generated case, theta in the
        # next interval runs differently.
        def differs(case):
            g, cfg, initial, (theta, _), theta_next = case
            (a, draw_a), (b, draw_b) = (run_and_next_draw(with_theta(cfg, t), g, initial)
                                        for t in (theta, theta_next))
            return not np.array_equal(a.coop, b.coop) or draw_a != draw_b
        find(theta_cases(), differs,
             settings=settings(max_examples=300, database=None, derandomize=True))


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

        def recording_run(run_cfg, g, *args, **kwargs):
            used.append(run_cfg.run_seed)
            return real_run(run_cfg, g, *args, **kwargs)

        monkeypatch.setattr(engine, "run_simulation", recording_run)
        sweep([cfg], master_seed=9, graphs=1, realisations=8)
        assert used == [derive_seed(9, 1, 0, 0, r) for r in range(8)]
        assert len(set(used)) == 8

    def test_parallel_jobs_do_not_change_results(self):
        cfg = ba_config(n=60, interference=pop_cfg(theta=2.0, p_c=0.7))
        serial = sweep([cfg], master_seed=13, graphs=2, realisations=2, jobs=1)
        parallel = sweep([cfg], master_seed=13, graphs=2, realisations=2, jobs=4)
        assert serial == parallel

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
            # graph-major, as the sweep reduces them
            results = [run_simulation(RunConfig(**{**cfg.__dict__, "run_seed": rseed}), g)
                       for g_idx, g in enumerate(graphs)
                       for rseed in (derive_seed(17, 1, p_idx, g_idx, r) for r in range(3))]
            coop = np.array([r.mean_coop for r in results])
            cost = np.array([r.total_cost for r in results])
            assert summary.config == cfg
            assert summary.replicates == 6
            assert (summary.coop_mean, summary.coop_std) == (coop.mean(), np.std(coop, ddof=1))
            assert (summary.cost_mean, summary.cost_std) == (cost.mean(), np.std(cost, ddof=1))

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
    def test_each_graph_generated_once_per_sweep(self, monkeypatch):
        built = []
        real_generate = network.generate

        def counting_generate(cfg, *args, **kwargs):
            built.append(cfg.seed)
            return real_generate(cfg, *args, **kwargs)

        monkeypatch.setattr(network, "generate", counting_generate)
        cfgs = [ba_config(n=60), ba_config(n=60, interference=pop_cfg(1.0, 0.5)),
                ba_config(n=60, interference=pop_cfg(5.0, 0.8))]
        sweep(cfgs, master_seed=21, graphs=2, realisations=2, jobs=1)
        assert built == graph_seeds_for(21, 2)

    def test_memo_never_serves_another_sweeps_graph(self):
        cfgs = [ba_config(n=60), ba_config(n=60, interference=pop_cfg(2.0, 0.7))]
        fresh_a = sweep(cfgs, master_seed=31, graphs=2, realisations=2)
        b = sweep(cfgs, master_seed=32, graphs=2, realisations=2)
        a_after_b = sweep(cfgs, master_seed=31, graphs=2, realisations=2)
        a_again = sweep(cfgs, master_seed=31, graphs=2, realisations=2)
        assert a_after_b == fresh_a
        assert a_again == fresh_a
        assert [s.coop_mean for s in b] != [s.coop_mean for s in fresh_a]


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
