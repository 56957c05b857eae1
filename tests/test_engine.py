import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopsim import dynamics, engine, game, interference, network
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

from conftest import (
    COOPERATE,
    DEFECT,
    accumulate_scores,
    boundary,
    connected_graphs,
    coop_fraction,
    diameter,
    is_homogeneous,
    neb_eligible,
    ni_eligible,
    pop_eligible,
    reachable,
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
    """Per-generation investment bookkeeping, observed through the module
    functions run_simulation calls."""

    def record_run(self, monkeypatch, cfg, g):
        calls = {"eligible": [], "scores": [], "stepped": []}
        eligible_set, scores_from_counts, step = (interference.eligible_set,
                                                  game.scores_from_counts,
                                                  dynamics.step_deterministic)

        def spy_eligible(*args):
            mask = eligible_set(*args)
            calls["eligible"].append(mask.copy())
            return mask

        def spy_scores(*args):
            scores = scores_from_counts(*args)
            calls["scores"].append((scores, scores.copy()))
            return scores

        def spy_step(g, s, scores, *rest):
            calls["stepped"].append(scores.copy())
            return step(g, s, scores, *rest)

        monkeypatch.setattr(interference, "eligible_set", spy_eligible)
        monkeypatch.setattr(game, "scores_from_counts", spy_scores)
        monkeypatch.setattr(dynamics, "step_deterministic", spy_step)
        return run_simulation(cfg, g), calls

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
        for (_, before), stepped in zip(calls["scores"], calls["stepped"]):
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
        for (scores, before), mask, stepped in zip(calls["scores"], calls["eligible"],
                                                   calls["stepped"]):
            assert np.array_equal(scores, before)  # input scores left unchanged
            assert np.array_equal(stepped, before + np.where(mask, theta, 0.0))


def classify(s):
    if not is_homogeneous(s):
        return engine.MIXED
    return engine.HOMOGENEOUS_C if s[0] == C else engine.HOMOGENEOUS_D


def full_recount_run(cfg, g, initial_coop=None):
    """Oracle: the generation loop that recounts everything from the strategy
    vector each generation, with the Fermi probability evaluated for every
    agent."""
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
            switched = dynamics.step_deterministic(g, s, scores, rng)
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


@st.composite
def run_cases(draw):
    """A graph, a run config over it (either rule, any scheme combination)
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
    rule = draw(st.sampled_from([DETERMINISTIC, STOCHASTIC]))
    generations = draw(st.integers(1, 30))
    cfg = RunConfig(
        network=NetworkConfig(model=BA, n=g.n),
        payoff=PayoffParams(b=draw(st.sampled_from([1.5, 2.0]) | st.floats(1.01, 2.0))),
        update=UpdateRuleConfig(rule=rule, K=draw(st.sampled_from([0.1, 1.0]))
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
    """run_simulation carries neighbor counts across generations; every
    number it reports must equal the full recount's."""

    @settings(max_examples=300, deadline=None)
    @given(case=run_cases())
    def test_matches_full_recount_loop(self, case):
        g, cfg, initial = case
        got = run_simulation(cfg, g, initial_coop=initial)
        want = full_recount_run(cfg, g, initial_coop=initial)
        for name in ("coop", "invested", "cost"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert got.total_cost == want.total_cost
        assert got.mean_coop == want.mean_coop
        assert got.absorbed_at == want.absorbed_at
        assert got.final_state == want.final_state

    @settings(max_examples=150, deadline=None)
    @given(case=run_cases())
    def test_carried_counts_equal_a_fresh_count(self, case):
        g, cfg, initial = case
        carried, record, seen = [], [], []
        count_neighbors = Graph.count_neighbors
        step_deterministic, step_stochastic = (dynamics.step_deterministic,
                                               dynamics.step_stochastic)

        def spy_count(graph, mask):
            # The run counts from the cooperator mask it carries: at the
            # start, and again in place of the scatter in a generation
            # whose switchers touch many CSR entries. Each count replaces
            # the carried counts, which the scatter updates in place. The
            # record is kept apart: a copy of the initial mask, flipped at
            # the agents each step returns as switching.
            nc = count_neighbors(graph, mask)
            carried[:] = [mask, nc]
            if not record:
                record.append(mask.copy())
            return nc

        def check(g, s):
            is_coop, nc = carried
            want = record[0]
            assert s is is_coop
            assert np.array_equal(is_coop, want)
            assert np.array_equal(nc, count_neighbors(g, want))
            seen.append(want.copy())

        def flip(switched):
            want = record[0]
            want[switched] = ~want[switched]
            return switched

        def spy_deterministic(g, s, *rest):
            check(g, s)
            return flip(step_deterministic(g, s, *rest))

        def spy_stochastic(g, s, front, *rest):
            check(g, s)
            assert np.array_equal(front, boundary(g, record[0]))
            return flip(step_stochastic(g, s, front, *rest))

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Graph, "count_neighbors", spy_count)
            mp.setattr(dynamics, "step_deterministic", spy_deterministic)
            mp.setattr(dynamics, "step_stochastic", spy_stochastic)
            result = run_simulation(cfg, g, initial_coop=initial)
        played = len(seen)
        assert played == (result.absorbed_at if result.absorbed_at is not None
                          else cfg.horizon)
        for gen, is_coop in enumerate(seen):
            assert result.coop[gen] == np.count_nonzero(is_coop) / g.n


    @pytest.mark.parametrize("model, rule", [(BA, DETERMINISTIC), (network.DMS, STOCHASTIC)])
    def test_update_follows_the_switchers_share(self, model, rule):
        cfg = RunConfig(
            network=NetworkConfig(model=model, n=2000, seed=3),
            update=UpdateRuleConfig(rule=rule, K=0.1 if rule == STOCHASTIC else None),
            interference=pop_cfg(1.0, 0.5), generations=10, stats_window=5, run_seed=4)
        g = generate(cfg.network)
        calls = {"count_neighbors": 0, "neighbors_of": 0}

        def spy(name):
            method = getattr(Graph, name)

            def counted(graph, arg):
                calls[name] += 1
                return method(graph, arg)
            return counted

        with pytest.MonkeyPatch.context() as mp:
            for name in calls:
                mp.setattr(Graph, name, spy(name))
            result = run_simulation(cfg, g)
        assert result.absorbed_at is None
        # One count at the start, then one update per generation: a recount
        # or a scatter over the switchers' neighbor lists.
        recounted, scattered = calls["count_neighbors"] - 1, calls["neighbors_of"]
        assert recounted + scattered == cfg.horizon
        if rule == DETERMINISTIC:
            # Imitate-best on BA switches many agents at once: in such a
            # generation their neighbor lists cover many CSR entries, and
            # the counts are recounted.
            assert recounted > 0
        else:
            # Only the Fermi front can switch, and once the random start has
            # sorted itself out few of it do: the counts are scattered.
            assert recounted <= 1 and scattered >= cfg.horizon - 1


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
