"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. The slow qualitative reproductions (criteria 6 and 7) sit at the
end; the whole suite finishes in a few minutes on a laptop-class machine.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from coopsim.cli import main
from coopsim.dynamics import DETERMINISTIC, STOCHASTIC, UpdateRuleConfig
from coopsim.engine import (
    RunConfig,
    SweepSummary,
    derive_seed,
    efficiency_frontier,
    graph_seeds_for,
    run_simulation,
    sweep,
)
from coopsim.game import PayoffParams
from coopsim.interference import (
    NEB,
    NI,
    POP,
    InterferenceConfig,
)
from coopsim.network import (
    BA,
    DMS,
    NetworkConfig,
    generate,
)

from conftest import (
    COOPERATE,
    DEFECT,
    accumulate_scores,
    degree_percentiles,
    diameter,
    fermi_probability,
    fit_degree_exponent,
    global_transitivity,
    matches_the_oracle,
    neb_eligible,
    neighbors,
    ni_eligible,
    node_degrees,
    pairwise_payoff,
    pop_eligible,
    random_connected_graph,
)

C, D = COOPERATE, DEFECT


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {name}: {status}{suffix}")


class TestCriterion1:
    def test_payoff_oracle_equivalence(self):
        start = time.perf_counter()
        rng = np.random.default_rng(1001)
        mismatches = 0
        for trial in range(100):
            n = int(rng.integers(5, 51))
            g = random_connected_graph(n, rng)
            s = rng.integers(0, 2, n, dtype=np.int8)
            p = PayoffParams(b=[1.2, 1.8, 2.0][trial % 3])
            fast = accumulate_scores(g, s, p)
            oracle = np.array([
                math.fsum(pairwise_payoff(s[i], s[j], p) for j in neighbors(g, i))
                for i in range(n)
            ])
            mismatches += not np.array_equal(fast, oracle)
        elapsed = time.perf_counter() - start
        ok = mismatches == 0 and elapsed < 5.0
        report(1, "payoff oracle equivalence", ok,
               f"{mismatches} mismatches, {elapsed:.2f}s")
        assert mismatches == 0
        assert elapsed < 5.0


class TestCriterion2:
    def test_fermi_identities(self):
        start = time.perf_counter()
        rng = np.random.default_rng(1002)
        f_a = rng.normal(0, 100, 10_000)
        f_b = rng.normal(0, 100, 10_000)
        K = 10.0 ** rng.uniform(-2, 2, 10_000)

        complement = fermi_probability(f_a, f_b, K) + fermi_probability(f_b, f_a, K)
        complement_ok = bool(np.all(np.abs(complement - 1.0) < 1e-12))

        half_ok = all(fermi_probability(f, f, k) == 0.5
                      for f, k in zip(f_a[:100], K[:100]))

        gaps = np.sort(f_b - f_a)
        mono_ok = bool(np.all(np.diff(fermi_probability(0.0, gaps, 0.1)) >= 0))

        elapsed = time.perf_counter() - start
        ok = complement_ok and half_ok and mono_ok and elapsed < 1.0
        report(2, "Fermi identities", ok, f"{elapsed:.2f}s")
        assert complement_ok
        assert half_ok
        assert mono_ok
        assert elapsed < 1.0


class TestCriterion3:
    def test_network_structure(self):
        start = time.perf_counter()
        ba, dms = [], []
        for seed in range(10):
            ba.append(generate(NetworkConfig(model=BA, n=2000, seed=3000 + seed)))
            dms.append(generate(NetworkConfig(model=DMS, n=2000, seed=4000 + seed)))

        degs_ok = all(3.9 <= g.average_degree <= 4.0 for g in ba + dms)
        ba_trans = np.mean([global_transitivity(g) for g in ba])
        dms_trans = np.mean([global_transitivity(g) for g in dms])
        trans_ok = dms_trans >= 5 * ba_trans
        # fit above the attachment scale 2m to skip the non-power-law head
        exponent = fit_degree_exponent(np.concatenate([node_degrees(g) for g in ba]), k_min=4)
        exp_ok = 2.5 <= exponent <= 3.5

        elapsed = time.perf_counter() - start
        ok = degs_ok and trans_ok and exp_ok and elapsed < 30.0
        report(3, "network structure", ok,
               f"transitivity DMS/BA={dms_trans / ba_trans:.1f}x, "
               f"exponent={exponent:.2f}, {elapsed:.1f}s")
        assert degs_ok
        assert trans_ok
        assert exp_ok
        assert elapsed < 30.0


class TestCriterion4:
    def test_homogeneous_states_absorb_under_every_scheme(self):
        start = time.perf_counter()
        schemes = [
            InterferenceConfig(schemes=(POP,), theta=5.0, p_c=1.0),
            InterferenceConfig(schemes=(NEB,), theta=5.0, n_c=1.0),
            InterferenceConfig(schemes=(NI,), theta=5.0, c_I=0.0),
            InterferenceConfig(schemes=(NEB, NI), theta=5.0, n_c=1.0, c_I=0.05),
        ]
        failures = 0
        runs = 0
        for run_idx in range(100):
            icfg = schemes[run_idx % 4]
            strat = C if (run_idx // 4) % 2 == 0 else D
            net = NetworkConfig(model=BA if run_idx % 2 else DMS, n=100,
                                seed=run_idx)
            cfg = RunConfig(network=net, update=UpdateRuleConfig(rule=DETERMINISTIC),
                            interference=icfg, generations=75, stats_window=25,
                            run_seed=run_idx)
            result, final, _ = matches_the_oracle(cfg, generate(net), np.full(100, strat == C))
            runs += 1
            unchanged = all(c == float(strat) for c in result.coop) and np.all(final == strat)
            if not unchanged or result.invested.any() or len(result.coop) != 75:
                failures += 1
        elapsed = time.perf_counter() - start
        ok = failures == 0 and elapsed < 10.0
        report(4, "homogeneous absorption", ok, f"{runs} runs, {elapsed:.1f}s")
        assert failures == 0
        assert elapsed < 10.0


class TestCriterion5:
    def test_guaranteed_takeover(self):
        start = time.perf_counter()
        master = 1005
        failures = []
        for g_idx, gseed in enumerate(graph_seeds_for(master, 10)):
            net = NetworkConfig(model=BA, n=500, seed=gseed)
            g = generate(net)
            theta = 2 * 1.8 * float(max(node_degrees(g)))
            bound = diameter(g) + 2
            cfg = RunConfig(network=net, payoff=PayoffParams(b=1.8),
                            update=UpdateRuleConfig(rule=DETERMINISTIC),
                            interference=InterferenceConfig(schemes=(POP,),
                                                            theta=theta, p_c=1.0),
                            generations=75, stats_window=25)
            for r_idx in range(3):
                rseed = derive_seed(master, 1, 0, g_idx, r_idx)
                result = run_simulation(replace(cfg, run_seed=rseed), g)
                if result.coop[0] == 0.0:
                    continue  # no initial cooperator: nothing to spread
                if result.final_state != "homogeneous-C" or \
                        result.absorbed_at is None or result.absorbed_at > bound:
                    failures.append((gseed, rseed))
        elapsed = time.perf_counter() - start
        ok = not failures and elapsed < 30.0
        report(5, "guaranteed takeover", ok, f"30 replicates, {elapsed:.1f}s")
        assert not failures
        assert elapsed < 30.0


class TestCriterion8:
    def test_frontier_equals_brute_force(self):
        start = time.perf_counter()
        rng = np.random.default_rng(1008)
        summaries = []
        for _ in range(1000):
            schemes = [(POP,), (NEB,), (NI,), (NEB, NI), (POP, NEB)][rng.integers(5)]
            kwargs = {}
            if POP in schemes:
                kwargs["p_c"] = float(rng.integers(0, 5)) / 4
            if NEB in schemes:
                kwargs["n_c"] = float(rng.integers(0, 5)) / 4
            if NI in schemes:
                kwargs["c_I"] = float(rng.integers(0, 5)) / 4
            cfg = RunConfig(
                network=NetworkConfig(model=BA, n=100),
                interference=InterferenceConfig(
                    schemes=schemes, theta=float(rng.integers(1, 6)), **kwargs))
            summaries.append(SweepSummary(
                config=cfg, replicates=4,
                coop_mean=float(rng.integers(0, 21)) / 20, coop_std=0.0,
                cost_mean=float(rng.integers(0, 40)) * 5.0, cost_std=0.0,
                master_seed=0))

        targets = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0, 1.1]
        rows = efficiency_frontier(summaries, targets)

        # oracle: full scan with explicit lexicographic tie-break
        def key(s):
            icfg = s.config.interference
            return (s.cost_mean, "+".join(icfg.schemes), icfg.theta,
                    (icfg.p_c is None, icfg.p_c or 0.0),
                    (icfg.n_c is None, icfg.n_c or 0.0),
                    (icfg.c_I is None, icfg.c_I or 0.0))

        mismatch = 0
        for target, row in zip(targets, rows):
            best = None
            for s in summaries:
                if s.cost_mean <= 0.0 or s.coop_mean < target:
                    continue
                if best is None or key(s) < key(best):
                    best = s
            if (row.summary is None) != (best is None) or \
                    (best is not None and row.summary is not best):
                mismatch += 1
        elapsed = time.perf_counter() - start
        ok = mismatch == 0 and elapsed < 1.0
        report(8, "frontier correctness", ok,
               f"1000 points, {len(targets)} targets, {elapsed:.2f}s")
        assert mismatch == 0
        assert elapsed < 1.0


class TestCriterion9:
    def test_sweep_reproducibility_across_jobs(self, tmp_path):
        config = {
            "network": {"model": "BA", "n": 200},
            "payoff": {"b": 1.8},
            "update": {"rule": "deterministic"},
            "generations": 40,
            "stats_window": 20,
            "graphs": 3,
            "realisations": 4,
            "master_seed": 1009,
            "grid": [
                {"schemes": []},
                {"schemes": ["POP"], "theta": [1.0, 5.0], "p_c": [0.5, 1.0]},
                {"schemes": ["NEB"], "theta": 2.0, "n_c": [0.25, 0.75]},
            ],
        }
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(config))
        outputs = []
        for jobs in (1, 8, 1):
            out = tmp_path / f"sweep-{len(outputs)}.csv"
            rc = main(["sweep", "--config", str(cfg_path), "--out", str(out),
                       "--jobs", str(jobs)])
            assert rc == 0
            outputs.append(out.read_bytes())
        ok = outputs[0] == outputs[1] == outputs[2]
        report(9, "sweep reproducibility", ok,
               f"{len(outputs[0])} bytes, jobs 1 vs 8 vs 1")
        assert ok

    def test_engine_level_repeatability(self):
        cfg = RunConfig(network=NetworkConfig(model=DMS, n=150),
                        update=UpdateRuleConfig(rule=STOCHASTIC, K=0.1),
                        interference=InterferenceConfig(schemes=(NI,), theta=2.0,
                                                        c_I=0.5),
                        generations=60, stats_window=25)
        a = sweep([cfg], master_seed=77, graphs=2, realisations=3)[0]
        b = sweep([cfg], master_seed=77, graphs=2, realisations=3)[0]
        assert a == b


class TestCriterion10:
    def test_threshold_monotonicity(self):
        start = time.perf_counter()
        rng = np.random.default_rng(1010)
        violations = 0
        for _ in range(1000):
            g = random_connected_graph(int(rng.integers(5, 40)), rng)
            s = rng.integers(0, 2, g.n).astype(np.int8)
            metrics = degree_percentiles(g)
            lo, hi = sorted(rng.random(2))
            if np.any(pop_eligible(s, lo) & ~pop_eligible(s, hi)):
                violations += 1
            if np.any(neb_eligible(g, s, lo) & ~neb_eligible(g, s, hi)):
                violations += 1
            if np.any(ni_eligible(metrics, s, hi) & ~ni_eligible(metrics, s, lo)):
                violations += 1
        elapsed = time.perf_counter() - start
        ok = violations == 0 and elapsed < 5.0
        report(10, "threshold monotonicity", ok,
               f"1000 states, {elapsed:.1f}s")
        assert violations == 0
        assert elapsed < 5.0


class TestCriterion6:
    def test_cyclic_exploitation_regime(self):
        start = time.perf_counter()
        master = 1006
        base_net = NetworkConfig(model=BA, n=2000)
        update = UpdateRuleConfig(rule=DETERMINISTIC)
        pop_cfg = RunConfig(
            network=base_net, payoff=PayoffParams(b=1.8), update=update,
            interference=InterferenceConfig(schemes=(POP,), theta=5.0, p_c=0.8),
            generations=75, stats_window=25)

        oscillating = 0
        coop_values = []
        for g_idx, gseed in enumerate(graph_seeds_for(master, 10)):
            g = generate(replace(base_net, seed=gseed))
            for r_idx in range(6):
                rseed = derive_seed(master, 1, 0, g_idx, r_idx)
                result = run_simulation(replace(pop_cfg, run_seed=rseed), g)
                coop_values.append(result.mean_coop)
                tail = result.coop[-25:]
                if result.final_state == "mixed" and max(tail) - min(tail) > 0.02:
                    oscillating += 1

        baseline = sweep(
            [RunConfig(network=base_net, payoff=PayoffParams(b=1.8), update=update,
                       generations=75, stats_window=25)],
            master_seed=master, graphs=10, realisations=6)[0]

        scheme_defection = 1.0 - float(np.mean(coop_values))
        baseline_defection = 1.0 - baseline.coop_mean
        osc_ok = oscillating >= 1
        no_help_ok = scheme_defection >= baseline_defection - 0.02
        elapsed = time.perf_counter() - start
        ok = osc_ok and no_help_ok and elapsed < 300.0
        report(6, "cyclic exploitation regime", ok,
               f"oscillating={oscillating}/60, scheme defection="
               f"{scheme_defection:.3f}, baseline defection="
               f"{baseline_defection:.3f}, {elapsed:.0f}s")
        assert elapsed < 300.0
        assert osc_ok
        # Known red at this population size: the deterministic baseline is
        # heavily defecting here (coop ~0.32 at n=2000, baseline defection
        # 0.683 in this test's own report; ~0.35 at n=5000 in a 4 x 4 probe
        # at master seed 1006), so this POP point improves mean cooperation
        # by ~0.2 instead of matching the baseline. The cyclic-exploitation
        # signature asserted above does reproduce; the no-gain bound does not.
        assert no_help_ok


class TestCriterion7:
    def test_stochastic_baseline_clustering_gap(self):
        start = time.perf_counter()
        master = 1007
        update = UpdateRuleConfig(rule=STOCHASTIC, K=0.1)
        coop = {}
        for model in (DMS, BA):
            cfg = RunConfig(network=NetworkConfig(model=model, n=1000),
                            payoff=PayoffParams(b=1.8), update=update,
                            generations=500, stats_window=25)
            coop[model] = sweep([cfg], master_seed=master,
                                graphs=10, realisations=6)[0].coop_mean
        gap = coop[DMS] - coop[BA]
        elapsed = time.perf_counter() - start
        ok = gap >= 0.05 and elapsed < 600.0
        report(7, "stochastic baseline clustering gap", ok,
               f"DMS={coop[DMS]:.3f}, BA={coop[BA]:.3f}, gap={gap:.3f}, "
               f"{elapsed:.0f}s")
        assert gap >= 0.05
        assert elapsed < 600.0
