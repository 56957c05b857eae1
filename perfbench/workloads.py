"""The benchmark's workloads: a `coopsim sweep` config plus a `--jobs` value.

The workload seed becomes the sweep's master_seed; nothing else about the
inputs depends on it. Workloads that share `inputs` must write identical
bytes, because `--jobs` only parallelises independent replicates.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

DEFAULT_SEED = 20230116
FRONTIER_TARGETS = "0.5,0.75,0.9"

# BA, deterministic imitate-best: the criterion-6 regime. The grid is the
# baseline, POP theta x p_c and NEB+NI theta x n_c, so every grid point
# rebuilds the same graphs and most time goes to the imitate-best step.
_DET_GRID = {
    "network": {"model": "BA", "n": 2000},
    "payoff": {"b": 1.8},
    "update": {"rule": "deterministic"},
    "generations": 75,
    "graphs": 2,
    "realisations": 3,
    "grid": [
        {"schemes": []},
        {"schemes": ["POP"], "theta": [1, 5], "p_c": [0.5, 0.8]},
        {"schemes": ["NEB", "NI"], "theta": [1, 5], "n_c": [0.25, 0.5], "c_I": 0.05},
    ],
}

# DMS (high clustering), Fermi rule over the full 500-generation horizon:
# no run absorbs early, graph building is a few percent of the time, and
# scoring, the Fermi step and eligibility dominate.
_STOCH_LONG = {
    "network": {"model": "DMS", "n": 5000},
    "payoff": {"b": 1.8},
    "update": {"rule": "stochastic", "K": 0.1},
    "generations": 500,
    "graphs": 1,
    "realisations": 3,
    "grid": [
        {"schemes": []},
        {"schemes": ["NEB"], "theta": 1, "n_c": 0.5},
        {"schemes": ["POP", "NI"], "theta": 2, "p_c": 0.5, "c_I": 0.9},
    ],
}

# Why so few replicates: on a shared 2-core VM the speed of identical
# consecutive executions varies by about 20%, so the median of a dozen
# 2 s executions per run is steadier than that of three 8 s ones. At
# 6 x 3 (det-grid) and 2 x 5 (stoch-long) replicates, seed 20230116 gives
# sweep CSVs beginning d63390b8dcf5 and c423fc8b02e1.
INPUTS = {"det-grid": _DET_GRID, "stoch-long": _STOCH_LONG}

# Same grids on small graphs and short horizons, for the benchmark's own tests.
_TINY = {
    "det-grid": {"n": 120, "generations": 15, "stats_window": 5, "graphs": 2,
                 "realisations": 2},
    "stoch-long": {"n": 150, "generations": 20, "stats_window": 5, "graphs": 2,
                   "realisations": 2},
}


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: str
    jobs: int

    @property
    def reference_jobs(self) -> int:
        """The other job count, whose bytes this workload's must equal."""
        return 2 if self.jobs == 1 else 1


WORKLOADS = {w.name: w for w in (
    Workload("det-grid", "det-grid", 1),
    Workload("stoch-long", "stoch-long", 1),
    # Same inputs as det-grid: the only workload where the process pool,
    # task pickling and load balancing are on the measured path.
    Workload("det-grid-j2", "det-grid", 2),
)}


def sweep_config(workload: Workload, seed: int, tiny: bool = False) -> dict:
    """The sweep config the CLI reads for this workload and seed."""
    config = copy.deepcopy(INPUTS[workload.inputs])
    if tiny:
        scale = _TINY[workload.inputs]
        config["network"]["n"] = scale["n"]
        for key in ("generations", "stats_window", "graphs", "realisations"):
            config[key] = scale[key]
    config["master_seed"] = seed
    return config


def grid_points(config: dict) -> int:
    """Number of parameter points the grid expands to."""
    points = 0
    for group in config["grid"]:
        size = 1
        for key in ("theta", "p_c", "n_c", "c_I"):
            value = group.get(key)
            if isinstance(value, list):
                size *= len(value)
        points += size
    return points


def replicates(config: dict) -> int:
    return grid_points(config) * config["graphs"] * config["realisations"]
