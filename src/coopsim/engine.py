"""Replicate orchestration: single runs, sweeps of replicated parameter
points, and cost-efficiency frontier extraction.

A parameter point is evaluated on several independently seeded graphs with
several realisations each (defaults follow the 10 x 30 protocol). All seeds
descend from one master seed through a counter-based split, and results are
reduced in a fixed order, so repeated invocations and any degree of worker
parallelism produce identical output.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np

from . import dynamics, game, interference, network
from .dynamics import DETERMINISTIC, UpdateRuleConfig
from .game import PayoffParams
from .interference import InterferenceConfig
from .network import Graph, NetworkConfig

DEFAULT_GRAPHS = 10
DEFAULT_REALISATIONS = 30

# Horizons per update rule; deterministic runs converge much faster.
DEFAULT_GENERATIONS = {dynamics.DETERMINISTIC: 75, dynamics.STOCHASTIC: 500}
DEFAULT_STATS_WINDOW = 25

HOMOGENEOUS_C = "homogeneous-C"
HOMOGENEOUS_D = "homogeneous-D"
MIXED = "mixed"

# Indexed by the cooperator flag (False, True): the change a switch to that
# strategy makes to each neighbor's cooperating-neighbor count.
_SIGN = np.array([-1.0, 1.0])

# The process pool class, imported by sweep on first use: a run that never
# needs a pool never loads multiprocessing. A class assigned here first is
# the one sweep uses.
ProcessPoolExecutor = None

# Stream tags for the counter-based seed split.
_GRAPH_STREAM = 0
_RUN_STREAM = 1


def derive_seed(master_seed: int, *path: int) -> int:
    """Deterministic 64-bit child seed for a (stream, counter...) path."""
    state = np.random.SeedSequence([master_seed, *path]).generate_state(2, np.uint32)
    return int(state[0]) << 32 | int(state[1])


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce one replicate.

    generations defaults by update rule (75 deterministic, 500 stochastic).
    """

    network: NetworkConfig
    payoff: PayoffParams = field(default_factory=PayoffParams)
    update: UpdateRuleConfig = field(default_factory=UpdateRuleConfig)
    interference: InterferenceConfig = field(default_factory=InterferenceConfig)
    generations: int | None = None
    stats_window: int = DEFAULT_STATS_WINDOW
    run_seed: int = 0

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError(f"generations must be >= 1, got {self.horizon}")
        if self.stats_window < 1:
            raise ValueError(f"stats_window must be >= 1, got {self.stats_window}")
        if self.stats_window > self.horizon:
            raise ValueError(
                f"stats_window {self.stats_window} exceeds horizon {self.horizon}")
        if self.run_seed < 0:
            raise ValueError(f"run_seed must be >= 0, got {self.run_seed}")

    @property
    def horizon(self) -> int:
        if self.generations is not None:
            return self.generations
        return DEFAULT_GENERATIONS[self.update.rule]


@dataclass(frozen=True)
class RunResult:
    """One replicate. coop, invested and cost span the full horizon and are
    measured each generation before the strategy update."""

    coop: np.ndarray
    invested: np.ndarray
    cost: np.ndarray
    total_cost: float
    mean_coop: float
    absorbed_at: int | None
    final_state: str


def _classify(n_coop: int, n: int) -> str:
    if n_coop == n:
        return HOMOGENEOUS_C
    return HOMOGENEOUS_D if n_coop == 0 else MIXED


def run_simulation(cfg: RunConfig, g: Graph,
                   rng: np.random.Generator | None = None,
                   initial_coop: np.ndarray | None = None) -> RunResult:
    """Simulate one replicate on a prepared graph.

    Each agent starts C or D with equal probability, or as the cooperator
    mask initial_coop says when it is given: a bool array of shape (n,),
    which the run copies and leaves unchanged. Any other dtype or shape is
    a ValueError. Each generation: payoffs are accumulated, interference
    conditions checked and endowments added, then all strategies update
    synchronously. Under either rule a homogeneous population absorbs:
    neither rule can leave it (both copy a neighbor, without mutation), so
    the run stops, pays no further endowment and draws nothing more; the
    frozen state fills the rest of the trace so it always spans the full
    horizon. mean_coop averages the trailing stats_window generations.

    After the initial draw, an imitate-best run is one compiled call,
    dynamics.step_deterministic; a Fermi run is the numpy loop of
    _run_fermi. Both draw from rng and from nothing else.
    """
    if g.n != cfg.network.n:
        raise ValueError(f"graph has {g.n} nodes, config expects {cfg.network.n}")
    if rng is None:
        rng = np.random.default_rng(cfg.run_seed)

    icfg = cfg.interference
    percentile = network.degree_percentiles(g) if interference.NI in icfg.schemes else None
    theta = icfg.theta if icfg.active else 0.0
    if initial_coop is None:
        # n int8 draws of 0 or 1, viewed as the mask: a dtype=bool draw
        # gives other values, and so other bytes.
        is_coop = rng.integers(0, 2, g.n, dtype=np.int8).view(bool)
    else:
        is_coop = np.array(initial_coop)
        if is_coop.dtype != bool or is_coop.shape != (g.n,):
            raise ValueError(f"initial_coop must be a bool mask of shape ({g.n},), "
                             f"got {is_coop.dtype} of shape {is_coop.shape}")
    coop = np.empty(cfg.horizon)
    invested = np.zeros(cfg.horizon, dtype=np.int64)
    if cfg.update.rule == DETERMINISTIC:
        absorbed_at = dynamics.step_deterministic(g, is_coop, cfg.payoff, icfg, percentile,
                                                  rng, coop, invested)
    else:
        absorbed_at = _run_fermi(cfg, g, percentile, theta, is_coop, rng, coop, invested)

    cost = theta * invested
    return RunResult(
        coop=coop,
        invested=invested,
        cost=cost,
        # Left-to-right, generation by generation: the CSV bytes depend on it.
        total_cost=float(sum(cost.tolist())),
        mean_coop=float(coop[-cfg.stats_window:].mean()),
        absorbed_at=absorbed_at,
        final_state=_classify(int(np.count_nonzero(is_coop)), g.n),
    )


def _run_fermi(cfg: RunConfig, g: Graph, percentile: np.ndarray | None, theta: float,
               is_coop: np.ndarray, rng: np.random.Generator, coop: np.ndarray,
               invested: np.ndarray) -> int | None:
    """Run the Fermi rule's generations, filling coop and invested and
    leaving the final population in is_coop; return the absorption
    generation, or None.

    The run carries the cooperator mask, the number of cooperators and
    each node's count of cooperating neighbors (nc), updating them from
    the agents each step returns as switching: only they and their
    neighbors change, the neighbors' counts by one per switch. Scores,
    NEB eligibility, POP, the recorded coop fraction and the absorption
    test all read the carried values.

    A generation works only on the front: the agents with a neighbor of
    the other strategy, the only ones that can switch. Only they pick a
    neighbor, and only agents whose pick disagrees are scored; the step
    still draws its 2n uniforms in full, so a run's random stream does not
    depend on the front.
    """
    icfg = cfg.interference
    n_coop = int(np.count_nonzero(is_coop))
    nc = g.count_neighbors(is_coop)
    # nc as it would be if every neighbor agreed: the degree for a
    # cooperator, 0 for a defector. Agents with nc != alike_nc, and no
    # others, have a neighbor of the other strategy: the front.
    alike_nc = np.where(is_coop, g.degrees, 0).astype(np.float64)
    bonus = np.array([0.0, theta])  # the endowment, looked up by eligibility

    def score(nodes):
        """This generation's scores of nodes, endowment included."""
        f = game.scores_from_counts(is_coop[nodes], nc[nodes], cfg.payoff)
        if icfg.active:
            f = f + bonus.take(eligible[nodes])
        return f

    for gen in range(coop.size):
        if n_coop in (0, g.n):
            coop[gen:] = n_coop / g.n
            return gen
        coop[gen] = n_coop / g.n
        if icfg.active:
            eligible = interference.eligible_set(g, percentile, is_coop, nc, n_coop, icfg)
            invested[gen] = np.count_nonzero(eligible)
        front = (nc != alike_nc).nonzero()[0]
        switched = dynamics.step_stochastic(g, is_coop, front, score, cfg.update.K, rng)
        gained = ~is_coop[switched]
        is_coop[switched] = gained
        degrees = g.degrees[switched]
        alike_nc[switched] = degrees * gained
        n_coop += 2 * int(np.count_nonzero(gained)) - switched.size
        # Each switch moves every neighbor's count by one, up for a new
        # cooperator and down for a new defector.
        np.add.at(nc, g.neighbors_of(switched), _SIGN.take(gained).repeat(degrees))
    return None


@dataclass(frozen=True)
class SweepSummary:
    """Mean/std of per-replicate cooperation and total cost at one grid
    point: one sweep CSV row. Its graph seeds are graph_seeds_for(master_seed,
    graphs); a replicate's run seed is derived from the point, graph and
    realisation indices."""

    config: RunConfig
    replicates: int
    coop_mean: float
    coop_std: float
    cost_mean: float
    cost_std: float
    master_seed: int


def _sample_std(values: np.ndarray) -> float:
    if len(values) < 2:
        return 0.0
    return float(np.std(values, ddof=1))


def graph_seeds_for(master_seed: int, graphs: int) -> list[int]:
    return [derive_seed(master_seed, _GRAPH_STREAM, i) for i in range(graphs)]


@functools.lru_cache(maxsize=1)
def graph_for(net: NetworkConfig) -> Graph:
    """The graph a run on net plays on, generated from the config, seed
    included. A graph is a pure function of its config, so the last one is
    kept: consecutive runs on one graph build it once, and tasks run
    graph-major, so consecutive tasks mostly share a graph."""
    return network.generate(net)


def _point_graph_task(args) -> np.ndarray:
    """One (grid point, graph) cell: all realisations on one graph, as a
    (realisations, 2) array of (mean_coop, total_cost)."""
    cfg, run_seeds = args
    g = graph_for(cfg.network)
    results = (run_simulation(replace(cfg, run_seed=seed), g) for seed in run_seeds)
    return np.array([(r.mean_coop, r.total_cost) for r in results])


def sweep(cfgs: list[RunConfig], master_seed: int,
          graphs: int = DEFAULT_GRAPHS, realisations: int = DEFAULT_REALISATIONS,
          jobs: int = 1) -> list[SweepSummary]:
    """Evaluate every configuration over graphs x realisations replicates.

    Tasks are (point, graph) cells in graph-major order, and each task's
    network config carries its graph seed, so each worker builds each graph
    at most once per sweep. Workers
    only parallelise independent replicates, and each point's replicates
    are reduced in (graph, realisation) order, so output is identical for
    any jobs.
    """
    global ProcessPoolExecutor
    tasks = []
    for graph_idx, graph_seed in enumerate(graph_seeds_for(master_seed, graphs)):
        for point_idx, cfg in enumerate(cfgs):
            cfg = replace(cfg, network=replace(cfg.network, seed=graph_seed))
            tasks.append((cfg, [derive_seed(master_seed, _RUN_STREAM, point_idx, graph_idx, r)
                                for r in range(realisations)]))
    if jobs > 1 and len(tasks) > 1:
        if ProcessPoolExecutor is None:
            from concurrent.futures import ProcessPoolExecutor
        # A fork pool starts every worker at the first submit: start no more
        # than there are tasks.
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            per_task = list(pool.map(_point_graph_task, tasks, chunksize=1))
    else:
        per_task = [_point_graph_task(t) for t in tasks]

    # graphs x points x realisations x (coop, cost) -> points x 2 x replicates,
    # each statistic's replicates contiguous and graph-major: the summation
    # order, and so the CSV bytes, depend on it.
    stats = np.array(per_task).reshape(graphs, len(cfgs), realisations, 2)
    stats = np.ascontiguousarray(stats.transpose(1, 3, 0, 2)).reshape(len(cfgs), 2, -1)
    return [SweepSummary(config=cfg, replicates=coop.size,
                         coop_mean=float(coop.mean()), coop_std=_sample_std(coop),
                         cost_mean=float(cost.mean()), cost_std=_sample_std(cost),
                         master_seed=master_seed)
            for cfg, (coop, cost) in zip(cfgs, stats)]


@dataclass(frozen=True)
class FrontierRow:
    """Cheapest configuration reaching a cooperation target, if any does."""

    target: float
    summary: SweepSummary | None


def _frontier_key(summary: SweepSummary):
    icfg = summary.config.interference
    values = (getattr(icfg, key) for key in interference.PARAMS)
    # A missing parameter sorts after every value.
    return (summary.cost_mean, icfg.schemes, *((v is None, v or 0.0) for v in values))


def efficiency_frontier(summaries: list[SweepSummary],
                        coop_targets: list[float]) -> list[FrontierRow]:
    """Per target, the minimum-mean-cost configuration with coop_mean >= target.

    Configurations that never distribute endowments (zero mean cost) are
    excluded. Cost ties break lexicographically on (schemes, theta,
    thresholds). Unreachable targets yield a row with summary=None.
    """
    candidates = sorted((s for s in summaries if s.cost_mean > 0.0), key=_frontier_key)
    rows = []
    for target in coop_targets:
        chosen = next((s for s in candidates if s.coop_mean >= target), None)
        rows.append(FrontierRow(target=target, summary=chosen))
    return rows
