"""Replicate orchestration: single runs, sweeps of replicated parameter
points, and cost-efficiency frontier extraction.

A parameter point is evaluated on several independently seeded graphs with
several realisations each (defaults follow the 10 x 30 protocol). All seeds
descend from one master seed through a counter-based split, and every sum
is correctly rounded (math.fsum), so a statistic depends on neither the
order of its values nor the Python version, and repeated invocations and
any degree of worker parallelism produce identical output.
"""

from __future__ import annotations

import array
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field, replace

from . import dynamics, interference, network
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

# Stream tags for the counter-based seed split.
_GRAPH_STREAM = 0
_RUN_STREAM = 1


def derive_seed(master_seed: int, *path: int) -> int:
    """Deterministic 64-bit child seed for a (stream, counter...) path: the
    first two words of numpy's SeedSequence([master_seed, *path]), drawn by
    the compiled library."""
    from . import _loops  # imported here: import coopsim.cli loads no library
    high, low = _loops.seed_words([master_seed, *path], 2)
    return high << 32 | low


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
    """One replicate. coop, invested and cost, float64, int64 and float64
    array.arrays, span the full horizon and are measured each generation
    before the strategy update."""

    coop: array.array
    invested: array.array
    cost: array.array
    total_cost: float
    mean_coop: float
    absorbed_at: int | None
    final_state: str


def _check_cost(theta: float | None, **stats: float) -> None:
    """Raise OverflowError naming theta when a cost statistic is not finite:
    a total cost, a mean or a squared deviation passed the largest double."""
    for name, value in stats.items():
        if not math.isfinite(value):
            raise OverflowError(f"theta={theta!r} is too large: {name} overflows a double")


def _fsum(values: Iterable[float]) -> float:
    """math.fsum of values, or inf where a partial sum passes the largest
    double, where fsum raises OverflowError: _check_cost then names theta."""
    try:
        return math.fsum(values)
    except OverflowError:
        return math.inf


def _mean_std(values: Sequence[float]) -> tuple[float, float]:
    """Mean and sample std of values, correctly rounded sums and so the same
    for any order: the mean is the fsum of values over their number, the std
    the square root of the fsum of squared deviations from that mean over
    n - 1, and 0.0 for one value. An overflow leaves inf or nan."""
    n = len(values)
    mean = _fsum(values) / n
    if n < 2:
        return mean, 0.0
    return mean, math.sqrt(_fsum((v - mean) * (v - mean) for v in values) / (n - 1))


def _classify(n_coop: int, n: int) -> str:
    if n_coop == n:
        return HOMOGENEOUS_C
    return HOMOGENEOUS_D if n_coop == 0 else MIXED


def run_simulation(cfg: RunConfig, g: Graph) -> RunResult:
    """Simulate one replicate on a prepared graph.

    Each agent starts C or D with equal probability, drawn from a PCG64
    generator seeded with cfg.run_seed. Each generation: payoffs are
    accumulated, interference conditions checked and endowments added,
    then all strategies update synchronously. Under either rule a
    homogeneous population absorbs: neither rule can leave it (both copy a
    neighbor, without mutation), so the run stops, pays no further
    endowment and draws nothing more; the frozen state fills the rest of
    the trace so it always spans the full horizon. mean_coop is the fsum
    of the trailing stats_window generations over stats_window, and
    total_cost the fsum of cost, so both are the same on any Python (a
    sweep's std is the square root of the fsum of squared deviations from
    the fsum mean over n - 1). A graph whose size differs from the
    config's n is a ValueError; a total cost that overflows a double is an
    OverflowError naming theta.

    The compiled library seeds the generator and draws the start
    (_loops.generator and _loops.start). Then a run is one compiled call:
    dynamics.step_deterministic or dynamics.step_stochastic, looked up in
    dynamics when called, each forwarding to _loops.run, the one call site
    of the loops. Both draw from the run's generator and from nothing else.
    """
    if g.n != cfg.network.n:
        raise ValueError(f"graph has {g.n} nodes, config expects {cfg.network.n}")
    from . import _loops  # imported here: import coopsim.cli loads no library
    rng = _loops.generator(cfg.run_seed)
    is_coop = _loops.start(rng, g.n)
    icfg = cfg.interference
    coop = array.array("d", [0.0]) * cfg.horizon
    invested = array.array("q", [0]) * cfg.horizon
    if cfg.update.rule == DETERMINISTIC:
        absorbed_at = dynamics.step_deterministic(g, is_coop, cfg.payoff, icfg, rng, coop,
                                                  invested)
    else:
        absorbed_at = dynamics.step_stochastic(g, is_coop, cfg.payoff, icfg, cfg.update.K,
                                               rng, coop, invested)

    # theta is None, and invested 0, without interference. An overflow leaves inf.
    cost = array.array("d", [(icfg.theta or 0.0) * k for k in invested])
    total_cost = _fsum(cost)
    _check_cost(icfg.theta, total_cost=total_cost)
    return RunResult(
        coop=coop,
        invested=invested,
        cost=cost,
        total_cost=total_cost,
        mean_coop=math.fsum(coop[-cfg.stats_window:]) / cfg.stats_window,
        absorbed_at=absorbed_at,
        final_state=_classify(bytes(is_coop).count(1), g.n),
    )


@dataclass(frozen=True)
class SweepSummary:
    """Mean and sample std of per-replicate cooperation and total cost at
    one grid point: one sweep CSV row. A mean is the fsum of the replicates'
    values over their number; a std the square root of the fsum of squared
    deviations from that mean over n - 1 (0.0 for one replicate). Its graph
    seeds are graph_seeds_for(master_seed, graphs); a replicate's run seed
    is derived from the point, graph and realisation indices."""

    config: RunConfig
    replicates: int
    coop_mean: float
    coop_std: float
    cost_mean: float
    cost_std: float
    master_seed: int


def graph_seeds_for(master_seed: int, graphs: int) -> list[int]:
    return [derive_seed(master_seed, _GRAPH_STREAM, i) for i in range(graphs)]


def _point_graph_task(args) -> list[tuple[float, float]]:
    """One (grid point, graph) cell: all realisations on one graph, each
    as its (mean_coop, total_cost)."""
    cfg, g, run_seeds = args
    results = (run_simulation(replace(cfg, run_seed=seed), g) for seed in run_seeds)
    return [(r.mean_coop, r.total_cost) for r in results]


def sweep(cfgs: list[RunConfig], master_seed: int,
          graphs: int = DEFAULT_GRAPHS, realisations: int = DEFAULT_REALISATIONS,
          jobs: int = 1) -> list[SweepSummary]:
    """Evaluate every configuration over graphs x realisations replicates.

    Every point shares one network config. The sweep generates each graph
    once, from that config and its graph seed, and hands it to each of its
    tasks: (point, graph) cells in graph-major order. With jobs above 1 and
    more than one task, a pool of min(jobs, tasks) threads runs the tasks:
    each replicate is one compiled call, which releases the GIL, and every
    thread reads the same read-only graphs. A task's exception is raised
    here, after the pool's threads have ended. Workers only parallelise
    independent replicates, and each point's mean is the fsum of its
    replicates' values over their number and its sample std the square root
    of the fsum of squared deviations from that mean over n - 1, both the
    same for any order, so output is identical for any jobs. No
    points, graphs or realisations below 1, jobs other than an integer of
    at least 1, or points whose network configs differ, are a ValueError;
    a cost mean or std that overflows a double is an OverflowError naming
    the point's theta.
    """
    if not cfgs:
        raise ValueError("cfgs must hold at least one grid point")
    if graphs < 1:
        raise ValueError(f"graphs must be >= 1, got {graphs}")
    if realisations < 1:
        raise ValueError(f"realisations must be >= 1, got {realisations}")
    if not isinstance(jobs, int) or jobs < 1:
        raise ValueError(f"jobs must be an integer >= 1, got {jobs!r}")
    net = cfgs[0].network
    for cfg in cfgs:
        if cfg.network != net:
            raise ValueError(f"network must be the same for every point, got {net} "
                             f"and {cfg.network}")
    tasks = []
    for graph_idx, graph_seed in enumerate(graph_seeds_for(master_seed, graphs)):
        g = network.generate(replace(net, seed=graph_seed))
        for point_idx, cfg in enumerate(cfgs):
            tasks.append((cfg, g, [derive_seed(master_seed, _RUN_STREAM, point_idx, graph_idx, r)
                                   for r in range(realisations)]))
    if jobs > 1 and len(tasks) > 1:
        # Imported here: a serial run never loads the pool.
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            per_task = list(pool.map(_point_graph_task, tasks))
    else:
        per_task = [_point_graph_task(t) for t in tasks]

    summaries = []
    for point, cfg in enumerate(cfgs):
        replicates = [r for task in per_task[point::len(cfgs)] for r in task]
        (coop_mean, coop_std), (cost_mean, cost_std) = map(_mean_std, zip(*replicates))
        _check_cost(cfg.interference.theta, cost_mean=cost_mean, cost_std=cost_std)
        summaries.append(SweepSummary(
            config=cfg, replicates=len(replicates), coop_mean=coop_mean, coop_std=coop_std,
            cost_mean=cost_mean, cost_std=cost_std, master_seed=master_seed))
    return summaries


@dataclass(frozen=True)
class FrontierRow:
    """Cheapest configuration reaching a cooperation target, if any does."""

    target: float
    summary: SweepSummary | None

    @property
    def status(self) -> str:
        """The frontier CSV's status: ok, or unreachable when no point
        reaches the target."""
        return "ok" if self.summary is not None else "unreachable"


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
