"""Synchronous social-learning updates: deterministic imitate-best and the
stochastic Fermi rule.

Both rules update every agent simultaneously from the same scores, and
each runs a whole replicate in one compiled call (_loops.c). Draws are
per-node, in node-index order, from the run's numpy PCG64 generator, so
trajectories are fully determined by the RNG seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .game import PayoffParams
from .interference import NI, InterferenceConfig
from .network import Graph

DETERMINISTIC = "deterministic"
STOCHASTIC = "stochastic"


@dataclass(frozen=True)
class UpdateRuleConfig:
    """Update rule selection.

    K is the Fermi noise amplitude: required, > 0 and finite, under the
    stochastic rule, and None under imitate-best, which reads no noise.
    """

    rule: str = DETERMINISTIC
    K: float | None = None

    def __post_init__(self):
        if self.rule not in (DETERMINISTIC, STOCHASTIC):
            raise ValueError(f"unknown update rule: {self.rule!r}")
        if self.rule == STOCHASTIC and (self.K is None or not 0 < self.K < math.inf):
            raise ValueError(f"Fermi noise K must be > 0 and finite under the {STOCHASTIC} "
                             f"rule, got {self.K}")
        if self.rule != STOCHASTIC and self.K is not None:
            raise ValueError(f"K is read only by the {STOCHASTIC} rule, got K={self.K} "
                             f"under rule {self.rule!r}")


def step_deterministic(g: Graph, is_coop: np.ndarray, payoff: PayoffParams,
                       icfg: InterferenceConfig, percentile: np.ndarray | None,
                       rng: np.random.Generator, coop: np.ndarray,
                       invested: np.ndarray) -> int | None:
    """Run every imitate-best generation of one replicate in one compiled
    call, and return the generation it absorbed at, or None.

    Each generation, every agent imitates its highest-scoring neighbor
    when that neighbor strictly outscores it, simultaneously. Ties among
    equally best neighbors, in CSR order, are broken with one uniform per
    agent from rng, in node order: the k-th tie with k = floor(u * ties).
    The loop finds each row's best score, and whether a cooperator and
    whether a defector tie at it, from two integer maxima of the scores'
    bits tagged with the strategy. It rescans a row for its ties and reads
    its uniform only when ties of both strategies beat the agent, and steps
    the generator over the rest, so rng ends where drawing all n uniforms
    a generation would leave it. Eligibility (percentile is the graph's
    degree_percentiles, needed only when NI is active), endowments, scores
    and the carried neighbor counts follow engine.run_simulation's rules;
    the loop is in _loops.c. is_coop (the bool mask) ends as the final
    population, and coop and invested, of horizon length, are filled as
    RunResult's arrays.

    perfbench's tracer reports this function as dynamics.step_deterministic:
    one call per imitate-best replicate.
    """
    return _run_loop("coopsim_imitate_best", g, is_coop, payoff, icfg, percentile, rng,
                     coop, invested)


def step_stochastic(g: Graph, is_coop: np.ndarray, payoff: PayoffParams,
                    icfg: InterferenceConfig, percentile: np.ndarray | None, K: float,
                    rng: np.random.Generator, coop: np.ndarray,
                    invested: np.ndarray) -> int | None:
    """Run every Fermi generation of one replicate in one compiled call, and
    return the generation it absorbed at, or None.

    Each generation draws 2n uniforms from rng: n neighbor picks, then n
    copy draws, one each per agent in node order. Each agent picks a
    random neighbor and copies it, simultaneously, when its copy draw is
    below the Fermi probability 1 / (1 + exp(z)), z = (own score -
    neighbor's score) / K clipped to +-700, with the C library's exp (the
    one math.exp calls). The loop reads only the draws that can change the
    population: the picks of agents with a neighbor of the other strategy,
    and the copy draws of agents whose pick disagrees. It steps the
    generator over the rest, so rng ends where drawing all 2n would leave
    it. K is fixed within the call, so the loop memoises the probability
    by the exact score difference, and most decisions reuse one instead of
    calling exp. No branch in the picks or decisions depends on a node's
    strategy or its draw: every agent is written to the list of deciders
    or switchers, which grows by one only when it disagrees or copies. The
    branches left are the loop bounds, the front's words, the memo's hit
    or miss and the scheme tests. The arguments and their effects are
    step_deterministic's; the loop is in _loops.c.

    perfbench's tracer reports this function as dynamics.step_stochastic:
    one call per Fermi replicate.
    """
    return _run_loop("coopsim_fermi", g, is_coop, payoff, icfg, percentile, rng, coop,
                     invested, K)


def _run_loop(name, g, is_coop, payoff, icfg, percentile, rng, coop, invested, *rule):
    """Call the compiled loop name on one replicate, with the update rule's
    own arguments rule, under rng's lock."""
    # Imported here, so that a process that runs no simulation never loads
    # the library.
    from . import _loops

    bitgen = rng.bit_generator
    if not isinstance(bitgen, np.random.PCG64):
        raise ValueError(f"the compiled loops draw from numpy's PCG64 alone, got a "
                         f"{type(bitgen).__name__} generator")
    arrays = ((g.indptr, np.int64, g.n + 1), (g.indices, np.int64, int(g.indptr[-1])),
              (is_coop, bool, g.n), (coop, np.float64, coop.size),
              (invested, np.int64, coop.size))
    if NI in icfg.schemes:
        arrays += ((percentile, np.float64, g.n),)
    for arr, dtype, size in arrays:
        if arr.dtype != dtype or arr.shape != (size,) or not arr.flags.c_contiguous:
            raise ValueError(f"{name} needs contiguous {np.dtype(dtype)} arrays of shape "
                             f"({size},), got {arr.dtype} of shape {arr.shape}")
    loop = getattr(_loops.library(), name)
    with bitgen.lock:
        absorbed_at = loop(g.n, g.indptr.ctypes.data, g.indices.ctypes.data, payoff.b,
                           _loops.pay(icfg, percentile), *rule, coop.size,
                           is_coop.ctypes.data, coop.ctypes.data, invested.ctypes.data,
                           bitgen.ctypes.state_address)
    if absorbed_at == -2:
        raise MemoryError(f"{name}: no memory for its work buffers")
    return None if absorbed_at < 0 else absorbed_at
