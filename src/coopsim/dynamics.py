"""Synchronous social-learning updates: deterministic imitate-best and the
stochastic Fermi rule.

Both rules update every agent simultaneously from the same scores. The
Fermi step is numpy and returns the agents that switch, ascending;
imitate-best runs a whole replicate in one compiled call. Draws are
per-node, in node-index order, so trajectories are fully determined by the
RNG seed.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .game import PayoffParams
from .interference import NEB, POP, InterferenceConfig
from .network import Graph

DETERMINISTIC = "deterministic"
STOCHASTIC = "stochastic"

# exp() overflows just above this; the probability has saturated long before.
_MAX_EXPONENT = 700.0


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


def fermi_probability(f_a, f_b, K: float):
    """Probability that an agent with score f_a copies one with score f_b.

    Evaluates (1 + exp((f_a - f_b) / K))**-1, clipping the exponent so the
    result saturates to 0/1 instead of overflowing. Works elementwise and
    always returns an array, 0-d for scalar scores.
    """
    z = np.minimum(np.maximum((np.asarray(f_a, dtype=np.float64) - f_b) / K,
                              -_MAX_EXPONENT), _MAX_EXPONENT)
    return 1.0 / (1.0 + np.exp(z))


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
    Eligibility (percentile is the graph's degree_percentiles, needed only
    when NI is active), endowments, scores and the carried neighbor counts
    follow engine.run_simulation's rules; the loop is _imitate.c.
    is_coop (the bool mask) ends as the final population, and coop and
    invested, of horizon length, are filled as RunResult's arrays.

    perfbench's tracer reports this function as dynamics.step_deterministic:
    one call per imitate-best replicate.
    """
    # Imported here, so that a process running only the Fermi rule never
    # loads the library.
    from . import _imitate

    arrays = ((g.indptr, np.int64, g.n + 1), (g.indices, np.int64, int(g.indptr[-1])),
              (is_coop, bool, g.n), (coop, np.float64, coop.size),
              (invested, np.int64, coop.size))
    if percentile is not None:
        arrays += ((percentile, np.float64, g.n),)
    for arr, dtype, size in arrays:
        if arr.dtype != dtype or arr.shape != (size,) or not arr.flags.c_contiguous:
            raise ValueError(f"step_deterministic needs contiguous {np.dtype(dtype)} arrays "
                             f"of shape ({size},), got {arr.dtype} of shape {arr.shape}")
    kernel = _imitate.library()
    schemes = icfg.schemes
    bitgen = rng.bit_generator
    with bitgen.lock:
        absorbed_at = kernel(
            g.n, g.indptr.ctypes.data, g.indices.ctypes.data, payoff.b,
            bool(schemes), icfg.theta or 0.0,
            POP in schemes, icfg.p_c or 0.0, NEB in schemes, icfg.n_c or 0.0,
            None if percentile is None else percentile.ctypes.data, icfg.c_I or 0.0,
            coop.size, is_coop.ctypes.data, coop.ctypes.data, invested.ctypes.data,
            bitgen.ctypes.state_address, bitgen.ctypes.next_double)
    if absorbed_at == -2:
        raise MemoryError("imitate-best loop: no memory for its work buffers")
    return None if absorbed_at < 0 else absorbed_at


def step_stochastic(g: Graph, s: np.ndarray, front: np.ndarray,
                    score: Callable[[np.ndarray], np.ndarray], K: float,
                    rng: np.random.Generator) -> np.ndarray:
    """Every agent draws one random neighbor and copies it with Fermi
    probability; returns the agents that switch, ascending when front is.

    Each call draws 2n uniforms whatever front holds: n neighbor picks, then
    n copy decisions, one per agent in node order. Copying a neighbor of
    one's own strategy changes nothing, so only the agents in front pick,
    and only those whose pick disagrees are scored and decide. front must
    hold every agent with a neighbor of the other strategy (it may hold
    more), and score(nodes) returns the scores of the given agents. Picks,
    scores and the Fermi probability are elementwise, so every decision is
    the one an evaluation over all agents would make.
    """
    u = rng.random(2 * g.n)
    u_pick, u_copy = u[:g.n], u[g.n:]
    degrees = g.degrees[front]
    offset = np.minimum((u_pick[front] * degrees).astype(np.int64), degrees - 1)
    neighbor = g.indices[g.indptr[front] + offset]
    differ = (s[neighbor] != s[front]).nonzero()[0]
    agents = front[differ]
    f = score(np.concatenate([agents, neighbor[differ]]))
    p_copy = fermi_probability(f[:agents.size], f[agents.size:], K)
    return agents[(u_copy[agents] < p_copy).nonzero()[0]]
