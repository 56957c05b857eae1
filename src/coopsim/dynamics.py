"""Synchronous social-learning updates: deterministic imitate-best and the
stochastic Fermi rule.

Both rules update every agent simultaneously from the same scores and
return the agents that switch, ascending. Draws are whole per-node arrays
in node-index order, so trajectories are fully determined by the RNG seed.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

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


def step_deterministic(g: Graph, s: np.ndarray, scores: np.ndarray,
                       rng: np.random.Generator) -> np.ndarray:
    """Every agent imitates its highest-scoring neighbor, simultaneously.

    Returns the agents that switch, ascending: those whose best neighbor
    strictly outscores them and holds the other strategy. Ties among equally
    best neighbors are broken uniformly with one draw per node.
    """
    nbr_scores = scores[g.indices]
    best = np.full(g.n, -np.inf)
    np.maximum.at(best, g.rows, nbr_scores)

    # Pick uniformly among the tied best neighbors of each node: tiepos
    # lists the CSR positions of all ties, grouped by node, so a node's
    # k-th tie (k = floor(u * count)) sits at its group start plus k.
    tiepos = (nbr_scores == best[g.rows]).nonzero()[0]
    tie_counts = np.bincount(g.rows[tiepos], minlength=g.n)
    u = rng.random(g.n)
    u *= tie_counts
    pick = u.astype(np.int64)
    np.minimum(pick, tie_counts - 1, out=pick)
    pick += np.cumsum(tie_counts)
    pick -= tie_counts
    best_neighbor = g.indices[tiepos[pick]]

    return ((best > scores) & (s[best_neighbor] != s)).nonzero()[0]


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
