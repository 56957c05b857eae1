"""Synchronous social-learning updates: deterministic imitate-best and the
stochastic Fermi rule.

Both rules update every agent simultaneously from the same score vector.
Random draws are consumed as whole per-node arrays in node-index order, so
trajectories are fully determined by the RNG seed.
"""

from __future__ import annotations

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

    K is the Fermi noise amplitude (stochastic rule only).
    """

    rule: str = DETERMINISTIC
    K: float = 0.1

    def __post_init__(self):
        if self.rule not in (DETERMINISTIC, STOCHASTIC):
            raise ValueError(f"unknown update rule: {self.rule!r}")
        if self.rule == STOCHASTIC and not self.K > 0:
            raise ValueError(f"Fermi noise K must be > 0, got {self.K}")


def fermi_probability(f_a, f_b, K: float):
    """Probability that an agent with score f_a copies one with score f_b.

    Evaluates (1 + exp((f_a - f_b) / K))**-1, clipping the exponent so the
    result saturates to 0/1 instead of overflowing. Works elementwise on
    arrays and on scalars alike.
    """
    z = np.clip((np.asarray(f_a, dtype=np.float64) - f_b) / K,
                -_MAX_EXPONENT, _MAX_EXPONENT)
    out = 1.0 / (1.0 + np.exp(z))
    return float(out) if np.ndim(out) == 0 else out


def is_homogeneous(s: np.ndarray) -> bool:
    """True iff every agent holds the same strategy."""
    return bool(np.all(s == s[0]))


def step_deterministic(g: Graph, s: np.ndarray, scores: np.ndarray,
                       rng: np.random.Generator) -> np.ndarray:
    """Every agent imitates its highest-scoring neighbor, simultaneously.

    Ties among equally best neighbors are broken uniformly with one draw
    per node. An agent keeps its strategy unless the best neighbor strictly
    outscores it.
    """
    nbr_scores = scores[g.indices]
    best = np.full(g.n, -np.inf)
    np.maximum.at(best, g.rows, nbr_scores)

    # Pick uniformly among the tied best neighbors of each node: tiepos
    # lists the CSR positions of all ties, grouped by node, so a node's
    # k-th tie (k = floor(u * count)) sits at its group start plus k.
    tiepos = np.flatnonzero(nbr_scores == best[g.rows])
    tie_counts = np.bincount(g.rows[tiepos], minlength=g.n)
    u = rng.random(g.n)
    want = np.minimum((u * tie_counts).astype(np.int64), tie_counts - 1)
    before = np.cumsum(tie_counts) - tie_counts
    best_neighbor = g.indices[tiepos[before + want]]

    return np.where(best > scores, s[best_neighbor], s).astype(np.int8)


def step_stochastic(g: Graph, s: np.ndarray, scores: np.ndarray, K: float,
                    rng: np.random.Generator) -> np.ndarray:
    """Every agent draws one random neighbor and copies it with Fermi probability.

    Consumes two per-node uniform arrays: neighbor picks, then copy decisions.
    Copying a neighbor that holds the agent's own strategy changes nothing,
    so the Fermi probability is evaluated only for agents whose pick
    disagrees; their copy decisions are the ones a full evaluation would
    make, since the probability is elementwise.
    """
    u_pick = rng.random(g.n)
    u_copy = rng.random(g.n)
    offset = np.minimum((u_pick * g.degrees).astype(np.int64), g.degrees - 1)
    neighbor = g.indices[g.indptr[:-1] + offset]
    differ = np.flatnonzero(s[neighbor] != s)
    p_copy = fermi_probability(scores[differ], scores[neighbor[differ]], K)
    copies = differ[u_copy[differ] < p_copy]
    new_s = s.astype(np.int8)
    new_s[copies] = s[neighbor[copies]]
    return new_s


def step(g: Graph, s: np.ndarray, scores: np.ndarray, cfg: UpdateRuleConfig,
         rng: np.random.Generator) -> np.ndarray:
    """Advance one generation under the configured rule."""
    if cfg.rule == DETERMINISTIC:
        return step_deterministic(g, s, scores, rng)
    return step_stochastic(g, s, scores, cfg.K, rng)
