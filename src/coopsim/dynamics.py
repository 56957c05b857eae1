"""Synchronous social-learning updates: deterministic imitate-best and the
stochastic Fermi rule.

Both rules update every agent simultaneously from the same scores, and
each runs a whole replicate in one compiled call: its loop in _loops.c,
whose comments give its draws, called through _loops.run. Draws are
per-node, in node-index order, from the run's PCG64 generator array, so
trajectories are fully determined by the RNG seed.

A config module, like game and interference: it imports neither numpy
nor the graph module, and loads coopsim._loops at the first replicate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def step_deterministic(g, is_coop, payoff, icfg, rng, coop, invested) -> int | None:
    """Run every imitate-best generation of one replicate: coopsim_imitate_best
    in _loops.c, through _loops.run, which types and documents the arguments,
    the effects and the result.

    perfbench's tracer reports this function as dynamics.step_deterministic:
    one call per imitate-best replicate.
    """
    from . import _loops
    return _loops.run("coopsim_imitate_best", g, is_coop, payoff, icfg, rng, coop, invested)


def step_stochastic(g, is_coop, payoff, icfg, K: float, rng, coop, invested) -> int | None:
    """Run every Fermi generation of one replicate at noise K: coopsim_fermi
    in _loops.c, through _loops.run, which types and documents the other
    arguments, the effects and the result.

    perfbench's tracer reports this function as dynamics.step_stochastic:
    one call per Fermi replicate.
    """
    from . import _loops
    return _loops.run("coopsim_fermi", g, is_coop, payoff, icfg, rng, coop, invested, K)
