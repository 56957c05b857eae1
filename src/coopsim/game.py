"""One-shot weak Prisoner's Dilemma payoffs summed over graph neighborhoods.

Payoff matrix for the row player (C and D rows/columns):

        C    D
    C   1    0
    D   b    0

with temptation 1 < b <= 2. A population is its boolean cooperator mask:
True plays C, False plays D.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PayoffParams:
    b: float = 1.8

    def __post_init__(self):
        if not 1.0 < self.b <= 2.0:
            raise ValueError(f"temptation must satisfy 1 < b <= 2, got b={self.b}")


def scores_from_counts(coop: np.ndarray, nc: np.ndarray, p: PayoffParams) -> np.ndarray:
    """Each node's summed payoff from its cooperator mask coop and its count
    of cooperating neighbors nc.

    A cooperator earns 1 per cooperating neighbor, a defector earns b per
    cooperating neighbor; defecting neighbors contribute nothing.
    """
    # Indexed by the coop flag: b for a defector (False), 1 for a cooperator.
    return np.array([p.b, 1.0]).take(coop) * nc
