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
    cooperating neighbor; defecting neighbors contribute nothing. The
    compiled loops' own scoring pass computes it, with no scheme active.
    """
    # Imported here, so that a process that scores nothing never loads the
    # library.
    from . import _loops

    coop = np.ascontiguousarray(coop, dtype=bool)
    nc = np.ascontiguousarray(nc, dtype=np.float64)
    if nc.shape != coop.shape:
        raise ValueError(f"nc has shape {nc.shape}, coop {coop.shape}")
    score = np.empty(coop.shape)
    _loops.library().coopsim_pay_and_score(coop.size, None, p.b, _loops.Pay(), 0,
                                           coop.ctypes.data, nc.ctypes.data,
                                           score.ctypes.data, None)
    return score
