"""One-shot weak Prisoner's Dilemma payoffs summed over graph neighborhoods.

Payoff matrix for the row player (C and D rows/columns):

        C    D
    C   1    0
    D   b    0

with temptation 1 < b <= 2. A population is its boolean cooperator mask:
True plays C, False plays D. A node's score sums the matrix over its
neighbors: nc for a cooperator and b * nc for a defector, nc being its
count of cooperating neighbors. The compiled loops (_loops.c) score every
generation; tests/conftest.py holds the rule's numpy oracle.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PayoffParams:
    b: float = 1.8

    def __post_init__(self):
        if not 1.0 < self.b <= 2.0:
            raise ValueError(f"temptation must satisfy 1 < b <= 2, got b={self.b}")
