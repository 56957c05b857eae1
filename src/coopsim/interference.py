"""Reward-based external interference: which cooperators get the endowment.

Three eligibility schemes, all restricted to cooperators:

  POP  invest in every cooperator while the global cooperator fraction is
       at most p_c (all-or-nothing per generation);
  NEB  invest in cooperators whose neighborhood cooperator fraction is at
       most n_c;
  NI   invest in cooperators whose degree percentile is at least c_I.

Several schemes may be active at once; a node is paid the endowment theta
at most once per generation regardless of how many schemes it satisfies.
PARAMS names a scheme set's parameters, in the one order that configs,
sweep grids, CSV columns and the frontier's tie-break use.

The compiled loops (_loops.c) apply this rule every generation;
tests/conftest.py holds its numpy oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

POP = "POP"
NEB = "NEB"
NI = "NI"

_SCHEMES = (POP, NEB, NI)
# The endowment, then each scheme's threshold in _SCHEMES order.
PARAMS = ("theta", "p_c", "n_c", "c_I")


@dataclass(frozen=True)
class InterferenceConfig:
    """Active schemes plus their thresholds; empty scheme set means baseline.

    A node is paid only if every active scheme's condition holds.
    """

    schemes: tuple = ()
    theta: float | None = None
    p_c: float | None = None
    n_c: float | None = None
    c_I: float | None = None

    def __post_init__(self):
        if not (isinstance(self.schemes, (list, tuple))
                and all(isinstance(x, str) for x in self.schemes)):
            raise ValueError(f"schemes must be a list of scheme names, got {self.schemes!r}")
        schemes = tuple(dict.fromkeys(self.schemes))
        object.__setattr__(self, "schemes", schemes)
        for scheme in schemes:
            if scheme not in _SCHEMES:
                raise ValueError(f"unknown interference scheme in schemes: {scheme!r}")
        if schemes:
            if self.theta is None or not 0 < self.theta < math.inf:
                raise ValueError("theta must be finite and > 0 when any scheme is "
                                 f"active, got {self.theta}")
        elif self.theta is not None:
            raise ValueError("theta given without any active scheme")
        for scheme, name in zip(_SCHEMES, PARAMS[1:]):
            value = getattr(self, name)
            if scheme in schemes:
                if value is None:
                    raise ValueError(f"{scheme} is active but {name} is missing")
                if not 0.0 <= value <= 1.0:
                    raise ValueError(f"{name} must lie in [0, 1], got {value}")
            elif value is not None:
                raise ValueError(f"{name} given but {scheme} is not active")

    @property
    def active(self) -> bool:
        return bool(self.schemes)
