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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import Graph

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


def eligible_set(g: Graph | None, percentile: np.ndarray | None, coop: np.ndarray,
                 nc: np.ndarray | None, n_coop: int, cfg: InterferenceConfig) -> np.ndarray:
    """Boolean mask of nodes to pay this generation: cooperators meeting every
    active scheme's condition. An empty scheme set yields an empty mask.

    The population enters as its cooperator mask coop, the number of
    cooperators n_coop and each node's count of cooperating neighbors nc,
    so a caller that carries them across generations never recounts. The
    mask is sized from coop: g and nc are needed only when NEB is active,
    percentile (the graph's degree_percentiles) only when NI is active.
    Each node appears once, so the endowment is paid at most once however
    many schemes it satisfies. The compiled loops' own payment pass
    computes it.
    """
    # Imported here: _loops imports this module.
    from . import _loops

    coop = np.ascontiguousarray(coop, dtype=bool)
    out = np.zeros(coop.shape, dtype=bool)
    neb, ni = NEB in cfg.schemes, NI in cfg.schemes
    nc = np.ascontiguousarray(nc, dtype=np.float64) if neb else None
    percentile = np.ascontiguousarray(percentile, dtype=np.float64) if ni else None
    for name, arr in (("nc", nc), ("percentile", percentile),
                      ("g.degrees", g.degrees if neb else None)):
        if arr is not None and arr.shape != coop.shape:
            raise ValueError(f"{name} has shape {arr.shape}, coop {coop.shape}")
    _loops.library().coopsim_pay_and_score(
        coop.size, g.indptr.ctypes.data if neb else None, 0.0, _loops.pay(cfg, percentile),
        n_coop, coop.ctypes.data, None if nc is None else nc.ctypes.data, None,
        out.ctypes.data)
    return out
