"""Scale-free network generation, degree percentiles and graph export.

Two growth models are supported: classical preferential attachment (BA),
which produces low clustering, and edge-duplication growth (DMS), which
produces the same degree exponent and mean degree but much higher
clustering. Both grow by two edges per new node and yield connected simple
graphs with average degree close to 4. They are the only source of graphs,
so Graph.from_edges builds the CSR of their edge lists without checking it.
The compiled library grows both (coopsim_grow in _loops.c, whose comment
gives each model's draws), drawing each pick as numpy's
Generator.integers does; the numpy growth in tests/conftest.py is its
oracle. So a graph file's bytes follow _loops.c, not numpy's Generator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

BA = "BA"
DMS = "DMS"

MODELS = (BA, DMS)


@dataclass(frozen=True)
class NetworkConfig:
    """One generated network: its growth model, size and seed."""

    model: str
    n: int
    seed: int = 0

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown network model: {self.model!r}")
        if self.n < 3:
            raise ValueError(f"need at least 3 nodes, got n={self.n}")
        if self.n >= 2**30:  # growth draws below 32-bit bounds, BA up to 4n - 10
            raise ValueError(f"need fewer than 2**30 nodes, got n={self.n}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class Graph:
    """Immutable undirected simple connected graph, as grown by generate.

    Neighbor ids are stored in CSR form (indptr/indices) with each node's
    neighbor list sorted ascending. The CSR is the only copy of the edges:
    edges derives the canonical (u < v) edge list from it.
    """

    n: int
    indptr: np.ndarray   # shape (n + 1,)
    indices: np.ndarray  # shape (2E,)
    degrees: np.ndarray  # shape (n,)

    def __post_init__(self):
        for arr in (self.indptr, self.indices, self.degrees):
            arr.setflags(write=False)

    @classmethod
    def from_edges(cls, n, edges) -> "Graph":
        """Build the CSR of an undirected edge list of shape (E, 2).

        The edges must describe a simple connected graph on nodes 0..n-1,
        each edge listed once, in either direction and in any order; this is
        not checked. BA and DMS growth meet it by construction: each new
        node attaches to distinct nodes that are already connected."""
        u, v = np.asarray(edges, dtype=np.int64).T
        # Both directions of every edge as one key, row * n + neighbor:
        # sorted, the keys are the CSR entries in order.
        rows, indices = np.divmod(np.sort(np.concatenate([u * n + v, v * n + u])), n)
        degrees = np.bincount(rows, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        return cls(n=n, indptr=indptr, indices=indices, degrees=degrees)

    @property
    def edges(self) -> np.ndarray:
        """The canonical edge list, shape (E, 2): u < v, lexicographically
        sorted. These are the CSR entries whose row is below its neighbor,
        in CSR order."""
        rows = np.repeat(np.arange(self.n), self.degrees)
        upper = rows < self.indices
        return np.stack((rows[upper], self.indices[upper]), axis=1)

    @property
    def n_edges(self) -> int:
        return self.indices.size // 2

    @property
    def average_degree(self) -> float:
        return 2.0 * self.n_edges / self.n


def generate(config: NetworkConfig, rng: np.ndarray | None = None) -> Graph:
    """Grow a graph for config, from a PCG64 generator seeded with
    config.seed, or from rng, a generator array (coopsim._loops.generator),
    which the growth steps."""
    from . import _loops  # imported here: import coopsim.cli loads no library
    if rng is None:
        rng = _loops.generator(config.seed)
    return Graph.from_edges(config.n, _loops.grow(config.model, config.n, rng))


def degree_percentiles(g: Graph) -> np.ndarray:
    """Read-only percentile rank of each node's degree: the fraction of other
    nodes with strictly lower degree."""
    sorted_degs = np.sort(g.degrees)
    lower = np.searchsorted(sorted_degs, g.degrees, side="left")
    q = lower / (g.n - 1)
    q.setflags(write=False)
    return q


def graph_json(config: NetworkConfig, g: Graph) -> str:
    """The text of the graph file for g, generated from config: one JSON line
    {model, n, seed, edges}."""
    return json.dumps({"model": config.model, "n": g.n, "seed": config.seed,
                       "edges": g.edges.tolist()}) + "\n"
