"""Scale-free network generation, degree percentiles and graph export.

Two growth models are supported: classical preferential attachment (BA),
which produces low clustering, and edge-duplication growth (DMS), which
produces the same degree exponent and mean degree but much higher
clustering. Both grow by two edges per new node and yield connected simple
graphs with average degree close to 4. They are the only source of graphs,
so Graph.from_edges builds the CSR of their edge lists without checking it.
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

    @classmethod
    def from_edges(cls, n, edges) -> "Graph":
        """Build the CSR of an undirected edge list of shape (E, 2).

        The edges must describe a simple connected graph on nodes 0..n-1,
        each edge listed once, in either direction and in any order; this is
        not checked. BA and DMS growth meet it by construction: each new
        node attaches to distinct nodes that are already connected."""
        edges = np.asarray(edges, dtype=np.int64)
        # Both directions of every edge, sorted by (row, neighbor): the CSR
        # entries in order.
        both = np.concatenate([edges, edges[:, ::-1]])
        both = both[np.lexsort((both[:, 1], both[:, 0]))]
        degrees = np.bincount(both[:, 0], minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        # A column of both is a strided view: copy it into its own array.
        indices = np.ascontiguousarray(both[:, 1])

        g = cls(n=n, indptr=indptr, indices=indices, degrees=degrees)
        for arr in (g.indptr, g.indices, g.degrees):
            arr.setflags(write=False)
        return g

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


def _generate_ba(config: NetworkConfig, rng: np.random.Generator) -> Graph:
    """Grow a BA graph from the single edge (0, 1): each new node attaches to
    2 distinct targets sampled proportionally to degree."""
    n = config.n
    # The edge list, flat: (u0, v0, u1, v1, ...). Each node appears once per
    # degree unit, so sampling uniformly from it is degree-proportional.
    ends = [0, 1]
    # Node k draws from the 4k - 6 ends before it until it holds 2 distinct
    # targets: a duplicate redraws with the same bound. One call with an
    # array of bounds draws the same values as one call per bound and
    # leaves the generator in the same state. So each batch draws as if no
    # node to come draws a duplicate; at a duplicate, the generator rewinds
    # to the batch start, replays the draws used, and a new batch starts
    # with the redraw.
    new, first = 2, None  # first: new's first target, once drawn
    while new < n:
        # Batches grow with the graph: duplicates are likeliest while it is
        # small, and a rewind wastes at most one batch of draws.
        stop = min(n, new + new // 2 + 8)
        bounds = np.arange(4 * new - 6, 4 * stop - 6, 4).repeat(2)
        if first is not None:
            bounds = bounds[1:]
        state = rng.bit_generator.state
        for k, pick in enumerate(rng.integers(0, bounds).tolist()):
            t = ends[pick]
            if first is None:
                first = t
            elif t == first:
                rng.bit_generator.state = state
                rng.integers(0, bounds[:k + 1])
                break
            else:
                ends += (first, new, t, new) if first < t else (t, new, first, new)
                first = None
                new += 1
    return Graph.from_edges(n, np.array(ends, dtype=np.int64).reshape(-1, 2))


def _generate_dms(config: NetworkConfig, rng: np.random.Generator) -> Graph:
    """Grow a DMS graph: triangle seed, then each new node attaches to both
    endpoints of a uniformly chosen existing edge."""
    n = config.n

    # Node k (k >= 3) finds 2k - 3 edges and picks one of them. The bounds
    # are known in advance, so one call draws every pick, from the same
    # stream as one call per node.
    picks = rng.integers(0, np.arange(3, 2 * n - 3, 2)).tolist()
    src, dst = [0, 0, 1], [1, 2, 2]
    for new, k in zip(range(3, n), picks):
        src += (src[k], dst[k])
        dst += (new, new)
    return Graph.from_edges(n, np.array((src, dst), dtype=np.int64).T)


def generate(config: NetworkConfig, rng: np.random.Generator | None = None) -> Graph:
    """Generate a graph for config, seeding a fresh RNG from config.seed by default."""
    if rng is None:
        rng = np.random.default_rng(config.seed)
    if config.model == BA:
        return _generate_ba(config, rng)
    return _generate_dms(config, rng)


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
