"""Scale-free network generation and degree percentiles.

Two growth models are supported: classical preferential attachment (BA),
which produces low clustering, and edge-duplication growth (DMS), which
produces the same degree exponent and mean degree but much higher
clustering. Both grow by two edges per new node and yield connected simple
graphs with average degree close to 4. They are the only source of graphs,
so Graph.from_edges builds the CSR of their edge lists without checking
that they describe one. The compiled library grows both (coopsim_grow in
_loops.c, whose comment gives each model's draws), drawing each pick as
numpy's Generator.integers does, and builds each CSR (coopsim_csr); the
numpy growth and CSR build in tests/conftest.py are their oracles. So a
graph's edges follow _loops.c, not numpy's Generator.
"""

from __future__ import annotations

import array
import bisect
import functools
import itertools
from dataclasses import dataclass

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


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable undirected simple connected graph, as grown by generate:
    n and its CSR, indptr and indices, with each node's neighbor list
    ascending. Both are read-only int64 memoryviews in a graph from_edges
    builds, which numpy.asarray reads without a copy. The CSR is the only
    copy of the edges. A graph hashes and compares by identity.
    """

    n: int
    indptr: memoryview   # n + 1 entries: row u is indices[indptr[u]:indptr[u + 1]]
    indices: memoryview  # 2E entries

    @classmethod
    def from_edges(cls, n, edges) -> "Graph":
        """Build the CSR of an undirected edge list. A flat int64
        array.array of the 2E ends, pair by pair, as coopsim._loops.grow
        writes them, is taken in its order: each row lists its node's
        neighbors in the order their edges appear, so the edges must
        already give ascending rows, as growth's do. Any other list of E
        pairs (u, v), in either direction and in any order, is first
        sorted as (min, max) pairs, which gives ascending rows.

        The edges must describe a simple connected graph on nodes 0..n-1,
        each edge listed once; this is not checked, and the library writes
        each end's row unchecked. BA and DMS growth meet it by
        construction: each new node attaches to distinct nodes that are
        already connected."""
        from . import _loops  # imported here: import coopsim.cli loads no library
        if not isinstance(edges, array.array):
            edges = array.array("q", itertools.chain.from_iterable(sorted(map(sorted, edges))))
        return cls(n, *_loops.csr(n, edges))

    @functools.cached_property
    def percentile_by_degree(self) -> list[tuple[int, float]]:
        """Each degree of the graph, ascending, with its percentile: the
        fraction of the other nodes of lower degree. Counted once per
        graph."""
        degrees = sorted(end - start for start, end in zip(self.indptr, self.indptr[1:]))
        return [(degree, bisect.bisect_left(degrees, degree) / (self.n - 1))
                for degree in sorted(set(degrees))]

    @property
    def n_edges(self) -> int:
        """The number of edges; perfbench's tracer reads it."""
        return len(self.indices) // 2


def generate(config: NetworkConfig) -> Graph:
    """Grow a graph for config, from a PCG64 generator seeded with
    config.seed."""
    from . import _loops  # imported here: import coopsim.cli loads no library
    rng = _loops.generator(config.seed)
    return Graph.from_edges(config.n, _loops.grow(config.model, config.n, rng))

