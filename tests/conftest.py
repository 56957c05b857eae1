import numpy as np
from hypothesis import strategies as st

from coopsim.network import Graph


def random_connected_graph(n: int, rng: np.random.Generator,
                           extra_edges: int | None = None) -> Graph:
    """Random connected simple graph: a random spanning tree plus extra edges."""
    edges = set()
    order = rng.permutation(n)
    for i in range(1, n):
        u = int(order[rng.integers(i)])
        v = int(order[i])
        edges.add((min(u, v), max(u, v)))
    if extra_edges is None:
        extra_edges = int(rng.integers(0, 2 * n))
    for _ in range(extra_edges):
        u, v = rng.integers(0, n, size=2)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph.from_edges(n, sorted(edges))


def is_homogeneous(s: np.ndarray) -> bool:
    """True iff every agent holds the same strategy."""
    return bool(np.all(s == s[0]))


def boundary(g: Graph, s: np.ndarray) -> np.ndarray:
    """Agents with at least one neighbor of the other strategy, by a
    per-node loop."""
    return np.array([i for i in range(g.n) if np.any(s[g.neighbors(i)] != s[i])],
                    dtype=np.int64)


def diameter(g: Graph) -> int:
    """Longest shortest path, by BFS from every node."""
    best = 0
    dist = np.empty(g.n, dtype=np.int64)
    for src in range(g.n):
        dist.fill(-1)
        dist[src] = 0
        frontier = [src]
        while frontier:
            nxt = []
            for u in frontier:
                for v in g.neighbors(u):
                    if dist[v] < 0:
                        dist[v] = dist[u] + 1
                        nxt.append(int(v))
            frontier = nxt
        best = max(best, int(dist.max()))
    return best


@st.composite
def connected_graphs(draw, max_n: int = 30) -> Graph:
    """Hypothesis strategy: random connected graphs, and hubs (a star plus a
    few leaf-leaf edges) whose centre has many equally placed neighbors."""
    n = draw(st.integers(2, max_n))
    if draw(st.booleans()):
        seed = draw(st.integers(0, 2**32 - 1))
        return random_connected_graph(n, np.random.default_rng(seed))
    hub = draw(st.integers(0, n - 1))
    leaves = [i for i in range(n) if i != hub]
    edges = {(min(hub, i), max(hub, i)) for i in leaves}
    if n > 2:
        pairs = st.lists(st.tuples(st.sampled_from(leaves), st.sampled_from(leaves)),
                         max_size=n)
        edges |= {(min(u, v), max(u, v)) for u, v in draw(pairs) if u != v}
    return Graph.from_edges(n, sorted(edges))
