"""Shared test helpers: graph builders, hypothesis strategies, and the
per-node and per-pair forms of library concepts that only tests use."""

import json

import numpy as np
from hypothesis import strategies as st

from coopsim.game import PayoffParams, scores_from_counts
from coopsim.interference import NEB, NI, POP, InterferenceConfig, eligible_set
from coopsim.network import Graph, NetworkConfig

# int8 strategy labels, the form the per-node and per-pair oracles take;
# the library holds a population as its cooperator mask (labels == C).
COOPERATE, DEFECT = 1, 0


def random_connected_edges(n: int, rng: np.random.Generator,
                           extra_edges: int | None = None) -> list[tuple[int, int]]:
    """The edges of a random connected simple graph, a random spanning tree
    plus extra edges, as sorted (u, v) pairs with u < v."""
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
    return sorted(edges)


def random_connected_graph(n: int, rng: np.random.Generator,
                           extra_edges: int | None = None) -> Graph:
    """Random connected simple graph: a random spanning tree plus extra edges."""
    return Graph.from_edges(n, random_connected_edges(n, rng, extra_edges))


def load_graph(path) -> Graph:
    """The graph in a file gen-net wrote."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    return Graph.from_edges(payload["n"], payload["edges"])


def reference_generate_ba(config: NetworkConfig, rng: np.random.Generator) -> Graph:
    """BA growth with one draw per call: from the single edge (0, 1), each
    new node draws uniformly from the flat edge list until it holds 2
    distinct targets."""
    ends = [0, 1]
    for new in range(2, config.n):
        targets = set()
        while len(targets) < 2:
            targets.add(ends[rng.integers(len(ends))])
        for t in sorted(targets):
            ends += (t, new)
    return Graph.from_edges(config.n, np.array(ends, dtype=np.int64).reshape(-1, 2))


def neighbors(g: Graph, i: int) -> np.ndarray:
    """Sorted neighbor ids of node i."""
    return g.indices[g.indptr[i]:g.indptr[i + 1]]


def coop_fraction(s: np.ndarray) -> float:
    return float(np.count_nonzero(s == COOPERATE)) / len(s)


def pairwise_payoff(s_row: int, s_col: int, p: PayoffParams) -> float:
    """Payoff of the row player in a single encounter."""
    if s_col == DEFECT:
        return 0.0
    return 1.0 if s_row == COOPERATE else p.b


def accumulate_scores(g: Graph, s: np.ndarray, p: PayoffParams) -> np.ndarray:
    """Sum of one-shot payoffs of each node against all its neighbors, by the
    library's neighbor count and scoring."""
    if len(s) != g.n:
        raise ValueError(f"strategy vector length {len(s)} != graph size {g.n}")
    coop = s == COOPERATE
    return scores_from_counts(coop, g.count_neighbors(coop), p)


def eligible(g: Graph | None, percentile: np.ndarray | None, s: np.ndarray,
             cfg: InterferenceConfig) -> np.ndarray:
    """eligible_set on a population given by its strategy vector alone; g may
    be None unless NEB is active."""
    coop = s == COOPERATE
    nc = None if g is None else g.count_neighbors(coop)
    return eligible_set(g, percentile, coop, nc, int(np.count_nonzero(coop)), cfg)


def pop_eligible(s: np.ndarray, p_c: float) -> np.ndarray:
    """All cooperators if the cooperator fraction is at most p_c, else nobody."""
    return eligible(None, None, s, InterferenceConfig(schemes=(POP,), theta=1.0, p_c=p_c))


def neb_eligible(g: Graph, s: np.ndarray, n_c: float) -> np.ndarray:
    """Cooperators whose fraction of cooperating neighbors is at most n_c."""
    return eligible(g, None, s, InterferenceConfig(schemes=(NEB,), theta=1.0, n_c=n_c))


def ni_eligible(percentile: np.ndarray, s: np.ndarray, c_I: float) -> np.ndarray:
    """Cooperators whose degree percentile is at least c_I."""
    return eligible(None, percentile, s,
                    InterferenceConfig(schemes=(NI,), theta=1.0, c_I=c_I))


def global_transitivity(g: Graph) -> float:
    """3 * triangles / connected triples; 0 for graphs with no connected triple."""
    degs = g.degrees.astype(np.int64)
    triples = int(np.sum(degs * (degs - 1) // 2))
    if triples == 0:
        return 0.0
    adj = [set(neighbors(g, i).tolist()) for i in range(g.n)]
    # Each triangle is counted once per edge.
    closed = sum(len(adj[u] & adj[v]) for u, v in g.edges)
    return closed / triples


def fit_degree_exponent(degrees, k_min: int = 2) -> float:
    """Maximum-likelihood power-law exponent of a degree sequence.

    Discrete MLE approximation: alpha = 1 + n / sum(ln(k / (k_min - 1/2)))
    over degrees >= k_min.
    """
    k = np.asarray(degrees, dtype=np.float64)
    k = k[k >= k_min]
    if len(k) == 0:
        raise ValueError(f"no degrees >= k_min={k_min}")
    return 1.0 + len(k) / float(np.sum(np.log(k / (k_min - 0.5))))


def reachable(row) -> bool:
    """Whether a frontier row found a configuration reaching its target."""
    return row.summary is not None


def is_homogeneous(s: np.ndarray) -> bool:
    """True iff every agent holds the same strategy."""
    return bool(np.all(s == s[0]))


def boundary(g: Graph, s: np.ndarray) -> np.ndarray:
    """Agents with at least one neighbor of the other strategy, by a
    per-node loop."""
    return np.array([i for i in range(g.n) if np.any(s[neighbors(g, i)] != s[i])],
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
                for v in neighbors(g, u):
                    if dist[v] < 0:
                        dist[v] = dist[u] + 1
                        nxt.append(int(v))
            frontier = nxt
        best = max(best, int(dist.max()))
    return best


@st.composite
def connected_graphs(draw, min_n: int = 2, max_n: int = 30) -> Graph:
    """Hypothesis strategy: random connected graphs, and hubs (a star plus a
    few leaf-leaf edges) whose centre has many equally placed neighbors."""
    n = draw(st.integers(min_n, max_n))
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
