"""Shared test helpers: graph builders, hypothesis strategies, the numpy
oracles of the compiled loops' rules, and the per-node and per-pair forms
of library concepts that only tests use.

The payment and score rules have one program form, in coopsim's _loops.c;
eligible_set and scores_from_counts here are their numpy oracles, and read
no compiled code."""

import json

import numpy as np
from hypothesis import strategies as st

from coopsim import dynamics
from coopsim.game import PayoffParams
from coopsim.interference import NEB, NI, POP, InterferenceConfig
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


def step_deterministic(g: Graph, s: np.ndarray, scores: np.ndarray,
                       rng: np.random.Generator) -> np.ndarray:
    """Numpy oracle of one imitate-best step: every agent imitates its
    highest-scoring neighbor, simultaneously.

    Returns the agents that switch, ascending: those whose best neighbor
    strictly outscores them and holds the other strategy. Ties among equally
    best neighbors are broken uniformly with one draw per node.
    """
    rows = csr_rows(g)
    nbr_scores = scores[g.indices]
    best = np.full(g.n, -np.inf)
    np.maximum.at(best, rows, nbr_scores)

    # Pick uniformly among the tied best neighbors of each node: tiepos
    # lists the CSR positions of all ties, grouped by node, so a node's
    # k-th tie (k = floor(u * count)) sits at its group start plus k.
    tiepos = (nbr_scores == best[rows]).nonzero()[0]
    tie_counts = np.bincount(rows[tiepos], minlength=g.n)
    u = rng.random(g.n)
    u *= tie_counts
    pick = u.astype(np.int64)
    np.minimum(pick, tie_counts - 1, out=pick)
    pick += np.cumsum(tie_counts)
    pick -= tie_counts
    best_neighbor = g.indices[tiepos[pick]]

    return ((best > scores) & (s[best_neighbor] != s)).nonzero()[0]


def step_stochastic(g: Graph, s: np.ndarray, front: np.ndarray, score, K: float,
                    rng: np.random.Generator) -> np.ndarray:
    """Numpy oracle of one Fermi step: every agent draws one random neighbor
    and copies it with Fermi probability; returns the agents that switch,
    ascending when front is.

    Each call draws 2n uniforms whatever front holds: n neighbor picks, then
    n copy decisions, one per agent in node order. Copying a neighbor of
    one's own strategy changes nothing, so only the agents in front pick,
    and only those whose pick disagrees are scored and decide. front must
    hold every agent with a neighbor of the other strategy (it may hold
    more), and score(nodes) returns the scores of the given agents. Picks,
    scores and the Fermi probability (dynamics.fermi_probability, once per
    call over the deciding agents) are elementwise, so every decision is
    the one an evaluation over all agents would make.
    """
    u = rng.random(2 * g.n)
    u_pick, u_copy = u[:g.n], u[g.n:]
    degrees = g.degrees[front]
    offset = np.minimum((u_pick[front] * degrees).astype(np.int64), degrees - 1)
    neighbor = g.indices[g.indptr[front] + offset]
    differ = (s[neighbor] != s[front]).nonzero()[0]
    agents = front[differ]
    f = score(np.concatenate([agents, neighbor[differ]]))
    p_copy = dynamics.fermi_probability(f[:agents.size], f[agents.size:], K)
    return agents[(u_copy[agents] < p_copy).nonzero()[0]]


def fermi_replicate(g: Graph, is_coop: np.ndarray, payoff: PayoffParams,
                    icfg: InterferenceConfig, percentile: np.ndarray | None, K: float,
                    rng: np.random.Generator, coop: np.ndarray,
                    invested: np.ndarray) -> int | None:
    """Numpy oracle of dynamics.step_stochastic, with its arguments and its
    effects: every Fermi generation of one replicate.

    Each generation recounts the neighbor counts, pays through
    eligible_set, scores through scores_from_counts and steps with
    step_stochastic over the agents with a neighbor of the other strategy;
    all three are looked up in this module when called, so a test can
    observe them.
    """
    bonus = np.array([0.0, icfg.theta if icfg.active else 0.0])

    def score(nodes):
        """This generation's scores of nodes, endowment included."""
        f = scores_from_counts(is_coop[nodes], nc[nodes], payoff)
        if icfg.active:
            f = f + bonus.take(eligible[nodes])
        return f

    for gen in range(coop.size):
        n_coop = int(np.count_nonzero(is_coop))
        if n_coop in (0, g.n):
            coop[gen:] = n_coop / g.n
            return gen
        coop[gen] = n_coop / g.n
        nc = count_neighbors(g, is_coop)
        if icfg.active:
            eligible = eligible_set(g, percentile, is_coop, nc, n_coop, icfg)
            invested[gen] = np.count_nonzero(eligible)
        front = (nc != np.where(is_coop, g.degrees, 0)).nonzero()[0]
        switched = step_stochastic(g, is_coop, front, score, K, rng)
        is_coop[switched] = ~is_coop[switched]
    return None


def csr_rows(g: Graph) -> np.ndarray:
    """The node each CSR entry belongs to: row k owns g.indices[k]."""
    return np.repeat(np.arange(g.n), g.degrees)


def count_neighbors(g: Graph, mask: np.ndarray) -> np.ndarray:
    """Per node, how many of its neighbors have mask set (float64; the
    counts are small integers, so they are exact)."""
    return np.bincount(csr_rows(g), weights=mask[g.indices], minlength=g.n)


def scores_from_counts(coop: np.ndarray, nc: np.ndarray, p: PayoffParams) -> np.ndarray:
    """Numpy oracle of the compiled loops' score: each node's summed payoff
    from its cooperator mask coop and its count of cooperating neighbors nc.

    A cooperator earns 1 per cooperating neighbor, a defector earns b per
    cooperating neighbor; defecting neighbors contribute nothing.
    """
    # Indexed by the coop flag: b for a defector (False), 1 for a cooperator.
    return np.array([p.b, 1.0]).take(coop) * nc


def eligible_set(g: Graph | None, percentile: np.ndarray | None, coop: np.ndarray,
                 nc: np.ndarray | None, n_coop: int, cfg: InterferenceConfig) -> np.ndarray:
    """Numpy oracle of the compiled loops' payment rule: the mask of
    cooperators meeting every active scheme's condition. An empty scheme
    set yields an empty mask.

    The population enters as its cooperator mask coop, the number of
    cooperators n_coop and each node's count of cooperating neighbors nc.
    The mask is sized from coop: g and nc are read only when NEB is
    active, percentile (the graph's degree_percentiles) only when NI is.
    Each node appears once, so the endowment is paid at most once however
    many schemes it satisfies.
    """
    out = coop.copy() if cfg.active else np.zeros(coop.shape, dtype=bool)
    for scheme in cfg.schemes:
        if scheme == POP:
            # All or nothing: the global cooperator fraction decides for everyone.
            out &= n_coop / coop.size <= cfg.p_c
        elif scheme == NEB:
            out &= nc / g.degrees <= cfg.n_c
        else:
            out &= percentile >= cfg.c_I
    return out


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
    """Sum of one-shot payoffs of each node against all its neighbors, by
    count_neighbors and scores_from_counts."""
    if len(s) != g.n:
        raise ValueError(f"strategy vector length {len(s)} != graph size {g.n}")
    coop = s == COOPERATE
    return scores_from_counts(coop, count_neighbors(g, coop), p)


def eligible(g: Graph | None, percentile: np.ndarray | None, s: np.ndarray,
             cfg: InterferenceConfig) -> np.ndarray:
    """eligible_set on a population given by its strategy vector alone; g may
    be None unless NEB is active."""
    coop = s == COOPERATE
    nc = None if g is None else count_neighbors(g, coop)
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
