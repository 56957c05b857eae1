"""Shared test helpers: graph builders, hypothesis strategies, the oracles
of the compiled library's draws and rules, and the per-node and per-pair
forms of library concepts that only tests use.

The payment and score rules and the Fermi copy probability have one
program form, in coopsim's _loops.c; eligible_set, scores_from_counts and
fermi_probability here are their oracles, and read no compiled code.
replicate is the one numpy oracle of a whole replicate under either
update rule, and simulate of a whole run_simulation; matches_the_oracle
holds the program to them. The library draws every random number itself;
numpy.random is the oracle of each draw, and pcg64_words and
pcg64_generator carry a generator between numpy's form and the library's
uint64[4] array. A Graph's arrays are read-only memoryviews: the oracles
read them through np.asarray, which copies nothing."""

import math
import sys
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import strategies as st

from coopsim import dynamics
from coopsim.engine import (
    HOMOGENEOUS_C, HOMOGENEOUS_D, MIXED, RunConfig, RunResult, run_simulation)
from coopsim.game import PayoffParams
from coopsim.interference import NEB, NI, POP, InterferenceConfig
from coopsim.network import BA, DMS, Graph, NetworkConfig

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


def path_graph(n: int) -> Graph:
    """Nodes 0 to n - 1 in a line."""
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(leaves: int) -> Graph:
    """Node 0 joined to each of the leaves 1 to leaves."""
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


# A 128-bit number's low and high 64-bit words.
_LOW = (1 << 64) - 1


def pcg64_words(rng) -> np.ndarray:
    """The library's generator array (coopsim._loops.generator) of a numpy
    PCG64, or of a Generator over one: the state, then the increment, each
    low word first. A 32-bit half that numpy holds back for its next 32-bit
    draw is not carried: the library's loops draw whole outputs."""
    bitgen = getattr(rng, "bit_generator", rng)
    state = bitgen.state["state"]
    return np.array([state["state"] & _LOW, state["state"] >> 64,
                     state["inc"] & _LOW, state["inc"] >> 64], dtype=np.uint64)


def pcg64_generator(words: np.ndarray) -> np.random.Generator:
    """A numpy Generator over a PCG64 in the state of the generator array
    words."""
    low, high, inc_low, inc_high = map(int, words)
    bitgen = np.random.PCG64()
    bitgen.state = {"bit_generator": "PCG64",
                    "state": {"state": high << 64 | low, "inc": inc_high << 64 | inc_low},
                    "has_uint32": 0, "uinteger": 0}
    return np.random.Generator(bitgen)


def reference_generate_ba(config: NetworkConfig, rng: np.random.Generator) -> Graph:
    """Numpy oracle of BA growth, one draw per call: from the single edge
    (0, 1), each new node draws uniformly from the flat edge list until it
    holds 2 distinct targets."""
    ends = [0, 1]
    for new in range(2, config.n):
        targets = set()
        while len(targets) < 2:
            targets.add(ends[rng.integers(len(ends))])
        for t in sorted(targets):
            ends += (t, new)
    return reference_from_edges(config.n, np.array(ends, dtype=np.int64).reshape(-1, 2))


def reference_generate_dms(config: NetworkConfig, rng: np.random.Generator) -> Graph:
    """Numpy oracle of DMS growth: from the triangle, node k (k >= 3) picks
    one of the 2k - 3 edges before it and joins both its ends. The bounds
    are known in advance, so one call draws every pick, from the same
    stream as one call per node."""
    n = config.n
    picks = rng.integers(0, np.arange(3, 2 * n - 3, 2)).tolist()
    src, dst = [0, 0, 1], [1, 2, 2]
    for new, k in zip(range(3, n), picks):
        src += (src[k], dst[k])
        dst += (new, new)
    return reference_from_edges(n, np.array((src, dst), dtype=np.int64).T)


REFERENCE_GENERATE = {BA: reference_generate_ba, DMS: reference_generate_dms}


def reference_from_edges(n: int, edges) -> Graph:
    """Numpy oracle of Graph.from_edges on E (u, v) pairs, the CSR by a
    lexsort: both directions of every edge stacked as (row, neighbor)
    pairs and ordered by row, then neighbor, so each row ascends whatever
    the pairs' order, each array read-only as Graph.from_edges gives it.
    The growth oracles build their graphs with it, so they hold the
    library's CSR build of growth's edges, taken in their order, to it
    too."""
    edges = np.asarray(edges, dtype=np.int64)
    both = np.concatenate([edges, edges[:, ::-1]])
    both = both[np.lexsort((both[:, 1], both[:, 0]))]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(both[:, 0], minlength=n), out=indptr[1:])
    return Graph(n, *(memoryview(a).toreadonly()
                      for a in (indptr, np.ascontiguousarray(both[:, 1]))))


def step_deterministic(g: Graph, s: np.ndarray, scores: np.ndarray,
                       rng: np.random.Generator) -> np.ndarray:
    """Numpy oracle of one imitate-best step: every agent imitates its
    highest-scoring neighbor, simultaneously.

    Returns the agents that switch, ascending: those whose best neighbor
    strictly outscores them and holds the other strategy. Ties among equally
    best neighbors are broken uniformly with one draw per node.
    """
    rows, indices = csr_rows(g), np.asarray(g.indices)
    nbr_scores = scores[indices]
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
    best_neighbor = indices[tiepos[pick]]

    return ((best > scores) & (s[best_neighbor] != s)).nonzero()[0]


# exp() overflows just above this; the probability has saturated long before.
MAX_EXPONENT = 700.0


def fermi_probability(f_a, f_b, K):
    """Oracle of the compiled Fermi loop's copy probability: that an agent
    with score f_a copies one with score f_b.

    Evaluates (1 + exp((f_a - f_b) / K))**-1, clipping the exponent so the
    result saturates to 0/1 instead of overflowing. exp is math.exp, which
    calls the C library's exp, the one the loop calls; numpy's may differ
    from it by an ulp. Works elementwise and always returns an array, 0-d
    for scalar scores.
    """
    z = np.minimum(np.maximum((np.asarray(f_a, dtype=np.float64) - f_b) / K,
                              -MAX_EXPONENT), MAX_EXPONENT)
    exp_z = np.array([math.exp(x) for x in z.ravel().tolist()]).reshape(z.shape)
    return 1.0 / (1.0 + exp_z)


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
    scores and the Fermi probability (fermi_probability, once per call over
    the deciding agents, looked up in this module when called) are
    elementwise, so every decision is the one an evaluation over all agents
    would make.
    """
    u = rng.random(2 * g.n)
    u_pick, u_copy = u[:g.n], u[g.n:]
    degrees = node_degrees(g)[front]
    offset = np.minimum((u_pick[front] * degrees).astype(np.int64), degrees - 1)
    neighbor = np.asarray(g.indices)[np.asarray(g.indptr)[front] + offset]
    differ = (s[neighbor] != s[front]).nonzero()[0]
    agents = front[differ]
    f = score(np.concatenate([agents, neighbor[differ]]))
    p_copy = fermi_probability(f[:agents.size], f[agents.size:], K)
    return agents[(u_copy[agents] < p_copy).nonzero()[0]]


def replicate(g: Graph, is_coop: np.ndarray, payoff: PayoffParams,
              icfg: InterferenceConfig, K: float | None, rng: np.random.Generator,
              coop: np.ndarray, invested: np.ndarray) -> int | None:
    """Numpy oracle of dynamics.step_stochastic, or with K None of
    dynamics.step_deterministic, with their arguments and their effects:
    every generation of one replicate.

    Each generation absorbs or records the cooperator fraction, recounts
    the neighbor counts, pays through eligible_set, scores through
    scores_from_counts plus the endowment, steps with step_deterministic,
    or with step_stochastic over the agents with a neighbor of the other
    strategy, and flips the switchers. Every helper is looked up in this
    module when called, so a test can observe it. Under NI it reads the
    graph's degree_percentiles, derived here; _loops.run hands the loop
    their threshold as one degree instead.
    """
    percentile = degree_percentiles(g) if NI in icfg.schemes else None
    bonus = np.array([0.0, icfg.theta if icfg.active else 0.0])

    def score(nodes):
        """This generation's scores of nodes, endowment included."""
        return (scores_from_counts(is_coop[nodes], nc[nodes], payoff)
                + bonus.take(eligible[nodes]))

    for gen in range(coop.size):
        n_coop = int(np.count_nonzero(is_coop))
        if n_coop in (0, g.n):
            coop[gen:] = n_coop / g.n
            return gen
        coop[gen] = n_coop / g.n
        nc = count_neighbors(g, is_coop)
        eligible = eligible_set(g, percentile, is_coop, nc, n_coop, icfg)
        invested[gen] = np.count_nonzero(eligible)
        if K is None:
            switched = step_deterministic(g, is_coop, score(np.arange(g.n)), rng)
        else:
            front = (nc != np.where(is_coop, node_degrees(g), 0)).nonzero()[0]
            switched = step_stochastic(g, is_coop, front, score, K, rng)
        is_coop[switched] = ~is_coop[switched]
    return None


def simulate(cfg: RunConfig, g: Graph) -> RunResult:
    """Oracle of engine.run_simulation: the start drawn as it draws it, from
    a generator seeded with cfg.run_seed, then every generation through
    replicate, looked up in this module when called. total_cost and
    mean_coop are correctly rounded sums, as engine's."""
    rng = np.random.default_rng(cfg.run_seed)
    is_coop = rng.integers(0, 2, g.n, dtype=np.int8).view(bool)
    coop = np.empty(cfg.horizon)
    invested = np.zeros(cfg.horizon, dtype=np.int64)
    absorbed_at = replicate(g, is_coop, cfg.payoff, cfg.interference, cfg.update.K, rng,
                            coop, invested)
    cost = (cfg.interference.theta or 0.0) * invested
    n_coop = np.count_nonzero(is_coop)
    return RunResult(
        coop=coop, invested=invested, cost=cost, total_cost=math.fsum(cost),
        mean_coop=math.fsum(coop[-cfg.stats_window:]) / cfg.stats_window,
        absorbed_at=absorbed_at,
        final_state=(HOMOGENEOUS_C if n_coop == g.n
                     else HOMOGENEOUS_D if n_coop == 0 else MIXED))


class Planted(NamedTuple):
    """What a loop entry point or replicate fills and returns, run from a
    planted start."""

    coop: np.ndarray
    invested: np.ndarray
    absorbed_at: int | None


def planted(cfg: RunConfig, g: Graph, initial: np.ndarray, oracle: bool) -> Planted:
    """cfg's rule run on g from a copy of the mask initial, with a generator
    seeded with cfg.run_seed: through its compiled loop's entry point,
    dynamics.step_deterministic or dynamics.step_stochastic, with the
    generator as its array, or with oracle through replicate, each looked
    up when called."""
    is_coop, rng = initial.copy(), np.random.default_rng(cfg.run_seed)
    coop, invested = np.empty(cfg.horizon), np.zeros(cfg.horizon, dtype=np.int64)
    K, common = cfg.update.K, (g, is_coop, cfg.payoff, cfg.interference)
    if oracle:
        absorbed_at = replicate(*common, K, rng, coop, invested)
        return Planted(coop, invested, absorbed_at)
    rng = pcg64_words(rng)
    if K is None:
        absorbed_at = dynamics.step_deterministic(*common, rng, coop, invested)
    else:
        absorbed_at = dynamics.step_stochastic(*common, K, rng, coop, invested)
    return Planted(coop, invested, absorbed_at)


def matches_the_oracle(cfg: RunConfig, g: Graph, initial: np.ndarray | None = None):
    """Run cfg on g through the program and through the oracle, and assert
    that they agree bit for bit. Without initial, run_simulation(cfg, g)
    against simulate(cfg, g): every RunResult field. With initial, planted
    against its oracle: coop, invested and absorbed_at. Either way the final
    cooperator masks and the generators' end states must agree too; spies
    on the loops' entry points and on replicate read them. Returns the
    program's result (a RunResult, or with initial a Planted), final mask
    and generator end state, as a generator array."""
    this, ends = sys.modules[__name__], []

    def keep_end(step):
        def spy(g, is_coop, *rest):
            absorbed_at = step(g, is_coop, *rest)
            rng = rest[-3]  # rng, coop, invested
            ends.append((np.asarray(is_coop), pcg64_words(rng)
                         if isinstance(rng, np.random.Generator) else np.array(rng)))
            return absorbed_at
        return spy

    with pytest.MonkeyPatch.context() as mp:
        for module, name in ((dynamics, "step_deterministic"), (dynamics, "step_stochastic"),
                             (this, "replicate")):
            mp.setattr(module, name, keep_end(getattr(module, name)))
        if initial is None:
            got, want = run_simulation(cfg, g), simulate(cfg, g)
        else:
            got, want = (planted(cfg, g, initial, oracle) for oracle in (False, True))
    for name in ("coop", "invested"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    if initial is None:
        assert np.array_equal(got.cost, want.cost), "cost"
        for name in ("total_cost", "mean_coop", "final_state"):
            assert getattr(got, name) == getattr(want, name), name
    assert got.absorbed_at == want.absorbed_at, "absorbed_at"
    (got_final, got_state), (want_final, want_state) = ends
    assert np.array_equal(got_final, want_final)
    assert np.array_equal(got_state, want_state)
    return got, got_final, got_state


def degree_percentiles(g: Graph) -> np.ndarray:
    """Percentile rank of each node's degree: the fraction of other nodes
    with strictly lower degree. _loops.ni_degree turns NI's threshold on
    it into a degree."""
    degrees = node_degrees(g)
    return np.searchsorted(np.sort(degrees), degrees, side="left") / (g.n - 1)


def node_degrees(g: Graph) -> np.ndarray:
    """Each node's degree, the length of its CSR row."""
    return np.diff(g.indptr)


def edges(g: Graph) -> list[list[int]]:
    """The canonical edge list, [u, v] pairs with u < v, lexicographically
    sorted: the CSR entries whose row is below their neighbor, in CSR
    order."""
    return [[u, v] for u in range(g.n) for v in g.indices[g.indptr[u]:g.indptr[u + 1]]
            if u < v]


def csr_rows(g: Graph) -> np.ndarray:
    """The node each CSR entry belongs to: row k owns g.indices[k]."""
    return np.repeat(np.arange(g.n), node_degrees(g))


def count_neighbors(g: Graph, mask: np.ndarray) -> np.ndarray:
    """Per node, how many of its neighbors have mask set (float64; the
    counts are small integers, so they are exact)."""
    return np.bincount(csr_rows(g), weights=mask[np.asarray(g.indices)], minlength=g.n)


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
            out &= nc / node_degrees(g) <= cfg.n_c
        else:
            out &= percentile >= cfg.c_I
    return out


def neighbors(g: Graph, i: int) -> np.ndarray:
    """Sorted neighbor ids of node i."""
    return np.asarray(g.indices[g.indptr[i]:g.indptr[i + 1]])


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
    degs = node_degrees(g)
    triples = int(np.sum(degs * (degs - 1) // 2))
    if triples == 0:
        return 0.0
    adj = [set(neighbors(g, i).tolist()) for i in range(g.n)]
    # Each triangle is counted once per edge.
    closed = sum(len(adj[u] & adj[v]) for u, v in edges(g))
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
