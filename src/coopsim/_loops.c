/* coopsim's compiled library: every random number coopsim draws, the CSR
 * build of a graph and the generation loops.
 *
 * The random numbers are numpy's SeedSequence, PCG64 and Generator draws,
 * written out: the seeds a sweep derives, each run's generator and start,
 * the growth of both network models, and the loops' uniforms.
 * tests/test_engine.py holds each to numpy.random as its oracle. So the
 * CSV bytes follow this file, not numpy's Generator, whose methods NEP 19
 * lets change between numpy releases.
 *
 * A loop runs one imitate-best or one Fermi replicate on a CSR graph per
 * call, from the initial cooperator mask to the horizon or absorption.
 * coopsim._loops.run, their one caller, calls them through ctypes, and
 * coopsim.dynamics' two rules forward to it. They hold the
 * only program form of the payment rule (coopsim.interference's POP, NEB
 * and NI), of the score (coopsim.game's matrix) and of the Fermi copy
 * probability; tests/conftest.py holds the oracles of all three.
 * coopsim._loops builds this file with -ffp-contract=off, so
 * b * nc + theta is never fused into one rounding. No loop calls back
 * into Python.
 *
 * Each generation of either loop, as the tests' numpy oracles do it:
 *   - absorb when every agent plays one strategy, filling coop to the end;
 *   - record the cooperator fraction;
 *   - pay theta to the cooperators meeting every active scheme (POP, NEB,
 *     NI), and count them in invested (the Fermi loop counts them from
 *     coop_ni and the front: see it);
 *   - score: nc for a cooperator, b * nc for a defector, plus the payment;
 *   - step, every agent deciding from the same scores (see each loop);
 *   - move the switchers' neighbors' counts by one each.
 * The counts are small integers, exact in a double.
 *
 * Both loops draw from the run's PCG64 generator, stepping it in place.
 *
 * Each call of a loop allocates one work block for all its arrays and
 * frees it before it returns; it borrows no array but the caller's. The
 * loops return the absorption generation, -1 when the run reaches the
 * horizon mixed, or -2 when the work block cannot be allocated. */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* numpy's SeedSequence (numpy/random/bit_generator.pyx): the entropy words
 * are hashed into a pool of 4 words, and the output words out of it.
 * coopsim._loops passes an int as its 32-bit words, least significant
 * first (one word for 0), and several ints as theirs one after the other,
 * as bytes in the machine's (little-endian) order. */
#define POOL 4

static uint32_t hashmix(uint32_t value, uint32_t *hash)
{
    value ^= *hash;
    *hash *= 0x931e8875u;
    value *= *hash;
    return value ^ value >> 16;
}

static uint32_t mix(uint32_t x, uint32_t y)
{
    uint32_t result = 0xca01f9ddu * x - 0x4973f715u * y;
    return result ^ result >> 16;
}

/* SeedSequence(entropy).generate_state(n_out, uint32), from n_entropy
 * words. */
void coopsim_seed_sequence(const uint8_t *entropy, int64_t n_entropy, uint32_t *out,
                           int64_t n_out)
{
    uint32_t pool[POOL], hash = 0x43b0d7e5u, word;
    for (int i = 0; i < POOL; i++) {
        word = 0;  /* past the entropy, the hash runs on over 0 */
        if (i < n_entropy)
            memcpy(&word, entropy + 4 * i, sizeof word);
        pool[i] = hashmix(word, &hash);
    }
    for (int src = 0; src < POOL; src++)
        for (int dst = 0; dst < POOL; dst++)
            if (src != dst)
                pool[dst] = mix(pool[dst], hashmix(pool[src], &hash));
    for (int64_t src = POOL; src < n_entropy; src++) {
        memcpy(&word, entropy + 4 * src, sizeof word);
        for (int dst = 0; dst < POOL; dst++)
            pool[dst] = mix(pool[dst], hashmix(word, &hash));
    }
    hash = 0x8b51f9ddu;
    for (int64_t i = 0; i < n_out; i++) {
        word = pool[i % POOL] ^ hash;
        hash *= 0x58f38dedu;
        word *= hash;
        out[i] = word ^ word >> 16;
    }
}

/* numpy's PCG64 (numpy/random/src/pcg64/pcg64.h; O'Neill, HMC-CS-2014-0905):
 * a 128-bit LCG stepped before each output, with the XSL-RR output. A
 * generator reaches the library as a contiguous uint64[4] array, the state
 * then the increment, each low word first. Such an array is aligned to 8
 * bytes only, so each call copies it into a struct pcg64 and back with
 * memcpy. A double is the top 53 bits of one output. coopsim._loops checks
 * seeded draws against pinned numpy values when it loads the library. */
typedef unsigned __int128 u128;
struct pcg64 { u128 state, inc; };

static const u128 PCG_MULT = (u128)0x2360ed051fc65da4ULL << 64 | 0x4385df649fccf645ULL;

static inline uint64_t xsl_rr(u128 state)
{
    uint64_t x = (uint64_t)(state >> 64) ^ (uint64_t)state;
    unsigned rot = (unsigned)(state >> 122);
    return x >> rot | x << (-rot & 63);
}

/* The double an LCG state outputs: XSL-RR, then the top 53 bits. */
static inline double output(u128 state)
{
    return (double)(xsl_rr(state) >> 11) * (1.0 / 9007199254740992.0);
}

/* PCG64(SeedSequence(entropy)) into generator: numpy's pcg64_set_seed of
 * 8 words of the sequence, paired low word first into 4 uint64. */
void coopsim_pcg64_seed(const uint8_t *entropy, int64_t n_entropy, uint64_t *generator)
{
    uint32_t w[8];
    coopsim_seed_sequence(entropy, n_entropy, w, 8);
    u128 v[4];
    for (int k = 0; k < 4; k++)
        v[k] = (u128)w[2 * k + 1] << 32 | w[2 * k];
    struct pcg64 rng = {0, (v[2] << 64 | v[3]) << 1 | 1};
    rng.state = rng.state * PCG_MULT + rng.inc;
    rng.state += v[0] << 64 | v[1];
    rng.state = rng.state * PCG_MULT + rng.inc;
    memcpy(generator, &rng, sizeof rng);
}

/* numpy's next_uint32 for PCG64: the low half of one output, then its high
 * half at the next draw. The waiting half lives for one call: a generator
 * array holds none, and the loops draw whole outputs. */
struct halves { struct pcg64 rng; uint32_t high; int has_high; };

static inline uint32_t next_uint32(struct halves *h)
{
    if (h->has_high) {
        h->has_high = 0;
        return h->high;
    }
    h->rng.state = h->rng.state * PCG_MULT + h->rng.inc;
    uint64_t x = xsl_rr(h->rng.state);
    h->high = (uint32_t)(x >> 32);
    h->has_high = 1;
    return (uint32_t)x;
}

/* numpy's integers(0, bound) for 2 <= bound < 2^32: Lemire's multiply and
 * reject (ACM TOMACS 29(1), 2019) on 32-bit draws. */
static inline int64_t bounded(struct halves *h, uint32_t bound)
{
    uint64_t m = (uint64_t)next_uint32(h) * bound;
    if ((uint32_t)m < bound) {
        uint32_t threshold = -bound % bound;
        while ((uint32_t)m < threshold)
            m = (uint64_t)next_uint32(h) * bound;
    }
    return (int64_t)(m >> 32);
}

/* The start, numpy's integers(0, 2, n, dtype=int8) as the cooperator mask:
 * Lemire's draw at bound 2 never rejects and keeps the top bit of a byte,
 * and each uint32 draw gives four bytes, lowest first. */
void coopsim_start(uint64_t *generator, int64_t n, uint8_t *is_coop)
{
    struct halves h = {.has_high = 0};
    memcpy(&h.rng, generator, sizeof h.rng);
    uint32_t bytes = 0;
    for (int64_t i = 0; i < n; i++) {
        if (i % 4 == 0)
            bytes = next_uint32(&h);
        is_coop[i] = bytes >> (8 * (i % 4) + 7) & 1;
    }
    memcpy(generator, &h.rng, sizeof h.rng);
}

/* Grows a BA graph, or with dms a DMS graph, of n >= 3 nodes below 2^30
 * (coopsim.network), drawing each pick as numpy's integers(0, bound), and
 * writes its 2n - 3 edges to edges as (u, v) pairs.
 *
 * BA: from the edge (0, 1), the edge list read flat is the list of ends,
 * each node once per degree unit, so a uniform end is a degree-proportional
 * target. Node k draws one of the 4k - 6 ends before it, then draws again
 * with the same bound until it holds a second node, and joins both,
 * smaller first.
 * DMS: from the triangle, node k draws one of the 2k - 3 edges before it
 * and joins both its ends. */
void coopsim_grow(int64_t dms, int64_t n, uint64_t *generator, int64_t *edges)
{
    struct halves h = {.has_high = 0};
    memcpy(&h.rng, generator, sizeof h.rng);
    if (dms) {
        static const int64_t triangle[6] = {0, 1, 0, 2, 1, 2};
        memcpy(edges, triangle, sizeof triangle);
        for (int64_t k = 3, e = 6; k < n; k++, e += 4) {
            const int64_t *picked = edges + 2 * bounded(&h, (uint32_t)(2 * k - 3));
            int64_t joined[4] = {picked[0], k, picked[1], k};
            memcpy(edges + e, joined, sizeof joined);
        }
    } else {
        edges[0] = 0;
        edges[1] = 1;
        for (int64_t k = 2, e = 2; k < n; k++, e += 4) {  /* e = 4k - 6 ends */
            int64_t first = edges[bounded(&h, (uint32_t)e)], second;
            do
                second = edges[bounded(&h, (uint32_t)e)];
            while (second == first);
            int64_t joined[4] = {first < second ? first : second, k,
                                 first < second ? second : first, k};
            memcpy(edges + e, joined, sizeof joined);
        }
    }
    memcpy(generator, &h.rng, sizeof h.rng);
}

/* The CSR of an undirected graph of n nodes from its m edges, the 2m ends
 * (u, v) of edges pair by pair, each end a node: indptr (n + 1 entries,
 * which the caller zeroes) and indices (2m). Each row lists its node's
 * neighbors in the order its ends appear in edges: ascending for growth's
 * edge lists, and for any list of (min, max) pairs sorted ascending.
 * Each end is counted into the next row's indptr entry, whose prefix sums
 * make indptr[u] row u's start; the fill then writes each end's neighbor
 * at its row's cursor, indptr[u], which leaves it at the row's end, the
 * next row's start; shifting indptr back one entry restores the starts. */
void coopsim_csr(int64_t n, int64_t m, const int64_t *edges, int64_t *indptr,
                 int64_t *indices)
{
    for (int64_t e = 0; e < 2 * m; e++)
        indptr[edges[e] + 1]++;
    for (int64_t i = 0; i < n; i++)
        indptr[i + 1] += indptr[i];
    for (int64_t e = 0; e < 2 * m; e++)
        indices[indptr[edges[e]]++] = edges[e ^ 1];
    memmove(indptr + 1, indptr, n * sizeof *indptr);
    indptr[0] = 0;
}

/* A jump table maps the LCG state d steps ahead, state -> mult * state + add:
 * near[d] for every d below NEAR, and far[k] for d = NEAR * 2^k. Stepping d
 * times applies near[d % NEAR], then the far map of each bit set in
 * d / NEAR; the maps commute. LCG arithmetic is exact mod 2^128, so the
 * state is the one d single steps reach. */
#define NEAR_BITS 8
#define NEAR (1 << NEAR_BITS)
struct map { u128 mult, add; };
struct jumps { struct map near[NEAR], far[64 - NEAR_BITS]; };

static struct map compose(struct map a, struct map b)  /* a, then b */
{
    return (struct map){b.mult * a.mult, b.mult * a.add + b.add};
}

static void jump_table(struct jumps *t, u128 inc)
{
    struct map step = {PCG_MULT, inc};
    t->near[0] = (struct map){1, 0};
    for (int d = 1; d < NEAR; d++)
        t->near[d] = compose(t->near[d - 1], step);
    t->far[0] = compose(t->near[NEAR - 1], step);
    for (int k = 1; k < 64 - NEAR_BITS; k++)
        t->far[k] = compose(t->far[k - 1], t->far[k - 1]);
}

static inline void jump(struct pcg64 *rng, const struct jumps *t, uint64_t steps)
{
    const struct map *m = &t->near[steps % NEAR];
    rng->state = m->mult * rng->state + m->add;
    steps /= NEAR;
    for (int k = 0; steps; k++, steps >>= 1)
        if (steps & 1)
            rng->state = t->far[k].mult * rng->state + t->far[k].add;
}

/* The draw after skipping `skipped` draws: one map of skipped + 1 steps,
 * then the output, with no separate step for the draw itself. */
static inline double draw_after(struct pcg64 *rng, const struct jumps *t, int64_t skipped)
{
    jump(rng, t, (uint64_t)skipped + 1);
    return output(rng->state);
}

/* Who is paid the endowment theta: the cooperators meeting every active
 * scheme. NI arrives as ni_degree, the least degree it pays (0 when NI is
 * off): a degree percentile never falls as the degree grows, so the nodes
 * whose percentile reaches c_I are those of degree >= ni_degree. */
struct pay {
    int active, pop, neb;
    double theta, p_c, n_c;
    int64_t ni_degree;
};

/* One replicate as a loop carries it. */
struct run {
    int64_t n;
    const int64_t *indptr, *indices;  /* the CSR graph */
    const struct pay *pay;
    double mult[2];  /* a node's score per cooperating neighbor, by is_coop: {b, 1} */
    uint8_t *is_coop;
    double *nc;      /* each node's count of cooperating neighbors */
    int64_t n_coop;
    /* Fermi only, NULL under imitate-best: the front, the agents with a
     * neighbor of the other strategy, as a bitmap in node order. */
    uint64_t *front;
    /* Read by the Fermi loop: the cooperators NI pays, every cooperator
     * when NI is off. */
    int64_t coop_ni;
};

static inline int64_t degree(const struct run *r, int64_t i)
{
    return r->indptr[i + 1] - r->indptr[i];
}

/* Whether NI pays node i: every node when NI is off, ni_degree being 0. */
static inline int ni_pays(const struct run *r, int64_t i)
{
    return degree(r, i) >= r->pay->ni_degree;
}

static inline int pop_pays(const struct run *r)
{
    return !r->pay->pop || (double)r->n_coop / (double)r->n <= r->pay->p_c;
}

/* Whether node i is paid, given POP's verdict pop_ok. Each condition is
 * evaluated, and the results combined without branching on them: a branch
 * on a node's strategy is a coin flip to predict. The branches here are on
 * the schemes, the same for every node. */
static inline int paid(const struct run *r, int pop_ok, int64_t i)
{
    const struct pay *pay = r->pay;
    int ok = pay->active & pop_ok & r->is_coop[i];
    if (pay->neb)
        ok &= r->nc[i] / (double)degree(r, i) <= pay->n_c;
    if (pay->ni_degree)
        ok &= ni_pays(r, i);
    return ok;
}

/* Node i's score, given whether it is paid (is_paid, 0 or 1): its
 * multiplier times nc, plus theta * is_paid. Both products are exact:
 * nc * 1 is nc, and a node not paid adds theta * 0 = +0 to a score >= +0,
 * theta being finite. */
static inline double score_of(const struct run *r, int is_paid, int64_t i)
{
    return r->nc[i] * r->mult[r->is_coop[i]] + r->pay->theta * (double)is_paid;
}

/* One generation's payments and keys, key[i] = bits(score_i) << 1 |
 * is_coop[i] for every node. Returns how many are paid. A score is finite
 * and >= +0, never -0.0: counts, b and theta are >= +0, and sums of +0 are
 * +0. So its bits read as an unsigned integer order as the score does,
 * with the sign bit 0 shifted out, and are equal exactly when the scores
 * are: keys order as (score, is_coop) pairs. */
static inline int64_t pay_and_key(const struct run *r, uint64_t *key)
{
    int pop_ok = pop_pays(r);
    int64_t count = 0;
    for (int64_t i = 0; i < r->n; i++) {
        int p = paid(r, pop_ok, i);
        count += p;
        double s = score_of(r, p, i);
        uint64_t bits;
        memcpy(&bits, &s, sizeof bits);
        key[i] = bits << 1 | r->is_coop[i];
    }
    return count;
}

/* The strategy (1 for C) of agent i's tied best neighbor that uniform u
 * picks: the ties are the neighbors whose score bits are best, in CSR
 * order, and the pick min(floor(u * ties), ties - 1). */
static int tied_pick(const struct run *r, const uint64_t *key, int64_t i, uint64_t best,
                     double u)
{
    int64_t ties = 0;
    for (int64_t k = r->indptr[i]; k < r->indptr[i + 1]; k++)
        ties += key[r->indices[k]] >> 1 == best;
    int64_t pick = (int64_t)(u * (double)ties);
    pick = pick < ties ? pick : ties - 1;
    for (int64_t k = r->indptr[i];; k++) {
        uint64_t kj = key[r->indices[k]];
        if (kj >> 1 == best && pick-- == 0)
            return (int)(kj & 1);
    }
}

/* One uniform after skipping `skip_draws`, as numpy's Generator.random()
 * makes it, read through the loops' own draw_after: coopsim._loops
 * compares it with pinned numpy draws when it loads the library. */
double coopsim_pcg64_random(uint64_t *generator, int64_t skip_draws)
{
    struct pcg64 rng;
    struct jumps jumps;
    memcpy(&rng, generator, sizeof rng);
    jump_table(&jumps, rng.inc);
    double u = draw_after(&rng, &jumps, skip_draws);
    memcpy(generator, &rng, sizeof rng);
    return u;
}

/* Sets node x's Fermi front bit, after a change to its strategy or count. */
static inline void enter(struct run *r, int64_t x)
{
    if (!r->front)
        return;
    uint64_t on = r->nc[x] != (r->is_coop[x] ? (double)degree(r, x) : 0.0);
    r->front[x / 64] = (r->front[x / 64] & ~((uint64_t)1 << x % 64)) | on << x % 64;
}

/* Counts each node's cooperating neighbors, the cooperators and those NI
 * pays, and sets every node's Fermi front bit. */
static void start(struct run *r)
{
    r->n_coop = r->coop_ni = 0;
    for (int64_t i = 0; i < r->n; i++) {
        r->n_coop += r->is_coop[i];
        r->coop_ni += r->is_coop[i] & ni_pays(r, i);
        r->nc[i] = 0.0;
        for (int64_t k = r->indptr[i]; k < r->indptr[i + 1]; k++)
            r->nc[i] += r->is_coop[r->indices[k]];
        enter(r, i);
    }
}

/* Records generation gen's cooperator fraction; when the population is
 * homogeneous, fills coop to the horizon with it and returns 1. */
static int absorbed(const struct run *r, int64_t gen, int64_t horizon, double *coop)
{
    double frac = (double)r->n_coop / (double)r->n;
    if (r->n_coop != 0 && r->n_coop != r->n) {
        coop[gen] = frac;
        return 0;
    }
    for (; gen < horizon; gen++)
        coop[gen] = frac;
    return 1;
}

/* Flips the switchers and moves their neighbors' counts: d = +1 for a new
 * cooperator, -1 for a new defector. Under Fermi it also moves coop_ni by
 * each switcher NI pays and sets the front bits of the switchers and their
 * neighbors. Inlined into each loop, so the imitate-best one, whose front
 * is NULL, keeps none of the Fermi bookkeeping. */
static inline __attribute__((always_inline)) void flip(
    struct run *r, const int64_t *switched, int64_t n_switched)
{
    for (int64_t s = 0; s < n_switched; s++) {
        int64_t i = switched[s];
        int c = !r->is_coop[i];
        r->is_coop[i] = (uint8_t)c;
        int64_t d = 2 * c - 1;
        r->n_coop += d;
        if (r->front)
            r->coop_ni += d * ni_pays(r, i);
        enter(r, i);
        for (int64_t k = r->indptr[i]; k < r->indptr[i + 1]; k++) {
            int64_t j = r->indices[k];
            r->nc[j] += (double)d;
            enter(r, j);
        }
    }
}

/* Imitate-best: each agent picks one of its tied best neighbors, in CSR
 * order, with one uniform u per agent in node order:
 * pick = min(floor(u * ties), ties - 1); it switches when that neighbor
 * strictly outscores it and plays the other strategy.
 *
 * The pick matters only when the tied best neighbors play both strategies,
 * some 0.25% of det-grid's rows. So each row's scan keeps two integer
 * maxima of the keys (pay_and_key), max_c of key and max_d of key ^ 1,
 * both from 0. Their high bits are the best score, the same in both; the
 * low bit of max_c says a cooperator ties at it, that of max_d a defector.
 * An agent strictly below the best switches when a neighbor of the other
 * strategy ties, unless one of its own ties too: only then does it rescan
 * its row for the ties, in CSR order, and read its uniform. That branch is
 * almost never taken, so it is predicted. Each uniform read is one LCG map
 * over the draws skipped and the draw itself (draw_after); the generator
 * jumps over the rest at the end, so it ends where n draws a generation
 * leave it.
 *
 * In the oscillating regime some 40% of the agents switch each generation,
 * so a branch on a node's strategy, payment or score is mispredicted about
 * as often as not, and a generation's cost would follow the number of
 * switchers. The generation passes take no such branch but the mixed-tie
 * one: the scores select their multiplier by index, the row scan keeps its
 * maxima with selects, and every agent is written to the switchers list,
 * which grows by one only when it switches. */
int64_t coopsim_imitate_best(
    int64_t n, const int64_t *indptr, const int64_t *indices, double b,
    const struct pay *pay, int64_t horizon, uint8_t *is_coop, double *coop,
    int64_t *invested, uint64_t *generator)
{
    /* The work block: the switchers, the keys, then nc. */
    int64_t *switched = malloc(3 * n * sizeof *switched);
    if (!switched)
        return -2;
    uint64_t *key = (uint64_t *)(switched + n);
    struct run r = {.n = n, .indptr = indptr, .indices = indices, .pay = pay,
                    .mult = {b, 1.0}, .is_coop = is_coop, .nc = (double *)(key + n)};
    struct jumps jumps;
    struct pcg64 rng;
    int64_t absorbed_at = -1;
    memcpy(&rng, generator, sizeof rng);
    jump_table(&jumps, rng.inc);
    start(&r);

    for (int64_t gen = 0; gen < horizon; gen++) {
        if (absorbed(&r, gen, horizon, coop)) {
            absorbed_at = gen;
            break;
        }
        invested[gen] = pay_and_key(&r, key);

        int64_t drawn = 0, n_switched = 0;  /* drawn: this generation's draws used */
        for (int64_t i = 0; i < n; i++) {
            uint64_t max_c = 0, max_d = 0;
            for (int64_t k = indptr[i]; k < indptr[i + 1]; k++) {
                uint64_t kj = key[indices[k]];
                max_c = max_c > kj ? max_c : kj;
                max_d = max_d > (kj ^ 1) ? max_d : kj ^ 1;
            }
            uint64_t best = max_c >> 1;
            int own = (int)(key[i] & 1), better = best > key[i] >> 1;
            /* A tied best neighbor of the other strategy: a defector for a
             * cooperator, a cooperator for a defector. */
            int other = (int)((own ? max_d : max_c) & 1);
            if (max_c & max_d & (uint64_t)better & 1) {
                double u = draw_after(&rng, &jumps, i - drawn);
                drawn = i + 1;
                other = tied_pick(&r, key, i, best, u) != own;
            }
            switched[n_switched] = i;
            n_switched += better & other;
        }
        jump(&rng, &jumps, (uint64_t)(n - drawn));
        flip(&r, switched, n_switched);
    }
    memcpy(generator, &rng, sizeof rng);
    free(switched);
    return absorbed_at;
}

/* exp() overflows just above this; the probability has saturated long
 * before. The same clip as the copy probability's oracle in
 * tests/conftest.py. */
#define MAX_EXPONENT 700.0

/* A Fermi call's memo of the copy probability: 2^MEMO_BITS slots (16 KB)
 * of {score difference f_a - f_b, its p}. Within a call K is fixed, so p is
 * a function of the difference alone, and a run meets few distinct
 * differences. A difference maps to one slot, by the top bits of its bit
 * pattern times a Fibonacci constant, and the slot holds the last one
 * stored there; its key is the exact double, NaN while the slot is empty. */
#define MEMO_BITS 10
#define MEMO_SLOTS (1 << MEMO_BITS)
struct memo { double diff, p; };

static inline struct memo *memo_slot(struct memo *memo, double diff)
{
    uint64_t key;
    memcpy(&key, &diff, sizeof key);
    return &memo[key * 0x9e3779b97f4a7c15ULL >> (64 - MEMO_BITS)];
}

/* The Fermi rule (Szabó & Fáth, Phys. Rep. 446, 2007): each generation
 * draws 2n uniforms, n neighbor picks and then n copy draws, one each per
 * agent in node order. Agent i picks neighbor
 * min(floor(u_pick * degree), degree - 1) in CSR order and copies it when
 * u_copy < p = 1 / (1 + exp(z)), z = (score_i - score_pick) / K clipped to
 * +-MAX_EXPONENT. exp is the C library's, the one Python's math.exp calls,
 * so the oracle's p is this p, bit for bit; numpy's exp may differ from it
 * by an ulp. The loop clips z from above only: below -MAX_EXPONENT,
 * exp(z) is under 2^-53 clipped or not, so 1 + exp(z) rounds to 1 and p is
 * 1 either way. Copying an agreeing neighbor changes nothing, so only the
 * front reads its picks, and only the agents whose pick disagrees read
 * their copy draws. Each draw read is one LCG map, over the draws skipped
 * and the draw itself (draw_after); the generator jumps over the rest at
 * the end. flip keeps the front and the count coop_ni of the cooperators
 * NI pays up to date, so a generation costs the front and the switchers'
 * neighborhoods, not n.
 *
 * invested is counted from coop_ni, and under NEB from the front. Without
 * NEB a cooperator's pay does not depend on its counts, so POP's verdict
 * pays all of coop_ni or none. A cooperator off the front has only
 * cooperating neighbors, so its fraction nc / degree is exactly 1.0
 * (every node of a connected graph has degree >= 1), and no fraction
 * exceeds 1.0. So NEB at n_c >= 1.0 pays all of coop_ni or none too.
 * Below it NEB pays no agent off the front, and the picks pass counts the
 * front's paid agents, behind a branch on NEB: that count is all.
 *
 * Some 46% of the front picks a disagreeing neighbor and some 65% of the
 * deciders switch, so a branch on either is mispredicted about as often
 * as not. The picks and decisions take no branch on a node's strategy or
 * its draw: every front agent is written to agent and pick, and n_deciders
 * grows by whether its pick disagrees; every decider is written to
 * agent[n_switched], and n_switched grows by whether u_copy < p. The
 * branches left are the loop bounds (the front's words and bits, the far
 * jumps over long gaps), the memo's hit or miss and the scheme tests in
 * paid, which are the same for every node.
 *
 * A decider looks its score difference up in the call's memo and computes
 * z and p only on a miss, storing them in the difference's slot. Some 94%
 * of stoch-long's decisions hit, so that branch is mostly predicted, and
 * they pay no division or exp. +0.0 and -0.0 compare equal as keys, and
 * have the same p. */
int64_t coopsim_fermi(
    int64_t n, const int64_t *indptr, const int64_t *indices, double b,
    const struct pay *pay, double K, int64_t horizon, uint8_t *is_coop, double *coop,
    int64_t *invested, uint64_t *generator)
{
    int64_t words = (n + 63) / 64;
    /* The work block: the memo, then agent, pick, nc and the front. */
    struct memo *memo = malloc(MEMO_SLOTS * sizeof *memo + (3 * n + words) * sizeof(int64_t));
    if (!memo)
        return -2;
    for (int s = 0; s < MEMO_SLOTS; s++)
        memo[s].diff = NAN;  /* equal to no difference: every slot starts empty */
    int64_t *agent = (int64_t *)(memo + MEMO_SLOTS);  /* deciders, then switchers */
    int64_t *pick = agent + n;
    struct run r = {.n = n, .indptr = indptr, .indices = indices, .pay = pay,
                    .mult = {b, 1.0}, .is_coop = is_coop, .nc = (double *)(pick + n),
                    .front = (uint64_t *)(pick + 2 * n)};
    memset(r.front, 0, words * sizeof *r.front);
    struct jumps jumps;
    struct pcg64 rng;
    int64_t absorbed_at = -1;
    memcpy(&rng, generator, sizeof rng);
    jump_table(&jumps, rng.inc);
    start(&r);

    for (int64_t gen = 0; gen < horizon; gen++) {
        if (absorbed(&r, gen, horizon, coop)) {
            absorbed_at = gen;
            break;
        }
        int pop_ok = pay->active & pop_pays(&r);  /* also 0 when no scheme is active */

        /* drawn: this generation's draws used; front_paid: counted under NEB */
        int64_t drawn = 0, n_deciders = 0, front_paid = 0;
        for (int64_t w = 0; w < words; w++) {
            for (uint64_t bits = r.front[w]; bits; bits &= bits - 1) {
                int64_t i = w * 64 + __builtin_ctzll(bits), deg = degree(&r, i);
                if (pay->neb)
                    front_paid += paid(&r, pop_ok, i);
                int64_t offset = (int64_t)(draw_after(&rng, &jumps, i - drawn) * (double)deg);
                drawn = i + 1;
                offset = offset < deg - 1 ? offset : deg - 1;
                int64_t j = indices[indptr[i] + offset];
                agent[n_deciders] = i;
                pick[n_deciders] = j;
                n_deciders += is_coop[j] != is_coop[i];
            }
        }
        invested[gen] = pay->neb && pay->n_c < 1.0 ? front_paid : pop_ok * r.coop_ni;

        int64_t n_switched = 0;
        for (int64_t d = 0; d < n_deciders; d++) {
            int64_t i = agent[d], j = pick[d];
            double u = draw_after(&rng, &jumps, n + i - drawn);
            drawn = n + i + 1;
            double diff = score_of(&r, paid(&r, pop_ok, i), i)
                          - score_of(&r, paid(&r, pop_ok, j), j);
            struct memo *m = memo_slot(memo, diff);
            if (m->diff != diff) {
                double z = diff / K;
                z = z < MAX_EXPONENT ? z : MAX_EXPONENT;
                *m = (struct memo){diff, 1.0 / (1.0 + exp(z))};
            }
            agent[n_switched] = i;  /* n_switched <= d: agent[d] is read */
            n_switched += u < m->p;
        }
        jump(&rng, &jumps, 2 * n - drawn);
        flip(&r, agent, n_switched);
    }
    memcpy(generator, &rng, sizeof rng);
    free(memo);
    return absorbed_at;
}
