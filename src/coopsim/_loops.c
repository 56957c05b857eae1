/* The compiled generation loops: one imitate-best or one Fermi replicate on
 * a CSR graph per call, from the initial cooperator mask to the horizon or
 * absorption. coopsim.dynamics calls them through ctypes. They hold the
 * only program form of the payment rule (coopsim.interference's POP, NEB
 * and NI) and of the score (coopsim.game's matrix); tests/conftest.py holds
 * the numpy oracles of both. coopsim._loops builds this file with
 * -ffp-contract=off, so b * nc + theta is never fused into one rounding.
 *
 * Each generation of either loop, as the tests' numpy oracles do it:
 *   - absorb when every agent plays one strategy, filling coop to the end;
 *   - record the cooperator fraction;
 *   - pay theta to the cooperators meeting every active scheme (POP, NEB,
 *     NI) and count them in invested;
 *   - score: nc for a cooperator, b * nc for a defector, plus the payment;
 *   - step, every agent deciding from the same scores (see each loop);
 *   - move the switchers' neighbors' counts by one each.
 * The counts are small integers, exact in a double.
 *
 * Both loops draw from the run's numpy PCG64 generator, stepping its state
 * in place, so the generator ends where numpy's own draws would leave it.
 *
 * The loops return the absorption generation, -1 when the run reaches the
 * horizon mixed, or -2 when the work buffers cannot be allocated. */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* numpy's PCG64 (numpy/random/src/pcg64/pcg64.h; O'Neill, HMC-CS-2014-0905):
 * a 128-bit LCG stepped before each output, with the XSL-RR output.
 * bit_generator.ctypes.state_address points at np_pcg64. A double is the
 * top 53 bits of one output. coopsim._loops checks all of this against
 * numpy's own draws when it loads the library. */
typedef unsigned __int128 u128;
struct pcg64 { u128 state, inc; };
struct np_pcg64 { struct pcg64 *rng; int has_uint32; uint32_t uinteger; };

static const u128 PCG_MULT = (u128)0x2360ed051fc65da4ULL << 64 | 0x4385df649fccf645ULL;

static inline double uniform(struct pcg64 *rng)
{
    rng->state = rng->state * PCG_MULT + rng->inc;
    uint64_t x = (uint64_t)(rng->state >> 64) ^ (uint64_t)rng->state;
    unsigned rot = (unsigned)(rng->state >> 122);
    x = x >> rot | x << (-rot & 63);
    return (double)(x >> 11) * (1.0 / 9007199254740992.0);
}

/* A jump table maps the LCG state d steps ahead, state -> mult * state + add:
 * near[d] for every d below NEAR, and far[k] for d = NEAR * 2^k. Skipping d
 * draws applies near[d % NEAR], then the far map of each bit set in
 * d / NEAR; the maps commute. */
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

static inline void skip(struct pcg64 *rng, const struct jumps *t, int64_t d)
{
    const struct map *m = &t->near[d % NEAR];
    rng->state = m->mult * rng->state + m->add;
    d /= NEAR;
    for (int k = 0; d; k++, d >>= 1)
        if (d & 1)
            rng->state = t->far[k].mult * rng->state + t->far[k].add;
}

/* Who is paid the endowment theta: the cooperators meeting every active
 * scheme. percentile (NI's degree percentiles) is NULL unless NI is active. */
struct pay {
    int active, pop, neb;
    double theta, p_c, n_c, c_I;
    const double *percentile;
};

/* One replicate as a loop carries it. */
struct run {
    int64_t n;
    const int64_t *indptr, *indices;  /* the CSR graph */
    const struct pay *pay;
    uint8_t *is_coop;
    double *nc;      /* each node's count of cooperating neighbors */
    int64_t n_coop;
    /* Fermi only, NULL under imitate-best: the front, the agents with a
     * neighbor of the other strategy, as a bitmap in node order. */
    uint64_t *front;
    int64_t meet;    /* Fermi only: the cooperators meeting every scheme but POP */
};

static inline int64_t degree(const struct run *r, int64_t i)
{
    return r->indptr[i + 1] - r->indptr[i];
}

static inline int pop_pays(const struct run *r)
{
    return !r->pay->pop || (double)r->n_coop / (double)r->n <= r->pay->p_c;
}

/* Whether node i is paid, given POP's verdict pop_ok. Each condition is
 * evaluated, and the results combined without branching on them: a branch
 * on a node's strategy is a coin flip to predict. */
static inline int paid(const struct run *r, int pop_ok, int64_t i)
{
    const struct pay *pay = r->pay;
    int ok = pay->active & pop_ok & r->is_coop[i];
    if (pay->neb)
        ok &= r->nc[i] / (double)degree(r, i) <= pay->n_c;
    if (pay->percentile)
        ok &= pay->percentile[i] >= pay->c_I;
    return ok;
}

static inline double score_of(const struct run *r, double b, int pop_ok, int64_t i)
{
    double s = r->is_coop[i] ? r->nc[i] : b * r->nc[i];
    if (paid(r, pop_ok, i))
        s += r->pay->theta;
    return s;
}

/* One generation's payments and scores: score[i] for every node. Returns
 * how many are paid. */
static inline int64_t pay_and_score(const struct run *r, double b, double *score)
{
    int pop_ok = pop_pays(r);
    int64_t count = 0;
    for (int64_t i = 0; i < r->n; i++) {
        int p = paid(r, pop_ok, i);
        count += p;
        score[i] = r->is_coop[i] ? r->nc[i] : b * r->nc[i];
        if (p)
            score[i] += r->pay->theta;
    }
    return count;
}

/* One uniform after skipping `skip_draws`, as numpy's Generator.random()
 * makes it: coopsim._loops compares it with numpy's when it loads the
 * library. */
double coopsim_pcg64_random(struct np_pcg64 *bitgen, int64_t skip_draws)
{
    struct jumps jumps;
    jump_table(&jumps, bitgen->rng->inc);
    skip(bitgen->rng, &jumps, skip_draws);
    return uniform(bitgen->rng);
}

/* The Fermi bookkeeping of node x, around a change to its strategy or count:
 * leave takes its old status out of meet, enter puts its new status in and
 * sets its front bit. */
static inline void leave(struct run *r, int64_t x)
{
    if (r->front)
        r->meet -= paid(r, 1, x);
}

static inline void enter(struct run *r, int64_t x)
{
    if (!r->front)
        return;
    r->meet += paid(r, 1, x);
    uint64_t on = r->nc[x] != (r->is_coop[x] ? (double)degree(r, x) : 0.0);
    r->front[x / 64] = (r->front[x / 64] & ~((uint64_t)1 << x % 64)) | on << x % 64;
}

/* Counts each node's cooperating neighbors and the cooperators, and
 * enters every node into the Fermi bookkeeping. */
static void start(struct run *r)
{
    r->n_coop = 0;
    for (int64_t i = 0; i < r->n; i++) {
        r->n_coop += r->is_coop[i];
        r->nc[i] = 0.0;
        for (int64_t k = r->indptr[i]; k < r->indptr[i + 1]; k++)
            r->nc[i] += r->is_coop[r->indices[k]];
    }
    for (int64_t i = 0; i < r->n; i++)
        enter(r, i);
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

/* Flips the switchers and moves their neighbors' counts. */
static void flip(struct run *r, const int64_t *switched, int64_t n_switched)
{
    for (int64_t s = 0; s < n_switched; s++) {
        int64_t i = switched[s];
        leave(r, i);
        r->is_coop[i] = !r->is_coop[i];
        r->n_coop += r->is_coop[i] ? 1 : -1;
        enter(r, i);
        double d = r->is_coop[i] ? 1.0 : -1.0;
        for (int64_t k = r->indptr[i]; k < r->indptr[i + 1]; k++) {
            int64_t j = r->indices[k];
            leave(r, j);
            r->nc[j] += d;
            enter(r, j);
        }
    }
}

/* Imitate-best: each agent picks one of its tied best neighbors, in CSR
 * order, with one uniform u per agent in node order:
 * pick = min(floor(u * ties), ties - 1); it switches when that neighbor
 * strictly outscores it and plays the other strategy. */
int64_t coopsim_imitate_best(
    int64_t n, const int64_t *indptr, const int64_t *indices, double b,
    const struct pay *pay, int64_t horizon, uint8_t *is_coop, double *coop,
    int64_t *invested, struct np_pcg64 *bitgen)
{
    struct run r = {.n = n, .indptr = indptr, .indices = indices, .pay = pay,
                    .is_coop = is_coop, .nc = malloc(n * sizeof *r.nc)};
    double *score = malloc(n * sizeof *score);
    int64_t *ties = malloc(n * sizeof *ties);  /* a row's tied best neighbors */
    int64_t *switched = malloc(n * sizeof *switched);
    struct pcg64 rng = *bitgen->rng;
    int64_t absorbed_at = -1;
    if (!r.nc || !score || !ties || !switched) {
        absorbed_at = -2;
        goto done;
    }
    start(&r);

    for (int64_t gen = 0; gen < horizon; gen++) {
        if (absorbed(&r, gen, horizon, coop)) {
            absorbed_at = gen;
            break;
        }
        invested[gen] = pay_and_score(&r, b, score);

        /* One pass over each row finds its best score and its ties. Every
         * neighbor is written to the slot after the ties so far and kept
         * only if it ties: conditional moves, not branches on the scores. */
        int64_t n_switched = 0;
        for (int64_t i = 0; i < n; i++) {
            double best = -INFINITY;
            int64_t count = 0;
            for (int64_t k = indptr[i]; k < indptr[i + 1]; k++) {
                double s = score[indices[k]];
                int above = s > best;
                best = above ? s : best;
                count = above ? 0 : count;
                ties[count] = indices[k];
                count += s == best;
            }
            int64_t pick = (int64_t)(uniform(&rng) * (double)count);
            if (pick > count - 1)
                pick = count - 1;
            if (best > score[i] && is_coop[ties[pick]] != is_coop[i])
                switched[n_switched++] = i;
        }
        flip(&r, switched, n_switched);
    }
    bitgen->rng->state = rng.state;

done:
    free(r.nc);
    free(score);
    free(ties);
    free(switched);
    return absorbed_at;
}

/* exp() overflows just above this; the probability has saturated long
 * before. The same clip as coopsim.dynamics.fermi_probability. */
#define MAX_EXPONENT 700.0

/* The Fermi rule (Szabó & Fáth, Phys. Rep. 446, 2007): each generation
 * draws 2n uniforms, n neighbor picks and then n copy draws, one each per
 * agent in node order. Agent i picks neighbor
 * min(floor(u_pick * degree), degree - 1) in CSR order and copies it when
 * u_copy < 1 / (1 + exp(z)), z = (score_i - score_pick) / K clipped to
 * +-MAX_EXPONENT. Copying an agreeing neighbor changes nothing, so only
 * the front reads its picks, and only the agents whose pick disagrees read
 * their copy draws; the generator jumps over the other draws. flip keeps
 * the front and the count of paid cooperators up to date, so a generation
 * costs the front and the switchers' neighborhoods, not n.
 *
 * libm's exp may differ from numpy's by an ulp, and so p by a few. So a
 * copy draw within band of libm's p is decided by the p of
 * fermi_probability(score_i, score_pick), numpy's own. */
int64_t coopsim_fermi(
    int64_t n, const int64_t *indptr, const int64_t *indices, double b,
    const struct pay *pay, double K, double band,
    double (*fermi_probability)(double, double), int64_t horizon, uint8_t *is_coop,
    double *coop, int64_t *invested, struct np_pcg64 *bitgen)
{
    int64_t words = (n + 63) / 64;
    struct run r = {.n = n, .indptr = indptr, .indices = indices, .pay = pay,
                    .is_coop = is_coop, .nc = malloc(n * sizeof *r.nc),
                    .front = calloc(words, sizeof *r.front)};
    int64_t *agent = malloc(n * sizeof *agent);  /* deciders, then switchers */
    int64_t *pick = malloc(n * sizeof *pick);
    struct jumps *jumps = malloc(sizeof *jumps);
    struct pcg64 rng = *bitgen->rng;
    int64_t absorbed_at = -1;
    if (!r.nc || !r.front || !agent || !pick || !jumps) {
        absorbed_at = -2;
        goto done;
    }
    jump_table(jumps, rng.inc);
    start(&r);

    for (int64_t gen = 0; gen < horizon; gen++) {
        if (absorbed(&r, gen, horizon, coop)) {
            absorbed_at = gen;
            break;
        }
        int pop_ok = pop_pays(&r);
        invested[gen] = pop_ok ? r.meet : 0;

        int64_t drawn = 0, n_deciders = 0;  /* drawn: this generation's draws used */
        for (int64_t w = 0; w < words; w++) {
            for (uint64_t bits = r.front[w]; bits; bits &= bits - 1) {
                int64_t i = w * 64 + __builtin_ctzll(bits), deg = degree(&r, i);
                skip(&rng, jumps, i - drawn);
                int64_t offset = (int64_t)(uniform(&rng) * (double)deg);
                drawn = i + 1;
                if (offset > deg - 1)
                    offset = deg - 1;
                int64_t j = indices[indptr[i] + offset];
                if (is_coop[j] != is_coop[i]) {
                    agent[n_deciders] = i;
                    pick[n_deciders++] = j;
                }
            }
        }

        int64_t n_switched = 0;
        for (int64_t d = 0; d < n_deciders; d++) {
            int64_t i = agent[d];
            skip(&rng, jumps, n + i - drawn);
            double u = uniform(&rng);
            drawn = n + i + 1;
            double f_a = score_of(&r, b, pop_ok, i), f_b = score_of(&r, b, pop_ok, pick[d]);
            double z = (f_a - f_b) / K;
            z = z < -MAX_EXPONENT ? -MAX_EXPONENT : z > MAX_EXPONENT ? MAX_EXPONENT : z;
            double p = 1.0 / (1.0 + exp(z));
            if (fabs(u - p) <= band)
                p = fermi_probability(f_a, f_b);
            if (u < p)
                agent[n_switched++] = i;
        }
        skip(&rng, jumps, 2 * n - drawn);
        flip(&r, agent, n_switched);
    }
    bitgen->rng->state = rng.state;

done:
    free(r.nc);
    free(r.front);
    free(agent);
    free(pick);
    free(jumps);
    return absorbed_at;
}
