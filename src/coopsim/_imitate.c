/* One imitate-best replicate on a CSR graph, from the initial cooperator
 * mask to the horizon or absorption. coopsim.dynamics.step_deterministic
 * calls it through ctypes; coopsim._imitate builds it with
 * -ffp-contract=off, so b * nc + theta is never fused into one rounding.
 *
 * Each generation, as the tests' numpy oracle (full_recount_run) does it:
 *   - absorb when every agent plays one strategy, filling coop to the end;
 *   - record the cooperator fraction;
 *   - pay theta to the cooperators meeting every active scheme (POP, NEB,
 *     NI) and count them in invested;
 *   - score: nc for a cooperator, b * nc for a defector, plus the payment;
 *   - step: each agent picks one of its tied best neighbors, in CSR order,
 *     with one uniform u from the run's generator, in node order:
 *     pick = min(floor(u * ties), ties - 1); it switches when that neighbor
 *     strictly outscores it and plays the other strategy;
 *   - move the switchers' neighbors' counts by one each.
 * The counts are small integers, exact in a double.
 *
 * Returns the absorption generation, -1 when the run reaches the horizon
 * mixed, or -2 when the work buffers cannot be allocated. */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

int64_t coopsim_imitate_best(
    int64_t n, const int64_t *indptr, const int64_t *indices, double b,
    int active, double theta, int pop, double p_c, int neb, double n_c,
    const double *percentile, double c_I, int64_t horizon, uint8_t *is_coop,
    double *coop, int64_t *invested, void *bitgen_state,
    double (*next_double)(void *))
{
    double *nc = malloc(n * sizeof *nc);
    double *score = malloc(n * sizeof *score);
    int64_t *ties = malloc(n * sizeof *ties);  /* a row's tied best neighbors */
    int64_t *switched = malloc(n * sizeof *switched);
    int64_t absorbed_at = -1, n_coop = 0;
    if (!nc || !score || !ties || !switched) {
        absorbed_at = -2;
        goto done;
    }
    for (int64_t i = 0; i < n; i++) {
        n_coop += is_coop[i];
        nc[i] = 0.0;
        for (int64_t k = indptr[i]; k < indptr[i + 1]; k++)
            nc[i] += is_coop[indices[k]];
    }

    for (int64_t gen = 0; gen < horizon; gen++) {
        double frac = (double)n_coop / (double)n;
        if (n_coop == 0 || n_coop == n) {
            absorbed_at = gen;
            for (; gen < horizon; gen++)
                coop[gen] = frac;
            break;
        }
        coop[gen] = frac;

        int pop_pays = !pop || frac <= p_c;
        int64_t paid = 0;
        for (int64_t i = 0; i < n; i++) {
            score[i] = is_coop[i] ? nc[i] : b * nc[i];
            if (active && is_coop[i] && pop_pays
                    && (!neb || nc[i] / (double)(indptr[i + 1] - indptr[i]) <= n_c)
                    && (!percentile || percentile[i] >= c_I)) {
                score[i] += theta;
                paid++;
            }
        }
        invested[gen] = paid;

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
            int64_t pick = (int64_t)(next_double(bitgen_state) * (double)count);
            if (pick > count - 1)
                pick = count - 1;
            if (best > score[i] && is_coop[ties[pick]] != is_coop[i])
                switched[n_switched++] = i;
        }

        for (int64_t s = 0; s < n_switched; s++) {
            int64_t i = switched[s];
            is_coop[i] = !is_coop[i];
            double d = is_coop[i] ? 1.0 : -1.0;
            n_coop += is_coop[i] ? 1 : -1;
            for (int64_t k = indptr[i]; k < indptr[i + 1]; k++)
                nc[indices[k]] += d;
        }
    }

done:
    free(nc);
    free(score);
    free(ties);
    free(switched);
    return absorbed_at;
}
