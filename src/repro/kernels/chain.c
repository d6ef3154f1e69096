/* The minimap2 chain DP: every anchor of one chain_scores call.
 *
 * The compiled form of repro.kernels.chain.chain_scores_scalar, which
 * runs in its place where this file cannot be built. Anchor i scans
 * its lookback window j = max(0, i - lookback) .. i - 1 in order and
 * runs chain_scores_scalar's expression on float64 coordinates, with
 * its operations in its order:
 *
 *   dx = x[i] - x[j], dy = y[i] - y[j]
 *   valid  0 < dx < max_gap and 0 < dy < max_gap
 *   gain   min(min(dx, dy), k)
 *   gap    dd > 0 ? (0.01 * k) * dd + 0.5 * log2(dd) : 0,  dd = |dy - dx|
 *   cand   (scores[j] + gain) - gap
 *
 * Invalid slots never win. The first maximum of the window (strict >,
 * as numpy's argmax takes the first) becomes the parent when it
 * exceeds k; otherwise the anchor keeps score k and parent -1.
 *
 * log2 comes from log2_table (log2_table[d] == np.log2(d) for
 * 1 <= d < max_gap), never from libm: libm's log2 and numpy's differ in
 * the last bit at some integers (1621 is the first). A valid slot has
 * dd < max(dx, dy) < max_gap, so the table always covers it.
 *
 * scores and parents arrive filled with k and -1. It must be built
 * without floating-point contraction (-ffp-contract=off) and without
 * -ffast-math.
 */

#include <math.h>
#include <stdint.h>

void chain_dp(const int64_t *anchors, int64_t n, int64_t k, int64_t max_gap,
              int64_t lookback, const double *log2_table, double *scores,
              int64_t *parents)
{
    const double kf = (double)k;
    const double gap_scale = 0.01 * kf;
    const double limit = (double)max_gap;

    for (int64_t i = 1; i < n; i++) {
        const double xi = (double)anchors[2 * i];
        const double yi = (double)anchors[2 * i + 1];
        const int64_t j0 = i > lookback ? i - lookback : 0;
        double best = -INFINITY;
        int64_t best_j = -1;
        for (int64_t j = j0; j < i; j++) {
            const double dx = xi - (double)anchors[2 * j];
            const double dy = yi - (double)anchors[2 * j + 1];
            if (!(dx > 0 && dy > 0 && dx < limit && dy < limit))
                continue;
            const double low = dy < dx ? dy : dx;
            const double gain = kf < low ? kf : low;
            const double dd = fabs(dy - dx);
            const double gap = dd > 0 ? gap_scale * dd + 0.5 * log2_table[(int64_t)dd] : 0.0;
            const double candidate = (scores[j] + gain) - gap;
            if (candidate > best) {
                best = candidate;
                best_j = j;
            }
        }
        if (best_j >= 0 && best > kf) {
            scores[i] = best;
            parents[i] = best_j;
        }
    }
}
