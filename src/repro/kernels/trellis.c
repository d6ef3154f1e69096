/* Viterbi trellis: forward pass and traceback of the k-mer HMM.
 *
 * The compiled form of repro.kernels.viterbi's numpy fold. Per state it
 * performs the same float64 operations in the same order as the fold,
 * so every output byte is the same:
 *
 *   emission  (-0.5 * z) * z - log_sigma[s],  z = (x - level[s]) / sigma[s]
 *   move      first maximum of the four predecessors, then + log_move
 *   stay      dp[s] + log_stay
 *   new dp    (move > stay ? move : stay) + emission
 *   scores    (float) new dp
 *
 * It must be built without floating-point contraction
 * (-ffp-contract=off) and without -ffast-math: a fused multiply-add
 * would round once where the fold rounds twice.
 *
 * State s is a packed k-mer; its four move predecessors are
 * c * S/4 + (s >> 2) for c = 0..3, i.e. column s >> 2 of the dp row
 * read as a (4, S/4) matrix, shared by the four siblings 4j .. 4j+3.
 * Each observation is three branch-free passes: the emissions (which
 * the compiler vectorises), the column maxima, then the per-state choice.
 *
 * The caller checks shapes, dtypes and contiguity, that S is a positive
 * multiple of 4, and that T >= 1; work holds S + S/4 doubles.
 */

#include <stdint.h>

void trellis_forward(const double *obs, int64_t t_total, int64_t n_states,
                     const double *level, const double *sigma,
                     const double *log_sigma, double log_stay,
                     double log_move, uint8_t *backptr, float *scores,
                     double *dp, double *work)
{
    const int64_t quarter = n_states / 4;
    double *move = work + n_states;
    double *prev = (t_total % 2) ? dp : work; /* the last row lands in dp */
    double *cur = (t_total % 2) ? work : dp;

    for (int64_t s = 0; s < n_states; s++) { /* uniform state prior */
        const double z = (obs[0] - level[s]) / sigma[s];
        prev[s] = -0.5 * z * z - log_sigma[s];
        backptr[s] = 0;
        scores[s] = (float)prev[s];
    }
    for (int64_t t = 1; t < t_total; t++) {
        const double x = obs[t];
        uint8_t *bp = backptr + t * n_states;
        float *sc = scores + t * n_states;
        for (int64_t s = 0; s < n_states; s++) { /* emissions */
            const double z = (x - level[s]) / sigma[s];
            cur[s] = -0.5 * z * z - log_sigma[s];
        }
        for (int64_t j = 0; j < quarter; j++) { /* first maximum of column j */
            double peak = prev[j];
            uint8_t code = 1;
            for (int64_t c = 1; c < 4; c++) {
                const double value = prev[c * quarter + j];
                const int higher = value > peak;
                code = higher ? (uint8_t)(c + 1) : code;
                peak = higher ? value : peak;
            }
            move[j] = peak + log_move;
            bp[4 * j] = bp[4 * j + 1] = bp[4 * j + 2] = bp[4 * j + 3] = code;
        }
        for (int64_t j = 0; j < quarter; j++) { /* move or stay */
            for (int64_t s = 4 * j; s < 4 * j + 4; s++) {
                const double stay = prev[s] + log_stay;
                const int moves = move[j] > stay;
                cur[s] = (moves ? move[j] : stay) + cur[s];
                bp[s] = moves ? bp[s] : 0;
                sc[s] = (float)cur[s];
            }
        }
        double *swap = prev;
        prev = cur;
        cur = swap;
    }
}

/* Writes the most-likely state path; returns 0, or -1 on a NaN final
 * score or a backpointer or predecessor that leaves the trellis (the
 * caller then runs the fold, which decides what such input means). */
int trellis_traceback(const uint8_t *backptr, int64_t t_total, int64_t n_states,
                      const int64_t *pred, const double *dp, int64_t *path)
{
    int64_t state = 0;
    for (int64_t s = 0; s < n_states; s++) { /* first maximum, as np.argmax */
        if (dp[s] != dp[s]) {
            return -1;
        }
        if (dp[s] > dp[state]) {
            state = s;
        }
    }
    path[t_total - 1] = state;
    for (int64_t t = t_total - 1; t > 0; t--) {
        const uint8_t choice = backptr[t * n_states + state];
        if (choice > 4) {
            return -1;
        }
        if (choice != 0) {
            state = pred[state * 4 + choice - 1];
            if (state < 0 || state >= n_states) {
                return -1;
            }
        }
        path[t - 1] = state;
    }
    return 0;
}
