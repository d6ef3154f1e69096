/* The chain stage of one read: chain_read, and its chain DP, chain_dp.
 *
 * chain_read is the compiled form of what
 * IncrementalChunkMapper._gathered and repro.mapping.chaining.best_chain
 * do together, and gives their bytes; they run in its place where this
 * file cannot be built. One call takes each strand's seeded
 * (ref, read) rows and
 *
 *   1. copies them, flips the minus strand's read positions
 *      (read := flip - read, flip = read_length - k), sorts each strand
 *      by (ref, read) and drops repeated rows (np.unique's rows; any
 *      sort gives them, because two rows with equal keys are equal);
 *   2. runs chain_dp over each strand;
 *   3. walks each strand's ends scoring at least min_chain_score in
 *      (score descending, index descending) order -- chain_anchors'
 *      stable argsort reversed -- following parents up to the first
 *      anchor a reported chain already used; a walk shorter than
 *      min_anchors is dropped without marking its anchors, and the
 *      walk stops at max_chains chains;
 *   4. merges both strands' chains by descending score, the plus
 *      strand's first on a tie (best_chain's stable sort over the
 *      strands in that order);
 *   5. takes the first as the primary, and as the secondary the first
 *      after it that lies on the other strand or does not overlap the
 *      primary's reference span (first to last anchor).
 *
 * It writes the primary's rows then the secondary's to out_rows (the
 * caller sizes it for every input row: the two chains never share an
 * anchor), their scores to out_scores, and to out_info: the primary's
 * and the secondary's anchor counts and strands, then each strand's
 * row count after step 1, which is what the caller charges its chain
 * candidates for. Returns the number of chains written (0, 1 or 2), or
 * -1 when malloc fails; it writes nothing then. There is no static
 * state: scratch memory is malloc'ed per call, and the comparators
 * read only their arguments, so two threads may call it at once (ctypes
 * releases the GIL).
 *
 * chain_dp, which chain_read runs per strand, is the compiled form of
 * repro.kernels.chain.chain_scores_scalar, the DP of the Python stage
 * that runs where this file cannot be built. Anchor i
 * scans its lookback window j = max(0, i - lookback) .. i - 1 in order
 * and runs chain_scores_scalar's expression on float64 coordinates,
 * with its operations in its order:
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
#include <stdlib.h>
#include <string.h>

static void chain_dp(const int64_t *anchors, int64_t n, int64_t k, int64_t max_gap,
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

static inline int row_less(const int64_t *a, const int64_t *b)
{
    return a[0] < b[0] || (a[0] == b[0] && a[1] < b[1]);
}

/* Sorts n (ref, read) rows; tmp holds n / 2 rows. A merge sort: the
 * blocks of a strand arrive sorted, so most merges are skipped. */
static void sort_rows(int64_t *rows, int64_t *tmp, int64_t n)
{
    if (n <= 16) {
        for (int64_t i = 1; i < n; i++) {
            const int64_t ref = rows[2 * i], read = rows[2 * i + 1];
            int64_t j = i;
            for (; j > 0 && (rows[2 * j - 2] > ref ||
                             (rows[2 * j - 2] == ref && rows[2 * j - 1] > read)); j--) {
                rows[2 * j] = rows[2 * j - 2];
                rows[2 * j + 1] = rows[2 * j - 1];
            }
            rows[2 * j] = ref;
            rows[2 * j + 1] = read;
        }
        return;
    }
    const int64_t half = n / 2;
    int64_t *right = rows + 2 * half;
    sort_rows(rows, tmp, half);
    sort_rows(right, tmp, n - half);
    if (!row_less(right, right - 2))
        return;
    memcpy(tmp, rows, (size_t)half * 2 * sizeof(int64_t));
    int64_t a = 0, b = 0, o = 0;
    while (a < half && b < n - half) {
        const int64_t *next = row_less(right + 2 * b, tmp + 2 * a) ? right + 2 * b++ : tmp + 2 * a++;
        rows[2 * o] = next[0];
        rows[2 * o + 1] = next[1];
        o++;
    }
    memcpy(rows + 2 * o, tmp + 2 * a, (size_t)(half - a) * 2 * sizeof(int64_t));
}

/* A chain end: its score and anchor index. */
typedef struct {
    double score;
    int64_t index;
} End;

/* Score descending, then index descending: a total order (indices
 * differ, and no score is NaN). */
static int end_order(const void *a, const void *b)
{
    const End *p = a, *q = b;
    if (p->score != q->score)
        return p->score > q->score ? -1 : 1;
    return p->index > q->index ? -1 : p->index < q->index;
}

/* One reported chain: its end's score, its strand, and its anchors'
 * indices, ascending, into its strand's rows. */
typedef struct {
    double score;
    int64_t strand, length;
    const int64_t *rows, *nodes;
} Found;

/* Steps 1-3 for one strand: its n rows are already copied (and
 * flipped) into rows. Appends its chains to found and returns its
 * unique row count. tmp holds n / 2 rows, ends n ends; scores, parents,
 * used and nodes are this strand's own n slots. */
static int64_t chain_strand(int64_t *rows, int64_t n, int64_t strand, int64_t k, int64_t max_gap,
                            int64_t lookback, double min_chain_score, int64_t min_anchors,
                            int64_t max_chains, const double *log2_table, int64_t *tmp,
                            End *ends, double *scores, int64_t *parents, uint8_t *used,
                            int64_t *nodes, Found *found, int64_t *n_found)
{
    sort_rows(rows, tmp, n);
    int64_t unique = n > 0;
    for (int64_t i = 1; i < n; i++) {
        if (rows[2 * i] != rows[2 * unique - 2] || rows[2 * i + 1] != rows[2 * unique - 1]) {
            rows[2 * unique] = rows[2 * i];
            rows[2 * unique + 1] = rows[2 * i + 1];
            unique++;
        }
    }
    n = unique;
    for (int64_t i = 0; i < n; i++) {
        scores[i] = (double)k;
        parents[i] = -1;
    }
    chain_dp(rows, n, k, max_gap, lookback, log2_table, scores, parents);

    int64_t n_ends = 0;
    for (int64_t i = 0; i < n; i++) {
        if (scores[i] >= min_chain_score) {
            ends[n_ends].score = scores[i];
            ends[n_ends].index = i;
            n_ends++;
        }
    }
    qsort(ends, (size_t)n_ends, sizeof(End), end_order);
    memset(used, 0, (size_t)n);
    int64_t filled = 0, chains = 0;
    for (int64_t e = 0; e < n_ends && chains < max_chains; e++) {
        int64_t node = ends[e].index;
        if (used[node])
            continue;
        int64_t *chain = nodes + filled, length = 0;
        while (node != -1 && !used[node]) {
            chain[length++] = node;
            node = parents[node];
        }
        if (length < min_anchors)
            continue;
        for (int64_t a = 0, b = length - 1; a < b; a++, b--) {
            const int64_t swap = chain[a];
            chain[a] = chain[b];
            chain[b] = swap;
        }
        for (int64_t a = 0; a < length; a++)
            used[chain[a]] = 1;
        found[(*n_found)++] = (Found){ends[e].score, strand, length, rows, chain};
        filled += length;
        chains++;
    }
    return n;
}

static int64_t write_chain(const Found *chain, int64_t *out_rows)
{
    for (int64_t a = 0; a < chain->length; a++) {
        out_rows[2 * a] = chain->rows[2 * chain->nodes[a]];
        out_rows[2 * a + 1] = chain->rows[2 * chain->nodes[a] + 1];
    }
    return chain->length;
}

int64_t chain_read(const int64_t *plus, int64_t n_plus, const int64_t *minus, int64_t n_minus,
                   int64_t flip, int64_t k, int64_t max_gap, int64_t lookback,
                   double min_chain_score, int64_t min_anchors, int64_t max_chains,
                   const double *log2_table, int64_t *out_rows, double *out_scores,
                   int64_t *out_info)
{
    const int64_t n = n_plus + n_minus;
    const int64_t larger = n_plus > n_minus ? n_plus : n_minus;
    const int64_t per_strand = max_chains < larger ? max_chains : larger;
    /* One block: rows, tmp, scores, parents, nodes (8-byte slots), ends,
     * found, then the used marks. */
    const size_t words = (size_t)(2 * n + larger / 2 * 2 + 2 + 3 * n);
    char *block = malloc(words * 8 + (size_t)larger * sizeof(End) +
                         (size_t)(2 * per_strand) * sizeof(Found) + (size_t)n + 1);
    if (block == NULL)
        return -1;
    int64_t *rows = (int64_t *)block;
    int64_t *tmp = rows + 2 * n;
    double *scores = (double *)(tmp + larger / 2 * 2 + 2);
    int64_t *parents = (int64_t *)(scores + n);
    int64_t *nodes = parents + n;
    End *ends = (End *)(nodes + n);
    Found *found = (Found *)(ends + larger);
    uint8_t *used = (uint8_t *)(found + 2 * per_strand);

    memcpy(rows, plus, (size_t)n_plus * 2 * sizeof(int64_t));
    memcpy(rows + 2 * n_plus, minus, (size_t)n_minus * 2 * sizeof(int64_t));
    for (int64_t i = n_plus; i < n; i++)
        rows[2 * i + 1] = flip - rows[2 * i + 1];

    int64_t n_found = 0;
    out_info[4] = chain_strand(rows, n_plus, 1, k, max_gap, lookback, min_chain_score,
                               min_anchors, max_chains, log2_table, tmp, ends, scores, parents,
                               used, nodes, found, &n_found);
    const int64_t first_minus = n_found;
    out_info[5] = chain_strand(rows + 2 * n_plus, n_minus, -1, k, max_gap, lookback,
                               min_chain_score, min_anchors, max_chains, log2_table, tmp, ends,
                               scores + n_plus, parents + n_plus, used + n_plus,
                               nodes + n_plus, found, &n_found);

    /* Steps 4 and 5 over the two strands' lists, each already in
     * descending score order: the merge visits chains in best_chain's
     * order. */
    const Found *primary = NULL, *secondary = NULL;
    for (int64_t p = 0, m = first_minus; secondary == NULL && (p < first_minus || m < n_found);) {
        const int take_plus = m == n_found || (p < first_minus && found[p].score >= found[m].score);
        const Found *chain = take_plus ? &found[p++] : &found[m++];
        if (primary == NULL) {
            primary = chain;
            continue;
        }
        const int64_t lo = primary->rows[2 * primary->nodes[0]];
        const int64_t hi = primary->rows[2 * primary->nodes[primary->length - 1]];
        const int64_t c_lo = chain->rows[2 * chain->nodes[0]];
        const int64_t c_hi = chain->rows[2 * chain->nodes[chain->length - 1]];
        if (c_hi < lo || c_lo > hi || chain->strand != primary->strand)
            secondary = chain;
    }

    int64_t written = 0;
    out_info[0] = out_info[1] = out_info[2] = out_info[3] = 0;
    if (primary != NULL) {
        out_info[0] = write_chain(primary, out_rows);
        out_info[2] = primary->strand;
        out_scores[0] = primary->score;
        written = 1;
    }
    if (secondary != NULL) {
        out_info[1] = write_chain(secondary, out_rows + 2 * out_info[0]);
        out_info[3] = secondary->strand;
        out_scores[1] = secondary->score;
        written = 2;
    }
    free(block);
    return written;
}
