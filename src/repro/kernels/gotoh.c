/* Gotoh (affine-gap) alignment: every lane of one lane-fill call.
 *
 * The compiled form of repro.mapping.alignment's lane fill; where this
 * file cannot be built, the fill runs repro.kernels.align.gotoh_scalar
 * on each lane instead. Each lane is one independent alignment of a
 * reference side a[0..n) against a read side b[0..m), both non-empty. Per cell it runs the recurrence of
 * repro.kernels.align.gotoh_scalar, with its operations in its order:
 *
 *   E  max(E[i][j-1] + ge, (H[i][j-1] + go) + ge)     gap in ref
 *   V  max(V[i-1][j] + ge, (H[i-1][j] + go) + ge)     gap in read
 *   H  max(max(H[i-1][j-1] + sub, E), V)
 *
 * where max keeps its first operand unless the second is strictly
 * greater, as Python's does. Row 0 is E = H = go + ge*j, column 0 is
 * V = H = go + ge*i, and -1e18 stands for minus infinity.
 *
 * Per cell one flag byte keeps the four comparisons gotoh_scalar's
 * traceback makes: H == E, H == V, E == E[i][j-1] + ge and
 * V == V[i-1][j] + ge. The walk back from the end cell reads them in
 * that traceback's order (E, then V, then the diagonal; extend before
 * open), so the path is its path. A lane with a free reference tail
 * ends on the first maximum of H's last column, as gotoh_scalar's with
 * free_ref_tail does, else at (n, m).
 *
 * The walk writes the finished CIGAR as runs of the ASCII ops = X I D,
 * a diagonal step comparing the two codes. Lane k's runs follow lane
 * k-1's in run_ops / run_lengths; run_counts[k] says how many it has.
 * A lane has at most n + m runs, so buffers of sum(n + m) entries
 * suffice.
 *
 * The caller checks that every lane has n, m >= 1 and passes a flag
 * table of the largest (n + 1) * (m + 1) bytes, reused by every lane,
 * and two rows of row_width >= max m + 1 doubles. It must be built
 * without floating-point contraction (-ffp-contract=off) and without
 * -ffast-math.
 */

#include <stdint.h>

enum { FROM_E = 1, FROM_V = 2, E_EXTENDS = 4, V_EXTENDS = 8 };

/* Python's max(x, y): y only when it is strictly greater. */
static inline double py_max(double x, double y)
{
    return y > x ? y : x;
}

/* Fills one lane's flags; returns its end row and stores H there. */
static int64_t fill(const uint8_t *a, int64_t n, const uint8_t *b, int64_t m,
                    int free_tail, double match, double mismatch, double go,
                    double ge, uint8_t *flags, double *h, double *v,
                    double *score)
{
    const double neg = -1e18;
    const int64_t width = m + 1;
    double e_left = neg;

    h[0] = 0.0;
    v[0] = neg;
    flags[0] = 0;
    for (int64_t j = 1; j <= m; j++) {
        const double e = go + ge * j;
        flags[j] = (uint8_t)(FROM_E | (e == e_left + ge ? E_EXTENDS : 0));
        e_left = e;
        h[j] = e;
        v[j] = neg;
    }
    int64_t end = 0;
    double best = h[m];
    for (int64_t i = 1; i <= n; i++) {
        uint8_t *row = flags + i * width;
        const uint8_t ai = a[i - 1];
        const double v0 = go + ge * i;
        row[0] = (uint8_t)(FROM_V | (v0 == v[0] + ge ? V_EXTENDS : 0));
        double h_diag = h[0];
        double h_left = v0;
        h[0] = v0;
        v[0] = v0;
        e_left = neg;
        for (int64_t j = 1; j <= m; j++) {
            const double h_up = h[j];
            const double e = py_max(e_left + ge, (h_left + go) + ge);
            const double vv = py_max(v[j] + ge, (h_up + go) + ge);
            const double diag = h_diag + (ai == b[j - 1] ? match : mismatch);
            const double hh = py_max(py_max(diag, e), vv);
            row[j] = (uint8_t)((hh == e ? FROM_E : 0) | (hh == vv ? FROM_V : 0)
                               | (e == e_left + ge ? E_EXTENDS : 0)
                               | (vv == v[j] + ge ? V_EXTENDS : 0));
            h_diag = h_up;
            h_left = hh;
            e_left = e;
            h[j] = hh;
            v[j] = vv;
        }
        if (free_tail && h[m] > best) {
            best = h[m];
            end = i;
        }
    }
    if (!free_tail) {
        best = h[m];
        end = n;
    }
    *score = best;
    return end;
}

/* Walks one lane back from (i, m); writes its runs in order and
 * returns how many there are. */
static int64_t traceback(const uint8_t *a, const uint8_t *b, int64_t i, int64_t m,
                         const uint8_t *flags, uint8_t *ops, int64_t *lengths)
{
    const int64_t width = m + 1;
    int64_t j = m, runs = 0;
    int state = 0; /* 0: H, 1: E, 2: V */
    while (i > 0 || j > 0) {
        const uint8_t flag = flags[i * width + j];
        int op;
        if (state == 0) {
            if (j == 0) {
                state = 2;
                continue;
            }
            if (i == 0 || (flag & FROM_E)) {
                state = 1;
                continue;
            }
            if (flag & FROM_V) {
                state = 2;
                continue;
            }
            op = a[i - 1] == b[j - 1] ? '=' : 'X';
            i--;
            j--;
        } else if (state == 1) {
            op = 'I';
            state = (flag & E_EXTENDS) ? 1 : 0;
            j--;
        } else {
            op = 'D';
            state = (flag & V_EXTENDS) ? 2 : 0;
            i--;
        }
        if (runs && ops[runs - 1] == op) {
            lengths[runs - 1]++;
        } else {
            ops[runs] = (uint8_t)op;
            lengths[runs] = 1;
            runs++;
        }
    }
    for (int64_t lo = 0, hi = runs - 1; lo < hi; lo++, hi--) {
        const uint8_t op = ops[lo];
        const int64_t length = lengths[lo];
        ops[lo] = ops[hi];
        lengths[lo] = lengths[hi];
        ops[hi] = op;
        lengths[hi] = length;
    }
    return runs;
}

/* Lane k aligns codes[starts[2k] ..][0 .. sizes[2k]) (reference) against
 * codes[starts[2k+1] ..][0 .. sizes[2k+1]) (read). */
void gotoh_fill(const uint8_t *codes, const int64_t *starts, const int64_t *sizes,
                const uint8_t *free_tail, int64_t lanes, double match,
                double mismatch, double gap_open, double gap_extend,
                uint8_t *flags, double *rows, int64_t row_width,
                double *scores, uint8_t *run_ops, int64_t *run_lengths,
                int64_t *run_counts)
{
    double *h = rows, *v = rows + row_width;
    for (int64_t k = 0; k < lanes; k++) {
        const uint8_t *a = codes + starts[2 * k], *b = codes + starts[2 * k + 1];
        const int64_t n = sizes[2 * k], m = sizes[2 * k + 1];
        const int64_t end = fill(a, n, b, m, free_tail[k], match, mismatch, gap_open,
                                 gap_extend, flags, h, v, scores + k);
        run_counts[k] = traceback(a, b, end, m, flags, run_ops, run_lengths);
        run_ops += run_counts[k];
        run_lengths += run_counts[k];
    }
}
