/* Gotoh (affine-gap) alignment: every lane of one lane-fill call.
 *
 * The compiled form of repro.mapping.alignment's lane fill; where this
 * file cannot be built, the fill runs repro.kernels.align.gotoh_scalar
 * on each lane instead. Each lane is one independent alignment of a
 * reference side a[0..n) against a read side b[0..m), both non-empty.
 * Per cell it runs the recurrence of repro.kernels.align.gotoh_scalar,
 * with its operations in its order:
 *
 *   E  max(E[i][j-1] + ge, (H[i][j-1] + go) + ge)     gap in ref
 *   V  max(V[i-1][j] + ge, (H[i-1][j] + go) + ge)     gap in read
 *   H  max(max(H[i-1][j-1] + sub, E), V)
 *
 * where max keeps its first operand unless the second is strictly
 * greater, as Python's does. Row 0 is E = H = go + ge*j, column 0 is
 * V = H = go + ge*i, and NEG = -10^18 stands for minus infinity.
 *
 * Integer cells. AlignmentConfig admits only integer scores within
 * +-2^20, so every score gotoh_scalar reaches in float64 is an exact
 * integer (a lane of up to 2^32 steps stays within 2^52). The int64
 * cells here hold the same numbers, and every max and every flag
 * comparison decides as it does there. NEG plus a few gap terms (the
 * only values derived from it) never wins a max against a reachable
 * score and never equals one, in either; it stays far from INT64_MIN.
 *
 * The band. A global lane first fills only the cells on the diagonals
 * d = i - j in [min(0, n-m) - w, max(0, n-m) + w], with w = BAND; the
 * cells beside the band read as NEG, so each H is the best score of a
 * path that stays inside. A path that leaves the band walks past the
 * diagonal span [min(0, n-m), max(0, n-m)] by w + 1 and back, so it
 * has G >= |n-m| + 2(w+1) gap columns and (n+m-G)/2 diagonal ones, and
 * scores at most
 *
 *   UB(w) = match*(n+m-G)/2 + go + ge*G.
 *
 * When the band's score S0 > UB(w), no path that leaves the band
 * reaches S0, so S0 is the lane's score. The CIGAR is the unbanded one
 * too: the traceback only steps between cells of an optimal path, and
 * each flag it reads on one compares the optimal predecessor with its
 * alternatives. An alternative the band truncated or left out that
 * tied would put an optimal path outside the band, which cannot be;
 * so every tie on the walked path is decided among in-band cells, and
 * every flag there is the one the full fill writes.
 *
 * Otherwise the lane is filled once more, at the smallest w with
 * UB(w) < S0, or at min(n, m), where the band is the whole matrix. The
 * wider band holds the narrow one, so its score S1 >= S0 > UB(w): the
 * refill is certified by construction, and no lane costs more than the
 * narrow band plus one fill no larger than the unbanded one. A lane
 * with a free reference tail may end on any row, so it is filled whole
 * (w = min(n, m)). A band that covers the matrix is the unbanded fill:
 * there is one fill loop.
 *
 * Per cell one flag byte keeps the four comparisons gotoh_scalar's
 * traceback makes: H == E, H == V, E == E[i][j-1] + ge and
 * V == V[i-1][j] + ge. Row i's in-band bytes sit at their own columns
 * of an (n + 1) x (m + 1) table; the rest are neither written nor read.
 * The walk back from the end cell reads them in that traceback's order
 * (E, then V, then the diagonal; extend before open), so the path is
 * its path. A lane with a free reference tail ends on the first maximum
 * of H's last column, as gotoh_scalar's with free_ref_tail does, else
 * at (n, m).
 *
 * The walk writes the finished CIGAR as runs of the ASCII ops = X I D,
 * a diagonal step comparing the two codes. Lane k's runs follow lane
 * k-1's in run_ops / run_lengths; run_counts[k] says how many it has.
 * A lane has at most n + m runs, so buffers of sum(n + m) entries
 * suffice.
 *
 * The caller checks that every lane has n, m >= 1 and passes a flag
 * table of the largest (n + 1) * (m + 1) bytes, reused by every lane,
 * and two rows of row_width >= max m + 1 int64 cells.
 */

#include <stdint.h>

enum { FROM_E = 1, FROM_V = 2, E_EXTENDS = 4, V_EXTENDS = 8 };

/* The first band's half-width beyond the diagonal span. */
enum { BAND = 4 };

static const int64_t NEG = -INT64_C(1000000000000000000);

/* Python's max(x, y): y only when it is strictly greater. */
static inline int64_t py_max(int64_t x, int64_t y)
{
    return y > x ? y : x;
}

/* Fills one lane's band of half-width w; returns its end row and
 * stores H there. */
static int64_t fill(const uint8_t *a, int64_t n, const uint8_t *b, int64_t m,
                    int64_t w, int free_tail, int64_t match, int64_t mismatch,
                    int64_t go, int64_t ge, uint8_t *flags, int64_t *h, int64_t *v,
                    int64_t *score)
{
    const int64_t width = m + 1;
    const int64_t lo = (n < m ? n - m : 0) - w, hi = (n > m ? n - m : 0) + w;
    const int64_t top = m < -lo ? m : -lo;
    int64_t e_left = NEG;

    h[0] = 0;
    v[0] = NEG;
    flags[0] = 0;
    for (int64_t j = 1; j <= top; j++) {
        const int64_t e = go + ge * j;
        flags[j] = (uint8_t)(FROM_E | (e == e_left + ge ? E_EXTENDS : 0));
        e_left = e;
        h[j] = e;
        v[j] = NEG;
    }
    int64_t end = 0;
    int64_t best = free_tail ? h[m] : 0;
    for (int64_t i = 1; i <= n; i++) {
        uint8_t *row = flags + i * width;
        const uint8_t ai = a[i - 1];
        const int64_t last = i - lo < m ? i - lo : m;
        int64_t j = i - hi > 0 ? i - hi : 0, h_diag, h_left;
        if (i - lo <= m) {
            /* The band's new column: the cell above it is outside. */
            h[last] = NEG;
            v[last] = NEG;
        }
        if (j == 0) {
            const int64_t v0 = go + ge * i;
            row[0] = (uint8_t)(FROM_V | (v0 == v[0] + ge ? V_EXTENDS : 0));
            h_diag = h[0];
            h_left = v0;
            h[0] = v0;
            v[0] = v0;
            j = 1;
        } else {
            /* The cell left of the band is outside. */
            h_diag = h[j - 1];
            h_left = NEG;
        }
        e_left = NEG;
        for (; j <= last; j++) {
            const int64_t h_up = h[j];
            const int64_t e = py_max(e_left + ge, (h_left + go) + ge);
            const int64_t vv = py_max(v[j] + ge, (h_up + go) + ge);
            const int64_t diag = h_diag + (ai == b[j - 1] ? match : mismatch);
            const int64_t hh = py_max(py_max(diag, e), vv);
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

/* Twice UB(w): twice the best score of a path that leaves the band of
 * half-width w < min(n, m). */
static int64_t twice_bound(int64_t n, int64_t m, int64_t w, int64_t match, int64_t go,
                           int64_t ge)
{
    const int64_t gaps = (n > m ? n - m : m - n) + 2 * (w + 1);
    return match * (n + m - gaps) + 2 * (go + ge * gaps);
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
                const uint8_t *free_tail, int64_t lanes, int64_t match,
                int64_t mismatch, int64_t gap_open, int64_t gap_extend,
                uint8_t *flags, int64_t *rows, int64_t row_width,
                double *scores, uint8_t *run_ops, int64_t *run_lengths,
                int64_t *run_counts)
{
    int64_t *h = rows, *v = rows + row_width;
    for (int64_t k = 0; k < lanes; k++) {
        const uint8_t *a = codes + starts[2 * k], *b = codes + starts[2 * k + 1];
        const int64_t n = sizes[2 * k], m = sizes[2 * k + 1];
        const int64_t whole = n < m ? n : m;
        int64_t w = (free_tail[k] || whole < BAND) ? whole : BAND, score;
        const int64_t banded = w;
        int64_t end = fill(a, n, b, m, w, free_tail[k], match, mismatch, gap_open,
                           gap_extend, flags, h, v, &score);
        while (w < whole && twice_bound(n, m, w, match, gap_open, gap_extend) >= 2 * score) {
            w++;
        }
        if (w != banded) {
            end = fill(a, n, b, m, w, free_tail[k], match, mismatch, gap_open, gap_extend,
                       flags, h, v, &score);
        }
        scores[k] = (double)score;
        run_counts[k] = traceback(a, b, end, m, flags, run_ops, run_lengths);
        run_ops += run_counts[k];
        run_lengths += run_counts[k];
    }
}
