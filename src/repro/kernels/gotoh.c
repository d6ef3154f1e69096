/* Gotoh (affine-gap) alignment: a mapped read's whole chain stitch
 * (align_chain), and every lane of one lane-fill call (gotoh_fill).
 *
 * The compiled forms of repro.mapping.alignment's align_chain and lane
 * fill; where this file cannot be built, that align_chain runs, and its
 * fill runs repro.kernels.align.gotoh_scalar on each lane instead. Each
 * lane is one independent alignment of a reference side a[0..n)
 * against a read side b[0..m), both non-empty; both functions fill it
 * through align_lane, the one fill and traceback here. Per cell it
 * runs the recurrence of repro.kernels.align.gotoh_scalar, with its
 * operations in its order:
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
 * gotoh_fill: the caller checks that every lane has n, m >= 1 and
 * passes a flag table of the largest (n + 1) * (m + 1) bytes, reused by
 * every lane, and two rows of row_width >= max m + 1 int64 cells.
 *
 * align_chain: one call per mapped read, the stitch of
 * repro.mapping.alignment.align_chain, which gives its bytes. It takes
 * the reference and the read oriented to the chain's strand (uint8
 * codes), the chain's (ref, read) anchors and k >= 1, and
 *
 *   1. thins the anchors: the first is kept, then each one at least k
 *      past the last kept on both axes. Every kept anchor's k-mer must
 *      lie inside both sequences, else it returns -3 before reading;
 *   2. walks the kept anchors, each gap of dx reference and dy read
 *      bases before one becoming, in this order of tests: nothing
 *      (dx = dy = 0); an exact run dx= (dx = dy > 0 and the two spans
 *      compare equal), scored match * dx; a degenerate gap dxD dyI
 *      (dx * dy > max_segment_cells), scored 2 * go + (dx + dy) * ge;
 *      else a segment lane. The anchor's k-mer is the run k=;
 *   3. adds the head extension before the first anchor and the tail
 *      extension after the last, each of e = min(read bases left,
 *      max_end_extension) read bases against a reference window of
 *      min(reference bases left, e + e / 2 + 16) (Python's
 *      int(e * 1.5) + 16), aligned with a free reference tail: the
 *      head on both sides reversed, its runs put back in order. Read
 *      bases beyond e are soft-clipped (S);
 *   4. aligns each lane as it reaches it: a closed form where a side is
 *      empty (mI, scored go + m * ge; nD, go + n * ge), else
 *      align_lane. Every code a lane reads, empty sides' included,
 *      must be 0-3, else it returns -2 before filling anything (-3
 *      wins over it, as in Python);
 *   5. appends every run in chain order to the output, merging a run
 *      into the last when they share an op and dropping zero-length
 *      ones (merge_cigar).
 *
 * It returns the run count and writes out_info: the score (the sum of
 * the pieces' scores, exact in int64 as every one is integral), the
 * reference span's start and end, the '=' count and the '=XID' column
 * count (identity's numerator and denominator), and the n * m cells of
 * the lanes it filled. Its scratch -- the largest lane's flag table,
 * rows and runs, and the reversed head -- is one malloc, sized by a
 * first walk over the same steps, and freed before it returns; -1 when
 * that fails. A merged CIGAR alternates ops and every run but D
 * consumes a read base, so it has at most 2 * n_read + 1 runs: the
 * caller passes at least that capacity, and a run past it is never
 * written (-4 instead). No static state: two threads may call it at
 * once.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

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

/* One lane: the first band, its certified refill where that is needed,
 * and the walk back. Stores the lane's score; returns its run count. */
static int64_t align_lane(const uint8_t *a, int64_t n, const uint8_t *b, int64_t m,
                          int free_tail, int64_t match, int64_t mismatch, int64_t go,
                          int64_t ge, uint8_t *flags, int64_t *h, int64_t *v,
                          int64_t *score, uint8_t *ops, int64_t *lengths)
{
    const int64_t whole = n < m ? n : m;
    int64_t w = (free_tail || whole < BAND) ? whole : BAND;
    const int64_t banded = w;
    int64_t end = fill(a, n, b, m, w, free_tail, match, mismatch, go, ge, flags, h, v, score);
    while (w < whole && twice_bound(n, m, w, match, go, ge) >= 2 * *score) {
        w++;
    }
    if (w != banded) {
        end = fill(a, n, b, m, w, free_tail, match, mismatch, go, ge, flags, h, v, score);
    }
    return traceback(a, b, end, m, flags, ops, lengths);
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
        int64_t score;
        run_counts[k] = align_lane(codes + starts[2 * k], sizes[2 * k],
                                   codes + starts[2 * k + 1], sizes[2 * k + 1], free_tail[k],
                                   match, mismatch, gap_open, gap_extend, flags, h, v, &score,
                                   run_ops, run_lengths);
        scores[k] = (double)score;
        run_ops += run_counts[k];
        run_lengths += run_counts[k];
    }
}

enum { NO_MEMORY = -1, BAD_CODE = -2, OUTSIDE = -3, FULL = -4 };

/* The stitched CIGAR: runs appended in chain order, each merged into the
 * last when it has the same op, zero-length ones dropped. */
typedef struct {
    uint8_t *ops;
    int64_t *lengths;
    int64_t count, capacity;
    int full;
} Cigar;

static void emit(Cigar *cigar, uint8_t op, int64_t length)
{
    if (length <= 0) {
        return;
    }
    if (cigar->count && cigar->ops[cigar->count - 1] == op) {
        cigar->lengths[cigar->count - 1] += length;
    } else if (cigar->count < cigar->capacity) {
        cigar->ops[cigar->count] = op;
        cigar->lengths[cigar->count] = length;
        cigar->count++;
    } else {
        cigar->full = 1;
    }
}

/* The anchor after `at` that the thinning keeps: the next one at least k
 * past it on both axes, or n. */
static int64_t next_kept(const int64_t *anchors, int64_t n, int64_t at, int64_t k)
{
    int64_t next = at + 1;
    while (next < n && !(anchors[2 * next] >= anchors[2 * at] + k
                         && anchors[2 * next + 1] >= anchors[2 * at + 1] + k)) {
        next++;
    }
    return next;
}

/* How the gap of dx reference and dy read bases before a kept anchor is
 * aligned. */
enum { NO_GAP, EXACT, HUGE, LANE };

static int gap_kind(const uint8_t *ref, const uint8_t *read, int64_t dx, int64_t dy,
                    int64_t max_cells)
{
    if (!dx && !dy) {
        return NO_GAP;
    }
    if (dx > 0 && dx == dy && memcmp(ref, read, (size_t)dx) == 0) {
        return EXACT;
    }
    /* dx * dy > max_cells, without the product. */
    return dx > 0 && dy > 0 && dx > max_cells / dy ? HUGE : LANE;
}

static int all_bases(const uint8_t *codes, int64_t n)
{
    for (int64_t i = 0; i < n; i++) {
        if (codes[i] > 3) {
            return 0;
        }
    }
    return 1;
}

/* The largest lane of a call: its flag table, row width and run count. */
typedef struct {
    int64_t flags, width, runs;
} Sizes;

/* Notes a lane of n x m; 0 when one of its codes is not a base. */
static int size_lane(Sizes *sizes, const uint8_t *a, int64_t n, const uint8_t *b, int64_t m)
{
    if (n && m) {
        if ((n + 1) * (m + 1) > sizes->flags) {
            sizes->flags = (n + 1) * (m + 1);
        }
        if (m + 1 > sizes->width) {
            sizes->width = m + 1;
        }
        if (n + m > sizes->runs) {
            sizes->runs = n + m;
        }
    }
    return all_bases(a, n) && all_bases(b, m);
}

/* The scratch of one call and its scoring. */
typedef struct {
    int64_t match, mismatch, go, ge;
    uint8_t *flags, *lane_ops, *reversed;
    int64_t *h, *v, *lane_lengths;
    int64_t cells;
} Lanes;

/* Aligns one lane and appends its runs to the CIGAR, in reverse for the
 * head; returns its score and stores the reference bases it consumed. */
static int64_t stitch_lane(Lanes *lanes, Cigar *cigar, const uint8_t *a, int64_t n,
                           const uint8_t *b, int64_t m, int free_tail, int reverse,
                           int64_t *ref_consumed)
{
    int64_t score;
    if (n == 0) {
        emit(cigar, 'I', m);
        *ref_consumed = 0;
        return lanes->go + m * lanes->ge;
    }
    if (m == 0) { /* a segment: an extension's read side is never empty */
        emit(cigar, 'D', n);
        *ref_consumed = n;
        return lanes->go + n * lanes->ge;
    }
    lanes->cells += n * m;
    const int64_t runs = align_lane(a, n, b, m, free_tail, lanes->match, lanes->mismatch,
                                    lanes->go, lanes->ge, lanes->flags, lanes->h, lanes->v,
                                    &score, lanes->lane_ops, lanes->lane_lengths);
    *ref_consumed = 0;
    for (int64_t r = 0; r < runs; r++) {
        const int64_t at = reverse ? runs - 1 - r : r;
        const uint8_t op = lanes->lane_ops[at];
        if (op != 'I') {
            *ref_consumed += lanes->lane_lengths[at];
        }
        emit(cigar, op, lanes->lane_lengths[at]);
    }
    return score;
}

/* The reference window of an end extension of `bases` read bases, at
 * most `room` long: int(bases * 1.5) + 16, exact below 2^52. */
static int64_t window(int64_t room, int64_t bases)
{
    const int64_t wanted = bases + bases / 2 + 16;
    return room < wanted ? room : wanted;
}

/* Writes the reverse of codes[0 .. n) to out; returns out. */
static const uint8_t *reversed(const uint8_t *codes, int64_t n, uint8_t *out)
{
    for (int64_t i = 0; i < n; i++) {
        out[i] = codes[n - 1 - i];
    }
    return out;
}

int64_t align_chain(const uint8_t *ref, int64_t n_ref, const uint8_t *read, int64_t n_read,
                    const int64_t *anchors, int64_t n_anchors, int64_t k, int64_t match,
                    int64_t mismatch, int64_t gap_open, int64_t gap_extend,
                    int64_t max_end_extension, int64_t max_segment_cells, uint8_t *out_ops,
                    int64_t *out_lengths, int64_t capacity, int64_t *out_info)
{
    const int64_t first_ref = anchors[0], first_read = anchors[1];
    if (first_ref < 0 || first_read < 0) {
        return OUTSIDE;
    }

    /* First walk: every kept anchor inside both sequences, every lane's
     * codes bases, and the largest lane. */
    Sizes sizes = {0, 0, 0};
    int bases = 1;
    int64_t rx = first_ref, ry = first_read;
    for (int64_t at = 0; at < n_anchors; at = next_kept(anchors, n_anchors, at, k)) {
        const int64_t a_ref = anchors[2 * at], a_read = anchors[2 * at + 1];
        if (a_ref > n_ref - k || a_read > n_read - k) {
            return OUTSIDE;
        }
        const int64_t dx = a_ref - rx, dy = a_read - ry;
        if (gap_kind(ref + rx, read + ry, dx, dy, max_segment_cells) == LANE) {
            bases &= size_lane(&sizes, ref + rx, dx, read + ry, dy);
        }
        rx = a_ref + k;
        ry = a_read + k;
    }
    const int64_t head = first_read < max_end_extension ? first_read : max_end_extension;
    const int64_t head_window = head ? window(first_ref, head) : 0;
    const int64_t tail = n_read - ry < max_end_extension ? n_read - ry : max_end_extension;
    const int64_t tail_window = tail ? window(n_ref - rx, tail) : 0;
    bases &= size_lane(&sizes, ref + first_ref - head_window, head_window,
                       read + first_read - head, head);
    bases &= size_lane(&sizes, ref + rx, tail_window, read + ry, tail);
    if (!bases) {
        return BAD_CODE;
    }

    /* One byte more, so that malloc never sees 0. */
    char *block = malloc((size_t)(2 * sizes.width + sizes.runs) * sizeof(int64_t)
                         + (size_t)(sizes.flags + sizes.runs + head_window + head) + 1);
    if (block == NULL) {
        return NO_MEMORY;
    }
    Lanes lanes = {.match = match, .mismatch = mismatch, .go = gap_open, .ge = gap_extend};
    lanes.h = (int64_t *)block;
    lanes.v = lanes.h + sizes.width;
    lanes.lane_lengths = lanes.v + sizes.width;
    lanes.flags = (uint8_t *)(lanes.lane_lengths + sizes.runs);
    lanes.lane_ops = lanes.flags + sizes.flags;
    lanes.reversed = lanes.lane_ops + sizes.runs;

    /* Second walk: the pieces in chain order. */
    Cigar cigar = {out_ops, out_lengths, 0, capacity, 0};
    int64_t score = 0, consumed, ref_start = first_ref;
    emit(&cigar, 'S', first_read - head);
    if (head) {
        const uint8_t *a = reversed(ref + first_ref - head_window, head_window, lanes.reversed);
        const uint8_t *b = reversed(read + first_read - head, head, lanes.reversed + head_window);
        score += stitch_lane(&lanes, &cigar, a, head_window, b, head, 1, 1, &consumed);
        ref_start -= consumed;
    }
    rx = first_ref;
    ry = first_read;
    for (int64_t at = 0; at < n_anchors; at = next_kept(anchors, n_anchors, at, k)) {
        const int64_t a_ref = anchors[2 * at], a_read = anchors[2 * at + 1];
        const int64_t dx = a_ref - rx, dy = a_read - ry;
        switch (gap_kind(ref + rx, read + ry, dx, dy, max_segment_cells)) {
        case EXACT:
            emit(&cigar, '=', dx);
            score += match * dx;
            break;
        case HUGE:
            emit(&cigar, 'D', dx);
            emit(&cigar, 'I', dy);
            score += 2 * gap_open + (dx + dy) * gap_extend;
            break;
        case LANE:
            score += stitch_lane(&lanes, &cigar, ref + rx, dx, read + ry, dy, 0, 0, &consumed);
            break;
        default:
            break;
        }
        emit(&cigar, '=', k);
        score += match * k;
        rx = a_ref + k;
        ry = a_read + k;
    }
    int64_t ref_end = rx;
    if (tail) {
        score += stitch_lane(&lanes, &cigar, ref + rx, tail_window, read + ry, tail, 1, 0,
                             &consumed);
        ref_end += consumed;
    }
    emit(&cigar, 'S', n_read - ry - tail);
    free(block);
    if (cigar.full) {
        return FULL;
    }

    int64_t matches = 0, columns = 0;
    for (int64_t r = 0; r < cigar.count; r++) {
        if (out_ops[r] != 'S') {
            columns += out_lengths[r];
            matches += out_ops[r] == '=' ? out_lengths[r] : 0;
        }
    }
    out_info[0] = score;
    out_info[1] = ref_start;
    out_info[2] = ref_end;
    out_info[3] = matches;
    out_info[4] = columns;
    out_info[5] = lanes.cells;
    return cigar.count;
}
