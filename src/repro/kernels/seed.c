/* Seeding: the minimizer scan and the index probe of one read chunk.
 *
 * The compiled form of repro.mapping.minimizers.minimizer_arrays (the
 * scan) and of repro.kernels.seed.seed_anchors_batched (the probe),
 * whose numpy path runs in their place where this file cannot be
 * built. Both give the same bytes.
 *
 * The scan (seed_minimizers) rolls a 2-bit k-mer over codes (0..3, as
 * the alphabet stores them) on both strands at once:
 *
 *   f = ((f << 2) | c) & mask          forward, first base highest
 *   r = (r >> 2) | ((3 - c) << 2(k-1)) reverse complement
 *
 * and hashes each with mix64 (the splitmix64 finaliser of _mix64). The
 * canonical key is the smaller hash; its strand is +1 when the forward
 * hash is not larger. A palindrome (equal hashes) selects as
 * UINT64_MAX, so it is chosen only when nothing else is. Each window's
 * first minimum comes from blocks of w k-mers (van Herk, Gil and
 * Werman): a window is the tail of one block and the head of the next,
 * so it is the first minimum of the tail's suffix minimum and the
 * head's prefix minimum, the tail winning a tie. Every k-mer costs a
 * few compare-and-selects and no unpredictable branch; a monotone
 * deque pops an unpredictable number of slots per k-mer, and ran twice
 * as slow. When there are no more
 * k-mers than w, the one window is all of them. A window whose minimum
 * is the previous window's emits nothing, which is the numpy path's
 * drop of repeated positions.
 *
 * The probe (seed_anchors) runs the scan, then finds each minimizer's
 * key in the CSR index (keys ascending, entry i owning locations
 * bounds[i] .. bounds[i+1]) by a lower-bound binary search, LANES
 * minimizers in lockstep. Every location becomes one
 * (ref, read_offset + pos) row: forward when its strand is the
 * minimizer's, else reverse. Read coordinates stay raw on both strands:
 * the chain stage (chain.c's chain_read) flips the reverse ones once it
 * knows the read's length. Each strand is then sorted by (ref, read),
 * which lets chain.c's merge sort skip the merges of a sorted block;
 * any sort gives the numpy path's bytes, because two rows with equal
 * keys are equal.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

static inline uint64_t mix64(uint64_t x)
{
    x = (x ^ (x >> 30)) * UINT64_C(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)) * UINT64_C(0x94D049BB133111EB);
    return x ^ (x >> 31);
}

/* One k-mer of a block: its selection hash, key, position and strand. */
typedef struct {
    uint64_t sel, key;
    int64_t pos;
    int8_t strand;
} Slot;

/* The minimizers of codes[0..n) into keys / positions / strands, in
 * position order; they hold one slot per window (max(1, n - k + 1 -
 * w + 1) when n >= k). Returns the count, -1 when malloc fails. */
static int64_t scan(const uint8_t *codes, int64_t n, int64_t k, int64_t w, uint64_t *keys,
                    int64_t *positions, int8_t *strands)
{
    const int64_t n_kmers = n - k + 1;
    if (n_kmers <= 0)
        return 0;
    if (w > n_kmers)
        w = n_kmers;
    Slot *block = malloc((size_t)(2 * w) * sizeof(Slot));
    int64_t *suffix = malloc((size_t)w * sizeof(int64_t));
    if (block == NULL || suffix == NULL) {
        free(block);
        free(suffix);
        return -1;
    }
    Slot *prev = block, *cur = block + w;

    const uint64_t mask = (UINT64_C(1) << (2 * k)) - 1;
    const int shift = (int)(2 * (k - 1));
    uint64_t f = 0, r = 0;
    for (int64_t i = 0; i < k - 1; i++) {
        f = (f << 2) | codes[i];
        r = (r >> 2) | ((uint64_t)(3 - codes[i]) << shift);
    }
    int64_t count = 0, last = -1, o = 0, prefix = 0;
    for (int64_t j = 0; j < n_kmers; j++, o++) {
        const uint64_t c = codes[j + k - 1];
        f = ((f << 2) | c) & mask;
        r = (r >> 2) | ((3 - c) << shift);
        const uint64_t h_fwd = mix64(f), h_rev = mix64(r);
        Slot *slot = &cur[o];
        slot->key = h_fwd < h_rev ? h_fwd : h_rev;
        slot->sel = h_fwd == h_rev ? UINT64_MAX : slot->key;
        slot->pos = j;
        slot->strand = h_fwd <= h_rev ? 1 : -1;
        /* The first minimum of cur[0..o]: a later k-mer wins only when
         * strictly smaller. */
        prefix = o == 0 || slot->sel < cur[prefix].sel ? o : prefix;
        if (j < w - 1)
            continue;
        /* Window j - w + 1 .. j: all of cur when the block is full, else
         * prev[o + 1 ..] (left, so it wins a tie) and cur[0 .. o]. */
        const Slot *best = &cur[prefix];
        if (o < w - 1 && prev[suffix[o + 1]].sel <= best->sel)
            best = &prev[suffix[o + 1]];
        keys[count] = best->key;
        positions[count] = best->pos;
        strands[count] = best->strand;
        count += best->pos != last;
        last = best->pos;
        if (o == w - 1) {
            /* suffix[i]: the first minimum of cur[i .. w - 1]. */
            suffix[w - 1] = w - 1;
            for (int64_t i = w - 2; i >= 0; i--)
                suffix[i] = cur[i].sel <= cur[suffix[i + 1]].sel ? i : suffix[i + 1];
            Slot *full = cur;
            cur = prev;
            prev = full;
            o = -1;
        }
    }
    free(block);
    free(suffix);
    return count;
}

int64_t seed_minimizers(const uint8_t *codes, int64_t n, int64_t k, int64_t w,
                        uint64_t *keys, int64_t *positions, int8_t *strands)
{
    return scan(codes, n, k, w, keys, positions, strands);
}

static inline int row_less(const int64_t *a, const int64_t *b)
{
    return a[0] < b[0] || (a[0] == b[0] && a[1] < b[1]);
}

/* Sorts n (ref, read) rows; tmp holds n / 2 rows. */
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

/* Minimizers probed at once: their binary searches step in lockstep,
 * so each step's loads are independent and overlap in memory. */
#define LANES 16

/* Anchors of codes[0..n) against the index, into rows[0..capacity):
 * forward rows first, then reverse rows, each sorted by (ref, read).
 * Returns the row count and writes the forward count to n_forward;
 * when that count exceeds capacity, rows holds nothing to read and the
 * caller calls again with capacity at least the count. -1 when malloc
 * fails. */
int64_t seed_anchors(const uint8_t *codes, int64_t n, int64_t k, int64_t w,
                     const uint64_t *index_keys, int64_t n_keys, const int64_t *bounds,
                     const int64_t *ref_positions, const int8_t *ref_strands,
                     int64_t read_offset, int64_t *rows, int64_t capacity, int64_t *n_forward)
{
    const int64_t n_kmers = n - k + 1;
    const int64_t slots = n_kmers <= 0 ? 1 : (n_kmers > w ? n_kmers - w + 1 : 1);
    void *minimizers = malloc((size_t)slots * (2 * sizeof(int64_t) + 1));
    if (minimizers == NULL)
        return -1;
    uint64_t *keys = (uint64_t *)minimizers;
    int64_t *positions = (int64_t *)(keys + slots);
    int8_t *strands = (int8_t *)(positions + slots);
    const int64_t count = n_keys > 0 ? scan(codes, n, k, w, keys, positions, strands) : 0;
    if (count < 0) {
        free(minimizers);
        return -1;
    }

    /* Forward rows fill rows from the front, reverse rows from the back;
     * past capacity they are only counted. */
    int64_t fwd = 0, rev = 0;
    for (int64_t m0 = 0; m0 < count; m0 += LANES) {
        const int64_t lanes = count - m0 < LANES ? count - m0 : LANES;
        const uint64_t *base[LANES];
        for (int64_t l = 0; l < lanes; l++)
            base[l] = index_keys;
        /* A branch-free lower bound per lane: all lanes halve the same
         * lengths, so they share the loop. */
        for (int64_t len = n_keys; len > 1; len -= len / 2)
            for (int64_t l = 0; l < lanes; l++)
                base[l] = base[l][len / 2] < keys[m0 + l] ? base[l] + len / 2 : base[l];
        for (int64_t l = 0; l < lanes; l++) {
            const int64_t m = m0 + l;
            const int64_t i = (base[l] - index_keys) + (*base[l] < keys[m]);
            if (i == n_keys || index_keys[i] != keys[m])
                continue;
            const int64_t read = read_offset + positions[m];
            for (int64_t loc = bounds[i]; loc < bounds[i + 1]; loc++) {
                const int forward = ref_strands[loc] == strands[m];
                if (fwd + rev < capacity) {
                    int64_t *row = rows + 2 * (forward ? fwd : capacity - 1 - rev);
                    row[0] = ref_positions[loc];
                    row[1] = read;
                }
                fwd += forward;
                rev += !forward;
            }
        }
    }
    free(minimizers);
    *n_forward = fwd;
    if (fwd + rev > capacity)
        return fwd + rev;

    int64_t *reverse = rows + 2 * fwd;
    memmove(reverse, rows + 2 * (capacity - rev), (size_t)rev * 2 * sizeof(int64_t));
    const int64_t larger = fwd > rev ? fwd : rev;
    int64_t *tmp = malloc((size_t)(larger / 2 + 1) * 2 * sizeof(int64_t));
    if (tmp == NULL)
        return -1;
    sort_rows(rows, tmp, fwd);
    sort_rows(reverse, tmp, rev);
    free(tmp);
    return fwd + rev;
}
