/* The surrogate basecaller's decode: every chunk of one basecall_many
 * call, over any number of reads, in one call.
 *
 * The compiled form of the per-chunk work of
 * repro.basecalling.surrogate.SurrogateBasecaller.basecall_many, whose
 * numpy path runs in its place where this file cannot be built or
 * numpy's distributions archive is missing. Both give the same bytes,
 * because each chunk replays the stream that
 * numpy.random.default_rng([seed, chunk_size, index]) gives, whatever
 * read the chunks before it belong to:
 *
 *   1. SeedSequence: the chunk's entropy words (its own prefix -- the
 *      words of its read's seed and the chunk size --, then the index
 *      as little-endian 32-bit words, 0 as one word)
 *      are hashed into a 4-word pool, which generate_state(4, uint64)
 *      hashes out again;
 *   2. PCG64 (a 128-bit LCG with the XSL-RR output) is seeded from
 *      those four words: initstate is words 0-1 and initseq words 2-3,
 *      the high half first;
 *   3. the draws are numpy's own C distributions (libnpyrandom.a, which
 *      numpy ships for C extensions and this file is linked against),
 *      called as the Generator calls them: rng.random((3, n)),
 *      rng.integers(1, 4, n), rng.integers(0, 4, n) and, once the
 *      errors are applied, one rng.normal(0, jitter) per emitted base.
 *      The 32-bit half-word PCG64 buffers carries from one bounded fill
 *      into the next, as it does in numpy's bit generator.
 *
 * The errors are repro.genomics.mutate.apply_drawn_errors': base i is
 * kept when u2 >= p * del, substituted by (base + shift) & 3 when it is
 * kept and u0 < p * sub, and followed by its inserted base when
 * u1 < p * ins. Every output base takes its source base's track quality
 * plus (0 + jitter * z), clipped to [1, 40], a NaN passing through as
 * numpy's maximum and minimum pass it. The error probabilities are
 * computed, clipped and range-checked by the caller in numpy; here they
 * meet only IEEE multiplies and comparisons, under -ffp-contract=off.
 *
 * No static state: the scratch draws are one malloc per call.
 */

#include <stdbool.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* numpy/random/bitgen.h's bit generator. */
typedef struct bitgen {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

/* From numpy/random/distributions.h (npy_intp is intptr_t). */
void random_standard_uniform_fill(bitgen_t *bitgen_state, intptr_t cnt, double *out);
void random_bounded_uint64_fill(bitgen_t *bitgen_state, uint64_t off, uint64_t rng,
                                intptr_t cnt, bool use_masked, uint64_t *out);
double random_normal(bitgen_t *bitgen_state, double loc, double scale);

__extension__ typedef unsigned __int128 u128;

/* PCG64's state, with the half-word next_uint32 keeps for its next call. */
typedef struct {
    u128 state, inc;
    bool has_uint32;
    uint32_t uinteger;
} Pcg64;

static const u128 PCG_MULTIPLIER =
    ((u128)UINT64_C(2549297995355413924) << 64) + UINT64_C(4865540595714422341);

static uint64_t pcg64_next64(void *st)
{
    Pcg64 *rng = st;
    rng->state = rng->state * PCG_MULTIPLIER + rng->inc;
    const uint64_t x = (uint64_t)(rng->state >> 64) ^ (uint64_t)rng->state;
    const unsigned rot = (unsigned)(rng->state >> 122);
    return (x >> rot) | (x << ((-rot) & 63u));
}

static uint32_t pcg64_next32(void *st)
{
    Pcg64 *rng = st;
    if (rng->has_uint32) {
        rng->has_uint32 = false;
        return rng->uinteger;
    }
    const uint64_t next = pcg64_next64(st);
    rng->has_uint32 = true;
    rng->uinteger = (uint32_t)(next >> 32);
    return (uint32_t)next;
}

static double pcg64_next_double(void *st)
{
    return (double)(pcg64_next64(st) >> 11) * (1.0 / 9007199254740992.0);
}

/* SeedSequence's hash constants. */
#define INIT_A UINT32_C(0x43b0d7e5)
#define MULT_A UINT32_C(0x931e8875)
#define INIT_B UINT32_C(0x8b51f9dd)
#define MULT_B UINT32_C(0x58f38ded)
#define MIX_MULT_L UINT32_C(0xca01f9dd)
#define MIX_MULT_R UINT32_C(0x4973f715)
#define POOL 4

static uint32_t hashmix(uint32_t value, uint32_t *hash_const)
{
    value ^= *hash_const;
    *hash_const = (uint32_t)(*hash_const * MULT_A);
    value = (uint32_t)(value * *hash_const);
    return value ^ (value >> 16);
}

static uint32_t mix(uint32_t x, uint32_t y)
{
    const uint32_t result = (uint32_t)((uint32_t)(MIX_MULT_L * x) - (uint32_t)(MIX_MULT_R * y));
    return result ^ (result >> 16);
}

/* PCG64(SeedSequence(words)) into rng, its buffered half-word cleared. */
static void seed_pcg64(Pcg64 *rng, const uint32_t *words, int64_t n_words)
{
    uint32_t pool[POOL], hash = INIT_A;
    for (int i = 0; i < POOL; i++)
        pool[i] = hashmix(i < n_words ? words[i] : 0, &hash);
    for (int src = 0; src < POOL; src++)
        for (int dst = 0; dst < POOL; dst++)
            if (src != dst)
                pool[dst] = mix(pool[dst], hashmix(pool[src], &hash));
    for (int64_t src = POOL; src < n_words; src++)
        for (int dst = 0; dst < POOL; dst++)
            pool[dst] = mix(pool[dst], hashmix(words[src], &hash));

    uint64_t state[4];
    hash = INIT_B;
    for (int i = 0; i < 8; i++) {
        uint32_t value = pool[i % POOL] ^ hash;
        hash = (uint32_t)(hash * MULT_B);
        value = (uint32_t)(value * hash);
        value ^= value >> 16;
        state[i / 2] = i % 2 ? state[i / 2] | (uint64_t)value << 32 : value;
    }
    const u128 initstate = ((u128)state[0] << 64) | state[1];
    const u128 initseq = ((u128)state[2] << 64) | state[3];
    rng->state = 0;
    rng->inc = (initseq << 1) | 1u;
    rng->state = rng->state * PCG_MULTIPLIER + rng->inc;
    rng->state += initstate;
    rng->state = rng->state * PCG_MULTIPLIER + rng->inc;
    rng->has_uint32 = false;
    rng->uinteger = 0;
}

/* Decodes n_chunks chunks whose true codes, track qualities and error
 * probabilities lie back to back in codes / track / error_prob. The
 * table holds three rows of n_chunks each: every chunk's length in
 * bases, its index in its read and the end of its entropy prefix in
 * prefixes. Chunk c's prefix is prefixes[prefix_ends[c - 1] ..
 * prefix_ends[c]) (from 0 for the first chunk), and its stream is
 * seeded from those words followed by the words of its index. sub, ins
 * and del are the error profile's normalised weights. Writes the
 * emitted bases and qualities to out_codes / out_quality (room for
 * twice the bases) and chunk c's end in them to ends[c]. Returns the
 * bases emitted, -1 when malloc fails (nothing is written then). */
int64_t surrogate_decode(const uint8_t *codes, const double *track, const double *error_prob,
                         const int64_t *table, int64_t n_chunks, const uint32_t *prefixes,
                         double sub, double ins, double del, double jitter, uint8_t *out_codes,
                         double *out_quality, int64_t *ends)
{
    const int64_t *lengths = table, *indices = table + n_chunks,
                  *prefix_ends = table + 2 * n_chunks;
    int64_t longest = 0, widest = 0;
    for (int64_t c = 0; c < n_chunks; c++) {
        const int64_t width = prefix_ends[c] - (c ? prefix_ends[c - 1] : 0);
        longest = lengths[c] > longest ? lengths[c] : longest;
        widest = width > widest ? width : widest;
    }
    /* Three uniforms and two bounded draws per base, then the entropy
     * words: the widest prefix and at most two words of an index. */
    char *block = malloc((size_t)longest * 5 * sizeof(double) +
                         (size_t)(widest + 2) * sizeof(uint32_t));
    if (block == NULL)
        return -1;
    double *uniforms = (double *)block;
    uint64_t *shifts = (uint64_t *)(uniforms + 3 * longest);
    uint64_t *inserted = shifts + longest;
    uint32_t *words = (uint32_t *)(inserted + longest);

    Pcg64 rng;
    bitgen_t bitgen = {&rng, pcg64_next64, pcg64_next32, pcg64_next_double, pcg64_next64};
    int64_t out = 0;
    for (int64_t c = 0; c < n_chunks; c++) {
        const int64_t n = lengths[c], first_word = c ? prefix_ends[c - 1] : 0;
        int64_t n_words = prefix_ends[c] - first_word;
        memcpy(words, prefixes + first_word, (size_t)n_words * sizeof(uint32_t));
        uint64_t index = (uint64_t)indices[c];
        do {
            words[n_words++] = (uint32_t)index;
            index >>= 32;
        } while (index != 0);
        seed_pcg64(&rng, words, n_words);

        random_standard_uniform_fill(&bitgen, (intptr_t)(3 * n), uniforms);
        random_bounded_uint64_fill(&bitgen, 1, 2, (intptr_t)n, false, shifts);
        random_bounded_uint64_fill(&bitgen, 0, 3, (intptr_t)n, false, inserted);

        const double *u_sub = uniforms, *u_ins = uniforms + n, *u_del = uniforms + 2 * n;
        const int64_t first = out;
        for (int64_t i = 0; i < n; i++) {
            const double p = error_prob[i];
            if (u_del[i] >= p * del) {
                out_codes[out] = u_sub[i] < p * sub ? (uint8_t)((codes[i] + shifts[i]) & 3u)
                                                    : codes[i];
                out_quality[out++] = track[i];
            }
            if (u_ins[i] < p * ins) {
                out_codes[out] = (uint8_t)inserted[i];
                out_quality[out++] = track[i];
            }
        }
        for (int64_t j = first; j < out; j++) {
            double q = out_quality[j] + random_normal(&bitgen, 0.0, jitter);
            if (q < 1.0)
                q = 1.0;
            if (q > 40.0)
                q = 40.0;
            out_quality[j] = q;
        }
        ends[c] = out;
        codes += n;
        track += n;
        error_prob += n;
    }
    free(block);
    return out;
}
