"""(k, w) minimizer extraction with canonical strands.

A *minimizer* is the k-mer with the smallest hash inside a window of
``w`` consecutive k-mers (Roberts et al. 2004; the same scheme minimap2
uses). Hashing uses an invertible 64-bit mix so that minimizer choice is
pseudo-random in sequence content; strands are made *canonical* by
hashing both a k-mer and its reverse complement and keeping the smaller,
so a read and its reverse complement produce the same minimizer keys.

:func:`minimizer_arrays` runs the compiled scan of ``seed.c`` when it
loaded (:mod:`repro.kernels.seed`): one pass rolling both strands'
k-mers, taking the window minima block by block. Otherwise the
numpy path below runs, with the same bytes: every per-position step
(packing, reverse complement, hashing, windowed minima) vectorised over
the whole sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.checks import require_integer
from repro.genomics.alphabet import kmer_codes


@dataclass(frozen=True)
class MinimizerConfig:
    """Minimizer scheme parameters.

    minimap2's map-ont preset uses ``k=15, w=10``; the default here is a
    slightly smaller k suited to the synthetic references (smaller
    genomes need shorter k-mers for comparable specificity).
    """

    k: int = 13
    w: int = 10

    def __post_init__(self) -> None:
        # ``w=inf`` would make every call one window; 2.5, NaN or True would
        # fail inside the scan or reach the C kernel as another integer.
        require_integer("k", self.k, ge=4, le=28)
        require_integer("w", self.w, ge=1)


def _mix64(x: np.ndarray) -> np.ndarray:
    """Invertible 64-bit finalising mix (splitmix64-style)."""
    x = x.astype(np.uint64)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _revcomp_packed(kmers: np.ndarray, k: int) -> np.ndarray:
    """Reverse-complement packed k-mers (2 bits per base) in vectorised form."""
    x = kmers.astype(np.uint64)
    # Complement every base: A<->T, C<->G is XOR with 0b11 per 2-bit slot.
    x = x ^ np.uint64((1 << (2 * k)) - 1)
    # Reverse the order of 2-bit groups within 64 bits, then right-align.
    m2 = np.uint64(0x3333333333333333)
    m4 = np.uint64(0x0F0F0F0F0F0F0F0F)
    m8 = np.uint64(0x00FF00FF00FF00FF)
    m16 = np.uint64(0x0000FFFF0000FFFF)
    x = ((x >> np.uint64(2)) & m2) | ((x & m2) << np.uint64(2))
    x = ((x >> np.uint64(4)) & m4) | ((x & m4) << np.uint64(4))
    x = ((x >> np.uint64(8)) & m8) | ((x & m8) << np.uint64(8))
    x = ((x >> np.uint64(16)) & m16) | ((x & m16) << np.uint64(16))
    x = (x >> np.uint64(32)) | (x << np.uint64(32))
    return x >> np.uint64(64 - 2 * k)


def minimizer_arrays(
    codes: np.ndarray, config: MinimizerConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minimizer extraction: the compiled scan, else the numpy path.

    Returns
    -------
    (keys, positions, strands):
        ``uint64`` canonical hashes, ``int64`` 0-based k-mer start
        positions, and ``int8`` canonical strands (+1 forward,
        -1 reverse). Sorted by position, deduplicated.
    """
    codes = np.asarray(codes, dtype=np.uint8)
    k, w = config.k, config.w
    n_kmers = codes.size - k + 1
    import repro.kernels.native as native

    library = native.kernel("seed")
    if library is not None:
        # One slot per window; a window wider than the sequence is the
        # one window, so w is clamped to fit the kernel's int64.
        slots = max(1, n_kmers - w + 1) if n_kmers > 0 else 0
        keys = np.empty(slots, dtype=np.uint64)
        positions = np.empty(slots, dtype=np.int64)
        strands = np.empty(slots, dtype=np.int8)
        codes = np.ascontiguousarray(codes)
        count = library.seed_minimizers(
            codes, codes.size, k, min(w, codes.size), keys, positions, strands
        )
        if count < 0:
            raise MemoryError("seed.c could not allocate its scan buffers")
        return keys[:count], positions[:count], strands[:count]

    empty = (
        np.empty(0, dtype=np.uint64),
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.int8),
    )
    if n_kmers <= 0:
        return empty

    fwd = kmer_codes(codes, k).astype(np.uint64)
    rev = _revcomp_packed(fwd, k)
    h_fwd = _mix64(fwd)
    h_rev = _mix64(rev)
    canonical = np.minimum(h_fwd, h_rev)
    strand = np.where(h_fwd <= h_rev, 1, -1).astype(np.int8)
    # Skip strand-ambiguous k-mers (palindromes) like minimap2 does by
    # masking them with the maximum hash so they are never selected,
    # unless every k-mer in a window is ambiguous.
    ambiguous = h_fwd == h_rev
    selectable = canonical.copy()
    selectable[ambiguous] = np.iinfo(np.uint64).max

    if n_kmers <= w:
        pos = int(np.argmin(selectable))
        return (
            canonical[pos : pos + 1],
            np.array([pos], dtype=np.int64),
            strand[pos : pos + 1].astype(np.int8),
        )

    windows = np.lib.stride_tricks.sliding_window_view(selectable, w)
    arg = np.argmin(windows, axis=1)
    positions = np.arange(windows.shape[0], dtype=np.int64) + arg
    # A window's first minimum never lies left of the previous window's
    # (entering the window cannot move it back), so positions never
    # decrease: dropping repeats is ``np.unique`` without its sort.
    keep = np.ones(positions.size, dtype=bool)
    keep[1:] = positions[1:] != positions[:-1]
    positions = positions[keep]
    return canonical[positions], positions, strand[positions]
