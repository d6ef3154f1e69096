"""Seeding: query read minimizers against the index to collect anchors.

An *anchor* is a (reference position, read position) pair where a read
minimizer matches a reference minimizer. Matches on opposite canonical
strands indicate the read aligns to the reverse strand. Seeding keeps
*raw* read coordinates on both strands: following minimap2, the chain
stage flips reverse-strand read coordinates (``read_length - k - read``)
so that chaining sees monotonically increasing coordinates on both axes
for either orientation, and it does so against the read's called
length, which is final only once every chunk arrived.

One call of :func:`collect_anchor_arrays` is one call of the C kernel
``seed.c`` when it loaded (:mod:`repro.kernels.seed`): it scans the
chunk's minimizers, probes the index's flat arrays with each key, and
writes both strands' sorted anchors. Otherwise the numpy path runs:
:func:`~repro.mapping.minimizers.minimizer_arrays`, then
:func:`repro.kernels.seed.seed_anchors_batched`, every query key probed
with one ``np.searchsorted``. Both give the bytes of the per-key
reference loop, ``seed_anchors_scalar``, which the tests check them
against.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.seed import seed_anchors_batched
from repro.mapping.index import MinimizerIndex
from repro.mapping.minimizers import minimizer_arrays


def collect_anchor_arrays(
    index: MinimizerIndex,
    read_codes: np.ndarray,
    read_offset: int = 0,
) -> dict[int, np.ndarray]:
    """Collect anchors as arrays grouped by strand.

    Parameters
    ----------
    index:
        The reference minimizer index.
    read_codes:
        2-bit codes of the (chunk of the) read to seed.
    read_offset:
        Offset of ``read_codes`` within the full read -- this is how the
        chunk-based pipeline seeds one run of chunks at a time while
        keeping global read coordinates.

    Returns
    -------
    dict mapping strand (+1/-1) to an ``int64[n, 2]`` array of
    ``(ref_pos, read_pos)`` rows in raw read coordinates, sorted by
    (ref_pos, read_pos).
    """
    import repro.kernels.native as native

    library = native.kernel("seed")
    if library is None:
        keys, positions, strands = minimizer_arrays(read_codes, index.config)
        return seed_anchors_batched(
            keys,
            positions,
            strands,
            index.key_array,
            index.bounds_array,
            index.position_array,
            index.strand_array,
            read_offset=read_offset,
        )
    # One call of seed.c, or two when the first row buffer was too
    # small: the kernel returns the row count it needs, and nothing is
    # ever truncated. Room for a row per four bases: a chunk of a mapped
    # read needs about one per ten at w = 10, so the second call is for
    # repeats.
    codes = np.ascontiguousarray(read_codes, dtype=np.uint8)
    keys = index.key_array
    n_forward = np.empty(1, dtype=np.int64)
    capacity = codes.size // 4 + 64
    while True:
        rows = np.empty((capacity, 2), dtype=np.int64)
        total = library.seed_anchors(
            codes, codes.size, index.config.k, min(index.config.w, codes.size), keys, keys.size,
            index.bounds_array, index.position_array, index.strand_array, read_offset, rows,
            capacity, n_forward,
        )  # fmt: skip
        if total < 0:
            raise MemoryError("seed.c could not allocate its scan buffers")
        if total <= capacity:
            break
        capacity = total
    split = int(n_forward[0])
    return {1: rows[:split], -1: rows[split:total]}
