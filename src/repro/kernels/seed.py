"""Seeding kernels: the minimizer scan and the index probe.

Seeding (paper Fig. 1(a): the hash-table probe GenPIP's seeding unit
answers from its ReRAM CAM rows) turns each query minimizer into the
set of reference locations sharing its key. The kernels here operate
on the *flat* index layout -- sorted ``uint64`` keys, ``int64`` entry
bounds, and the concatenated ``int64`` position / ``int8`` strand
location arrays -- which is exactly the layout ``publish_index`` puts
in shared memory, so pooled workers seed straight out of the shared
segment with zero per-key Python.

Production seeds with the C kernel ``seed.c`` when it loaded
(``native.kernel("seed")``: built on first use by
:mod:`repro.kernels.native`, once per process, never at import). One
call scans a chunk's minimizers and probes every key:
:func:`repro.mapping.seeding.collect_anchor_arrays` calls its
``seed_anchors``, and :func:`repro.mapping.minimizers.minimizer_arrays`
(and so the reference index build) its ``seed_minimizers``. Otherwise
-- no compiler, or a build or load that failed -- the numpy path runs:
``minimizer_arrays``' vectorised scan, then :func:`seed_anchors_batched`,
which replaces the per-key loop with one ``np.searchsorted`` over all
query keys, a ``np.repeat``/cumsum expansion of the hit entries, and
fancy-indexed gathering of the location rows. ``native.backend("seed")``
says which runs. The per-key loop :func:`seed_anchors_scalar` is the
reference the tests import to check both against: all three give the
same arrays, byte for byte. All three keep raw read coordinates on both
strands and sort each strand's rows by (ref, read): orienting the
reverse strand is the chain stage's affair, and it merges sorted blocks
cheaply.
"""

from __future__ import annotations

import numpy as np


def _group_and_sort(fwd: np.ndarray, rev: np.ndarray) -> dict[int, np.ndarray]:
    """Shared tail of both kernels: strand grouping, stable sort."""
    out: dict[int, np.ndarray] = {}
    for strand, arr in ((1, fwd), (-1, rev)):
        if arr.size:
            order = np.lexsort((arr[:, 1], arr[:, 0]))
            arr = arr[order]
        out[strand] = arr
    return out


def seed_anchors_scalar(
    q_keys: np.ndarray,
    q_positions: np.ndarray,
    q_strands: np.ndarray,
    keys: np.ndarray,
    bounds: np.ndarray,
    positions: np.ndarray,
    strands: np.ndarray,
    read_offset: int = 0,
) -> dict[int, np.ndarray]:
    """Per-key reference loop (the original interpreted seeding path).

    One binary search and one Python row loop per query minimizer; kept
    as the ground truth the compiled and batched kernels are checked
    against.
    """
    n_keys = int(keys.size)
    fwd_rows: list[tuple[int, int]] = []
    rev_rows: list[tuple[int, int]] = []
    for key, q_pos, q_strand in zip(
        q_keys.tolist(), q_positions.tolist(), q_strands.tolist(), strict=True
    ):
        i = int(np.searchsorted(keys, np.uint64(key)))
        if i >= n_keys or int(keys[i]) != key:
            continue
        lo, hi = int(bounds[i]), int(bounds[i + 1])
        global_q = read_offset + q_pos
        for r_pos, r_strand in zip(
            positions[lo:hi].tolist(), strands[lo:hi].tolist(), strict=True
        ):
            if r_strand == q_strand:
                fwd_rows.append((r_pos, global_q))
            else:
                rev_rows.append((r_pos, global_q))
    fwd = np.array(fwd_rows, dtype=np.int64) if fwd_rows else np.empty((0, 2), np.int64)
    rev = np.array(rev_rows, dtype=np.int64) if rev_rows else np.empty((0, 2), np.int64)
    return _group_and_sort(fwd, rev)


def seed_anchors_batched(
    q_keys: np.ndarray,
    q_positions: np.ndarray,
    q_strands: np.ndarray,
    keys: np.ndarray,
    bounds: np.ndarray,
    positions: np.ndarray,
    strands: np.ndarray,
    read_offset: int = 0,
) -> dict[int, np.ndarray]:
    """Vectorised seeding: one searchsorted, one repeat/gather expansion.

    The probe of the numpy path, which runs where ``seed.c`` did not
    load. Emits location rows in the scalar kernel's (query order, entry
    order); the shared stable lexsort then makes the grouped outputs
    identical arrays.
    """
    empty = np.empty((0, 2), np.int64)
    if q_keys.size == 0 or keys.size == 0:
        return _group_and_sort(empty, empty)

    idx = np.searchsorted(keys, q_keys)
    np.minimum(idx, keys.size - 1, out=idx)
    hit = keys[idx] == q_keys
    hit_idx = idx[hit]
    if hit_idx.size == 0:
        return _group_and_sort(empty, empty)

    starts = bounds[hit_idx]
    counts = bounds[hit_idx + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return _group_and_sort(empty, empty)

    # Expand each hit entry to its location rows: repeat the per-hit
    # query columns, and index locations with start + within-entry ramp.
    rep_q = np.repeat(read_offset + q_positions[hit], counts)
    rep_qs = np.repeat(q_strands[hit], counts)
    cum = np.cumsum(counts)
    ramp = np.arange(total, dtype=np.int64) - np.repeat(cum - counts, counts)
    loc = np.repeat(starts, counts) + ramp
    r_pos = positions[loc]
    same = strands[loc] == rep_qs

    fwd = np.stack((r_pos[same], rep_q[same]), axis=1)
    rev_mask = ~same
    rev = np.stack((r_pos[rev_mask], rep_q[rev_mask]), axis=1)
    return _group_and_sort(fwd, rev)
