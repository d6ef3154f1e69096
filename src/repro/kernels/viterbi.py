"""Viterbi trellis kernels: the forward pass, its traceback and the reference.

The k-mer HMM decoder's hot loop is the trellis forward pass: per raw
signal sample, every state picks the best of *stay* (same k-mer) and
four *move* predecessors. :func:`viterbi_forward` and
:func:`viterbi_traceback` are the production entry points;
:func:`viterbi_forward_scalar` is the triple-loop reference performing
the *same float operations per state*, so all of them produce
bit-identical score matrices, backpointers, final scores and paths --
the tests replay them on generated and fixed-seed trellises and compare
them by bytes.

**Two implementations, one output.** Each entry point runs the compiled
kernel in ``trellis.c`` when it loaded (``native.kernel("trellis")``:
built on first use by :mod:`repro.kernels.native`, once per process,
never at import), and otherwise the numpy fold below -- no compiler, or
a build or load that failed. Nothing chooses between them but
availability: the C code does the fold's float64 operations in the
fold's order, so no byte depends on which one ran.
``native.backend("trellis")`` says which.

**The fold.** State ``s`` on a move came from ``pred[s, c] = c*S/4 +
(s >> 2)`` (:func:`move_predecessors`): its four predecessors are column
``s >> 2`` of ``dp.reshape(4, S/4)``, and the four sibling states
``4j .. 4j+3`` share column ``j``. So the best move into every state is
one column-wise maximum over a ``(4, S/4)`` view, broadcast over the
siblings -- a quarter of the comparisons of a per-state gather, and no
gather at all. Per observation the fold makes five whole-vector ufunc
calls (column maximum, ``+ log_move``, ``+ log_stay``, the broadcast
maximum of move and stay, ``+ emission``), each into a preallocated row.
The C kernel walks the same columns one state at a time.

**The block epilogue (fold only).** Backpointers and the float32 score
matrix are not needed until traceback, so they are derived once per block of
:data:`_BLOCK` observations from the float64 rows the loop kept: a
state's backpointer is ``(move > stay) * code`` with ``code`` the first
predecessor (``1 + c``) holding the column maximum -- an equality
cascade that reproduces ``np.argmax``'s first-maximum tie-break. The
emissions are scored per block too (:func:`sample_emissions`), so no
``T x S`` float64 matrix is ever built. No output byte depends on the
block size.

**Finite input only.** :func:`viterbi_forward` raises ``ValueError`` on
a non-finite observation, level or log prior, or a sigma that is not
finite and positive. With a NaN predecessor the fold's ``maximum``
propagates NaN where the strict ``move > stay`` of the C kernel and of
the reference falls back to stay, so only finite trellises have one
answer. :class:`~repro.nanopore.signal.RawSignal` and
:class:`~repro.nanopore.pore_model.PoreModel` refuse such values, so the
pipeline never reaches the check.
"""

from __future__ import annotations

import numpy as np

#: Transition work per state per observation: one stay candidate plus
#: four move predecessors (what the state-space op count charges).
TRANSITIONS_PER_STATE = 5

#: Observations per block of the numpy fold: emissions are scored, and
#: backpointers and float32 scores derived, once per block. Forward
#: pass of one k=5, 1 785-observation chunk on a 2-vCPU Xeon, median of
#: 15 and of 31 alternated calls: 32 -> 32.8 / 37.1 ms, 64 -> 33.7 /
#: 36.8 ms, 128 -> 35.8 / 39.9 ms. 32 and 64 tie; 64 runs half the
#: epilogues. A speed constant of the fold only (the C kernel never
#: reads it): no output byte depends on it.
_BLOCK = 64

def viterbi_state_ops(n_observations: int, n_states: int) -> int:
    """State-space transition ops of one trellis forward pass."""
    if n_observations < 0 or n_states < 0:
        raise ValueError("n_observations and n_states must be non-negative")
    return n_observations * n_states * TRANSITIONS_PER_STATE


def move_predecessors(k: int) -> np.ndarray:
    """``int64[4**k, 4]`` move-predecessor table of the k-mer trellis.

    A state is a packed k-mer (2 bits per base, first base highest); a
    move shifts base ``b`` in at the bottom, so state ``s`` was
    ``pred[s, c] = (c << 2(k-1)) | (s >> 2) = c*S/4 + (s >> 2)`` with
    ``S = 4**k`` and ``c`` the base shifted out. That is, ``s``'s four
    predecessors are column ``s >> 2`` of ``dp.reshape(4, S/4)`` -- the
    identity :func:`viterbi_forward` folds on.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    states = np.arange(4**k, dtype=np.int64)
    return (np.arange(4, dtype=np.int64)[None, :] << (2 * (k - 1))) | (states >> 2)[:, None]


def viterbi_forward(
    observations: np.ndarray,
    levels: np.ndarray,
    sigma: np.ndarray,
    log_sigma: np.ndarray,
    log_stay: float,
    log_move: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Trellis forward pass over Gaussian observations.

    Parameters
    ----------
    observations:
        ``float64[T]`` raw signal samples, scored as
        :func:`sample_emissions` does. Must be finite.
    levels, sigma, log_sigma:
        ``float64[S]`` per-state emission mean, spread and its log, with
        ``S = 4**k`` states laid out as :func:`move_predecessors` says.
        Levels and ``log_sigma`` must be finite, sigma finite and positive.
    log_stay, log_move:
        Finite log transition priors.

    Returns
    -------
    (backptr, scores, dp):
        ``uint8[T, S]`` backpointers (0 = stay, ``c+1`` = move from
        ``pred[s, c]``), the ``float32[T, S]`` cumulative score matrix
        (kept for confidence margins), and the final ``float64[S]``
        scores -- bit-identical to :func:`viterbi_forward_scalar` on the
        emissions :func:`sample_emissions` gives, whether the C kernel
        or the numpy fold ran.
    """
    observations = np.asarray(observations, dtype=np.float64)
    if observations.ndim != 1:
        raise ValueError("observations must be a 1-D array")
    levels, sigma, log_sigma = (
        np.ascontiguousarray(values, dtype=np.float64) for values in (levels, sigma, log_sigma)
    )
    t_total, n_states = observations.size, levels.size
    if levels.ndim != 1 or not n_states or n_states % 4 or not (
        sigma.shape == log_sigma.shape == levels.shape
    ):
        raise ValueError("levels, sigma and log_sigma must be 1-D, of one length 4**k")
    if not np.isfinite(observations).all():
        raise ValueError("observations must be finite")
    if not np.all((sigma > 0) & (sigma < np.inf)):
        raise ValueError("sigma must be finite and positive")
    log_stay, log_move = float(log_stay), float(log_move)
    if not all(np.isfinite(values).all() for values in (levels, log_sigma, (log_stay, log_move))):
        raise ValueError("levels, log_sigma, log_stay and log_move must be finite")
    backptr = np.empty((t_total, n_states), dtype=np.uint8)
    scores = np.empty((t_total, n_states), dtype=np.float32)
    if t_total == 0:
        return backptr, scores, np.empty(0, dtype=np.float64)
    import repro.kernels.native as native

    trellis = native.kernel("trellis")
    if trellis is None:
        dp = _forward_fold(observations, levels, sigma, log_sigma, log_stay, log_move, backptr, scores)
        return backptr, scores, dp
    dp, work = np.empty(n_states), np.empty(n_states + n_states // 4)
    trellis.trellis_forward(
        np.ascontiguousarray(observations), t_total, n_states, levels, sigma, log_sigma,
        log_stay, log_move, backptr, scores, dp, work,
    )  # fmt: skip
    return backptr, scores, dp


def _forward_fold(
    observations: np.ndarray,
    levels: np.ndarray,
    sigma: np.ndarray,
    log_sigma: np.ndarray,
    log_stay: float,
    log_move: float,
    backptr: np.ndarray,
    scores: np.ndarray,
) -> np.ndarray:
    """The numpy fold of :func:`viterbi_forward` on checked, non-empty
    input: fills ``backptr`` and ``scores``, returns the final dp row."""
    t_total, n_states = observations.size, levels.size

    def emissions(start: int, stop: int) -> np.ndarray:
        return sample_emissions(observations[start:stop], levels, sigma, log_sigma)

    quarter = n_states // 4
    block = max(1, min(_BLOCK, t_total - 1))
    # Row 0 of each history holds the block's incoming dp; row i + 1 the
    # dp after its i-th observation. ``column_max`` and ``stay`` keep
    # each observation's two candidates for the epilogue.
    hist = np.empty((block + 1, n_states))
    column_max = np.empty((block, quarter))
    stay = np.empty((block, n_states))
    move = np.empty(quarter)
    by_column = hist.reshape(block + 1, 4, quarter)
    by_sibling = hist.reshape(block + 1, quarter, 4)
    stay_by_sibling = stay.reshape(block, quarter, 4)
    move_col = move[:, None]
    code = np.empty((block, quarter), dtype=np.uint8)

    hist[0] = emissions(0, 1)[0]  # uniform state prior
    backptr[0] = 0
    scores[0] = hist[0]
    for start in range(1, t_total, block):
        n = min(block, t_total - start)
        emission = emissions(start, start + n)
        for i in range(n):
            np.maximum.reduce(by_column[i], axis=0, out=column_max[i])
            np.add(column_max[i], log_move, out=move)
            np.add(hist[i], log_stay, out=stay[i])
            np.maximum(move_col, stay_by_sibling[i], out=by_sibling[i + 1])
            hist[i + 1] += emission[i]
        # Epilogue: ``code`` is 1 + the first c whose predecessor holds the
        # column maximum (``np.argmax``'s pick; the cascade runs backwards
        # so the first match is written last), kept only where move won.
        peak = column_max[:n]
        code[:n] = 4
        for c in (2, 1, 0):
            np.copyto(code[:n], c + 1, where=by_column[:n, c] == peak)
        use_move = (peak + log_move)[:, :, None] > stay_by_sibling[:n]
        np.multiply(
            use_move,
            code[:n, :, None],
            out=backptr[start : start + n].reshape(n, quarter, 4),
        )
        scores[start : start + n] = hist[1 : n + 1]
        hist[0] = hist[n]
    return hist[0].copy()


def viterbi_forward_scalar(
    emissions: np.ndarray,
    pred: np.ndarray,
    log_stay: float,
    log_move: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scalar (per-state loop) reference of :func:`viterbi_forward`.

    Takes the whole ``float64[T, S]`` emission matrix
    (:func:`sample_emissions` of the samples) and performs the
    identical float64 operations cell by cell -- the same
    adds, the same strict-greater argmax tie-breaking (first maximum
    wins, matching ``np.argmax``) -- so results are bit-identical to
    the vectorised kernel. Quadratically slower; exists for the
    equivalence tests, not for production decoding.
    """
    t_total, n_states = emissions.shape
    backptr = np.empty((t_total, n_states), dtype=np.uint8)
    scores = np.empty((t_total, n_states), dtype=np.float32)
    if t_total == 0:
        return backptr, scores, np.empty(0, dtype=np.float64)
    dp = emissions[0].copy()
    backptr[0] = 0
    scores[0] = dp
    for t in range(1, t_total):
        new_dp = np.empty(n_states, dtype=np.float64)
        for s in range(n_states):
            stay = dp[s] + log_stay
            move_arg = 0
            move_best = dp[pred[s, 0]]
            for c in range(1, 4):
                value = dp[pred[s, c]]
                if value > move_best:  # first maximum wins, as np.argmax
                    move_best = value
                    move_arg = c
            move = move_best + log_move
            if move > stay:
                new_dp[s] = move + emissions[t, s]
                backptr[t, s] = move_arg + 1
            else:
                new_dp[s] = stay + emissions[t, s]
                backptr[t, s] = 0
        dp = new_dp
        scores[t] = dp
    return backptr, scores, dp


def viterbi_traceback(backptr: np.ndarray, pred: np.ndarray, dp: np.ndarray) -> np.ndarray:
    """Most-likely state path from backpointers and final scores.

    The C kernel runs on what :func:`viterbi_forward` returns (``uint8``
    backpointers, ``S`` final scores, an ``int64[S, 4]`` predecessor
    table) when it loaded; any other input, a NaN final score, and any
    path that leaves the trellis go to the Python loop below, which
    defines what such input means.
    """
    t_total = backptr.shape[0]
    path = np.empty(t_total, dtype=np.int64)
    if t_total == 0:
        return path
    import repro.kernels.native as native

    trellis = native.kernel("trellis")
    states = backptr.shape[1:]
    if (
        trellis is not None
        and (backptr.dtype, pred.dtype, dp.dtype) == (np.uint8, np.int64, np.float64)
        and (len(states), dp.shape, pred.shape) == (1, states, (*states, 4))
    ):
        backptr_c, pred_c, dp_c = (np.ascontiguousarray(a) for a in (backptr, pred, dp))
        if trellis.trellis_traceback(backptr_c, t_total, states[0], pred_c, dp_c, path) == 0:
            return path
    state = int(np.argmax(dp))
    path[-1] = state
    for t in range(t_total - 1, 0, -1):
        choice = backptr[t, state]
        if choice != 0:
            state = int(pred[state, choice - 1])
        path[t - 1] = state
    return path


def sample_emissions(
    samples: np.ndarray,
    levels: np.ndarray,
    sigma: np.ndarray,
    log_sigma: np.ndarray,
) -> np.ndarray:
    """``float64[T, S]`` Gaussian state log-likelihoods of raw samples
    (the normalising constant dropped: it is the same for every state)."""
    samples = np.asarray(samples, dtype=np.float64)
    z = (samples[:, None] - levels[None, :]) / sigma[None, :]
    return -0.5 * z * z - log_sigma[None, :]
