"""Sequencing-error models.

Nanopore reads carry 10-15% errors (substitutions, insertions,
deletions). Two places in this reproduction inject errors:

* the **read simulator** perturbs the true genomic sequence to produce
  the "read as the basecaller would emit it";
* the **surrogate basecaller** replays exactly this process chunk by
  chunk, with error probabilities tied to the per-base quality scores so
  that low-quality chunks really do carry more errors (which is what
  makes quality-based early rejection meaningful). It makes each
  chunk's draws (:func:`draw_errors`) on the chunk's own stream and
  applies a whole batch of chunks at once (:func:`apply_drawn_errors`).

The error process is position-wise: each true base is independently
substituted / deleted / followed by an insertion according to either a
fixed :class:`ErrorProfile` or a per-base error probability vector
(derived from Phred scores via ``p = 10^(-q/10)``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.checks import ConfigError, require_finite


@dataclass(frozen=True)
class ErrorProfile:
    """Relative mix and overall rate of sequencing errors.

    Attributes
    ----------
    substitution, insertion, deletion:
        Non-negative weights of each error type; they are normalised
        internally, so only ratios matter. The default 50/25/25 split
        approximates ONT R9 behaviour.
    """

    substitution: float = 0.5
    insertion: float = 0.25
    deletion: float = 0.25

    def __post_init__(self) -> None:
        # NaN would delete every base and inf would inject nothing.
        for name in ("substitution", "insertion", "deletion"):
            require_finite(name, getattr(self, name), ge=0)
        if self.substitution + self.insertion + self.deletion <= 0:
            raise ConfigError("at least one error weight must be positive")

    def shares(self) -> tuple[float, float, float]:
        """The (sub, ins, del) shares of a base's error probability."""
        total = self.substitution + self.insertion + self.deletion
        return self.substitution / total, self.insertion / total, self.deletion / total

    def split(self, error_prob):
        """Split per-base error probability into (sub, ins, del) parts."""
        p = np.asarray(error_prob, dtype=np.float64)
        return tuple(p * share for share in self.shares())


@dataclass(frozen=True)
class MutationResult:
    """Outcome of applying sequencing errors to a true sequence.

    Attributes
    ----------
    codes:
        The erroneous sequence as a 2-bit code array.
    n_substitutions, n_insertions, n_deletions:
        Counts of each injected error type.
    source_index:
        For every output base, the index of the true base it derives
        from (insertions copy the index of the preceding true base).
        Used by tests to verify error bookkeeping.
    """

    codes: np.ndarray
    n_substitutions: int
    n_insertions: int
    n_deletions: int
    source_index: np.ndarray

    @property
    def n_errors(self) -> int:
        return self.n_substitutions + self.n_insertions + self.n_deletions


class ErrorDraws(NamedTuple):
    """The random numbers one :func:`apply_errors` call consumes.

    Attributes
    ----------
    uniforms:
        ``(3, n)`` uniforms in ``[0, 1)``; rows test substitution,
        insertion and deletion of each true base.
    shifts:
        ``n`` integers in ``[1, 4)``: a substituted base is
        ``(base + shift) & 3``, so always a different base.
    inserted:
        ``n`` integers in ``[0, 4)``: the base inserted after each true
        base, if one is.
    """

    uniforms: np.ndarray
    shifts: np.ndarray
    inserted: np.ndarray


def draw_errors(rng: np.random.Generator, n: int) -> ErrorDraws:
    """Draw the random numbers for ``n`` true bases, in the order
    :func:`apply_errors` has always drawn them."""
    uniforms = rng.random((3, n))
    return ErrorDraws(uniforms, rng.integers(1, 4, size=n), rng.integers(0, 4, size=n))


def check_error_probs(p: np.ndarray) -> None:
    """Refuse, with ``ValueError``, a NaN or a probability outside ``[0, 1]``."""
    # Written so that NaN fails it: NaN compares false both ways.
    if p.size and not (p.min() >= 0 and p.max() <= 1):
        raise ValueError("error probabilities must be within [0, 1]")


def apply_drawn_errors(
    codes: np.ndarray,
    error_prob,
    draws: ErrorDraws,
    profile: ErrorProfile | None = None,
) -> MutationResult:
    """Inject substitutions/insertions/deletions decided by ``draws``.

    Every output element depends only on its own position's
    probability and draws, so the draws of several sequences,
    concatenated, mutate the concatenated sequences exactly as each
    would be mutated alone. Parameters and errors are
    :func:`apply_errors`'s.
    """
    codes = np.asarray(codes, dtype=np.uint8)
    n = codes.size
    profile = profile or ErrorProfile()
    p = np.asarray(error_prob, dtype=np.float64)
    if p.ndim and p.shape != (n,):
        p = np.broadcast_to(p, (n,))
    check_error_probs(p)
    p_sub, p_ins, p_del = profile.split(p)

    uniforms, shifts, inserted = draws
    keep = uniforms[2] >= p_del  # not deleted; a deletion wins over a substitution
    do_sub = uniforms[0] < p_sub
    do_sub &= keep
    do_ins = uniforms[1] < p_ins

    # Slot (i, 0) is true base i, substituted by a random *different*
    # base (add 1..3 mod 4); slot (i, 1) is the base inserted after it.
    slots = np.empty((n, 2), dtype=np.uint8)
    slots[:, 0] = codes
    np.copyto(slots[:, 0], (codes + shifts) & 3, where=do_sub, casting="unsafe")
    slots[:, 1] = inserted

    # The output is the taken slots in row-major order: for each
    # position, the kept base then an optional inserted base.
    taken = np.empty((n, 2), dtype=bool)
    taken[:, 0] = keep
    taken[:, 1] = do_ins
    flat = np.flatnonzero(taken)
    n_insertions = int(np.count_nonzero(do_ins))

    return MutationResult(
        codes=slots.ravel()[flat],
        n_substitutions=int(np.count_nonzero(do_sub)),
        n_insertions=n_insertions,
        n_deletions=n - (flat.size - n_insertions),
        source_index=flat >> 1,
    )


def apply_errors(
    codes: np.ndarray,
    error_prob,
    rng: np.random.Generator,
    profile: ErrorProfile | None = None,
) -> MutationResult:
    """Inject substitutions/insertions/deletions into a code array.

    Parameters
    ----------
    codes:
        True sequence (2-bit codes).
    error_prob:
        Either a scalar error probability applied to every base or a
        vector of per-base probabilities with ``len == len(codes)``.
    rng:
        Source of randomness.
    profile:
        Error-type mix; defaults to :class:`ErrorProfile`'s ONT-like mix.

    Raises
    ------
    ValueError
        If a probability is NaN or outside ``[0, 1]``, or the vector's
        length is neither 1 nor ``len(codes)``.

    Notes
    -----
    Deletion wins over substitution when both fire at a position (the
    base is simply dropped); insertions are applied after the (possibly
    substituted) base, drawing a uniformly random inserted base.
    """
    return apply_drawn_errors(codes, error_prob, draw_errors(rng, np.size(codes)), profile)
