"""Event segmentation: recover a chunk grid from raw current alone.

Every signal container this repo writes carries a ``base_starts`` track
because the synthesis knows where each base's dwell begins. Real
FAST5/SLOW5 data has no such track -- the only grid a device emits is
the sample stream itself -- so a signal-native run over real data needs
a *segmentation front-end* that infers event boundaries (one event per
base dwell, ideally) from the samples.

This module implements the standard dwell-segmentation recipe
(scrappie/tombo-style windowed t-test jump detection), fully vectorised:

1. :func:`jump_scores` -- for every interior sample position, the
   two-sample t-statistic between the ``window`` samples on each side,
   in units of the signal's robust noise scale (median absolute first
   difference). A base boundary is a level jump, which shows up as a
   large score exactly at the first sample of the new dwell.
2. :func:`detect_events` -- boundaries are local maxima of that score
   above ``threshold``, thinned to a minimum dwell of ``min_dwell``
   samples; event starts are ``[0]`` plus the surviving boundaries.
3. :func:`segment_signal` / :func:`segment_read` -- package the event
   starts as a ``base_starts`` track, so a grid-less
   :class:`~repro.nanopore.signal_read.SignalRead` gains the chunk grid
   every downstream layer (chunking, sharding, SER, decoding) consumes.

The recovered grid is *approximate* -- adjacent k-mers with similar
levels produce undetectable jumps, so some events span two dwells --
which is exactly the situation real basecallers face; the decoders
consume sample windows, not event identities, so an approximate grid
only shifts chunk boundaries. ``tests/test_signal_subsystem.py`` bounds
the drift against the simulator's declared grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.checks import require_finite, require_integer
from repro.nanopore.signal import RawSignal
from repro.nanopore.signal_read import SignalRead


@dataclass(frozen=True)
class SegmentationConfig:
    """Parameters of the jump-detection pass.

    Attributes
    ----------
    window:
        Samples averaged on each side of a candidate boundary. Larger
        windows suppress noise but blur boundaries closer than
        ``window`` samples apart; the default suits dwells of ~4-10
        samples (ONT-like at this repo's synthesis rate).
    threshold:
        Jump score (in robust-noise sigmas) above which a local maximum
        becomes a boundary. The score of a true level jump of ``d`` pA
        is ``|d| * sqrt(window/2) / sigma``, so 3.0 keeps false
        boundaries rare at the synthesis noise levels while catching
        the typical ~13 pA k-mer level changes.
    min_dwell:
        Minimum samples per event; closer boundaries are thinned
        (first-come in sample order), mirroring the physical minimum
        dwell of the pore.
    """

    window: int = 4
    threshold: float = 3.0
    min_dwell: int = 2

    def __post_init__(self) -> None:
        # A fractional sample count would only fail later, indexing inside
        # jump_scores; a non-finite threshold is never exceeded, so the
        # whole read would become one event.
        require_integer("window", self.window, ge=1)
        require_finite("threshold", self.threshold, gt=0)
        require_integer("min_dwell", self.min_dwell, ge=1)


#: Shared (it is frozen) by every call given no config.
_DEFAULT_CONFIG = SegmentationConfig()


def robust_noise_scale(samples: np.ndarray) -> float:
    """Noise sigma estimated from first differences (jump-insensitive).

    On flat dwell segments, consecutive-sample differences are pure
    noise with standard deviation ``sqrt(2) * sigma``; the *median*
    absolute difference ignores the rare large jumps at boundaries, so
    ``median(|diff|) / (sqrt(2) * 0.6745)`` recovers sigma even on a
    signal that is mostly steps. Returns a small positive floor for
    noise-free signals so scores stay finite.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size < 2:
        return 1.0
    mad = float(np.median(np.abs(np.diff(samples))))
    sigma = mad / (np.sqrt(2.0) * 0.6745)
    return sigma if sigma > 0 else 1e-6


def jump_scores(samples: np.ndarray, window: int) -> np.ndarray:
    """Windowed t-statistic at every sample position (vectorised).

    ``scores[i]`` compares the means of ``samples[i - window : i]`` and
    ``samples[i : i + window]`` in units of the robust noise scale:
    ``|mean_right - mean_left| * sqrt(window / 2) / sigma``. Positions
    without a full window on both sides score zero, so the array aligns
    index-for-index with ``samples`` and boundaries read off directly.
    """
    if window < 1:
        raise ValueError("window must be positive")
    samples = np.asarray(samples, dtype=np.float64)
    n = samples.size
    scores = np.zeros(n)
    if n < 2 * window:
        return scores
    sigma = robust_noise_scale(samples)
    cum = np.concatenate(([0.0], np.cumsum(samples)))
    positions = np.arange(window, n - window + 1)
    left = (cum[positions] - cum[positions - window]) / window
    right = (cum[positions + window] - cum[positions]) / window
    scores[positions] = np.abs(right - left) * np.sqrt(window / 2.0) / sigma
    return scores


def detect_events(samples: np.ndarray, config: SegmentationConfig | None = None) -> np.ndarray:
    """Event start indices for a raw sample array (``int64``).

    The first event always starts at sample 0 (so a non-empty signal
    yields at least one event); subsequent starts are the local maxima
    of :func:`jump_scores` above the threshold, thinned to the minimum
    dwell. An empty signal yields an empty array.
    """
    config = config or _DEFAULT_CONFIG
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size == 0:
        return np.empty(0, dtype=np.int64)
    scores = jump_scores(samples, config.window)
    # Local maxima: >= the left neighbour, > the right (on a score
    # plateau only the rightmost sample satisfies both, so ties break
    # there, deterministically).
    interior = np.zeros(scores.size, dtype=bool)
    if scores.size >= 3:
        interior[1:-1] = (
            (scores[1:-1] >= scores[:-2])
            & (scores[1:-1] > scores[2:])
            & (scores[1:-1] > config.threshold)
        )
    candidates = np.flatnonzero(interior)
    starts = [0]
    for position in candidates:
        if position - starts[-1] >= config.min_dwell:
            starts.append(int(position))
    return np.asarray(starts, dtype=np.int64)


def segment_signal(signal: RawSignal, config: SegmentationConfig | None = None) -> RawSignal:
    """The same samples with an event-derived ``base_starts`` track.

    This is the front-end for container signal written without a grid
    (real FAST5/SLOW5 never has one): the detected event starts stand
    in for base starts, giving the read a chunk grid of one "base" per
    event. Signals that already carry a track are re-segmented from
    scratch -- callers decide when that is wanted (see
    :func:`segment_read`).
    """
    return RawSignal(
        samples=signal.samples,
        base_starts=detect_events(signal.samples, config),
    )


def segment_read(read: SignalRead, config: SegmentationConfig | None = None) -> SignalRead:
    """A :class:`SignalRead` whose grid is recovered by segmentation.

    ``declared_bases`` is reset to the event count: the declared grid
    of the source read (if any) was defined over a different base
    track, so carrying it over would misalign every chunk bound.
    """
    return SignalRead(
        read_id=read.read_id,
        signal=segment_signal(read.signal, config),
    )
