"""Raw-signal synthesis: dwell times, noise, and drift.

An ONT device samples the pore current at ~4 kHz while DNA translocates
at ~450 bases/s, so each base occupies a geometric-ish number of samples
("dwell"). The raw signal for a sequence is the pore-model level of the
k-mer in the pore, held for the dwell of the central base, plus Gaussian
measurement noise and a slow baseline drift.

The signal also records the sample index at which each base starts
(``base_starts``), which the chunked basecaller uses to cut signal
chunks on base boundaries -- mirroring how real basecallers split a long
read's signal into chunks before inference (GenPIP processes ~300-base
chunks).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.checks import ConfigError, require_finite, require_integer
from repro.nanopore.pore_model import PoreModel


@dataclass(frozen=True)
class SignalConfig:
    """Parameters of the signal synthesis process.

    Attributes
    ----------
    dwell_mean:
        Mean samples per base (ONT: sampling_rate / bases_per_second,
        ~8.9 for R9; smaller values keep simulation fast), at most 1 000
        (a base per 0.25 s at 4 kHz; more overflows int64 sample indices).
    dwell_min:
        Minimum samples per base (at least 1, at most ``dwell_mean``).
    noise_std:
        Standard deviation (pA) of white measurement noise *added on
        top of* the pore model's per-k-mer spread.
    drift_per_kilosample:
        Linear baseline drift in pA per 1000 samples.
    """

    dwell_mean: float = 6.0
    dwell_min: int = 2
    noise_std: float = 1.0
    drift_per_kilosample: float = 0.05

    def __post_init__(self) -> None:
        require_finite("dwell_mean", self.dwell_mean, le=1_000)
        require_integer("dwell_min", self.dwell_min, ge=1)
        if self.dwell_mean < self.dwell_min:
            raise ConfigError("dwell_mean must be >= dwell_min")
        # Non-finite, either would fail only as a sample, inside a worker.
        require_finite("noise_std", self.noise_std, ge=0)
        require_finite("drift_per_kilosample", self.drift_per_kilosample)


@dataclass(frozen=True)
class RawSignal:
    """A synthesised raw nanopore signal.

    Attributes
    ----------
    samples:
        Current samples (pA), ``float32``; every one finite (a NaN or
        infinite sample raises ``ValueError``: the Viterbi trellis
        assumes finite observations, and a decoder fed NaN returns
        bases at made-up qualities instead of failing).
    base_starts:
        For each *modelled* base (there are ``len(codes) - k + 1``
        k-mer positions), the index of its first sample: non-decreasing
        and within ``[0, len(samples)]`` (anything else raises
        ``ValueError``).
    """

    samples: np.ndarray
    base_starts: np.ndarray

    def __post_init__(self) -> None:
        samples = np.ascontiguousarray(self.samples, dtype=np.float32)
        finite = np.isfinite(samples)
        if not finite.all():
            bad = np.flatnonzero(~finite)
            raise ValueError(
                f"signal has {bad.size} non-finite sample(s), the first at index {bad[0]}"
            )
        starts = np.ascontiguousarray(self.base_starts, dtype=np.int64)
        # A decreasing start or one past the samples would cut
        # overlapping, empty or out-of-range per-base slices.
        if starts.size and (
            starts[0] < 0 or starts[-1] > samples.size or (np.diff(starts) < 0).any()
        ):
            raise ValueError(
                f"base_starts must be non-decreasing within [0, {samples.size}] "
                f"(the sample count), got values from {starts.min()} to {starts.max()}"
            )
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "base_starts", starts)

    def __len__(self) -> int:
        return int(self.samples.size)

    @property
    def n_bases(self) -> int:
        """Number of modelled base positions."""
        return int(self.base_starts.size)

    def slice_bases(self, first_base: int, last_base: int) -> np.ndarray:
        """Samples covering modelled bases ``[first_base, last_base)``."""
        if not 0 <= first_base <= last_base <= self.n_bases:
            raise ValueError("base range out of bounds")
        start = int(self.base_starts[first_base])
        end = int(
            self.samples.size
            if last_base == self.n_bases
            else self.base_starts[last_base]
        )
        return self.samples[start:end]

    def clamped_slice(self, first_base: int, last_base: int) -> np.ndarray:
        """Like :meth:`slice_bases`, but clamped to the modelled range.

        A chunk grid may declare more bases than the signal models (the
        trailing ``k - 1`` true bases of a synthesized read have no
        dedicated samples); bounds past the modelled range are clamped,
        and a range lying entirely past it is an empty view. This is
        the single definition of chunk-to-sample clamping shared by the
        signal-space basecallers and :class:`SignalRead` views.
        """
        lo = min(first_base, self.n_bases)
        hi = min(last_base, self.n_bases)
        if lo >= hi:
            return self.samples[:0]
        return self.slice_bases(lo, hi)


def synthesize_signal(
    codes: np.ndarray,
    pore_model: PoreModel,
    config: SignalConfig,
    rng: np.random.Generator,
) -> RawSignal:
    """Generate the raw signal for a 2-bit code sequence.

    Dwells are drawn from a shifted geometric distribution with the
    configured mean; each k-mer's level is corrupted by the pore model's
    intrinsic spread plus the config's white noise, and a linear drift is
    superimposed.
    """
    levels = pore_model.expected_levels(codes)
    n = levels.size
    if n == 0:
        return RawSignal(samples=np.empty(0, dtype=np.float32), base_starts=np.empty(0, dtype=np.int64))

    extra_mean = config.dwell_mean - config.dwell_min
    if extra_mean > 0:
        # Geometric on {0,1,...} with mean extra_mean: p = 1/(1+mean).
        extra = rng.geometric(1.0 / (1.0 + extra_mean), size=n) - 1
    else:
        extra = np.zeros(n, dtype=np.int64)
    dwells = config.dwell_min + extra
    starts = np.concatenate(([0], np.cumsum(dwells)[:-1]))
    total = int(dwells.sum())

    per_sample_level = np.repeat(levels, dwells)
    # Noise: intrinsic per-k-mer spread (repeated per sample) + white noise.
    intrinsic = np.repeat(pore_model.spread[_packed_kmers(codes, pore_model.k)], dwells)
    noise = rng.normal(0.0, 1.0, size=total) * np.sqrt(intrinsic**2 + config.noise_std**2)
    drift = config.drift_per_kilosample * np.arange(total) / 1000.0
    samples = (per_sample_level + noise + drift).astype(np.float32)
    return RawSignal(samples=samples, base_starts=starts.astype(np.int64))


def _packed_kmers(codes: np.ndarray, k: int) -> np.ndarray:
    from repro.genomics.alphabet import kmer_codes

    return kmer_codes(codes, k)
