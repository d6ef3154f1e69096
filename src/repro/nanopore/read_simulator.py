"""Read simulation: lengths, read classes, and the per-base quality process.

The GenPIP evaluation hinges on three dataset properties:

1. **Read-quality structure.** Fig. 7 shows that chunk quality scores
   within one read are strongly correlated (consecutive chunks are
   similar) while low- and high-quality reads occupy disjoint ranges.
   QSR exploits this by sampling a few *non-consecutive* chunks. We
   model per-base quality as an AR(1) process (correlation length of a
   few hundred bases) around a per-read mean drawn from a bimodal
   (low/high) mixture.
2. **Useless-read fractions.** ~20.5% of E. coli reads are low-quality
   and ~10% are high-quality but unmappable (Sec. 2.3); together 30.5%
   of basecalling work is wasted -- the savings ER harvests.
3. **Length distributions** matching Table 1 (mean/median).

Reads are deterministic given the simulator seed; each read also carries
its own ``seed`` so that basecalling error injection is reproducible and
independent of processing order (the chunk-based pipeline must produce
byte-identical results to the conventional pipeline).
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from repro.checks import ConfigError, require_finite, require_integer
from repro.genomics import alphabet
from repro.genomics.reference import ReferenceGenome


class ReadClass(enum.Enum):
    """Ground-truth category of a simulated read."""

    #: Mappable read with high-cluster quality.
    NORMAL = "normal"
    #: Mappable read drawn from the low-quality cluster (RQC should drop it).
    LOW_QUALITY = "low_quality"
    #: Random (non-genomic) sequence with decent quality: basecalls fine
    #: but cannot be mapped -- the "unmapped read" population of Sec. 2.3.
    JUNK = "junk"


@dataclass(frozen=True)
class QualityProcessConfig:
    """Parameters of the per-base quality process.

    Per-read mean ``m`` is supplied by the read-class mixture; the
    per-base score is ``m + s_t + jitter`` where ``s_t`` is an AR(1)
    process: ``s_t = phi * s_{t-1} + eps_t``.

    Attributes
    ----------
    correlation_length:
        Base-scale correlation length of the AR(1) component. A few
        hundred bases makes *chunk* qualities (300-500 bases) correlated
        between neighbours, as in Fig. 7.
    process_std:
        Stationary standard deviation of the AR(1) component. Large
        enough that a 2-chunk QSR sample is a genuinely noisy estimate
        of the read's AQS (the paper's QSR misses ~1/3 of low-quality
        E. coli reads at ``N_qs = 2``).
    jitter_std:
        White per-base jitter on top of the process.
    burst_coverage, burst_depth, burst_length:
        Occasional low-quality *bursts* inside otherwise-good reads:
        ``burst_coverage`` of each read's bases sits in segments of
        ``burst_length`` bases whose quality drops by ``burst_depth``.
        This is the Sec. 6.3.1 E. coli quirk ("many regions with
        low-quality chunks although the average quality of reads is
        high") that makes QSR's false-negative ratio *grow* with more
        sampled chunks.
    floor, ceiling:
        Clipping range of emitted (non-negative Phred) quality scores.
    """

    correlation_length: float = 400.0
    process_std: float = 2.6
    jitter_std: float = 1.2
    burst_coverage: float = 0.0
    burst_depth: float = 4.0
    burst_length: int = 400
    floor: float = 1.0
    ceiling: float = 30.0

    def __post_init__(self) -> None:
        require_finite("correlation_length", self.correlation_length, gt=0)
        require_finite("process_std", self.process_std, ge=0)
        require_finite("jitter_std", self.jitter_std, ge=0)
        require_finite("burst_coverage", self.burst_coverage, ge=0, lt=0.5)
        require_finite("burst_depth", self.burst_depth)
        require_integer("burst_length", self.burst_length, ge=1)
        require_finite("floor", self.floor, ge=0)
        require_finite("ceiling", self.ceiling)
        if self.floor > self.ceiling:
            raise ConfigError("floor must not exceed ceiling")

    def phi(self) -> float:
        """AR(1) coefficient implied by the correlation length."""
        return float(np.exp(-1.0 / self.correlation_length))


@dataclass(frozen=True)
class SimulatorConfig:
    """Knobs of the read simulator (one per dataset preset).

    Length model: a lognormal main component (solved from the target
    median and mean) mixed with a short-read component, giving the right
    skew seen in real nanopore length distributions.
    """

    median_length: float = 8652.0
    mean_length: float = 9005.0
    min_length: int = 400
    max_length: int = 120_000
    short_read_fraction: float = 0.12
    short_read_mean: float = 900.0

    low_quality_fraction: float = 0.205
    junk_fraction: float = 0.10
    low_quality_mean: float = 4.0
    low_quality_std: float = 1.2
    high_quality_mean: float = 9.9
    high_quality_std: float = 1.5

    quality_process: QualityProcessConfig = field(default_factory=QualityProcessConfig)

    def __post_init__(self) -> None:
        require_finite("median_length", self.median_length, gt=0)
        require_finite("mean_length", self.mean_length, gt=0)
        require_integer("min_length", self.min_length, ge=1)
        require_integer("max_length", self.max_length)
        if self.max_length <= self.min_length:
            raise ConfigError("max_length must exceed min_length")
        # The median is solved as a quantile of the main component, which
        # needs short reads to be less than half of the mixture.
        require_finite("short_read_fraction", self.short_read_fraction, ge=0, lt=0.5)
        require_finite("short_read_mean", self.short_read_mean, ge=0)
        # A NaN or negative fraction compares False against every draw:
        # that class would silently vanish from the dataset.
        require_finite("low_quality_fraction", self.low_quality_fraction, ge=0, lt=1)
        require_finite("junk_fraction", self.junk_fraction, ge=0, lt=1)
        if self.low_quality_fraction + self.junk_fraction >= 1.0:
            raise ConfigError("class fractions must sum below 1")
        for name in ("low_quality_mean", "low_quality_std", "high_quality_mean", "high_quality_std"):
            require_finite(name, getattr(self, name), ge=0 if name.endswith("_std") else None)


@dataclass(frozen=True)
class SimulatedRead:
    """One simulated nanopore read with full ground truth.

    Attributes
    ----------
    read_id:
        Unique identifier within the dataset.
    read_class:
        Ground-truth category (drives expected pipeline outcome).
    strand:
        +1 or -1; ``true_codes`` is already oriented in read direction.
    ref_start, ref_end:
        Reference interval the read was drawn from (``None`` for junk).
    true_codes:
        The true base sequence in read orientation (2-bit codes).
    qualities:
        Per-true-base Phred scores from the quality process. The
        surrogate basecaller derives error probabilities from these, so
        low-quality stretches genuinely carry more errors.
    seed:
        Per-read seed used for basecalling error injection.
    """

    read_id: str
    read_class: ReadClass
    strand: int
    ref_start: int | None
    ref_end: int | None
    true_codes: np.ndarray
    qualities: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        codes = np.ascontiguousarray(self.true_codes, dtype=np.uint8)
        quals = np.ascontiguousarray(self.qualities, dtype=np.float64)
        if quals.shape != codes.shape:
            raise ValueError("qualities must align with true_codes")
        object.__setattr__(self, "true_codes", codes)
        object.__setattr__(self, "qualities", quals)

    def __len__(self) -> int:
        return int(self.true_codes.size)

    @property
    def true_bases(self) -> str:
        return alphabet.decode(self.true_codes)

    @property
    def mean_true_quality(self) -> float:
        """Average of the underlying quality process over the read."""
        return float(self.qualities.mean())


def check_read_payload(codes: np.ndarray, qualities: np.ndarray) -> None:
    """Refuse a read's payload as a reader takes it from outside the
    process: a base code above 3 (T), or a quality that is non-finite
    or below 0, raises ``ValueError``. The check is made where a read
    store or a served record is read, and not in :class:`SimulatedRead`,
    which every pooled attach constructs."""
    if codes.size == 0:  # qualities align with the codes
        return
    if codes.max() > 3:
        raise ValueError("base codes must be 0-3")
    # NaN fails the first comparison, +inf the second.
    if not (qualities.min() >= 0 and math.isfinite(qualities.max())):
        raise ValueError("qualities must be finite and >= 0")


def check_read_metadata(strand: int, ref_start: int | None, ref_end: int | None, seed: int) -> None:
    """Refuse a read's metadata as a reader takes it from outside the
    process: a strand that is not +-1, or a negative ``ref_start``,
    ``ref_end`` or ``seed``, raises ``ValueError``. Made where
    :func:`check_read_payload` is, with the same message at both."""
    if strand not in (1, -1):
        raise ValueError(f"strand must be 1 or -1, got {strand}")
    for name, value in (("ref_start", ref_start), ("ref_end", ref_end), ("seed", seed)):
        if value is not None and value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")


class ReadSimulator:
    """Samples :class:`SimulatedRead` objects from a reference genome."""

    def __init__(self, reference: ReferenceGenome, config: SimulatorConfig, seed: int = 0):
        self._reference = reference
        self._config = config
        self._rng = np.random.default_rng(seed)
        self._counter = 0
        self._log_mu, self._log_sigma = _solve_length_model(config)

    @property
    def reference(self) -> ReferenceGenome:
        return self._reference

    @property
    def config(self) -> SimulatorConfig:
        return self._config

    def sample_length(self) -> int:
        """Draw one read length from the mixture model."""
        c = self._config
        length = (
            self._rng.exponential(c.short_read_mean) + c.min_length
            if self._rng.random() < c.short_read_fraction
            else self._rng.lognormal(self._log_mu, self._log_sigma)
        )
        length = int(np.clip(length, c.min_length, min(c.max_length, len(self._reference) - 1)))
        return length

    def _sample_class(self) -> ReadClass:
        c = self._config
        u = self._rng.random()
        if u < c.junk_fraction:
            return ReadClass.JUNK
        if u < c.junk_fraction + c.low_quality_fraction:
            return ReadClass.LOW_QUALITY
        return ReadClass.NORMAL

    def _sample_read_mean_quality(self, read_class: ReadClass) -> float:
        c = self._config
        if read_class is ReadClass.LOW_QUALITY:
            return float(self._rng.normal(c.low_quality_mean, c.low_quality_std))
        return float(self._rng.normal(c.high_quality_mean, c.high_quality_std))

    def _quality_track(self, length: int, read_mean: float) -> np.ndarray:
        qp = self._config.quality_process
        phi = qp.phi()
        eps_std = qp.process_std * np.sqrt(1.0 - phi * phi)
        eps = self._rng.normal(0.0, eps_std, size=length)
        state = self._rng.normal(0.0, qp.process_std)
        track = _ar1_scan(state, phi, eps)
        jitter = self._rng.normal(0.0, qp.jitter_std, size=length)
        quality = read_mean + track + jitter
        if qp.burst_coverage > 0.0 and length > qp.burst_length:
            expected_bursts = length * qp.burst_coverage / qp.burst_length
            n_bursts = int(self._rng.poisson(expected_bursts))
            for _ in range(n_bursts):
                start = int(self._rng.integers(0, length - qp.burst_length))
                quality[start : start + qp.burst_length] -= qp.burst_depth
        return np.clip(quality, qp.floor, qp.ceiling)

    def sample_read(self) -> SimulatedRead:
        """Draw one read (class, locus, strand, quality track)."""
        read_class = self._sample_class()
        length = self.sample_length()
        rng = self._rng
        if read_class is ReadClass.JUNK:
            codes = rng.integers(0, 4, size=length).astype(np.uint8)
            ref_start = ref_end = None
            strand = 1 if rng.random() < 0.5 else -1
        else:
            ref_start = int(rng.integers(0, len(self._reference) - length))
            ref_end = ref_start + length
            strand = 1 if rng.random() < 0.5 else -1
            codes = self._reference.fetch(ref_start, ref_end, strand)
        read_mean = self._sample_read_mean_quality(read_class)
        qualities = self._quality_track(length, read_mean)
        read_id = f"read-{self._counter:06d}"
        self._counter += 1
        seed = int(rng.integers(0, 2**31 - 1))
        return SimulatedRead(
            read_id=read_id,
            read_class=read_class,
            strand=strand,
            ref_start=ref_start,
            ref_end=ref_end,
            true_codes=codes,
            qualities=qualities,
            seed=seed,
        )

    def iter_reads(self, n: int) -> Iterator[SimulatedRead]:
        """Lazily draw *n* reads, one at a time.

        Yields the exact read sequence :meth:`sample_reads` would return
        (the RNG advances identically), but without materialising the
        dataset -- the streaming runtime sources
        (:mod:`repro.runtime.source`) build on this to overlap read
        generation with pipeline execution.
        """
        require_integer("n", n, ge=0)
        for _ in range(n):
            yield self.sample_read()

    def sample_reads(self, n: int) -> list[SimulatedRead]:
        """Draw *n* reads."""
        return list(self.iter_reads(n))


def _solve_length_model(config: SimulatorConfig) -> tuple[float, float]:
    """Solve lognormal (mu, sigma) of the main length component.

    The mixture is ``f`` short reads (shifted exponential, mean
    ``min_length + short_read_mean``) plus ``1 - f`` lognormal reads. The
    main component is solved so that the *mixture* hits the configured
    mean and median:

    * mixture mean: ``(1-f) * E[main] = mean - f * E[short]``;
    * mixture median: assuming short reads fall below it, the target
      median is the ``q = (0.5 - f) / (1 - f)`` quantile of the main
      component, i.e. ``median_target = exp(mu + z_q * sigma)``.

    Substituting ``E[main] = exp(mu + sigma^2 / 2)`` gives a quadratic in
    sigma with positive root ``sigma = z_q + sqrt(z_q^2 + 2 L)`` where
    ``L = ln(E[main] / median_target)``.
    """
    c = config
    f = c.short_read_fraction
    short_mean = c.min_length + c.short_read_mean
    main_mean = (c.mean_length - f * short_mean) / (1.0 - f)
    main_mean = max(main_mean, c.median_length * 1.001)
    q = (0.5 - f) / (1.0 - f)
    z_q = NormalDist().inv_cdf(q)
    ratio = np.log(main_mean / c.median_length)
    disc = z_q * z_q + 2.0 * ratio
    sigma = z_q + np.sqrt(disc) if disc > 0 else 0.05
    sigma = float(max(sigma, 0.05))
    mu = float(np.log(c.median_length) - z_q * sigma)
    return mu, sigma


def _ar1_scan(initial: float, phi: float, innovations: np.ndarray) -> np.ndarray:
    """Exact AR(1) scan ``x_t = phi * x_{t-1} + eps_t`` with ``x_{-1} = initial``.

    A plain loop on purpose: each step rounds ``phi * x`` and then the
    sum, the order every committed quality track was generated in. A
    blocked or closed-form scan (powers of ``phi`` times a cumulative
    sum) regroups those roundings and moves the last bits of every
    track, and with them every digest downstream.
    """
    out = np.empty(innovations.size, dtype=np.float64)
    x = float(initial)
    for t, eps in enumerate(innovations.tolist()):
        x = phi * x + eps
        out[t] = x
    return out
