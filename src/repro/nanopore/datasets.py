"""Dataset presets matched to Table 1 of the paper, and summary statistics.

Table 1 (Mao et al., MICRO 2022):

=====================  ==========  ===========
Statistic              E. coli     Human
=====================  ==========  ===========
Mean read length       9,005.90    5,738.30
Mean read quality      7.9         11.3
Median read length     8,652       6,124
Median read quality    9.3         12.1
Number of reads        58,221      449,212
Total bases            524,330,535 2,577,692,011
=====================  ==========  ===========

The presets below reproduce the *distributional* statistics (lengths,
qualities, read-class mix) at a configurable ``scale``: ``scale=1.0``
generates the full-size dataset; the default experiment scale generates
a few hundred reads so the whole suite runs on a laptop. Mean/median
length and quality are scale-invariant, so Table 1's shape is preserved
at any scale (only read count and total bases shrink proportionally).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.checks import require_finite, require_integer
from repro.genomics.reference import ReferenceGenome
from repro.nanopore.read_simulator import (
    QualityProcessConfig,
    ReadClass,
    ReadSimulator,
    SimulatedRead,
    SimulatorConfig,
)


@dataclass(frozen=True)
class DatasetProfile:
    """A named dataset recipe: reference shape + simulator config.

    Attributes
    ----------
    name:
        Preset identifier (``"ecoli-like"``, ``"human-like"``).
    full_read_count:
        Read count of the real dataset (Table 1); the generated count is
        ``round(full_read_count * scale)``.
    reference_length:
        Synthetic reference length in bases (scaled-down stand-in for
        the real genome; large enough that reads map uniquely).
    reference_seed:
        Seed for the deterministic reference.
    simulator:
        Length/quality/class configuration (see
        :class:`~repro.nanopore.read_simulator.SimulatorConfig`).
    """

    name: str
    full_read_count: int
    reference_length: int
    reference_seed: int
    simulator: SimulatorConfig = field(default_factory=SimulatorConfig)

    def __post_init__(self) -> None:
        require_integer("full_read_count", self.full_read_count, ge=1)
        require_integer("reference_length", self.reference_length, ge=1)
        require_integer("reference_seed", self.reference_seed, ge=0)

    def scaled_read_count(self, scale: float) -> int:
        require_finite("scale", scale, gt=0)
        return max(1, int(round(self.full_read_count * scale)))


#: E. coli-like preset (Loman lab R9 release; Table 1 column 1).
ECOLI_LIKE = DatasetProfile(
    name="ecoli-like",
    full_read_count=58_221,
    reference_length=400_000,
    reference_seed=11,
    simulator=SimulatorConfig(
        median_length=8_652.0,
        mean_length=9_005.9,
        min_length=400,
        max_length=120_000,
        short_read_fraction=0.12,
        short_read_mean=900.0,
        low_quality_fraction=0.205,
        junk_fraction=0.10,
        low_quality_mean=5.5,
        low_quality_std=1.0,
        high_quality_mean=10.2,
        high_quality_std=1.2,
        quality_process=QualityProcessConfig(burst_coverage=0.07, burst_depth=4.5),
    ),
)

#: Human-like preset (NA12878 PRJEB30620; Table 1 column 2).
HUMAN_LIKE = DatasetProfile(
    name="human-like",
    full_read_count=449_212,
    reference_length=1_200_000,
    reference_seed=29,
    simulator=SimulatorConfig(
        median_length=6_124.0,
        mean_length=5_738.3,
        min_length=200,
        max_length=60_000,
        short_read_fraction=0.25,
        short_read_mean=700.0,
        low_quality_fraction=0.12,
        junk_fraction=0.08,
        low_quality_mean=6.2,
        low_quality_std=1.3,
        high_quality_mean=12.2,
        high_quality_std=1.5,
    ),
)

PRESETS = {profile.name: profile for profile in (ECOLI_LIKE, HUMAN_LIKE)}


@dataclass(frozen=True)
class DatasetStats:
    """Table 1-style summary statistics of a dataset."""

    n_reads: int
    total_bases: int
    mean_length: float
    median_length: float
    mean_quality: float
    median_quality: float
    low_quality_fraction: float
    junk_fraction: float

    def rows(self) -> list[tuple[str, float]]:
        """(label, value) rows in Table 1 order."""
        return [
            ("Mean read length", self.mean_length),
            ("Mean read quality", self.mean_quality),
            ("Median read length", self.median_length),
            ("Median read quality", self.median_quality),
            ("Number of reads", float(self.n_reads)),
            ("Total bases", float(self.total_bases)),
        ]


@dataclass(frozen=True)
class Dataset:
    """A generated dataset: reference genome + simulated reads."""

    profile: DatasetProfile
    reference: ReferenceGenome
    reads: list[SimulatedRead]

    def __len__(self) -> int:
        return len(self.reads)

    def stats(self) -> DatasetStats:
        """Compute Table 1-style statistics over the simulated reads.

        Quality statistics use the *true quality process* mean per read,
        which is what the basecaller's emitted qualities track.
        """
        lengths = np.array([len(r) for r in self.reads], dtype=np.float64)
        qualities = np.array([r.mean_true_quality for r in self.reads], dtype=np.float64)
        classes = [r.read_class for r in self.reads]
        n = len(self.reads)
        return DatasetStats(
            n_reads=n,
            total_bases=int(lengths.sum()),
            mean_length=float(lengths.mean()),
            median_length=float(np.median(lengths)),
            mean_quality=float(qualities.mean()),
            median_quality=float(np.median(qualities)),
            low_quality_fraction=sum(c is ReadClass.LOW_QUALITY for c in classes) / n,
            junk_fraction=sum(c is ReadClass.JUNK for c in classes) / n,
        )


def profile_reference(profile: DatasetProfile) -> ReferenceGenome:
    """The deterministic reference genome of a dataset profile.

    :func:`generate_dataset` and :func:`iter_dataset_reads` build this
    same genome when no explicit reference is supplied, so callers that
    need the reference separately (e.g. to build an index before
    streaming reads) get an identical one.
    """
    return ReferenceGenome.random(
        length=profile.reference_length,
        seed=profile.reference_seed,
        name=profile.name,
    )


def iter_dataset_reads(
    profile: DatasetProfile,
    scale: float = 0.005,
    seed: int = 0,
    reference: ReferenceGenome | None = None,
):
    """Lazily generate the reads of :func:`generate_dataset`.

    Yields exactly the read sequence ``generate_dataset(...).reads``
    would contain (same profile, scale, seed => same reads in the same
    order) without materialising the dataset. The streaming runtime's
    :class:`~repro.runtime.source.SimulatorSource` builds on this to
    overlap read generation with pipeline execution.
    """
    if reference is None:
        reference = profile_reference(profile)
    simulator = ReadSimulator(reference, profile.simulator, seed=seed)
    return simulator.iter_reads(profile.scaled_read_count(scale))


def generate_dataset(
    profile: DatasetProfile,
    scale: float = 0.005,
    seed: int = 0,
    reference: ReferenceGenome | None = None,
) -> Dataset:
    """Generate a dataset from a preset.

    Parameters
    ----------
    profile:
        Dataset recipe (:data:`ECOLI_LIKE` or :data:`HUMAN_LIKE`, or a
        custom profile).
    scale:
        Fraction of the real dataset's read count to generate.
    seed:
        Simulation seed (reference seed is part of the profile).
    reference:
        Optional pre-built reference (e.g. shared across experiments);
        generated from the profile when omitted.
    """
    if reference is None:
        reference = profile_reference(profile)
    reads = list(iter_dataset_reads(profile, scale=scale, seed=seed, reference=reference))
    return Dataset(profile=profile, reference=reference, reads=reads)


def small_profile(profile: DatasetProfile, max_read_length: int = 6_000) -> DatasetProfile:
    """A shrunken variant of a preset for fast unit tests.

    Caps read lengths (and shrinks the reference) while preserving the
    class mix and quality structure.
    """
    sim = replace(
        profile.simulator,
        median_length=min(profile.simulator.median_length, max_read_length / 2),
        mean_length=min(profile.simulator.mean_length, max_read_length / 1.9),
        max_length=max_read_length,
        min_length=min(profile.simulator.min_length, 300),
    )
    return replace(
        profile,
        name=profile.name + "-small",
        reference_length=min(profile.reference_length, 120_000),
        simulator=sim,
    )
