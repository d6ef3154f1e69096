"""The benchmark's workloads: what is run, on which inputs, and why.

A workload is a dataset profile, a pipeline configuration and a stream
of *stratified slices*. Reads come from the repo's own simulator driven
by ``--seed``; a read is accepted into the current slice only while its
stratum -- (read class, length bin) -- still has room. Every slice of
every seed therefore has the same class mix and the same length
histogram, and every round of a run processes a fresh slice, so a run's
throughput is taken over several hundred distinct reads rather than the
same few dozen nine times over. Both choices exist for one reason: two
seeds must cost the pipeline the same work to within a few percent, so
that a difference between runs is the machine or the code, not the
draw. (Unstratified, 80 ecoli-like reads differ by ~10 % in mappable
bases from seed to seed; a single 40-read alignment slice differs by
~20 % in Gotoh cells, because gap fills are heavy-tailed.)
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parents[1]


def ensure_repro_importable() -> None:
    """Put the checkout's ``src/`` on ``sys.path``; exit 2 when it is absent.

    The benchmark builds nothing: the program under test is the source
    tree next to it. A directory holding only the benchmark's files has
    no program to measure, which must read as an error, not a result.
    """
    src = REPO_ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {src}/repro is missing", file=sys.stderr)
        raise SystemExit(2)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


ensure_repro_importable()

import numpy as np

from repro.core import GenPIP
from repro.core.registry import create_basecaller, preset_config
from repro.mapping.index import MinimizerIndex
from repro.nanopore.datasets import (
    PRESETS,
    DatasetProfile,
    profile_reference,
    small_profile,
)
from repro.nanopore.read_simulator import ReadClass, ReadSimulator

#: Seed of the length sample that fixes each workload's bin edges. It is
#: part of the workload definition, not of a run.
_BIN_EDGE_SEED = 1
_BIN_EDGE_DRAWS = 4000
#: Simulator draws allowed per accepted read before giving up.
_MAX_DRAWS_PER_READ = 40


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``strata`` maps a read class to ``(reads, length_bins)``: that many
    reads of the class per slice, spread evenly over that many
    equal-probability bins of the profile's length distribution.
    ``served_stride`` thins the served pass (every n-th read) where a
    read frame costs as much as the read's processing.
    """

    name: str
    why: str
    profile: DatasetProfile
    basecaller: str
    align: bool
    strata: dict[ReadClass, tuple[int, int]]
    served_stride: int = 1
    signal_native: bool = False

    @property
    def slice_reads(self) -> int:
        return sum(count for count, _ in self.strata.values())


_ECOLI = PRESETS["ecoli-like"]
_ECOLI_3K = small_profile(_ECOLI, max_read_length=3000)
_REJECT_3K = replace(
    _ECOLI_3K,
    simulator=replace(_ECOLI_3K.simulator, junk_fraction=0.35, low_quality_fraction=0.35),
)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="ecoli-map",
            why="Table 1 shape, full-length 9 kb reads, no alignment: seed, basecall and chain "
            "share the pass and 170 KB read frames make serving cost as much as processing",
            profile=_ECOLI,
            basecaller="surrogate",
            align=False,
            strata={
                ReadClass.NORMAL: (42, 14),
                ReadClass.LOW_QUALITY: (12, 6),
                ReadClass.JUNK: (6, 3),
            },
            served_stride=2,
        ),
        Workload(
            name="ecoli-align",
            why="3 kb reads with base-level alignment on: Gotoh is most of the pass, so only "
            "alignment-kernel changes show here and seeding or serving changes must not",
            profile=_ECOLI_3K,
            basecaller="surrogate",
            align=True,
            strata={
                ReadClass.NORMAL: (21, 7),
                ReadClass.LOW_QUALITY: (6, 3),
                ReadClass.JUNK: (3, 1),
            },
        ),
        Workload(
            name="signal-viterbi",
            why="raw current from a signal container decoded by Viterbi: basecalling is ~98 % "
            "of the pass; mapping, protocol and pool overhead are negligible",
            profile=small_profile(_ECOLI, max_read_length=900),
            basecaller="viterbi",
            align=False,
            strata={
                ReadClass.NORMAL: (4, 4),
                ReadClass.LOW_QUALITY: (1, 1),
                ReadClass.JUNK: (1, 1),
            },
            signal_native=True,
        ),
        Workload(
            name="reject-short",
            why="70 % useless 3 kb reads, two thirds rejected early: ~2 ms reads, so per-read "
            "glue, work-unit IPC and per-read frames dominate and mapping ends in chain_prefix",
            profile=_REJECT_3K,
            basecaller="surrogate",
            align=False,
            strata={
                ReadClass.NORMAL: (72, 8),
                ReadClass.LOW_QUALITY: (84, 6),
                ReadClass.JUNK: (84, 6),
            },
            served_stride=2,
        ),
    )
}


def build_index(workload: Workload) -> MinimizerIndex:
    """The workload's reference index (deterministic in the profile)."""
    return MinimizerIndex.build(profile_reference(workload.profile))


def build_pipeline(workload: Workload, index: MinimizerIndex):
    """The workload's pipeline, built the way ``python -m repro.runtime`` does."""
    system = (
        GenPIP.build()
        .index(index)
        .config(preset_config("ecoli-like"))
        .basecaller(create_basecaller(workload.basecaller))
        .align(workload.align)
        .build()
    )
    return system.pipeline


class SliceStream:
    """Successive stratified slices of one simulator stream.

    One simulator, seeded once, feeds every slice, so read ids stay
    unique across a run and slice *r* of seed *s* is always the same
    reads no matter how many slices a run ends up taking.
    """

    def __init__(self, workload: Workload, seed: int):
        self._workload = workload
        reference = profile_reference(workload.profile)
        config = workload.profile.simulator
        edge_sampler = ReadSimulator(reference, config, seed=_BIN_EDGE_SEED)
        lengths = np.asarray(
            [edge_sampler.sample_length() for _ in range(_BIN_EDGE_DRAWS)], dtype=np.float64
        )
        self._edges = {}
        for read_class, (count, bins) in workload.strata.items():
            if count % bins:
                raise ValueError(
                    f"{workload.name}: {count} {read_class.value} reads over {bins} bins"
                )
            self._edges[read_class] = np.quantile(lengths, np.arange(1, bins) / bins)
        self._simulator = ReadSimulator(reference, config, seed=seed)
        self._seed = seed

    def next_slice(self) -> list:
        """The next slice's reads, in simulator order."""
        workload = self._workload
        room = {
            (read_class, length_bin): count // bins
            for read_class, (count, bins) in workload.strata.items()
            for length_bin in range(bins)
        }
        reads = []
        for _ in range(_MAX_DRAWS_PER_READ * workload.slice_reads):
            read = self._simulator.sample_read()
            length_bin = int(
                np.searchsorted(self._edges[read.read_class], len(read), side="right")
            )
            stratum = (read.read_class, length_bin)
            if room[stratum] > 0:
                room[stratum] -= 1
                reads.append(read)
                if len(reads) == workload.slice_reads:
                    return reads
        raise RuntimeError(f"{workload.name}: seed {self._seed} left strata unfilled: {room}")


def expected_status(read_class: ReadClass) -> tuple[str, ...]:
    """Outcome statuses that agree with the simulator's ground truth."""
    if read_class is ReadClass.NORMAL:
        return ("mapped",)
    if read_class is ReadClass.LOW_QUALITY:
        return ("rejected_qsr", "failed_qc")
    return ("rejected_cmr", "unmapped")
