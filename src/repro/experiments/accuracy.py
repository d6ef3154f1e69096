"""The "negligible accuracy loss" claim (paper Secs. 1 and 6.1).

GenPIP's abstract promises its speedups come "with negligible accuracy
loss". Two mechanisms could lose accuracy:

1. **CP** could alter mapping results by seeding chunk-by-chunk -- it
   does not: with the seeding context overlap, CP's outputs are
   *identical* to the conventional pipeline's (asserted here read by
   read);
2. **ER** could reject reads the conventional pipeline would have used
   -- the false negatives of Figs. 12/13. This experiment quantifies
   exactly that: of the reads the conventional pipeline maps, how many
   does GenPIP still map, and what do the lost ones look like?
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.pipeline import ReadStatus
from repro.experiments.context import get_context


@dataclass(frozen=True)
class AccuracyResult:
    """Outcome agreement between GenPIP (full ER) and the baseline."""

    n_reads: int
    #: Reads mapped by the conventional pipeline.
    baseline_mapped: int
    #: ...of which GenPIP also maps (to the same locus).
    retained_same_locus: int
    #: ...of which GenPIP maps somewhere else (should be ~0).
    retained_other_locus: int
    #: ...of which GenPIP does not map (the accuracy loss). CP alone
    #: loses no read (point 1 of the module docstring), so every loss
    #: is an ER loss.
    lost_to_er: int
    #: Mean true quality of the lost reads (low => losses are marginal).
    lost_mean_quality: float

    @property
    def retention(self) -> float:
        """Fraction of baseline-mapped reads GenPIP still maps."""
        if self.baseline_mapped == 0:
            return 1.0
        return (self.retained_same_locus + self.retained_other_locus) / self.baseline_mapped

    @property
    def locus_agreement(self) -> float:
        """Of retained reads, fraction mapped to the same locus."""
        retained = self.retained_same_locus + self.retained_other_locus
        if retained == 0:
            return 1.0
        return self.retained_same_locus / retained

    def rows(self) -> list[tuple[str, float]]:
        return [
            ("baseline mapped reads", float(self.baseline_mapped)),
            ("retained by GenPIP", float(self.retained_same_locus + self.retained_other_locus)),
            ("retention", self.retention),
            ("locus agreement", self.locus_agreement),
            ("lost to early rejection", float(self.lost_to_er)),
            ("mean quality of lost reads", self.lost_mean_quality),
        ]

    def render(self) -> str:
        lines = ["Accuracy: GenPIP (full ER) vs conventional pipeline"]
        for name, value in self.rows():
            lines.append(f"  {name:<28} {value:>10.3f}")
        lines.append(
            "  (paper claim: negligible accuracy loss; lost reads should be "
            "few and near the quality threshold)"
        )
        return "\n".join(lines)


def run_accuracy(
    scale=None, seed: int = 42, chunk_size: int = 300, locus_tolerance: int = 2_000
) -> AccuracyResult:
    """Compare per-read outcomes of GenPIP vs the conventional pipeline."""
    context = get_context("ecoli-like", scale=scale, seed=seed)
    baseline = {o.read_id: o for o in context.report("conventional", chunk_size).outcomes}
    genpip = {o.read_id: o for o in context.report("full_er", chunk_size).outcomes}
    truth = {read.read_id: read for read in context.dataset.reads}

    baseline_mapped = same = other = lost = 0
    lost_qualities = []
    for read_id, base in baseline.items():
        if base.status is not ReadStatus.MAPPED:
            continue
        baseline_mapped += 1
        gen = genpip[read_id]
        if gen.status is ReadStatus.MAPPED:
            if abs(gen.mapping.ref_start - base.mapping.ref_start) <= locus_tolerance:
                same += 1
            else:
                other += 1
        else:
            lost += 1
            lost_qualities.append(truth[read_id].mean_true_quality)
    return AccuracyResult(
        n_reads=len(baseline),
        baseline_mapped=baseline_mapped,
        retained_same_locus=same,
        retained_other_locus=other,
        lost_to_er=lost,
        lost_mean_quality=float(np.mean(lost_qualities)) if lost_qualities else 0.0,
    )
