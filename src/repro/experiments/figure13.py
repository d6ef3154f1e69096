"""Figure 13: ER-CMR sensitivity to the number of merged chunks.

For ``N_cm`` in 1..5, every read's CMR decision is evaluated (basecall
the first ``N_cm`` chunks, seed + chain the merged prefix, threshold the
chaining score) and scored against ground truth mappability (the
conventional pipeline's mapping outcome for the full read):

* **rejection ratio** = rejected reads / all reads;
* **false-negative ratio** = rejected reads that the full pipeline maps,
  over all rejected reads.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.basecalling import SurrogateBasecaller
from repro.core.early_rejection import CMRPolicy
from repro.core.pipeline import ReadStatus
from repro.experiments import paper_values
from repro.experiments.context import get_context
from repro.experiments.figure12 import SensitivityPoint
from repro.mapping.mapper import IncrementalChunkMapper


@dataclass(frozen=True)
class Figure13Result:
    """Sweeps per dataset, plus the paper's chosen operating points."""

    sweeps: dict[str, list[SensitivityPoint]]

    def rows(self) -> list[tuple[str, int, float, float]]:
        return [
            (name, p.n_samples, p.rejection_ratio, p.false_negative_ratio)
            for name, points in self.sweeps.items()
            for p in points
        ]

    def chosen_point(self, dataset: str) -> SensitivityPoint:
        chosen = paper_values.FIGURE13_CHOSEN_N_CM[dataset]
        for point in self.sweeps[dataset]:
            if point.n_samples == chosen:
                return point
        raise KeyError(f"N_cm={chosen} not in sweep")

    def render(self) -> str:
        lines = ["Figure 13: ER-CMR sensitivity (rejection / false-negative ratio)"]
        lines.append(f"{'dataset':<12} {'N_cm':>5} {'rejection':>10} {'FN ratio':>10}")
        for name, n, rej, fn in self.rows():
            marker = ""
            if n == paper_values.FIGURE13_CHOSEN_N_CM[name]:
                paper_rej = paper_values.FIGURE13_CHOSEN_REJECTION[name]
                marker = f" <- paper's choice (paper rejection {paper_rej:.3f})"
            lines.append(f"{name:<12} {n:>5} {rej:>10.3f} {fn:>10.3f}{marker}")
        return "\n".join(lines)


def run_figure13(
    n_cm_values: tuple[int, ...] = (1, 2, 3, 4, 5),
    datasets: tuple[str, ...] = ("ecoli-like", "human-like"),
    chunk_size: int = 300,
    theta_cm: float | None = None,
    scale=None,
    seed: int = 42,
) -> Figure13Result:
    """Sweep CMR's merged-chunk count on both datasets."""
    caller = SurrogateBasecaller()
    sweeps: dict[str, list[SensitivityPoint]] = {}
    for name in datasets:
        context = get_context(name, scale=scale, seed=seed)
        reads = context.dataset.reads
        threshold = theta_cm if theta_cm is not None else context.base_config().theta_cm
        # Ground truth: does the conventional pipeline map the read?
        conventional = context.report("conventional", chunk_size)
        mappable = {
            o.read_id: o.status is ReadStatus.MAPPED for o in conventional.outcomes
        }
        points = []
        for n_cm in n_cm_values:
            policy = CMRPolicy(theta_cm=threshold, n_cm=n_cm)
            rejected = 0
            false_negative = 0
            for read in reads:
                n_chunks = caller.n_chunks(read, chunk_size)
                indices = policy.merged_chunk_indices(n_chunks)
                mapper = IncrementalChunkMapper(context.index, read_length=len(read))
                merged_bases = 0
                for chunk in caller.basecall_chunks(read, indices, chunk_size):
                    mapper.add_chunk(chunk.codes, read_offset=merged_bases)
                    merged_bases += len(chunk)
                primary, _ = mapper.chain_prefix()
                score = primary.score if primary is not None else 0.0
                if policy.decide(score, merged_bases).reject:
                    rejected += 1
                    if mappable[read.read_id]:
                        false_negative += 1
            points.append(
                SensitivityPoint(
                    n_samples=n_cm,
                    rejection_ratio=rejected / len(reads),
                    false_negative_ratio=false_negative / rejected if rejected else 0.0,
                )
            )
        sweeps[name] = points
    return Figure13Result(sweeps=sweeps)
