"""Figure 13: ER-CMR sensitivity to the number of merged chunks.

For ``N_cm`` in 1..5, every read the pipeline screens (at least
``min_chunks_for_er`` chunks) gets the CMR decision
:class:`~repro.core.pipeline.GenPIPPipeline` would make with QSR off --
basecall the first ``N_cm`` chunks, seed the merge set as one run,
chain it, threshold the chaining score -- and is scored against ground
truth mappability (the conventional pipeline's mapping outcome for the
full read):

* **rejection ratio** = rejected reads / all reads;
* **false-negative ratio** = rejected reads that the full pipeline maps,
  over all rejected reads.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.basecalling import SurrogateBasecaller
from repro.core.config import GenPIPConfig
from repro.core.early_rejection import CMRDecision, CMRPolicy
from repro.core.pipeline import ReadStatus
from repro.experiments import paper_values
from repro.experiments.context import get_context
from repro.experiments.figure12 import SensitivityPoint
from repro.mapping.index import MinimizerIndex
from repro.mapping.mapper import IncrementalChunkMapper
from repro.nanopore.read_simulator import SimulatedRead


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


def cmr_decisions(
    index: MinimizerIndex, reads: list[SimulatedRead], config: GenPIPConfig
) -> dict[str, CMRDecision]:
    """The CMR decision of every read the pipeline screens under ``config``.

    The same computation as stage 2 of ``GenPIPPipeline.process_read``
    with the surrogate basecaller: the merge set is decoded in one call
    and seeded as one run, so no minimizer whose window crosses a chunk
    boundary is lost. Reads shorter than ``min_chunks_for_er`` chunks
    are not screened and have no entry.
    """
    caller = SurrogateBasecaller()
    policy = CMRPolicy(config)
    decisions = {}
    for read in reads:
        n_chunks = caller.n_chunks(read, config.chunk_size)
        if n_chunks < config.min_chunks_for_er:
            continue
        chunks = caller.basecall_chunks(read, policy.merged_chunk_indices(n_chunks), config.chunk_size)
        merged = np.concatenate([chunk.codes for chunk in chunks])
        mapper = IncrementalChunkMapper(index, read_length=len(read))
        mapper.add_chunk(merged, read_offset=0)
        primary, _ = mapper.chain_prefix()
        score = primary.score if primary is not None else 0.0
        decisions[read.read_id] = policy.decide(score, merged.size)
    return decisions


def run_figure13(
    n_cm_values: tuple[int, ...] = (1, 2, 3, 4, 5),
    datasets: tuple[str, ...] = ("ecoli-like", "human-like"),
    chunk_size: int = 300,
    theta_cm: float | None = None,
    scale=None,
    seed: int = 42,
) -> Figure13Result:
    """Sweep CMR's merged-chunk count on both datasets."""
    sweeps: dict[str, list[SensitivityPoint]] = {}
    for name in datasets:
        context = get_context(name, scale=scale, seed=seed)
        reads = context.dataset.reads
        config = context.base_config(chunk_size)
        if theta_cm is not None:
            config = replace(config, theta_cm=theta_cm)
        # Ground truth: does the conventional pipeline map the read?
        conventional = context.report("conventional", chunk_size)
        mappable = {
            o.read_id: o.status is ReadStatus.MAPPED for o in conventional.outcomes
        }
        points = []
        for n_cm in n_cm_values:
            decisions = cmr_decisions(context.index, reads, replace(config, n_cm=n_cm))
            rejected = [read_id for read_id, d in decisions.items() if d.reject]
            false_negative = sum(mappable[read_id] for read_id in rejected)
            points.append(
                SensitivityPoint(
                    n_samples=n_cm,
                    rejection_ratio=len(rejected) / len(reads),
                    false_negative_ratio=false_negative / len(rejected) if rejected else 0.0,
                )
            )
        sweeps[name] = points
    return Figure13Result(sweeps=sweeps)
