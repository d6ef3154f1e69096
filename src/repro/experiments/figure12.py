"""Figure 12: ER-QSR sensitivity to the number of sampled chunks.

For ``N_qs`` in 2..6, every read the pipeline screens (at least
``min_chunks_for_er`` chunks) gets the QSR decision
:class:`~repro.core.pipeline.GenPIPPipeline` would make (basecall the
sampled chunks, average, threshold), scored against the ground truth
of the *fully basecalled* read:

* **rejection ratio** = rejected reads / all reads;
* **false-negative ratio** = rejected reads whose full-read AQS is
  actually >= theta_qs, over all rejected reads (the paper's Sec. 6.3
  definition).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.basecalling import SurrogateBasecaller
from repro.core.config import GenPIPConfig
from repro.core.early_rejection import QSRDecision, QSRPolicy
from repro.experiments import paper_values
from repro.experiments.context import get_context
from repro.nanopore.read_simulator import SimulatedRead


@dataclass(frozen=True)
class SensitivityPoint:
    """One sweep point of Fig. 12 / Fig. 13."""

    n_samples: int
    rejection_ratio: float
    false_negative_ratio: float


@dataclass(frozen=True)
class Figure12Result:
    """Sweeps per dataset, plus the paper's chosen operating points."""

    sweeps: dict[str, list[SensitivityPoint]]

    def rows(self) -> list[tuple[str, int, float, float]]:
        return [
            (name, p.n_samples, p.rejection_ratio, p.false_negative_ratio)
            for name, points in self.sweeps.items()
            for p in points
        ]

    def chosen_point(self, dataset: str) -> SensitivityPoint:
        """The sweep point at the paper's chosen N_qs."""
        chosen = paper_values.FIGURE12_CHOSEN_N_QS[dataset]
        for point in self.sweeps[dataset]:
            if point.n_samples == chosen:
                return point
        raise KeyError(f"N_qs={chosen} not in sweep")

    def render(self) -> str:
        lines = ["Figure 12: ER-QSR sensitivity (rejection / false-negative ratio)"]
        lines.append(f"{'dataset':<12} {'N_qs':>5} {'rejection':>10} {'FN ratio':>10}")
        for name, n, rej, fn in self.rows():
            marker = " <- paper's choice" if n == paper_values.FIGURE12_CHOSEN_N_QS[name] else ""
            lines.append(f"{name:<12} {n:>5} {rej:>10.3f} {fn:>10.3f}{marker}")
        return "\n".join(lines)


def qsr_decisions(reads: list[SimulatedRead], config: GenPIPConfig) -> dict[str, QSRDecision]:
    """The QSR decision of every read the pipeline screens under ``config``.

    The same computation as stage 1 of ``GenPIPPipeline.process_read``
    with the surrogate basecaller. Reads shorter than
    ``min_chunks_for_er`` chunks are not screened and have no entry.
    """
    caller = SurrogateBasecaller()
    policy = QSRPolicy(config)
    decisions = {}
    for read in reads:
        n_chunks = caller.n_chunks(read, config.chunk_size)
        if n_chunks < config.min_chunks_for_er:
            continue
        sampled = caller.basecall_chunks(read, policy.sample_indices(n_chunks), config.chunk_size)
        decisions[read.read_id] = policy.decide(sampled)
    return decisions


def run_figure12(
    n_qs_values: tuple[int, ...] = (2, 3, 4, 5, 6),
    datasets: tuple[str, ...] = ("ecoli-like", "human-like"),
    chunk_size: int = 300,
    theta_qs: float = 7.0,
    scale=None,
    seed: int = 42,
) -> Figure12Result:
    """Sweep QSR's sample count on both datasets."""
    caller = SurrogateBasecaller()
    sweeps: dict[str, list[SensitivityPoint]] = {}
    for name in datasets:
        context = get_context(name, scale=scale, seed=seed)
        reads = context.dataset.reads
        config = replace(context.base_config(chunk_size), theta_qs=theta_qs)
        # Ground truth AQS of the fully basecalled read (computed once).
        full_aqs = {
            read.read_id: caller.basecall_read(read, chunk_size).mean_quality
            for read in reads
        }
        points = []
        for n_qs in n_qs_values:
            decisions = qsr_decisions(reads, replace(config, n_qs=n_qs))
            rejected = [read_id for read_id, d in decisions.items() if d.reject]
            false_negative = sum(full_aqs[read_id] >= theta_qs for read_id in rejected)
            points.append(
                SensitivityPoint(
                    n_samples=n_qs,
                    rejection_ratio=len(rejected) / len(reads),
                    false_negative_ratio=false_negative / len(rejected) if rejected else 0.0,
                )
            )
        sweeps[name] = points
    return Figure12Result(sweeps=sweeps)
