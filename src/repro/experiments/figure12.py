"""Figure 12: ER-QSR sensitivity to the number of sampled chunks.

For ``N_qs`` in 2..6, every read's QSR decision is evaluated directly
(basecall the sampled chunks, average, threshold) and scored against
the ground truth of the *fully basecalled* read:

* **rejection ratio** = rejected reads / all reads;
* **false-negative ratio** = rejected reads whose full-read AQS is
  actually >= theta_qs, over all rejected reads (the paper's Sec. 6.3
  definition).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.basecalling import SurrogateBasecaller
from repro.core.early_rejection import QSRPolicy
from repro.experiments import paper_values
from repro.experiments.context import get_context


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
        # Ground truth AQS of the fully basecalled read (computed once).
        full_aqs = {
            read.read_id: caller.basecall_read(read, chunk_size).mean_quality
            for read in reads
        }
        points = []
        for n_qs in n_qs_values:
            policy = QSRPolicy(theta_qs=theta_qs, n_qs=n_qs)
            rejected = 0
            false_negative = 0
            for read in reads:
                n_chunks = caller.n_chunks(read, chunk_size)
                sampled = caller.basecall_chunks(read, policy.sample_indices(n_chunks), chunk_size)
                if policy.decide(sampled).reject:
                    rejected += 1
                    if full_aqs[read.read_id] >= theta_qs:
                        false_negative += 1
            points.append(
                SensitivityPoint(
                    n_samples=n_qs,
                    rejection_ratio=rejected / len(reads),
                    false_negative_ratio=false_negative / rejected if rejected else 0.0,
                )
            )
        sweeps[name] = points
    return Figure12Result(sweeps=sweeps)
