"""The early-rejection sweeps of Figs. 12 and 13.

Each sweep point is a :class:`~repro.core.pipeline.GenPIPPipeline` run
with one ER stage under test that counts the decisions the pipeline
recorded on its outcomes (``outcome.qsr`` / ``outcome.cmr``):

* **rejection ratio** = reads the stage rejected / all reads, so reads
  too short to be screened (``min_chunks_for_er``) count here only;
* **false-negative ratio** = rejected reads that the ground truth, taken
  from the conventional run's outcome of the read, calls useful, over
  all rejected reads (the paper's Sec. 6.3 definition).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.pipeline import GenPIPPipeline
from repro.experiments.context import get_context

#: The config field of each screened stage's sample count.
SAMPLE_COUNT = {"qsr": "n_qs", "cmr": "n_cm"}


@dataclass(frozen=True)
class SensitivityPoint:
    """One sweep point of Fig. 12 / Fig. 13."""

    n_samples: int
    rejection_ratio: float
    false_negative_ratio: float


@dataclass(frozen=True)
class SensitivityResult:
    """One figure's sweeps per dataset, plus the paper's chosen operating
    points (and its rejection ratio there, where it reports one)."""

    title: str
    label: str
    chosen: dict[str, int]
    sweeps: dict[str, list[SensitivityPoint]]
    paper_rejection: dict[str, float] = field(default_factory=dict)

    def rows(self) -> list[tuple[str, int, float, float]]:
        return [
            (name, p.n_samples, p.rejection_ratio, p.false_negative_ratio)
            for name, points in self.sweeps.items()
            for p in points
        ]

    def chosen_point(self, dataset: str) -> SensitivityPoint:
        """The sweep point at the paper's chosen sample count."""
        chosen = self.chosen[dataset]
        for point in self.sweeps[dataset]:
            if point.n_samples == chosen:
                return point
        raise KeyError(f"{self.label}={chosen} not in sweep")

    def render(self) -> str:
        lines = [f"{self.title} (rejection / false-negative ratio)"]
        lines.append(f"{'dataset':<12} {self.label:>5} {'rejection':>10} {'FN ratio':>10}")
        for name, n, rej, fn in self.rows():
            marker = ""
            if n == self.chosen[name]:
                marker = " <- paper's choice"
                if name in self.paper_rejection:
                    marker += f" (paper rejection {self.paper_rejection[name]:.3f})"
            lines.append(f"{name:<12} {n:>5} {rej:>10.3f} {fn:>10.3f}{marker}")
        return "\n".join(lines)


def sweep(index, reads, config, stage: str, values, useful: set[str], workers: int = 1):
    """One :class:`SensitivityPoint` per sample count in ``values`` of
    ``stage`` (``"qsr"`` / ``"cmr"``): a ``GenPIPPipeline(index, config,
    align=False)`` run over ``reads`` (a dataset or a sequence of reads)
    in which rejecting a read whose id is in ``useful`` is a false negative.
    """
    points = []
    for n in values:
        pipeline = GenPIPPipeline(index, replace(config, **{SAMPLE_COUNT[stage]: n}), align=False)
        outcomes = pipeline.run(reads, workers=workers).outcomes
        decisions = [(o.read_id, getattr(o, stage)) for o in outcomes]
        rejected = [read_id for read_id, d in decisions if d is not None and d.reject]
        false_negative = sum(read_id in useful for read_id in rejected)
        fn_ratio = false_negative / len(rejected) if rejected else 0.0
        points.append(SensitivityPoint(n, len(rejected) / len(outcomes), fn_ratio))
    return points


def sweep_datasets(stage, values, datasets, chunk_size, scale, seed, overrides, useful):
    """:func:`sweep` per dataset: its preset config at ``chunk_size`` with
    ``overrides``, and ``useful(outcome)`` over its cached conventional run."""
    sweeps = {}
    for name in datasets:
        context = get_context(name, scale=scale, seed=seed)
        config = replace(context.base_config(chunk_size), **overrides)
        truth = {o.read_id for o in context.report("conventional", chunk_size).outcomes if useful(o)}
        sweeps[name] = sweep(context.index, context.dataset, config, stage, values, truth, context.workers)
    return sweeps
