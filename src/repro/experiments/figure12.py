"""Figure 12: ER-QSR sensitivity to the number of sampled chunks.

For ``N_qs`` in 2..6, each point counts the QSR decisions of a
``GenPIPPipeline`` run with CMR off (:mod:`~repro.experiments.er_sensitivity`).
A rejected read is a false negative when the AQS of the fully basecalled
read (the conventional run's ``mean_quality``) is actually >= theta_qs.
"""

from __future__ import annotations

from repro.experiments import paper_values
from repro.experiments.er_sensitivity import SensitivityResult, sweep_datasets


def run_figure12(
    n_qs_values: tuple[int, ...] = (2, 3, 4, 5, 6),
    datasets: tuple[str, ...] = ("ecoli-like", "human-like"),
    chunk_size: int = 300,
    theta_qs: float = 7.0,
    scale=None,
    seed: int = 42,
) -> SensitivityResult:
    """Sweep QSR's sample count on both datasets."""
    sweeps = sweep_datasets(
        "qsr", n_qs_values, datasets, chunk_size, scale, seed,
        overrides={"theta_qs": theta_qs, "enable_cmr": False},
        useful=lambda outcome: outcome.mean_quality >= theta_qs,
    )
    title = "Figure 12: ER-QSR sensitivity"
    return SensitivityResult(title, "N_qs", paper_values.FIGURE12_CHOSEN_N_QS, sweeps)
