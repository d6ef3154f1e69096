"""Figure 13: ER-CMR sensitivity to the number of merged chunks.

For ``N_cm`` in 1..5, each point counts the CMR decisions of a
``GenPIPPipeline`` run with QSR off (:mod:`~repro.experiments.er_sensitivity`).
A rejected read is a false negative when the conventional pipeline maps
the full read.
"""

from __future__ import annotations

from repro.core.pipeline import ReadStatus
from repro.experiments import paper_values
from repro.experiments.er_sensitivity import SensitivityResult, sweep_datasets


def run_figure13(
    n_cm_values: tuple[int, ...] = (1, 2, 3, 4, 5),
    datasets: tuple[str, ...] = ("ecoli-like", "human-like"),
    chunk_size: int = 300,
    theta_cm: float | None = None,
    scale=None,
    seed: int = 42,
) -> SensitivityResult:
    """Sweep CMR's merged-chunk count on both datasets."""
    overrides = {"enable_qsr": False} if theta_cm is None else {"enable_qsr": False, "theta_cm": theta_cm}
    sweeps = sweep_datasets(
        "cmr", n_cm_values, datasets, chunk_size, scale, seed,
        overrides=overrides,
        useful=lambda outcome: outcome.status is ReadStatus.MAPPED,
    )
    return SensitivityResult(
        "Figure 13: ER-CMR sensitivity", "N_cm", paper_values.FIGURE13_CHOSEN_N_CM, sweeps,
        paper_rejection=paper_values.FIGURE13_CHOSEN_REJECTION,
    )
