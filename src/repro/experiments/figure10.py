"""Figure 10: speedups of the ten systems, normalised to CPU.

The paper sweeps both datasets over chunk sizes 300/400/500 and reports
per-configuration bars plus the GMEAN. This experiment reproduces the
same grid from functional workloads + the performance model; Fig. 11
walks the same grid (:func:`cpu_ratio_grid`) for energy.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from repro.experiments import paper_values
from repro.experiments.context import get_context
from repro.perf.systems import SYSTEM_NAMES, evaluate_all_systems


def cpu_ratio_grid(datasets, chunk_sizes, scale, seed, cost) -> dict[tuple[str, int], dict[str, float]]:
    """Each system's CPU ``cost`` over its own, per (dataset, chunk size):
    Fig. 10's grid for ``cost`` = time, Fig. 11's for energy."""
    grid = {}
    for name in datasets:
        context = get_context(name, scale=scale, seed=seed)
        for chunk_size in chunk_sizes:
            estimates = evaluate_all_systems(context.workloads(chunk_size))
            base = cost(estimates["CPU"])
            grid[(name, chunk_size)] = {system: base / cost(e) for system, e in estimates.items()}
    return grid


def grid_gmean(grid: dict[tuple[str, int], dict[str, float]]) -> dict[str, float]:
    """Geometric mean of each system's ratio across the grid."""
    return {
        system: float(np.exp(np.mean(np.log([cell[system] for cell in grid.values()]))))
        for system in SYSTEM_NAMES
    }


@dataclass(frozen=True)
class Figure10Result:
    """Speedup of each system vs CPU, per (dataset, chunk size)."""

    speedups: dict[tuple[str, int], dict[str, float]]

    def gmean(self) -> dict[str, float]:
        """Geometric-mean speedup per system across the grid."""
        return grid_gmean(self.speedups)

    def rows(self) -> list[tuple[str, float, float]]:
        """(system, measured GMEAN, paper GMEAN) rows."""
        gmean = self.gmean()
        return [
            (system, gmean[system], paper_values.FIGURE10_SPEEDUPS_VS_CPU[system])
            for system in SYSTEM_NAMES
        ]

    def render(self) -> str:
        lines = ["Figure 10: speedup normalised to CPU"]
        grid_keys = sorted(self.speedups)
        header = f"{'system':<14}" + "".join(
            f" {name}.{chunk:<4}" for name, chunk in grid_keys
        )
        lines.append(header + f" {'GMEAN':>8} {'paper':>8}")
        gmean = self.gmean()
        for system in SYSTEM_NAMES:
            cells = "".join(
                f" {self.speedups[key][system]:>{len(key[0]) + 5}.1f}" for key in grid_keys
            )
            lines.append(
                f"{system:<14}{cells} {gmean[system]:>8.1f}"
                f" {paper_values.FIGURE10_SPEEDUPS_VS_CPU[system]:>8.1f}"
            )
        return "\n".join(lines)


def run_figure10(
    chunk_sizes: tuple[int, ...] = (300, 400, 500),
    datasets: tuple[str, ...] = ("ecoli-like", "human-like"),
    scale=None,
    seed: int = 42,
) -> Figure10Result:
    """Evaluate the full system grid of Fig. 10."""
    return Figure10Result(cpu_ratio_grid(datasets, chunk_sizes, scale, seed, attrgetter("time_s")))
