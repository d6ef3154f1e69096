"""Figure 11: energy reduction of the ten systems, normalised to CPU,
over Fig. 10's grid."""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

from repro.experiments import paper_values
from repro.experiments.figure10 import cpu_ratio_grid, grid_gmean
from repro.perf.systems import SYSTEM_NAMES


@dataclass(frozen=True)
class Figure11Result:
    """Energy reduction of each system vs CPU, per (dataset, chunk size)."""

    reductions: dict[tuple[str, int], dict[str, float]]

    def gmean(self) -> dict[str, float]:
        return grid_gmean(self.reductions)

    def rows(self) -> list[tuple[str, float, float | None]]:
        """(system, measured GMEAN, paper GMEAN where reported)."""
        gmean = self.gmean()
        return [
            (
                system,
                gmean[system],
                paper_values.FIGURE11_ENERGY_REDUCTION_VS_CPU.get(system),
            )
            for system in SYSTEM_NAMES
        ]

    def render(self) -> str:
        lines = ["Figure 11: energy reduction normalised to CPU"]
        lines.append(f"{'system':<14} {'GMEAN':>8} {'paper':>8}")
        for system, measured, paper in self.rows():
            paper_text = f"{paper:8.1f}" if paper is not None else "       -"
            lines.append(f"{system:<14} {measured:>8.1f} {paper_text}")
        return "\n".join(lines)


def run_figure11(
    chunk_sizes: tuple[int, ...] = (300, 400, 500),
    datasets: tuple[str, ...] = ("ecoli-like", "human-like"),
    scale=None,
    seed: int = 42,
) -> Figure11Result:
    """Evaluate the energy grid of Fig. 11."""
    return Figure11Result(cpu_ratio_grid(datasets, chunk_sizes, scale, seed, attrgetter("energy_j")))
