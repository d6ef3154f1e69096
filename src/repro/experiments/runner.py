"""Run every experiment and print one markdown report of measured-vs-paper
results: ``python -m repro.experiments.runner``."""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.accuracy import run_accuracy
from repro.experiments.figure10 import run_figure10
from repro.experiments.figure11 import run_figure11
from repro.experiments.figure12 import run_figure12
from repro.experiments.figure13 import run_figure13
from repro.experiments.figure4 import run_figure4
from repro.experiments.figure7 import run_figure7
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import run_table2
from repro.experiments.useless_reads import run_useless_reads


@dataclass(frozen=True)
class SuiteResult:
    """All experiment results keyed by experiment id."""

    results: dict[str, object]

    def render(self) -> str:
        blocks = []
        for name, result in self.results.items():
            blocks.append(f"## {name}\n\n```\n{result.render()}\n```")
        return "\n\n".join(blocks)


def run_all(
    scale: float | None = None,
    seed: int = 42,
    chunk_sizes: tuple[int, ...] = (300, 400, 500),
) -> SuiteResult:
    """Run the full experiment suite (shares cached pipeline runs)."""
    results = {
        "Table 1 — dataset statistics": run_table1(scale=scale, seed=seed),
        "Figure 4 — potential-benefit study": run_figure4(scale=scale, seed=seed),
        "Figure 7 — chunk quality trajectories": run_figure7(scale=scale, seed=seed),
        "Figure 10 — speedup grid": run_figure10(
            chunk_sizes=chunk_sizes, scale=scale, seed=seed
        ),
        "Figure 11 — energy grid": run_figure11(
            chunk_sizes=chunk_sizes, scale=scale, seed=seed
        ),
        "Figure 12 — ER-QSR sensitivity": run_figure12(scale=scale, seed=seed),
        "Figure 13 — ER-CMR sensitivity": run_figure13(scale=scale, seed=seed),
        "Table 2 — area/power breakdown": run_table2(),
        "Sec. 2.3 — useless reads": run_useless_reads(scale=scale, seed=seed),
        "Accuracy — GenPIP vs conventional": run_accuracy(scale=scale, seed=seed),
    }
    return SuiteResult(results=results)


def main() -> None:  # pragma: no cover - CLI convenience
    print(run_all().render())


if __name__ == "__main__":  # pragma: no cover
    main()
