"""Figure 7: chunk quality-score trajectories of representative reads."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.basecalling import SurrogateBasecaller
from repro.experiments import paper_values
from repro.experiments.context import get_context
from repro.nanopore.read_simulator import ReadClass, SimulatedRead


@dataclass(frozen=True)
class Figure7Result:
    """Per-chunk quality series of one low- and one high-quality read."""

    low_read_id: str
    high_read_id: str
    low_chunk_scores: np.ndarray
    high_chunk_scores: np.ndarray

    def rows(self) -> list[tuple[str, float, float, float]]:
        """(series, min, mean, max) summary rows."""
        return [
            (
                "low-quality read",
                float(self.low_chunk_scores.min()),
                float(self.low_chunk_scores.mean()),
                float(self.low_chunk_scores.max()),
            ),
            (
                "high-quality read",
                float(self.high_chunk_scores.min()),
                float(self.high_chunk_scores.mean()),
                float(self.high_chunk_scores.max()),
            ),
        ]

    def neighbour_correlation(self, series: np.ndarray) -> float:
        """Lag-1 autocorrelation of a chunk-score series."""
        if series.size < 3:
            return 0.0
        return float(np.corrcoef(series[:-1], series[1:])[0, 1])

    def render(self) -> str:
        paper_low = paper_values.FIGURE7_LOW_READ_RANGE
        paper_high = paper_values.FIGURE7_HIGH_READ_RANGE
        lines = ["Figure 7: chunk quality scores of representative reads (chunk = 300)"]
        lines.append(f"{'series':<20} {'min':>7} {'mean':>7} {'max':>7}   paper range")
        for (name, lo, mean, hi), paper in zip(self.rows(), (paper_low, paper_high), strict=True):
            lines.append(
                f"{name:<20} {lo:>7.1f} {mean:>7.1f} {hi:>7.1f}   {paper[0]:.0f}..{paper[1]:.0f}"
            )
        lines.append(
            f"neighbour-chunk correlation: "
            f"low {self.neighbour_correlation(self.low_chunk_scores):.2f}, "
            f"high {self.neighbour_correlation(self.high_chunk_scores):.2f} "
            f"(both positive => consecutive chunks are similar, "
            f"so QSR samples non-consecutive chunks)"
        )
        return "\n".join(lines)


def _chunk_scores(read: SimulatedRead, chunk_size: int, caller: SurrogateBasecaller) -> np.ndarray:
    chunks = caller.basecall_chunks(read, range(caller.n_chunks(read, chunk_size)), chunk_size)
    return np.asarray([chunk.mean_quality for chunk in chunks])


def run_figure7(
    scale=None, seed: int = 42, chunk_size: int = 300
) -> Figure7Result:
    """Pick representative long low-/high-quality reads and score chunks."""
    context = get_context("ecoli-like", scale=scale, seed=seed)
    reads = context.dataset.reads
    caller = SurrogateBasecaller()

    def representative(read_class: ReadClass, prefer_high_quality: bool) -> SimulatedRead:
        candidates = [r for r in reads if r.read_class is read_class]
        if not candidates:
            raise RuntimeError(f"dataset has no {read_class.value} reads")
        # Among the longest quartile (many chunks, like the paper's
        # multi-thousand-chunk examples), pick the quality extreme.
        candidates.sort(key=len, reverse=True)
        pool = candidates[: max(1, len(candidates) // 4)]
        key = (lambda r: r.mean_true_quality) if prefer_high_quality else (
            lambda r: -r.mean_true_quality
        )
        return max(pool, key=key)

    low = representative(ReadClass.LOW_QUALITY, prefer_high_quality=False)
    high = representative(ReadClass.NORMAL, prefer_high_quality=True)
    return Figure7Result(
        low_read_id=low.read_id,
        high_read_id=high.read_id,
        low_chunk_scores=_chunk_scores(low, chunk_size, caller),
        high_chunk_scores=_chunk_scores(high, chunk_size, caller),
    )
