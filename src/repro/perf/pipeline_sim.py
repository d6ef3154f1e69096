"""Flow-shop simulation of the chunk-based pipeline.

The chunk-based pipeline is a classic permutation flow shop: jobs
(chunks, in read order) pass through the stages basecall -> seed ->
chain in order, each stage processing one job at a time, and a read's
alignment job enters the DP stage after the read's last chunk clears
chaining. The makespan follows the standard recurrence

.. code-block:: text

    C[j][s] = max(C[j-1][s], C[j][s-1]) + t[j][s]

which captures exactly the behaviour the paper's Fig. 5 illustrates:
with stages overlapped, total time approaches the busiest stage's total
plus the pipeline fill, rather than the sum of stage totals.

The simulator is deliberately stage-aggregate (each stage models the
*total* provisioned throughput of that module); intra-stage parallelism
is already folded into the per-chunk service times supplied by the
caller.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FlowShopResult:
    """Outcome of a flow-shop simulation."""

    makespan_s: float
    stage_busy_s: tuple[float, ...]
    n_jobs: int

    @property
    def overlap_gain(self) -> float:
        """Serial time over pipelined time (>= 1)."""
        serial = sum(self.stage_busy_s)
        return serial / self.makespan_s if self.makespan_s > 0 else 1.0


def simulate_flow_shop(service_times: np.ndarray) -> FlowShopResult:
    """Makespan of a permutation flow shop.

    Parameters
    ----------
    service_times:
        ``float[n_jobs, n_stages]`` per-job service time at each stage,
        in job processing order.
    """
    times = np.asarray(service_times, dtype=np.float64)
    if times.ndim != 2:
        raise ValueError("service_times must be 2-D [jobs, stages]")
    n_jobs, n_stages = times.shape
    if n_jobs == 0:
        return FlowShopResult(makespan_s=0.0, stage_busy_s=(0.0,) * n_stages, n_jobs=0)
    if np.any(times < 0):
        raise ValueError("service times must be non-negative")

    completion = np.zeros(n_stages)
    for j in range(n_jobs):
        completion[0] += times[j, 0]
        for s in range(1, n_stages):
            completion[s] = max(completion[s], completion[s - 1]) + times[j, s]
    busy = tuple(float(b) for b in times.sum(axis=0))
    return FlowShopResult(makespan_s=float(completion[-1]), stage_busy_s=busy, n_jobs=n_jobs)


def chunk_pipeline_jobs(
    chunks_per_read,
    seeded_chunks_per_read,
    aligned_per_read,
    basecall_s_per_chunk: float,
    seedchain_s_per_chunk: float,
    align_s_per_chunk: float,
) -> np.ndarray:
    """Build the flow-shop job matrix for a chunked dataset run.

    Stages: (0) basecall, (1) seed+chain (per chunk), with each aligned
    read's base-level alignment appended as one extra stage-1 job after
    its last chunk (the DP units serve both chaining and alignment).
    Chunks that were basecalled but never seeded (an ER-rejected read's
    QSR samples) carry zero stage-1 time.
    """
    if min(basecall_s_per_chunk, seedchain_s_per_chunk, align_s_per_chunk) < 0:
        raise ValueError("service times must be non-negative")
    rows: list[tuple[float, float]] = []
    for n_chunks, n_seeded, aligned in zip(
        chunks_per_read, seeded_chunks_per_read, aligned_per_read, strict=True
    ):
        for c in range(n_chunks):
            rows.append(
                (basecall_s_per_chunk, seedchain_s_per_chunk if c < n_seeded else 0.0)
            )
        if aligned:
            rows.append((0.0, align_s_per_chunk * n_chunks))
    if not rows:
        return np.zeros((0, 2))
    return np.asarray(rows, dtype=np.float64)
