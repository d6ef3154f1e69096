"""Order-preserving merge of out-of-order shard results.

Workers finish in whatever order the scheduler dictates;
:class:`ShardCollector` re-sequences their :class:`ShardResult`\\ s so
the caller can stream the *completed prefix* of the dataset to a
:class:`~repro.runtime.sink.ReportSink` while later shards are still in
flight. :meth:`ShardCollector.drain` **releases** the outcomes it
returns -- once a sink has consumed the prefix, the parent retains
nothing but exact integer counters, which is what keeps dataset-scale
streaming runs at O(batch) parent memory.

The total shard count may be unknown while a streaming plan is still
being generated; the engine declares it via :meth:`set_expected` once
the plan is exhausted.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.core.genpip import ReportCounters
from repro.core.pipeline import ReadOutcome
from repro.obs.metrics import merge_snapshots


@dataclass(frozen=True)
class ShardResult:
    """One work unit's outcomes plus its pre-summed counters.

    Counters are computed *in the worker*, so the parent merges shard
    aggregates by integer addition instead of re-walking outcomes.
    """

    shard_id: int
    outcomes: tuple[ReadOutcome, ...]
    counters: ReportCounters
    #: Worker-side metrics-registry movement of this unit (a
    #: :func:`repro.obs.metrics.snapshot_delta`): copied bytes and
    #: mapping-kernel ops the parent process never saw. Empty for
    #: serially executed units, whose charges land in the parent's
    #: own process ledgers directly.
    metrics: Mapping[str, dict] = field(default_factory=dict)
    #: Completed span traces of this unit as compact wire tuples
    #: (:meth:`repro.obs.trace.ReadTrace.to_tuple`); empty when
    #: tracing is off.
    traces: tuple = ()

    @classmethod
    def from_outcomes(
        cls,
        shard_id: int,
        outcomes: list[ReadOutcome],
        metrics: Mapping[str, dict] | None = None,
        traces: tuple = (),
    ) -> "ShardResult":
        return cls(
            shard_id=shard_id,
            outcomes=tuple(outcomes),
            counters=ReportCounters.from_outcomes(outcomes),
            metrics=metrics if metrics is not None else {},
            traces=tuple(traces),
        )


class ShardCollector:
    """Accumulates shard results by id and streams the ordered prefix."""

    def __init__(self, n_shards: int | None = None):
        self._n_shards = n_shards
        self._pending: dict[int, ShardResult] = {}
        self._outcomes: list[ReadOutcome] = []
        self._counters = ReportCounters()
        self._next_shard = 0
        self._metrics: dict[str, dict] = {}
        self._traces: list[tuple] = []

    def set_expected(self, n_shards: int) -> None:
        """Declare the total shard count (streaming plans learn it late)."""
        if self._n_shards is not None and self._n_shards != n_shards:
            raise ValueError(
                f"expected shard count already set to {self._n_shards}, got {n_shards}"
            )
        highest = max(self._pending, default=self._next_shard - 1)
        if n_shards <= highest:
            raise ValueError(
                f"expected shard count {n_shards} below already-delivered id {highest}"
            )
        self._n_shards = n_shards

    def add(self, result: ShardResult) -> None:
        """Accept one shard result (any order, each id exactly once)."""
        if result.shard_id < 0 or (
            self._n_shards is not None and result.shard_id >= self._n_shards
        ):
            raise ValueError(f"shard id {result.shard_id} outside plan of {self._n_shards}")
        if result.shard_id < self._next_shard or result.shard_id in self._pending:
            raise ValueError(f"shard id {result.shard_id} delivered twice")
        if result.metrics:
            self._metrics = merge_snapshots(self._metrics, result.metrics)
        self._pending[result.shard_id] = result
        while self._next_shard in self._pending:
            ready = self._pending.pop(self._next_shard)
            self._outcomes.extend(ready.outcomes)
            self._counters = self._counters.combine(ready.counters)
            # Traces join the ordered prefix (dataset order); unlike
            # outcomes they are never drained -- a traced run keeps its
            # spans for the whole run, which is fine because tracing is
            # opt-in diagnostics, not the streaming hot path.
            self._traces.extend(ready.traces)
            self._next_shard += 1

    @property
    def expected_shards(self) -> int | None:
        """Declared total shard count (None until the plan is known)."""
        return self._n_shards

    @property
    def counters(self) -> ReportCounters:
        """Exact merged counters of the completed prefix so far."""
        return self._counters

    @property
    def metrics(self) -> dict[str, dict]:
        """Merged worker-side registry deltas of every accepted shard."""
        return self._metrics

    @property
    def traces(self) -> tuple:
        """Dataset-ordered span traces (wire tuples) of the completed
        prefix; empty unless the run was traced."""
        return tuple(self._traces)

    def drain(self) -> list[ReadOutcome]:
        """Outcomes newly added to the ordered prefix since last drain.

        The returned outcomes are **released** from the collector --
        after a drain, the parent's only copy is whatever the caller
        (typically a sink) does with them; the collector keeps their
        :attr:`counters`.
        """
        fresh = self._outcomes
        self._outcomes = []
        return fresh
