"""Work-unit planning: split a read stream into ordered shards.

Reads are embarrassingly parallel in GenPIP (no cross-read state), so
the only planning questions are *how much* work per unit (enough to
amortise IPC, little enough to load-balance a pool) and *how* to stitch
results back into dataset order. Each :class:`WorkUnit` carries its
shard id; the merge side keys on it, so work units can complete in any
order.

Planning is a **streaming** operation: :func:`iter_work` consumes any
read iterable and yields units as soon as they fill, so the engine can
plan from a lazy source without materialising the dataset. There is one
rule, a fixed number of reads per unit. Nanopore length distributions
are heavy-tailed, but the automatic batch size gives each worker
``_UNITS_PER_WORKER`` units handed out dynamically, which already
absorbs the long-read tail: balancing units by bases made them more
even and the run no faster (ROADMAP, PR 24). The units planned from a
prefix of a stream are a prefix of the units planned from the whole, so
serial and parallel runs plan identical units.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

from repro.checks import require_integer
from repro.nanopore.read_simulator import SimulatedRead

#: Work units a pool worker should see on average; > 1 so that slow
#: shards (long reads) don't serialise the tail of the run.
_UNITS_PER_WORKER = 8

#: Bounds on automatically chosen batch sizes.
_MIN_BATCH = 1
_MAX_BATCH = 256

#: Assumed dataset size when a streaming source has no size hint.
UNKNOWN_SIZE_HINT = 4096


@dataclass(frozen=True)
class WorkUnit:
    """A contiguous run of reads, tagged with its position in the plan.

    Planning is read-kind agnostic -- it counts reads and looks inside
    none -- so base-space simulated reads and signal-native
    :class:`~repro.nanopore.signal_read.SignalRead`\\ s shard identically.
    """

    shard_id: int
    start: int
    reads: tuple[SimulatedRead, ...]

    def __len__(self) -> int:
        return len(self.reads)


def resolve_workers(workers: int = 1) -> int:
    """Normalise a worker-count request to an effective pool size:
    ``0`` and ``1`` both mean serial in-process execution. A count that
    is not an integer (``2.0``, ``True``) raises ``TypeError`` here,
    before any pool or shared memory exists."""
    require_integer("workers", workers, ge=0)
    return max(int(workers), 1)


def resolve_batch_size(n_reads: int | None, workers: int, batch_size: int | None) -> int:
    """Pick the reads-per-unit granularity for a run.

    Explicit requests are honoured (minimum 1). The automatic choice
    targets ``_UNITS_PER_WORKER`` units per worker so the pool stays
    load-balanced, clamped to keep per-task pickling overhead sane.
    ``n_reads=None`` (unsized streaming source) assumes a dataset-scale
    stream of :data:`UNKNOWN_SIZE_HINT` reads.
    """
    if batch_size is not None:
        require_integer("batch_size", batch_size, ge=1)
        return int(batch_size)
    if n_reads is None:
        n_reads = UNKNOWN_SIZE_HINT
    if n_reads <= 0:
        return _MIN_BATCH
    auto = -(-n_reads // max(workers * _UNITS_PER_WORKER, 1))  # ceil div
    return max(_MIN_BATCH, min(auto, _MAX_BATCH))


def iter_work(reads: Iterable[SimulatedRead], batch_size: int) -> Iterator[WorkUnit]:
    """Stream ordered :class:`WorkUnit`\\ s of ``batch_size`` reads (the
    last may be shorter) from any read iterable.

    Shard ids increase with dataset position, so concatenating shard
    results by id reproduces dataset order exactly. Units are yielded
    as soon as they fill -- the engine submits them while later reads
    are still being generated or decoded.
    """
    require_integer("batch_size", batch_size, ge=1)
    stream = iter(reads)
    for shard_id in itertools.count():
        unit = tuple(itertools.islice(stream, batch_size))
        if not unit:
            return
        yield WorkUnit(shard_id=shard_id, start=shard_id * batch_size, reads=unit)


def plan_work(reads: Sequence[SimulatedRead], batch_size: int) -> list[WorkUnit]:
    """Materialised convenience wrapper around :func:`iter_work`."""
    return list(iter_work(reads, batch_size))
