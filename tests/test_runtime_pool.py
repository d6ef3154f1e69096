"""Tests for the one worker plane (:mod:`repro.runtime.pool`).

What both schedulers rely on and neither re-implements: the index is
published once per pool, a unit's segment is released however its future
ends, the pickle fallback is automatic and result-identical, and a pool
that cannot start has exactly one failure path. Plus the structural
check that no second pool can quietly reappear.
"""

from __future__ import annotations

import asyncio
import glob
import os
import re
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest
from test_runtime_streaming import FailingBasecaller

import repro
from repro.basecalling.surrogate import SurrogateBasecaller
from repro.core import GenPIP, GenPIPConfig
from repro.mapping.index import MinimizerIndex
from repro.nanopore.datasets import ECOLI_LIKE, generate_dataset, small_profile
from repro.runtime import DatasetEngine, PipelineSpec, WorkerPool, active_segments, plan_work
from repro.runtime import pool as pool_module
from repro.serving import PoolDispatcher

_PARENT_PID = os.getpid()


def _no_leaked_segments() -> bool:
    return not active_segments() and not glob.glob("/dev/shm/genpip-*")


class SlowBasecaller(SurrogateBasecaller):
    """Holds every read's first chunk long enough for a queue to build."""

    def basecall_chunk(self, read, index, chunk_size):
        if index == 0:
            time.sleep(0.2)
        return super().basecall_chunk(read, index, chunk_size)


class WorkerBuildFails(PipelineSpec):
    """A spec that builds in the parent and raises in every worker."""

    def build(self):
        if os.getpid() != _PARENT_PID:
            raise RuntimeError("injected: worker build failed")
        return super().build()


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(
        small_profile(ECOLI_LIKE, max_read_length=2_500), scale=0.0004, seed=13
    )


@pytest.fixture(scope="module")
def index(dataset):
    return MinimizerIndex.build(dataset.reference)


@pytest.fixture(scope="module")
def spec(index):
    return PipelineSpec.from_pipeline(GenPIP(index, GenPIPConfig(), align=False).pipeline)


def _spec_with(index, basecaller) -> PipelineSpec:
    system = GenPIP(index, GenPIPConfig(), basecaller=basecaller, align=False)
    return PipelineSpec.from_pipeline(system.pipeline)


def _run_units(pool: WorkerPool, units):
    futures = [pool.submit(unit) for unit in units]
    return [future.result(timeout=60) for future in futures]


def test_index_published_exactly_once_per_pool(spec, dataset, monkeypatch):
    published = []
    real_publish = pool_module.publish_index

    def counting(index):
        handle = real_publish(index)
        published.append(handle.segment)
        return handle

    monkeypatch.setattr(pool_module, "publish_index", counting)
    units = plan_work(dataset.reads, 3)
    with WorkerPool(spec, 2) as pool:
        assert pool.alive and pool.transport == "none"
        assert active_segments() == tuple(published)
        _run_units(pool, units)
        _run_units(pool, units)
        assert pool.transport == "shm"
    assert len(published) == 1
    assert pool.index_publications == 1
    assert not pool.alive
    assert _no_leaked_segments()


def test_segment_released_on_success(spec, dataset):
    units = plan_work(dataset.reads, 3)
    with WorkerPool(spec, 2) as pool:
        (index_segment,) = active_segments()
        results = _run_units(pool, units)
        # Done-callbacks run on the executor's thread just after the
        # result is set, so give the last one a bounded moment.
        deadline = time.monotonic() + 10
        while active_segments() != (index_segment,) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert active_segments() == (index_segment,)
    assert [r.shard_id for r in results] == [u.shard_id for u in units]
    assert sum(len(r.outcomes) for r in results) == len(dataset.reads)
    assert _no_leaked_segments()


def test_segment_released_on_worker_exception(index, dataset):
    fail_id = dataset.reads[2].read_id
    units = plan_work(dataset.reads[:6], 2)
    with WorkerPool(_spec_with(index, FailingBasecaller(fail_id)), 2) as pool:
        futures = [pool.submit(unit) for unit in units]
        with pytest.raises(RuntimeError, match="injected failure"):
            for future in futures:
                future.result(timeout=60)
    assert _no_leaked_segments()


def test_segments_released_on_cancel_at_stop(index, dataset):
    units = plan_work(dataset.reads, 1)
    pool = WorkerPool(_spec_with(index, SlowBasecaller()), 2)
    assert pool.start()
    futures = [pool.submit(unit) for unit in units]
    assert len(active_segments()) > len(units) // 2
    pool.stop()
    assert any(future.cancelled() for future in futures)
    assert all(future.done() for future in futures)
    assert _no_leaked_segments()


def test_forced_pickle_fallback_is_result_identical(spec, dataset, request):
    units = plan_work(dataset.reads, 3)
    with WorkerPool(spec, 2) as pool:
        shared = _run_units(pool, units)
        assert pool.transport == "shm"
    request.getfixturevalue("pickle_fallback")
    with (
        pytest.warns(RuntimeWarning, match="shared memory unavailable") as caught,
        WorkerPool(spec, 2) as pool,
    ):
        assert pool.index_publications == 0
        pickled = _run_units(pool, units)
        assert pool.transport == "pickle"
        assert active_segments() == ()
    # Warned once, not once per unit.
    assert len([w for w in caught if "shared memory" in str(w.message)]) == 1
    for a, b in zip(pickled, shared, strict=True):
        assert (a.shard_id, a.outcomes, a.counters) == (b.shard_id, b.outcomes, b.counters)
    assert _no_leaked_segments()


class TestStartFailure:
    """One failure path: a pool whose workers cannot build is reported
    dead, fully torn down, and both schedulers fall back in-process."""

    @pytest.fixture()
    def failing_spec(self, spec):
        return WorkerBuildFails(**{f: getattr(spec, f) for f in spec.__dataclass_fields__})

    def test_pool_reports_dead_and_is_torn_down(self, failing_spec, monkeypatch):
        shutdowns = []

        class Recording(ProcessPoolExecutor):
            def shutdown(self, wait=True, *, cancel_futures=False):
                shutdowns.append(wait)
                super().shutdown(wait=wait, cancel_futures=cancel_futures)

        monkeypatch.setattr(pool_module, "ProcessPoolExecutor", Recording)
        pool = WorkerPool(failing_spec, 2)
        with pytest.warns(RuntimeWarning, match="process pool unavailable"):
            assert pool.start() is False
        assert not pool.alive
        assert shutdowns == [True]
        assert active_segments() == ()
        with pytest.raises(pool_module.BrokenProcessPool):
            pool.submit(None)
        assert _no_leaked_segments()

    def test_batch_falls_back_to_serial(self, failing_spec, spec, dataset):
        serial = DatasetEngine(spec, workers=1).run(dataset)
        engine = DatasetEngine(failing_spec, workers=2, batch_size=3)
        with pytest.warns(RuntimeWarning, match="process pool unavailable"):
            report = engine.run(dataset)
        assert engine.last_stats.mode == "serial"
        assert engine.last_stats.transport == "none"
        assert report.outcomes == serial.outcomes
        assert _no_leaked_segments()

    def test_serving_falls_back_to_inline(self, failing_spec, spec, dataset):
        reads = dataset.reads[:4]
        expected = spec.build().process_batch(list(reads))
        with pytest.warns(RuntimeWarning, match="process pool unavailable"):
            dispatcher = PoolDispatcher(failing_spec, workers=2).start()
        try:
            assert dispatcher.mode == "inline"
            assert active_segments() == ()

            async def _serve():
                return [(await dispatcher.process(read))[0] for read in reads]

            assert asyncio.run(_serve()) == expected
        finally:
            dispatcher.stop()
        assert _no_leaked_segments()


def test_one_module_constructs_the_process_pool():
    """No second pool: ``ProcessPoolExecutor(`` appears in exactly one
    module under ``src/repro``, and the removed knobs stay removed."""
    root = Path(repro.__file__).parent
    sources = {path: path.read_text(encoding="utf-8") for path in root.rglob("*.py")}
    constructing = [
        path.relative_to(root).as_posix()
        for path, text in sources.items()
        if "ProcessPoolExecutor(" in text
    ]
    assert constructing == ["runtime/pool.py"]
    assert sources[root / "runtime/pool.py"].count("ProcessPoolExecutor(") == 1
    for path, text in sources.items():
        assert not re.search(r"\bTRANSPORTS\b|\btransport\s*(:\s*str\s*)?=\s*\"auto\"", text), path
        assert "initializer=" not in text or path.name == "pool.py", path
