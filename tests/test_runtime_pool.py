"""Tests for the one worker plane (:mod:`repro.runtime.pool`).

What both schedulers rely on and neither re-implements: the index is
published once per pool and is the only segment a pool makes, a unit
travels on its worker's pipe and leaves nothing queued or on a worker
however its future ends, the index's pickle fallback is automatic and
result-identical, a pool that cannot start has exactly one failure
path, and a unit runs in-process -- through the same ``run_unit`` --
whenever there are no processes. Plus the structural checks that no
second pool and no second execution path can quietly reappear.
"""

from __future__ import annotations

import ast
import asyncio
import dataclasses
import glob
import itertools
import os
import re
import time
import warnings
from multiprocessing.connection import wait
from multiprocessing.process import BaseProcess
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_runtime_streaming import FailingBasecaller

import repro
import repro.kernels.native as native
from repro.basecalling.engines import ViterbiBackendConfig
from repro.basecalling.surrogate import SurrogateBasecaller
from repro.core import GenPIPConfig, GenPIPPipeline
from repro.core.pipeline import GenPIPPipeline
from repro.core.registry import basecaller_names
from repro.mapping.chaining import ChainingConfig
from repro.mapping.index import MinimizerIndex
from repro.nanopore.datasets import ECOLI_LIKE, generate_dataset, small_profile
from repro.runtime import (
    DatasetEngine,
    JSONLSink,
    MemorySink,
    RuntimeStats,
    WorkerPool,
    WorkUnit,
    active_segments,
    outcome_to_record,
    plan_work,
    replay_report,
)
from repro.runtime import engine as engine_module
from repro.runtime import pool as pool_module
from repro.runtime import transport as transport_module
from repro.serving import PoolDispatcher

_PARENT_PID = os.getpid()


def _no_leaked_segments() -> bool:
    return not active_segments() and not glob.glob("/dev/shm/genpip-*")


class SlowBasecaller(SurrogateBasecaller):
    """Holds every read's first chunk long enough for a queue to build
    (the delay is per read, whichever call decodes its chunk 0)."""

    def basecall_many(self, requests, chunk_size):
        time.sleep(0.2 * sum(0 in indices for _, indices in requests))
        return super().basecall_many(requests, chunk_size)


class SlowInWorkers(SurrogateBasecaller):
    """Slow in every process but the recorded parent, so units queue up
    behind the workers while an in-process tail stays fast."""

    def basecall_many(self, requests, chunk_size):
        if os.getpid() != _PARENT_PID:
            time.sleep(0.03 * sum(0 in indices for _, indices in requests))
        return super().basecall_many(requests, chunk_size)


class WorkerBuildFails(GenPIPPipeline):
    """A pipeline that works in the parent and cannot be set up in any
    worker: the initialiser's ``replace(pipeline, index=...)`` runs
    ``__post_init__`` there."""

    def __post_init__(self):
        if os.getpid() != _PARENT_PID:
            raise RuntimeError("injected: worker build failed")
        super().__post_init__()


class TwoArgumentError(Exception):
    """Pickles in a worker, cannot be unpickled: ``args`` holds only the
    joined message."""

    def __init__(self, read_id, detail):
        super().__init__(f"{read_id}: {detail}")


class RaisesTwoArgumentError(SurrogateBasecaller):
    def basecall_many(self, requests, chunk_size):
        raise TwoArgumentError(requests[0][0].read_id, "injected")


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(
        small_profile(ECOLI_LIKE, max_read_length=2_500), scale=0.0004, seed=13
    )


@pytest.fixture(scope="module")
def index(dataset):
    return MinimizerIndex.build(dataset.reference)


@pytest.fixture(scope="module")
def pipeline(index):
    return GenPIPPipeline(index, GenPIPConfig(), align=False)


def _pipeline_with(index, basecaller) -> GenPIPPipeline:
    return GenPIPPipeline(index, GenPIPConfig(), basecaller=basecaller, align=False)


def _run_units(pool: WorkerPool, units):
    futures = [pool.submit(unit) for unit in units]
    return [future.result(timeout=60) for future in futures]


def test_index_published_exactly_once_per_pool(pipeline, dataset, monkeypatch):
    published = []
    real_publish = pool_module.publish_index

    def counting(index):
        handle = real_publish(index)
        published.append(handle.segment)
        return handle

    monkeypatch.setattr(pool_module, "publish_index", counting)
    units = plan_work(dataset.reads, 3)
    with WorkerPool(pipeline, 2) as pool:
        assert pool.alive and pool.transport == "shm"
        assert active_segments() == tuple(published)
        _run_units(pool, units)
        _run_units(pool, units)
        assert active_segments() == tuple(published)
    assert len(published) == 1
    assert pool.index_publications == 1
    assert not pool.alive
    assert _no_leaked_segments()


def test_units_leave_nothing_behind_on_success(pipeline, dataset):
    """Units travel on the pipes: once their results are in, nothing is
    queued or on a worker, and the index is the only segment."""
    units = plan_work(dataset.reads, 3)
    with WorkerPool(pipeline, 2) as pool:
        (index_segment,) = active_segments()
        results = _run_units(pool, units)
        assert pool.outstanding == 0
        assert active_segments() == (index_segment,)
    assert [r.shard_id for r in results] == [u.shard_id for u in units]
    assert sum(len(r.outcomes) for r in results) == len(dataset.reads)
    assert _no_leaked_segments()


def test_start_runs_once(pipeline):
    """A second ``start`` is refused: it would publish the index again
    and orphan the first segment past ``stop``."""
    pool = WorkerPool(pipeline, 2)
    with pool:
        with pytest.raises(RuntimeError, match="pool already started"):
            pool.start()
        assert pool.index_publications == 1
        assert len(active_segments()) == 1
    assert active_segments() == ()
    assert _no_leaked_segments()


@settings(max_examples=12, deadline=None)
@given(
    workers=st.sampled_from([2, 3]),
    sizes=st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=10),
    data=st.data(),
)
def test_any_interleaving_of_submits_and_collects(pipeline, dataset, workers, sizes, data):
    """Whatever order units are submitted and collected in, with up to
    two per worker outstanding: each unit's result equals ``run_local``'s
    and arrives exactly once, no unit is left queued or on a worker, and
    no segment remains."""
    reads = itertools.cycle(dataset.reads)
    units = [
        WorkUnit(shard_id=i, start=0, reads=tuple(itertools.islice(reads, size)))
        for i, size in enumerate(sizes)
    ]
    arrivals: dict[int, list[int]] = {unit.shard_id: [] for unit in units}
    outstanding: list = []
    results = {}
    with WorkerPool(pipeline, workers) as pool:
        expected = {unit.shard_id: pool.run_local(unit) for unit in units}
        pending = list(units)
        while pending or outstanding:
            can_submit = pending and len(outstanding) < 2 * workers
            if can_submit and (not outstanding or data.draw(st.booleans(), label="submit")):
                unit = pending.pop(0)
                future = pool.submit(unit)
                future.add_done_callback(
                    lambda _f, shard=unit.shard_id: arrivals[shard].append(shard)
                )
                outstanding.append((unit.shard_id, future))
            elif data.draw(st.booleans(), label="wait on one future"):
                index = data.draw(st.integers(0, len(outstanding) - 1), label="which")
                shard, future = outstanding.pop(index)
                results[shard] = future.result(timeout=60)
            else:
                while not any(future.done() for _, future in outstanding):
                    ready = wait(pool.connections, timeout=60)
                    assert ready, "no worker replied within 60 s"
                    for conn in ready:
                        pool.receive(conn)
                for shard, future in [item for item in outstanding if item[1].done()]:
                    outstanding.remove((shard, future))
                    results[shard] = future.result()
        assert pool.outstanding == 0
    assert arrivals == {shard: [shard] for shard in arrivals}
    for shard, result in results.items():
        local = expected[shard]
        assert (result.shard_id, result.outcomes, result.counters) == (
            local.shard_id, local.outcomes, local.counters,
        )  # fmt: skip
    assert sorted(results) == sorted(expected)
    assert active_segments() == ()
    assert _no_leaked_segments()


def test_worker_exception_leaves_no_unit_behind(index, dataset):
    fail_id = dataset.reads[2].read_id
    units = plan_work(dataset.reads[:6], 2)
    with WorkerPool(_pipeline_with(index, FailingBasecaller(fail_id)), 2) as pool:
        futures = [pool.submit(unit) for unit in units]
        with pytest.raises(RuntimeError, match="injected failure"):
            for future in futures:
                future.result(timeout=60)
        for future in futures:
            future.exception(timeout=60)
        assert pool.outstanding == 0
    assert _no_leaked_segments()


def test_queued_units_are_cancelled_at_stop(index, dataset):
    units = plan_work(dataset.reads, 1)
    pool = WorkerPool(_pipeline_with(index, SlowBasecaller()), 2)
    assert pool.start()
    futures = [pool.submit(unit) for unit in units]
    assert pool.outstanding == len(units)
    pool.stop()
    assert pool.outstanding == 0
    assert any(future.cancelled() for future in futures)
    assert all(future.done() for future in futures)
    assert _no_leaked_segments()


def test_reply_that_cannot_be_unpickled_breaks_the_pool(index, dataset):
    """A worker's reply that cannot be unpickled in the parent loses that
    worker like a death would: the pool is retired once and the unit runs
    in-process, where its own exception reaches the caller -- and the
    stop does not wait for a reply that was already read."""
    pipeline = _pipeline_with(index, RaisesTwoArgumentError())
    engine = DatasetEngine(pipeline, workers=2, batch_size=3)
    with (
        pytest.warns(RuntimeWarning, match="process pool broke") as caught,
        pytest.raises(TwoArgumentError, match="injected"),
    ):
        engine.run(dataset)
    assert len([w for w in caught if "cannot be unpickled" in str(w.message)]) == 1
    assert _no_leaked_segments()


def test_forced_pickle_fallback_is_result_identical(pipeline, dataset, request):
    units = plan_work(dataset.reads, 3)
    with WorkerPool(pipeline, 2) as pool:
        shared = _run_units(pool, units)
        assert pool.transport == "shm"
    request.getfixturevalue("pickle_fallback")
    with (
        pytest.warns(RuntimeWarning, match="shared memory unavailable") as caught,
        WorkerPool(pipeline, 2) as pool,
    ):
        assert pool.index_publications == 0
        pickled = _run_units(pool, units)
        assert pool.transport == "pickle"
        assert active_segments() == ()
    # Warned once, for the index; units never needed a segment.
    assert len([w for w in caught if "shared memory" in str(w.message)]) == 1
    for a, b in zip(pickled, shared, strict=True):
        assert (a.shard_id, a.outcomes, a.counters) == (b.shard_id, b.outcomes, b.counters)
    assert _no_leaked_segments()


def test_unit_that_cannot_be_packed_fails_alone(pipeline, dataset):
    """A unit is packed as it is handed to a worker: one whose reads
    cannot be laid out fails its own future, as a worker exception
    would, and the pool carries on with the next unit."""
    good = WorkUnit(shard_id=1, start=0, reads=tuple(dataset.reads[:2]))
    with WorkerPool(pipeline, 2) as pool:
        bad = pool.submit(WorkUnit(shard_id=0, start=0, reads=(object(),)))
        with pytest.raises(TypeError):
            bad.result(timeout=60)
        result = pool.submit(good).result(timeout=60)
        assert pool.alive and pool.outstanding == 0
    assert result.outcomes == pool.run_local(good).outcomes
    assert _no_leaked_segments()


def test_shm_full_after_start_changes_nothing(pipeline, dataset, monkeypatch, tmp_path):
    """``/dev/shm`` filling up once the pool runs touches no unit: a
    pooled batch run and a served session give every outcome exactly
    once, byte-identical to serial, with no fallback warning, and only
    the index segment ever existed."""

    def refuse(*_args, **_kwargs):
        raise OSError("injected: no space left in /dev/shm")

    real_start = WorkerPool.start
    real_create = transport_module._create_segment

    def start_then_fill(self):
        monkeypatch.setattr(transport_module, "_create_segment", real_create)
        alive = real_start(self)
        monkeypatch.setattr(transport_module, "_create_segment", refuse)
        return alive

    serial_path = tmp_path / "serial.jsonl"
    DatasetEngine(pipeline, workers=1, sink=JSONLSink(serial_path)).run(dataset)
    monkeypatch.setattr(WorkerPool, "start", start_then_fill)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        path = tmp_path / "pooled.jsonl"
        engine = DatasetEngine(pipeline, workers=2, batch_size=3, sink=JSONLSink(path))
        engine.run(dataset)
        assert (engine.last_stats.mode, engine.last_stats.transport) == ("process-pool", "shm")
        assert path.read_bytes() == serial_path.read_bytes()
        assert active_segments() == ()

        reads = dataset.reads[:6]
        with PoolDispatcher(pipeline, workers=2) as dispatcher:

            async def _serve():
                return await asyncio.gather(*(dispatcher.process(read) for read in reads))

            served = [outcome for outcome, _ in asyncio.run(_serve())]
            assert (dispatcher.mode, dispatcher.transport) == ("process-pool", "shm")
        serial = pipeline.process_batch(list(reads))
        assert [outcome_to_record(o) for o in served] == [outcome_to_record(o) for o in serial]
    assert not [w for w in caught if "shared memory unavailable" in str(w.message)]
    assert _no_leaked_segments()


class TestStartFailure:
    """One failure path: a pool whose workers cannot build is reported
    dead, fully torn down, and both schedulers fall back in-process."""

    @pytest.fixture()
    def failing_pipeline(self, pipeline):
        return WorkerBuildFails(
            **{f.name: getattr(pipeline, f.name) for f in dataclasses.fields(pipeline) if f.init}
        )

    def test_pool_reports_dead_and_is_torn_down(self, failing_pipeline, monkeypatch):
        started = []
        real_start = BaseProcess.start

        def recording(process):
            real_start(process)
            started.append(process)

        monkeypatch.setattr(BaseProcess, "start", recording)
        pool = WorkerPool(failing_pipeline, 2)
        with pytest.warns(RuntimeWarning, match="process pool unavailable"):
            assert pool.start() is False
        assert not pool.alive
        assert len(started) == 2
        assert all(process.exitcode is not None for process in started)
        assert active_segments() == ()
        with pytest.raises(pool_module.BrokenProcessPool):
            pool.submit(None)
        assert _no_leaked_segments()

    def test_batch_falls_back_to_serial(self, failing_pipeline, pipeline, dataset):
        serial = DatasetEngine(pipeline, workers=1).run(dataset)
        engine = DatasetEngine(failing_pipeline, workers=2, batch_size=3)
        with pytest.warns(RuntimeWarning, match="process pool unavailable"):
            report = engine.run(dataset)
        assert engine.last_stats.mode == "serial"
        assert engine.last_stats.transport == "none"
        assert report.outcomes == serial.outcomes
        assert _no_leaked_segments()

    def test_serving_falls_back_to_inline(self, failing_pipeline, pipeline, dataset):
        reads = dataset.reads[:4]
        expected = pipeline.process_batch(list(reads))
        with pytest.warns(RuntimeWarning, match="process pool unavailable"):
            dispatcher = PoolDispatcher(failing_pipeline, workers=2).start()
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
    """No second pool: worker processes and their pipes are made in
    ``runtime/pool.py`` alone, no executor stands in for them, and the
    removed knobs stay removed."""
    root = Path(repro.__file__).parent
    sources = {path: path.read_text(encoding="utf-8") for path in root.rglob("*.py")}
    constructing = [
        path.relative_to(root).as_posix()
        for path, text in sources.items()
        if re.search(r"\b(Process|Pipe)\(", text)
    ]
    assert constructing == ["runtime/pool.py"]
    assert len(re.findall(r"\b(Process|Pipe)\(", sources[root / "runtime/pool.py"])) == 2
    for path, text in sources.items():
        assert "ProcessPoolExecutor" not in text, path
        assert not re.search(r"\bTRANSPORTS\b|\btransport\s*(:\s*str\s*)?=\s*\"auto\"", text), path
        assert "initializer=" not in text, path


def test_units_never_touch_the_segment_api():
    """Units travel on the worker pipes: no module under ``src/repro``
    but the transport itself names the unit segment, its attach or its
    lease (they stay only for the perf benchmark's transport probe)."""
    root = Path(repro.__file__).parent
    nodes = [n for n in _walk_with_owner(root) if n[0] != "runtime/transport.py"]
    unit_api = re.compile(r"\b(publish_unit|attach_unit|unit_lease|SharedUnit|SegmentLease)\b")
    assert _mentions(nodes, unit_api) == set()


# --- one execution path: faults from both sides of every removed fork --------


@pytest.mark.parametrize("position", ["first", "middle", "last"])
def test_submit_refused_mid_run_loses_and_repeats_nothing(
    index, dataset, monkeypatch, tmp_path, position
):
    """``submit`` itself raising on the k-th unit retires the pool: the
    run carries on in-process and the sink sees every outcome exactly
    once, in order. The window is wider than the pool, so the retirement
    *cancels* queued units besides letting the running ones finish."""
    pipeline = _pipeline_with(index, SlowInWorkers())
    serial = DatasetEngine(pipeline, workers=1).run(dataset)
    n_units = len(plan_work(dataset.reads, 1))
    refused = {"first": 0, "middle": n_units // 2, "last": n_units - 1}[position]
    calls = itertools.count()
    futures = []
    real_submit = WorkerPool.submit

    def flaky(self, unit):
        if next(calls) == refused:
            raise pool_module.BrokenProcessPool("injected: submit refused")
        futures.append(real_submit(self, unit))
        return futures[-1]

    monkeypatch.setattr(WorkerPool, "submit", flaky)
    monkeypatch.setattr(engine_module, "_INFLIGHT_PER_WORKER", 4)
    path = tmp_path / "outcomes.jsonl"
    engine = DatasetEngine(pipeline, workers=2, batch_size=1, sink=JSONLSink(path))
    with pytest.warns(RuntimeWarning, match="process pool broke") as caught:
        report = engine.run(dataset)
    assert len([w for w in caught if "process pool broke" in str(w.message)]) == 1
    assert len(futures) == refused
    if position != "first":
        assert any(future.cancelled() for future in futures)
    assert engine.last_stats.mode == "serial"
    assert engine.last_stats.n_shards == n_units
    assert report.counters == serial.counters
    assert replay_report(path, serial.config).outcomes == serial.outcomes
    assert active_segments() == ()
    assert _no_leaked_segments()


def test_run_local_failure_reaches_the_engine_caller(pipeline, dataset, monkeypatch):
    """An in-process unit that raises comes back through its future; the
    engine aborts the sink and re-raises."""
    aborted = []
    real_run_local = WorkerPool.run_local

    class ProbeSink(MemorySink):
        def abort(self):
            aborted.append(True)
            super().abort()

    def failing(self, unit):
        if unit.shard_id == 1:
            raise RuntimeError("injected: run_local failed")
        return real_run_local(self, unit)

    monkeypatch.setattr(WorkerPool, "run_local", failing)
    engine = DatasetEngine(pipeline, workers=1, batch_size=3, sink=ProbeSink())
    with pytest.raises(RuntimeError, match="run_local failed"):
        engine.run(dataset)
    assert aborted == [True]
    assert _no_leaked_segments()


def test_run_local_failure_fails_one_served_read_only(pipeline, dataset, monkeypatch):
    real_run_local = WorkerPool.run_local
    reads = dataset.reads[:3]
    expected = pipeline.process_batch(list(reads))

    def failing(self, unit):
        if unit.reads[0] is reads[1]:
            raise RuntimeError("injected: run_local failed")
        return real_run_local(self, unit)

    monkeypatch.setattr(WorkerPool, "run_local", failing)

    async def _serve(dispatcher):
        first = (await dispatcher.process(reads[0]))[0]
        with pytest.raises(RuntimeError, match="run_local failed"):
            await dispatcher.process(reads[1])
        return [first, (await dispatcher.process(reads[2]))[0]]

    with PoolDispatcher(pipeline, workers=1) as dispatcher:
        assert asyncio.run(_serve(dispatcher)) == [expected[0], expected[2]]
        assert dispatcher.mode == "inline"


@settings(max_examples=10, deadline=None)
@given(batch_size=st.integers(min_value=1, max_value=7), workers=st.sampled_from([0, 1]))
def test_in_process_engine_emits_unit_by_unit(pipeline, dataset, batch_size, workers):
    """Without processes every planned unit reaches the sink on its own,
    before the next is planned, and the outcomes are ``process_read``'s."""
    reads = dataset.reads[:12]
    emitted: list[int] = []

    class ProbeSink(MemorySink):
        def emit(self, outcomes):
            emitted.append(len(outcomes))
            super().emit(outcomes)

    engine = DatasetEngine(pipeline, workers=workers, batch_size=batch_size, sink=ProbeSink())
    report = engine.run(reads)
    assert report.outcomes == [pipeline.process_read(read) for read in reads]
    assert emitted == [len(unit) for unit in plan_work(reads, batch_size)]
    stats = engine.last_stats
    assert (stats.mode, stats.transport) == ("serial", "none")
    assert stats.inflight_window == 0
    assert not [name for name in dir(stats) if re.search(r"prefetch|inflight_peak", name)]


def test_pool_without_processes_by_design(pipeline, dataset, recwarn):
    """``workers <= 1``: start publishes, forks and warns nothing, submit
    refuses, execute hands back an already-resolved future."""
    unit = WorkUnit(shard_id=5, start=0, reads=tuple(dataset.reads[:2]))
    with WorkerPool(pipeline, 1) as pool:
        assert not pool.alive and pool.index_publications == 0
        assert active_segments() == ()
        with pytest.raises(pool_module.BrokenProcessPool):
            pool.submit(unit)
        future = pool.execute(unit)
        assert future.done()
        result = future.result()
        assert pool.transport == "none"
    assert result.shard_id == 5 and not result.metrics
    assert list(result.outcomes) == pipeline.process_batch(list(unit.reads))
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


# --- structure ---------------------------------------------------------------

_DELETED_METHODS = {
    "_consume_units",
    "_run_serial_stream",
    "_serial_pipeline",
    "_run_pool_stream",
    "_submit_inline",
    "_process_local",
    "_degrade",
}


def _walk_with_owner(root: Path):
    """``(module path, enclosing function name, node)`` for every AST
    node under ``root`` (``"<module>"`` outside any function)."""

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = owner
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            yield inner, child
            yield from visit(child, inner)

    for path in sorted(root.rglob("*.py")):
        module = path.relative_to(root).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for owner, node in visit(tree, "<module>"):
            yield module, owner, node


def _mentions(nodes, pattern: re.Pattern) -> set[tuple[str, str]]:
    """``(module path, text)`` for every identifier, attribute, argument
    or string constant (docstrings included) that ``pattern`` matches."""
    return {
        (module, text)
        for module, _, node in nodes
        for text in (
            getattr(node, "id", None),
            getattr(node, "attr", None),
            getattr(node, "name", None),
            getattr(node, "arg", None),
            node.value if isinstance(node, ast.Constant) else None,
        )
        if isinstance(text, str) and pattern.search(text)
    }


def _called_name(node: ast.AST) -> str | None:
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def test_one_function_executes_a_unit():
    """No second execution path: one ``process_batch`` call that runs a
    work unit (``process_read`` is the unit of one), one module that
    rebinds a pipeline's index, toggles the tracer or gives up on a
    pool."""
    root = Path(repro.__file__).parent
    nodes = list(_walk_with_owner(root))

    batch_calls = [(m, o) for m, o, n in nodes if _called_name(n) == "process_batch"]
    assert batch_calls == [("core/pipeline.py", "process_read"), ("runtime/pool.py", "run_unit")]

    index_rebinds = {
        module
        for module, _, node in nodes
        if _called_name(node) == "replace"
        and any(keyword.arg == "index" for keyword in node.keywords)
    }
    assert index_rebinds == {"runtime/pool.py"}

    toggles = {
        module
        for module, _, node in nodes
        if _called_name(node) in ("enable_tracing", "disable_tracing")
        and not module.startswith("obs/")
    }
    assert toggles == {"runtime/pool.py"}

    catches = {
        (module, owner)
        for module, owner, node in nodes
        if isinstance(node, ast.ExceptHandler)
        and node.type is not None
        and "BrokenProcessPool" in ast.unparse(node.type)
        and module != "runtime/pool.py"
    }
    assert catches == {
        ("runtime/engine.py", "_collect_completed"),
        ("serving/dispatch.py", "process"),
    }

    defined = {
        (module, node.name)
        for module, _, node in nodes
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    assert not {name for _, name in defined} & _DELETED_METHODS
    assert ("core/pipeline.py", "_outcome") not in defined


def test_batch_parent_is_one_thread_and_outcomes_have_one_file_format():
    """No thread and no second outcome encoding can come back unnoticed:
    the runtime imports neither ``threading`` nor ``queue``, nothing
    under ``src/repro`` names the deleted stage or format, and
    ``RuntimeStats`` is exactly the fields a run can measure."""
    root = Path(repro.__file__).parent
    nodes = list(_walk_with_owner(root))

    thread_imports = {
        (module, name)
        for module, _, node in nodes
        if module.startswith("runtime/") and isinstance(node, (ast.Import, ast.ImportFrom))
        for name in [getattr(node, "module", None), *(alias.name for alias in node.names)]
        if name and name.split(".")[0] in ("threading", "queue")
    }
    assert thread_imports == set()

    gone = re.compile(r"(?i)prefetch|parquet|pyarrow")
    assert _mentions(nodes, gone) == set()

    assert [field.name for field in dataclasses.fields(RuntimeStats)] == [
        "mode", "workers", "batch_size", "n_shards", "n_reads", "elapsed_s",
        "transport", "inflight_window", "bytes_copied", "bytes_published",
    ]  # fmt: skip


def test_engine_plane_has_one_of_each():
    """A basecaller travels as itself, is named by a dict and decodes a
    chunk one way: nothing under ``src/repro`` names the ref, the
    registration record, the priming side channel or the DNN engine and
    its forward math or the event-space decode and its config fields,
    nothing scans installed distributions, the
    registry is functions over two dicts naming two engines,
    ``process_batch`` walks every stage of a unit -- SER, the QSR
    samples' decode and verdicts, the CMR merge sets' decode, seeding,
    chaining and verdicts, the remainders' decode, then each read's
    finish -- with exactly three calls of ``_decode``, the pipeline's
    one engine call site, and no per-read second scheduler
    (``_process_read``) exists, and the chunk grid is the engines'
    ``n_chunks`` over ``chunk_count`` -- no read type and no second
    decoder restate it."""
    root = Path(repro.__file__).parent
    nodes = list(_walk_with_owner(root))

    gone = re.compile(
        r"BasecallerRef|BackendRegistration|prime_chunk_batch|_primed_chunks|batched_basecall"
        r"|DNNChunkBasecaller|DNNBackendConfig|BonitoLikeModel|SignalSpaceBasecaller|ctc_"
        r"|GRULayer|BiGRU|Conv1d|LayerNorm|dnn-mvm|dnn_macs|basecall_signal_chunks"
        r"|basecall_events|event_features|event_emissions|event_stay_prob|VITERBI_DECODE_MODES"
        r"|EVENT_SEGMENTATION|decode_states|basecall_signal\b|_process_read"
    )
    assert _mentions(nodes, gone) == set()
    assert {field.name for field in dataclasses.fields(ViterbiBackendConfig)} == {
        "pore_k", "pore_seed", "decoder", "signal", "quality_noise",
    }  # fmt: skip
    n_chunks_defined = {
        module
        for module, _, node in nodes
        if isinstance(node, ast.FunctionDef) and node.name == "n_chunks"
    }
    assert n_chunks_defined == {
        "basecalling/engines.py", "basecalling/surrogate.py", "core/backends.py",
    }  # fmt: skip
    assert not (root / "basecalling" / "dnn").exists()
    assert basecaller_names() == ("surrogate", "viterbi")

    metadata_imports = {
        module
        for module, _, node in nodes
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and re.search(r"importlib(\.| import )metadata", ast.unparse(node))
    }
    assert metadata_imports == set()

    assert not [
        node.name
        for module, _, node in nodes
        if module == "core/registry.py" and isinstance(node, ast.ClassDef)
    ]

    batch_body_calls = [
        ast.unparse(node.func)
        for module, owner, node in nodes
        if (module, owner) == ("core/pipeline.py", "process_batch")
        and isinstance(node, ast.Call)
        and ast.unparse(node.func).startswith("self.")
    ]
    assert batch_body_calls == [
        "self.accepts_signal_reads", "self.basecaller.n_chunks", "self.signal_rejection_enabled",
        "self.ser_policy.decide", "self._qsr.sample_indices", "self._decode", "self._qsr.decide",
        "self._cmr.merged_chunk_indices", "self._decode", "self._cmr.decide", "self._decode",
    ]  # fmt: skip
    assert batch_body_calls.count("self._decode") == 3
    engine_calls = [
        (module, owner)
        for module, owner, node in nodes
        if _called_name(node) in ("basecall_many", "basecall_chunks", "basecall_chunk")
        and module.startswith("core/")
    ]
    assert engine_calls == [("core/pipeline.py", "_decode")]


def test_mapping_plane_says_each_rule_once():
    """Each rule of the seeding-to-chaining hand-off has one home. Only
    the chain stage orients anchors: no seeding function takes a read
    length or a k-mer size, and ``seed.c``'s ``seed_anchors`` takes no
    flip. Only the index names k: ``ChainingConfig`` has no field for
    it. Only the mapper knows the seeding overlap: nothing under
    ``core/`` reads an index's config or counts seeded bases. The chain
    stage's fallback keeps no gathered-rows cache, and the engine no
    source-kind check."""
    root = Path(repro.__file__).parent
    nodes = list(_walk_with_owner(root))

    gone = re.compile(r"_seed_run|\bseeded_bases\b|_with_kmer_size|_gathered_cache|read_kind")
    assert _mentions(nodes, gone) == set()
    seeding_arguments = {
        (module, owner, node.arg)
        for module, owner, node in nodes
        if module in ("mapping/seeding.py", "kernels/seed.py")
        and isinstance(node, ast.arg)
        and node.arg in ("read_length", "kmer_size", "flip")
    }
    assert seeding_arguments == set()
    source = (root / "kernels" / "seed.c").read_text(encoding="utf-8")
    signature = source[source.index("int64_t seed_anchors(") :]
    signature = signature[: signature.index(")")]
    assert "flip" not in signature and "read_length" not in signature
    assert signature.count(",") + 1 == len(native.KERNELS["seed"][1]["seed_anchors"][0]) == 13
    assert "kmer_size" not in {field.name for field in dataclasses.fields(ChainingConfig)}
    index_config_reads = [
        (module, owner)
        for module, owner, node in nodes
        if module.startswith("core/")
        and isinstance(node, ast.Attribute)
        and node.attr == "config"
        and ast.unparse(node.value).endswith("index")
    ]
    assert index_config_reads == []


def test_signal_plane_says_each_thing_once():
    """Raw current is read one way and screened one way: nothing under
    ``src/repro`` names the prefilter layer under SER, the signal-provider
    chain, carried normalisation, container calibration or the signal
    read's own chunk grid, and the Viterbi engine is built from its
    config alone. (``signal_filter`` stays legal: the perf model's
    breakdown key for the SER screen is spelled that way.)"""
    root = Path(repro.__file__).parent
    nodes = list(_walk_with_owner(root))

    gone = re.compile(
        r"SignalPrefilter|PrefilterDecision|subsequence_dtw|SignalProvider"
        r"|normalize_carried|_normalized_cache|SignalCalibration|ContainerStats"
        r"|IDENTITY_CALIBRATION|container_calibration|calibrate_to_pore_model|pore_model_stats"
        r"|chunk_samples|classify_signal|classify_prefix"
    )
    assert _mentions(nodes, gone) == set()
    assert not (root / "nanopore" / "signal_filter.py").exists()
    assert not (root / "signal" / "calibration.py").exists()

    (engine_class,) = [
        node
        for module, _, node in nodes
        if module == "basecalling/engines.py"
        and isinstance(node, ast.ClassDef)
        and node.name == "ViterbiChunkBasecaller"
    ]
    (engine_init,) = [
        node
        for node in engine_class.body
        if isinstance(node, ast.FunctionDef) and node.name == "__init__"
    ]
    arguments = engine_init.args
    assert [a.arg for a in (*arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs)] == [
        "self",
        "config",
    ]
    assert arguments.vararg is None and arguments.kwarg is None

    signal_read_methods = {
        node.name
        for module, _, node in nodes
        if module == "nanopore/signal_read.py" and isinstance(node, ast.FunctionDef)
    }
    assert signal_read_methods.isdisjoint({"chunk_bounds", "n_chunks", "normalized"})


def test_run_plane_says_each_thing_once():
    """A run is described once: the pipeline is its own record and is
    what travels, a stream is cut into units one way, and the entry
    points nobody called stay gone. The runtime and serving layers
    never re-list what a pipeline is made of."""
    root = Path(repro.__file__).parent
    nodes = list(_walk_with_owner(root))

    gone = re.compile(
        r"PipelineSpec|from_pipeline|length-aware|adaptive_batching|BATCHING_MODES|GENPIP_WORKERS"
    )
    assert _mentions(nodes, gone) == set()
    assert not (root / "runtime" / "spec.py").exists()

    progress_parameters = {
        (module, owner)
        for module, owner, node in nodes
        if isinstance(node, ast.arg) and node.arg == "progress"
    }
    assert progress_parameters == set()

    relisted = re.compile(r"\b(qsr_policy|cmr_policy|mapper_config)\b")
    planes = [item for item in nodes if item[0].startswith(("runtime/", "serving/"))]
    assert _mentions(planes, relisted) == set()

    (iter_work_def,) = [
        node
        for module, _, node in nodes
        if module == "runtime/sharding.py"
        and isinstance(node, ast.FunctionDef)
        and node.name == "iter_work"
    ]
    arguments = iter_work_def.args
    assert [a.arg for a in (*arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs)] == [
        "reads",
        "batch_size",
    ]
    assert arguments.vararg is None and arguments.kwarg is None

