"""Tests for the signal-native dataflow: raw current from container to mapper.

Covers the :class:`~repro.nanopore.signal_read.SignalRead` contract
(the engine's chunk grid and per-chunk views over it, container
round-trips), the engine's one signal reader
(synthesis-vs-carried byte-identity for the signal-space backend),
the signal-source x sink x transport runtime grid against the serial
in-memory baseline, shared-memory publication of signal payloads and
of the minimizer index (with leak probes), the in-flight window
:class:`~repro.runtime.engine.RuntimeStats` reports for a pooled phase,
and the ``--source signals`` CLI path.
"""

from __future__ import annotations

import dataclasses
import glob
import os
import pickle

import numpy as np
import pytest

from repro.basecalling import (
    SurrogateBasecaller,
    ViterbiBackendConfig,
    ViterbiChunkBasecaller,
    chunk_bounds,
    chunk_span,
)
from repro.core import GenPIPConfig, GenPIPPipeline
from repro.mapping.index import MinimizerIndex
from repro.nanopore import SignalRead
from repro.nanopore.datasets import ECOLI_LIKE, generate_dataset, small_profile
from repro.nanopore.signal_store import (
    iter_signals,
    quantisation_step,
    write_signals,
)
from repro.runtime import (
    DatasetEngine,
    JSONLSink,
    SignalStoreSource,
    WorkUnit,
    active_segments,
    attach_index,
    publish_index,
    release_all,
    replay_report,
)
from repro.runtime.cli import main as cli_main
from repro.runtime.transport import (
    SignalHandle,
    attach_unit,
    publish_unit,
    release_unit,
)

FAST_VITERBI = ViterbiBackendConfig(pore_k=3)


def _no_leaked_segments() -> bool:
    if active_segments():
        return False
    if os.path.isdir("/dev/shm"):
        return not glob.glob("/dev/shm/genpip-*")
    return True


@pytest.fixture(scope="module")
def tiny_dataset():
    return generate_dataset(
        small_profile(ECOLI_LIKE, max_read_length=1_200), scale=0.0001, seed=21
    )


@pytest.fixture(scope="module")
def tiny_index(tiny_dataset):
    return MinimizerIndex.build(tiny_dataset.reference)


@pytest.fixture(scope="module")
def viterbi_backend():
    return ViterbiChunkBasecaller(FAST_VITERBI)


@pytest.fixture(scope="module")
def viterbi_system(tiny_index, viterbi_backend):
    return GenPIPPipeline(
        tiny_index, GenPIPConfig(), basecaller=viterbi_backend, align=False
    )


@pytest.fixture(scope="module")
def short_reads(tiny_dataset):
    """The shortest reads keep real signal-space decoding fast."""
    return sorted(tiny_dataset.reads, key=len)[:8]


@pytest.fixture(scope="module")
def signal_store_path(short_reads, viterbi_backend, tmp_path_factory):
    path = tmp_path_factory.mktemp("signals") / "signals.rsig"
    write_signals(path, viterbi_backend.signal_records(short_reads))
    return path


@pytest.fixture(scope="module")
def serial_signal_report(viterbi_system, signal_store_path):
    """The canonical serial signal-native run every combination must match."""
    engine = DatasetEngine(viterbi_system, workers=1, batch_size=2)
    return engine.run(SignalStoreSource(signal_store_path))


class TestSignalReadContract:
    def test_grid_and_views(self, viterbi_backend, short_reads):
        """The engine cuts a signal read on the shared grid: its chunks'
        sample views tile the signal, and are views, not copies."""
        signal = viterbi_backend.synthesize_signal(short_reads[0])
        read = SignalRead(read_id="s0", signal=signal)
        assert len(read) == signal.n_bases
        n_chunks = viterbi_backend.n_chunks(read, 300)
        assert n_chunks == len(chunk_bounds(len(read), 300))
        views = [
            viterbi_backend.read_signal(read).clamped_slice(*chunk_span(len(read), 300, i))
            for i in range(n_chunks)
        ]
        np.testing.assert_array_equal(np.concatenate(views), signal.samples)
        assert views[0].base is not None

    def test_chunk_index_bounds(self, viterbi_backend, short_reads):
        read = SignalRead(
            read_id="s0", signal=viterbi_backend.synthesize_signal(short_reads[0])
        )
        with pytest.raises(ValueError, match="out of range"):
            viterbi_backend.basecall_chunk(read, viterbi_backend.n_chunks(read, 300), 300)

    def test_declared_bases_extends_grid(self, viterbi_backend, short_reads):
        base_read = short_reads[0]
        signal = viterbi_backend.synthesize_signal(base_read)
        read = SignalRead(
            read_id="s0", signal=signal, declared_bases=len(base_read)
        )
        assert len(read) == len(base_read) > signal.n_bases
        # The trailing declared-but-unmodelled bases decode from a
        # clamped slice, never an error.
        last = viterbi_backend.n_chunks(read, 300) - 1
        assert viterbi_backend.basecall_chunk(read, last, 300).n_true_bases > 0
        with pytest.raises(ValueError, match="declared_bases"):
            SignalRead(read_id="bad", signal=signal, declared_bases=signal.n_bases - 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_are_refused(self, viterbi_backend, short_reads, bad):
        """Ten bad samples early in a chunk used to decode silently --
        NaN-quality bases, and an all-NaN chunk gave ``AAAAA`` at Q15 and
        a MAPPED read; the signal itself now refuses them."""
        signal = viterbi_backend.synthesize_signal(short_reads[0])
        samples = signal.samples.copy()
        samples[40:50] = bad
        with pytest.raises(ValueError, match="10 non-finite sample.*index 40"):
            SignalRead(read_id="s0", signal=dataclasses.replace(signal, samples=samples))
        with pytest.raises(ValueError, match="non-finite"):
            SignalRead(
                read_id="s0",
                signal=dataclasses.replace(signal, samples=np.full(samples.size, bad)),
            )

    def test_container_round_trip_within_quantisation(
        self, viterbi_backend, short_reads, tmp_path
    ):
        read = SignalRead(
            read_id="s0", signal=viterbi_backend.synthesize_signal(short_reads[0])
        )
        path = tmp_path / "one.rsig"
        write_signals(path, [read.to_record()])
        back = SignalRead.from_record(next(iter_signals(path)))
        assert back.read_id == read.read_id
        assert len(back) == len(read)
        np.testing.assert_array_equal(back.signal.base_starts, read.signal.base_starts)
        step = quantisation_step(read.signal.samples)
        assert np.max(np.abs(back.signal.samples - read.signal.samples)) <= step


class TestProviders:
    def test_provider_chain_order(self, viterbi_backend, short_reads):
        """Carried samples for a signal read, synthesis for a simulated one."""
        simulated = short_reads[0]
        carried = SignalRead(read_id="s0", signal=viterbi_backend.synthesize_signal(simulated))
        assert viterbi_backend.read_signal(carried) is carried.signal
        synthesized = viterbi_backend.read_signal(simulated)
        np.testing.assert_array_equal(synthesized.samples, carried.signal.samples)
        np.testing.assert_array_equal(synthesized.base_starts, carried.signal.base_starts)

    def test_unsupported_read_kind_rejected(self, viterbi_backend):
        with pytest.raises(TypeError, match="object carries no signal"):
            viterbi_backend.read_signal(object())

    @pytest.mark.parametrize("noise", [np.nan, np.inf])
    def test_non_finite_quality_noise_refused(self, noise):
        """Used to be accepted and fail at the first synthesized chunk,
        inside a worker, as a non-finite sample."""
        with pytest.raises(ValueError, match="quality_noise must be a finite number"):
            ViterbiBackendConfig(pore_k=3, quality_noise=noise)

    @pytest.mark.parametrize(
        "field, value",
        [("pore_k", 9), ("pore_k", 2.5), ("pore_seed", -1), ("pore_seed", 2.5),
         ("quality_noise", True)],
    )
    def test_engine_recipe_refused_at_construction(self, field, value):
        """A pore shape the synthetic model cannot build failed only when
        the engine was built from the recipe; ``True`` ran as 1 pA."""
        with pytest.raises(ValueError, match=field):
            ViterbiBackendConfig(**{field: value})

    @pytest.mark.parametrize("backend_cls,config", [
        (ViterbiChunkBasecaller, FAST_VITERBI),
    ])
    def test_synthesis_vs_carried_byte_identity(self, short_reads, backend_cls, config):
        """Decoding a read's synthesized signal as a *carried* SignalRead
        (declared at the true base count, so the chunk grids coincide)
        is byte-identical to the synthesis path."""
        backend = backend_cls(config)
        read = short_reads[0]
        signal_read = SignalRead(
            read_id=read.read_id,
            signal=backend.synthesize_signal(read),
            declared_bases=len(read),
        )
        assert backend.n_chunks(signal_read, 300) == backend.n_chunks(read, 300)
        via_synthesis = backend.basecall_read(read, 300)
        via_carried = backend.basecall_read(signal_read, 300)
        assert via_carried.bases == via_synthesis.bases
        np.testing.assert_array_equal(via_carried.qualities, via_synthesis.qualities)

    @pytest.mark.parametrize(
        "field, value",
        [("pore_k", 9), ("pore_k", 2.5), ("pore_seed", -1), ("pore_seed", 2.5),
         ("quality_noise", True)],
    )
    def test_engine_recipe_refused_at_construction(self, field, value):
        """A pore shape the synthetic model cannot build failed only when
        the engine was built from the recipe; ``True`` ran as 1 pA."""
        with pytest.raises(ValueError, match=field):
            ViterbiBackendConfig(**{field: value})

    @pytest.mark.parametrize("backend_cls,config", [
        (ViterbiChunkBasecaller, FAST_VITERBI),
    ])
    def test_stored_signal_decodes_deterministically(
        self, short_reads, tmp_path, backend_cls, config
    ):
        """A stored signal decodes identically on every pass and stays
        within the container's quantisation error of the synthesis."""
        backend = backend_cls(config)
        read = short_reads[0]
        synthesized = backend.synthesize_signal(read)
        path = tmp_path / "stored.rsig"
        write_signals(path, backend.signal_records([read]))
        stored = SignalRead.from_record(next(iter_signals(path)))
        step = quantisation_step(synthesized.samples)
        assert np.max(np.abs(stored.signal.samples - synthesized.samples)) <= step
        first = backend.basecall_read(stored, 300)
        second = backend.basecall_read(stored, 300)
        assert first.bases == second.bases
        np.testing.assert_array_equal(first.qualities, second.qualities)

    def test_surrogate_rejects_signal_reads(self, tiny_index, viterbi_backend, short_reads):
        system = GenPIPPipeline(tiny_index, GenPIPConfig(), basecaller=SurrogateBasecaller())
        signal_read = SignalRead(
            read_id="s0", signal=viterbi_backend.synthesize_signal(short_reads[0])
        )
        with pytest.raises(TypeError, match="signal-native"):
            system.process_read(signal_read)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_engine_rejects_signal_source_for_surrogate(
        self, tiny_index, signal_store_path, workers
    ):
        """The pipeline's per-read check is the one check: it reaches
        the caller from a worker as from the serial path."""
        system = GenPIPPipeline(tiny_index, GenPIPConfig(), basecaller=SurrogateBasecaller())
        engine = DatasetEngine(system, workers=workers, batch_size=2)
        with pytest.raises(TypeError, match="signal-space"):
            engine.run(SignalStoreSource(signal_store_path))


class TestSignalMatrix:
    def test_source_contract(self, signal_store_path, short_reads):
        source = SignalStoreSource(signal_store_path)
        assert source.size_hint() == len(short_reads)
        first = list(source)
        second = list(source)  # re-iterable
        assert [r.read_id for r in first] == [r.read_id for r in short_reads]
        for a, b in zip(first, second, strict=True):
            np.testing.assert_array_equal(a.signal.samples, b.signal.samples)

    @pytest.mark.filterwarnings("ignore:shared memory unavailable:RuntimeWarning")
    @pytest.mark.parametrize("transport", ["shm", "pickle"])
    @pytest.mark.parametrize("sink_kind", ["memory", "jsonl"])
    def test_parallel_equals_serial(
        self,
        viterbi_system,
        signal_store_path,
        serial_signal_report,
        tmp_path,
        request,
        transport,
        sink_kind,
    ):
        """Default path ("shm") and the fault-injected fallback ("pickle")."""
        if transport == "pickle":
            request.getfixturevalue("pickle_fallback")
        jsonl_path = tmp_path / "outcomes.jsonl"
        sink = JSONLSink(jsonl_path) if sink_kind == "jsonl" else None
        engine = DatasetEngine(
            viterbi_system, workers=2, batch_size=2, sink=sink
        )
        report = engine.run(SignalStoreSource(signal_store_path))
        if engine.last_stats.mode == "process-pool":
            assert engine.last_stats.transport == transport
        assert report.counters == serial_signal_report.counters
        if sink_kind == "jsonl":
            replayed = replay_report(jsonl_path, serial_signal_report.config)
            assert replayed.outcomes == serial_signal_report.outcomes
        else:
            assert report.outcomes == serial_signal_report.outcomes
        assert _no_leaked_segments()

    def test_signal_outcomes_use_modelled_grid(self, serial_signal_report, short_reads):
        """Signal-native read lengths are the modelled position counts
        (true bases - k + 1): the container stores no ground truth."""
        by_id = {o.read_id: o for o in serial_signal_report.outcomes}
        k = FAST_VITERBI.pore_k
        for read in short_reads:
            assert by_id[read.read_id].read_length == len(read) - k + 1


class TestSignalTransport:
    def test_publish_attach_round_trip(self, viterbi_backend, short_reads):
        reads = [
            SignalRead(
                read_id=read.read_id, signal=viterbi_backend.synthesize_signal(read)
            )
            for read in short_reads[:3]
        ]
        unit = WorkUnit(shard_id=4, start=0, reads=tuple(reads))
        shared = publish_unit(unit)
        try:
            assert shared.shard_id == 4
            assert all(isinstance(handle, SignalHandle) for handle in shared.handles)
            back = attach_unit(shared)
        finally:
            release_unit(shared.segment)
        assert len(back) == len(reads)
        for original, rebuilt in zip(reads, back, strict=True):
            assert isinstance(rebuilt, SignalRead)
            assert rebuilt.read_id == original.read_id
            assert len(rebuilt) == len(original)
            np.testing.assert_array_equal(
                rebuilt.signal.samples, original.signal.samples
            )
            np.testing.assert_array_equal(
                rebuilt.signal.base_starts, original.signal.base_starts
            )
        assert _no_leaked_segments()

    def test_mixed_unit_round_trip(self, viterbi_backend, short_reads):
        """Base-space and signal-native reads can share one unit."""
        signal_read = SignalRead(
            read_id="sig", signal=viterbi_backend.synthesize_signal(short_reads[0])
        )
        unit = WorkUnit(
            shard_id=0, start=0, reads=(short_reads[0], signal_read, short_reads[1])
        )
        shared = publish_unit(unit)
        try:
            back = attach_unit(shared)
        finally:
            release_unit(shared.segment)
        assert [type(read).__name__ for read in back] == [
            "SimulatedRead",
            "SignalRead",
            "SimulatedRead",
        ]
        np.testing.assert_array_equal(back[0].qualities, short_reads[0].qualities)
        np.testing.assert_array_equal(
            back[1].signal.samples, signal_read.signal.samples
        )
        np.testing.assert_array_equal(back[2].true_codes, short_reads[1].true_codes)

    def test_release_all_clears_signal_segments(self, viterbi_backend, short_reads):
        signal_read = SignalRead(
            read_id="sig", signal=viterbi_backend.synthesize_signal(short_reads[0])
        )
        publish_unit(WorkUnit(shard_id=0, start=0, reads=(signal_read,)))
        assert active_segments()
        release_all()
        assert _no_leaked_segments()


class TestSharedIndex:
    def test_publish_attach_round_trip(self, tiny_index):
        handle = publish_index(tiny_index)
        try:
            rebuilt = attach_index(handle)
        finally:
            release_unit(handle.segment)
        assert len(rebuilt) == len(tiny_index)
        assert rebuilt.n_locations() == tiny_index.n_locations()
        assert rebuilt.config == tiny_index.config
        np.testing.assert_array_equal(
            rebuilt.reference.codes, tiny_index.reference.codes
        )
        assert rebuilt.reference.name == tiny_index.reference.name
        for key in list(tiny_index.keys())[:25]:
            original = tiny_index.lookup(key)
            restored = rebuilt.lookup(key)
            np.testing.assert_array_equal(restored.positions, original.positions)
            np.testing.assert_array_equal(restored.strands, original.strands)
        assert _no_leaked_segments()

    def test_spec_with_shared_index_builds_identical_pipeline(
        self, tiny_dataset, tiny_index
    ):
        """What a worker does: the pipeline arrives (here: pickled, as
        under ``spawn``) holding the handle, and ``replace`` rebinds it
        to the attached index."""
        pipeline = GenPIPPipeline(tiny_index, GenPIPConfig(), align=False)
        handle = publish_index(tiny_index)
        try:
            travelling = dataclasses.replace(pipeline, index=handle)
            assert len(pickle.dumps(travelling)) < len(pickle.dumps(pipeline)) // 10
            arrived = pickle.loads(pickle.dumps(travelling))
            shared = dataclasses.replace(arrived, index=attach_index(arrived.index))
            reads = tiny_dataset.reads[:4]
            direct = pipeline.process_batch(list(reads))
            via_shared = shared.process_batch(list(reads))
            del shared
        finally:
            release_unit(handle.segment)
        assert via_shared == direct
        assert _no_leaked_segments()

    def test_pooled_run_uses_shared_index_and_matches_serial(
        self, tiny_dataset, tiny_index
    ):
        system = GenPIPPipeline(tiny_index, GenPIPConfig(), align=False)
        serial = system.run(tiny_dataset)
        engine = DatasetEngine(system, workers=2, batch_size=4)
        report = engine.run(tiny_dataset)
        assert report.outcomes == serial.outcomes
        assert report.counters == serial.counters
        assert _no_leaked_segments()


#: The window is what is left of the backpressure stats: the other three
#: described a producer thread that is gone, or restated the window.
_GONE_STATS_FIELDS = {"prefetch_capacity", "prefetch_peak", "inflight_peak"}


class TestBackpressureStats:
    def test_pooled_stats_expose_backpressure(self, tiny_dataset, tiny_index):
        system = GenPIPPipeline(tiny_index, GenPIPConfig(), align=False)
        engine = DatasetEngine(system, workers=2, batch_size=2)
        engine.run(tiny_dataset)
        stats = engine.last_stats
        if stats.mode != "process-pool":  # pragma: no cover - sandboxed fallback
            pytest.skip("process pool unavailable in this environment")
        assert stats.inflight_window >= 2
        assert _GONE_STATS_FIELDS.isdisjoint(dir(stats))

    def test_serial_stats_report_zero_backpressure(self, tiny_dataset, tiny_index):
        system = GenPIPPipeline(tiny_index, GenPIPConfig(), align=False)
        engine = DatasetEngine(system, workers=1)
        engine.run(tiny_dataset)
        stats = engine.last_stats
        assert stats.mode == "serial"
        assert stats.inflight_window == 0
        assert _GONE_STATS_FIELDS.isdisjoint(dir(stats))


class TestSignalCLI:
    CLI_ARGS = [
        "--profile", "ecoli-like",
        "--scale", "0.0001",
        "--seed", "7",
        "--max-read-length", "900",
        "--basecaller", "viterbi",
        "--source", "signals",
        "--quiet",
    ]

    def test_serial_equals_parallel_byte_for_byte(self, tmp_path):
        store = tmp_path / "signals.rsig"
        serial_json = tmp_path / "serial.json"
        parallel_json = tmp_path / "parallel.json"
        base = self.CLI_ARGS + ["--store", str(store)]
        assert cli_main(base + ["--workers", "1", "--json", str(serial_json)]) == 0
        assert store.exists()
        assert (
            cli_main(
                base
                + ["--workers", "2", "--batch-size", "2", "--json", str(parallel_json)]
            )
            == 0
        )
        assert serial_json.read_bytes() == parallel_json.read_bytes()
        assert b'"signal_native": true' in serial_json.read_bytes()
        assert _no_leaked_segments()

    def test_signal_source_requires_signal_backend(self, tmp_path):
        store = tmp_path / "signals.rsig"
        with pytest.raises(SystemExit):
            cli_main(
                [
                    "--source", "signals",
                    "--store", str(store),
                    "--basecaller", "surrogate",
                    "--quiet",
                ]
            )

    def test_signal_store_requires_path(self):
        with pytest.raises(SystemExit):
            cli_main(["--source", "signals", "--basecaller", "viterbi"])

    def test_provenance_mismatch_refused(self, tmp_path):
        store = tmp_path / "signals.rsig"
        base = self.CLI_ARGS + ["--store", str(store), "--workers", "1"]
        assert cli_main(base) == 0
        with pytest.raises(SystemExit):
            cli_main(
                [
                    arg if arg != "0.0001" else "0.0002"
                    for arg in base
                ]
            )
