"""Tests for the pluggable engine API.

Covers the structural basecaller protocol (:mod:`repro.core.backends`),
the signal-space backend adapters (:mod:`repro.basecalling.engines`),
the backend/preset registry (:mod:`repro.core.registry`), how the one
system object, :class:`~repro.core.pipeline.GenPIPPipeline`, is
constructed from them, and how it travels to a worker (as itself,
pickled):

* the ``GenPIP.build()`` chain the perf benchmark calls builds a
  pipeline whose reports are *byte-identical* to the directly
  constructed ``GenPIPPipeline(...)``'s;
* a pipeline with a non-default backend yields the same report from
  ``run(workers=2)`` as from the serial run, and round-trips through
  pickle into a fresh interpreter (``spawn`` semantics) with identical
  outcomes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import fallback, require_native
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.basecalling.engines as engines_module
from repro.basecalling import (
    SurrogateBasecaller,
    SurrogateConfig,
    ViterbiBackendConfig,
    ViterbiChunkBasecaller,
    chunk_bounds,
)
from repro.core import (
    ECOLI_PARAMS,
    GenPIP,
    GenPIPConfig,
    GenPIPPipeline,
    ReadStatus,
    variant_config,
)
from repro.core.backends import Basecaller
from repro.core.registry import (
    basecaller_names,
    create_basecaller,
    preset_config,
    preset_names,
)
from repro.mapping.index import MinimizerIndex
from repro.nanopore.datasets import ECOLI_LIKE, generate_dataset, small_profile
from repro.nanopore.signal_read import SignalRead
from repro.runtime.cli import report_to_json
from repro.runtime.sink import outcome_to_record
from repro.signal import SignalRejectionPolicy

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Small pore (64 Viterbi states) keeps signal-space decoding fast.
FAST_VITERBI = ViterbiBackendConfig(pore_k=3)


@pytest.fixture(scope="module")
def micro_dataset():
    """A handful of short reads for signal-space backends."""
    return generate_dataset(
        small_profile(ECOLI_LIKE, max_read_length=1_200), scale=0.0001, seed=21
    )


@pytest.fixture(scope="module")
def micro_index(micro_dataset):
    return MinimizerIndex.build(micro_dataset.reference)


@pytest.fixture(scope="module")
def micro_read(micro_dataset):
    return min(micro_dataset.reads, key=len)


class TestProtocols:
    @pytest.mark.parametrize(
        "engine",
        [
            SurrogateBasecaller(),
            ViterbiChunkBasecaller(FAST_VITERBI),
        ],
        ids=["surrogate", "viterbi"],
    )
    def test_backends_satisfy_basecaller_protocol(self, engine):
        assert isinstance(engine, Basecaller)

    @pytest.mark.parametrize(
        "engine",
        [
            SurrogateBasecaller(),
            ViterbiChunkBasecaller(FAST_VITERBI),
        ],
        ids=["surrogate", "viterbi"],
    )
    def test_batch_decode_is_each_chunk_alone(self, engine, micro_read):
        """A chunk's bytes depend on (read, index, chunk_size) only: not
        on its batch mates, nor on their order or repeats, nor on the
        other requests of a ``basecall_many`` call."""
        last = engine.n_chunks(micro_read, 300) - 1
        indices = [last, 0, 1, 0]
        for index, chunk in zip(indices, engine.basecall_chunks(micro_read, indices, 300), strict=True):
            alone = engine.basecall_chunk(micro_read, index, 300)
            assert chunk.chunk_index == index
            assert chunk.codes.tobytes() == alone.codes.tobytes()
            assert chunk.qualities.tobytes() == alone.qualities.tobytes()
        assert engine.basecall_chunks(micro_read, [], 300) == []
        many = engine.basecall_many([(micro_read, indices), (micro_read, []), (micro_read, [1])], 300)
        assert [[c.chunk_index for c in chunks] for chunks in many] == [indices, [], [1]]
        alone = engine.basecall_chunks(micro_read, [*indices, 1], 300)
        for chunk, single in zip(many[0] + many[2], alone, strict=True):
            assert chunk.codes.tobytes() == single.codes.tobytes()
            assert chunk.qualities.tobytes() == single.qualities.tobytes()

    def test_engine_without_batch_decode_fails_protocol(self):
        """The pipeline decodes only through ``basecall_many``: an engine
        that decodes one read at a time does not conform."""

        class PerChunkOnly:
            def n_chunks(self, read, chunk_size): ...
            def basecall_chunk(self, read, index, chunk_size): ...
            def basecall_read(self, read, chunk_size): ...

        class PerReadOnly(PerChunkOnly):
            def basecall_chunks(self, read, indices, chunk_size): ...

        assert not isinstance(PerChunkOnly(), Basecaller)
        assert not isinstance(PerReadOnly(), Basecaller)

    def test_non_conforming_object_fails(self):
        assert not isinstance(object(), Basecaller)


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert basecaller_names() == ("surrogate", "viterbi")

    def test_create_defaults(self):
        assert isinstance(create_basecaller("surrogate"), SurrogateBasecaller)
        assert isinstance(create_basecaller("viterbi"), ViterbiChunkBasecaller)

    def test_unknown_backend_error_lists_available(self):
        with pytest.raises(ValueError) as excinfo:
            create_basecaller("bonito")
        message = str(excinfo.value)
        assert "bonito" in message
        for name in basecaller_names():
            assert name in message

    def test_wrong_config_type_rejected(self):
        """Through either door -- by name or by constructor -- and before
        the engine touches a field the wrong config does not have."""
        with pytest.raises(TypeError, match="ViterbiBackendConfig.*SurrogateConfig"):
            create_basecaller("viterbi", SurrogateConfig())
        with pytest.raises(TypeError, match="ViterbiBackendConfig.*SurrogateConfig"):
            ViterbiChunkBasecaller(SurrogateConfig())
        with pytest.raises(TypeError, match="SurrogateConfig.*ViterbiBackendConfig"):
            create_basecaller("surrogate", ViterbiBackendConfig())
        with pytest.raises(TypeError, match="SurrogateConfig.*ViterbiBackendConfig"):
            SurrogateBasecaller(ViterbiBackendConfig())

    def test_presets(self):
        assert preset_config("ecoli") == ECOLI_PARAMS
        assert preset_config("ecoli-like") == ECOLI_PARAMS
        assert preset_config("default") == GenPIPConfig()
        with pytest.raises(ValueError) as excinfo:
            preset_config("zebrafish")
        message = str(excinfo.value)
        assert "zebrafish" in message
        for name in preset_names():
            assert name in message


class TestSignalSpaceBackends:
    def test_viterbi_chunk_grid_matches_shared_bounds(self, micro_read):
        engine = ViterbiChunkBasecaller(FAST_VITERBI)
        for chunk_size in (200, 300, 500):
            assert engine.n_chunks(micro_read, chunk_size) == len(
                chunk_bounds(len(micro_read), chunk_size)
            )

    def test_viterbi_chunk_decode_is_order_independent(self, micro_read):
        first = ViterbiChunkBasecaller(FAST_VITERBI)
        second = ViterbiChunkBasecaller(FAST_VITERBI)
        # Ask the two instances for the same chunk after different
        # access histories; results must match exactly.
        first.basecall_chunk(micro_read, 0, 300)
        a = first.basecall_chunk(micro_read, 1, 300)
        b = second.basecall_chunk(micro_read, 1, 300)
        assert a.bases == b.bases
        assert np.array_equal(a.qualities, b.qualities)

    def test_viterbi_recovers_sequence(self, micro_read):
        engine = ViterbiChunkBasecaller(FAST_VITERBI)
        called = engine.basecall_read(micro_read, 300)
        import difflib

        identity = difflib.SequenceMatcher(
            None, micro_read.true_bases, called.bases, autojunk=False
        ).ratio()
        assert identity > 0.7
        assert called.n_chunks == engine.n_chunks(micro_read, 300)

    def test_chunk_accounting_covers_whole_read(self, micro_read):
        engine = ViterbiChunkBasecaller(FAST_VITERBI)
        chunks = [
            engine.basecall_chunk(micro_read, i, 300)
            for i in range(engine.n_chunks(micro_read, 300))
        ]
        assert sum(c.n_true_bases for c in chunks) == len(micro_read)

    def test_final_chunk_past_modelled_range(self, micro_index):
        """A read whose final chunk covers only the last k-1 true bases
        has no dedicated signal samples for it; the decode must yield an
        empty chunk, not crash (regression: IndexError in slice_bases)."""
        from repro.nanopore.read_simulator import ReadClass, SimulatedRead

        rng = np.random.default_rng(5)
        length = 302  # chunk_size 300, pore_k 3 -> final chunk is bases (300, 302), n_bases 300
        read = SimulatedRead(
            read_id="edge-read",
            read_class=ReadClass.JUNK,
            strand=1,
            ref_start=None,
            ref_end=None,
            true_codes=rng.integers(0, 4, size=length).astype(np.uint8),
            qualities=np.full(length, 12.0),
            seed=99,
        )
        engine = ViterbiChunkBasecaller(FAST_VITERBI)
        last = engine.n_chunks(read, 300) - 1
        chunk = engine.basecall_chunk(read, last, 300)
        assert len(chunk) == 0
        assert chunk.n_true_bases == 2
        called = engine.basecall_read(read, 300)
        assert called.n_chunks == last + 1
        # And through the whole pipeline.
        system = GenPIPPipeline(micro_index, basecaller=engine, align=False)
        outcome = system.process_read(read)
        assert outcome.n_chunks_total == 2

    def test_out_of_range_chunk_rejected(self, micro_read):
        engine = ViterbiChunkBasecaller(FAST_VITERBI)
        with pytest.raises(ValueError):
            engine.basecall_chunk(micro_read, 999, 300)

    @pytest.mark.parametrize(
        "max_read_length, scale, preset, n_reads",
        [(1_500, 0.0002, None, 12), (2_400, 0.0003, "ecoli", 17), (2_400, 0.0003, "human", 17)],
    )
    def test_unit_synthesizes_each_read_once(
        self, monkeypatch, max_read_length, scale, preset, n_reads
    ):
        """A unit's up to three engine calls (QSR samples, CMR merge
        sets, remainders) synthesize a base-space read's signal once,
        whatever the unit's size: the engine holds its last two calls'
        signals, and a read skips at most the middle call."""
        synthesize = engines_module.synthesize_read_signal
        synthesized = []

        def counting(read, *args):
            synthesized.append(read.read_id)
            return synthesize(read, *args)

        monkeypatch.setattr(engines_module, "synthesize_read_signal", counting)
        data = generate_dataset(
            small_profile(ECOLI_LIKE, max_read_length=max_read_length), scale=scale, seed=7
        )
        config = preset_config(preset) if preset else GenPIPConfig()
        engine = ViterbiChunkBasecaller(ViterbiBackendConfig(pore_k=3))
        pipeline = GenPIPPipeline(MinimizerIndex.build(data.reference), config, engine, align=False)
        outcomes = pipeline.process_batch(list(data.reads))
        assert len(outcomes) == n_reads
        assert all(o.n_chunks_basecalled for o in outcomes)
        assert sorted(synthesized) == sorted(read.read_id for read in data.reads)

    def test_instance_pickles_without_cache(self, micro_read):
        engine = ViterbiChunkBasecaller(FAST_VITERBI)
        engine.basecall_many([(micro_read, [0])], 300)  # hold the read's signal
        clone = pickle.loads(pickle.dumps(engine))
        assert any(engine._held) and not any(clone._held)
        a = clone.basecall_chunk(micro_read, 0, 300)
        b = engine.basecall_chunk(micro_read, 0, 300)
        assert a.bases == b.bases


class TestConstruction:
    def test_benchmark_chain_equals_constructor(self, micro_index, micro_dataset):
        engine = create_basecaller("surrogate")
        direct = GenPIPPipeline(micro_index, ECOLI_PARAMS, engine, align=False).run(micro_dataset)
        chained = (
            GenPIP.build()
            .index(micro_index)
            .config(ECOLI_PARAMS)
            .basecaller(engine)
            .align(False)
            .build()
            .pipeline.run(micro_dataset)
        )
        run_args = {"dataset": "micro"}
        assert report_to_json(chained, run_args) == report_to_json(direct, run_args)

    def test_viterbi_parallel_equals_serial(self, micro_index, micro_dataset):
        system = GenPIPPipeline(
            micro_index,
            preset_config("ecoli"),
            create_basecaller("viterbi", FAST_VITERBI),
            align=False,
        )
        serial = system.run(micro_dataset)
        parallel = system.run(micro_dataset, workers=2, batch_size=2)
        assert parallel.outcomes == serial.outcomes
        assert parallel.counters == serial.counters
        statuses = {outcome.status for outcome in serial.outcomes}
        assert statuses <= set(ReadStatus)

    def test_chunk_size_and_variant_compose(self):
        config = variant_config(preset_config("human").with_chunk_size(400), "conventional")
        assert config.chunk_size == 400
        assert config.n_qs == 5 and config.n_cm == 3  # human preset survives
        assert not config.enable_qsr and not config.enable_cmr

    def test_theta_qs_above_every_quality_rejects_all(self, micro_index, micro_dataset):
        system = GenPIPPipeline(micro_index, GenPIPConfig(theta_qs=41), align=False)
        report = system.run(micro_dataset)
        eligible = [
            o for o in report.outcomes
            if o.n_chunks_total >= system.config.min_chunks_for_er
        ]
        assert eligible
        assert all(o.status is ReadStatus.REJECTED_QSR for o in eligible)


class TestConventionalPipelineAlign:
    def test_align_is_forwarded(self, micro_index, micro_dataset):
        read = max(micro_dataset.reads, key=len)
        conventional = GenPIPConfig().conventional()
        with_align = GenPIPPipeline(micro_index, config=conventional, align=True).process_read(read)
        without = GenPIPPipeline(micro_index, config=conventional, align=False).process_read(read)
        assert with_align.status == without.status
        if with_align.status is ReadStatus.MAPPED:
            assert with_align.aligned
            assert not without.aligned
            assert without.mapping.alignment is None


class TestPipelineTravels:
    """The pipeline is what reaches a worker: rebinding a field keeps
    every other one, and a pickled copy decides every read the same."""

    def test_backend_travels_as_instance(self, micro_index):
        class CustomEngine(SurrogateBasecaller):
            pass

        engine = CustomEngine()
        pipeline = GenPIPPipeline(micro_index, basecaller=engine)
        assert pipeline.basecaller is engine
        # What a worker does with the shared-memory handle it was sent.
        rebound = dataclasses.replace(pipeline, index=micro_index)
        assert rebound.basecaller is engine
        assert rebound.config == pipeline.config

    def test_er_parameters_travel(self, micro_index, micro_dataset):
        config = GenPIPConfig(theta_qs=3.3, n_qs=4)
        pipeline = GenPIPPipeline(micro_index, config, align=False)
        rebuilt = pickle.loads(pickle.dumps(pipeline))
        assert rebuilt.config == config
        reads = list(micro_dataset.reads)
        assert rebuilt.process_batch(reads) == pipeline.process_batch(reads)

    def test_spawn_round_trip_identical_outcomes(
        self, micro_index, micro_dataset, tmp_path
    ):
        """Pickle a pipeline per engine (one with its own QSR parameters),
        load them in a *fresh* interpreter (spawn semantics), and
        compare outcomes exactly."""
        pipelines = [
            GenPIPPipeline(micro_index, align=False),
            GenPIPPipeline(
                micro_index,
                GenPIPConfig(theta_qs=9.5, n_qs=3),
                ViterbiChunkBasecaller(FAST_VITERBI),
                align=False,
            ),
        ]
        reads = micro_dataset.reads[:3]
        expected = [pipeline.process_batch(list(reads)) for pipeline in pipelines]

        pipelines_path = tmp_path / "pipelines.pkl"
        reads_path = tmp_path / "reads.pkl"
        out_path = tmp_path / "outcomes.pkl"
        pipelines_path.write_bytes(pickle.dumps(pipelines))
        reads_path.write_bytes(pickle.dumps(reads))

        worker = (
            "import pickle, sys\n"
            "pipelines = pickle.loads(open(sys.argv[1], 'rb').read())\n"
            "reads = pickle.loads(open(sys.argv[2], 'rb').read())\n"
            "outcomes = [pipeline.process_batch(reads) for pipeline in pipelines]\n"
            "open(sys.argv[3], 'wb').write(pickle.dumps(outcomes))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        completed = subprocess.run(
            [sys.executable, "-c", worker, str(pipelines_path), str(reads_path), str(out_path)],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stderr
        outcomes = pickle.loads(out_path.read_bytes())
        assert outcomes == expected


class TestUnitCompositionIndependence:
    """A read's outcome depends on the read, not on its unit mates or on
    which process built the engine -- the property the worker-count x
    batching byte-identity of reports rests on, for every built-in
    engine at test size. (A batched decode that packed a unit's chunks
    into one forward pass once broke it: quality tracks equal only to
    rounding changed 3 of these 12 outcomes between unit sizes 1 and 6.)
    """

    ENGINE_CONFIGS = {"surrogate": None, "viterbi": FAST_VITERBI}

    @pytest.fixture(scope="class")
    def reads_and_index(self):
        dataset = generate_dataset(
            small_profile(ECOLI_LIKE, max_read_length=1_500), scale=0.0002, seed=7
        )
        return list(dataset.reads), MinimizerIndex.build(dataset.reference)

    @pytest.fixture(scope="class", params=["surrogate", "surrogate-numpy", "viterbi"])
    def case(self, request, reads_and_index):
        """The surrogate runs on both of its decodes: ``surrogate.c``, and
        (``surrogate-numpy``) the numpy path, forced for the whole case."""
        reads, index = reads_and_index
        name, _, forced = request.param.partition("-")
        with fallback("surrogate") if forced else contextlib.nullcontext():
            engine = create_basecaller(name, self.ENGINE_CONFIGS[name])
            pipeline = GenPIPPipeline(index, basecaller=engine, align=False)
            yield pipeline, reads, [pipeline.process_read(read) for read in reads]

    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_any_partition_into_units_gives_the_per_read_outcomes(self, case, data):
        pipeline, reads, expected = case
        cuts = data.draw(st.sets(st.integers(min_value=1, max_value=len(reads) - 1)))
        bounds = [0, *sorted(cuts), len(reads)]
        outcomes = [
            outcome
            for lo, hi in itertools.pairwise(bounds)
            for outcome in pipeline.process_batch(reads[lo:hi])
        ]
        assert outcomes == expected

    #: Thresholds under which the seed-9 reads meet every verdict on
    #: each engine (Viterbi's chunk qualities sit higher).
    MIXED_CONFIGS = {"surrogate": GenPIPConfig(), "viterbi": GenPIPConfig(theta_qs=10.8)}

    @pytest.fixture(scope="class", params=["surrogate", "surrogate-numpy", "viterbi"])
    def mixed_case(self, request):
        """Reads that QSR rejects, CMR rejects and that map, with their
        per-read outcomes, under each engine and both surrogate decodes."""
        dataset = generate_dataset(
            small_profile(ECOLI_LIKE, max_read_length=1_500), scale=0.0002, seed=9
        )
        reads, index = list(dataset.reads), MinimizerIndex.build(dataset.reference)
        name, _, forced = request.param.partition("-")
        with fallback("surrogate") if forced else contextlib.nullcontext():
            engine = create_basecaller(name, self.ENGINE_CONFIGS[name])
            pipeline = GenPIPPipeline(index, self.MIXED_CONFIGS[name], engine, align=False)
            yield pipeline, reads, [pipeline.process_read(read) for read in reads]

    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_units_mixing_every_verdict_give_the_per_read_outcomes(self, mixed_case, data):
        """Shuffled units that mix QSR-rejected, CMR-rejected and mapped
        reads: a unit's probe calls carry all of their chunks, and each
        read still comes out as it does alone."""
        pipeline, reads, expected = mixed_case
        verdicts = {ReadStatus.REJECTED_QSR, ReadStatus.REJECTED_CMR, ReadStatus.MAPPED}
        assert verdicts <= {outcome.status for outcome in expected}
        order = data.draw(st.permutations(range(len(reads))))
        cuts = data.draw(st.sets(st.integers(min_value=1, max_value=len(reads) - 1), max_size=3))
        bounds = [0, *sorted(cuts), len(reads)]
        outcomes = [
            outcome
            for lo, hi in itertools.pairwise(bounds)
            for outcome in pipeline.process_batch([reads[i] for i in order[lo:hi]])
        ]
        assert outcomes == [expected[i] for i in order]

    def test_pickled_spec_rebuilds_the_same_outcomes(self, case):
        """The pickled pipeline is the spec a spawned worker rebuilds from."""
        pipeline, reads, expected = case
        rebuilt = pickle.loads(pickle.dumps(pipeline))
        assert rebuilt.basecaller is not pipeline.basecaller
        assert rebuilt.process_batch(reads) == expected


#: Lengths a drawn read is cut to (``None`` keeps it whole): one-chunk
#: reads at both drawn chunk sizes, one base either side of a chunk
#: boundary, and a few chunks.
_CUTS = st.sampled_from([None, 1, 60, 99, 101, 299, 301, 650])


class TestUnitEqualsPerRead:
    """``process_batch(reads)`` is ``[process_read(r) for r in reads]``
    record for record, whatever the unit holds and however early
    rejection is set: the unit's QSR and CMR probe calls give every read
    exactly the chunks, verdicts and outcome it gets alone."""

    @pytest.fixture(scope="class")
    def pool(self):
        dataset = generate_dataset(
            small_profile(ECOLI_LIKE, max_read_length=1_500), scale=0.0002, seed=7
        )
        return list(dataset.reads), MinimizerIndex.build(dataset.reference), dataset.reference

    @staticmethod
    def _unit(data, reads) -> list:
        picks = data.draw(
            st.lists(st.tuples(st.integers(0, len(reads) - 1), _CUTS), min_size=1, max_size=6)
        )
        unit = []
        for position, cut in picks:
            read = reads[position]
            if cut is not None and cut < len(read):
                read = dataclasses.replace(
                    read,
                    read_id=f"{read.read_id}-cut{cut}",
                    true_codes=read.true_codes[:cut],
                    qualities=read.qualities[:cut],
                )
            unit.append(read)
        return unit

    @staticmethod
    def _config(data, **fields) -> GenPIPConfig:
        return GenPIPConfig(
            chunk_size=data.draw(st.sampled_from([100, 300])),
            enable_qsr=data.draw(st.booleans()),
            enable_cmr=data.draw(st.booleans()),
            min_chunks_for_er=data.draw(st.integers(1, 4)),
            **fields,
        )

    @staticmethod
    def _assert_unit_is_per_read(pipeline, unit) -> None:
        batch = [outcome_to_record(outcome) for outcome in pipeline.process_batch(unit)]
        assert batch == [outcome_to_record(pipeline.process_read(read)) for read in unit]

    @pytest.mark.parametrize("decode", ["native", "numpy"])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_surrogate_units(self, pool, decode, data):
        reads, index, _ = pool
        if decode == "native":
            require_native("surrogate")
        pipeline = GenPIPPipeline(index, self._config(data), align=False)
        with fallback("surrogate") if decode == "numpy" else contextlib.nullcontext():
            self._assert_unit_is_per_read(pipeline, self._unit(data, reads))

    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_viterbi_units_with_signal_reads_and_ser(self, pool, data):
        """SER screens the unit's signal reads before any decode; the
        reads it keeps share the unit's probe calls with base-space
        reads, and the reads it rejects decode nothing."""
        reads, index, reference = pool
        engine = ViterbiChunkBasecaller(FAST_VITERBI)
        policy = SignalRejectionPolicy.from_reference(
            engine.pore_model,
            reference.codes,
            segment_starts=[
                read.ref_start for read in reads if read.ref_start is not None and read.strand == 1
            ],
        )
        config = self._config(data, enable_ser=data.draw(st.booleans()))
        pipeline = GenPIPPipeline(index, config, engine, align=False, ser_policy=policy)
        unit = [
            SignalRead(read_id=read.read_id, signal=engine.synthesize_signal(read))
            if data.draw(st.booleans())
            else read
            for read in self._unit(data, reads)
        ]
        self._assert_unit_is_per_read(pipeline, unit)
