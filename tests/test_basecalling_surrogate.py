"""Tests for chunk types, chunk arithmetic, and the surrogate basecaller."""

import ast
import contextlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from conftest import fallback, require_native
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kernels.native as native
from repro.basecalling import (
    BasecalledChunk,
    SurrogateBasecaller,
    SurrogateConfig,
    chunk_bounds,
    chunk_count,
    chunk_span,
    reassemble_chunks,
)
from repro.basecalling import surrogate as surrogate_module
from repro.genomics.mutate import ErrorProfile, apply_errors
from repro.genomics.quality import phred_to_error_prob
from repro.genomics.reference import ReferenceGenome
from repro.nanopore.read_simulator import ReadSimulator, SimulatorConfig


@pytest.fixture(scope="module")
def reads():
    ref = ReferenceGenome.random(80_000, seed=21)
    config = SimulatorConfig(
        median_length=2_000, mean_length=2_100, min_length=600, max_length=6_000
    )
    return ReadSimulator(ref, config, seed=22).sample_reads(12)


class TestChunkBounds:
    def test_exact_multiple(self):
        assert chunk_bounds(900, 300) == [(0, 300), (300, 600), (600, 900)]

    def test_remainder_goes_to_last(self):
        assert chunk_bounds(750, 300) == [(0, 300), (300, 600), (600, 750)]

    def test_short_read_single_chunk(self):
        assert chunk_bounds(100, 300) == [(0, 100)]

    def test_empty_read(self):
        assert chunk_bounds(0, 300) == [(0, 0)]

    def test_bad_args(self):
        with pytest.raises(ValueError):
            chunk_bounds(100, 0)
        with pytest.raises(ValueError):
            chunk_bounds(-1, 300)

    @given(st.integers(min_value=1, max_value=10_000), st.integers(min_value=1, max_value=700))
    @settings(max_examples=60)
    def test_partition_property(self, total, chunk):
        bounds = chunk_bounds(total, chunk)
        # Contiguous, ordered, covering partition of [0, total).
        assert bounds[0][0] == 0
        assert bounds[-1][1] == total
        for (a0, a1), (b0, _b1) in zip(bounds, bounds[1:], strict=False):
            assert a1 == b0
            assert a1 - a0 == chunk
        assert all(end > start for start, end in bounds)

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=700))
    @settings(max_examples=60)
    def test_closed_form_matches_the_loop(self, total, chunk):
        loop = [(s, min(s + chunk, total)) for s in range(0, total, chunk)] or [(0, 0)]
        assert chunk_count(total, chunk) == len(loop)
        assert [chunk_span(total, chunk, i) for i in range(len(loop))] == loop
        assert chunk_bounds(total, chunk) == loop

    def test_span_index_out_of_range(self):
        for index in (-1, 3):
            with pytest.raises(ValueError, match="out of range"):
                chunk_span(900, 300, index)
        with pytest.raises(ValueError):
            chunk_count(100, 0)


class TestBasecalledChunk:
    def test_sum_quality_is_sqs(self):
        chunk = BasecalledChunk(0, "ACGT", np.array([5.0, 6.0, 7.0, 8.0]), 4)
        assert chunk.sum_quality == pytest.approx(26.0)
        assert chunk.mean_quality == pytest.approx(6.5)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BasecalledChunk(0, "ACGT", np.array([5.0]), 4)

    def test_empty_chunk(self):
        chunk = BasecalledChunk(0, "", np.empty(0), 0)
        assert chunk.mean_quality == 0.0
        assert chunk.sum_quality == 0.0
        assert len(chunk) == 0 and chunk.bases == ""

    def test_codes_and_lazy_bases_round_trip(self):
        codes = np.array([0, 1, 2, 3, 3, 0], dtype=np.uint8)
        from_codes = BasecalledChunk(0, codes, np.arange(6.0), 6)
        from_text = BasecalledChunk(0, "ACGTTA", np.arange(6.0), 6)
        assert from_codes.codes is codes, "a uint8 code array is kept, not copied"
        assert "bases" not in vars(from_codes), "text is rendered on first use only"
        assert from_codes.bases == "ACGTTA"
        assert from_text.codes.dtype == np.uint8
        np.testing.assert_array_equal(from_text.codes, codes)
        assert len(from_codes) == len(from_text) == 6

    def test_code_array_quality_shape_validated(self):
        codes = np.zeros(4, dtype=np.uint8)
        with pytest.raises(ValueError):
            BasecalledChunk(0, codes, np.zeros(3), 4)
        with pytest.raises(ValueError):
            BasecalledChunk(0, codes.reshape(2, 2), np.zeros((2, 2)), 4)

    def test_invalid_text_rejected(self):
        with pytest.raises(ValueError):
            BasecalledChunk(0, "ACGN", np.zeros(4), 4)


class TestReassembly:
    def test_order_enforced(self):
        chunks = [
            BasecalledChunk(1, "AC", np.array([1.0, 2.0]), 2),
            BasecalledChunk(0, "GT", np.array([3.0, 4.0]), 2),
        ]
        with pytest.raises(ValueError):
            reassemble_chunks("r", chunks)

    def test_missing_chunk_detected(self):
        chunks = [
            BasecalledChunk(0, "AC", np.array([1.0, 2.0]), 2),
            BasecalledChunk(2, "GT", np.array([3.0, 4.0]), 2),
        ]
        with pytest.raises(ValueError):
            reassemble_chunks("r", chunks)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            reassemble_chunks("r", [])

    def test_concatenation(self):
        chunks = [
            BasecalledChunk(0, "AC", np.array([1.0, 2.0]), 2),
            BasecalledChunk(1, "GT", np.array([3.0, 4.0]), 2),
        ]
        read = reassemble_chunks("r", chunks)
        assert read.bases == "ACGT"
        np.testing.assert_array_equal(read.codes, [0, 1, 2, 3])
        assert len(read) == 4
        np.testing.assert_allclose(read.qualities, [1, 2, 3, 4])
        assert read.n_chunks == 2


class TestSurrogateBasecaller:
    def test_deterministic_per_chunk(self, reads):
        caller = SurrogateBasecaller()
        read = reads[0]
        a = caller.basecall_chunk(read, 1, 300)
        b = caller.basecall_chunk(read, 1, 300)
        assert a.bases == b.bases
        np.testing.assert_allclose(a.qualities, b.qualities)

    def test_chunks_independent_of_order(self, reads):
        """Chunk i's output never depends on which chunks ran before.

        This is the property that makes CP (chunk pipeline) equivalent
        to the conventional pipeline.
        """
        caller = SurrogateBasecaller()
        read = reads[1]
        n = caller.n_chunks(read, 300)
        forward = [caller.basecall_chunk(read, i, 300) for i in range(n)]
        backward = [caller.basecall_chunk(read, i, 300) for i in reversed(range(n))]
        for chunk in forward:
            match = next(c for c in backward if c.chunk_index == chunk.chunk_index)
            assert chunk.bases == match.bases

    def test_full_read_equals_chunk_concat(self, reads):
        caller = SurrogateBasecaller()
        read = reads[2]
        whole = caller.basecall_read(read, 300)
        chunks = [caller.basecall_chunk(read, i, 300) for i in range(caller.n_chunks(read, 300))]
        assert whole.bases == "".join(c.bases for c in chunks)
        assert whole.n_chunks == len(chunks)

    def test_output_length_near_truth(self, reads):
        caller = SurrogateBasecaller()
        for read in reads[:6]:
            called = caller.basecall_read(read, 300)
            # Indels roughly balance; length within 15%.
            assert abs(len(called) - len(read)) / len(read) < 0.15

    def test_error_rate_tracks_quality(self, reads):
        """Lower-quality reads must carry more errors."""
        caller = SurrogateBasecaller()
        read = reads[0]
        high_q = read.qualities.copy()
        # Build two synthetic variants of the same read at fixed quality.
        from dataclasses import replace

        q_high = replace(read, qualities=np.full_like(high_q, 15.0))
        q_low = replace(read, qualities=np.full_like(high_q, 4.0))
        called_high = caller.basecall_read(q_high, 300)
        called_low = caller.basecall_read(q_low, 300)
        errors_high = _rough_error_fraction(q_high.true_bases, called_high.bases)
        errors_low = _rough_error_fraction(q_low.true_bases, called_low.bases)
        assert errors_low > errors_high

    def test_emitted_quality_tracks_process(self, reads):
        caller = SurrogateBasecaller()
        read = reads[3]
        called = caller.basecall_read(read, 300)
        assert called.mean_quality == pytest.approx(read.mean_true_quality, abs=1.0)

    def test_chunk_index_out_of_range(self, reads):
        caller = SurrogateBasecaller()
        with pytest.raises(ValueError):
            caller.basecall_chunk(reads[0], 10**6, 300)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SurrogateConfig(error_scale=0.0)
        with pytest.raises(ValueError):
            SurrogateConfig(max_error_prob=0.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("error_scale", float("nan")),
            ("error_scale", float("inf")),
            ("quality_jitter", -1.0),
            ("quality_jitter", float("nan")),
            ("quality_jitter", float("inf")),
            ("max_error_prob", True),
            ("error_scale", True),
        ],
    )
    def test_config_rejects_non_finite_or_negative(self, field, value):
        """NaN scale used to decode error-free chunks and a negative
        jitter failed only at the first chunk, inside a worker; ``True``
        was accepted as 1."""
        with pytest.raises(ValueError, match=field):
            SurrogateConfig(**{field: value})

    def test_zero_jitter_emits_the_track(self, reads):
        read = reads[0]
        chunk = SurrogateBasecaller(SurrogateConfig(quality_jitter=0.0)).basecall_chunk(read, 0, 300)
        track = np.clip(read.qualities, 1.0, 40.0)
        assert set(chunk.qualities.tolist()) <= set(track.tolist())

    def test_error_scale_zero_errors(self, reads):
        """With a tiny error scale the surrogate is near-perfect."""
        caller = SurrogateBasecaller(SurrogateConfig(error_scale=1e-9))
        read = reads[4]
        called = caller.basecall_read(read, 300)
        assert called.bases == read.true_bases

    def test_profile_respected(self, reads):
        """A deletion-only profile can only shorten the read."""
        profile = ErrorProfile(substitution=0.0, insertion=0.0, deletion=1.0)
        caller = SurrogateBasecaller(SurrogateConfig(profile=profile))
        read = reads[5]
        called = caller.basecall_read(read, 300)
        assert len(called) <= len(read)


def _chunk_reference(caller, read, index, chunk_size):
    """The surrogate's per-chunk body as it stood before chunks were
    decoded in batches: one stream, one ``apply_errors``, one chunk."""
    start, end = chunk_span(len(read), chunk_size, index)
    track = read.qualities[start:end]
    rng = np.random.default_rng([read.seed & 0x7FFFFFFF, chunk_size, index])
    cfg = caller.config
    error_prob = np.minimum(
        np.maximum(phred_to_error_prob(track) * cfg.error_scale, 0.0), cfg.max_error_prob
    )
    mutated = apply_errors(read.true_codes[start:end], error_prob, rng, cfg.profile)
    quality = track[mutated.source_index]
    quality += rng.normal(0.0, cfg.quality_jitter, size=quality.size)
    np.maximum(quality, 1.0, out=quality)
    np.minimum(quality, 40.0, out=quality)
    return mutated.codes, quality, end - start


def _index_lists(n_chunks: int):
    """Any subset of a read's chunk indices, in any order, repeats allowed."""
    return st.lists(st.integers(0, n_chunks - 1), max_size=2 * n_chunks + 2)


class TestBatchedDecode:
    """``basecall_chunks`` is the surrogate's only decode: each chunk of a
    batch is byte-equal to that chunk decoded alone, whatever its mates."""

    @given(data=st.data(), read_index=st.integers(0, 11), chunk_size=st.sampled_from([50, 200, 300]))
    @settings(max_examples=60, deadline=None)
    def test_any_index_list_matches_per_chunk_reference(self, reads, data, read_index, chunk_size):
        caller = SurrogateBasecaller()
        read = reads[read_index]
        n = caller.n_chunks(read, chunk_size)
        indices = data.draw(
            st.one_of(
                st.just([]),
                st.integers(0, n - 1).map(lambda i: [i]),
                st.just(list(reversed(range(n)))),
                st.just(list(range(0, n, 3))),
                st.integers(0, n - 1).map(lambda i: list(range(i, n))),
                _index_lists(n),
            )
        )
        chunks = caller.basecall_chunks(read, indices, chunk_size)
        assert [c.chunk_index for c in chunks] == indices
        for index, chunk in zip(indices, chunks, strict=True):
            codes, quality, n_true = _chunk_reference(caller, read, index, chunk_size)
            assert chunk.codes.tobytes() == codes.tobytes()
            assert chunk.qualities.tobytes() == quality.tobytes()
            assert chunk.n_true_bases == n_true

    @pytest.mark.parametrize(
        "config",
        [
            SurrogateConfig(quality_jitter=0.0),
            SurrogateConfig(error_scale=3.0, max_error_prob=1.0),
            SurrogateConfig(profile=ErrorProfile(substitution=0.0, insertion=1.0, deletion=0.0)),
            SurrogateConfig(profile=ErrorProfile(substitution=0.0, insertion=0.0, deletion=1.0)),
        ],
        ids=["no-jitter", "error-heavy", "insertions-only", "deletions-only"],
    )
    def test_calibrations_match_per_chunk_reference(self, reads, config):
        caller = SurrogateBasecaller(config)
        read = reads[6]
        indices = [5, 0, 2, 3, caller.n_chunks(read, 300) - 1, 2]
        for index, chunk in zip(indices, caller.basecall_chunks(read, indices, 300), strict=True):
            codes, quality, _ = _chunk_reference(caller, read, index, 300)
            assert chunk.codes.tobytes() == codes.tobytes()
            assert chunk.qualities.tobytes() == quality.tobytes()

    def test_empty_read_is_one_empty_chunk(self, reads):
        from dataclasses import replace

        read = replace(reads[0], true_codes=reads[0].true_codes[:0], qualities=reads[0].qualities[:0])
        (chunk,) = SurrogateBasecaller().basecall_chunks(read, [0], 300)
        assert len(chunk) == 0 and chunk.n_true_bases == 0

    def test_out_of_range_index_in_a_batch_raises(self, reads):
        caller = SurrogateBasecaller()
        with pytest.raises(ValueError, match="out of range"):
            caller.basecall_chunks(reads[0], [0, 10**6], 300)

    @pytest.mark.parametrize("decode", ["native", "numpy"])
    @given(data=st.data(), chunk_size=st.sampled_from([50, 300, 2**32, 2**32 + 7]))
    @settings(max_examples=40, deadline=None)
    def test_many_reads_match_each_request_alone(self, reads, decode, data, chunk_size):
        """One ``basecall_many`` call over several reads gives each
        request the chunks ``basecall_chunks`` gives it alone: empty
        index lists, the same read twice, seed 0 and a chunk size past
        32 bits (a two-word entropy prefix) included."""
        if decode == "native":
            require_native("surrogate")
        caller = SurrogateBasecaller()
        pool = [*reads[:4], replace(reads[4], seed=0)]
        requests = []
        for position in data.draw(st.lists(st.integers(0, len(pool) - 1), max_size=5)):
            read = pool[position]
            requests.append((read, data.draw(_index_lists(caller.n_chunks(read, chunk_size)))))
        with fallback("surrogate") if decode == "numpy" else contextlib.nullcontext():
            many = caller.basecall_many(requests, chunk_size)
            alone = [caller.basecall_chunks(read, indices, chunk_size) for read, indices in requests]
        assert len(many) == len(requests)
        for (read, indices), batch, single in zip(requests, many, alone, strict=True):
            assert [c.chunk_index for c in batch] == indices
            assert _chunk_bytes(batch) == _chunk_bytes(single)
            for index, chunk in zip(indices, batch, strict=True):
                codes, quality, n_true = _chunk_reference(caller, read, index, chunk_size)
                assert chunk.codes.tobytes() == codes.tobytes()
                assert chunk.qualities.tobytes() == quality.tobytes()
                assert chunk.n_true_bases == n_true

    def test_many_reads_make_one_c_call(self, reads):
        """Every request of a ``basecall_many`` call reaches ``surrogate.c``
        in one call; requests with no index add nothing to it, and a
        call with no chunks at all makes none."""
        require_native("surrogate")
        library = native.kernel("surrogate")
        counting = mock.Mock(wraps=library.surrogate_decode)
        requests = [(reads[0], [1, 0]), (reads[1], []), (reads[0], [2]), (reads[2], [0])]
        with mock.patch.object(library, "surrogate_decode", counting):
            decoded = SurrogateBasecaller().basecall_many(requests, 300)
            assert SurrogateBasecaller().basecall_many([(reads[0], [])], 300) == [[]]
        assert counting.call_count == 1
        assert counting.call_args.args[4] == 4  # chunks
        assert [[c.chunk_index for c in chunks] for chunks in decoded] == [[1, 0], [], [2], [0]]

    def test_one_stream_per_chunk_opened_in_decode_numpy_only(self):
        """Exactly one ``default_rng`` call site in the surrogate module,
        inside ``_decode_numpy`` (the numpy path ``basecall_many`` takes
        read by read): no second decode path draws."""
        tree = ast.parse(Path(surrogate_module.__file__).read_text())

        def sites(root):
            return [
                node
                for node in ast.walk(root)
                if (isinstance(node, ast.Attribute) and node.attr == "default_rng")
                or (isinstance(node, ast.Name) and node.id == "default_rng")
                or (isinstance(node, ast.alias) and node.name == "default_rng")
            ]

        (decode,) = [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "_decode_numpy"
        ]
        assert len(sites(tree)) == 1 and sites(decode) == sites(tree)


def _rough_error_fraction(truth: str, called: str) -> float:
    """Cheap error estimate: 1 - matching 8-mer fraction."""
    kmers_truth = {truth[i : i + 8] for i in range(0, len(truth) - 8, 4)}
    kmers_called = {called[i : i + 8] for i in range(0, len(called) - 8, 4)}
    if not kmers_truth:
        return 0.0
    return 1.0 - len(kmers_truth & kmers_called) / len(kmers_truth)


def _chunk_bytes(chunks):
    """Every chunk's index, codes and quality bytes and true-base count."""
    return [
        (c.chunk_index, c.codes.dtype, c.codes.tobytes(), c.qualities.dtype,
         c.qualities.tobytes(), c.n_true_bases)
        for c in chunks
    ]  # fmt: skip


def _decoded(caller, read, indices, chunk_size):
    """:func:`_chunk_bytes` of the chunks ``basecall_chunks`` returns."""
    return _chunk_bytes(caller.basecall_chunks(read, indices, chunk_size))


#: A quality track's values: the simulator's range, q = 0 (p = 1), past
#: the clip at 40 and at FASTQ's 93, negative, and both infinities (which
#: a jitter of 1e308 can meet with the other, making a NaN quality).
_TRACK_VALUES = st.one_of(
    st.floats(0, 60),
    st.sampled_from([0.0, 1.0, 40.0, 93.0, 1e6, np.inf, -np.inf]),
    st.floats(-30, 0),
)


class TestNativeDecode:
    """``surrogate.c`` replays each chunk's ``Generator`` stream: the
    compiled decode gives the numpy path's bytes, whatever the read, the
    seed, the chunk size, the index list and the calibration."""

    def test_compiled_decode_is_what_runs(self):
        """Where a compiler exists the decode must be the compiled one, or
        every comparison below would test the numpy path against itself."""
        require_native("surrogate")
        assert native.backend("surrogate") == "native"
        with fallback("surrogate"):
            assert native.backend("surrogate") == "numpy"

    @given(
        data=st.data(),
        n_bases=st.integers(0, 300),
        seed=st.one_of(st.sampled_from([0, 2**31 - 1]), st.integers(0, 2**40)),
        chunk_size=st.one_of(
            st.integers(1, 90),
            st.sampled_from([2**32 - 1, 2**32, 2**32 + 7, 2**63, 2**64, 2**64 + 1, 2**96]),
        ),
        error_scale=st.sampled_from([1.0, 4.0, 1e9]),
        max_error_prob=st.sampled_from([0.28, 1.0]),
        quality_jitter=st.sampled_from([0.0, 0.7, 5.0, 1e308]),
        profile=st.sampled_from(
            [
                ErrorProfile(),
                ErrorProfile(substitution=1.0, insertion=0.0, deletion=0.0),
                ErrorProfile(substitution=0.0, insertion=1.0, deletion=0.0),
                ErrorProfile(substitution=0.0, insertion=0.0, deletion=1.0),
                ErrorProfile(substitution=0.0, insertion=2.0, deletion=1.0),
            ]
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_native_decode_is_the_numpy_path(
        self, reads, data, n_bases, seed, chunk_size, error_scale, max_error_prob,
        quality_jitter, profile,
    ):  # fmt: skip
        require_native("surrogate")
        code = st.one_of(st.integers(0, 3), st.integers(0, 255))
        codes = data.draw(st.lists(code, min_size=n_bases, max_size=n_bases))
        track = data.draw(st.lists(_TRACK_VALUES, min_size=n_bases, max_size=n_bases))
        read = replace(reads[0], true_codes=np.array(codes, np.uint8), qualities=np.array(track), seed=seed)
        caller = SurrogateBasecaller(
            SurrogateConfig(
                error_scale=error_scale, quality_jitter=quality_jitter,
                max_error_prob=max_error_prob, profile=profile,
            )
        )  # fmt: skip
        n = caller.n_chunks(read, chunk_size)
        indices = data.draw(
            st.one_of(st.just([]), st.just(list(range(n))), st.just([n - 1]), _index_lists(n))
        )
        # An infinite track overflows 10**(-q/10), and meets an infinite
        # jitter as NaN: expected here, on both paths.
        with np.errstate(over="ignore", invalid="ignore"):
            compiled = _decoded(caller, read, indices, chunk_size)
            with fallback("surrogate"):
                assert _decoded(caller, read, indices, chunk_size) == compiled

    @pytest.mark.parametrize(
        "case",
        [
            {"track": 0.0},
            {"track": [np.inf, -np.inf, 93.0, 1e6]},
            {"seed": 0},
            {"seed": 2**31 - 1},
            {"seed": 2**40 + 3},
            {"chunk_size": 2**32},
            {"chunk_size": 2**64 + 1},
            {"indices": []},
            {"indices": [2, 0, 2, 1]},
            {"indices": [-1]},
            {"config": {"error_scale": 1e9}},
            {"config": {"max_error_prob": 1.0}, "track": 0.0},
            {"config": {"quality_jitter": 0.0}},
            {"config": {"profile": ErrorProfile(substitution=0.0, insertion=2.0, deletion=0.0)}},
        ],
        ids=[
            "q0-track", "infinite-track", "seed-0", "seed-2**31-1", "seed-past-31-bits",
            "chunk-2**32", "chunk-2**64+1", "no-chunks", "unordered-repeats", "last-chunk",
            "error-prob-at-the-clip", "max-error-prob-1", "zero-jitter", "zero-weight-profile",
        ],
    )  # fmt: skip
    def test_edge_case_decodes_as_the_numpy_path(self, reads, case):
        """Each edge the property draws from, pinned on its own: a
        799-base read in 300-base chunks (every chunk, or the listed
        ones; the last chunk, 199 bases, leaves PCG64's half-word
        buffered between the two bounded fills) on the compiled decode
        and on the numpy path."""
        require_native("surrogate")
        read = reads[1]
        codes = read.true_codes[:799]
        track = np.resize(np.asarray(case.get("track", read.qualities[:799]), float), codes.size)
        read = replace(read, true_codes=codes, qualities=track, seed=case.get("seed", read.seed))
        caller = SurrogateBasecaller(SurrogateConfig(**case.get("config", {})))
        chunk_size = case.get("chunk_size", 300)
        n = caller.n_chunks(read, chunk_size)
        indices = [i % n for i in case.get("indices", range(n))]
        with np.errstate(over="ignore", invalid="ignore"):
            compiled = _decoded(caller, read, indices, chunk_size)
            with fallback("surrogate"):
                assert _decoded(caller, read, indices, chunk_size) == compiled

    def test_nan_track_is_refused_before_any_c_call(self, reads, surrogate):
        """A NaN quality makes a NaN error probability: both paths raise
        ``apply_drawn_errors``' ``ValueError``, the compiled one before
        its C function is called."""
        track = reads[0].qualities.copy()
        track[310] = np.nan
        read = replace(reads[0], qualities=track)
        refused = SimpleNamespace(surrogate_decode=mock.Mock(side_effect=AssertionError))
        stub = {"surrogate": refused} if surrogate == "native" else {}
        with mock.patch.dict(native._LOADED, stub), pytest.raises(ValueError, match=r"within \[0, 1\]"):
            SurrogateBasecaller().basecall_chunks(read, [0, 1], 300)
        refused.surrogate_decode.assert_not_called()

    def test_failed_allocation_raises_memory_error(self, reads):
        """``surrogate.c`` returns -1 when its scratch ``malloc`` fails."""
        failing = SimpleNamespace(surrogate_decode=lambda *args: -1)
        with mock.patch.dict(native._LOADED, {"surrogate": failing}), pytest.raises(MemoryError):
            SurrogateBasecaller().basecall_chunks(reads[0], [0, 1], 300)

    def test_threads_decode_at_once(self, reads):
        """ctypes releases the GIL, so a served read's thread and the
        batch's can be inside ``surrogate_decode`` at once: it keeps no
        state between calls, and every thread gets what a lone call
        gives."""
        require_native("surrogate")
        caller = SurrogateBasecaller()

        def decode(read):
            return _decoded(caller, read, range(caller.n_chunks(read, 300)), 300)

        alone = [decode(read) for read in reads]
        with ThreadPoolExecutor(max_workers=4) as pool:
            together = list(pool.map(lambda read: [decode(read) for _ in range(10)], reads * 2))
        assert together == [[want] * 10 for want in alone * 2]
