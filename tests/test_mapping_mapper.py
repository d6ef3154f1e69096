"""Integration tests: the full mapper and the incremental chunk mapper."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.basecalling import SurrogateBasecaller
from repro.core import GenPIPPipeline
from repro.genomics import alphabet
from repro.genomics.mutate import apply_errors
from repro.genomics.reference import ReferenceGenome
from repro.mapping import (
    IncrementalChunkMapper,
    Mapper,
    MapperConfig,
    MinimizerConfig,
    MinimizerIndex,
)
from repro.mapping.seeding import collect_anchor_arrays
from repro.nanopore.read_simulator import ReadClass, ReadSimulator, SimulatorConfig


@pytest.fixture(scope="module")
def index():
    ref = ReferenceGenome.random(200_000, seed=17)
    return MinimizerIndex.build(ref, MinimizerConfig(k=13, w=10))


@pytest.fixture(scope="module")
def mapper(index):
    return Mapper(index)


class TestMapper:
    def test_exact_read_maps_to_origin(self, mapper, index):
        read = index.reference.fetch_bases(80_000, 86_000)
        result = mapper.map_read(read, "exact")
        assert result.mapped
        assert result.strand == 1
        assert abs(result.ref_start - 80_000) <= 20
        assert abs(result.ref_end - 86_000) <= 20
        assert result.identity > 0.99
        assert result.mapq > 30

    def test_noisy_read_maps(self, mapper, index):
        rng = np.random.default_rng(18)
        true = index.reference.fetch(120_000, 128_000)
        noisy = apply_errors(true, 0.12, rng)
        result = mapper.map_read(alphabet.decode(noisy.codes), "noisy")
        assert result.mapped
        assert abs(result.ref_start - 120_000) < 400
        assert 0.75 < result.identity < 0.95

    def test_reverse_strand_read(self, mapper, index):
        rng = np.random.default_rng(19)
        true = index.reference.fetch(60_000, 66_000, strand=-1)
        noisy = apply_errors(true, 0.1, rng)
        result = mapper.map_read(alphabet.decode(noisy.codes), "rev")
        assert result.mapped
        assert result.strand == -1
        assert abs(result.ref_start - 60_000) < 400

    def test_junk_read_unmapped(self, mapper):
        junk = alphabet.decode(
            np.random.default_rng(20).integers(0, 4, size=6_000).astype(np.uint8)
        )
        result = mapper.map_read(junk, "junk")
        assert not result.mapped
        assert result.identity == 0.0 or result.chain_score < 60

    def test_skip_alignment_mode(self, mapper, index):
        read = index.reference.fetch_bases(10_000, 15_000)
        result = mapper.map_read(read, "fast", align=False)
        assert result.mapped
        assert result.alignment is None
        assert result.chain_score > 100

    def test_chaining_k_follows_index(self):
        # The chain DP must score with the index's k on the path
        # GenPIPPipeline runs (IncrementalChunkMapper), not only behind
        # the Mapper facade: whatever ChainingConfig.kmer_size says.
        reference = ReferenceGenome.random(40_000, seed=5)
        true = reference.codes[12_000:16_000]
        codes = apply_errors(true, 0.08, np.random.default_rng(6)).codes
        scores = {}
        for k in (11, 13, 15):
            index = MinimizerIndex.build(reference, MinimizerConfig(k=k, w=10))
            whole = Mapper(index, MapperConfig()).map_read(alphabet.decode(codes), "r", align=False)
            chunked = IncrementalChunkMapper(index, codes.size)
            chunked.add_chunk(codes, read_offset=0)
            assert chunked.finalize("r", codes, align=False) == whole, k
            assert whole.mapped
            scores[k] = whole.chain_score
        assert len(set(scores.values())) == 3  # k reaches the DP


class TestMapperConfig:
    @pytest.mark.parametrize("name", ["min_identity", "min_read_coverage"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -5.0, 7.0, -1e-9, True, "0.5"])
    def test_threshold_outside_the_unit_interval_is_refused(self, name, value):
        """A NaN threshold compares False against every read, so every
        read came back unmapped; -5.0 or 7.0 kept every read or none."""
        with pytest.raises(ValueError, match=f"{name} must be a fraction in \\[0, 1\\]"):
            MapperConfig(**{name: value})

    @pytest.mark.parametrize("value", [0, 0.0, 0.55, 1, 1.0, np.float64(0.3)])
    def test_fractions_are_accepted(self, value):
        config = MapperConfig(min_identity=value, min_read_coverage=value)
        assert config.min_identity == config.min_read_coverage == value


class TestSimulatedReadsEndToEnd:
    """The §2.3-style population study: classes behave as designed."""

    @pytest.fixture(scope="class")
    def population(self, index):
        config = SimulatorConfig(
            median_length=3_000,
            mean_length=3_200,
            min_length=1_000,
            max_length=8_000,
            low_quality_fraction=0.2,
            junk_fraction=0.12,
        )
        simulator = ReadSimulator(index.reference, config, seed=21)
        reads = simulator.sample_reads(60)
        caller = SurrogateBasecaller()
        mapper = Mapper(index)
        results = []
        for read in reads:
            called = caller.basecall_read(read, 300)
            results.append((read, mapper.map_read(called.bases, read.read_id)))
        return results

    def test_normal_reads_mostly_map(self, population):
        normal = [r for read, r in population if read.read_class is ReadClass.NORMAL]
        mapped_fraction = sum(r.mapped for r in normal) / len(normal)
        assert mapped_fraction > 0.9

    def test_junk_reads_never_map(self, population):
        junk = [r for read, r in population if read.read_class is ReadClass.JUNK]
        assert junk, "population must contain junk reads"
        assert all(not r.mapped for r in junk)

    def test_mapped_positions_match_truth(self, population):
        for read, result in population:
            if read.read_class is not ReadClass.NORMAL or not result.mapped:
                continue
            assert abs(result.ref_start - read.ref_start) < 1_000
            assert result.strand == read.strand


class TestIncrementalChunkMapper:
    def test_incremental_equals_whole(self, index):
        """Seeding chunk-by-chunk accumulates to whole-read chaining."""
        read = index.reference.fetch(140_000, 146_000)
        whole = IncrementalChunkMapper(index, read.size)
        whole.add_chunk(read, 0)
        primary_whole, _ = whole.chain_prefix()

        chunked = IncrementalChunkMapper(index, read.size)
        for start in range(0, read.size, 300):
            chunked.add_chunk(read[start : start + 300], start)
        primary_chunked, _ = chunked.chain_prefix()

        assert primary_whole is not None and primary_chunked is not None
        # Chunked seeding loses anchors that straddle boundaries but must
        # land on the same locus with a comparable score.
        assert abs(primary_chunked.ref_span[0] - primary_whole.ref_span[0]) < 400
        assert primary_chunked.score > 0.8 * primary_whole.score

    def test_prefix_chain_grows(self, index):
        read = index.reference.fetch(150_000, 156_000)
        mapper = IncrementalChunkMapper(index, read.size)
        scores = []
        for start in range(0, read.size, 1_500):
            mapper.add_chunk(read[start : start + 1_500], start)
            primary, _ = mapper.chain_prefix()
            scores.append(primary.score if primary else 0.0)
        assert all(b >= a - 1e-9 for a, b in zip(scores, scores[1:], strict=False))
        assert scores[-1] > scores[0]

    def test_junk_prefix_has_no_chain(self, index):
        junk = np.random.default_rng(22).integers(0, 4, size=1_500).astype(np.uint8)
        mapper = IncrementalChunkMapper(index, 6_000)
        mapper.add_chunk(junk, 0)
        primary, _ = mapper.chain_prefix()
        assert primary is None or primary.score < 60

    def test_add_chunk_returns_anchors_contributed(self, index):
        mapper = IncrementalChunkMapper(index, 1_000)
        added = []
        for start in (0, 300):
            chunk = index.reference.fetch(start, start + 300)
            added.append(mapper.add_chunk(chunk, start))
            grouped = collect_anchor_arrays(index, chunk, read_offset=start)
            assert added[-1] == sum(rows.shape[0] for rows in grouped.values())
        assert min(added) > 0
        junk = np.random.default_rng(3).integers(0, 4, size=300).astype(np.uint8)
        assert mapper.add_chunk(junk, 600) < min(added)

    def test_finalize_unmapped_for_empty(self, index):
        mapper = IncrementalChunkMapper(index, 100)
        result = mapper.finalize("empty", np.empty(0, dtype=np.uint8))
        assert not result.mapped

    def test_gathered_rows_are_unique_and_sorted(self, index):
        """Chaining needs (ref_pos, read_pos) order; ``np.unique`` alone gives it.

        A read made of the same reverse-strand segment twice hits every
        reference position from two read positions, and the provisional
        read length puts one of each pair below zero after the flip --
        so ties on ref_pos must be broken numerically, not bytewise.
        """
        segment = index.reference.fetch(30_000, 30_600, strand=-1)
        read = np.concatenate([segment, segment])
        mapper = IncrementalChunkMapper(index, read_length=segment.size + index.config.k)
        for start in (600, 0, 450, 600):  # out of order, overlapping, repeated
            mapper.add_chunk(read[start : start + 600], start)
        rows = mapper._gathered()[-1]
        assert (rows[:, 1] < 0).any() and (rows[:, 1] > 0).any()
        assert np.unique(rows[:, 0]).size < rows.shape[0], "no ties on ref_pos"
        np.testing.assert_array_equal(rows, rows[np.lexsort((rows[:, 1], rows[:, 0]))])
        assert len(set(map(tuple, rows.tolist()))) == rows.shape[0]


class TestRunSeeding:
    """The pipeline feeds the mapper one run of chunks per ER stage."""

    @given(
        start=st.integers(min_value=0, max_value=190_000),
        length=st.integers(min_value=60, max_value=3_000),
        strand=st.sampled_from([1, -1]),
        error=st.sampled_from([0.0, 0.08, 0.2]),
        chunk_size=st.integers(min_value=50, max_value=200),
        seed=st.integers(min_value=0, max_value=2**16),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_run_anchors_equal_whole_read_anchors(
        self, index, start, length, strand, error, chunk_size, seed, data
    ):
        true = index.reference.fetch(start, start + length, strand=strand)
        codes = apply_errors(true, error, np.random.default_rng(seed)).codes
        if codes.size % chunk_size == 0:
            codes = codes[:-1]  # a short final chunk, always
        boundaries = list(range(chunk_size, codes.size, chunk_size))
        is_cut = data.draw(
            st.lists(st.booleans(), min_size=len(boundaries), max_size=len(boundaries))
        )
        run_ends = [b for b, cut in zip(boundaries, is_cut, strict=True) if cut] + [codes.size]

        # Mapper.map_read's seeding: the whole read in one call.
        whole = IncrementalChunkMapper(index, codes.size)
        whole.add_chunk(codes, 0)

        pipeline = GenPIPPipeline(index)
        runs = IncrementalChunkMapper(index, codes.size)
        seeded_bases = 0
        for end in run_ends:
            pipeline._seed_run(runs, codes[:end], seeded_bases)
            seeded_bases = end

        for strand_key, rows in whole._gathered().items():
            np.testing.assert_array_equal(runs._gathered()[strand_key], rows)
