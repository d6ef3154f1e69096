"""Tests for affine-gap alignment and CIGARs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.genomics.alphabet import encode
from repro.genomics.mutate import apply_errors
from repro.genomics.reference import ReferenceGenome
from repro.mapping.alignment import (
    AlignmentConfig,
    AlignmentResult,
    align_global,
    align_chain,
    cigar_to_string,
)

dna = st.text(alphabet="ACGT", min_size=0, max_size=60)
CFG = AlignmentConfig()


class TestAlignGlobal:
    def test_identical(self):
        result = align_global(encode("ACGTACGT"), encode("ACGTACGT"), CFG)
        assert cigar_to_string(result.cigar) == "8="
        assert result.score == pytest.approx(16.0)
        assert result.identity == 1.0

    def test_single_mismatch(self):
        result = align_global(encode("ACGTACGT"), encode("ACGAACGT"), CFG)
        assert result.n_mismatches == 1
        assert result.n_matches == 7
        assert result.score == pytest.approx(7 * 2 - 4)

    def test_single_insertion(self):
        result = align_global(encode("ACGTACGT"), encode("ACGTTACGT"), CFG)
        assert result.n_insertions == 1
        assert result.score == pytest.approx(8 * 2 - 4 - 2)

    def test_single_deletion(self):
        result = align_global(encode("ACGTACGT"), encode("ACGACGT"), CFG)
        assert result.n_deletions == 1

    def test_affine_prefers_one_long_gap(self):
        # Affine gaps: one 3-base gap beats three scattered 1-base gaps.
        result = align_global(encode("AAACCCTTT"), encode("AAATTT"), CFG)
        ops = [op for op, _ in result.cigar]
        assert ops.count("D") == 1
        assert dict(result.cigar).get("D") == 3

    def test_empty_inputs(self):
        assert align_global(encode(""), encode(""), CFG).cigar == ()
        result = align_global(encode("ACG"), encode(""), CFG)
        assert cigar_to_string(result.cigar) == "3D"
        result = align_global(encode(""), encode("ACG"), CFG)
        assert cigar_to_string(result.cigar) == "3I"

    def test_cigar_consumes_both_sequences(self):
        a = encode("ACGTACGTACGTAAAA")
        b = encode("ACGTACGGTACGTAA")
        result = align_global(a, b, CFG)
        assert result.ref_consumed == a.size
        assert result.read_consumed == b.size

    def test_long_read_against_short_ref(self):
        # Every ref base matches and the 80 extra read bases form one gap.
        result = align_global(encode("ACGT" * 10), encode("ACGT" * 30), CFG)
        assert result.n_matches == 40
        assert [n for op, n in result.cigar if op == "I"] == [80]
        assert result.score == pytest.approx(40 * 2 - 4 - 80 * 2)

    def test_noisy_copy_identity(self):
        rng = np.random.default_rng(16)
        ref = rng.integers(0, 4, size=300).astype(np.uint8)
        read = apply_errors(ref, 0.1, rng).codes
        result = align_global(ref, read, CFG)
        assert (result.ref_consumed, result.read_consumed) == (ref.size, read.size)
        assert 0.7 < result.identity < 1.0

    def test_identity_counts_gaps_and_excludes_clips(self):
        cigar = (("S", 4), ("=", 6), ("X", 1), ("I", 2), ("D", 1))
        assert AlignmentResult(score=0.0, cigar=cigar).identity == pytest.approx(0.6)
        assert AlignmentResult(score=0.0, cigar=(("S", 3),)).identity == 0.0

    @given(dna, dna)
    @settings(max_examples=60, deadline=None)
    def test_cigar_consumption_property(self, a, b):
        result = align_global(encode(a), encode(b), CFG)
        assert result.ref_consumed == len(a)
        assert result.read_consumed == len(b)

    @given(dna, dna)
    @settings(max_examples=60, deadline=None)
    def test_score_symmetry(self, a, b):
        # Swapping inputs preserves the optimal score (op composition
        # may differ between equally-scoring alignments).
        fwd = align_global(encode(a), encode(b), CFG)
        rev = align_global(encode(b), encode(a), CFG)
        assert fwd.score == pytest.approx(rev.score)
        assert rev.ref_consumed == len(b)
        assert rev.read_consumed == len(a)

    @given(dna)
    @settings(max_examples=40, deadline=None)
    def test_self_alignment_perfect(self, a):
        result = align_global(encode(a), encode(a), CFG)
        assert result.n_matches == len(a)
        assert result.n_mismatches == result.n_insertions == result.n_deletions == 0

    def test_score_matches_cigar_recount(self):
        rng = np.random.default_rng(12)
        a = rng.integers(0, 4, size=90).astype(np.uint8)
        b = apply_errors(a, 0.12, rng).codes
        result = align_global(a, b, CFG)
        recount = 0.0
        for op, length in result.cigar:
            if op == "=":
                recount += CFG.match * length
            elif op == "X":
                recount += CFG.mismatch * length
            elif op in ("I", "D"):
                recount += CFG.gap_open + CFG.gap_extend * length
        assert result.score == pytest.approx(recount)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AlignmentConfig(match=-1.0)
        with pytest.raises(ValueError):
            AlignmentConfig(mismatch=1.0)

    def test_non_integer_scores_rejected(self):
        # The two Gotoh fills agree bit for bit only in exact arithmetic.
        for field in ("match", "mismatch", "gap_open", "gap_extend"):
            value = 2.5 if field == "match" else -2.5
            with pytest.raises(ValueError, match="integer-valued"):
                AlignmentConfig(**{field: value})
        assert AlignmentConfig(match=3, mismatch=-5.0).match == 3

    @pytest.mark.parametrize(
        ("field", "value"),
        [
            ("gap_open", -1e18),
            ("gap_extend", -(2.0**20) - 1),
            ("mismatch", -(2.0**53)),
            ("match", 2.0**21),
        ],
    )
    def test_scores_beyond_two_to_the_twenty_rejected(self, field, value):
        # A gap open of -1e18 once met the fills' minus-infinity sentinel
        # and sent gotoh_scalar's traceback out of its tables.
        with pytest.raises(ValueError, match=rf"{field} must be a finite number .*1048576"):
            AlignmentConfig(**{field: value})
        assert AlignmentConfig(match=2**20, gap_open=-(2**20)).gap_open == -(2**20)

    @pytest.mark.parametrize(
        ("ref", "read"),
        [([65536, 1, 2], [0, 1, 2]), ([0, 1, 2], [0, 4, 2]), ([0, -1], [0, 3])],
    )
    def test_codes_outside_the_2_bit_alphabet_rejected(self, ref, read, gotoh):
        # A numpy fill (since deleted) compared codes as int16: 65536
        # wrapped to 0 and scored as a match where its own CIGAR said 1X.
        with pytest.raises(ValueError, match="2-bit"):
            align_global(np.array(ref), np.array(read), CFG)

    def test_negative_end_extension_rejected(self):
        # A negative extension once soft-clipped more bases than the read has.
        with pytest.raises(ValueError, match="max_end_extension"):
            AlignmentConfig(max_end_extension=-5)
        assert AlignmentConfig(max_end_extension=0).max_end_extension == 0

    def test_negative_segment_cell_cap_rejected(self):
        # A negative cap once turned every non-exact segment into D+I.
        with pytest.raises(ValueError, match="max_segment_cells"):
            AlignmentConfig(max_segment_cells=-1)
        assert AlignmentConfig(max_segment_cells=0).max_segment_cells == 0

    @pytest.mark.parametrize(
        ("field", "value"),
        [
            ("max_end_extension", 10.5),
            ("max_end_extension", float("nan")),
            ("max_end_extension", True),
            ("max_segment_cells", float("nan")),
            ("max_segment_cells", float("inf")),
            ("max_segment_cells", 400.0),
        ],
    )
    def test_caps_must_be_integers(self, field, value):
        # 10.5 once constructed and then failed in align_chain as a slice
        # index; a NaN cell cap compared False with every segment, so
        # every gap went to the fill, and a NaN extension meant no cap.
        with pytest.raises(TypeError, match=field):
            AlignmentConfig(**{field: value})
        assert getattr(AlignmentConfig(**{field: np.int64(7)}), field) == 7


class TestAlignChain:
    @pytest.fixture(scope="class")
    def setup(self):
        ref = ReferenceGenome.random(50_000, seed=13)
        return ref

    def _chain_for(self, ref, start, read_codes, k=13, spacing=40):
        """Fabricate exact anchors between read and ref every `spacing` bases."""
        anchors = []
        for offset in range(0, read_codes.size - k, spacing):
            anchors.append((start + offset, offset))
        return np.array(anchors, dtype=np.int64)

    def test_exact_read(self, setup):
        ref = setup
        read = ref.fetch(10_000, 12_000)
        anchors = self._chain_for(ref, 10_000, read)
        result, ref_start, ref_end = align_chain(ref.codes, read, anchors, 13, CFG)
        assert result.n_mismatches == 0
        assert result.n_matches == read.size
        assert ref_start == 10_000
        assert ref_end == 12_000

    def test_noisy_read_identity(self, setup):
        ref = setup
        rng = np.random.default_rng(14)
        true = ref.fetch(20_000, 24_000)
        noisy = apply_errors(true, 0.1, rng)
        # Anchor only where source positions are exact (no errors nearby):
        # easier to just use true positions of sampled exact 13-mers.
        anchors = []
        src = noisy.source_index
        for offset in range(0, noisy.codes.size - 13, 60):
            window_src = src[offset : offset + 13]
            if window_src[-1] - window_src[0] == 12 and np.array_equal(
                noisy.codes[offset : offset + 13],
                true[window_src[0] : window_src[0] + 13],
            ):
                anchors.append((20_000 + int(window_src[0]), offset))
        anchors = np.array(anchors, dtype=np.int64)
        assert anchors.shape[0] > 10
        result, _, _ = align_chain(ref.codes, noisy.codes, anchors, 13, CFG)
        assert result.identity > 0.82
        assert result.read_consumed == noisy.codes.size

    def test_empty_chain_rejected(self, setup):
        with pytest.raises(ValueError):
            align_chain(setup.codes, encode("ACGT"), np.empty((0, 2), dtype=np.int64), 13, CFG)

    def test_long_tail_soft_clipped(self, setup):
        ref = setup
        matched = ref.fetch(30_000, 31_000)
        junk = np.random.default_rng(15).integers(0, 4, size=2_000).astype(np.uint8)
        read = np.concatenate([matched, junk])
        anchors = self._chain_for(ref, 30_000, matched)
        config = AlignmentConfig(max_end_extension=100)
        result, _, _ = align_chain(ref.codes, read, anchors, 13, config)
        assert result.n_clipped >= 2_000 - 100
        assert result.read_consumed == read.size
