"""Tests for affine-gap alignment and CIGARs."""

from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import fallback, require_native
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.kernels.native as native
from repro.core import GenPIPConfig, GenPIPPipeline
from repro.genomics.alphabet import encode
from repro.genomics.mutate import apply_errors
from repro.genomics.reference import ReferenceGenome
from repro.kernels.mapping_ops import process_mapping_ops
from repro.mapping import MinimizerIndex
from repro.mapping.alignment import (
    AlignmentConfig,
    AlignmentResult,
    align_chain,
    align_chain_native,
    align_global,
    cigar_to_string,
)
from repro.nanopore.datasets import ECOLI_LIKE, generate_dataset, small_profile
from repro.runtime.engine import DatasetEngine
from repro.runtime.sink import outcome_to_record

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


def _cells_and_result(stitch):
    """What ``stitch()`` returns, and the ``align-cell`` cells it charged."""
    ledger = process_mapping_ops()
    before = ledger.value("align-cell")
    result = stitch()
    return ledger.value("align-cell") - before, result


@st.composite
def _chains(draw):
    """A reference, a read oriented to it, a chain and a config built to
    reach every piece of the stitch: exact gaps (``dx == dy``, equal
    spans), equal-length gaps that differ, ragged and one-sided gaps,
    gaps over ``max_segment_cells``, anchors closer than ``k`` to the
    last kept one, single-anchor chains, head and tail windows clipped
    at the reference's ends (no reference before the first anchor or
    after the last) and by ``max_end_extension``, and reads that start
    or end at an anchor. Two-letter alphabets make chance matches and
    co-optimal paths common."""
    k = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    letters = draw(st.sampled_from([2, 4]))

    def codes(size):
        return rng.integers(0, letters, size).astype(np.uint8)

    def mutated(span):
        changed = span.copy()
        flips = rng.random(span.size) < 0.3
        changed[flips] = codes(int(flips.sum()))
        return changed

    ref = [codes(draw(st.integers(0, 30)))]
    copied = mutated(ref[0][max(ref[0].size - draw(st.integers(0, 40)), 0) :])
    read = [np.concatenate([codes(draw(st.integers(0, 12))), copied])]
    anchors = []
    gaps = st.tuples(
        st.sampled_from(["exact", "same-length", "ragged"]),
        st.integers(0, 30),
        st.integers(0, 30),
        st.integers(-1, 8),  # >= 0: an anchor fewer than k read bases past, thinned
    )
    for kind, dx, dy, close in draw(st.lists(gaps, max_size=5)):
        rx, ry = sum(map(len, ref)), sum(map(len, read))
        if anchors:
            span = codes(dx)
            ref.append(span)
            read.append({"exact": span, "same-length": mutated(span)}.get(kind, codes(dy)))
            rx, ry = rx + dx, ry + read[-1].size
        anchors.append((rx, ry))
        if 0 <= close:
            anchors.append((rx + close, ry + min(close, k - 1)))
        kmer = codes(k)
        ref.append(kmer)
        read.append(kmer)
    if not anchors:
        anchors.append((sum(map(len, ref)), sum(map(len, read))))
        ref.append(codes(k))
        read.append(ref[-1])
    tail = codes(draw(st.integers(0, 40)))
    ref.append(tail)
    read.append(mutated(tail[: draw(st.integers(0, 40))]))
    config = AlignmentConfig(
        *draw(st.sampled_from([(2, -4, -4, -2), (1, -1, -6, -1), (3, -2, -1, -1)])),
        max_end_extension=draw(st.sampled_from([0, 3, 12, 400])),
        max_segment_cells=draw(st.sampled_from([0, 40, 300, 4_000_000])),
    )
    return np.concatenate(ref), np.concatenate(read), np.array(anchors, dtype=np.int64), k, config


class TestCompiledStitch:
    """``gotoh.c``'s ``align_chain`` (:func:`align_chain_native`) against
    the Python stitch, :func:`align_chain`, its fallback and reference."""

    @given(_chains())
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_compiled_stitch_equals_the_python_stitch(self, chain):
        require_native("gotoh")
        reference, read, anchors, k, config = chain
        expected_cells, (expected, start, end) = _cells_and_result(
            lambda: align_chain(reference, read, anchors, k, config)
        )
        cells, (got, got_start, got_end) = _cells_and_result(
            lambda: align_chain_native(native.kernel("gotoh"), reference, read, anchors, k, config)
        )
        assert got.cigar == expected.cigar
        assert np.float64(got.score).tobytes() == np.float64(expected.score).tobytes()
        assert (got_start, got_end) == (start, end)
        assert got.identity == expected.identity == AlignmentResult(got.score, got.cigar).identity
        assert cells == expected_cells
        assert got.read_consumed == read.size

    def test_the_pieces_the_property_reaches(self):
        """A fixed chain with every piece at once: an exact gap, an
        equal-length gap that differs, a gap over the cell cap, a thinned
        anchor, and both ends clipped by the extension cap."""
        require_native("gotoh")
        rng = np.random.default_rng(31)
        reference = rng.integers(0, 4, 400).astype(np.uint8)
        # Read base i is reference base 100 + i up to 100, then 130 + i.
        read = np.concatenate([reference[100:200], reference[230:300]])
        read[72:76] = (read[72:76] + 1) % 4  # the equal-length gap that differs
        anchors = np.array([[140, 40], [142, 42], [160, 60], [180, 80], [250, 120]], dtype=np.int64)
        config = AlignmentConfig(max_end_extension=25, max_segment_cells=400)
        expected = align_chain(reference, read, anchors, 10, config)
        got = align_chain_native(native.kernel("gotoh"), reference, read, anchors, 10, config)
        assert got == expected
        ops = cigar_to_string(expected[0].cigar)
        assert ops.startswith("15S57=") and ops.endswith("=15S")
        assert "X" in ops and "60D30I" in ops

    @pytest.mark.parametrize(
        ("case", "error"),
        [
            ("empty chain", ValueError),
            ("int32 anchors", TypeError),
            ("strided anchors", TypeError),
            ("Fortran-order anchors", TypeError),
            ("anchor list", TypeError),
            ("three columns", ValueError),
            ("flat anchors", ValueError),
            ("k of 0", ValueError),
            ("k of 2.5", TypeError),
            ("int64 code past a byte", ValueError),
            ("negative code", ValueError),
        ],
    )
    def test_both_stitches_refuse_before_any_compiled_code(self, case, error):
        """Each refusal comes, with the same type and message, from the
        Python stitch and from :func:`align_chain_native` -- there before
        the compiled ``align_chain`` is called."""
        reference, read, anchors, k = self._inputs(case)

        def unreachable(*_args):
            raise AssertionError("the compiled stitch ran")

        stub = SimpleNamespace(align_chain=unreachable)
        with pytest.raises(error) as python:
            align_chain(reference, read, anchors, k, CFG)
        with pytest.raises(error) as compiled:
            align_chain_native(stub, reference, read, anchors, k, CFG)
        assert str(compiled.value) == str(python.value)

    @pytest.mark.parametrize(
        "case",
        [
            "code 4 in a segment",
            "code 255 in the head window",
            "code 7 in the tail of the read",
            "anchor past the read",
            "anchor past the reference",
            "negative anchor",
            "code 9 past a bad anchor",
        ],
    )
    def test_both_stitches_refuse_what_the_compiled_walk_finds(self, case):
        """A lane's code above 3 and a kept anchor outside a sequence are
        found by the compiled walk itself: the same type and message as
        the Python stitch, and no cells charged on either."""
        require_native("gotoh")
        reference, read, anchors, k = self._inputs(case)
        ledger = process_mapping_ops()
        before = ledger.value("align-cell")
        with pytest.raises(ValueError) as python:
            align_chain(reference, read, anchors, k, CFG)
        with pytest.raises(ValueError) as compiled:
            align_chain_native(native.kernel("gotoh"), reference, read, anchors, k, CFG)
        assert str(compiled.value) == str(python.value)
        assert ledger.value("align-cell") == before

    def test_codes_above_3_that_no_lane_reads_are_aligned_by_both(self):
        """An anchor k-mer and an exact gap are never filled, so neither
        stitch reads their codes as bases: both accept a 7 there."""
        require_native("gotoh")
        reference, read, anchors, k = self._inputs("none")
        reference[500:505] = 7
        read[200:205] = 7  # the first anchor's k-mer
        expected = align_chain(reference, read, anchors, k, CFG)
        assert align_chain_native(native.kernel("gotoh"), reference, read, anchors, k, CFG) == expected

    def test_failed_allocation_raises_memory_error(self):
        """The compiled stitch returns -1 when its scratch ``malloc``
        fails: the call raises ``MemoryError`` and charges nothing."""
        reference, read, anchors, k = self._inputs("none")
        failing = SimpleNamespace(align_chain=lambda *_args: -1)
        ledger = process_mapping_ops()
        before = ledger.value("align-cell")
        with pytest.raises(MemoryError, match="gotoh.c"):
            align_chain_native(failing, reference, read, anchors, k, CFG)
        assert ledger.value("align-cell") == before

    def test_threads_stitch_at_once(self):
        """ctypes releases the GIL and the compiled stitch keeps no state
        between calls: reads stitched on two threads at once get what
        lone calls give."""
        require_native("gotoh")
        library = native.kernel("gotoh")
        rng = np.random.default_rng(33)
        reference = rng.integers(0, 4, 20_000).astype(np.uint8)
        jobs = []
        for start in range(0, 16_000, 2_000):
            read = apply_errors(reference[start : start + 3_000], 0.1, rng).codes
            anchors = np.array([[start, 0]], dtype=np.int64)
            jobs.append((reference, read, anchors, 1, CFG))
        alone = [align_chain_native(library, *job) for job in jobs]
        with ThreadPoolExecutor(2) as pool:
            together = list(pool.map(lambda job: align_chain_native(library, *job), jobs * 2))
        assert together == alone * 2

    @staticmethod
    def _inputs(case):
        """A 3 kb reference, a read copied from it with a few edits, and
        an exact chain of 13-mers over it; ``case`` breaks one of them."""
        rng = np.random.default_rng(32)
        reference = rng.integers(0, 4, 3_000).astype(np.uint8)
        read = apply_errors(reference[300:1_300], 0.05, rng).codes.copy()
        read[200:213] = reference[500:513]
        read[600:613] = reference[900:913]
        anchors = np.array([[500, 200], [900, 600]], dtype=np.int64)
        k = 13
        if case == "empty chain":
            anchors = anchors[:0]
        elif case == "int32 anchors":
            anchors = anchors.astype(np.int32)
        elif case == "strided anchors":
            anchors = np.repeat(anchors, 2, axis=0)[::2]
        elif case == "Fortran-order anchors":
            anchors = np.asfortranarray(anchors)
        elif case == "anchor list":
            anchors = anchors.tolist()
        elif case == "three columns":
            anchors = np.zeros((2, 3), dtype=np.int64)
        elif case == "flat anchors":
            anchors = anchors.ravel()
        elif case == "k of 0":
            k = 0
        elif case == "k of 2.5":
            k = 2.5
        elif case == "int64 code past a byte":
            read = read.astype(np.int64)
            read[400] = 65_536 + 1
        elif case == "negative code":
            reference = reference.astype(np.int64)
            reference[700] = -1
        elif case == "code 4 in a segment":
            read[400] = 4
        elif case == "code 255 in the head window":
            reference[450] = 255
        elif case == "code 7 in the tail of the read":
            read[-5] = 7
        elif case == "anchor past the read":
            anchors[1, 1] = read.size - k + 1
        elif case == "anchor past the reference":
            anchors[1, 0] = reference.size - k + 1
        elif case == "negative anchor":
            anchors = np.array([[-1, 0]], dtype=np.int64)
        elif case == "code 9 past a bad anchor":
            read[400] = 9
            anchors[1, 1] = read.size
        return reference, read, anchors, k

    def test_aligned_run_charges_the_same_cells_on_both_paths(self):
        """An ``ecoli-align``-shaped run -- 3 kb E. coli-like reads, the
        surrogate basecaller, alignment on -- gives the same records and
        charges the same ``align-cell`` cells with the compiled stitch
        as with its fallback, the Python stitch over ``gotoh_scalar``."""
        require_native("gotoh")
        dataset = generate_dataset(
            small_profile(ECOLI_LIKE, max_read_length=3_000), scale=0.0002, seed=7
        )
        pipeline = GenPIPPipeline(
            MinimizerIndex.build(dataset.reference), config=GenPIPConfig(), align=True
        )

        def run():
            outcomes = DatasetEngine(pipeline, workers=1).run(dataset.reads).outcomes
            return [outcome_to_record(outcome) for outcome in outcomes]

        cells, records = _cells_and_result(run)
        with fallback("gotoh"):
            fallback_cells, fallback_records = _cells_and_result(run)
        assert sum(record["status"] == "mapped" for record in records) >= 3
        assert cells == fallback_cells > 0
        assert records == fallback_records
