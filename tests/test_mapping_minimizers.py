"""Tests for minimizer extraction and the reference index."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.genomics.alphabet import encode, kmer_codes, reverse_complement
from repro.genomics.reference import ReferenceGenome
from repro.mapping.index import MinimizerIndex
from repro.mapping.minimizers import (
    MinimizerConfig,
    _mix64,
    _revcomp_packed,
    minimizer_arrays,
)

CFG = MinimizerConfig(k=13, w=10)


def _unique_window_minima(codes, config):
    """``np.unique`` of every window's first minimum position, on the
    selection hashes ``minimizer_arrays`` documents: the smaller of a
    k-mer's two strand hashes, or the maximum when they tie."""
    k, w = config.k, config.w
    if codes.size < k:
        return np.empty(0, dtype=np.int64)
    fwd = kmer_codes(codes, k).astype(np.uint64)
    h_fwd, h_rev = _mix64(fwd), _mix64(_revcomp_packed(fwd, k))
    selectable = np.where(h_fwd == h_rev, np.iinfo(np.uint64).max, np.minimum(h_fwd, h_rev))
    windows = [selectable[i : i + w] for i in range(max(1, selectable.size - w + 1))]
    return np.unique([i + int(np.argmin(window)) for i, window in enumerate(windows)]).astype(np.int64)


class TestHash:
    def test_mix64_deterministic(self):
        x = np.array([1, 2, 3], dtype=np.uint64)
        np.testing.assert_array_equal(_mix64(x), _mix64(x))

    def test_mix64_injective_sample(self):
        x = np.arange(100_000, dtype=np.uint64)
        assert np.unique(_mix64(x)).size == x.size

    def test_revcomp_packed_matches_string(self):
        from repro.genomics.alphabet import kmer_to_int

        for kmer in ("ACGTACGTACGTA", "AAAAAAAAAAAAA", "GGGGGCCCCCTTT"):
            packed = np.array([kmer_to_int(kmer)], dtype=np.uint64)
            expected = kmer_to_int(reverse_complement(kmer))
            assert int(_revcomp_packed(packed, len(kmer))[0]) == expected

    @given(st.text(alphabet="ACGT", min_size=13, max_size=13))
    @settings(max_examples=100)
    def test_revcomp_packed_property(self, kmer):
        from repro.genomics.alphabet import kmer_to_int

        packed = np.array([kmer_to_int(kmer)], dtype=np.uint64)
        assert int(_revcomp_packed(packed, 13)[0]) == kmer_to_int(reverse_complement(kmer))


class TestMinimizerExtraction:
    def test_short_sequence_no_kmers(self):
        keys, positions, strands = minimizer_arrays(encode("ACGT"), CFG)
        assert keys.size == positions.size == strands.size == 0

    def test_sequence_shorter_than_window(self):
        seq = encode("ACGTACGTACGTACGTAC")  # 18 bases, 6 k-mers < w
        keys, positions, _ = minimizer_arrays(seq, CFG)
        assert keys.size == 1  # one global minimum

    def test_positions_sorted_unique(self):
        seq = ReferenceGenome.random(5_000, seed=1).codes
        _, positions, _ = minimizer_arrays(seq, CFG)
        assert np.all(np.diff(positions) > 0)

    def test_window_coverage_invariant(self):
        """Every w-window of k-mers contains at least one minimizer."""
        seq = ReferenceGenome.random(3_000, seed=2).codes
        _, positions, _ = minimizer_arrays(seq, CFG)
        covered = np.zeros(seq.size - CFG.k + 1, dtype=bool)
        covered[positions] = True
        n_windows = seq.size - CFG.k + 1 - CFG.w + 1
        for w_start in range(n_windows):
            assert covered[w_start : w_start + CFG.w].any()

    def test_density_near_expected(self):
        """Minimizer density approximates 2/(w+1)."""
        seq = ReferenceGenome.random(50_000, seed=3).codes
        _, positions, _ = minimizer_arrays(seq, CFG)
        density = positions.size / seq.size
        expected = 2.0 / (CFG.w + 1)
        assert expected * 0.8 < density < expected * 1.2

    def test_strand_symmetry(self):
        """A sequence and its revcomp share the same minimizer keys."""
        seq = ReferenceGenome.random(2_000, seed=4).codes
        keys_fwd, _, _ = minimizer_arrays(seq, CFG)
        keys_rev, _, _ = minimizer_arrays(reverse_complement(seq), CFG)
        assert set(keys_fwd.tolist()) == set(keys_rev.tolist())

    @given(
        codes=st.one_of(
            st.lists(st.integers(0, 3), max_size=300),
            # Homopolymers: every k-mer ties, every window's first
            # minimum is its first k-mer.
            st.tuples(st.integers(0, 3), st.integers(0, 300)).map(lambda t: [t[0]] * t[1]),
            # Short repeats: many ties, and palindromic (ambiguous) k-mers.
            st.tuples(st.lists(st.integers(0, 3), min_size=1, max_size=4), st.integers(0, 80)).map(
                lambda t: t[0] * t[1]
            ),
        ),
        k=st.integers(4, 15),
        w=st.integers(1, 40),
    )
    @settings(max_examples=200, deadline=None)
    def test_positions_are_np_unique_of_window_minima(self, codes, k, w):
        """Dropping repeated window minima is ``np.unique`` of them, on
        every input: ties, all-tie homopolymers, ``n_kmers <= w``."""
        codes = np.array(codes, dtype=np.uint8)
        config = MinimizerConfig(k=k, w=w)
        keys, positions, strands = minimizer_arrays(codes, config)
        want = _unique_window_minima(codes, config)
        assert positions.dtype == want.dtype and positions.tobytes() == want.tobytes()
        assert keys.size == strands.size == positions.size

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MinimizerConfig(k=3)
        with pytest.raises(ValueError):
            MinimizerConfig(w=0)

    @pytest.mark.parametrize(
        "field",
        [
            {"w": float("inf")},  # one window per call, silently
            {"w": float("nan")},
            {"w": 2.5},
            {"k": 13.5},
            {"w": True},
            {"k": np.float64(13.0)},
        ],
        ids=repr,
    )
    def test_config_refuses_what_it_cannot_honour(self, field):
        """``k`` and ``w`` are integers the scan takes as ``int64``: a
        float, NaN, infinity or ``bool`` is refused when constructed,
        not inside the scan."""
        with pytest.raises(TypeError, match="must be an integer"):
            MinimizerConfig(**field)

    def test_config_takes_numpy_integers(self, seeding):
        seq = ReferenceGenome.random(500, seed=6).codes
        got = minimizer_arrays(seq, MinimizerConfig(k=np.int64(13), w=np.int32(10)))
        for array, want in zip(got, minimizer_arrays(seq, CFG), strict=True):
            assert array.tobytes() == want.tobytes()
        assert got[0].size > 0

    def test_window_wider_than_any_sequence_is_one_window(self, seeding):
        """A ``w`` past ``int64`` (the compiled scan's argument type) is
        still the one window of the whole sequence."""
        seq = ReferenceGenome.random(300, seed=8).codes
        wide = minimizer_arrays(seq, MinimizerConfig(k=13, w=2**70))
        single = minimizer_arrays(seq, MinimizerConfig(k=13, w=seq.size))
        assert wide[1].size == 1
        for got, want in zip(wide, single, strict=True):
            assert got.tobytes() == want.tobytes()


class TestMinimizerIndex:
    @pytest.fixture(scope="class")
    def index(self):
        return MinimizerIndex.build(ReferenceGenome.random(60_000, seed=5), CFG)

    def test_lookup_roundtrip(self, index):
        """Every indexed key's positions really carry that minimizer."""
        ref = index.reference
        keys, positions, _ = minimizer_arrays(ref.codes, CFG)
        for key, pos in list(zip(keys.tolist(), positions.tolist(), strict=True))[:200]:
            entry = index.lookup(key)
            if entry is not None:  # may have been dropped as repetitive
                assert pos in entry.positions.tolist()

    def test_missing_key(self, index):
        assert index.lookup(0xDEADBEEF12345) is None
        assert 0xDEADBEEF12345 not in index

    def test_len_and_locations(self, index):
        assert len(index) > 1000
        assert index.n_locations() >= len(index)

    def test_max_occurrences_filter(self):
        # A pure repeat genome: its few minimizer keys recur thousands of
        # times and must be dropped by the occurrence filter.
        repeat = ReferenceGenome.from_string("ACGGT" * 4_000)
        index = MinimizerIndex.build(repeat, CFG, max_occurrences=16)
        assert index.n_locations() == 0

    def test_contains(self, index):
        some_key = next(iter(index.keys()))
        assert some_key in index
