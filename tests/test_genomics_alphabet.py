"""Unit and property tests for the DNA alphabet module."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.genomics import alphabet

dna = st.text(alphabet="ACGT", min_size=0, max_size=200)
dna_nonempty = st.text(alphabet="ACGT", min_size=1, max_size=200)


class TestEncodeDecode:
    def test_encode_known_values(self):
        np.testing.assert_array_equal(alphabet.encode("ACGT"), [0, 1, 2, 3])

    def test_encode_lowercase(self):
        np.testing.assert_array_equal(alphabet.encode("acgt"), [0, 1, 2, 3])

    def test_encode_empty(self):
        assert alphabet.encode("").size == 0

    def test_encode_rejects_invalid(self):
        with pytest.raises(ValueError, match="invalid DNA"):
            alphabet.encode("ACGN")

    def test_decode_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            alphabet.decode(np.array([0, 4], dtype=np.uint8))

    @given(dna)
    def test_roundtrip(self, seq):
        assert alphabet.decode(alphabet.encode(seq)) == seq


class TestValidation:
    """``encode`` is the alphabet's validator: it accepts exactly ACGT in
    either case and names the first character it rejects."""

    @given(st.text(alphabet="ACGTacgt", max_size=200))
    def test_valid(self, seq):
        np.testing.assert_array_equal(alphabet.encode(seq), alphabet.encode(seq.upper()))
        assert alphabet.decode(alphabet.encode(seq)) == seq.upper()

    @given(
        dna,
        st.characters(min_codepoint=32, max_codepoint=126).filter(
            lambda c: c not in "ACGTacgt"
        ),
        dna,
    )
    def test_invalid(self, head, bad, tail):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            alphabet.encode(head + bad + tail)

    def test_empty_is_valid(self):
        codes = alphabet.encode("")
        assert codes.dtype == np.uint8 and codes.size == 0
        assert alphabet.decode(codes) == ""

    def test_non_ascii(self):
        with pytest.raises(ValueError):
            alphabet.encode("ACG\u00e9")


class TestReverseComplement:
    def test_string(self):
        assert alphabet.reverse_complement("AACC") == "GGTT"

    def test_palindrome(self):
        assert alphabet.reverse_complement("ACGT") == "ACGT"

    def test_array_matches_string(self):
        seq = "ACGGTTAC"
        via_array = alphabet.decode(alphabet.reverse_complement(alphabet.encode(seq)))
        assert via_array == alphabet.reverse_complement(seq)

    @given(dna)
    def test_array_matches_string_property(self, seq):
        via_array = alphabet.decode(alphabet.reverse_complement(alphabet.encode(seq)))
        assert via_array == alphabet.reverse_complement(seq)

    @given(dna)
    def test_involution(self, seq):
        assert alphabet.reverse_complement(alphabet.reverse_complement(seq)) == seq

    @given(dna)
    def test_preserves_length(self, seq):
        assert len(alphabet.reverse_complement(seq)) == len(seq)


class TestKmerPacking:
    def test_known_values(self):
        assert alphabet.kmer_to_int("AAA") == 0
        assert alphabet.kmer_to_int("AAC") == 1
        assert alphabet.kmer_to_int("TTT") == 63

    @given(st.text(alphabet="ACGT", min_size=1, max_size=31))
    def test_roundtrip(self, kmer):
        """``kmer_to_int`` packs as ``kmer_codes`` does, up to k = 31."""
        packed = alphabet.kmer_to_int(kmer)
        assert 0 <= packed < 4 ** len(kmer)
        assert packed == int(alphabet.kmer_codes(alphabet.encode(kmer), len(kmer))[0])

    def test_kmer_to_int_rejects_invalid(self):
        with pytest.raises(ValueError, match="invalid DNA"):
            alphabet.kmer_to_int("ACN")

    def test_kmer_codes_matches_scalar(self):
        seq = "ACGTTGCAACGT"
        codes = alphabet.encode(seq)
        packed = alphabet.kmer_codes(codes, 4)
        expected = [alphabet.kmer_to_int(seq[i : i + 4]) for i in range(len(seq) - 3)]
        np.testing.assert_array_equal(packed, expected)

    def test_kmer_codes_short_input(self):
        assert alphabet.kmer_codes(alphabet.encode("AC"), 5).size == 0

    def test_kmer_codes_rejects_bad_k(self):
        with pytest.raises(ValueError):
            alphabet.kmer_codes(alphabet.encode("ACGT"), 0)
        with pytest.raises(ValueError):
            alphabet.kmer_codes(alphabet.encode("ACGT"), 32)

    @given(dna_nonempty, st.integers(min_value=1, max_value=8))
    @settings(max_examples=50)
    def test_kmer_codes_length(self, seq, k):
        packed = alphabet.kmer_codes(alphabet.encode(seq), k)
        assert packed.size == max(0, len(seq) - k + 1)


class TestComplementCodes:
    def test_pairs(self):
        for code in range(4):
            single = np.array([code], dtype=np.uint8)
            np.testing.assert_array_equal(alphabet.reverse_complement(single), [3 - code])

    def test_array_result_is_a_new_uint8_array(self):
        codes = alphabet.encode("AACGT")
        out = alphabet.reverse_complement(codes)
        assert out.dtype == np.uint8
        out[:] = 0
        np.testing.assert_array_equal(codes, alphabet.encode("AACGT"))
