"""Tests for reference genomes."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.genomics.alphabet import decode, reverse_complement
from repro.genomics.reference import ReferenceGenome


class TestReferenceGenome:
    def test_random_is_deterministic(self):
        a = ReferenceGenome.random(5_000, seed=3)
        b = ReferenceGenome.random(5_000, seed=3)
        np.testing.assert_array_equal(a.codes, b.codes)

    def test_random_differs_across_seeds(self):
        a = ReferenceGenome.random(5_000, seed=3)
        b = ReferenceGenome.random(5_000, seed=4)
        assert not np.array_equal(a.codes, b.codes)

    def test_length(self):
        assert len(ReferenceGenome.random(1234, seed=0)) == 1234

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            ReferenceGenome.random(0, seed=0)

    @pytest.mark.parametrize("gc_content", [-0.1, 1.5, True])
    def test_rejects_bad_gc(self, gc_content):
        with pytest.raises(ValueError, match="gc_content"):
            ReferenceGenome.random(100, seed=0, gc_content=gc_content)

    def test_from_string_upper_cases(self):
        assert ReferenceGenome.from_string("acgT").bases == "ACGT"

    def test_from_string_rejects_invalid(self):
        with pytest.raises(ValueError, match="invalid DNA"):
            ReferenceGenome.from_string("ACGN")

    def test_fetch_forward(self):
        ref = ReferenceGenome.from_string("ACGTACGT")
        np.testing.assert_array_equal(ref.fetch(2, 6), [2, 3, 0, 1])

    def test_fetch_reverse_is_revcomp(self):
        ref = ReferenceGenome.from_string("ACGTACGT")
        fwd = ref.fetch_bases(1, 5)
        rev = ref.fetch_bases(1, 5, strand=-1)
        assert rev == reverse_complement(fwd)

    @given(st.text(alphabet="ACGT", max_size=80), st.data())
    def test_fetch_bases_is_decoded_fetch(self, bases, data):
        ref = ReferenceGenome.from_string(bases)
        start = data.draw(st.integers(0, len(bases)))
        end = data.draw(st.integers(start, len(bases)))
        forward = ref.fetch_bases(start, end)
        assert forward == bases[start:end] == decode(ref.fetch(start, end))
        assert ref.fetch_bases(start, end, strand=-1) == reverse_complement(forward)

    def test_fetch_bounds_checked(self):
        ref = ReferenceGenome.from_string("ACGT")
        with pytest.raises(ValueError):
            ref.fetch(0, 5)
        with pytest.raises(ValueError):
            ref.fetch(-1, 2)

    def test_fetch_bad_strand(self):
        ref = ReferenceGenome.from_string("ACGT")
        with pytest.raises(ValueError):
            ref.fetch(0, 2, strand=0)

    def test_codes_are_immutable(self):
        ref = ReferenceGenome.random(100, seed=0)
        with pytest.raises(ValueError):
            ref.codes[0] = 1

    def test_repeats_planted(self):
        # With a high repeat fraction, some 100-mers must occur twice.
        ref = ReferenceGenome.random(30_000, seed=5, repeat_fraction=0.3, repeat_unit=300)
        text = ref.bases
        probe = text[:100]
        plain = ReferenceGenome.random(30_000, seed=5, repeat_fraction=0.0)
        # The repeat-planted genome has strictly fewer distinct 64-mers.
        def distinct_kmers(s, k=64, step=17):
            return len({s[i : i + k] for i in range(0, len(s) - k, step)})

        assert distinct_kmers(text) <= distinct_kmers(plain.bases)

    def test_gc_content_parameter(self):
        ref = ReferenceGenome.random(30_000, seed=1, gc_content=0.7)
        bases = ref.bases
        gc = (bases.count("G") + bases.count("C")) / len(bases)
        assert 0.65 < gc < 0.75
