"""Tests for the sequencing-error model."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.genomics.alphabet import encode
from repro.genomics.mutate import ErrorProfile, MutationResult, apply_errors


class TestErrorProfile:
    def test_default_normalises(self):
        sub, ins, dele = ErrorProfile().split(0.12)
        assert sub + ins + dele == pytest.approx(0.12)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ErrorProfile(substitution=-0.1)

    @pytest.mark.parametrize("field", ["substitution", "insertion", "deletion"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_rejects_non_finite_weight(self, field, value):
        """Accepted, a NaN substitution weight deleted every base (1 000
        of 1 000 at p = 0.2) and an infinite insertion weight injected
        no error at all."""
        with pytest.raises(ValueError, match="finite"):
            ErrorProfile(**{field: value})

    def test_rejects_a_bool_weight(self):
        with pytest.raises(ValueError, match="substitution"):
            ErrorProfile(substitution=True)

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            ErrorProfile(0.0, 0.0, 0.0)

    def test_split_ratios(self):
        profile = ErrorProfile(substitution=1.0, insertion=0.0, deletion=1.0)
        sub, ins, dele = profile.split(0.2)
        assert sub == pytest.approx(0.1)
        assert ins == 0.0
        assert dele == pytest.approx(0.1)


class TestApplyErrors:
    def test_zero_error_is_identity(self):
        codes = encode("ACGT" * 100)
        result = apply_errors(codes, 0.0, np.random.default_rng(0))
        np.testing.assert_array_equal(result.codes, codes)
        assert result.n_errors == 0

    def test_full_deletion(self):
        codes = encode("ACGT" * 10)
        profile = ErrorProfile(substitution=0.0, insertion=0.0, deletion=1.0)
        result = apply_errors(codes, 1.0, np.random.default_rng(0), profile)
        assert result.codes.size == 0
        assert result.n_deletions == codes.size

    def test_substitutions_always_change_base(self):
        codes = encode("A" * 2000)
        profile = ErrorProfile(substitution=1.0, insertion=0.0, deletion=0.0)
        result = apply_errors(codes, 1.0, np.random.default_rng(1), profile)
        assert result.codes.size == codes.size
        assert not np.any(result.codes == 0)  # every A substituted away

    def test_insertions_grow_sequence(self):
        codes = encode("ACGT" * 500)
        profile = ErrorProfile(substitution=0.0, insertion=1.0, deletion=0.0)
        result = apply_errors(codes, 0.5, np.random.default_rng(2), profile)
        assert result.codes.size == codes.size + result.n_insertions
        assert result.n_insertions > 0

    def test_error_rate_statistics(self):
        codes = np.random.default_rng(3).integers(0, 4, size=50_000).astype(np.uint8)
        result = apply_errors(codes, 0.1, np.random.default_rng(4))
        rate = result.n_errors / codes.size
        assert 0.08 < rate < 0.12

    def test_per_base_probability_vector(self):
        n = 30_000
        prob = np.zeros(n)
        prob[: n // 2] = 0.3  # only the first half is error-prone
        codes = np.random.default_rng(5).integers(0, 4, size=n).astype(np.uint8)
        result = apply_errors(codes, prob, np.random.default_rng(6))
        # All errors come from the first half; source_index proves it.
        changed = result.source_index[
            result.codes != codes[np.clip(result.source_index, 0, n - 1)]
        ]
        if changed.size:
            assert changed.max() < n // 2 + 1

    def test_rejects_invalid_probability(self):
        with pytest.raises(ValueError):
            apply_errors(encode("ACGT"), 1.5, np.random.default_rng(0))

    def test_rejects_nan_scalar_probability(self):
        with pytest.raises(ValueError):
            apply_errors(encode("ACGT"), float("nan"), np.random.default_rng(0))

    def test_rejects_nan_in_probability_vector(self):
        prob = np.array([0.1, np.nan, 0.1, 0.1])
        with pytest.raises(ValueError):
            apply_errors(encode("ACGT"), prob, np.random.default_rng(0))

    def test_source_index_is_monotonic(self):
        codes = encode("ACGT" * 200)
        result = apply_errors(codes, 0.2, np.random.default_rng(7))
        assert np.all(np.diff(result.source_index) >= 0)

    @given(st.floats(min_value=0.0, max_value=0.4), st.integers(min_value=0, max_value=1000))
    @settings(max_examples=25, deadline=None)
    def test_counts_consistent(self, p, seed):
        codes = np.random.default_rng(seed).integers(0, 4, size=500).astype(np.uint8)
        result = apply_errors(codes, p, np.random.default_rng(seed + 1))
        assert result.codes.size == codes.size - result.n_deletions + result.n_insertions
        assert result.source_index.size == result.codes.size


def _apply_errors_reference(codes, error_prob, rng, profile=None):
    """``apply_errors`` as it was before its per-call overhead was cut:
    the oracle the production version must match draw for draw."""
    codes = np.asarray(codes, dtype=np.uint8)
    n = codes.size
    profile = profile or ErrorProfile()
    p = np.broadcast_to(np.asarray(error_prob, dtype=np.float64), (n,))
    if np.any(p < 0) or np.any(p > 1):
        raise ValueError("error probabilities must be within [0, 1]")
    p_sub, p_ins, p_del = profile.split(p)

    draws = rng.random((3, n))
    do_sub = draws[0] < p_sub
    do_ins = draws[1] < p_ins
    do_del = draws[2] < p_del
    do_sub &= ~do_del

    shifted = (codes + rng.integers(1, 4, size=n)).astype(np.uint8) % 4
    out_base = np.where(do_sub, shifted, codes)

    keep = ~do_del
    inserted = rng.integers(0, 4, size=n).astype(np.uint8)

    per_pos = keep.astype(np.int64) + do_ins.astype(np.int64)
    total = int(per_pos.sum())
    out = np.empty(total, dtype=np.uint8)
    src = np.empty(total, dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(per_pos)[:-1]))

    kept_pos = offsets[keep]
    out[kept_pos] = out_base[keep]
    src[kept_pos] = np.nonzero(keep)[0]

    ins_pos = offsets[do_ins] + keep[do_ins].astype(np.int64)
    out[ins_pos] = inserted[do_ins]
    src[ins_pos] = np.nonzero(do_ins)[0]

    return MutationResult(
        codes=out,
        n_substitutions=int(do_sub.sum()),
        n_insertions=int(do_ins.sum()),
        n_deletions=int(do_del.sum()),
        source_index=src,
    )


_weights = st.sampled_from([0.0, 0.25, 0.5, 1.0])


class TestApplyErrorsMatchesReference:
    @given(
        n=st.integers(0, 400),
        kind=st.sampled_from(["scalar", "vector", "zeros", "ones", "length-one"]),
        scalar=st.floats(0.0, 1.0),
        weights=st.tuples(_weights, _weights, _weights).filter(lambda w: sum(w) > 0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_every_field_and_draw_equal(self, n, kind, scalar, weights, seed):
        rng = np.random.default_rng(seed)
        codes = rng.integers(0, 4, size=n).astype(np.uint8)
        prob = {
            "scalar": scalar,
            "vector": rng.random(n),
            "zeros": np.zeros(n),
            "ones": np.ones(n),
            "length-one": np.array([scalar]),
        }[kind]
        profile = ErrorProfile(*weights)
        rng_ref, rng_new = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        expected = _apply_errors_reference(codes, prob, rng_ref, profile)
        got = apply_errors(codes, prob, rng_new, profile)
        for field in fields(MutationResult):
            want, have = getattr(expected, field.name), getattr(got, field.name)
            if isinstance(want, np.ndarray):
                assert have.dtype == want.dtype, field.name
                assert np.array_equal(have, want), field.name
            else:
                assert type(have) is type(want) and have == want, field.name
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state

    @given(n=st.integers(0, 400), extra=st.sampled_from([-2, 1, 7]))
    @settings(max_examples=30, deadline=None)
    def test_wrong_length_vector_rejected_like_reference(self, n, extra):
        # A length-one vector broadcasts; any other length != n raises.
        length = n + extra if n + extra >= 2 else n + 2
        codes = np.zeros(n, dtype=np.uint8)
        prob = np.full(length, 0.1)
        with pytest.raises(ValueError):
            _apply_errors_reference(codes, prob, np.random.default_rng(0))
        with pytest.raises(ValueError):
            apply_errors(codes, prob, np.random.default_rng(0))
