"""Tests for seeding and the chaining DP."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.genomics.mutate import apply_errors
from repro.genomics.reference import ReferenceGenome
from repro.mapping.chaining import (
    MAX_GAP_LIMIT,
    Chain,
    ChainingConfig,
    best_chain,
    chain_anchors,
    chain_scores,
)
from repro.mapping.index import MinimizerIndex
from repro.mapping.minimizers import MinimizerConfig
from repro.mapping.seeding import collect_anchor_arrays

#: The k of ``ref_index``, which the chain DP takes from the index.
K = 13
CFG = ChainingConfig()


@pytest.fixture(scope="module")
def ref_index():
    ref = ReferenceGenome.random(120_000, seed=6)
    return MinimizerIndex.build(ref, MinimizerConfig(k=13, w=10))


class TestSeeding:
    def test_exact_read_anchors_on_diagonal(self, ref_index):
        ref = ref_index.reference
        read = ref.fetch(30_000, 33_000)
        grouped = collect_anchor_arrays(ref_index, read)
        fwd = grouped[1]
        assert fwd.shape[0] > 50
        # Exact substring: ref_pos - read_pos == 30_000 for true anchors
        # (planted repeats legitimately add a minority of off-diagonal hits).
        diagonal = fwd[:, 0] - fwd[:, 1]
        assert (diagonal == 30_000).mean() > 0.6
        values, counts = np.unique(diagonal, return_counts=True)
        assert values[np.argmax(counts)] == 30_000

    def test_reverse_read_anchors(self, ref_index):
        ref = ref_index.reference
        read = ref.fetch(40_000, 43_000, strand=-1)
        grouped = collect_anchor_arrays(ref_index, read)
        rev = grouped[-1]
        assert rev.shape[0] > 50
        # Raw read coordinates: the true anchors share one anti-diagonal,
        # ref + read = 43_000 - k; the chain stage flips them onto a
        # diagonal.
        values, counts = np.unique(rev[:, 0] + rev[:, 1], return_counts=True)
        assert counts.max() / rev.shape[0] > 0.9
        assert values[np.argmax(counts)] == 43_000 - K

    def test_offset_coordinates(self, ref_index):
        """Chunk seeding with read_offset lands on global coordinates."""
        ref = ref_index.reference
        read = ref.fetch(50_000, 53_000)
        whole = collect_anchor_arrays(ref_index, read)[1]
        part = collect_anchor_arrays(
            ref_index, read[1_000:2_000], read_offset=1_000
        )[1]
        whole_set = {tuple(row) for row in whole.tolist()}
        part_set = {tuple(row) for row in part.tolist()}
        # Chunk anchors away from boundaries must appear in whole-read anchors.
        interior = {t for t in part_set if 1_020 <= t[1] <= 1_980}
        assert interior <= whole_set

    def test_anchor_arrays_layout(self, ref_index):
        """Both strands always present, as sorted ``int64[n, 2]`` rows."""
        read = ref_index.reference.fetch(10_000, 11_000)
        grouped = collect_anchor_arrays(ref_index, read)
        assert set(grouped) == {1, -1}
        for rows in grouped.values():
            assert rows.dtype == np.int64 and rows.ndim == 2 and rows.shape[1] == 2
            np.testing.assert_array_equal(rows, rows[np.lexsort((rows[:, 1], rows[:, 0]))])
        assert grouped[1].shape[0] > grouped[-1].shape[0]

    def test_junk_read_few_anchors(self, ref_index):
        junk = np.random.default_rng(7).integers(0, 4, size=3_000).astype(np.uint8)
        anchors = collect_anchor_arrays(ref_index, junk)
        # Random 13-mers rarely hit the index.
        assert sum(rows.shape[0] for rows in anchors.values()) < 20


class TestChainScores:
    def test_empty(self):
        scores, parents = chain_scores(np.empty((0, 2), dtype=np.int64), K, CFG)
        assert scores.size == 0

    def test_single_anchor(self):
        scores, parents = chain_scores(np.array([[100, 10]], dtype=np.int64), K, CFG)
        assert scores[0] == K
        assert parents[0] == -1

    def test_perfect_colinear_chain(self):
        # Anchors every 20 bases on one diagonal chain end-to-end.
        n = 50
        anchors = np.stack(
            [1_000 + 20 * np.arange(n), 100 + 20 * np.arange(n)], axis=1
        ).astype(np.int64)
        scores, parents = chain_scores(anchors, K, CFG)
        # Each link adds min(20, 20, k) = k with no gap cost.
        assert scores[-1] == pytest.approx(K * n)
        # Parents form one chain.
        chain_len = 1
        node = n - 1
        while parents[node] != -1:
            node = parents[node]
            chain_len += 1
        assert chain_len == n

    def test_diagonal_drift_penalised(self):
        straight = np.array([[0, 0], [100, 100]], dtype=np.int64)
        drifted = np.array([[0, 0], [100, 160]], dtype=np.int64)
        s_straight, _ = chain_scores(straight, K, CFG)
        s_drifted, _ = chain_scores(drifted, K, CFG)
        assert s_straight[1] > s_drifted[1]

    def test_max_gap_breaks_chain(self):
        anchors = np.array([[0, 0], [10_000, 10_000]], dtype=np.int64)
        scores, parents = chain_scores(anchors, K, ChainingConfig(max_gap=5_000))
        assert parents[1] == -1

    def test_monotonicity_required(self):
        # Second anchor goes backwards on the read axis: cannot chain.
        anchors = np.array([[0, 50], [100, 10]], dtype=np.int64)
        scores, parents = chain_scores(anchors, K, CFG)
        assert parents[1] == -1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ChainingConfig(max_gap=0)

    @pytest.mark.parametrize("score", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_min_chain_score_rejected(self, score):
        """A NaN threshold would pass every anchor as a chain end
        (``score < nan`` is False) under one reading and none under
        another; an infinite one means no chain, or every end."""
        with pytest.raises(ValueError, match="min_chain_score"):
            ChainingConfig(min_chain_score=score)

    def test_min_anchors_below_one_rejected(self):
        with pytest.raises(ValueError, match="min_anchors"):
            ChainingConfig(min_anchors=0)
        assert ChainingConfig(min_anchors=1).min_anchors == 1

    def test_max_gap_bounded(self):
        """The bound keeps the chain kernel's ``log2`` table at 8 MiB."""
        assert MAX_GAP_LIMIT == 2**20
        assert ChainingConfig(max_gap=MAX_GAP_LIMIT).max_gap == MAX_GAP_LIMIT
        with pytest.raises(ValueError, match="max_gap"):
            ChainingConfig(max_gap=MAX_GAP_LIMIT + 1)

    @pytest.mark.parametrize("kmer_size", [MAX_GAP_LIMIT + 1, 2**63, 2**70])
    def test_kmer_size_bounded(self, kmer_size):
        """Past ``2**63`` the C kernel would take another ``k`` than the
        scalar reference; the bound keeps ``k`` exact in its float64
        too. The DP takes ``k`` as an argument, so it checks it there."""
        anchors = np.array([[100, 10]], dtype=np.int64)
        scores, _ = chain_scores(anchors, MAX_GAP_LIMIT, CFG)
        assert scores[0] == MAX_GAP_LIMIT
        with pytest.raises(ValueError, match="kmer_size"):
            chain_scores(anchors, kmer_size, CFG)
        with pytest.raises(ValueError, match="kmer_size"):
            best_chain({1: anchors, -1: np.empty((0, 2), np.int64)}, kmer_size, CFG)

    @pytest.mark.parametrize("kmer_size", [13.0, True])
    def test_non_integer_kmer_size_rejected(self, kmer_size):
        """A float or a bool ``k`` would run the DP on a ``k`` no index has."""
        anchors = np.array([[0, 0], [20, 20]], dtype=np.int64)
        with pytest.raises(TypeError, match="kmer_size"):
            chain_scores(anchors, kmer_size, CFG)

    @pytest.mark.parametrize(
        ("field", "value"),
        [
            ("lookback", 2.5),
            ("lookback", True),
            ("max_gap", 1000.5),
            ("min_anchors", 3.0),
            ("min_anchors", False),
        ],
    )
    def test_non_integer_count_rejected(self, field, value):
        """A float or a bool count would reach the compiled chain DP as a
        ctypes error or as some other integer."""
        with pytest.raises(TypeError, match=field):
            ChainingConfig(**{field: value})


class TestChainExtraction:
    def test_extracts_primary(self):
        n = 30
        anchors = np.stack(
            [1_000 + 25 * np.arange(n), 25 * np.arange(n)], axis=1
        ).astype(np.int64)
        chains = chain_anchors(anchors, K, CFG)
        assert len(chains) == 1
        assert chains[0].n_anchors == n
        assert chains[0].ref_span == (1_000, 1_000 + 25 * (n - 1))

    def test_min_score_threshold(self):
        anchors = np.array([[0, 0], [20, 20]], dtype=np.int64)
        chains = chain_anchors(anchors, K, ChainingConfig(min_chain_score=1e9))
        assert chains == []

    def test_two_loci_two_chains(self):
        n = 25
        locus_a = np.stack([1_000 + 20 * np.arange(n), 20 * np.arange(n)], axis=1)
        locus_b = np.stack([50_000 + 20 * np.arange(n), 20 * np.arange(n)], axis=1)
        anchors = np.concatenate([locus_a, locus_b]).astype(np.int64)
        order = np.lexsort((anchors[:, 1], anchors[:, 0]))
        chains = chain_anchors(anchors[order], K, CFG, max_chains=5)
        assert len(chains) == 2
        spans = sorted(c.ref_span[0] for c in chains)
        assert spans[0] < 2_000 and spans[1] > 49_000

    def test_best_chain_picks_secondary_at_other_locus(self):
        n = 25
        locus_a = np.stack([1_000 + 20 * np.arange(n), 20 * np.arange(n)], axis=1)
        locus_b = np.stack([50_000 + 20 * np.arange(n // 2), 20 * np.arange(n // 2)], axis=1)
        anchors = np.concatenate([locus_a, locus_b]).astype(np.int64)
        order = np.lexsort((anchors[:, 1], anchors[:, 0]))
        primary, secondary = best_chain({1: anchors[order], -1: np.empty((0, 2), np.int64)}, K, CFG)
        assert primary is not None and secondary is not None
        assert primary.score > secondary.score
        assert primary.ref_span[0] < 2_000
        assert secondary.ref_span[0] > 49_000

    @given(
        n=st.integers(0, 200),
        span=st.sampled_from([40, 600, 20_000]),
        min_chain_score=st.sampled_from([0.0, 13.0, 20.0, 40.0, 1e9]),
        min_anchors=st.integers(1, 4),
        max_chains=st.integers(0, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_extraction_takes_the_full_walks_chains(
        self, n, span, min_chain_score, min_anchors, max_chains, seed
    ):
        """Walking only the ends that reach the threshold takes the same
        chains, in the same order, as walking every end of the descending
        order and skipping those below it."""
        rng = np.random.default_rng(seed)
        anchors = rng.integers(0, span, size=(n, 2)).astype(np.int64)
        anchors = anchors[np.lexsort((anchors[:, 1], anchors[:, 0]))]
        config = ChainingConfig(min_chain_score=min_chain_score, min_anchors=min_anchors)
        got = chain_anchors(anchors, K, config, max_chains=max_chains)
        want = _full_walk(anchors, config, max_chains)
        assert [(c.score, c.anchors.tobytes()) for c in got] == [
            (c.score, c.anchors.tobytes()) for c in want
        ]

    def test_best_chain_none_when_empty(self):
        primary, secondary = best_chain(
            {1: np.empty((0, 2), np.int64), -1: np.empty((0, 2), np.int64)}, K, CFG
        )
        assert primary is None and secondary is None


def _full_walk(anchors, config, max_chains):
    """Chain extraction as a walk over every end in descending score
    order, skipping the used ones and those below the threshold."""
    if anchors.shape[0] == 0:
        return []
    scores, parents = chain_scores(anchors, K, config)
    used = np.zeros(anchors.shape[0], dtype=bool)
    chains = []
    for end in np.argsort(scores, kind="stable")[::-1]:
        if len(chains) >= max_chains:
            break
        if used[end] or scores[end] < config.min_chain_score:
            continue
        chain_idx = []
        node = int(end)
        while node != -1 and not used[node]:
            chain_idx.append(node)
            node = int(parents[node])
        if len(chain_idx) < config.min_anchors:
            continue
        chain_idx.reverse()
        used[chain_idx] = True
        chains.append(Chain(score=float(scores[end]), anchors=anchors[chain_idx], strand=1))
    return chains


class TestEndToEndChaining:
    def test_noisy_read_chains_to_true_locus(self, ref_index):
        ref = ref_index.reference
        rng = np.random.default_rng(8)
        true = ref.fetch(70_000, 76_000)
        noisy = apply_errors(true, 0.12, rng).codes
        grouped = collect_anchor_arrays(ref_index, noisy)
        primary, _ = best_chain(grouped, K, CFG)
        assert primary is not None
        assert primary.strand == 1
        lo, hi = primary.ref_span
        assert abs(lo - 70_000) < 500
        assert abs(hi - 76_000) < 500

    def test_junk_read_has_no_chain(self, ref_index):
        junk = np.random.default_rng(9).integers(0, 4, size=6_000).astype(np.uint8)
        grouped = collect_anchor_arrays(ref_index, junk)
        primary, _ = best_chain(grouped, K, CFG)
        assert primary is None or primary.score < 60
