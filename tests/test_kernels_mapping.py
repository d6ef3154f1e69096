"""Tests for the vectorised mapping kernel plane.

Three bit-identity families (fixed seeds, a hypothesis property over
generated shapes, and production-sized fixed-seed trail cases compared
by bytes in ``test_trail_case_*bit_identical`` each):

* batched seeding (one ``searchsorted`` + repeat/gather) must produce
  the exact grouped anchor arrays of the per-key scalar walk, and the
  compiled seeding (``seed.c``: minimizer scan and index probe in one
  call) the arrays of both, its minimizers and index arrays those of
  the numpy scan;
* the compiled chain stage (``chain.c``'s ``chain_read`` behind
  ``chain_prefix``) must produce the primary and secondary chains and
  the chain candidates of its Python fallback (``_gathered`` and
  ``best_chain`` over the scalar DP), bit for bit: its DP runs the
  scalar reference's float64 combine order per row;
* the compiled Gotoh lane fill (``gotoh.c`` behind ``_fill_lanes``)
  must give every lane the identical score and CIGAR the scalar
  reference gives it -- a free-tail extension, and a lane whose path
  leaves the first diagonal band, included -- on every segment shape
  and every integer-valued scoring, whichever lanes share its call
  (the compiled chain stitch around it is checked against the Python
  stitch in ``test_mapping_alignment.py``).

Without a compiler the chain stage falls back to its Python
composition, the Gotoh fill to its scalar reference, and seeding to its
numpy path. The ``gotoh`` fixture runs every comparison on both paths:
on the compiled kernel it is the bit-identity check; on the fallback it
pins that the dispatch forwards every argument (the scoring,
``free_ref_tail``) and builds the result the reference gives. ``test_compiled_*_is_what_runs`` fails
where a compiler exists but the compiled kernel did not load, so the
``native`` half never quietly tests the reference against itself.

Plus the riders: no stage takes a kernel *name* (production calls one
kernel per stage; a reference is something a test imports), each
compiled kernel has one fallback, the mapping-ops ledger must record
exactly the arithmetic the kernels performed, the perf models must
charge it, and a pooled run must stay byte-identical to the serial run
with every kernel active.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from conftest import fallback, require_native
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
import repro.kernels.chain as chain_kernels
import repro.kernels.native as native
import repro.mapping.alignment as alignment_module
import repro.mapping.chaining as chaining_module
import repro.mapping.mapper as mapper_module
import repro.mapping.seeding as seeding_module
from repro.core import GenPIPConfig, GenPIPPipeline
from repro.genomics import alphabet
from repro.genomics.mutate import apply_errors
from repro.genomics.reference import ReferenceGenome
from repro.kernels import (
    MAPPING_OP_KINDS,
    chain_candidate_count,
    chain_scores,
    chain_scores_scalar,
    gotoh_scalar,
    mapping_ops,
    process_mapping_ops,
    record_mapping_ops,
    seed_anchors_batched,
    seed_anchors_scalar,
)
from repro.mapping.alignment import (
    AlignmentConfig,
    _classify_diagonals,
    _fill_lanes,
    align_chain,
    cigar_to_string,
)
from repro.mapping.chaining import ChainingConfig
from repro.mapping.index import MinimizerConfig, MinimizerIndex
from repro.mapping.mapper import IncrementalChunkMapper, Mapper, MapperConfig
from repro.mapping.minimizers import minimizer_arrays
from repro.mapping.seeding import collect_anchor_arrays
from repro.nanopore.datasets import (
    ECOLI_LIKE,
    generate_dataset,
    profile_reference,
    small_profile,
)
from repro.obs import Counter
from repro.perf.costs import DEFAULT_COSTS
from repro.perf.systems import evaluate_system
from repro.perf.workload import PipelineWorkload


@pytest.fixture(scope="module")
def reference():
    return ReferenceGenome.random(120_000, seed=23)


@pytest.fixture(scope="module")
def index(reference):
    return MinimizerIndex.build(reference, MinimizerConfig(k=13, w=10))


#: The ``gotoh`` and ``chain`` fixtures hold one backend for all of a
#: property's examples.
_ONE_FILL_PER_TEST = [HealthCheck.function_scoped_fixture]


def _random_anchors(rng, n, ref_span=50_000, read_span=8_000, runs=False):
    """Random sorted (ref_pos, read_pos) anchors, optionally clustered."""
    if runs and n >= 4:
        # Colinear runs with jitter: the geometry real chains have.
        starts = rng.integers(0, ref_span, size=n // 8 + 1)
        ref = np.sort(np.concatenate([s + rng.integers(0, 600, size=8) for s in starts])[:n])
        read = np.maximum(0, ref - ref.min() + rng.integers(-30, 30, size=n))
    else:
        ref = np.sort(rng.integers(0, ref_span, size=n))
        read = rng.integers(0, read_span, size=n)
    arr = np.stack([ref, read], axis=1).astype(np.int64)
    order = np.lexsort((arr[:, 1], arr[:, 0]))
    return arr[order]


class TestChainKernels:
    def test_compiled_dp_is_what_runs(self):
        """Where a compiler exists the chain stage must be the compiled
        one, or ``TestChainStage`` would test the fallback against
        itself."""
        require_native("chain")
        assert native.backend("chain") == "native"
        with fallback("chain"):
            assert native.backend("chain") == "scalar"

    @pytest.mark.parametrize("n", [0, 1])
    def test_degenerate_inputs(self, n):
        anchors = np.zeros((n, 2), dtype=np.int64)
        for kernel in (chain_scores_scalar, chain_scores):
            scores, parents = kernel(anchors, 13, 5_000, 50)
            assert scores.shape == (n,) and parents.shape == (n,)
            if n:
                assert parents[0] == -1

    @pytest.mark.parametrize("shape", [(5,), (5, 1), (5, 3)])
    def test_anchors_must_be_n_by_2(self, shape):
        with pytest.raises(ValueError, match=r"\[n, 2\]"):
            chain_scores(np.zeros(shape, dtype=np.int64), 13, 5_000, 50)

    def test_candidate_count_closed_form(self):
        for n in (0, 1, 2, 7, 50, 51, 200):
            for h in (1, 5, 50):
                brute = sum(min(i, h) for i in range(n)) if n > 1 else 0
                assert chain_candidate_count(n, h) == brute, (n, h)

    def test_kernels_charge_the_ledger(self):
        """The scalar DP charges its own candidates, once."""
        rng = np.random.default_rng(103)
        anchors = _random_anchors(rng, 120, runs=True)
        ledger = process_mapping_ops()
        before = ledger.value("chain-candidate")
        chain_scores(anchors, 13, 5_000, 50)
        assert ledger.value("chain-candidate") - before == chain_candidate_count(120, 50)

    def test_config_selects_kernel(self):
        # The config carries DP parameters only: the mapping layer's
        # chain_scores runs the reference with them.
        rng = np.random.default_rng(104)
        anchors = _random_anchors(rng, 80, runs=True)
        config = ChainingConfig(lookback=20, max_gap=800)
        scores, parents = chaining_module.chain_scores(anchors, 13, config)
        ref_scores, ref_parents = chain_scores_scalar(anchors, 13, 800, 20)
        assert np.array_equal(scores, ref_scores)
        assert np.array_equal(parents, ref_parents)

    def test_unknown_kernel_rejected(self):
        # No name is known: the option is gone.
        with pytest.raises(TypeError, match="kernel"):
            ChainingConfig(kernel="scalar")


@pytest.fixture(scope="module")
def chain_trail():
    """Chain trail cases by name: ``(anchors, max_gap, lookback)``, all
    drawn in order from one seed."""
    rng = np.random.default_rng(26)

    def _colinear(n, jitter):
        ref = np.sort(rng.integers(0, 60_000, size=n))
        read = np.maximum(0, ref - ref.min() + rng.integers(-jitter, jitter, size=n))
        arr = np.stack([ref, read], axis=1).astype(np.int64)
        return arr[np.lexsort((arr[:, 1], arr[:, 0]))]

    def _scattered(n):
        arr = np.stack(
            [np.sort(rng.integers(0, 60_000, size=n)), rng.integers(0, 9_000, size=n)],
            axis=1,
        ).astype(np.int64)
        return arr[np.lexsort((arr[:, 1], arr[:, 0]))]

    def _mapped_read(n_true):
        # One read's true hits (a colinear run with indel drift) plus
        # about one scattered repeat hit per three: the nearest valid
        # predecessor is often not the parent.
        read = np.sort(rng.choice(9_000, size=n_true, replace=False))
        ref = 20_000 + read + np.cumsum(rng.integers(-3, 4, size=n_true))
        true_hits = np.stack([ref, read], axis=1)
        arr = np.concatenate([true_hits, _scattered(n_true // 3)]).astype(np.int64)
        return arr[np.lexsort((arr[:, 1], arr[:, 0]))]

    return {
        "colinear-2000": (_colinear(2_000, 40), 5_000, 50),
        "scattered-1500": (_scattered(1_500), 5_000, 50),
        "short-lookback": (_colinear(800, 30), 500, 5),
        "block-boundary-5000": (_colinear(5_000, 40), 5_000, 50),
        "mapped-read": (_mapped_read(1_200), 5_000, 50),
    }


def _mapped_read_anchors(rng, n_true):
    """Sorted anchors of one mapped read: a colinear run with indel
    drift, about one scattered repeat hit per three true anchors, and
    true reference positions repeated at other read positions."""
    read = np.sort(rng.choice(9_000, size=n_true, replace=False))
    ref = 20_000 + read + np.cumsum(rng.integers(-3, 4, size=n_true))
    n_scattered = n_true // 3
    scattered = np.stack(
        [rng.integers(0, 60_000, size=n_scattered), rng.integers(0, 9_000, size=n_scattered)], axis=1
    )
    duplicated = np.stack([ref, rng.integers(0, 9_000, size=n_true)], axis=1)[: n_true // 10]
    anchors = np.concatenate([np.stack([ref, read], axis=1), scattered, duplicated]).astype(np.int64)
    return anchors[np.lexsort((anchors[:, 1], anchors[:, 0]))]


def _random_pair(rng, n, m):
    return (
        rng.integers(0, 4, size=n).astype(np.uint8),
        rng.integers(0, 4, size=m).astype(np.uint8),
    )


def _rescore(cigar, a, b, match, mismatch, gap_open, gap_extend):
    """Affine-gap score of a raw ``M``/``I``/``D`` CIGAR that must
    consume ``a`` (reference) and ``b`` (read) exactly."""
    i = j = 0
    score = 0.0
    for op, length in cigar:
        if op == "M":
            equal = a[i : i + length] == b[j : j + length]
            score += match * int(equal.sum()) + mismatch * int((~equal).sum())
            i += length
            j += length
        else:
            score += gap_open + gap_extend * length
            if op == "D":
                i += length
            else:
                assert op == "I"
                j += length
    assert (i, j) == (a.size, b.size)
    return score


#: Integer-valued scorings (``AlignmentConfig`` takes no other): the
#: map-ont default, one where a long gap is cheap, one where opening is.
_SCORINGS = [(2.0, -4.0, -4.0, -2.0), (1.0, -1.0, -6.0, -1.0), (3.0, -2.0, -1.0, -1.0)]


def _one_lane(a, b, *scoring, free_ref_tail=False):
    """A one-lane fill in ``gotoh_scalar``'s call shape."""
    (result,) = _fill_lanes([(a, b, free_ref_tail)], AlignmentConfig(*scoring))
    return result.score, result.cigar


def _scalar(a, b, *scoring, free_ref_tail=False):
    """``gotoh_scalar`` with its raw 'M' runs split into '='/'X', as
    the lane fill returns them."""
    score, cigar = gotoh_scalar(a, b, *scoring, free_ref_tail=free_ref_tail)
    return score, _classify_diagonals(cigar, a, b)


def _tie_heavy_pair(rng, kind, n, m):
    """Random, mutated, constant or two-letter inputs: the last two make
    most cells a tie between the diagonal and both gap arms."""
    if kind == "constant":
        return np.zeros(n, dtype=np.uint8), np.zeros(m, dtype=np.uint8)
    if kind == "two-letter":
        return rng.integers(0, 2, size=n).astype(np.uint8), rng.integers(0, 2, size=m).astype(np.uint8)
    a, b = _random_pair(rng, n, m)
    if kind == "mutated":
        b = apply_errors(a, 0.2, rng).codes
    return a, b


_pair_kinds = st.sampled_from(["random", "mutated", "constant", "two-letter"])


def _band_excursion(cigar, n, m):
    """How many diagonals ``d = i - j`` a raw CIGAR's path strays outside
    the span ``[min(0, n - m), max(0, n - m)]`` between its two corners;
    ``gotoh.c`` first fills that span widened by 4 on each side."""
    i = j = low = high = 0
    for op, length in cigar:
        i += 0 if op == "I" else length
        j += 0 if op == "D" else length
        low, high = min(low, i - j), max(high, i - j)
    return max(min(0, n - m) - low, high - max(0, n - m))


def _band_leaving_lane(rng, kind):
    """``(ref, read, free_ref_tail)`` whose true path leaves the first
    band. ``insert-first`` / ``delete-first``: a 6-12 base insertion and
    a 6-12 base deletion on either side of a 100-140 base stretch, which
    only the shifted diagonal aligns; ``free-tail``: one such insertion
    in a head/tail extension whose reference window is longer than the
    read; ``inversion``: a 10-39 base reverse complement, which strays
    only under some scorings."""

    def bases(size):
        return rng.integers(0, 4, size=size).astype(np.uint8)

    flank, stretch, tail = (bases(int(rng.integers(lo, hi))) for lo, hi in ((10, 30), (100, 140), (10, 30)))
    inserted, deleted = (bases(int(rng.integers(6, 13))) for _ in range(2))
    if kind == "insert-first":
        ref, read = [flank, stretch, deleted, tail], [flank, inserted, stretch, tail]
    elif kind == "delete-first":
        ref, read = [flank, deleted, stretch, tail], [flank, stretch, inserted, tail]
    elif kind == "free-tail":
        window = bases(inserted.size + int(rng.integers(0, 40)))
        ref, read = [flank, stretch, window], [flank, inserted, stretch]
    else:
        size = int(rng.integers(10, 40))
        ref, read = [flank, stretch, tail], [flank, 3 - stretch[size - 1 :: -1], stretch[size:], tail]
    return np.concatenate(ref), np.concatenate(read), kind == "free-tail"


def _strand_rows(rng, n_rows, read_length, copies, k=13):
    """``n_rows`` (ref, read) rows of one strand, in chaining
    coordinates: ``copies`` copies of one colinear motif at reference
    loci 20 kb apart (chains of equal score), and scattered hits. None
    for ``n_rows = 0``."""
    if n_rows == 0:
        return np.empty((0, 2), dtype=np.int64)
    read = np.cumsum(rng.integers(5, 40, size=max(1, n_rows // (2 * copies))))
    read = read[read < read_length - k]
    motif_size = read.size
    motif = np.stack([read + np.cumsum(rng.integers(-3, 4, size=motif_size)), read], axis=1)
    n_scattered = max(0, n_rows - copies * motif_size)
    scattered = np.stack(
        [rng.integers(0, 100_000, n_scattered), rng.integers(0, read_length, n_scattered)], axis=1
    )
    loci = [motif + [20_000 * (1 + copy), 0] for copy in range(copies)]
    return np.concatenate([*loci, scattered]).astype(np.int64)


def _seeded_blocks(rng, rows, n_blocks):
    """``rows`` cut into ``n_blocks`` blocks as chunks seed them: in
    random order, each block with a few rows of others again (the
    repeats overlapping chunks seed), about half of them sorted."""
    if rows.shape[0] == 0:
        return []
    order = rng.permutation(rows.shape[0])
    cuts = np.sort(rng.integers(0, rows.shape[0] + 1, n_blocks - 1))
    blocks = []
    for piece in np.split(rows[order], cuts):
        block = np.concatenate([piece, rows[rng.integers(0, rows.shape[0], rng.integers(0, 6))]])
        if rng.random() < 0.5:
            block = block[np.lexsort((block[:, 1], block[:, 0]))]
        blocks.append(np.ascontiguousarray(block))
    return blocks


def _chained_both_ways(index, chunks, read_length, chaining, shortened=False):
    """``chain_prefix`` of a mapper whose chunks seeded ``chunks`` (one
    ``{strand: rows}`` per chunk), on the compiled stage and then on its
    fallback: each side's chains, by score bits, strand and anchor bytes,
    and the chain candidates it charged."""
    mapper = IncrementalChunkMapper(index, read_length, config=MapperConfig(chaining=chaining))
    with mock.patch.object(mapper_module, "collect_anchor_arrays", side_effect=chunks):
        for chunk in range(len(chunks)):
            mapper.add_chunk(np.zeros(0, dtype=np.uint8), chunk)
    if shortened:
        mapper.set_read_length(read_length // 3)
    ledger = process_mapping_ops()

    def stage():
        before = ledger.value("chain-candidate")
        chains = [
            None if c is None else (c.score.hex(), c.strand, c.anchors.shape, c.anchors.tobytes())
            for c in mapper.chain_prefix()
        ]
        return chains, ledger.value("chain-candidate") - before

    compiled = stage()
    with fallback("chain"):
        return compiled, stage()


#: One read's chain stage at ``lookback=2**63``, compiled and then on its
#: fallback, in a fresh process (where the compiled stage loads).
CHAIN_PAST_INT64 = """
import numpy as np
import repro.kernels.native as native
from repro.genomics.reference import ReferenceGenome
from repro.mapping.chaining import ChainingConfig
from repro.mapping.index import MinimizerConfig, MinimizerIndex
from repro.mapping.mapper import IncrementalChunkMapper, MapperConfig
reference = ReferenceGenome.random(20_000, seed=105)
index = MinimizerIndex.build(reference, MinimizerConfig(k=13, w=10))
read = reference.codes[4_000:7_000]
config = MapperConfig(chaining=ChainingConfig(lookback=2**63))

def chains():
    mapper = IncrementalChunkMapper(index, read.size, config=config)
    for at in range(0, read.size, 500):
        mapper.add_chunk(read[at : at + 600], at)
    return [None if c is None else (c.score.hex(), c.strand, c.anchors.tobytes())
            for c in mapper.chain_prefix()]

assert native.kernel("chain") is not None
compiled = chains()
native._LOADED["chain"] = None
assert compiled[0] is not None and chains() == compiled
"""


class TestChainStage:
    """``chain_prefix`` in one call of the compiled ``chain.c`` against
    its fallback, ``_gathered`` and ``best_chain`` over the scalar DP:
    the same primary and secondary, bit for bit, and the same chain
    candidates charged. ``chain.c``'s DP runs only inside this stage, so
    this is where its bit-identity to ``chain_scores_scalar`` is checked:
    on generated strands, on random and packed anchor sets, on
    production-sized trail cases and on the one drift whose ``log2``
    libm rounds the other way."""

    @given(
        n_plus=st.integers(1, 150),
        n_minus=st.integers(1, 150),
        seeded=st.sampled_from(["both", "both", "both", "plus", "minus", "neither"]),
        mapped_read=st.booleans(),
        blocks=st.tuples(st.integers(1, 4), st.integers(1, 4)),
        copies=st.integers(1, 3),
        lookback=st.one_of(st.integers(1, 60), st.sampled_from([2**62, 2**63, 2**70]), st.integers(1, 2**62)),
        min_chain_score=st.one_of(st.floats(0, 60), st.sampled_from([0.0, 20.0, 1e9])),
        min_anchors=st.sampled_from([1, 2, 3, 3, 5, 2**62]),
        max_gap=st.sampled_from([100, 5_000]),
        read_length=st.integers(200, 4_000),
        shortened=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None, suppress_health_check=_ONE_FILL_PER_TEST)
    def test_compiled_stage_is_the_fallback(
        self, index, n_plus, n_minus, seeded, mapped_read, blocks, copies, lookback,
        min_chain_score, min_anchors, max_gap, read_length, shortened, seed,
    ):  # fmt: skip
        """Several blocks per strand with repeats across them, either or
        both strands empty, tied chains on one strand and across the two
        (equal motifs), a mapped read's geometry on the plus strand (the
        nearest valid predecessor often not the parent), a lookback past
        int64, a read length cut below the seeded bases (the minus
        strand's flipped positions go negative), and the thresholds at
        their extremes."""
        require_native("chain")
        k = index.config.k
        rng = np.random.default_rng(seed)
        n_plus *= seeded in ("both", "plus")
        if mapped_read and n_plus:
            plus = _mapped_read_anchors(rng, n_plus)
        else:
            plus = _strand_rows(rng, n_plus, read_length, copies)
        minus = _strand_rows(rng, n_minus * (seeded in ("both", "minus")), read_length, copies)
        minus[:, 1] = read_length - k - minus[:, 1]  # raw, as seeding stores them
        sides = [_seeded_blocks(rng, rows, n) for rows, n in ((plus, blocks[0]), (minus, blocks[1]))]
        chunks = [
            {strand: side[i] if i < len(side) else np.empty((0, 2), np.int64)
             for strand, side in zip((1, -1), sides, strict=True)}
            for i in range(max(map(len, sides)))
        ]  # fmt: skip
        chaining = ChainingConfig(
            max_gap=max_gap, lookback=lookback, min_chain_score=min_chain_score,
            min_anchors=min_anchors,
        )  # fmt: skip
        compiled, fallen_back = _chained_both_ways(index, chunks, read_length, chaining, shortened)
        assert fallen_back == compiled

    @given(
        n_plus=st.integers(0, 150),
        n_minus=st.integers(0, 150),
        blocks=st.tuples(st.integers(1, 5), st.integers(1, 5)),
        copies=st.integers(1, 3),
        lookback=st.integers(1, 60),
        min_chain_score=st.sampled_from([0.0, 20.0]),
        min_anchors=st.sampled_from([1, 3]),
        read_length=st.integers(200, 4_000),
        shortened=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None, suppress_health_check=_ONE_FILL_PER_TEST)
    def test_stage_ignores_how_a_strands_rows_arrive(
        self, index, n_plus, n_minus, blocks, copies, lookback, min_chain_score, min_anchors,
        read_length, shortened, seed,
    ):  # fmt: skip
        """Each strand's distinct rows seeded as one sorted block, or cut
        into blocks in any order with rows repeated across them (as the
        seeding overlap repeats them): the compiled stage gives the same
        primary and secondary, by score bits, strand and anchor bytes,
        and charges the same chain candidates either way, and so does
        its fallback. Seeding leaves orientation and de-duplication to
        the chain stage, which rests on this."""
        require_native("chain")
        k = index.config.k
        rng = np.random.default_rng(seed)
        plus = np.unique(_strand_rows(rng, n_plus, read_length, copies), axis=0)
        minus = _strand_rows(rng, n_minus, read_length, copies)
        minus[:, 1] = read_length - k - minus[:, 1]  # raw, as seeding stores them
        minus = np.unique(minus, axis=0)
        sides = [_seeded_blocks(rng, rows, n) for rows, n in ((plus, blocks[0]), (minus, blocks[1]))]
        blocked = [
            {strand: side[i] if i < len(side) else plus[:0] for strand, side in zip((1, -1), sides, strict=True)}
            for i in range(max(map(len, sides)))
        ]  # fmt: skip
        chaining = ChainingConfig(
            lookback=lookback, min_chain_score=min_chain_score, min_anchors=min_anchors
        )
        whole = _chained_both_ways(index, [{1: plus, -1: minus}], read_length, chaining, shortened)
        assert _chained_both_ways(index, blocked, read_length, chaining, shortened) == whole

    @pytest.mark.parametrize(
        "case",
        ["colinear-2000", "scattered-1500", "short-lookback", "block-boundary-5000", "mapped-read"],
    )
    def test_trail_case_stage_bit_identical(self, index, chain_trail, case):
        """Each production-sized trail case as one read's plus strand,
        seeded in one chunk, its reverse as the minus strand in a
        second."""
        require_native("chain")
        anchors, max_gap, lookback = chain_trail[case]
        chunks = [{1: anchors, -1: anchors[:0]}, {1: anchors[:0], -1: anchors[::-1].copy()}]
        chaining = ChainingConfig(max_gap=max_gap, lookback=lookback)
        compiled, fallen_back = _chained_both_ways(index, chunks, 10_000, chaining)
        assert compiled[0][0] is not None
        assert fallen_back == compiled

    @pytest.mark.parametrize("lookback", [1, 5, 50, 2**70])
    @pytest.mark.parametrize("max_gap", [50, 5_000])
    def test_random_anchors_stage_bit_identical(self, index, lookback, max_gap):
        """25 random anchor sets per window, scattered and in colinear
        runs, as the plus strand. Every end is a chain (``min_anchors=1``,
        no score floor), so the secondary pick reads the DP's scores far
        from the best one too."""
        require_native("chain")
        rng = np.random.default_rng(101)
        chaining = ChainingConfig(max_gap=max_gap, lookback=lookback, min_chain_score=0.0, min_anchors=1)
        for trial in range(25):
            anchors = _random_anchors(rng, int(rng.integers(0, 400)), runs=bool(trial % 2))
            chunks = [{1: anchors, -1: anchors[:0]}]
            compiled, fallen_back = _chained_both_ways(index, chunks, 10_000, chaining)
            assert fallen_back == compiled, trial

    @given(
        n=st.integers(0, 300),
        lookback=st.integers(1, 60),
        max_gap=st.sampled_from([1, 5, 40, 300, 5_000]),
        span=st.sampled_from([30, 400, 20_000]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None, suppress_health_check=_ONE_FILL_PER_TEST)
    def test_packed_anchors_stage_bit_identical(self, index, n, lookback, max_gap, span, seed):
        """A small ``span`` packs the plus strand with equal reference
        positions and equal-score predecessors (argmax ties); a small
        ``max_gap`` leaves most windows without a valid one."""
        require_native("chain")
        rng = np.random.default_rng(seed)
        anchors = rng.integers(0, span, size=(n, 2)).astype(np.int64)
        chaining = ChainingConfig(max_gap=max_gap, lookback=lookback, min_chain_score=0.0, min_anchors=1)
        chunks = [{1: anchors, -1: anchors[:0]}]
        compiled, fallen_back = _chained_both_ways(index, chunks, span + 20_000, chaining)
        assert fallen_back == compiled

    def test_lookback_past_int64_in_a_fresh_process(self):
        """``ChainingConfig(lookback=2**63)`` is a window over every
        anchor: ``chain_read`` gets it clamped to the row count rather
        than wrapped to a negative int64, which would read out of bounds.
        A crash, so the stage runs in a subprocess."""
        require_native("chain")
        result = subprocess.run(
            [sys.executable, "-c", CHAIN_PAST_INT64],
            env={**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, (result.returncode, result.stderr)

    def test_log2_comes_from_numpy_not_libm(self):
        """A 40-anchor colinear run, then a last hop drifting by
        ``dd = 1621``: at k=14 the last anchor's score ends in the last
        bit of ``np.log2(1621)``, which a libm ``log2`` may round the
        other way (glibc's does on x86-64). Every window slot of the last
        anchor drifts by the same ``dd``. The run is the primary; the
        last anchor, its parent used, is a one-anchor secondary off the
        primary's span, reported with that score."""
        require_native("chain")
        index = MinimizerIndex.build(ReferenceGenome.random(2_000, seed=3), MinimizerConfig(k=14, w=10))
        run = np.stack([1_000 + 20 * np.arange(40), 20 * np.arange(40)], axis=1)
        anchors = np.vstack([run, run[-1] + [3_000, 3_000 - 1_621]]).astype(np.int64)
        scores, parents = chain_scores_scalar(anchors, 14, 5_000, 50)
        assert parents[-1] == 39
        chaining = ChainingConfig(max_gap=5_000, lookback=50, min_anchors=1)
        compiled, fallen_back = _chained_both_ways(index, [{1: anchors, -1: anchors[:0]}], 4_000, chaining)
        (_, secondary), _ = compiled
        assert secondary[0] == scores[-1].hex() and secondary[2] == (1, 2)
        assert fallen_back == compiled

    def test_failed_allocation_raises_memory_error(self):
        """``chain.c`` returns -1 when its scratch ``malloc`` fails: the
        call raises ``MemoryError`` and charges nothing."""

        class Failing:
            def chain_read(self, *args):
                return -1

        rows = np.array([[0, 0], [20, 20]], dtype=np.int64)
        before = mapping_ops("chain-candidate")
        with pytest.raises(MemoryError, match="chain.c"):
            chain_kernels.chain_read(Failing(), rows, rows, 100, 13, 5_000, 50, 20.0, 3, 5)
        assert mapping_ops("chain-candidate") == before

    def test_threads_chain_at_once(self, index, reference):
        """ctypes releases the GIL, so two threads -- a served read's and
        the batch's -- can be inside ``chain_read`` at once: the kernel
        keeps no state between calls, and every thread gets the chains a
        lone call gives."""
        require_native("chain")
        rng = np.random.default_rng(405)
        mappers = []
        for _ in range(6):
            start = int(rng.integers(0, len(reference) - 4_000))
            read = apply_errors(reference.codes[start : start + 3_000], 0.1, rng).codes
            mapper = IncrementalChunkMapper(index, read.size)
            for at in range(0, read.size, 500):
                mapper.add_chunk(read[at : at + 600], at)
            mappers.append(mapper)

        def chains(mapper):
            return [(c.score, c.strand, c.anchors.tobytes()) for c in mapper.chain_prefix() if c]

        alone = [chains(mapper) for mapper in mappers]
        with ThreadPoolExecutor(max_workers=4) as pool:
            together = list(pool.map(lambda mapper: [chains(mapper) for _ in range(30)], mappers * 2))
        assert together == [[want] * 30 for want in alone * 2]


class TestAlignKernels:
    # The ``wavefront`` ids are historical: the partner of
    # ``gotoh_scalar`` is now the compiled fill.
    def test_compiled_fill_is_what_runs(self):
        """Where a C compiler exists the lane fill must be the compiled
        one, or the ``native`` half of every comparison below would test
        the scalar reference against itself."""
        require_native("gotoh")
        assert native.backend("gotoh") == "native"
        with fallback("gotoh"):
            assert native.backend("gotoh") == "scalar"

    @pytest.mark.parametrize(
        "shape",
        [(0, 0), (0, 7), (7, 0), (1, 1), (3, 9), (20, 20), (45, 52), (60, 60), (80, 75)],
    )
    def test_wavefront_bit_identical_fixed_shapes(self, shape, gotoh):
        rng = np.random.default_rng(sum(shape) + 7)
        a, b = _random_pair(rng, *shape)
        s_score, s_cigar = _scalar(a, b, 2.0, -4.0, -4.0, -2.0)
        r_score, r_cigar = _one_lane(a, b, 2.0, -4.0, -4.0, -2.0)
        assert s_score == r_score
        assert s_cigar == r_cigar

    def test_wavefront_bit_identical_fuzz(self, gotoh):
        rng = np.random.default_rng(201)
        for trial in range(40):
            n, m = int(rng.integers(1, 70)), int(rng.integers(1, 70))
            a, b = _random_pair(rng, n, m)
            if trial % 3 == 0:
                # Mutated copy: realistic near-diagonal traceback.
                b = apply_errors(a, 0.15, rng).codes
            scoring = _SCORINGS[trial % len(_SCORINGS)]
            assert _scalar(a, b, *scoring) == _one_lane(a, b, *scoring), trial

    def test_all_ambiguous_ties_break_identically(self, gotoh):
        # Constant sequences make every cell a tie: the pointer tables
        # must still record the path the value-comparing traceback walks.
        a = np.zeros(30, dtype=np.uint8)
        b = np.zeros(45, dtype=np.uint8)
        for scoring in _SCORINGS:
            assert _scalar(a, b, *scoring) == _one_lane(a, b, *scoring)

    def test_align_chain_capped_segment_equivalence(self, reference):
        # A chain whose inter-anchor gap blows max_segment_cells takes
        # the D+I fallback, and the cap's own head and tail extensions
        # (each over 100 cells) still fill as lanes; the stitched CIGAR
        # is the same with the scalar reference on every lane.
        codes = reference.codes
        read = np.concatenate([codes[1_000:1_200], codes[9_000:9_200]])
        anchors = np.array([[1_000, 20], [9_000, 220]], dtype=np.int64)
        config = AlignmentConfig(max_segment_cells=100)
        a_w, lo_w, hi_w = align_chain(codes, read, anchors, 13, config)
        with fallback("gotoh"):
            a_s, lo_s, hi_s = align_chain(codes, read, anchors, 13, config)
        assert (a_w.score, cigar_to_string(a_w.cigar)) == (a_s.score, cigar_to_string(a_s.cigar))
        assert (lo_w, hi_w) == (lo_s, hi_s)
        assert "D" in cigar_to_string(a_w.cigar) and "I" in cigar_to_string(a_w.cigar)
        assert a_w.read_consumed == read.size

    @pytest.mark.parametrize(
        "case", ["random-55x62", "mutated-58", "all-ambiguous-ties", "empty-vs-short"]
    )
    def test_trail_case_bit_identical(self, case, gotoh):
        rng = np.random.default_rng(27)
        a_rand = rng.integers(0, 4, 55).astype(np.uint8)
        b_rand = rng.integers(0, 4, 62).astype(np.uint8)
        a_mut = rng.integers(0, 4, 58).astype(np.uint8)
        cases = {
            "random-55x62": (a_rand, b_rand),
            "mutated-58": (a_mut, apply_errors(a_mut, 0.15, rng).codes),
            "all-ambiguous-ties": (np.zeros(40, dtype=np.uint8), np.zeros(55, dtype=np.uint8)),
            "empty-vs-short": (np.empty(0, dtype=np.uint8), rng.integers(0, 4, 9).astype(np.uint8)),
        }
        a, b = cases[case]
        s_score, s_cigar = _scalar(a, b, 2.0, -4.0, -4.0, -2.0)
        r_score, r_cigar = _one_lane(a, b, 2.0, -4.0, -4.0, -2.0)
        assert np.float64(s_score).tobytes() == np.float64(r_score).tobytes()
        assert s_cigar == r_cigar

    def test_kernels_charge_cells(self, gotoh):
        """Charged once on either path: ``gotoh_scalar`` charges its own
        cells, the compiled call the same count."""
        rng = np.random.default_rng(204)
        a, b = _random_pair(rng, 40, 50)
        ledger = process_mapping_ops()
        before = ledger.value("align-cell")
        _fill_lanes([(a, b, False)], AlignmentConfig())
        gotoh_scalar(a, b, 2.0, -4.0, -4.0, -2.0)
        assert ledger.value("align-cell") - before == 2 * 40 * 50

    def test_lane_fill_charges_real_cells_never_padding(self, gotoh):
        # Three ragged lanes share one call, whose flag table is sized
        # for the largest; the ledger charges each lane's n * m, and
        # nothing for an empty side.
        rng = np.random.default_rng(206)
        shapes = [(60, 10), (33, 70), (40, 40), (0, 9), (12, 0)]
        lanes = [(*_random_pair(rng, n, m), bool(k % 2)) for k, (n, m) in enumerate(shapes)]
        ledger = process_mapping_ops()
        before = ledger.value("align-cell")
        _fill_lanes(lanes, AlignmentConfig())
        assert ledger.value("align-cell") - before == 60 * 10 + 33 * 70 + 40 * 40

    def test_unknown_kernel_rejected(self):
        # No name is known: the option is gone.
        for name in ("wavefront", "scalar"):
            with pytest.raises(TypeError, match="kernel"):
                AlignmentConfig(kernel=name)

    @given(
        kind=_pair_kinds,
        n=st.integers(1, 70),
        m=st.integers(1, 70),
        scoring=st.sampled_from(_SCORINGS),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=120, deadline=None, suppress_health_check=_ONE_FILL_PER_TEST)
    def test_gotoh_fills_agree_on_score_and_cigar(self, kind, n, m, scoring, seed, gotoh):
        """The compiled fill and the scalar reference are one function:
        the fill's flag bytes record exactly the path the reference's
        value-comparing traceback walks (E, then V, then the diagonal;
        extend over open), so score *and* CIGAR are equal -- and the
        CIGAR consumes both inputs and re-scores to that score."""
        a, b = _tie_heavy_pair(np.random.default_rng(seed), kind, n, m)
        score, cigar = gotoh_scalar(a, b, *scoring)
        assert _one_lane(a, b, *scoring) == (score, _classify_diagonals(cigar, a, b))
        assert _rescore(cigar, a, b, *scoring) == score

    @given(
        kind=_pair_kinds,
        n=st.integers(1, 90),
        m=st.integers(1, 60),
        scoring=st.sampled_from(_SCORINGS),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None, suppress_health_check=_ONE_FILL_PER_TEST)
    def test_free_ref_tail_extension_is_the_scalar_extension(
        self, kind, n, m, scoring, seed, gotoh
    ):
        """A head/tail extension stops on the first best row of the last
        column, in the compiled fill as in ``gotoh_scalar`` with
        ``free_ref_tail``: the same score and CIGAR, and up to that row
        it is the global alignment of the reference prefix it consumed."""
        a, b = _tie_heavy_pair(np.random.default_rng(seed), kind, n, m)
        extension = _scalar(a, b, *scoring, free_ref_tail=True)
        assert _one_lane(a, b, *scoring, free_ref_tail=True) == extension
        consumed = sum(length for op, length in extension[1] if op in "=XD")
        assert extension == _scalar(a[:consumed], b, *scoring)

    def test_free_ref_tail_tie_ends_on_the_first_best_row(self, gotoh):
        """Read ``AC`` against reference ``AGC``: H's last column is
        ``[-8, -4, -2, -2]``, so rows 2 (``1=1X``) and 3 (``1=1D1=``)
        tie. The extension ends on the first, in the reference and in
        the lane fill."""
        ref = np.array([0, 2, 1], dtype=np.uint8)
        read = np.array([0, 1], dtype=np.uint8)
        scoring = _SCORINGS[0]
        assert gotoh_scalar(ref, read, *scoring, free_ref_tail=True) == (-2.0, (("M", 2),))
        assert gotoh_scalar(ref, read, *scoring) == (-2.0, (("M", 1), ("D", 1), ("M", 1)))
        expected = (-2.0, (("=", 1), ("X", 1)))
        assert _one_lane(ref, read, *scoring, free_ref_tail=True) == expected

    @pytest.mark.parametrize("kind", ["random", "mutated", "constant", "two-letter"])
    def test_free_ref_tail_scalar_is_the_first_best_prefix(self, kind):
        """``gotoh_scalar`` with ``free_ref_tail`` scores the best global
        alignment of the read against any reference prefix, and consumes
        the shortest prefix reaching that score: checked against one
        global reference call per prefix, on every scoring."""
        rng = np.random.default_rng(210)
        for scoring in _SCORINGS:
            for _ in range(4):
                n, m = int(rng.integers(1, 30)), int(rng.integers(1, 20))
                a, b = _tie_heavy_pair(rng, kind, n, m)
                prefix_scores = [gotoh_scalar(a[:i], b, *scoring)[0] for i in range(n + 1)]
                best = max(prefix_scores)
                score, cigar = gotoh_scalar(a, b, *scoring, free_ref_tail=True)
                consumed = sum(length for op, length in cigar if op in "MD")
                assert score == best
                assert consumed == prefix_scores.index(best)

    @pytest.mark.parametrize("side", ["empty-read", "empty-ref"])
    def test_free_ref_tail_with_an_empty_side(self, side):
        """An empty read consumes no reference (score 0, empty CIGAR),
        where the global alignment deletes all of it; an empty reference
        leaves the read as one insertion either way. The lane fill gives
        the reference's result."""
        rng = np.random.default_rng(211)
        a, b = _random_pair(rng, 12, 0) if side == "empty-read" else _random_pair(rng, 0, 9)
        scoring = _SCORINGS[0]
        expected = (0.0, ()) if side == "empty-read" else gotoh_scalar(a, b, *scoring)
        assert gotoh_scalar(a, b, *scoring, free_ref_tail=True) == expected
        assert _one_lane(a, b, *scoring, free_ref_tail=True) == _scalar(
            a, b, *scoring, free_ref_tail=True
        )

    @given(
        lanes=st.lists(
            st.tuples(_pair_kinds, st.integers(0, 50), st.integers(0, 50), st.booleans()),
            min_size=1,
            max_size=8,
        ),
        scoring=st.sampled_from(_SCORINGS),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None, suppress_health_check=_ONE_FILL_PER_TEST)
    def test_every_lane_is_scalar_on_its_pair(self, lanes, scoring, seed, gotoh):
        """1-8 ragged lanes in one call -- tie-heavy kinds, empty sides,
        global and free-tail lanes mixed: each lane equals
        ``gotoh_scalar`` on its pair, with its ``free_ref_tail``."""
        rng = np.random.default_rng(seed)
        drawn = [
            (*_tie_heavy_pair(rng, kind if n else "random", n, m), free_ref_tail)
            for kind, n, m, free_ref_tail in lanes
        ]
        results = _fill_lanes(drawn, AlignmentConfig(*scoring))
        for (a, b, free_ref_tail), result in zip(drawn, results, strict=True):
            assert (result.score, result.cigar) == _scalar(a, b, *scoring, free_ref_tail=free_ref_tail)

    def test_many_mixed_lanes_in_one_call(self, gotoh):
        """300 lanes in one call: ragged shapes up to 130 x 90, tie-heavy
        kinds, empty sides, free-tail and global lanes interleaved. Each
        lane's slice of the packed codes and of the run buffers is its
        own: it equals ``gotoh_scalar`` on its pair, as when filled alone."""
        rng = np.random.default_rng(208)
        kinds = ("random", "mutated", "constant", "two-letter")
        drawn = []
        for lane in range(300):
            n, m = int(rng.integers(0, 131)), int(rng.integers(0, 91))
            kind = kinds[lane % 4] if n else "random"
            drawn.append((*_tie_heavy_pair(rng, kind, n, m), bool(rng.integers(0, 2))))
        scoring = _SCORINGS[2]
        results = _fill_lanes(drawn, AlignmentConfig(*scoring))
        assert results == [_fill_lanes([lane], AlignmentConfig(*scoring))[0] for lane in drawn]
        for (a, b, free_ref_tail), result in zip(drawn, results, strict=True):
            assert (result.score, result.cigar) == _scalar(a, b, *scoring, free_ref_tail=free_ref_tail)

    @given(
        lanes=st.lists(
            st.tuples(_pair_kinds, st.integers(1, 40), st.integers(1, 40), st.booleans()),
            min_size=2,
            max_size=8,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None, suppress_health_check=_ONE_FILL_PER_TEST)
    def test_lane_result_independent_of_lane_mates(self, lanes, seed, gotoh):
        """Filled alone or in one call with any mates (which share its
        packed codes and run buffers), a lane's score and CIGAR are the
        same."""
        rng = np.random.default_rng(seed)
        drawn = [
            (*_tie_heavy_pair(rng, kind, n, m), free_ref_tail) for kind, n, m, free_ref_tail in lanes
        ]
        config = AlignmentConfig()
        together = _fill_lanes(drawn, config)
        assert together == [_fill_lanes([lane], config)[0] for lane in drawn]

    def test_align_chain_identical_when_each_lane_is_filled_alone(
        self, index, reference, monkeypatch, gotoh
    ):
        """``align_chain`` fills the head, the tail and every segment of
        a mapped read in one ``_fill_lanes`` call; one call per lane
        gives the same alignment."""
        rng = np.random.default_rng(205)
        true = reference.codes[30_000:33_000]
        read = apply_errors(true, 0.12, rng).codes
        seeded = IncrementalChunkMapper(index, read_length=read.size)
        seeded.add_chunk(read, 0)
        chain, _ = seeded.chain_prefix()
        assert chain.strand == 1
        calls = []
        fill = alignment_module._fill_lanes

        def counted(lanes, config):
            calls.append(len(lanes))
            return fill(lanes, config)

        monkeypatch.setattr(alignment_module, "_fill_lanes", counted)
        together = align_chain(reference.codes, read, chain.anchors, index.config.k)
        assert len(calls) == 1 and calls[0] > 2

        def alone(lanes, config):
            return [fill([lane], config)[0] for lane in lanes]

        monkeypatch.setattr(alignment_module, "_fill_lanes", alone)
        assert align_chain(reference.codes, read, chain.anchors, index.config.k) == together
        assert {"X", "I", "D"} <= {op for op, _ in together[0].cigar}

    @given(
        first=st.sampled_from(["insert-first", "delete-first"]),
        mates=st.lists(
            st.sampled_from(["insert-first", "delete-first", "free-tail", "inversion"]), max_size=2
        ),
        scoring=st.tuples(
            st.integers(1, 6), st.integers(-8, -1), st.integers(-8, -1), st.integers(-3, -1)
        ).map(lambda values: tuple(map(float, values))),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None, suppress_health_check=_ONE_FILL_PER_TEST)
    def test_lanes_that_leave_the_first_band(self, first, mates, scoring, seed, gotoh):
        """Lanes whose optimal path strays more than 4 diagonals past the
        span between their corners, so ``gotoh.c``'s first band cannot
        certify a global one and the lane is filled again, wider: each
        lane still equals ``gotoh_scalar`` on its pair, score and CIGAR.
        Every example carries at least one such global lane."""
        rng = np.random.default_rng(seed)
        drawn = [_band_leaving_lane(rng, kind) for kind in (first, *mates)]
        results = _fill_lanes(drawn, AlignmentConfig(*scoring))
        for kind, (a, b, free_ref_tail), result in zip((first, *mates), drawn, results, strict=True):
            score, cigar = gotoh_scalar(a, b, *scoring, free_ref_tail=free_ref_tail)
            assert (result.score, result.cigar) == (score, _classify_diagonals(cigar, a, b))
            if kind != "inversion":
                assert _band_excursion(cigar, a.size, b.size) > 4, kind

    def test_band_leaving_lanes_at_the_score_limits(self, gotoh):
        """Every scoring value at +-2**20 and sides of 300-odd bases: a
        global lane that is filled again and a free-tail lane, scoring
        in the hundreds of millions, equal ``gotoh_scalar``'s."""
        rng = np.random.default_rng(212)
        scoring = (2.0**20, -(2.0**20), -(2.0**20), -(2.0**20))
        flank, stretch, inserted, deleted = (
            rng.integers(0, 4, size).astype(np.uint8) for size in (40, 250, 12, 9)
        )
        join = np.concatenate
        drawn = [
            (join([flank, stretch, deleted, flank]), join([flank, inserted, stretch, flank]), False),
            (join([flank, stretch, stretch[:40]]), join([flank, inserted, stretch]), True),
        ]
        results = _fill_lanes(drawn, AlignmentConfig(*scoring))
        for (a, b, free_ref_tail), result in zip(drawn, results, strict=True):
            score, cigar = gotoh_scalar(a, b, *scoring, free_ref_tail=free_ref_tail)
            assert (result.score, result.cigar) == (score, _classify_diagonals(cigar, a, b))
            assert _band_excursion(cigar, a.size, b.size) > 4
            assert score > 2**28


class TestSeedKernels:
    def test_compiled_seeding_is_what_runs(self):
        """Where a compiler exists, seeding must run ``seed.c``, so the
        ``native`` half of the comparisons below is not the numpy path
        checked against itself."""
        require_native("seed")
        assert native.backend("seed") == "native"
        with fallback("seed"):
            assert native.backend("seed") == "numpy"

    def test_batched_bit_identical_to_scalar(self, index, reference):
        rng = np.random.default_rng(301)
        for trial in range(12):
            start = int(rng.integers(0, len(reference) - 6_000))
            true = reference.codes[start : start + int(rng.integers(500, 6_000))]
            read = apply_errors(true, 0.10, rng).codes if trial % 2 else true
            keys, positions, strands = minimizer_arrays(read, index.config)
            offset = int(rng.integers(0, 50))
            args = (
                keys,
                positions,
                strands,
                index.key_array,
                index.bounds_array,
                index.position_array,
                index.strand_array,
            )
            batched = seed_anchors_batched(*args, read_offset=offset)
            scalar = seed_anchors_scalar(*args, read_offset=offset)
            for strand in (1, -1):
                assert np.array_equal(batched[strand], scalar[strand]), (trial, strand)

    def test_junk_read_and_empty_query(self, index):
        rng = np.random.default_rng(302)
        junk = rng.integers(0, 4, size=2_000).astype(np.uint8)
        keys, positions, strands = minimizer_arrays(junk, index.config)
        batched = seed_anchors_batched(
            keys,
            positions,
            strands,
            index.key_array,
            index.bounds_array,
            index.position_array,
            index.strand_array,
        )
        scalar = seed_anchors_scalar(
            keys,
            positions,
            strands,
            index.key_array,
            index.bounds_array,
            index.position_array,
            index.strand_array,
        )
        for strand in (1, -1):
            assert np.array_equal(batched[strand], scalar[strand])
        empty = np.empty(0, dtype=np.uint64)
        out = seed_anchors_batched(
            empty,
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int8),
            index.key_array,
            index.bounds_array,
            index.position_array,
            index.strand_array,
        )
        assert out[1].shape == (0, 2) and out[-1].shape == (0, 2)

    def test_collectors_agree_across_kernels(self, index, reference, seeding):
        # The collector, compiled or on the numpy path, over the index's
        # flat arrays: equal to the reference called on the same arrays.
        read = reference.codes[40_000:44_000]
        fast = collect_anchor_arrays(index, read, read_offset=7)
        base = seed_anchors_scalar(
            *minimizer_arrays(read, index.config),
            index.key_array,
            index.bounds_array,
            index.position_array,
            index.strand_array,
            read_offset=7,
        )
        for strand in (1, -1):
            assert fast[strand].dtype == np.int64
            assert np.array_equal(base[strand], fast[strand])

    @pytest.mark.parametrize("case", ["clean-6kb", "noisy-9kb", "junk-3kb"])
    def test_trail_case_bit_identical(self, seed_trail, case):
        """Reads up to 9 kb against a 150 kb default-config index."""
        index, reads = seed_trail
        read = reads[case]
        args = (
            *minimizer_arrays(read, index.config),
            index.key_array,
            index.bounds_array,
            index.position_array,
            index.strand_array,
        )
        batched = seed_anchors_batched(*args)
        scalar = seed_anchors_scalar(*args)
        for strand in (1, -1):
            assert batched[strand].dtype == scalar[strand].dtype
            assert batched[strand].shape == scalar[strand].shape
            assert batched[strand].tobytes() == scalar[strand].tobytes()

    def test_unknown_kernel_rejected(self, index, reference):
        # No name is known: the option is gone.
        read = reference.codes[:500]
        for call in (
            lambda: MapperConfig(seed_kernel="scalar"),
            lambda: collect_anchor_arrays(index, read, kernel="scalar"),
        ):
            with pytest.raises(TypeError, match="kernel"):
                call()

    @given(
        n_keys=st.integers(0, 40),
        n_query=st.integers(0, 60),
        read_offset=st.integers(0, 500),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_batched_bit_identical_over_generated_shapes(self, n_keys, n_query, read_offset, seed):
        """A synthetic flat index (ragged entries, some empty) probed by
        empty, repeated and missing query keys -- below, between and
        above the indexed ones -- with a non-zero ``read_offset``."""
        rng = np.random.default_rng(seed)
        keys = np.sort(rng.choice(80, size=n_keys, replace=False)).astype(np.uint64) + np.uint64(10)
        counts = rng.integers(0, 5, size=n_keys)
        bounds = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        total = int(bounds[-1])
        flat = (
            keys,
            bounds,
            rng.integers(0, 5_000, size=total).astype(np.int64),
            rng.choice(np.array([1, -1], dtype=np.int8), size=total),
        )
        query = (
            rng.integers(0, 100, size=n_query).astype(np.uint64),
            rng.integers(0, 300, size=n_query).astype(np.int64),
            rng.choice(np.array([1, -1], dtype=np.int8), size=n_query),
        )
        batched = seed_anchors_batched(*query, *flat, read_offset=read_offset)
        scalar = seed_anchors_scalar(*query, *flat, read_offset=read_offset)
        for strand in (1, -1):
            assert batched[strand].dtype == scalar[strand].dtype == np.int64
            assert batched[strand].shape == scalar[strand].shape
            assert np.array_equal(batched[strand], scalar[strand])


    @given(
        data=st.data(),
        k=st.integers(4, 28),
        w=st.integers(1, 40) | st.just(2**63),
        max_occurrences=st.sampled_from([0, 1, 3, 64]),
        read_offset=st.sampled_from([0, 7, 1_000]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_compiled_seeding_bit_identical_to_numpy_and_scalar(
        self, data, k, w, max_occurrences, read_offset, seed
    ):
        """``collect_anchor_arrays`` on ``seed.c`` gives the numpy
        path's arrays and the per-key reference's, in dtype, shape and
        bytes; so does its minimizer scan. The reference is random
        bases plus a tile repeated up to 70 times, so entries reach
        ``max_occurrences`` (0 leaves the index empty); the read is a
        mutated slice of it, random codes, a homopolymer, or an ``AT``
        or ``ACGT`` tile, whose k-mers at even k are palindromes, so
        windows are all ambiguous. Empty reads, reads shorter than k
        and reads of at most w k-mers are drawn too, and repeats
        overflow the first row buffer. ``w=2**63``, the edge of
        ``MinimizerConfig``'s domain, makes each read one window."""
        require_native("seed")
        rng = np.random.default_rng(seed)
        tile = rng.integers(0, 4, int(rng.integers(k, 3 * k))).astype(np.uint8)
        reference = ReferenceGenome(
            name="property",
            codes=np.concatenate(
                [rng.integers(0, 4, int(rng.integers(0, 3_000))), np.tile(tile, int(rng.integers(0, 71)))]
            ),
        )
        config = MinimizerConfig(k=k, w=w)
        index = MinimizerIndex.build(reference, config, max_occurrences=max_occurrences)
        kind = data.draw(st.sampled_from(["slice", "random", "homopolymer", "AT", "ACGT"]))
        length = data.draw(st.integers(0, 600))
        if kind == "slice":
            start = int(rng.integers(0, max(1, len(reference) - length)))
            read = apply_errors(reference.codes[start : start + length], 0.05, rng).codes
        elif kind == "random":
            read = rng.integers(0, 4, length).astype(np.uint8)
        elif kind == "homopolymer":
            read = np.full(length, rng.integers(0, 4), dtype=np.uint8)
        else:
            unit = alphabet.encode(kind)
            read = np.tile(unit, length // unit.size + 1)[:length]

        compiled_minimizers = minimizer_arrays(read, config)
        compiled = collect_anchor_arrays(index, read, read_offset)
        with fallback("seed"):
            numpy_minimizers = minimizer_arrays(read, config)
            batched = collect_anchor_arrays(index, read, read_offset)
        scalar = seed_anchors_scalar(
            *numpy_minimizers,
            index.key_array,
            index.bounds_array,
            index.position_array,
            index.strand_array,
            read_offset=read_offset,
        )
        for got, want in zip(compiled_minimizers, numpy_minimizers, strict=True):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert sorted(compiled) == sorted(batched) == sorted(scalar) == [-1, 1]
        for strand in (1, -1):
            for want in (batched[strand], scalar[strand]):
                assert compiled[strand].dtype == want.dtype == np.int64
                assert compiled[strand].shape == want.shape
                assert compiled[strand].tobytes() == want.tobytes()

    def test_row_buffer_too_small_on_the_first_call(self, monkeypatch):
        """A read of a tile the reference repeats 64 times needs far more
        rows than the first buffer holds: the kernel returns the count,
        the wrapper calls once more with that many, and the rows are the
        numpy path's, none dropped."""
        require_native("seed")
        rng = np.random.default_rng(41)
        tile = rng.integers(0, 4, 97).astype(np.uint8)
        reference = ReferenceGenome(
            name="repeats", codes=np.concatenate([rng.integers(0, 4, 2_000), np.tile(tile, 64)])
        )
        index = MinimizerIndex.build(reference, MinimizerConfig(k=13, w=10))
        read = np.tile(tile, 4)
        library = native.kernel("seed")
        capacities = []

        class Counting:
            def seed_anchors(self, *args):
                capacities.append(args[11])
                return library.seed_anchors(*args)

        monkeypatch.setitem(native._LOADED, "seed", Counting())
        compiled = collect_anchor_arrays(index, read, read_offset=3)
        rows = compiled[1].shape[0] + compiled[-1].shape[0]
        assert len(capacities) == 2 and capacities[0] < rows == capacities[1]
        with fallback("seed"):
            batched = collect_anchor_arrays(index, read, read_offset=3)
        for strand in (1, -1):
            assert compiled[strand].tobytes() == batched[strand].tobytes()

    @pytest.mark.parametrize("max_read_length", [None, 3_000], ids=["ecoli-map", "read-capped"])
    def test_index_build_identical_across_backends(self, max_read_length):
        """The benchmark workloads' references, indexed by the compiled
        scan and by the numpy one: the same four arrays, byte for byte.
        ``ecoli-map`` indexes the full 400 kb ``ecoli-like`` genome;
        ``ecoli-align``, ``signal-viterbi`` and ``reject-short`` cap
        their reads, which shrinks it to the same 120 kb genome."""
        profile = ECOLI_LIKE if max_read_length is None else small_profile(ECOLI_LIKE, max_read_length)
        reference = profile_reference(profile)
        require_native("seed")
        compiled = MinimizerIndex.build(reference)
        with fallback("seed"):
            numpy_built = MinimizerIndex.build(reference)
        for name in ("key_array", "bounds_array", "position_array", "strand_array"):
            got, want = getattr(compiled, name), getattr(numpy_built, name)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), name


@pytest.fixture(scope="module")
def seed_trail():
    """Seed trail cases: the index, and the reads by name."""
    rng = np.random.default_rng(28)
    reference = ReferenceGenome.random(150_000, seed=29)
    return MinimizerIndex.build(reference), {
        "clean-6kb": reference.fetch(20_000, 26_000),
        "noisy-9kb": apply_errors(reference.fetch(60_000, 69_000), 0.12, rng).codes,
        "junk-3kb": rng.integers(0, 4, 3_000).astype(np.uint8),
    }


class TestMapperIntegration:
    def test_map_read_identical_across_planes(self, index, reference, monkeypatch):
        rng = np.random.default_rng(401)
        mapper = Mapper(index)
        reads = []
        for _ in range(6):
            start = int(rng.integers(0, len(reference) - 8_000))
            true = reference.codes[start : start + 6_000]
            reads.append(alphabet.decode(apply_errors(true, 0.1, rng).codes))
        fast = [mapper.map_read(read, f"r{trial}") for trial, read in enumerate(reads)]

        # The scalar plane: seeding falls back to the numpy path, whose
        # probe is replaced by its reference, and the chain DP and the
        # lane fill fall back to theirs, as they do without a compiler.
        calls = dict.fromkeys(("seed", "chain", "align"), 0)

        def counted(stage, reference_kernel):
            def kernel(*args, **kwargs):
                calls[stage] += 1
                return reference_kernel(*args, **kwargs)

            return kernel

        monkeypatch.setitem(native._LOADED, "seed", None)
        monkeypatch.setattr(
            seeding_module, "seed_anchors_batched", counted("seed", seed_anchors_scalar)
        )
        monkeypatch.setitem(native._LOADED, "chain", None)
        monkeypatch.setattr(
            chain_kernels, "chain_scores_scalar", counted("chain", chain_scores_scalar)
        )
        monkeypatch.setitem(native._LOADED, "gotoh", None)
        monkeypatch.setattr(alignment_module, "gotoh_scalar", counted("align", gotoh_scalar))
        slow = [mapper.map_read(read, f"r{trial}") for trial, read in enumerate(reads)]
        assert all(calls.values()), calls
        assert fast == slow

    def test_gathered_is_np_unique_of_the_blocks(self, index, reference):
        """Overlapping chunks seed the same anchors twice, and a read
        length shorter than the seeded bases makes reverse-strand read
        positions negative: the gathered rows are still exactly
        ``np.unique(rows, axis=0)`` of every block, strand by strand."""
        chimera = np.concatenate(
            [reference.codes[30_000:31_500], alphabet.reverse_complement(reference.codes[60_000:61_500])]
        )
        read = apply_errors(chimera, 0.05, np.random.default_rng(7)).codes
        mapper = IncrementalChunkMapper(index, read_length=read.size)
        for at in (0, 800, 400, 1_600, 1_200, 2_000):
            mapper.add_chunk(read[at : at + 1_000], at)
        k = index.config.k
        for read_length in (read.size, 1_000):
            mapper.set_read_length(read_length)
            gathered = mapper._gathered()
            for strand, blocks in mapper._anchor_blocks.items():
                rows = np.concatenate(blocks)
                if strand == -1:
                    rows = np.stack([rows[:, 0], read_length - k - rows[:, 1]], axis=1)
                want = np.unique(rows, axis=0)
                assert gathered[strand].dtype == want.dtype
                assert gathered[strand].tobytes() == want.tobytes(), (strand, read_length)

    def test_incremental_matches_whole_read(self, index, reference):
        rng = np.random.default_rng(402)
        true = reference.codes[55_000:59_000]
        read = apply_errors(true, 0.08, rng).codes
        whole = Mapper(index).map_read(alphabet.decode(read), "whole")
        inc = IncrementalChunkMapper(index, read_length=read.size)
        for at in range(0, read.size, 700):
            inc.add_chunk(read[at : at + 700], at)
        result = inc.finalize("whole", read)
        assert result.mapped == whole.mapped
        assert (result.ref_start, result.ref_end, result.strand) == (
            whole.ref_start,
            whole.ref_end,
            whole.strand,
        )


class TestOpsAccounting:
    def test_counter_contract(self):
        counter = Counter("ops", label="kind")
        counter.inc("chain-candidate", 5)
        counter.inc("align-cell", 7)
        counter.inc("chain-candidate", 2)
        assert counter.value("chain-candidate") == 7
        assert counter.value() == 14
        assert counter.by_key() == {"chain-candidate": 7, "align-cell": 7}
        with pytest.raises(ValueError):
            record_mapping_ops("align-cell", -1)
        counter.reset()
        assert counter.value() == 0

    def test_cost_anchors_exist(self):
        for kind in MAPPING_OP_KINDS:
            assert DEFAULT_COSTS.kernel_ops_per_base(kind) > 0

    def test_workload_carries_ledger_delta(self, index, reference):
        dataset = generate_dataset(
            small_profile(ECOLI_LIKE, max_read_length=3_000), scale=0.0003, seed=31
        )
        system = GenPIPPipeline(MinimizerIndex.build(dataset.reference), GenPIPConfig(), align=True)
        ledger = process_mapping_ops()
        before = ledger.by_key()
        report = system.run(dataset)
        after = ledger.by_key()
        delta = {kind: after.get(kind, 0) - before.get(kind, 0) for kind in after}
        assert delta.get("chain-candidate", 0) > 0
        assert delta.get("align-cell", 0) > 0
        workload = PipelineWorkload.from_report(report, mapping_ops=delta)
        assert workload.chain_candidate_ops == delta["chain-candidate"]
        assert workload.align_cell_ops == delta["align-cell"]
        scaled = workload.scaled(2.0)
        assert scaled.chain_candidate_ops == 2.0 * workload.chain_candidate_ops
        assert scaled.align_cell_ops == 2.0 * workload.align_cell_ops
        # Ops-based mapping time differs from (but stays in the regime
        # of) the per-base estimate; without ops it is bit-identical.
        plain = PipelineWorkload.from_report(report)
        est_ops = evaluate_system("CPU", workload)
        est_plain = evaluate_system("CPU", plain)
        assert est_ops.breakdown["map"] > 0
        assert est_ops.breakdown["basecall"] == est_plain.breakdown["basecall"]
        ratio = est_ops.breakdown["map"] / est_plain.breakdown["map"]
        assert 0.1 < ratio < 10.0

    def test_ledger_is_the_same_on_the_scalar_fallbacks(self, monkeypatch):
        """``kernels.chain_candidates`` and ``kernels.align_cells`` of an
        aligned run: the compiled kernels charge the ledger once per
        call, the scalar references once per call and lane, and the
        totals are equal (so is the report)."""
        dataset = generate_dataset(
            small_profile(ECOLI_LIKE, max_read_length=2_000), scale=0.0002, seed=31
        )
        system = GenPIPPipeline(MinimizerIndex.build(dataset.reference), GenPIPConfig(), align=True)
        ledger = process_mapping_ops()

        def charged_run():
            before = ledger.by_key()
            report = system.run(dataset)
            delta = {kind: ops - before.get(kind, 0) for kind, ops in ledger.by_key().items()}
            return report.outcomes, delta

        outcomes, compiled = charged_run()
        monkeypatch.setitem(native._LOADED, "chain", None)
        monkeypatch.setitem(native._LOADED, "gotoh", None)
        assert charged_run() == (outcomes, compiled)
        assert compiled["chain-candidate"] > 0 and compiled["align-cell"] > 0

    def test_mapping_ops_global_helper(self):
        before = mapping_ops()
        gotoh_scalar(
            np.zeros(3, dtype=np.uint8), np.zeros(4, dtype=np.uint8), 2.0, -4.0, -4.0, -2.0
        )
        assert mapping_ops() - before == 12


class TestParallelEquivalence:
    def test_serial_and_pooled_identical_with_kernels(self):
        dataset = generate_dataset(
            small_profile(ECOLI_LIKE, max_read_length=3_000), scale=0.0004, seed=37
        )
        index = MinimizerIndex.build(dataset.reference)
        system = GenPIPPipeline(index, GenPIPConfig(), align=True)
        serial = system.run(dataset)
        pooled = system.run(dataset, workers=2, batch_size=5)
        assert pooled.outcomes == serial.outcomes
        assert pooled.counters == serial.counters
        assert pooled.mean_identity() == serial.mean_identity()


class TestNoKernelIsSelectedByName:
    def test_no_kernel_name_option_or_registry_under_src(self):
        """Production calls one kernel per stage: under ``src/repro``
        nothing takes or reports a kernel *name* (no ``str`` parameter,
        dataclass field or property called ``kernel`` / ``*_kernel``)
        and nothing maps a name to a kernel (no ``*_KERNELS`` tuple, no
        ``resolve_*_kernel``)."""
        option = re.compile(r"(\w+_)?kernel")
        registry = re.compile(r"[A-Z]+_KERNELS|resolve_\w+_kernel")
        offenders = []
        root = Path(repro.__file__).parent
        for path in sorted(root.rglob("*.py")):
            module = path.relative_to(root).as_posix()
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                annotated = None
                if isinstance(node, ast.arg):
                    annotated = (node.arg, node.annotation)
                elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    annotated = (node.target.id, node.annotation)
                elif isinstance(node, ast.FunctionDef):  # a property naming the kernel
                    annotated = (node.name, node.returns)
                if (
                    annotated is not None
                    and option.fullmatch(annotated[0])
                    and annotated[1] is not None
                    and "str" in ast.unparse(annotated[1])
                ):
                    offenders.append((module, node.lineno, annotated[0]))
                names = [
                    getattr(node, field, None) for field in ("id", "attr", "name", "asname", "arg")
                ]
                offenders.extend(
                    (module, getattr(node, "lineno", 0), name)
                    for name in names
                    if isinstance(name, str) and registry.fullmatch(name.rpartition(".")[2])
                )
        assert not offenders, offenders

    def test_one_gotoh_fill_and_no_deleted_fill_names(self):
        """Production fills Gotoh one way, the lane fill, with no
        crossover: the deleted wavefront kernel, small-segment wrapper,
        per-segment row pipeline and the three thresholds are named
        nowhere in shipped code, and ``mapping/alignment.py`` defines no
        ``_*_CELLS`` constant."""
        deleted = re.compile(
            r"gotoh_wavefront|_align_small|_align_core|align_banded"
            r"|_WAVEFRONT_MIN_CELLS|_KERNEL_MAX_CELLS|_ROW_PIPELINE_MIN_CELLS"
        )
        repo = Path(__file__).resolve().parents[1]
        offenders = [
            (path.relative_to(repo).as_posix(), match.group())
            for top in ("src", "examples", "benchmarks")
            for path in sorted((repo / top).rglob("*.py"))
            for match in deleted.finditer(path.read_text(encoding="utf-8"))
        ]
        assert not offenders, offenders
        tree = ast.parse(Path(alignment_module.__file__).read_text(encoding="utf-8"))
        thresholds = [
            target.id
            for node in tree.body
            if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name) and target.id.endswith("_CELLS")
        ]
        assert thresholds == []

    def test_one_fallback_per_mapping_kernel(self):
        """The Gotoh lane fill has one fallback, its scalar reference,
        the chain stage one, ``_gathered`` and ``best_chain``, and
        seeding one, the numpy path: no module under ``src/repro``
        defines a name of the deleted numpy folds, and ``chain_prefix``,
        ``_fill_lanes`` and ``collect_anchor_arrays`` each branch once on
        a compiled kernel that did not load, into a call of their
        fallback. ``chain_scores`` is the scalar DP alone: it never
        branches."""
        deleted = {"_fold_blocked", "_combine_rows", "_fill_group", "_lane_groups", "_SPEC_ROUNDS"}
        root = Path(repro.__file__).parent
        defined = []
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef):
                    names = [node.name]
                elif isinstance(node, ast.Assign | ast.AnnAssign | ast.AugAssign):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    names = [target.id for target in targets if isinstance(target, ast.Name)]
                else:
                    continue
                module = path.relative_to(root).as_posix()
                defined.extend((module, node.lineno, name) for name in names if name in deleted)
        assert not defined, defined

        def is_none_test(test):
            return (
                isinstance(test, ast.Compare)
                and [type(op) for op in test.ops] == [ast.Is]
                and isinstance(test.comparators[0], ast.Constant)
                and test.comparators[0].value is None
            )

        def called(node):
            return {
                ast.unparse(call.func).rpartition(".")[2]
                for call in ast.walk(node)
                if isinstance(call, ast.Call)
            }

        for module, function, reference, helpers in (
            (mapper_module, "chain_prefix", "best_chain", {"_gathered"}),
            (alignment_module, "_fill_lanes", "gotoh_scalar", {"AlignmentResult", "_classify_diagonals"}),
            (seeding_module, "collect_anchor_arrays", "seed_anchors_batched", {"minimizer_arrays"}),
        ):
            tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
            (body,) = [
                node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == function
            ]
            fallbacks = [
                node for node in ast.walk(body) if isinstance(node, ast.If) and is_none_test(node.test)
            ]
            assert len(fallbacks) == 1, (function, [node.lineno for node in fallbacks])
            assert reference in called(fallbacks[0]), function
            assert called(fallbacks[0]) <= {reference, *helpers}, (function, called(fallbacks[0]))
