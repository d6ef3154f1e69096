"""Tests for the vectorised kernel plane (:mod:`repro.kernels`).

Two equivalence families, each on hypothesis-generated shapes and on
fixed-seed trail cases (``test_trail_case_bit_identical``):

* the anti-diagonal wavefront sDTW must be **bit-identical** to the
  scalar row-major reference (same float64 ops per cell, reassociated
  only across independent cells);
* the Viterbi forward pass and traceback must be bit-identical on the
  compiled trellis, on the numpy fold and on the triple-loop scalar
  reference, up to a production-sized k=5 chunk.

Plus the perf hooks: each backend's ``kernel_workload`` must report the
op counts the system models charge.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
from conftest import fallback, require_native
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.basecalling import ViterbiBackendConfig, ViterbiChunkBasecaller
from repro.basecalling.viterbi import ViterbiBasecaller, ViterbiConfig
from repro.core import GenPIPConfig, GenPIPPipeline
from repro.kernels import (
    TRANSITIONS_PER_STATE,
    KernelWorkload,
    move_predecessors,
    sample_emissions,
    sdtw_cost,
    sdtw_cost_scalar,
    viterbi_forward,
    viterbi_forward_scalar,
    viterbi_state_ops,
    viterbi_traceback,
)
from repro.kernels.native import backend
from repro.kernels.sdtw import znormalise
from repro.kernels.viterbi import _BLOCK
from repro.mapping.index import MinimizerIndex
from repro.nanopore.datasets import ECOLI_LIKE, generate_dataset, small_profile
from repro.nanopore.pore_model import PoreModel
from repro.nanopore.signal import RawSignal, SignalConfig, synthesize_signal
from repro.nanopore.signal_read import SignalRead
from repro.perf.costs import DEFAULT_COSTS
from repro.perf.workload import PipelineWorkload
from repro.signal.rejection import SignalRejectionPolicy

#: Small pore (64 Viterbi states) keeps trellis tests fast.
FAST_VITERBI = ViterbiBackendConfig(pore_k=3)


class TestSdtwEquivalence:
    """Wavefront and scalar kernels are bit-identical, not merely close."""

    @pytest.mark.parametrize(
        "n, m",
        [
            (120, 900),
            (150, 1200),
            (100, 800),
            (300, 200),  # query longer than the reference
            (1, 500),
            (64, 64),
        ],
    )
    def test_bitwise_equal_costs(self, n, m):
        rng = np.random.default_rng(20)
        query = rng.normal(size=n)
        reference = rng.normal(size=m)
        a = sdtw_cost(query, reference)
        b = sdtw_cost_scalar(query, reference)
        assert a == b  # exact float64 equality
        assert np.isfinite(a)

    @pytest.mark.parametrize(
        "case", ["random-unbanded", "query-longer-than-reference", "single-sample-query"]
    )
    def test_trail_case_bit_identical(self, case):
        # One generator draws every case in order; the two dropped
        # draws keep the later cases' inputs fixed.
        rng = np.random.default_rng(20)
        cases = {
            name: (rng.normal(size=n), rng.normal(size=m))
            for name, n, m in [
                ("random-unbanded", 120, 900),
                ("dropped", 150, 1200),
                ("dropped", 100, 800),
                ("query-longer-than-reference", 300, 200),
                ("single-sample-query", 1, 500),
            ]
        }
        wavefront = sdtw_cost(*cases[case])
        scalar = sdtw_cost_scalar(*cases[case])
        assert np.float64(wavefront).tobytes() == np.float64(scalar).tobytes()

    def test_empty_query_costs_zero(self):
        empty = np.empty(0)
        reference = np.arange(10.0)
        assert sdtw_cost(empty, reference) == 0.0
        assert sdtw_cost_scalar(empty, reference) == 0.0

    def test_empty_reference_is_inf(self):
        query = np.arange(5.0)
        empty = np.empty(0)
        assert np.isinf(sdtw_cost(query, empty))
        assert np.isinf(sdtw_cost_scalar(query, empty))

    def test_constant_signal_znormalises_to_zero(self):
        # std == 0 maps to an all-zero z-normalised array on both paths.
        query = np.full(30, 7.0)
        reference = np.full(200, -2.0)
        a = sdtw_cost(query, reference)
        b = sdtw_cost_scalar(query, reference)
        assert a == b == 0.0

    def test_dispatch_and_kernel_registry(self):
        """There is no dispatch and no registry: production calls
        ``sdtw_cost``, and no sDTW entry point takes a kernel name."""
        rng = np.random.default_rng(9)
        query, reference = rng.normal(size=50), rng.normal(size=300)
        assert sdtw_cost(query, reference) == sdtw_cost_scalar(query, reference)
        pore = PoreModel.synthetic(k=3, seed=7)
        codes = rng.integers(0, 4, size=400).astype(np.uint8)
        for call in (
            lambda: sdtw_cost(query, reference, kernel="scalar"),
            lambda: SignalRejectionPolicy([reference], kernel="scalar"),
            lambda: SignalRejectionPolicy.from_reference(pore, codes, kernel="scalar"),
        ):
            with pytest.raises(TypeError, match="kernel"):
                call()
        assert not hasattr(SignalRejectionPolicy, "kernel")

    def test_signal_filter_entry_point_matches_kernels(self):
        """The SER screen's cost is the production kernel's on the
        pair-averaged prefix: each query value is stored twice, so the
        pair means give the query back exactly."""
        rng = np.random.default_rng(14)
        query = rng.normal(90.0, 10.0, size=80).astype(np.float32)
        reference = rng.normal(size=600)
        read = SignalRead(
            "q", RawSignal(samples=np.repeat(query, 2), base_starts=np.arange(0, 160, 2))
        )
        policy = SignalRejectionPolicy([reference], prefix_bases=80)
        assert policy.decide(read).best_cost == sdtw_cost_scalar(
            query.astype(np.float64), reference
        )

    @given(
        n=st.integers(0, 40),
        m=st.integers(0, 90),
        reference_normalized=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_wavefront_bit_identical_over_generated_shapes(
        self, n, m, reference_normalized, seed
    ):
        """Empty and query-longer-than-reference shapes (``inf`` on both
        sides for an empty reference), templates normalised by the caller."""
        rng = np.random.default_rng(seed)
        query = rng.normal(size=n)
        reference = rng.normal(loc=2.0, scale=3.0, size=m)
        if reference_normalized:
            reference = znormalise(reference)
        kwargs = dict(reference_normalized=reference_normalized)
        assert sdtw_cost(query, reference, **kwargs) == sdtw_cost_scalar(query, reference, **kwargs)


def _forward_all(k, observations, levels, sigma, log_stay, log_move):
    """(compiled trellis, numpy fold, scalar reference on the same
    emissions) outputs of one trellis."""
    log_sigma = np.log(sigma)
    args = (observations, levels, sigma, log_sigma, log_stay, log_move)
    native = viterbi_forward(*args)
    with fallback("trellis"):
        fold = viterbi_forward(*args)
    slow = viterbi_forward_scalar(
        sample_emissions(observations, levels, sigma, log_sigma),
        move_predecessors(k),
        log_stay,
        log_move,
    )
    return native, fold, slow


def _assert_bitwise_equal(first, *others) -> None:
    for other in others:
        for a, b in zip(first, other, strict=True):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()


def _assert_paths_equal(k, native, fold, slow) -> None:
    """Compiled and Python tracebacks give one path on every forward output."""
    pred = move_predecessors(k)
    paths = [viterbi_traceback(native[0], pred, native[2])]
    with fallback("trellis"):
        paths += [viterbi_traceback(out[0], pred, out[2]) for out in (native, fold, slow)]
    for path in paths[1:]:
        assert path.tobytes() == paths[0].tobytes()


#: Trellis lengths around the kernel's block edges (0 and 1 included).
BLOCK_EDGE_LENGTHS = (0, 1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1)


class TestViterbiTrellisEquivalence:
    """Compiled trellis == numpy fold == scalar reference, bit for bit."""

    def test_compiled_trellis_is_what_runs(self):
        """Where a C compiler exists, every other test here compares the
        compiled trellis (not the fold twice) with the reference."""
        require_native("trellis")
        assert backend("trellis") == "native"
        with fallback("trellis"):
            assert backend("trellis") == "numpy"

    @staticmethod
    def _trellis(k=3, t=40, seed=11):
        pore = PoreModel.synthetic(k=k, seed=7)
        decoder = ViterbiBasecaller(pore)
        rng = np.random.default_rng(seed)
        samples = rng.normal(loc=pore.levels.mean(), scale=10.0, size=t)
        return decoder, samples

    @staticmethod
    def _forward(decoder, samples):
        return _forward_all(
            decoder.pore_model.k,
            samples,
            decoder.pore_model.levels,
            decoder._sigma,
            decoder._log_stay,
            decoder._log_move,
        )

    def test_bitwise_equal_forward(self):
        _assert_bitwise_equal(*self._forward(*self._trellis()))

    def test_traceback_paths_agree(self):
        decoder, samples = self._trellis(t=60, seed=2)
        _assert_paths_equal(decoder.pore_model.k, *self._forward(decoder, samples))

    def test_empty_trellis(self):
        decoder, samples = self._trellis(t=0)
        outputs = self._forward(decoder, samples)
        backptr, scores, dp = outputs[0]
        assert backptr.shape == scores.shape == (0, 64)
        assert dp.size == 0
        assert viterbi_traceback(backptr, decoder._pred, dp).size == 0
        _assert_bitwise_equal(*outputs)

    @given(
        k=st.sampled_from((1, 2, 3)),
        t=st.one_of(st.sampled_from(BLOCK_EDGE_LENGTHS), st.integers(0, 300)),
        tied_priors=st.booleans(),
        wide_sigma=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_folded_kernel_bit_identical_on_tie_heavy_trellises(
        self, k, t, tied_priors, wide_sigma, seed
    ):
        """Integer observations and levels make equal predecessors and
        equal move/stay candidates common, so every tie-break -- first
        maximum of the four predecessors, stay on ``move == stay``, the
        first maximum of the final scores -- is exercised, across block
        edges and with ``log_stay == log_move``. The compiled trellis,
        the fold and the reference agree on every byte and every path."""
        rng = np.random.default_rng(seed)
        n_states = 4**k
        levels = rng.integers(80, 86, size=n_states).astype(np.float64)
        sigma = np.full(n_states, 2.0 if wide_sigma else 1.0)
        observations = rng.integers(78, 88, size=t).astype(np.float64)
        log_stay = float(np.log(0.25))
        log_move = log_stay if tied_priors else float(np.log(0.05))
        outputs = _forward_all(k, observations, levels, sigma, log_stay, log_move)
        _assert_bitwise_equal(*outputs)
        _assert_paths_equal(k, *outputs)

    def test_folded_kernel_bit_identical_at_k5(self):
        """The production state count (1 024 states, 256 columns) on
        noisy samples, across two block edges."""
        decoder, samples = self._trellis(k=5, t=2 * _BLOCK + 1, seed=31)
        _assert_bitwise_equal(*self._forward(decoder, samples))

    @pytest.mark.parametrize("case", ["k3-noisy-signal", "k5-300-bases"])
    def test_trail_case_bit_identical(self, case):
        """Synthesized current, not random normals: ``k5-300-bases`` is
        a production-sized chunk of about 1 800 observations."""
        k, n_bases, seed = {"k3-noisy-signal": (3, 40, 21), "k5-300-bases": (5, 300, 25)}[case]
        pore = PoreModel.synthetic(k=k)
        codes = np.random.default_rng(seed).integers(0, 4, n_bases).astype(np.uint8)
        signal = synthesize_signal(
            codes, pore, SignalConfig(noise_std=2.0), np.random.default_rng(seed + 1)
        )
        decoder = ViterbiBasecaller(pore, ViterbiConfig(extra_noise_std=2.0))
        samples = signal.samples.astype(np.float64)
        outputs = self._forward(decoder, samples)
        _assert_bitwise_equal(*outputs)
        _assert_paths_equal(k, *outputs)

    def test_sample_emissions_are_the_per_sample_gaussian(self):
        decoder, samples = self._trellis(t=12, seed=5)
        z = (samples[:, None] - decoder.pore_model.levels[None, :]) / decoder._sigma[None, :]
        np.testing.assert_array_equal(
            sample_emissions(
                samples, decoder.pore_model.levels, decoder._sigma, decoder._log_sigma
            ),
            -0.5 * z * z - decoder._log_sigma[None, :],
        )

    def test_move_predecessors_are_columns_of_the_folded_view(self):
        """``pred[s, c] == c*S/4 + (s >> 2)``: state ``s``'s predecessors
        are column ``s >> 2`` of ``dp.reshape(4, S/4)``."""
        for k in (1, 2, 3, 5):
            n_states = 4**k
            pred = move_predecessors(k)
            assert pred.shape == (n_states, 4) and pred.dtype == np.int64
            folded = np.arange(n_states).reshape(4, n_states // 4)
            for s in range(n_states):
                np.testing.assert_array_equal(pred[s], folded[:, s >> 2])
        with pytest.raises(ValueError):
            move_predecessors(0)

    @pytest.mark.parametrize(
        "name, value, match",
        [
            ("observations", np.nan, "observations must be finite"),
            ("observations", -np.inf, "observations must be finite"),
            ("sigma", np.nan, "sigma must be finite and positive"),
            ("sigma", np.inf, "sigma must be finite and positive"),
            ("sigma", 0.0, "sigma must be finite and positive"),
            ("sigma", -2.0, "sigma must be finite and positive"),
            ("levels", np.nan, "must be finite"),
            ("log_sigma", np.inf, "must be finite"),
        ],
    )
    def test_non_finite_input_is_refused(self, name, value, match):
        """One bad value used to decode without a word: a NaN sample or
        sigma gives NaN scores, on which the fold's ``maximum`` and the
        strict ``move > stay`` of the compiled trellis disagree. Refusing
        it makes "compiled == fold" hold for every accepted input."""
        decoder, samples = self._trellis(t=20, seed=3)
        arrays = {
            "observations": samples.copy(),
            "levels": decoder.pore_model.levels.copy(),
            "sigma": decoder._sigma.copy(),
            "log_sigma": decoder._log_sigma.copy(),
        }
        arrays[name][7 % arrays[name].size] = value
        for trellis in (contextlib.nullcontext(), fallback("trellis")):
            with trellis, pytest.raises(ValueError, match=match):
                viterbi_forward(**arrays, log_stay=decoder._log_stay, log_move=decoder._log_move)

    def test_state_count_must_be_a_positive_multiple_of_four(self):
        decoder, samples = self._trellis(t=5)
        levels, sigma = decoder.pore_model.levels, decoder._sigma
        for cut in (levels.size - 1, 0):
            with pytest.raises(ValueError, match="4\\*\\*k"):
                viterbi_forward(samples, levels[:cut], sigma[:cut], np.log(sigma[:cut]), -0.2, -3.0)
        with pytest.raises(ValueError, match="4\\*\\*k"):
            viterbi_forward(samples, levels, sigma[:4], np.log(sigma[:4]), -0.2, -3.0)

    def test_state_ops_accounting(self):
        assert viterbi_state_ops(10, 64) == 10 * 64 * TRANSITIONS_PER_STATE
        assert viterbi_state_ops(0, 64) == 0
        with pytest.raises(ValueError):
            viterbi_state_ops(-1, 64)


class TestKernelWorkloadHooks:
    def test_viterbi_sample_space_ops(self):
        engine = ViterbiChunkBasecaller(FAST_VITERBI)
        n_bases = 600
        observations = int(round(n_bases * FAST_VITERBI.signal.dwell_mean))
        workload = engine.kernel_workload(n_bases)
        assert workload.kind == "viterbi-state"
        assert workload.ops == viterbi_state_ops(observations, 4**3)

    def test_kernel_workload_validation(self):
        with pytest.raises(ValueError, match="unknown kernel kind"):
            KernelWorkload(kind="quantum", ops=1, unit="qubits")
        with pytest.raises(ValueError, match="non-negative"):
            KernelWorkload(kind="viterbi-state", ops=-1, unit="state-ops")

    def test_cost_database_anchors(self):
        assert DEFAULT_COSTS.kernel_ops_per_base("viterbi-state") == 6.0 * 4**5 * 5
        with pytest.raises(ValueError, match="unknown kernel kind"):
            DEFAULT_COSTS.kernel_ops_per_base("fpga-lut")
        with pytest.raises(ValueError, match="unknown kernel kind"):
            DEFAULT_COSTS.kernel_ops_per_base("dnn-mvm")

    def test_workload_carries_kernel_ops_from_report(self):
        """from_report charges the backend's native ops; scaled() keeps them."""
        dataset = generate_dataset(
            small_profile(ECOLI_LIKE, max_read_length=1_200), scale=0.0001, seed=21
        )
        index = MinimizerIndex.build(dataset.reference)
        report = GenPIPPipeline(index, GenPIPConfig(), align=False).run(dataset)

        plain = PipelineWorkload.from_report(report)
        assert plain.basecall_kind == "" and plain.basecall_ops == 0.0

        engine = ViterbiChunkBasecaller(FAST_VITERBI)
        kerneled = PipelineWorkload.from_report(report, basecaller=engine)
        assert kerneled.basecall_kind == "viterbi-state"
        assert kerneled.basecall_ops == engine.kernel_workload(report.bases_basecalled).ops
        assert kerneled.basecall_ops_per_chunk == (
            engine.kernel_workload(report.config.chunk_size).ops
        )
        doubled = kerneled.scaled(2.0)
        assert doubled.basecall_kind == "viterbi-state"
        assert doubled.basecall_ops == pytest.approx(2.0 * kerneled.basecall_ops)
        assert doubled.basecall_ops_per_chunk == kerneled.basecall_ops_per_chunk
