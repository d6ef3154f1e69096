"""Tests for the NVM crossbar (and the Bonito workload it runs), CAM, eDRAM, and PIM-CQS models."""

import numpy as np
import pytest

from repro.hardware.cam import CamArray, CamConfig
from repro.hardware.edram import EDramBuffer, chunk_buffer, read_queue_buffer
from repro.hardware.helix import bonito_workload
from repro.hardware.nvm_crossbar import CrossbarArray, CrossbarConfig, MVMEngine, MVMWorkload
from repro.hardware.pim_cqs import PimCqsUnit


class TestCrossbarArray:
    def test_mvm_matches_matmul_within_quantisation(self):
        rng = np.random.default_rng(0)
        matrix = rng.normal(0.0, 1.0, size=(64, 32))
        vector = rng.normal(0.0, 1.0, size=64)
        array = CrossbarArray(CrossbarConfig(bits_per_cell=4))
        array.program(matrix)
        result = array.mvm(vector)
        exact = matrix.T @ vector
        bound = array.quantisation_error_bound() * np.abs(vector).sum()
        np.testing.assert_array_less(np.abs(result - exact), bound + 1e-9)

    def test_more_bits_less_error(self):
        rng = np.random.default_rng(1)
        matrix = rng.normal(size=(32, 32))
        vector = rng.normal(size=32)
        errors = {}
        for bits in (1, 2, 4):
            array = CrossbarArray(CrossbarConfig(bits_per_cell=bits))
            array.program(matrix)
            errors[bits] = np.abs(array.mvm(vector) - matrix.T @ vector).max()
        assert errors[4] < errors[2] < errors[1]

    def test_program_size_check(self):
        array = CrossbarArray(CrossbarConfig(rows=8, cols=8))
        with pytest.raises(ValueError):
            array.program(np.zeros((9, 8)))

    def test_mvm_requires_program(self):
        with pytest.raises(RuntimeError):
            CrossbarArray().mvm(np.zeros(128))

    def test_mvm_shape_check(self):
        array = CrossbarArray(CrossbarConfig(rows=8, cols=4))
        array.program(np.ones((8, 4)))
        with pytest.raises(ValueError):
            array.mvm(np.ones(4))

    def test_zero_matrix(self):
        array = CrossbarArray(CrossbarConfig(rows=4, cols=4))
        array.program(np.zeros((4, 4)))
        np.testing.assert_array_equal(array.mvm(np.ones(4)), np.zeros(4))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CrossbarConfig(rows=0)
        with pytest.raises(ValueError):
            CrossbarConfig(bits_per_cell=9)
        with pytest.raises(ValueError):
            CrossbarConfig(mvm_latency_ns=0.0)


#: The op table the numpy Bonito-like network's ``workload`` produced
#: before the network itself was deleted: ``(name, rows, cols)`` in order.
BONITO_OPS = (
    ("conv1", 16, 5),
    ("conv2", 64, 80),
    ("gru1.fwd.input", 288, 64),
    ("gru1.fwd.recurrent", 288, 96),
    ("gru1.bwd.input", 288, 64),
    ("gru1.bwd.recurrent", 288, 96),
    ("gru2.fwd.input", 288, 192),
    ("gru2.fwd.recurrent", 288, 96),
    ("gru2.bwd.input", 288, 192),
    ("gru2.bwd.recurrent", 288, 96),
    ("head", 5, 192),
)
#: ``n_samples: (conv1 activations, activations of every later op, total MACs)``.
BONITO_ACTIVATIONS = {
    0: (0, 0, 0),
    1: (1, 1, 264_208),
    4: (4, 1, 264_448),
    5: (5, 1, 264_528),
    299: (299, 60, 15_871_600),
    900: (900, 180, 47_615_040),
    1800: (1800, 360, 95_230_080),
    1801: (1801, 361, 95_494_288),
}


class TestBonitoWorkload:
    def test_op_table_is_pinned(self):
        for n_samples, (conv1_steps, steps, total_macs) in BONITO_ACTIVATIONS.items():
            workload = bonito_workload(n_samples)
            assert [(op.name, op.shape.rows, op.shape.cols) for op in workload.ops] == list(BONITO_OPS)
            assert [op.activations for op in workload.ops] == [conv1_steps] + [steps] * 10, n_samples
            assert workload.total_macs == total_macs
            assert workload.weight_cells() == 264_208

    def test_negative_sample_count_rejected(self):
        """A negative count used to yield negative activations (and
        ``total_macs == -529056`` at -10) that flowed straight into the
        crossbar latency and energy."""
        with pytest.raises(ValueError, match="non-negative"):
            bonito_workload(-10)


class TestMVMEngine:
    def test_placement_tiles(self):
        engine = MVMEngine(CrossbarConfig(rows=128, cols=128))
        placements = engine.place(bonito_workload(1800))
        assert all(p.tiles >= 1 for p in placements)
        big = [p for p in placements if p.rows > 128 or p.cols > 128]
        assert all(p.tiles > 1 for p in big)

    def test_execution_costs_positive_and_scaling(self):
        engine = MVMEngine()
        small = engine.execute(bonito_workload(900))
        large = engine.execute(bonito_workload(1800))
        assert 0 < small.latency_ns < large.latency_ns
        assert 0 < small.energy_pj < large.energy_pj

    def test_area_scales_with_tiles(self):
        engine = MVMEngine()
        workload = bonito_workload(900)
        execution = engine.execute(workload)
        assert engine.area_mm2(workload) == pytest.approx(
            execution.total_tiles * engine.config.area_mm2
        )

    def test_empty_workload(self):
        execution = MVMEngine().execute(MVMWorkload(ops=()))
        assert execution.latency_ns == 0.0
        assert execution.energy_pj == 0.0


class TestCamArray:
    def test_search_finds_programmed_key(self):
        cam = CamArray(CamConfig(rows=16, width_bits=64))
        cam.program_all([10, 20, 30])
        np.testing.assert_array_equal(cam.search(20), [1])

    def test_search_miss(self):
        cam = CamArray(CamConfig(rows=16, width_bits=64))
        cam.program_all([10, 20])
        assert cam.search(99).size == 0

    def test_duplicate_keys_all_match(self):
        cam = CamArray(CamConfig(rows=8, width_bits=64))
        cam.program_all([7, 7, 3])
        np.testing.assert_array_equal(cam.search(7), [0, 1])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        keys = rng.integers(0, 2**48, size=100).tolist()
        cam = CamArray(CamConfig(rows=128, width_bits=64))
        cam.program_all(keys)
        for probe in keys[:10] + [123456789]:
            expected = [i for i, k in enumerate(keys) if k == probe]
            np.testing.assert_array_equal(cam.search(probe), expected)

    def test_capacity_enforced(self):
        cam = CamArray(CamConfig(rows=2, width_bits=64))
        with pytest.raises(ValueError):
            cam.program_all([1, 2, 3])

    def test_key_width_enforced(self):
        cam = CamArray(CamConfig(rows=4, width_bits=8))
        with pytest.raises(ValueError):
            cam.write(0, 300)

    def test_energy_accounting(self):
        cam = CamArray(CamConfig(rows=4, width_bits=64))
        cam.program_all([1, 2])
        base = cam.total_energy_pj()
        cam.search(1)
        assert cam.total_energy_pj() == pytest.approx(base + cam.search_energy_pj())

    def test_unprogrammed_rows_never_match(self):
        cam = CamArray(CamConfig(rows=8, width_bits=64))
        cam.write(3, 0)
        # Key 0 equals the reset value of unprogrammed rows; only the
        # valid row may match.
        np.testing.assert_array_equal(cam.search(0), [3])


class TestEDram:
    def test_paper_buffer_sizes(self):
        assert read_queue_buffer().size_mb == pytest.approx(6.0)
        assert chunk_buffer().size_mb == pytest.approx(2.3, abs=0.01)

    def test_area_and_power_scale(self):
        small = EDramBuffer("a", 1 << 20)
        big = EDramBuffer("b", 4 << 20)
        assert big.area_mm2 == pytest.approx(4 * small.area_mm2)
        assert big.standby_power_w == pytest.approx(4 * small.standby_power_w)

    def test_access_energy(self):
        buffer = EDramBuffer("x", 1 << 20)
        assert buffer.access_energy_pj(1000) > 0
        with pytest.raises(ValueError):
            buffer.access_energy_pj(-1)

    def test_fits(self):
        buffer = EDramBuffer("x", 100)
        assert buffer.fits(100)
        assert not buffer.fits(101)

    def test_size_validation(self):
        with pytest.raises(ValueError):
            EDramBuffer("bad", 0)


class TestPimCqs:
    def test_sqs_matches_exact_sum(self):
        rng = np.random.default_rng(3)
        qualities = rng.uniform(1.0, 30.0, size=300)
        unit = PimCqsUnit()
        result = unit.compute_sqs(qualities)
        # 4-bit differential quantisation of scores <= 30: per-element
        # error <= 30/256, so the sum error is bounded.
        assert result.sum_quality == pytest.approx(qualities.sum(), abs=300 * 30 / 256 + 1)
        assert result.n_bases == 300

    def test_multi_pass_long_chunk(self):
        unit = PimCqsUnit(capacity=128)
        qualities = np.full(300, 10.0)
        result = unit.compute_sqs(qualities)
        assert result.latency_ns == pytest.approx(3 * unit._config.mvm_latency_ns)
        assert result.sum_quality == pytest.approx(3000.0, rel=0.02)

    def test_empty_chunk(self):
        result = PimCqsUnit().compute_sqs(np.empty(0))
        assert result.sum_quality == 0.0
        assert result.latency_ns == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            PimCqsUnit(capacity=0)
        with pytest.raises(ValueError):
            PimCqsUnit().compute_sqs(np.zeros((2, 2)))
