"""Tests for the basecaller DNN's MVM shape table (``bonito_workload``).

Each layer kind maps onto crossbar matrices in one way: a convolution is
one im2col MVM, a dense layer one MVM, and a GRU direction a fused input
and a recurrent projection. The literal op table is pinned in
``test_hardware_arrays.py``; these tests check the per-layer rules.
"""

from repro.hardware.helix import BONITO_LAYERS, bonito_workload


def _shapes(workload, prefix):
    return [(op.shape.rows, op.shape.cols) for op in workload.ops if op.name.startswith(prefix)]


def _output_length(n_samples):
    steps = n_samples
    for _, _, _, _, kernel, stride, padding in BONITO_LAYERS:
        steps = (steps + 2 * padding - kernel) // stride + 1
    return steps


class TestDense:
    def test_mvm_shape(self):
        assert _shapes(bonito_workload(300), "head") == [(5, 192)]


class TestConv1d:
    def test_mvm_shape(self):
        workload = bonito_workload(300)
        # out x (in * kernel): 16 x (1 * 5) and 64 x (16 * 5).
        assert _shapes(workload, "conv1") == [(16, 5)]
        assert _shapes(workload, "conv2") == [(64, 80)]


class TestGRU:
    def test_mvm_shapes(self):
        workload = bonito_workload(300)
        # Per direction: input (3*hidden x in), recurrent (3*hidden x hidden).
        assert _shapes(workload, "gru1.fwd") == [(288, 64), (288, 96)]
        assert _shapes(workload, "gru1.bwd") == [(288, 64), (288, 96)]
        assert _shapes(workload, "gru2.fwd") == [(288, 192), (288, 96)]
        assert _shapes(workload, "gru2.bwd") == [(288, 192), (288, 96)]


class TestBonitoLikeModel:
    def test_workload_counts(self):
        workload = bonito_workload(1800)
        t2 = _output_length(1800)
        assert workload.total_macs > 0
        # Recurrent ops activate once per downsampled timestep.
        gru_ops = [op for op in workload.ops if "gru" in op.name]
        assert all(op.activations == t2 for op in gru_ops)
        # 2 GRUs x 2 directions x 2 matrices = 8 recurrent ops.
        assert len(gru_ops) == 8

    def test_workload_scales_with_chunk(self):
        small = bonito_workload(900).total_macs
        large = bonito_workload(1800).total_macs
        assert large > 1.5 * small

    def test_weight_cells_positive(self):
        assert bonito_workload(900).weight_cells() > 10_000
