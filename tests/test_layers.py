import math

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from fused import lstm_step_fused
from oracles import conv1d_loop, lstm_step_scalar, maxpool1d_loop
from swarmcast.errors import ConfigError
from swarmcast.layers import GATES, _conv1d_cache, _im2col, _maxpool1d_cache
from swarmcast.network import NetworkConfig, pooled_length


class TestConvOutputSize:
    # with pool 1 the pooled length is the valid convolution's W - F + 1
    def test_valid_convolution(self):
        assert pooled_length(10, 3, 1) == 8

    def test_full_width_kernel(self):
        assert pooled_length(7, 7, 1) == 1

    def test_kernel_too_large(self):
        assert pooled_length(4, 6, 1) < 1
        with pytest.raises(ConfigError, match="kernel_size 6 exceeds lookback 4"):
            NetworkConfig(kernel_size=6, pool_size=1).validate_for_lookback(4)


def im2col_reference(x, kernel):
    """im2col rows built as sliding_window_view, swapaxes and reshape."""
    windows = sliding_window_view(x, kernel, axis=-2)  # (..., L-K+1, F, K)
    return np.swapaxes(windows, -1, -2).reshape(windows.shape[:-2] + (-1,))


class TestIm2col:
    @pytest.mark.parametrize("make", [
        lambda data: data[:7, :1],
        lambda data: data[:7, :3],
        lambda data: data[::2, :1],
        lambda data: data[1:8, ::2],
        lambda data: data[:7, 0][:, None],
        lambda data: data.reshape(-1)[:7][:, None],
        lambda data: np.stack([data[:7, :3], data[2:9, :3]]),
        lambda data: np.stack([data[:7, :1]] * 4).reshape(2, 2, 7, 1),
        lambda data: np.stack([data[:14:2, 1:4], data[1:15:2, 1:4]]),
    ], ids=["f1", "f3", "strided-rows", "strided-features", "column-view", "flat-view",
            "batch", "two-batch-axes", "strided-batch"])
    @pytest.mark.parametrize("kernel", [1, 3, 7])
    def test_matches_the_sliding_window_construction(self, make, kernel):
        data = np.arange(96.0).reshape(16, 6)
        x = make(data)
        got, want = _im2col(x, kernel), im2col_reference(x, kernel)
        assert got.shape == want.shape and got.strides == want.strides
        assert np.array_equal(got, want)
        assert np.shares_memory(got, x) == np.shares_memory(want, x)
        assert got.flags.writeable == want.flags.writeable

    def test_kernel_longer_than_the_input_is_rejected(self):
        with pytest.raises(ConfigError, match="kernel 4"):
            _im2col(np.zeros((3, 1)), 4)


class TestConv1d:
    def test_difference_kernel(self):
        x = np.array([[1.0], [2.0], [3.0], [4.0]])
        w = np.array([[1.0, 0.0, -1.0]])
        out, _ = _conv1d_cache(_im2col(x, 3), w, np.zeros(1), "identity")
        assert np.array_equal(out[:, 0], [-2.0, -2.0])

    def test_zero_kernel_relu(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(9, 2))
        out, _ = _conv1d_cache(_im2col(x, 4), np.zeros((3, 8)), np.zeros(3), "relu")
        assert np.array_equal(out, np.zeros((6, 3)))

    def test_sum_kernel(self):
        out, _ = _conv1d_cache(_im2col(np.ones((3, 1)), 3), np.ones((1, 3)), np.zeros(1),
                               "identity")
        assert np.array_equal(out, [[3.0]])

    def test_bias_and_activation(self):
        out, _ = _conv1d_cache(_im2col(np.zeros((4, 1)), 2), np.zeros((2, 2)),
                               np.array([-1.0, 2.0]), "relu")
        assert np.array_equal(out, np.tile([0.0, 2.0], (3, 1)))

    def test_matches_naive_loops(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(8, 3))
        w = rng.normal(size=(2, 4, 3))
        b = rng.normal(size=2)
        out, _ = _conv1d_cache(_im2col(x, 4), w.reshape(2, -1), b, "identity")
        expected = conv1d_loop(x.tolist(), w.tolist(), b.tolist())
        assert np.allclose(out, expected, atol=1e-12, rtol=0)


class TestMaxPool:
    def test_pairs(self):
        x = np.array([[1.0], [3.0], [2.0], [8.0]])
        assert np.array_equal(_maxpool1d_cache(x, 2)[0][:, 0], [3.0, 8.0])

    def test_remainder_dropped(self):
        x = np.array([[5.0], [4.0], [3.0]])
        assert np.array_equal(_maxpool1d_cache(x, 2)[0], [[5.0]])

    def test_constant_series(self):
        x = np.full((6, 2), 1.5)
        assert np.array_equal(_maxpool1d_cache(x, 3)[0], np.full((2, 2), 1.5))

    def test_matches_naive_loops(self):
        x = np.random.default_rng(9).normal(size=(11, 3))
        assert np.array_equal(_maxpool1d_cache(x, 3)[0], maxpool1d_loop(x.tolist(), 3))


def random_gates(rng, units, input_dim):
    """Gate name -> (weight (units, units + input_dim), bias (units,))."""
    return {gate: (rng.normal(size=(units, units + input_dim)), rng.normal(size=units))
            for gate in GATES}


def constant_gates(units, input_dim, biases):
    """Zero weights, and per gate the given constant bias."""
    return {gate: (np.zeros((units, units + input_dim)), np.full(units, biases[gate]))
            for gate in GATES}


def as_lists(gates):
    return {gate: (w.tolist(), b.tolist()) for gate, (w, b) in gates.items()}


def sigmoid_rows(gates, units):
    """The forget, input and output activations: the logistic rows."""
    return np.delete(gates, np.s_[2 * units : 3 * units])


class TestLstmCell:
    def test_all_zero_weights(self):
        units = 3
        w = constant_gates(units, 2, dict.fromkeys(GATES, 0.0))
        hidden, cell, _ = lstm_step_fused(np.array([5.0, -3.0]), np.zeros(units),
                                          np.zeros(units), w)
        assert np.array_equal(hidden, np.zeros(units))
        assert np.array_equal(cell, np.zeros(units))

    def test_saturated_gates_carry_cell_state(self):
        # forget and output gates pinned open, input gate pinned shut
        w = constant_gates(1, 1, {"forget": 100.0, "input": -100.0, "candidate": 0.0,
                                  "output": 100.0})
        hidden, cell, _ = lstm_step_fused(np.array([0.3]), np.array([0.7]), np.array([0.0]), w)
        assert cell[0] == pytest.approx(0.7, abs=1e-3)
        assert hidden[0] == pytest.approx(math.tanh(0.7), abs=1e-3)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            units = int(rng.integers(1, 5))
            input_dim = int(rng.integers(1, 6))
            w = random_gates(rng, units, input_dim)
            prev_cell, prev_hidden = rng.normal(size=units), np.tanh(rng.normal(size=units))
            x = rng.normal(size=input_dim)
            hidden, cell, _ = lstm_step_fused(x, prev_cell, prev_hidden, w)
            oracle_hidden, oracle_cell = lstm_step_scalar(
                x.tolist(), prev_cell.tolist(), prev_hidden.tolist(), as_lists(w)
            )
            assert np.allclose(hidden, oracle_hidden, atol=1e-12, rtol=0)
            assert np.allclose(cell, oracle_cell, atol=1e-12, rtol=0)

    def test_hidden_bounded_and_returned_state_consistent(self):
        rng = np.random.default_rng(8)
        units, input_dim = 4, 3
        w = random_gates(rng, units, input_dim)
        cell = hidden = np.zeros(units)
        for _ in range(200):
            hidden, cell, gates = lstm_step_fused(rng.normal(size=input_dim) * 10, cell, hidden, w)
            assert np.all(np.abs(hidden) < 1.0)
            assert np.array_equal(hidden, gates[3 * units :] * np.tanh(cell))


class TestSigmoid:
    """The forget, input and output gates are logistic in their pre-activation."""

    def test_midpoint(self):
        w = constant_gates(2, 1, dict.fromkeys(GATES, 0.0))
        _, _, gates = lstm_step_fused(np.zeros(1), np.zeros(2), np.zeros(2), w)
        assert np.all(sigmoid_rows(gates, 2) == 0.5)

    def test_extremes_stable(self):
        w = {gate: (np.zeros((2, 3)), np.array([-1000.0, 1000.0])) for gate in GATES}
        _, _, gates = lstm_step_fused(np.zeros(1), np.zeros(2), np.zeros(2), w)
        values = sigmoid_rows(gates, 2)
        assert np.all(np.isfinite(values))
        assert np.allclose(values[0::2], 0.0, atol=1e-12, rtol=0)
        assert np.allclose(values[1::2], 1.0, atol=1e-12, rtol=0)

    def test_gate_range_open_interval(self):
        # zero weights, so each pre-activation is its bias: 750 draws of N(0, 5^2)
        rng = np.random.default_rng(3)
        units = 250
        w = {gate: (np.zeros((units, units + 1)), rng.normal(size=units) * 5) for gate in GATES}
        _, _, gates = lstm_step_fused(np.zeros(1), np.zeros(units), np.zeros(units), w)
        values = sigmoid_rows(gates, units)
        assert np.all((values > 0) & (values < 1))
