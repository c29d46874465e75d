import math

import numpy as np
import pytest

from oracles import lstm_step_scalar
from swarmcast.errors import ConfigError, DataError
from swarmcast.layers import (
    LSTMState,
    LSTMWeights,
    conv1d_forward,
    conv_output_size,
    lstm_cell_forward,
    maxpool1d_forward,
    sigmoid,
)


class TestConvOutputSize:
    def test_valid_convolution(self):
        assert conv_output_size(10, 3) == 8

    def test_full_width_kernel(self):
        assert conv_output_size(7, 7) == 1

    def test_kernel_too_large(self):
        with pytest.raises(ConfigError):
            conv_output_size(4, 6)


class TestConv1d:
    def test_difference_kernel(self):
        x = np.array([[1.0], [2.0], [3.0], [4.0]])
        w = np.array([[[1.0], [0.0], [-1.0]]])
        out = conv1d_forward(x, w, np.zeros(1), activation="identity")
        assert np.array_equal(out[:, 0], [-2.0, -2.0])

    def test_zero_kernel_relu(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(9, 2))
        w = np.zeros((3, 4, 2))
        out = conv1d_forward(x, w, np.zeros(3), activation="relu")
        assert np.array_equal(out, np.zeros((6, 3)))

    def test_sum_kernel(self):
        x = np.ones((3, 1))
        w = np.ones((1, 3, 1))
        out = conv1d_forward(x, w, np.zeros(1), activation="identity")
        assert np.array_equal(out, [[3.0]])

    def test_bias_and_activation(self):
        x = np.zeros((4, 1))
        w = np.zeros((2, 2, 1))
        out = conv1d_forward(x, w, np.array([-1.0, 2.0]), activation="relu")
        assert np.array_equal(out, np.tile([0.0, 2.0], (3, 1)))

    def test_feature_mismatch_rejected(self):
        with pytest.raises(DataError):
            conv1d_forward(np.zeros((5, 2)), np.zeros((1, 3, 1)), np.zeros(1))

    def test_input_shorter_than_kernel_rejected(self):
        with pytest.raises(DataError):
            conv1d_forward(np.zeros((2, 1)), np.zeros((1, 3, 1)), np.zeros(1))

    def test_matches_naive_loops(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(8, 3))
        w = rng.normal(size=(2, 4, 3))
        b = rng.normal(size=2)
        out = conv1d_forward(x, w, b, activation="identity")
        for i in range(5):
            for f in range(2):
                expected = b[f]
                for m in range(4):
                    for c in range(3):
                        expected += w[f, m, c] * x[i + m, c]
                assert out[i, f] == pytest.approx(expected, abs=1e-12)


class TestMaxPool:
    def test_pairs(self):
        x = np.array([[1.0], [3.0], [2.0], [8.0]])
        assert np.array_equal(maxpool1d_forward(x, 2)[:, 0], [3.0, 8.0])

    def test_remainder_dropped(self):
        x = np.array([[5.0], [4.0], [3.0]])
        assert np.array_equal(maxpool1d_forward(x, 2), [[5.0]])

    def test_constant_series(self):
        x = np.full((6, 2), 1.5)
        assert np.array_equal(maxpool1d_forward(x, 3), np.full((2, 2), 1.5))

    def test_bad_pool(self):
        with pytest.raises(ConfigError):
            maxpool1d_forward(np.ones((4, 1)), 0)

    def test_pool_larger_than_input(self):
        with pytest.raises(DataError):
            maxpool1d_forward(np.ones((2, 1)), 3)


def random_lstm_weights(rng, units, input_dim):
    concat = units + input_dim
    return LSTMWeights(
        forget_w=rng.normal(size=(units, concat)),
        forget_b=rng.normal(size=units),
        input_w=rng.normal(size=(units, concat)),
        input_b=rng.normal(size=units),
        candidate_w=rng.normal(size=(units, concat)),
        candidate_b=rng.normal(size=units),
        output_w=rng.normal(size=(units, concat)),
        output_b=rng.normal(size=units),
    )


def as_oracle_weights(w: LSTMWeights):
    return {
        "forget": (w.forget_w.tolist(), w.forget_b.tolist()),
        "input": (w.input_w.tolist(), w.input_b.tolist()),
        "candidate": (w.candidate_w.tolist(), w.candidate_b.tolist()),
        "output": (w.output_w.tolist(), w.output_b.tolist()),
    }


class TestLstmCell:
    def test_all_zero_weights(self):
        units, input_dim = 3, 2
        w = LSTMWeights(*(np.zeros((units, units + input_dim)) if i % 2 == 0 else np.zeros(units) for i in range(8)))
        hidden, state = lstm_cell_forward(np.array([5.0, -3.0]), LSTMState.zeros(units), w)
        assert np.array_equal(hidden, np.zeros(units))
        assert np.array_equal(state.cell, np.zeros(units))

    def test_saturated_gates_carry_cell_state(self):
        # forget and output gates pinned open, input gate pinned shut
        w = LSTMWeights(
            forget_w=np.zeros((1, 2)), forget_b=np.array([100.0]),
            input_w=np.zeros((1, 2)), input_b=np.array([-100.0]),
            candidate_w=np.zeros((1, 2)), candidate_b=np.array([0.0]),
            output_w=np.zeros((1, 2)), output_b=np.array([100.0]),
        )
        prev = LSTMState(cell=np.array([0.7]), hidden=np.array([0.0]))
        hidden, state = lstm_cell_forward(np.array([0.3]), prev, w)
        assert state.cell[0] == pytest.approx(0.7, abs=1e-3)
        assert hidden[0] == pytest.approx(math.tanh(0.7), abs=1e-3)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            units = int(rng.integers(1, 5))
            input_dim = int(rng.integers(1, 6))
            w = random_lstm_weights(rng, units, input_dim)
            prev = LSTMState(cell=rng.normal(size=units), hidden=np.tanh(rng.normal(size=units)))
            x = rng.normal(size=input_dim)
            hidden, state = lstm_cell_forward(x, prev, w)
            oracle_hidden, oracle_cell = lstm_step_scalar(
                x.tolist(), prev.cell.tolist(), prev.hidden.tolist(), as_oracle_weights(w)
            )
            assert np.allclose(hidden, oracle_hidden, atol=1e-12, rtol=0)
            assert np.allclose(state.cell, oracle_cell, atol=1e-12, rtol=0)

    def test_hidden_bounded_and_returned_state_consistent(self):
        rng = np.random.default_rng(8)
        units, input_dim = 4, 3
        w = random_lstm_weights(rng, units, input_dim)
        state = LSTMState.zeros(units)
        for _ in range(200):
            hidden, state = lstm_cell_forward(rng.normal(size=input_dim) * 10, state, w)
            assert np.all(np.abs(hidden) < 1.0)
            assert np.array_equal(hidden, state.hidden)

    def test_dimension_mismatch(self):
        w = random_lstm_weights(np.random.default_rng(1), 2, 3)
        with pytest.raises(DataError):
            lstm_cell_forward(np.zeros(4), LSTMState.zeros(2), w)


class TestSigmoid:
    def test_midpoint(self):
        assert sigmoid(np.array([0.0]))[0] == 0.5

    def test_extremes_stable(self):
        values = sigmoid(np.array([-1000.0, 1000.0]))
        assert values[0] == pytest.approx(0.0, abs=1e-12)
        assert values[1] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.isfinite(values))

    def test_gate_range_open_interval(self):
        rng = np.random.default_rng(3)
        values = sigmoid(rng.normal(size=1000) * 5)
        assert np.all((values > 0) & (values < 1))
