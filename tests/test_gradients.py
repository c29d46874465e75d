"""Gradient correctness against central finite differences.

The acceptance suite runs the full 50-seed sweep; these tests keep a
faster always-on guard plus the hand-derived special cases.
"""

import numpy as np
import pytest

from oracles import (
    conv1d_loop,
    finite_difference_grads,
    lstm_step_scalar,
    max_relative_error,
    maxpool1d_loop,
)
from swarmcast.layers import GATES
from swarmcast.network import (
    NetworkConfig,
    compute_gradients,
    initialize_network,
    network_forward,
)


def tiny_net(seed, **overrides):
    base = dict(n_filters=2, kernel_size=3, pool_size=2, lstm_units=4,
                repeat_steps=3, n_features=1, horizon=1)
    base.update(overrides)
    return initialize_network(NetworkConfig(seed=seed, **base), overrides.get("lookback", 6))


@pytest.mark.parametrize("seed", range(5))
def test_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    net = tiny_net(seed)
    x = rng.normal(size=(6, 1))
    target = rng.normal(size=1)
    analytic = compute_gradients(net, x, target)
    numeric = finite_difference_grads(net, x, target, eps=1e-5)
    assert max_relative_error(analytic, numeric) < 1e-4


def test_multivariate_and_tanh_conv():
    rng = np.random.default_rng(31)
    net = initialize_network(
        NetworkConfig(n_filters=3, kernel_size=2, pool_size=3, lstm_units=3,
                      repeat_steps=2, n_features=2, horizon=2,
                      conv_activation="tanh", seed=31),
        lookback=8,
    )
    x = rng.normal(size=(8, 2))
    target = rng.normal(size=2)
    analytic = compute_gradients(net, x, target)
    numeric = finite_difference_grads(net, x, target, eps=1e-5)
    assert max_relative_error(analytic, numeric) < 1e-4


def test_zero_error_sample_gives_zero_gradients():
    net = tiny_net(2)
    x = np.linspace(-1, 1, 6)[:, None]
    target = network_forward(x, net)
    grads = compute_gradients(net, x, target)
    for key, value in grads.items():
        assert np.array_equal(value, np.zeros_like(value)), key


def test_dense_bias_gradient_formula():
    # single-output head: dL/db = 2 (prediction - target) / horizon
    net = tiny_net(3)
    x = np.linspace(0, 1, 6)[:, None]
    target = np.array([0.25])
    prediction = network_forward(x, net)[0]
    grads = compute_gradients(net, x, target)
    assert grads["dense_b"][0] == pytest.approx(2.0 * (prediction - 0.25), abs=1e-12)


def test_gradient_shapes_match_weights():
    net = tiny_net(4)
    grads = compute_gradients(net, np.zeros((6, 1)), np.zeros(1))
    for key, value in net.params().items():
        assert grads[key].shape == value.shape


def logistic(v):
    return 1.0 / (1.0 + np.exp(-v))


def reference_gradients(net, x, target):
    """Unfused backprop over a plain-loop forward pass (``oracles``): every
    step re-projects [hidden, input] through the four separate gate weights
    and every gradient is accumulated one outer product at a time."""
    cfg = net.config
    units, kernel, pool = cfg.lstm_units, cfg.kernel_size, cfg.pool_size
    p = net.params()
    pre = np.array(conv1d_loop(x.tolist(), p["conv_w"].tolist(), p["conv_b"].tolist()))
    conv = {"relu": np.maximum(pre, 0.0), "tanh": np.tanh(pre),
            "identity": pre}[cfg.conv_activation]
    pooled = np.array(maxpool1d_loop(conv.tolist(), pool))
    flat = pooled.ravel()
    weights = {gate: (p[f"{gate}_w"], p[f"{gate}_b"]) for gate in GATES}
    oracle_weights = {gate: (w.tolist(), b.tolist()) for gate, (w, b) in weights.items()}
    states = [(np.zeros(units), np.zeros(units))]  # (hidden, cell)
    for _ in range(cfg.repeat_steps):
        hidden, cell = lstm_step_scalar(flat.tolist(), states[-1][1].tolist(),
                                        states[-1][0].tolist(), oracle_weights)
        states.append((np.array(hidden), np.array(cell)))
    output = p["dense_w"] @ states[-1][0] + p["dense_b"]

    doutput = 2.0 * (output - target) / cfg.horizon
    grads = {key: np.zeros_like(value) for key, value in p.items()}
    grads["dense_w"] = np.outer(doutput, states[-1][0])
    grads["dense_b"] = doutput
    dhidden = p["dense_w"].T @ doutput
    dcell = np.zeros(units)
    dflat = np.zeros_like(flat)
    for t in reversed(range(cfg.repeat_steps)):
        (prev_hidden, prev_cell), (_, cur_cell) = states[t], states[t + 1]
        concat = np.concatenate([prev_hidden, flat])
        pre_gate = {gate: w @ concat + b for gate, (w, b) in weights.items()}
        forget, update = logistic(pre_gate["forget"]), logistic(pre_gate["input"])
        candidate, out_gate = np.tanh(pre_gate["candidate"]), logistic(pre_gate["output"])
        tanh_cell = np.tanh(cur_cell)
        dcell = dcell + dhidden * out_gate * (1.0 - tanh_cell**2)
        deltas = {
            "forget": dcell * prev_cell * forget * (1.0 - forget),
            "input": dcell * candidate * update * (1.0 - update),
            "candidate": dcell * update * (1.0 - candidate**2),
            "output": dhidden * tanh_cell * out_gate * (1.0 - out_gate),
        }
        dconcat = np.zeros_like(concat)
        for gate, delta in deltas.items():
            grads[f"{gate}_w"] += np.outer(delta, concat)
            grads[f"{gate}_b"] += delta
            dconcat += weights[gate][0].T @ delta
        dhidden = dconcat[:units]
        dflat += dconcat[units:]
        dcell = dcell * forget

    dpooled = dflat.reshape(pooled.shape)
    dconv = np.zeros_like(conv)
    for window in range(len(pooled)):
        for channel in range(cfg.n_filters):
            span = conv[window * pool : (window + 1) * pool, channel]
            dconv[window * pool + int(np.argmax(span)), channel] = dpooled[window, channel]
    slope = {"relu": pre > 0, "tanh": 1.0 - np.tanh(pre) ** 2, "identity": 1.0}
    dpre = dconv * slope[cfg.conv_activation]
    for pos in range(len(pre)):
        grads["conv_w"] += np.outer(dpre[pos], x[pos : pos + kernel].ravel()).reshape(
            p["conv_w"].shape
        )
    grads["conv_b"] = dpre.sum(axis=0)
    return grads


@pytest.mark.parametrize("config, lookback", [
    # multivariate, tanh conv, two-step horizon, four repeat steps
    (dict(n_filters=3, kernel_size=2, pool_size=2, lstm_units=3, repeat_steps=4,
          n_features=2, horizon=2, conv_activation="tanh"), 7),
    # the demo's tuned cell at the default lookback
    (dict(n_filters=32, kernel_size=5, pool_size=2, lstm_units=15), 7),
    # one LSTM step (no recurrent gradient), identity conv, pool remainder dropped
    (dict(n_filters=4, kernel_size=3, pool_size=3, lstm_units=5, repeat_steps=1,
          conv_activation="identity"), 9),
])
def test_fused_gradients_match_unfused_reference(config, lookback):
    for seed in range(3):
        rng = np.random.default_rng(100 + seed)
        net = initialize_network(NetworkConfig(seed=seed, **config), lookback)
        net = net.with_params({  # nonzero biases exercise every bias path
            key: value + rng.normal(scale=0.3, size=value.shape) if key.endswith("_b") else value
            for key, value in net.params().items()
        })
        x = rng.normal(size=(lookback, net.config.n_features))
        target = rng.normal(size=net.config.horizon)
        fused = compute_gradients(net, x, target)
        expected = reference_gradients(net, x, target)
        assert set(fused) == set(expected)
        for key in expected:
            np.testing.assert_allclose(fused[key], expected[key], rtol=1e-10, atol=1e-13,
                                       err_msg=key)
