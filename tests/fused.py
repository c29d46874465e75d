"""Test-side entry points to the production network and layers: the LSTM
step called the way ``oracles.lstm_step_scalar`` is, one window's exact
gradients by their public names, and a network copy with some weights
replaced. Each goes through the same fused code the training loop runs."""

from dataclasses import replace

import numpy as np

from swarmcast.layers import GATES, _lstm_cell_cache
from swarmcast.network import _FlatParams, _gradients, _StepBuffers, _window_cols


def lstm_step_fused(x, prev_cell, prev_hidden, w):
    """``layers._lstm_cell_cache`` on ``w`` (gate name -> (weight rows over
    [hidden, input], bias)) stacked in ``GATES`` order; x and the previous
    state are arrays. The step writes into fresh arrays. Returns (hidden,
    cell, gates), gates being the four activations (4 * units,)."""
    units = len(prev_hidden)
    gate_w = np.concatenate([w[gate][0] for gate in GATES])
    gate_b = np.concatenate([w[gate][1] for gate in GATES])
    pre, squashed, gates = np.empty((3, 4 * units))
    out = (pre, squashed, gates, *np.empty((3, units)), tuple(gates.reshape(4, units)))
    cell, hidden = _lstm_cell_cache(
        gate_w[:, units:] @ x + gate_b, prev_cell, prev_hidden, gate_w[:, :units], out
    )
    return hidden, cell, gates


def compute_gradients(net, x, target) -> dict[str, np.ndarray]:
    """Exact gradients of the MSE between ``network_forward(x, net)`` and
    ``target``, for every weight and bias (keys as in ``net.params()``)."""
    grads = _FlatParams(net.config, net.lookback)
    target = np.asarray(target, dtype=float).reshape(-1)
    buffers = _StepBuffers(net.config, net.lookback)
    _gradients(net.weights, grads, _window_cols(net, x), target, net.config, buffers)
    return grads.named()


def with_params(net, params: dict[str, np.ndarray]):
    """A copy of ``net`` whose weights take the given per-gate arrays."""
    weights = _FlatParams(net.config, net.lookback, net.weights.buf.copy())
    views = weights.named()
    for key, value in params.items():
        views[key][...] = value
    return replace(net, weights=weights)
