"""Test-side entry points to the production network and layers: the LSTM
step called the way ``oracles.lstm_step_scalar`` is, one window's exact
gradients by their public names, a network copy with some weights
replaced, and the training of one network, a group of one. Each goes
through the same fused code the training loop runs."""

from dataclasses import replace

import numpy as np

from swarmcast.errors import NumericalError
from swarmcast.layers import GATES, _lstm_cell_cache
from swarmcast.network import _FlatParams, _gradients, _GroupBuffers, _Stack, _window_cols, train


def lstm_step_fused(x, prev_cell, prev_hidden, w):
    """``layers._lstm_cell_cache`` on ``w`` (gate name -> (weight rows over
    [hidden, input], bias)) stacked in ``GATES`` order; x and the previous
    state are arrays. The step runs as a group of one on one window and
    writes into fresh arrays. Returns (hidden, cell, gates), gates being
    the four activations (4 * units,)."""
    units = len(prev_hidden)
    gate_w = np.concatenate([w[gate][0] for gate in GATES])
    gate_b = np.concatenate([w[gate][1] for gate in GATES])
    pre, squashed, gates = np.empty((3, 1, 1, 4 * units))
    out = (pre, squashed, gates, *np.empty((3, 1, 1, units)),
           tuple(gates[..., i * units : (i + 1) * units] for i in range(4)))
    cell, hidden = _lstm_cell_cache((gate_w[:, units:] @ x + gate_b)[None, None],
                                    np.reshape(prev_cell, (1, 1, -1)),
                                    np.reshape(prev_hidden, (1, 1, -1)),
                                    gate_w[:, :units].T[None], out)
    return hidden[0, 0], cell[0, 0], gates[0, 0]


def compute_gradients(net, x, target) -> dict[str, np.ndarray]:
    """Exact gradients of the MSE between ``network_forward(x, net)`` and
    ``target``, for every weight and bias (keys as in ``net.params()``)."""
    config, lookback = net.config, net.lookback
    grads = _Stack([config], lookback)
    target = np.asarray(target, dtype=float).reshape(1, 1, -1)
    _gradients(_Stack([config], lookback, net.weights.buf[None]), grads,
               [_window_cols(net, x)], target, np.empty_like(target), config,
               _GroupBuffers([config], lookback))
    return grads.members[0].named


def train_one(net, samples, cfg):
    """``train`` of ``net`` alone: the trained network, or the NumericalError
    it diverged with, raised."""
    [trained] = train([net], samples, [cfg])
    if isinstance(trained, NumericalError):
        raise trained
    return trained


def with_params(net, params: dict[str, np.ndarray]):
    """A copy of ``net`` whose weights take the given per-gate arrays."""
    weights = _FlatParams(net.config, net.lookback, net.weights.buf.copy())
    views = weights.named
    for key, value in params.items():
        views[key][...] = value
    return replace(net, weights=weights)
