"""Forward and backward primitives for the conv/pool/LSTM/dense stack.

Everything is float64 numpy on single samples; shapes follow the
convention (time, channels). Backward functions consume the caches their
forward counterparts produce, so gradients are exact reverse-mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError


def sigmoid(x):
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    expx = np.exp(x[~pos])
    out[~pos] = expx / (1.0 + expx)
    return out


def relu(x):
    return np.maximum(x, 0.0)


# name -> (activation, derivative as a function of the pre-activation)
ACTIVATIONS = {
    "relu": (relu, lambda pre: (pre > 0).astype(float)),
    "tanh": (np.tanh, lambda pre: 1.0 - np.tanh(pre) ** 2),
    "identity": (lambda x: x, lambda pre: np.ones_like(pre)),
}


def conv_output_size(input_len: int, kernel: int) -> int:
    """Output length of a valid stride-1 convolution: W - F + 1."""
    if kernel > input_len:
        raise ConfigError(f"kernel {kernel} larger than input {input_len}")
    return input_len - kernel + 1


def _im2col(x: np.ndarray, kernel: int) -> np.ndarray:
    """Stack the kernel-length windows of x (L, F) into rows (L-K+1, K*F)."""
    length = len(x) - kernel + 1
    return np.stack([x[i : i + kernel].ravel() for i in range(length)])


def conv1d_forward(x, weights, bias, activation: str = "relu") -> np.ndarray:
    """Valid (no padding, stride 1) 1-d convolution over time.

    x is (L, n_features), weights (n_filters, kernel, n_features), bias
    (n_filters,); output (L - kernel + 1, n_filters) with the activation
    applied elementwise.
    """
    out, _ = _conv1d_cache(x, weights, bias, activation)
    return out


def _conv1d_cache(x, weights, bias, activation):
    x = np.asarray(x, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if x.ndim != 2 or weights.ndim != 3:
        raise DataError("conv expects x (L, F) and weights (filters, K, F)")
    n_filters, kernel, n_features = weights.shape
    if x.shape[1] != n_features:
        raise DataError(f"input has {x.shape[1]} features, kernel expects {n_features}")
    if len(x) < kernel:
        raise DataError(f"input length {len(x)} below kernel {kernel}")
    act, _ = ACTIVATIONS[activation]
    cols = _im2col(x, kernel)
    pre = cols @ weights.reshape(n_filters, kernel * n_features).T + bias
    return act(pre), (x, cols, pre)


def _conv1d_backward(dout, weights, cache, activation):
    x, cols, pre = cache
    n_filters, kernel, n_features = weights.shape
    _, dact = ACTIVATIONS[activation]
    dpre = dout * dact(pre)
    dw = (dpre.T @ cols).reshape(n_filters, kernel, n_features)
    db = dpre.sum(axis=0)
    return dw, db


def maxpool1d_forward(x, pool: int) -> np.ndarray:
    """Non-overlapping max pooling along time; a trailing remainder shorter
    than the pool is dropped."""
    out, _ = _maxpool1d_cache(x, pool)
    return out


def _maxpool1d_cache(x, pool):
    x = np.asarray(x, dtype=float)
    if pool < 1:
        raise ConfigError("pool size must be at least 1")
    length, channels = x.shape
    windows = length // pool
    if windows < 1:
        raise DataError(f"input length {length} below pool size {pool}")
    trimmed = x[: windows * pool].reshape(windows, pool, channels)
    argmax = trimmed.argmax(axis=1)
    out = np.take_along_axis(trimmed, argmax[:, None, :], axis=1)[:, 0, :]
    return out, (argmax, length, pool, channels)


def _maxpool1d_backward(dout, cache):
    argmax, length, pool, channels = cache
    dx = np.zeros((length, channels))
    windows = len(argmax)
    rows = argmax + (np.arange(windows) * pool)[:, None]
    cols = np.broadcast_to(np.arange(channels), (windows, channels))
    np.add.at(dx, (rows.ravel(), cols.ravel()), dout.ravel())
    return dx


@dataclass(frozen=True)
class LSTMState:
    """Recurrent carry: cell state and hidden output, both (units,)."""

    cell: np.ndarray
    hidden: np.ndarray

    @classmethod
    def zeros(cls, units: int) -> "LSTMState":
        return cls(cell=np.zeros(units), hidden=np.zeros(units))


@dataclass(frozen=True)
class LSTMWeights:
    """Gate weights over the concatenation [hidden, input]; each weight is
    (units, units + input_dim), each bias (units,)."""

    forget_w: np.ndarray
    forget_b: np.ndarray
    input_w: np.ndarray
    input_b: np.ndarray
    candidate_w: np.ndarray
    candidate_b: np.ndarray
    output_w: np.ndarray
    output_b: np.ndarray

    @property
    def units(self) -> int:
        return self.forget_w.shape[0]

    @property
    def input_dim(self) -> int:
        return self.forget_w.shape[1] - self.forget_w.shape[0]


def lstm_cell_forward(x_t, prev: LSTMState, weights: LSTMWeights):
    """One recurrence step.

    forget = sigmoid(Wf.[hidden, x] + bf), update = sigmoid(Wi.[hidden, x] + bi),
    candidate = tanh(Wc.[hidden, x] + bc), cell = forget*prev_cell + update*candidate,
    out_gate = sigmoid(Wo.[hidden, x] + bo), hidden = out_gate*tanh(cell).

    Returns (hidden, new state).
    """
    state, _ = _lstm_cell_cache(np.asarray(x_t, dtype=float), prev, weights)
    return state.hidden, state


def _lstm_cell_cache(x_t, prev: LSTMState, w: LSTMWeights):
    if x_t.shape != (w.input_dim,):
        raise DataError(f"lstm input must have shape ({w.input_dim},), got {x_t.shape}")
    concat = np.concatenate([prev.hidden, x_t])
    forget = sigmoid(w.forget_w @ concat + w.forget_b)
    update = sigmoid(w.input_w @ concat + w.input_b)
    candidate = np.tanh(w.candidate_w @ concat + w.candidate_b)
    cell = forget * prev.cell + update * candidate
    out_gate = sigmoid(w.output_w @ concat + w.output_b)
    tanh_cell = np.tanh(cell)
    hidden = out_gate * tanh_cell
    state = LSTMState(cell=cell, hidden=hidden)
    cache = (concat, prev.cell, forget, update, candidate, out_gate, tanh_cell)
    return state, cache


def _lstm_cell_backward(dhidden, dcell, cache, w: LSTMWeights, grads: dict):
    """Accumulate gate-weight gradients for one step; returns the gradients
    flowing to the previous hidden/cell state and to the step input."""
    concat, prev_cell, forget, update, candidate, out_gate, tanh_cell = cache
    units = w.units

    dout_gate = dhidden * tanh_cell
    da_out = dout_gate * out_gate * (1.0 - out_gate)
    dcell = dcell + dhidden * out_gate * (1.0 - tanh_cell**2)

    dforget = dcell * prev_cell
    da_forget = dforget * forget * (1.0 - forget)
    dupdate = dcell * candidate
    da_update = dupdate * update * (1.0 - update)
    dcandidate = dcell * update
    da_candidate = dcandidate * (1.0 - candidate**2)

    grads["forget_w"] += np.outer(da_forget, concat)
    grads["forget_b"] += da_forget
    grads["input_w"] += np.outer(da_update, concat)
    grads["input_b"] += da_update
    grads["candidate_w"] += np.outer(da_candidate, concat)
    grads["candidate_b"] += da_candidate
    grads["output_w"] += np.outer(da_out, concat)
    grads["output_b"] += da_out

    dconcat = (
        w.forget_w.T @ da_forget
        + w.input_w.T @ da_update
        + w.candidate_w.T @ da_candidate
        + w.output_w.T @ da_out
    )
    dprev_hidden = dconcat[:units]
    dx = dconcat[units:]
    dprev_cell = dcell * forget
    return dprev_hidden, dprev_cell, dx
