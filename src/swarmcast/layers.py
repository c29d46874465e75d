"""Forward and backward primitives for the conv/pool/LSTM/dense stack.

Everything is float64 numpy; shapes follow the convention (time,
channels), optionally behind leading batch axes. Backward functions
consume the caches their forward counterparts produce, so gradients are
exact reverse-mode.

The LSTM keeps its four gates fused, as PyTorch ``nn.LSTM`` and Appleyard
et al., "Optimizing Performance of RNNs on GPUs" (arXiv:1604.01946) do:
one (4 * units, units + input_dim) weight over [hidden, input] whose row
blocks are the gates in ``GATES`` order, so a step is one matrix product.
The input's share of the pre-activation, W_x.x + b, is passed in already
computed, so a caller that feeds the same input to every step projects it
once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DataError

# row blocks of the fused LSTM weight, in order
GATES = ("forget", "input", "candidate", "output")


def sigmoid(x):
    """Logistic function, as 0.5 + 0.5 tanh(x / 2) so that it cannot overflow."""
    out = np.tanh(np.asarray(x, dtype=float) * 0.5)
    out *= 0.5
    out += 0.5
    return out


# name -> (activation, applied in place to the pre-activation; derivative
# as a function of the activation's output)
ACTIVATIONS = {
    "relu": (lambda pre: np.maximum(pre, 0.0, out=pre), lambda out: out > 0),
    "tanh": (lambda pre: np.tanh(pre, out=pre), lambda out: 1.0 - out * out),
    "identity": (lambda pre: pre, lambda out: np.ones_like(out)),
}


def conv_output_size(input_len: int, kernel: int) -> int:
    """Output length of a valid stride-1 convolution: W - F + 1."""
    if kernel > input_len:
        raise ConfigError(f"kernel {kernel} larger than input {input_len}")
    return input_len - kernel + 1


def _im2col(x: np.ndarray, kernel: int) -> np.ndarray:
    """The kernel-length windows of x (..., L, F) as rows (..., L-K+1, K*F)."""
    windows = sliding_window_view(x, kernel, axis=-2)  # (..., L-K+1, F, K)
    return np.swapaxes(windows, -1, -2).reshape(windows.shape[:-2] + (-1,))


def conv1d_forward(x, weights, bias, activation: str = "relu") -> np.ndarray:
    """Valid (no padding, stride 1) 1-d convolution over time.

    x is (L, n_features), weights (n_filters, kernel, n_features), bias
    (n_filters,); output (L - kernel + 1, n_filters) with the activation
    applied elementwise.
    """
    x = np.asarray(x, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if x.ndim != 2 or weights.ndim != 3:
        raise DataError("conv expects x (L, F) and weights (filters, K, F)")
    n_filters, kernel, n_features = weights.shape
    if x.shape[1] != n_features:
        raise DataError(f"input has {x.shape[1]} features, kernel expects {n_features}")
    if len(x) < kernel:
        raise DataError(f"input length {len(x)} below kernel {kernel}")
    out, _ = _conv1d_cache(_im2col(x, kernel), weights.reshape(n_filters, -1), bias, activation)
    return out


def _conv1d_cache(cols, weights2d, bias, activation):
    """Convolution of im2col rows cols (..., L', K*F) with weights2d (filters, K*F)."""
    act, _ = ACTIVATIONS[activation]
    out = cols @ weights2d.T
    out += bias
    out = act(out)
    return out, (cols, out)


def _conv1d_backward(dout, cache, activation, dweights2d, dbias):
    """Write the weight and bias gradients of one window into the given arrays."""
    cols, out = cache
    _, dact = ACTIVATIONS[activation]
    dpre = dout * dact(out)
    np.matmul(dpre.T, cols, out=dweights2d)
    dpre.sum(axis=0, out=dbias)


def maxpool1d_forward(x, pool: int) -> np.ndarray:
    """Non-overlapping max pooling along time; a trailing remainder shorter
    than the pool is dropped."""
    x = np.asarray(x, dtype=float)
    if pool < 1:
        raise ConfigError("pool size must be at least 1")
    if len(x) < pool:
        raise DataError(f"input length {len(x)} below pool size {pool}")
    out, _ = _maxpool1d_cache(x, pool)
    return out


def _maxpool1d_cache(x, pool):
    """Pool x (..., L, C) to (..., L // pool, C); the cache holds the
    windows, a view of x, for the backward pass to find their argmax."""
    length, channels = x.shape[-2:]
    windows = length // pool
    trimmed = x[..., : windows * pool, :].reshape(x.shape[:-2] + (windows, pool, channels))
    return trimmed.max(axis=-2), (trimmed, length)


def _maxpool1d_backward(dout, cache):
    """Route each window's gradient to its (first) argmax; windows never
    overlap, so a plain index assignment places every entry."""
    trimmed, length = cache
    windows, pool, channels = trimmed.shape
    dx = np.zeros((length, channels))
    rows = trimmed.argmax(axis=1) + np.arange(0, windows * pool, pool)[:, None]
    dx[rows, np.arange(channels)] = dout
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
    x_t = np.asarray(x_t, dtype=float)
    if x_t.shape != (weights.input_dim,):
        raise DataError(f"lstm input must have shape ({weights.input_dim},), got {x_t.shape}")
    gate_w = np.concatenate([getattr(weights, f"{gate}_w") for gate in GATES])
    gate_b = np.concatenate([getattr(weights, f"{gate}_b") for gate in GATES])
    units = weights.units
    xproj = gate_w[:, units:] @ x_t + gate_b
    cell, hidden, _ = _lstm_cell_cache(xproj, prev.cell, prev.hidden, gate_w[:, :units])
    return hidden, LSTMState(cell=cell, hidden=hidden)


@functools.lru_cache(maxsize=None)
def _gate_scale(units: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-row (scale, shift) of the fused gates: tanh(scale * a) * scale +
    shift is sigmoid(a) = 0.5 + 0.5 tanh(a / 2) on the forget, input and
    output rows and tanh(a) on the candidate rows. Read-only, shared."""
    scale = np.repeat([0.5, 0.5, 1.0, 0.5], units)
    shift = np.repeat([0.5, 0.5, 0.0, 0.5], units)
    scale.flags.writeable = shift.flags.writeable = False
    return scale, shift


def _lstm_cell_cache(xproj, prev_cell, prev_hidden, w_h):
    """One step on the fused gates.

    xproj (..., 4u) is the input's share W_x.x + b of the pre-activation
    and w_h (4u, u) the recurrent weight. ``None`` for the previous state
    means the zero state, whose recurrent share vanishes. Returns (cell,
    hidden, cache).
    """
    units = w_h.shape[1]
    scale, shift = _gate_scale(units)
    pre = xproj if prev_hidden is None else prev_hidden @ w_h.T + xproj
    squashed = np.tanh(pre * scale)
    gates = squashed * scale
    gates += shift
    forget = gates[..., :units]
    update = gates[..., units : 2 * units]
    candidate = gates[..., 2 * units : 3 * units]
    out_gate = gates[..., 3 * units :]
    cell = update * candidate
    if prev_cell is not None:
        cell += forget * prev_cell
    tanh_cell = np.tanh(cell)
    hidden = out_gate * tanh_cell
    return cell, hidden, (prev_cell, gates, squashed, tanh_cell)


def _lstm_cell_backward(dhidden, dcell, cache, dgates):
    """Backward through one step of a single sample.

    ``dcell`` is the gradient reaching this step's cell from later steps
    (``None`` at the last step). Writes the gradient at the fused
    pre-activation into ``dgates`` (4u,), from which the caller forms the
    weight, bias and input gradients, and returns the cell gradient for
    the previous step.
    """
    prev_cell, gates, squashed, tanh_cell = cache
    units = len(tanh_cell)
    forget, update, candidate, out_gate = gates.reshape(4, units)
    by_gate = dgates.reshape(4, units)

    dcell_total = dhidden * out_gate * (1.0 - tanh_cell * tanh_cell)
    if dcell is not None:
        dcell_total += dcell
    by_gate[0] = 0.0 if prev_cell is None else dcell_total * prev_cell
    by_gate[1] = dcell_total * candidate
    by_gate[2] = dcell_total * update
    by_gate[3] = dhidden * tanh_cell
    # d gate / d pre = scale^2 (1 - squashed^2): sigmoid' = s(1 - s), tanh' = 1 - t^2
    scale, _ = _gate_scale(units)
    slope = 1.0 - squashed * squashed
    slope *= scale
    slope *= scale
    dgates *= slope
    return dcell_total * forget
