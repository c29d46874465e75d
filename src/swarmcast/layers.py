"""The fused forward and backward primitives of the conv/pool/LSTM stack,
as ``network`` runs them.

Everything is float64 numpy; shapes follow the convention (time,
channels), optionally behind leading batch axes. Backward functions
consume the caches their forward counterparts produce, so gradients are
exact reverse-mode. The forward functions write into output arrays the
caller passes, if any, so a single-window training step can reuse one
set of arrays for every sample; the backward functions always do.

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

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ConfigError

# row blocks of the fused LSTM weight, in order
GATES = ("forget", "input", "candidate", "output")


# name -> (activation, applied in place to the pre-activation; derivative
# as a function of the activation's output)
ACTIVATIONS = {
    "relu": (lambda pre: np.maximum(pre, 0.0, out=pre), lambda out: out > 0),
    "tanh": (lambda pre: np.tanh(pre, out=pre), lambda out: 1.0 - out * out),
    "identity": (lambda pre: pre, lambda out: np.ones_like(out)),
}


def _im2col(x: np.ndarray, kernel: int) -> np.ndarray:
    """The kernel-length windows of x (..., L, F) as rows (..., L-K+1, K*F).

    The windows are one read-only strided view (..., L-K+1, K, F), the
    view ``sliding_window_view`` then ``swapaxes`` would give, so the
    reshape copies exactly when theirs would.
    """
    *lead, length, features = x.shape
    *lead_strides, step, across = x.strides
    if not 0 < kernel <= length:
        raise ConfigError(f"kernel {kernel} does not fit input of length {length}")
    windows = as_strided(x, (*lead, length - kernel + 1, kernel, features),
                         (*lead_strides, step, step, across), writeable=False)
    return windows.reshape(*lead, length - kernel + 1, kernel * features)


def _conv1d_cache(cols, weights2d, bias, activation, out=None):
    """Convolution of im2col rows cols (..., L', K*F) with weights2d (filters,
    K*F), written into ``out`` if given."""
    act, _ = ACTIVATIONS[activation]
    out = np.matmul(cols, weights2d.T, out=out)
    out += bias
    out = act(out)
    return out, (cols, out)


def _conv1d_backward(dout, cache, activation, dweights2d, dbias):
    """Write the weight and bias gradients of one window into the given arrays."""
    cols, out = cache
    _, dact = ACTIVATIONS[activation]
    dpre = dout * dact(out)
    np.matmul(dpre.T, cols, out=dweights2d)
    np.add.reduce(dpre, axis=0, out=dbias)


def _maxpool1d_cache(x, pool, out=None):
    """Pool x (..., L, C) to (..., L // pool, C), written into ``out`` if
    given; the cache is the windows, a view of x, for the backward pass to
    find their argmax."""
    length, channels = x.shape[-2:]
    windows = length // pool
    trimmed = x[..., : windows * pool, :].reshape(x.shape[:-2] + (windows, pool, channels))
    return np.maximum.reduce(trimmed, axis=-2, out=out), trimmed


@functools.lru_cache(maxsize=None)
def _pool_offsets(windows: int, pool: int, channels: int) -> np.ndarray:
    """Flat index into a C-ordered (rows, channels) array of each window's
    first row, per channel: (windows, channels). Read-only, shared."""
    row_stride = pool * channels
    offsets = np.arange(0, windows * row_stride, row_stride)[:, None] + np.arange(channels)
    offsets.flags.writeable = False
    return offsets


def _maxpool1d_backward(dout, trimmed, dx):
    """Route each window's gradient to its (first) argmax in the input
    gradient ``dx`` (L, C), which it zeroes first and returns; ``trimmed``
    is the forward's cache. Windows never overlap, so a plain index
    assignment places every entry."""
    windows, pool, channels = trimmed.shape
    dx.fill(0.0)
    index = trimmed.argmax(axis=1)
    index *= channels
    index += _pool_offsets(windows, pool, channels)
    dx.reshape(-1)[index] = dout
    return dx


@functools.lru_cache(maxsize=None)
def _gate_scale(units: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-row (scale, shift) of the fused gates: tanh(scale * a) * scale +
    shift is sigmoid(a) = 0.5 + 0.5 tanh(a / 2) on the forget, input and
    output rows and tanh(a) on the candidate rows. Read-only, shared."""
    scale = np.repeat([0.5, 0.5, 1.0, 0.5], units)
    shift = np.repeat([0.5, 0.5, 0.0, 0.5], units)
    scale.flags.writeable = shift.flags.writeable = False
    return scale, shift


@functools.lru_cache(maxsize=None)
def _slope_scale(units: int) -> np.ndarray:
    """scale * scale of ``_gate_scale``, the chain-rule factor of the fused
    gates' backward, then 1 for u more columns: the factor ``_lstm_slopes``
    applies to the gates and tanh(cell) side by side. Exact, as every scale
    is a power of two. Read-only, shared."""
    scale, _ = _gate_scale(units)
    factor = np.concatenate((scale * scale, np.ones(units)))
    factor.flags.writeable = False
    return factor


def _lstm_cell_cache(xproj, prev_cell, prev_hidden, w_h, out=None):
    """One step on the fused gates.

    xproj (..., 4u) is the input's share W_x.x + b of the pre-activation
    and w_h (4u, u) the recurrent weight. ``None`` for the previous state
    means the zero state, whose recurrent share vanishes. ``out``, if
    given, holds one sample's arrays to write the step into: pre
    (scratch), squashed, gates, cell, tanh_cell, hidden, and the four
    blocks of gates in ``GATES`` order as views. Returns (cell, hidden,
    cache).
    """
    units = w_h.shape[1]
    scale, shift = _gate_scale(units)
    pre, squashed, gates, cell, tanh_cell, hidden, blocks = (None,) * 7 if out is None else out
    if prev_hidden is None:
        pre = xproj
    else:
        pre = np.matmul(prev_hidden, w_h.T, out=pre)
        pre += xproj
    squashed = np.multiply(pre, scale, out=squashed)
    np.tanh(squashed, out=squashed)
    gates = np.multiply(squashed, scale, out=gates)
    gates += shift
    if blocks is None:
        blocks = (gates[..., :units], gates[..., units : 2 * units],
                  gates[..., 2 * units : 3 * units], gates[..., 3 * units :])
    forget, update, candidate, out_gate = blocks
    cell = np.multiply(update, candidate, out=cell)
    if prev_cell is not None:
        tanh_cell = np.multiply(forget, prev_cell, out=tanh_cell)  # scratch until the tanh
        cell += tanh_cell
    tanh_cell = np.tanh(cell, out=tanh_cell)
    hidden = np.multiply(out_gate, tanh_cell, out=hidden)
    return cell, hidden, (prev_cell, gates, tanh_cell)


def _lstm_slopes(activations, out):
    """The two derivatives the backward needs, for every step of a sample
    at once. ``activations`` (steps, 5u) holds each step's squashed gates
    and tanh(cell) side by side; ``out`` (steps, 5u) gets d gate / d pre =
    scale^2 (1 - squashed^2) (sigmoid' = s(1 - s), tanh' = 1 - t^2), then
    1 - tanh(cell)^2."""
    np.multiply(activations, activations, out=out)
    np.subtract(1.0, out, out=out)
    out *= _slope_scale(activations.shape[-1] // 5)


def _lstm_cell_backward(dhidden, dcell, cache, dgates, slope, dtanh):
    """Backward through one step of a single sample.

    ``dcell`` is the gradient reaching this step's cell from later steps
    (``None`` at the last step); ``slope`` (4, u) and ``dtanh`` (u,) are
    the step's two parts of ``_lstm_slopes``. Writes the gradient at the
    fused pre-activation into ``dgates`` (4, u), one gate per row, from
    which the caller forms the weight, bias and input gradients, and
    returns the cell gradient for the previous step (``None`` at the first
    step, which has none).
    """
    prev_cell, gates, tanh_cell = cache
    by_row = gates.reshape(dgates.shape)
    by_gate = dgates

    dcell_total = dhidden * by_row[3]
    dcell_total *= dtanh
    if dcell is not None:
        dcell_total += dcell
    if prev_cell is None:
        by_gate[0] = 0.0
    else:
        np.multiply(dcell_total, prev_cell, out=by_gate[0])
    # input row against the candidate, candidate row against the input
    np.multiply(dcell_total, by_row[2:0:-1], out=by_gate[1:3])
    np.multiply(dhidden, tanh_cell, out=by_gate[3])
    dgates *= slope
    return None if prev_cell is None else dcell_total * by_row[0]
