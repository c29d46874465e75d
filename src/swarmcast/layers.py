"""The fused forward and backward primitives of the conv/pool/LSTM stack,
as ``network`` runs them.

Everything is float64 numpy; shapes follow the convention (time,
channels), optionally behind leading batch axes. Every function writes
into arrays the caller passes, so one set of arrays serves every window
of a run (``network._StepBuffers``, ``network._GroupBuffers``). The
backward functions read what their forward counterparts wrote there, so
gradients are exact reverse-mode.

The LSTM keeps its four gates fused, as PyTorch ``nn.LSTM`` and Appleyard
et al., "Optimizing Performance of RNNs on GPUs" (arXiv:1604.01946) do:
one (4 * units, units + input_dim) weight over [hidden, input] whose row
blocks are the gates in ``GATES`` order, so a step is one matrix product.
The input's share of the pre-activation, W_x.x + b, is passed in already
computed, so a caller that feeds the same input to every step projects it
once. The LSTM step and its backward also take a leading member axis with
per-member weights: k networks stepped in lockstep, each member's product
a (1, n) by (n, m) matmul of its own.
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


def _conv1d_cache(cols, weights2d, bias, activation, out):
    """Convolution of im2col rows cols (..., L', K*F) with weights2d (filters,
    K*F), written into ``out`` (..., L', filters), which it returns."""
    act, _ = ACTIVATIONS[activation]
    np.matmul(cols, weights2d.T, out=out)
    out += bias
    return act(out)


def _conv1d_backward(dout, cols, out, activation, dweights2d, dbias):
    """Write the weight and bias gradients of one window, whose forward read
    ``cols`` and wrote ``out``, into the given arrays."""
    _, dact = ACTIVATIONS[activation]
    dpre = dout * dact(out)
    np.matmul(dpre.T, cols, out=dweights2d)
    np.add.reduce(dpre, axis=0, out=dbias)


def _maxpool1d_cache(windows, out):
    """Max of each non-overlapping pool window, the view (..., L // pool,
    pool, C) of an input (..., L, C) without its remainder of rows, written
    into ``out`` (..., L // pool, C), which it returns."""
    return np.maximum.reduce(windows, axis=-2, out=out)


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
    is the forward's window view. Windows never overlap, so a plain index
    assignment places every entry."""
    windows, pool, channels = trimmed.shape
    dx.fill(0.0)
    index = trimmed.argmax(axis=1)
    index *= channels
    index += _pool_offsets(windows, pool, channels)
    dx.reshape(-1)[index] = dout
    return dx


@functools.lru_cache(maxsize=None)
def _gate_scale(units: int, ndim: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Per-row (scale, shift) of the fused gates: tanh(scale * a) * scale +
    shift is sigmoid(a) = 0.5 + 0.5 tanh(a / 2) on the forget, input and
    output rows and tanh(a) on the candidate rows. Shaped (1, ..., 4u) to
    meet operands of ``ndim`` axes, where numpy multiplies faster than it
    broadcasts across a missing axis. Read-only, shared."""
    scale = np.repeat([0.5, 0.5, 1.0, 0.5], units).reshape((1,) * (ndim - 1) + (-1,))
    shift = np.repeat([0.5, 0.5, 0.0, 0.5], units).reshape(scale.shape)
    scale.flags.writeable = shift.flags.writeable = False
    return scale, shift


@functools.lru_cache(maxsize=None)
def _slope_scale(units: int, steps: int) -> np.ndarray:
    """scale * scale of ``_gate_scale``, the chain-rule factor of the fused
    gates' backward, then 1 for u more columns, for each of ``steps``
    steps: the factor (steps, 1, 1, 5u) that ``_lstm_slopes`` applies to
    the gates and tanh(cell) side by side. Exact, as every scale is a
    power of two. Read-only, shared."""
    scale, _ = _gate_scale(units)
    factor = np.tile(np.concatenate((scale * scale, np.ones(units))), (steps, 1, 1, 1))
    factor.flags.writeable = False
    return factor


def _lstm_cell_cache(xproj, prev_cell, prev_hidden, w_hT, out):
    """One step on the fused gates.

    xproj (..., 4u) is the input's share W_x.x + b of the pre-activation
    and w_hT (..., u, 4u) the recurrent weight, transposed: one matrix for
    a batch of windows, or one per member, the states then being (k, 1,
    u). ``None`` for the previous state means the zero state, whose
    recurrent share vanishes. ``out`` holds the arrays to write the step
    into: pre (scratch), squashed, gates, cell, tanh_cell, hidden, and the
    four blocks of gates in ``GATES`` order as views. Returns (cell,
    hidden).
    """
    scale, shift = _gate_scale(w_hT.shape[-2], xproj.ndim)
    pre, squashed, gates, cell, tanh_cell, hidden, blocks = out
    if prev_hidden is None:
        pre = xproj
    else:
        pre = np.matmul(prev_hidden, w_hT, out=pre)
        pre += xproj
    squashed = np.multiply(pre, scale, out=squashed)
    np.tanh(squashed, out=squashed)
    gates = np.multiply(squashed, scale, out=gates)
    gates += shift
    forget, update, candidate, out_gate = blocks
    cell = np.multiply(update, candidate, out=cell)
    if prev_cell is not None:
        tanh_cell = np.multiply(forget, prev_cell, out=tanh_cell)  # scratch until the tanh
        cell += tanh_cell
    tanh_cell = np.tanh(cell, out=tanh_cell)
    hidden = np.multiply(out_gate, tanh_cell, out=hidden)
    return cell, hidden


def _lstm_slopes(activations, out):
    """The two derivatives the backward needs, for every step of k members'
    samples at once. ``activations`` (steps, k, 1, 5u) holds each step's
    squashed gates and tanh(cell) side by side; ``out`` (steps, k, 1, 5u)
    gets d gate / d pre = scale^2 (1 - squashed^2) (sigmoid' = s(1 - s),
    tanh' = 1 - t^2), then 1 - tanh(cell)^2."""
    np.multiply(activations, activations, out=out)
    np.subtract(1.0, out, out=out)
    out *= _slope_scale(activations.shape[-1] // 5, len(activations))


def _lstm_cell_backward(dhidden, dcell, prev_cell, rows, tanh_cell, drows, slope, dtanh):
    """Backward through one step of k members, one sample each.

    ``dhidden`` (k, 1, u) is the gradient reaching this step's hidden
    state and ``dcell`` the one reaching its cell from later steps
    (``None`` at the last step). ``prev_cell`` (k, 1, u), ``rows`` (views
    of the gates: the forget row, the candidate and input rows in that
    order, and the output row) and ``tanh_cell`` (k, 1, u) are what the
    forward read and wrote; ``slope`` (k, 4, u) and ``dtanh`` (k, 1, u)
    are the step's parts of ``_lstm_slopes``. Writes the gradient at the
    fused pre-activation into the first of ``drows``, (k, 4, u), one gate
    per row, through the others (its forget row, its input and candidate
    rows, its output row), from which the caller forms the weight, bias
    and input gradients, and returns the cell gradient for the previous
    step (``None`` at the first step, which has none).
    """
    forget, swapped, out_gate = rows
    dgates, dforget, dpair, dout = drows

    dcell_total = dhidden * out_gate
    dcell_total *= dtanh
    if dcell is not None:
        dcell_total += dcell
    if prev_cell is None:
        dforget.fill(0.0)
    else:
        np.multiply(dcell_total, prev_cell, out=dforget)
    # input row against the candidate, candidate row against the input
    np.multiply(dcell_total, swapped, out=dpair)
    np.multiply(dhidden, tanh_cell, out=dout)
    dgates *= slope
    return None if prev_cell is None else dcell_total * forget
