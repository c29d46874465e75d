"""The conv + LSTM forecaster: initialisation, training, forecasting.

Architecture, in order: valid 1-d convolution over the lookback window,
non-overlapping max pooling, flatten, a repeat layer that feeds the same
feature vector to the LSTM for ``repeat_steps`` steps, and a linear dense
head mapping the final hidden state to ``horizon`` outputs.

Training is plain per-sample gradient descent (Adam or SGD) on MSE with
exact reverse-mode gradients, bitwise reproducible for a fixed seed.
A network keeps its parameters in one flat buffer (``_FlatParams``).
``train`` steps a group of networks in lockstep: members that agree on
every layer after the pooling and on the training recipe
(``lockstep_key``), each with its own conv front, seeds and sample
order. A lone network is a group of one. The group copies its members'
weights once into one buffer (``_Stack``) whose stacked views give the
layers after the pooling a leading member axis, so one matmul per
product, one LSTM step and one optimizer update serve every member,
while each member computes exactly what its lone training would. The
LSTM gates are fused into one matrix, and the repeated input is
projected once per window. There is one forward (``_forward``): every
pass, training's and inference's, runs a group over a batch of windows
per member and writes its intermediates into a set made once
(``_GroupBuffers``); the backward reads them there, and takes the
LSTM's two derivative arrays for all repeat steps at once after the
forward. Training steps one window per member. Inference runs one
network as a group of one (``_Stack.of`` views its weights without
copying them) over fixed-size blocks of windows, one set per block
size, and a recursive forecast reuses one set for every step.
Models serialise to JSON with weights base64-encoded as little-endian
float64, so save/load round-trips are bit-exact.
"""

from __future__ import annotations

import base64
import itertools
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ConfigError, DataError, NumericalError
from .fileio import (COUNT_RULE, OBJECT_RULE, SEED_RULE, check_fields, is_finite, read_json,
                     write_json)
from .layers import (
    ACTIVATIONS,
    GATES,
    _conv1d_backward,
    _conv1d_cache,
    _im2col,
    _lstm_cell_backward,
    _lstm_cell_cache,
    _lstm_slopes,
    _maxpool1d_backward,
    _maxpool1d_cache,
)
from .timeseries import ScalingParams, WindowedSamples, inverse_scale


# each config field's rule, key -> (check, what it wants), for its constructor and JSON readers;
# an activation is looked up in a tuple, where a JSON list is not found rather than unhashable
NETWORK_RULES = dict.fromkeys(("n_filters", "kernel_size", "pool_size", "lstm_units",
                               "repeat_steps", "n_features", "horizon"), COUNT_RULE) | {
    "conv_activation": (lambda value: value in tuple(ACTIVATIONS),
                        f"one of {', '.join(ACTIVATIONS)}"),
    "seed": SEED_RULE,
}
# the most weights a network, or LSTM states (repeat_steps * lstm_units) a
# window, may have: a bigger network is refused by arithmetic, unallocated
MAX_NETWORK_FLOATS = 2**30


def pooled_length(lookback, kernel_size, pool_size):
    """Length of the pooled conv output. The one fit rule: a kernel and pool
    fit a lookback iff it is >= 1. Elementwise on arrays, for a whole grid."""
    return (lookback - kernel_size + 1) // pool_size


@dataclass(frozen=True)
class NetworkConfig:
    """Architecture hyperparameters; the tuner draws these from its grid,
    user-specified values are free-form as long as the shapes work out."""

    n_filters: int = 32
    kernel_size: int = 3
    pool_size: int = 2
    lstm_units: int = 10
    repeat_steps: int = 3
    n_features: int = 1
    horizon: int = 1
    conv_activation: str = "relu"
    seed: int = 0

    def __post_init__(self):
        check_fields(vars(self), NETWORK_RULES, ConfigError, "", "network config")

    def validate_for_lookback(self, lookback: int) -> None:
        if self.kernel_size > lookback:
            raise ConfigError(
                f"kernel_size {self.kernel_size} exceeds lookback {lookback}"
            )
        if pooled_length(lookback, self.kernel_size, self.pool_size) < 1:
            raise ConfigError(
                f"pool_size {self.pool_size} empties the conv output for lookback {lookback}"
            )
        weights = self.weight_count(lookback)
        if max(weights, self.repeat_steps * self.lstm_units) > MAX_NETWORK_FLOATS:
            raise ConfigError(f"{weights} weights or {self.repeat_steps * self.lstm_units} LSTM"
                              f" states per window exceed {MAX_NETWORK_FLOATS}")

    def flat_length(self, lookback: int) -> int:
        return pooled_length(lookback, self.kernel_size, self.pool_size) * self.n_filters

    def weight_count(self, lookback: int) -> int:
        return sum(map(math.prod, _layout(self, lookback).values()))


@dataclass(frozen=True)
class TrainingConfig:
    epochs: int = 100
    learning_rate: float = 1e-3
    optimizer: str = "adam"
    seed: int = 0

    def __post_init__(self):
        check_fields(vars(self), TRAINING_RULES, ConfigError, "", "training config")


def _layout(config: NetworkConfig, lookback: int) -> dict[str, tuple[int, ...]]:
    """Each weight's shape, by its public name, in the order of a network's
    flat buffer: conv_w, conv_b, then ``{gate}_w`` for each gate in
    ``GATES`` order, then ``{gate}_b`` likewise, then dense_w, dense_b.
    Pure arithmetic on the config: it allocates nothing."""
    units = config.lstm_units
    return {
        "conv_w": (config.n_filters, config.kernel_size, config.n_features),
        "conv_b": (config.n_filters,),
        **{f"{gate}_w": (units, units + config.flat_length(lookback)) for gate in GATES},
        **{f"{gate}_b": (units,) for gate in GATES},
        "dense_w": (config.horizon, units),
        "dense_b": (config.horizon,),
    }


class _FlatParams:
    """All parameters of one network (or their gradient) in one contiguous
    float64 buffer, laid out as ``_layout`` says. ``named`` holds the
    public per-gate arrays by name; gate_w (4u, u + flat) stacks the gate
    weights row-wise in ``GATES`` order and gate_b their biases, and gate_w's
    first u columns act on the hidden state (w_h), the rest on the
    repeated input (w_x). Every array is a view of ``buf``, which is zeros
    unless given.
    """

    def __init__(self, config: NetworkConfig, lookback: int, buf=None):
        layout = _layout(config, lookback)
        sizes = [math.prod(shape) for shape in layout.values()]
        self.buf = np.zeros(sum(sizes)) if buf is None else buf
        starts = dict(zip(layout, itertools.accumulate(sizes, initial=0)))
        self.named = {name: self.buf[starts[name] : starts[name] + size].reshape(shape)
                      for (name, shape), size in zip(layout.items(), sizes)}
        units = config.lstm_units
        gate_w, gate_b = starts[f"{GATES[0]}_w"], starts[f"{GATES[0]}_b"]
        self.conv_w, self.conv_b = self.named["conv_w"], self.named["conv_b"]
        self.gate_w = self.buf[gate_w:gate_b].reshape(4 * units, -1)
        self.gate_b = self.buf[gate_b : starts["dense_w"]]
        self.dense_w, self.dense_b = self.named["dense_w"], self.named["dense_b"]
        self.conv_w2d = self.conv_w.reshape(config.n_filters, -1)
        self.w_h = self.gate_w[:, :units]
        self.w_x = self.gate_w[:, units:]


class _Stack:
    """The parameters (or their gradient) of a lockstep group of k networks
    in one (k, slot) buffer, zeros unless given, slot being the largest
    member's weight count. Each member's weights lie in ``_layout`` order at
    the end of its row, so ``members`` are their ``_FlatParams`` views, and
    the arrays after conv_b, shaped alike in every member, sit at one
    offset from each row's start: w_h, w_x, dense_w and their transposes
    are (k, ...) views of them with the row stride, gate_b is (k, 1, 4u)
    and dense_b (k, 1, horizon). Padding before a shorter member stays
    zero."""

    def __init__(self, configs, lookback: int, buf=None):
        sizes = [config.weight_count(lookback) for config in configs]
        slot = max(sizes)
        self.buf = np.zeros((len(configs), slot)) if buf is None else buf
        across = self.buf.strides[0]
        self._stack([_FlatParams(config, lookback, row[slot - size :])
                     for config, row, size in zip(configs, self.buf, sizes)],
                    lambda view: as_strided(view, (len(configs), *view.shape),
                                            (across, *view.strides)))

    @classmethod
    def of(cls, weights: _FlatParams) -> _Stack:
        """One network's weights as a group of one that shares their buffer:
        its views gain a leading axis, and nothing is laid out again."""
        group = cls.__new__(cls)
        group.buf = weights.buf[None]
        group._stack([weights], lambda view: view[None])
        return group

    def _stack(self, members, stacked):
        self.members, first = members, members[0]
        self.w_h, self.w_x, self.dense_w = map(stacked, (first.w_h, first.w_x, first.dense_w))
        self.gate_b, self.dense_b = (stacked(b)[:, None] for b in (first.gate_b, first.dense_b))
        self.w_hT, self.w_xT, self.dense_wT = (w.swapaxes(1, 2)
                                               for w in (self.w_h, self.w_x, self.dense_w))


@dataclass(frozen=True)
class TrainedNetwork:
    """The weights of one forecaster plus the config that shaped them.

    ``weights`` is the network's only weight store. Its per-gate views
    (``params()``) have the shapes that ``_layout`` gives.
    """

    config: NetworkConfig
    lookback: int
    weights: _FlatParams
    loss_history: tuple[float, ...] = field(default_factory=tuple)

    def params(self) -> dict[str, np.ndarray]:
        """Per-gate views of ``weights``; writing to them changes the network."""
        return dict(self.weights.named)


def initialize_network(config: NetworkConfig, lookback: int) -> TrainedNetwork:
    """Seeded weight init: Glorot-style uniform for conv and dense,
    uniform +-sqrt(1/units) for the LSTM gates, all biases zero."""
    config.validate_for_lookback(lookback)
    rng = np.random.default_rng(config.seed)
    weights = _FlatParams(config, lookback)
    kernel_fan = config.kernel_size * config.n_features
    conv_limit = np.sqrt(6.0 / (kernel_fan + config.n_filters))
    weights.conv_w[...] = rng.uniform(-conv_limit, conv_limit, weights.conv_w.shape)

    units = config.lstm_units
    lstm_limit = np.sqrt(1.0 / units)
    # one draw in row order fills the gates one after another, as GATES stacks them
    weights.gate_w[...] = rng.uniform(-lstm_limit, lstm_limit, weights.gate_w.shape)

    dense_limit = np.sqrt(6.0 / (units + config.horizon))
    weights.dense_w[...] = rng.uniform(-dense_limit, dense_limit, weights.dense_w.shape)
    return TrainedNetwork(config=config, lookback=lookback, weights=weights)


class _GroupBuffers:
    """Everything a pass of a lockstep group (see ``_Stack``) writes, made
    once from (configs, lookback, batch) and overwritten by each pass:
    ``batch`` windows per member for inference, or, for training (``batch``
    None), one window per member and the arrays the backward reads.

    Per member, ``fronts`` holds the conv output, its pool windows (the
    view (..., pooled, pool, filters) of it without its remainder rows),
    the pool backward's input gradient (training only, else None) and the
    pooled output, a view of the member's row of ``flat`` (k, batch,
    flat); an inference front has a leading batch axis, a training front
    none. The LSTM arrays are (k, batch, ...) blocks, training's batch
    being 1: the input projection ``xproj`` and, step-major, the gates,
    cells and hidden states and the squashed gates and tanh(cell) side by
    side (``activations``, 5u wide); ``steps`` holds per step the ``out``
    of ``_lstm_cell_cache`` (the scratch pre-activation, the squashed
    gates, gates, cell, tanh(cell), hidden and the gates' four blocks).
    ``head`` holds two (k, batch, horizon) arrays for the dense head.
    Training adds the derivatives of ``activations`` (``derivatives``, see
    ``_lstm_slopes``), the gate gradients (``dgates``, (steps, k, 1, 4u)),
    per step the arguments of ``_lstm_cell_backward`` after the two
    gradients (``backward``) and the operands of the recurrent weight's
    gradient. Every per-step entry is a view, made here once."""

    def __init__(self, configs, lookback: int, batch: int | None = None):
        config, k = configs[0], len(configs)
        steps, units, filters = config.repeat_steps, config.lstm_units, config.n_filters
        lead, n = ((), 1) if batch is None else ((batch,), batch)
        self.flat = np.empty((k, n, config.flat_length(lookback)))
        pooled = pooled_length(lookback, config.kernel_size, config.pool_size)
        self.fronts = []
        for member, flat in zip(configs, self.flat):
            conv = np.empty((*lead, lookback - member.kernel_size + 1, filters))
            windows = conv[..., : pooled * member.pool_size, :].reshape(
                *lead, pooled, member.pool_size, filters)
            self.fronts.append((conv, windows, np.empty_like(conv) if batch is None else None,
                                flat.reshape(*lead, pooled, filters)))
        self.head = np.empty((2, k, n, config.horizon))
        self.xproj, pre = np.empty((2, k, n, 4 * units))
        gates = np.empty((steps, k, n, 4 * units))
        cell, self.hidden = np.empty((2, steps, k, n, units))
        self.activations = np.empty((steps, k, n, 5 * units))
        self.steps = [(pre, both[..., : 4 * units], gate, c, both[..., 4 * units :], h,
                       tuple(gate[..., i * units : (i + 1) * units] for i in range(4)))
                      for both, gate, c, h in zip(self.activations, gates, cell, self.hidden)]
        if batch is not None:
            return
        self.dgates, self.derivatives = np.empty_like(gates), np.empty_like(self.activations)
        by_gate = (steps, k, 4, units)
        rows, drows = gates.reshape(by_gate), self.dgates.reshape(by_gate)
        slope = self.derivatives[..., : 4 * units].reshape(by_gate)
        self.backward = [(cell[t - 1] if t else None,
                          (rows[t, :, :1], rows[t, :, 2:0:-1], rows[t, :, 3:]),
                          self.activations[t, ..., 4 * units :],
                          (drows[t], drows[t, :, :1], drows[t, :, 1:3], drows[t, :, 3:]),
                          slope[t], self.derivatives[t, ..., 4 * units :])
                         for t in range(steps)]
        # the recurrent weight sees step t's gate gradients against hidden
        # t - 1. Those states are copied out member by member, as a lone
        # network keeps them: numpy multiplies a strided one-unit column in
        # its own loop, not BLAS, which rounds otherwise
        self.dgates_after = self.dgates[1:, :, 0].transpose(1, 2, 0)
        self.hidden_steps = self.hidden[:-1, :, 0].swapaxes(0, 1)
        self.hidden_before = np.empty(self.hidden_steps.shape)


def _forward(p: _Stack, windows, cfg: NetworkConfig, b: _GroupBuffers):
    """The forward pass of a group with the weights of ``p``; ``windows``
    holds each member's im2col rows, (batch, L', K*F) for an inference set
    ``b`` and (L', K*F) for a training one, and ``cfg`` is any member's
    config. Writes every intermediate into ``b`` and returns the outputs
    (k, batch, horizon), a view of ``b`` that the next pass overwrites."""
    for member, cols, (conv, pools, _, pooled) in zip(p.members, windows, b.fronts):
        _conv1d_cache(cols, member.conv_w2d, member.conv_b, cfg.conv_activation, conv)
        _maxpool1d_cache(pools, pooled)
    # the repeat layer feeds flat to every step, so its projection is shared
    xproj = np.matmul(b.flat, p.w_xT, out=b.xproj)
    xproj += p.gate_b
    cell = hidden = None
    for out in b.steps:
        cell, hidden = _lstm_cell_cache(xproj, cell, hidden, p.w_hT, out)
    # no operand is its own output: numpy takes a slow path for that on one
    # element, a horizon-1 lone network's
    output, scratch = b.head
    return np.add(np.matmul(hidden, p.dense_wT, out=output), p.dense_b, out=scratch)


def _gradients(p: _Stack, g: _Stack, windows, target, error, cfg: NetworkConfig,
               b: _GroupBuffers):
    """One lockstep step of a group: each member's gradient of its squared
    error on one window, written into ``g``, which shares ``p``'s layout.
    ``windows`` holds the members' im2col windows, ``target`` (k, 1,
    horizon) their targets, and ``cfg`` any member's config. Writes the
    errors (output - target) into ``error`` (k, 1, horizon) and returns
    it. The step runs in ``b``, a training set, and the backward reads
    there what the forward wrote."""
    np.subtract(_forward(p, windows, cfg, b), target, out=error)
    output, _ = b.head
    doutput = np.divide(np.multiply(2.0, error, out=output), cfg.horizon, out=g.dense_b)
    np.multiply(doutput.swapaxes(1, 2), b.hidden[-1], out=g.dense_w)

    _lstm_slopes(b.activations, b.derivatives)
    dhidden = doutput @ p.dense_w
    dcell = None
    for t in reversed(range(cfg.repeat_steps)):
        dcell = _lstm_cell_backward(dhidden, dcell, *b.backward[t])
        if t:
            dhidden = b.dgates[t] @ p.w_h
    # bias and input weights see every step's input; the recurrent weight
    # sees step t against hidden t - 1 (step 0 starts from zero, so one
    # step leaves a sum over no steps: +0.0)
    dsum = np.add.reduce(b.dgates, axis=0, out=g.gate_b)
    np.multiply(dsum.swapaxes(1, 2), b.flat, out=g.w_x)
    np.copyto(b.hidden_before, b.hidden_steps)
    np.matmul(b.dgates_after, b.hidden_before, out=g.w_h)

    dpooled = dsum @ p.w_x
    for grad, cols, (conv, pools, dx, _), dflat in zip(g.members, windows, b.fronts, dpooled):
        dconv = _maxpool1d_backward(dflat.reshape(-1, cfg.n_filters), pools, dx)
        _conv1d_backward(dconv, cols, conv, cfg.conv_activation, grad.conv_w2d, grad.conv_b)
    return error


def _window_cols(net: TrainedNetwork, inputs) -> np.ndarray:
    """im2col rows of input windows (..., lookback, n_features), shape-checked;
    a 1-d input is one single-feature window."""
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim == 1:
        inputs = inputs[:, None]
    shape = (net.lookback, net.config.n_features)
    if inputs.shape[-2:] != shape:
        raise DataError(f"input must have shape {shape}, got {inputs.shape[-2:]}")
    return _im2col(inputs, net.config.kernel_size)


def _inference(net: TrainedNetwork, batch: int):
    """``net`` as a group of one and a set for ``batch`` of its windows."""
    return _Stack.of(net.weights), _GroupBuffers([net.config], net.lookback, batch)


def network_forward(x, net: TrainedNetwork, buffers=None) -> np.ndarray:
    """Run one lookback window through the network; returns (horizon,). The
    pass runs in ``buffers``, an ``_inference(net, 1)`` made once for many
    windows, whose next pass overwrites the result, or in a fresh one."""
    group, b = _inference(net, 1) if buffers is None else buffers
    return _forward(group, [_window_cols(net, x)[None]], net.config, b)[0, 0]


class _Adam:
    """Adam over a whole buffer of ``shape``, in place, with one preallocated
    scratch array; ``state`` holds the arrays it carries between updates.

    It keeps the second moment unnormalised, v' = v / (1 - beta2), so it
    updates as v' = beta2 v' + g^2, and folds the bias corrections into
    two scalars (Kingma and Ba, 2015, section 2): with root = sqrt(1 -
    beta2^t) and tail = sqrt(1 - beta2), the step lr * m_hat /
    (sqrt(v_hat) + eps) is (m / (sqrt(v') + eps * root / tail)) * (lr *
    root / (tail * (1 - beta1^t))). That is eleven array passes per
    update, one of them a division. The first moment stays normalised: an
    m' = m / (1 - beta1) would save one more pass, but where m cancels to
    a small value it drifts from the textbook recursion by more than 1e-12
    relative.
    """

    def __init__(self, shape, learning_rate):
        self.lr = learning_rate
        self.beta1, self.beta2, self.eps = 0.9, 0.999, 1e-8
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self.state = (self.m, self.v)
        self.step = np.empty(shape)
        self.t = 0

    def update(self, params, grads):
        self.t += 1
        m, v, step = self.m, self.v, self.step
        # m = beta1 * m + (1 - beta1) * g
        m *= self.beta1
        np.multiply(grads, 1.0 - self.beta1, out=step)
        m += step
        # v' = beta2 * v' + g * g
        v *= self.beta2
        np.multiply(grads, grads, out=step)
        v += step
        root = math.sqrt(1.0 - self.beta2**self.t)
        tail = math.sqrt(1.0 - self.beta2)
        # step = m / (sqrt(v') + eps * root / tail) * (lr * root / (tail * (1 - beta1^t)))
        np.sqrt(v, out=step)
        step += self.eps * root / tail
        np.divide(m, step, out=step)
        step *= self.lr * root / (tail * (1.0 - self.beta1**self.t))
        params -= step


class _SGD:
    state = ()

    def __init__(self, shape, learning_rate):
        self.lr = learning_rate
        self.step = np.empty(shape)

    def update(self, params, grads):
        np.multiply(grads, self.lr, out=self.step)
        params -= self.step


# the optimizer classes by the name a TrainingConfig gives
WEIGHT_OPTIMIZERS = {"adam": _Adam, "sgd": _SGD}
# TrainingConfig's field rules, as NETWORK_RULES are NetworkConfig's
TRAINING_RULES = {
    "epochs": COUNT_RULE,
    "learning_rate": (lambda value: is_finite(value) and value > 0, "a finite number > 0"),
    "optimizer": (lambda value: value in tuple(WEIGHT_OPTIMIZERS),
                  f"one of {', '.join(WEIGHT_OPTIMIZERS)}"),
    "seed": SEED_RULE,
}


def lockstep_key(config: NetworkConfig, lookback: int, cfg: TrainingConfig) -> tuple:
    """What the members of one ``train`` group share: every layer after the
    pooling, the window shape and the training recipe. They may differ in
    kernel_size, pool_size and both seeds."""
    return (config.n_filters, config.lstm_units,
            pooled_length(lookback, config.kernel_size, config.pool_size), config.repeat_steps,
            config.n_features, config.horizon, config.conv_activation, lookback,
            cfg.epochs, cfg.learning_rate, cfg.optimizer)


def train(nets, samples: WindowedSamples, cfgs) -> list:
    """Per-sample gradient training of a group of networks in lockstep, for
    a fixed epoch count; ``cfgs`` holds one training config per network,
    and all share one ``lockstep_key``. ``nets`` may be any iterable: its
    networks' weights are copied into the group's buffer before the first
    step, so networks that only the iterable held are freed then.

    Each member reshuffles its sample order every epoch from its own
    seeded stream and takes one step per sample, exactly as it would
    trained alone. Returns, per member, the trained network, whose loss
    history records the mean training MSE per epoch and whose weights are
    a view of the group's buffer, or, if an epoch loss was not finite, the
    NumericalError saying so. A diverged member's weights and optimizer
    state are zeroed and take no more steps, while the others carry on.
    """
    inputs = np.asarray(samples.inputs, dtype=float)
    if samples.targets.shape[2] != 1:
        raise ConfigError("the network head predicts a single variable")
    targets = np.asarray(samples.targets[:, :, 0], dtype=float)
    if len(inputs) == 0:
        raise DataError("no training samples")
    nets = list(nets)
    if len({lockstep_key(net.config, net.lookback, cfg)
            for net, cfg in zip(nets, cfgs, strict=True)}) != 1:
        raise ConfigError("a training group needs networks that agree on every layer after the"
                          " pooling, the lookback, epochs, learning_rate and optimizer")
    if samples.horizon != nets[0].config.horizon:  # the key holds the horizon
        raise ConfigError(
            f"window horizon {samples.horizon} != network horizon {nets[0].config.horizon}"
        )
    # per member, the im2col row of each window, as views made once for every epoch
    rows = [list(_window_cols(net, inputs)) for net in nets]
    configs, lookback, cfg = [net.config for net in nets], nets[0].lookback, cfgs[0]
    params = _Stack(configs, lookback)
    for i, member in enumerate(params.members):  # each network becomes a view of its row
        member.buf[...] = nets[i].weights.buf
        nets[i] = replace(nets[i], weights=member)
    grads = _Stack(configs, lookback)
    optimizer = WEIGHT_OPTIMIZERS[cfg.optimizer](params.buf.shape, cfg.learning_rate)
    buffers = _GroupBuffers(configs, lookback)
    rngs = [np.random.default_rng(member.seed) for member in cfgs]
    # each member's errors in its visiting order, (k, samples, 1, horizon)
    errors = np.empty((len(nets), len(inputs), 1, configs[0].horizon))
    steps = errors.swapaxes(0, 1)
    weights, gradient = params.buf, grads.buf

    outcomes = [[] for _ in nets]  # the loss history, or the error a member diverged with
    frozen = []
    for _ in range(cfg.epochs):
        orders = [rng.permutation(len(inputs)).tolist() for rng in rngs]
        # per step, each member's window and target
        windows = zip(*([member[i] for i in order] for member, order in zip(rows, orders)))
        step_targets = targets[orders][:, :, None].swapaxes(0, 1)
        for window, target, error in zip(windows, step_targets, steps):
            _gradients(params, grads, window, target, error, configs[0], buffers)
            for i in frozen:
                gradient[i] = 0.0
            optimizer.update(weights, gradient)
        for i, history in enumerate(outcomes):
            if i in frozen:
                continue
            total = 0.0  # the per-sample losses, summed one by one in visiting order
            for loss in np.mean(errors[i, :, 0] ** 2, axis=1).tolist():
                total += loss
            epoch_loss = total / len(inputs)
            if np.isfinite(epoch_loss):
                history.append(epoch_loss)
                continue
            outcomes[i] = NumericalError(f"epoch loss became {epoch_loss}")
            frozen.append(i)
            for array in (weights, *optimizer.state):
                array[i] = 0.0
        if len(frozen) == len(nets):
            break

    return [outcome if isinstance(outcome, NumericalError)
            else replace(net, loss_history=tuple(outcome))
            for net, outcome in zip(nets, outcomes)]


# windows per batched forward in predict_windows: enough to amortise the
# per-call overhead, small enough that a long series adds no working set
PREDICT_BLOCK = 32


def predict_windows(net: TrainedNetwork, samples: WindowedSamples) -> np.ndarray:
    """One-step-ahead predictions for every window; shape (n, horizon).
    Only the inputs are read, so the windows may carry any targets."""
    inputs = np.asarray(samples.inputs, dtype=float)
    out = np.empty((len(inputs), net.config.horizon))
    for start in range(0, len(inputs), PREDICT_BLOCK):
        block = inputs[start : start + PREDICT_BLOCK]
        if start == 0 or len(block) < PREDICT_BLOCK:  # one set per block size
            group, buffers = _inference(net, len(block))
        cols = _window_cols(net, block)
        out[start : start + len(block)] = _forward(group, [cols], net.config, buffers)[0]
    return out


def persistence_predictions(samples: WindowedSamples) -> np.ndarray:
    """Naive baseline: repeat each window's last observed value across the
    horizon; shape (n, horizon)."""
    inputs = np.asarray(samples.inputs, dtype=float)
    last = inputs[:, -1, 0]
    return np.repeat(last[:, None], samples.horizon, axis=1)


def iterative_forecast(
    net: TrainedNetwork, history, steps: int, scaling: ScalingParams
) -> np.ndarray:
    """Recursive multi-step forecast in original units.

    Predicts one horizon block, appends it to the window, and repeats
    until ``steps`` values are produced. ``history`` is in the scaled
    space the network was trained on and needs a single feature.
    """
    if steps < 1:
        raise ConfigError("steps must be at least 1")
    if net.config.n_features != 1:
        raise ConfigError("recursive forecasting needs a single-feature network")
    series = np.asarray(history, dtype=float).reshape(-1)
    if len(series) < net.lookback:
        raise DataError(f"history shorter than lookback {net.lookback}")
    lookback, horizon = net.lookback, net.config.horizon
    produced = -(-steps // horizon) * horizon
    values = np.empty(lookback + produced)
    values[:lookback] = series[-lookback:]
    buffers = _inference(net, 1)
    for start in range(0, produced, horizon):
        block = values[start : start + lookback, None]
        values[start + lookback : start + lookback + horizon] = network_forward(block, net, buffers)
    return inverse_scale(values[lookback : lookback + steps], scaling)


def _encode_array(arr: np.ndarray) -> dict:
    data = np.ascontiguousarray(arr, dtype="<f8")
    return {"shape": list(arr.shape), "data": base64.b64encode(data.tobytes()).decode("ascii")}


def model_to_dict(net: TrainedNetwork) -> dict:
    return {
        "config": asdict(net.config),
        "lookback": net.lookback,
        "weights": {key: _encode_array(value) for key, value in net.params().items()},
        "loss_history": list(net.loss_history),
    }


def model_from_dict(doc: dict, source: str = "model") -> TrainedNetwork:
    """Rebuild a ``model_to_dict`` document into a fresh weight buffer.
    Anything missing, unknown, misshaped or not finite raises DataError
    naming ``source`` and the key."""
    check_fields(doc, {"config": OBJECT_RULE, "lookback": COUNT_RULE, "weights": OBJECT_RULE,
                       "loss_history": (lambda value: isinstance(value, list)
                                        and all(map(is_finite, value)),
                                        "a list of finite numbers")},
                 DataError, "", source)
    check_fields(doc["config"], NETWORK_RULES, DataError, "config", source)
    lookback = doc["lookback"]
    try:
        config = NetworkConfig(**doc["config"])  # the TypeError names an unknown field
        config.validate_for_lookback(lookback)
    except (ConfigError, TypeError) as exc:
        raise DataError(f"{source}: bad 'config' or 'lookback': {exc}") from exc

    blobs = doc["weights"]
    for key, shape in _layout(config, lookback).items():
        if key not in blobs:
            raise DataError(f"{source}: missing weight {key!r}")
        recorded = blobs[key].get("shape") if isinstance(blobs[key], dict) else None
        # compared before the buffer is allocated, and not just by its size
        if not isinstance(recorded, list) or tuple(recorded) != shape:
            raise DataError(f"{source}: weight {key!r} has shape {recorded!r}, "
                            f"expected {list(shape)}")
    weights = _FlatParams(config, lookback)
    for key, view in weights.named.items():
        try:
            raw = base64.b64decode(blobs[key]["data"])
            view[...] = np.frombuffer(raw, dtype="<f8").reshape(view.shape)
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{source}: weight {key!r} is not an encoded array: {exc}") from exc
        if not np.isfinite(view).all():
            raise DataError(f"{source}: weight {key!r} holds a non-finite value")
    return TrainedNetwork(config=config, lookback=lookback, weights=weights,
                          loss_history=tuple(map(float, doc["loss_history"])))


def save_model(net: TrainedNetwork, path) -> None:
    write_json(path, model_to_dict(net))


def load_model(path) -> TrainedNetwork:
    """Read a model file; every problem with it is a DataError naming the file."""
    return model_from_dict(read_json(path, "model", DataError), source=str(path))
