"""The conv + LSTM forecaster: initialisation, training, forecasting.

Architecture, in order: valid 1-d convolution over the lookback window,
non-overlapping max pooling, flatten, a repeat layer that feeds the same
feature vector to the LSTM for ``repeat_steps`` steps, and a linear dense
head mapping the final hidden state to ``horizon`` outputs.

Training is plain per-sample gradient descent (Adam or SGD) on MSE with
exact reverse-mode gradients, bitwise reproducible for a fixed seed.
A network keeps its parameters in one flat buffer (``_FlatParams``);
``train`` copies it once and the optimizer updates the copy in place,
against a gradient buffer of the same layout. The LSTM gates are fused
into one matrix, and the repeated input is projected once per window.
Every forward pass writes its intermediates into a set of step buffers
(``_StepBuffers``) made from the config, lookback and batch shape, and
the backward reads them there. ``train`` makes one set for every sample
and takes the LSTM's two derivative arrays for all repeat steps at once
after the forward. Inference runs fixed-size blocks of windows through
the same forward, one set per block size, and a recursive forecast
reuses one set for every step.
Models serialise to JSON with weights base64-encoded as little-endian
float64, so save/load round-trips are bit-exact.
"""

from __future__ import annotations

import base64
import itertools
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

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
        weights = sum(map(math.prod, _layout(self, lookback).values()))
        if max(weights, self.repeat_steps * self.lstm_units) > MAX_NETWORK_FLOATS:
            raise ConfigError(f"{weights} weights or {self.repeat_steps * self.lstm_units} LSTM"
                              f" states per window exceed {MAX_NETWORK_FLOATS}")

    def flat_length(self, lookback: int) -> int:
        return pooled_length(lookback, self.kernel_size, self.pool_size) * self.n_filters


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


class _StepBuffers:
    """Every intermediate of a forward pass of ``batch`` windows, made once
    from (config, lookback, batch) and overwritten by each pass: the conv
    output (``windows``, its pool windows, views it), the pooled output
    (``flat`` views it), the input projection, per LSTM step the arrays
    ``_lstm_cell_cache`` writes (``steps``: scratch pre-activation,
    squashed gates, gates, cell, tanh(cell), hidden, and the gates' four
    blocks; ``hidden[t]`` is the state after step t), and the squashed
    gates and tanh(cell) side by side (``activations``). A single-window
    set also holds what its backward reads and writes: their derivatives
    (``derivatives``, see ``_lstm_slopes``), per step the arguments of
    ``_lstm_cell_backward`` after the two gradients (``backward``, whose
    gate gradients are rows of ``dgates``), and the pool backward's input
    gradient ``dx``. Every per-step entry is a view, made here once."""

    def __init__(self, config: NetworkConfig, lookback: int, batch: tuple[int, ...] = ()):
        steps, units, filters = config.repeat_steps, config.lstm_units, config.n_filters
        conv_length = lookback - config.kernel_size + 1
        self.conv = np.empty((*batch, conv_length, filters))
        pool = config.pool_size
        pooled = pooled_length(lookback, config.kernel_size, pool)
        self.windows = self.conv[..., : pooled * pool, :].reshape(*batch, pooled, pool, filters)
        self.pooled = np.empty((*batch, pooled, filters))
        self.flat = self.pooled.reshape(*batch, -1)
        self.xproj, pre = np.empty((2, *batch, 4 * units))
        gates = np.empty((steps, *batch, 4 * units))
        cell, self.hidden = np.empty((2, steps, *batch, units))
        self.activations = np.empty((steps, *batch, 5 * units))
        squashed, tanh_cell = np.split(self.activations, [4 * units], axis=-1)
        blocks = [tuple(np.split(row, 4, axis=-1)) for row in gates]
        self.steps = list(zip([pre] * steps, squashed, gates, cell, tanh_cell, self.hidden,
                              blocks))
        if not batch:  # the backward runs on one window at a time
            self.dx, self.dgates = np.empty_like(self.conv), np.empty_like(gates)
            self.derivatives = np.empty_like(self.activations)
            slope, dtanh = np.hsplit(self.derivatives, [4 * units])
            by_gate = (steps, 4, units)
            self.backward = list(zip([None, *cell[:-1]], gates.reshape(by_gate), tanh_cell,
                                     self.dgates.reshape(by_gate), slope.reshape(by_gate), dtanh))


def _forward(p: _FlatParams, cols, cfg: NetworkConfig, b: _StepBuffers):
    """Forward pass of im2col windows cols (*batch, lookback - K + 1, K*F)
    in ``b``, a set made for that batch shape, which keeps every
    intermediate; returns the outputs (*batch, horizon)."""
    _conv1d_cache(cols, p.conv_w2d, p.conv_b, cfg.conv_activation, b.conv)
    _maxpool1d_cache(b.windows, b.pooled)
    # the repeat layer feeds flat to every step, so its projection is shared
    xproj = np.matmul(b.flat, p.w_x.T, out=b.xproj)
    xproj += p.gate_b
    cell = hidden = None
    for out in b.steps:
        cell, hidden = _lstm_cell_cache(xproj, cell, hidden, p.w_h, out)
    return hidden @ p.dense_w.T + p.dense_b


def _gradients(p: _FlatParams, g: _FlatParams, cols, target, cfg: NetworkConfig,
               b: _StepBuffers):
    """Gradient of one window's squared error, written into ``g``, which
    shares ``p``'s layout; returns the error (output - target). The step
    runs in ``b``, a single-window set, and the backward reads there what
    the forward wrote."""
    error = _forward(p, cols, cfg, b) - target
    doutput = np.multiply(2.0, error, out=g.dense_b)
    doutput /= cfg.horizon
    hidden, dgates = b.hidden, b.dgates
    np.multiply(doutput[:, None], hidden[-1], out=g.dense_w)

    _lstm_slopes(b.activations, b.derivatives)
    dhidden = doutput @ p.dense_w
    dcell = None
    for t in reversed(range(cfg.repeat_steps)):
        dcell = _lstm_cell_backward(dhidden, dcell, *b.backward[t])
        if t:
            dhidden = dgates[t] @ p.w_h
    # bias and input weights see every step's input; the recurrent weight
    # sees step t against hidden t - 1 (step 0 starts from zero, so one
    # step leaves a sum over no steps: +0.0)
    dsum = np.add.reduce(dgates, axis=0, out=g.gate_b)
    np.multiply(dsum[:, None], b.flat, out=g.w_x)
    np.matmul(dgates[1:].T, hidden[:-1], out=g.w_h)

    dpooled = (dsum @ p.w_x).reshape(-1, cfg.n_filters)
    dconv = _maxpool1d_backward(dpooled, b.windows, b.dx)
    _conv1d_backward(dconv, cols, b.conv, cfg.conv_activation, g.conv_w2d, g.conv_b)
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


def network_forward(x, net: TrainedNetwork, buffers: _StepBuffers | None = None) -> np.ndarray:
    """Run one lookback window through the network; returns (horizon,). The
    pass runs in ``buffers``, a single-window set of ``net``'s config and
    lookback, or in a fresh one."""
    if buffers is None:
        buffers = _StepBuffers(net.config, net.lookback)
    return _forward(net.weights, _window_cols(net, x), net.config, buffers)


class _Adam:
    """Adam over the whole flat buffer, in place, with one preallocated scratch array.

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

    def __init__(self, size, learning_rate):
        self.lr = learning_rate
        self.beta1, self.beta2, self.eps = 0.9, 0.999, 1e-8
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.step = np.empty(size)
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
    def __init__(self, size, learning_rate):
        self.lr = learning_rate
        self.step = np.empty(size)

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


def train(net: TrainedNetwork, samples: WindowedSamples, cfg: TrainingConfig) -> TrainedNetwork:
    """Per-sample gradient training for a fixed epoch count.

    Sample order is reshuffled every epoch from the seeded stream; the
    loss history records the mean training MSE per epoch. A non-finite
    epoch loss aborts with NumericalError.
    """
    inputs = np.asarray(samples.inputs, dtype=float)
    if samples.targets.shape[2] != 1:
        raise ConfigError("the network head predicts a single variable")
    targets = np.asarray(samples.targets[:, :, 0], dtype=float)
    if len(inputs) == 0:
        raise DataError("no training samples")
    if samples.horizon != net.config.horizon:
        raise ConfigError(
            f"window horizon {samples.horizon} != network horizon {net.config.horizon}"
        )
    cols = _window_cols(net, inputs)
    rng = np.random.default_rng(cfg.seed)
    params = _FlatParams(net.config, net.lookback, net.weights.buf.copy())
    grads = _FlatParams(net.config, net.lookback)
    optimizer = WEIGHT_OPTIMIZERS[cfg.optimizer](params.buf.size, cfg.learning_rate)
    errors = np.empty_like(targets)
    # per-sample (window, target) views, made once for every epoch
    pairs = list(zip(cols, targets))
    config, weights, gradient = net.config, params.buf, grads.buf
    buffers = _StepBuffers(config, net.lookback)

    history = []
    for _ in range(cfg.epochs):
        order = rng.permutation(len(inputs))
        for idx in order.tolist():
            window, target = pairs[idx]
            errors[idx] = _gradients(params, grads, window, target, config, buffers)
            optimizer.update(weights, gradient)
        total = 0.0  # the per-sample losses, summed one by one in visiting order
        for loss in np.mean(errors[order] ** 2, axis=1).tolist():
            total += loss
        epoch_loss = total / len(inputs)
        if not np.isfinite(epoch_loss):
            raise NumericalError(f"epoch loss became {epoch_loss}")
        history.append(epoch_loss)

    return replace(net, weights=params, loss_history=tuple(history))


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
            buffers = _StepBuffers(net.config, net.lookback, block.shape[:1])
        cols = _window_cols(net, block)
        out[start : start + len(block)] = _forward(net.weights, cols, net.config, buffers)
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
    buffers = _StepBuffers(net.config, lookback)
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
