"""The conv + LSTM forecaster: initialisation, training, forecasting.

Architecture, in order: valid 1-d convolution over the lookback window,
non-overlapping max pooling, flatten, a repeat layer that feeds the same
feature vector to the LSTM for ``repeat_steps`` steps, and a linear dense
head mapping the final hidden state to ``horizon`` outputs.

Training is plain per-sample gradient descent (Adam or SGD) on MSE with
exact reverse-mode gradients, bitwise reproducible for a fixed seed.
Models serialise to JSON with weights base64-encoded as little-endian
float64, so save/load round-trips are bit-exact.
"""

from __future__ import annotations

import base64
import json
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import ConfigError, DataError, DivergedError
from .layers import (
    ACTIVATIONS,
    LSTMState,
    LSTMWeights,
    _conv1d_backward,
    _conv1d_cache,
    _lstm_cell_backward,
    _lstm_cell_cache,
    _maxpool1d_backward,
    _maxpool1d_cache,
    conv_output_size,
)
from .timeseries import ScalingParams, WindowedSamples, inverse_scale

PARAM_KEYS = (
    "conv_w",
    "conv_b",
    "forget_w",
    "forget_b",
    "input_w",
    "input_b",
    "candidate_w",
    "candidate_b",
    "output_w",
    "output_b",
    "dense_w",
    "dense_b",
)


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
        for name in ("n_filters", "kernel_size", "pool_size", "lstm_units",
                     "repeat_steps", "n_features", "horizon"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        if self.conv_activation not in ACTIVATIONS:
            raise ConfigError(f"unknown conv activation {self.conv_activation!r}")

    def validate_for_lookback(self, lookback: int) -> None:
        if self.kernel_size > lookback:
            raise ConfigError(
                f"kernel_size {self.kernel_size} exceeds lookback {lookback}"
            )
        if self.pooled_length(lookback) < 1:
            raise ConfigError(
                f"pool_size {self.pool_size} empties the conv output for lookback {lookback}"
            )

    def conv_length(self, lookback: int) -> int:
        return conv_output_size(lookback, self.kernel_size)

    def pooled_length(self, lookback: int) -> int:
        return self.conv_length(lookback) // self.pool_size

    def flat_length(self, lookback: int) -> int:
        return self.pooled_length(lookback) * self.n_filters


@dataclass(frozen=True)
class TrainingConfig:
    epochs: int = 100
    learning_rate: float = 1e-3
    optimizer: str = "adam"
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError("epochs must be at least 1")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.optimizer not in ("adam", "sgd"):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")


@dataclass(frozen=True)
class TrainedNetwork:
    """All weights of one forecaster plus the config that shaped them.

    Shapes: conv_w (n_filters, kernel_size, n_features), conv_b
    (n_filters,); each LSTM gate weight (lstm_units, lstm_units +
    flat_length), bias (lstm_units,); dense_w (horizon, lstm_units),
    dense_b (horizon,).
    """

    config: NetworkConfig
    lookback: int
    conv_w: np.ndarray
    conv_b: np.ndarray
    forget_w: np.ndarray
    forget_b: np.ndarray
    input_w: np.ndarray
    input_b: np.ndarray
    candidate_w: np.ndarray
    candidate_b: np.ndarray
    output_w: np.ndarray
    output_b: np.ndarray
    dense_w: np.ndarray
    dense_b: np.ndarray
    loss_history: tuple[float, ...] = field(default_factory=tuple)

    def params(self) -> dict[str, np.ndarray]:
        return {key: getattr(self, key) for key in PARAM_KEYS}

    def with_params(self, params: dict[str, np.ndarray], loss_history=None) -> "TrainedNetwork":
        history = self.loss_history if loss_history is None else tuple(loss_history)
        return replace(self, loss_history=history, **params)

    @property
    def lstm_weights(self) -> LSTMWeights:
        return LSTMWeights(
            forget_w=self.forget_w, forget_b=self.forget_b,
            input_w=self.input_w, input_b=self.input_b,
            candidate_w=self.candidate_w, candidate_b=self.candidate_b,
            output_w=self.output_w, output_b=self.output_b,
        )


def initialize_network(config: NetworkConfig, lookback: int) -> TrainedNetwork:
    """Seeded weight init: Glorot-style uniform for conv and dense,
    uniform +-sqrt(1/units) for the LSTM gates, all biases zero."""
    config.validate_for_lookback(lookback)
    rng = np.random.default_rng(config.seed)
    kernel_fan = config.kernel_size * config.n_features
    conv_limit = np.sqrt(6.0 / (kernel_fan + config.n_filters))
    conv_w = rng.uniform(-conv_limit, conv_limit,
                         (config.n_filters, config.kernel_size, config.n_features))
    conv_b = np.zeros(config.n_filters)

    units = config.lstm_units
    concat_dim = units + config.flat_length(lookback)
    lstm_limit = np.sqrt(1.0 / units)
    gates = {}
    for gate in ("forget", "input", "candidate", "output"):
        gates[f"{gate}_w"] = rng.uniform(-lstm_limit, lstm_limit, (units, concat_dim))
        gates[f"{gate}_b"] = np.zeros(units)

    dense_limit = np.sqrt(6.0 / (units + config.horizon))
    dense_w = rng.uniform(-dense_limit, dense_limit, (config.horizon, units))
    dense_b = np.zeros(config.horizon)

    return TrainedNetwork(
        config=config, lookback=lookback,
        conv_w=conv_w, conv_b=conv_b,
        dense_w=dense_w, dense_b=dense_b,
        **gates,
    )


def _forward_cache(net: TrainedNetwork, x: np.ndarray):
    cfg = net.config
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.shape != (net.lookback, cfg.n_features):
        raise DataError(
            f"input must have shape {(net.lookback, cfg.n_features)}, got {x.shape}"
        )
    conv_out, conv_cache = _conv1d_cache(x, net.conv_w, net.conv_b, cfg.conv_activation)
    pooled, pool_cache = _maxpool1d_cache(conv_out, cfg.pool_size)
    flat = pooled.ravel()

    weights = net.lstm_weights
    state = LSTMState.zeros(cfg.lstm_units)
    step_caches = []
    for _ in range(cfg.repeat_steps):
        state, cache = _lstm_cell_cache(flat, state, weights)
        step_caches.append(cache)
    output = net.dense_w @ state.hidden + net.dense_b
    return output, (conv_cache, pool_cache, flat, step_caches, state.hidden)


def network_forward(x, net: TrainedNetwork) -> np.ndarray:
    """Run one lookback window through the network; returns (horizon,)."""
    output, _ = _forward_cache(net, x)
    return output


def _gradients(net: TrainedNetwork, x, target):
    """Reverse-mode gradients of the per-sample MSE; returns (grads, loss)."""
    cfg = net.config
    target = np.asarray(target, dtype=float).reshape(-1)
    if target.shape != (cfg.horizon,):
        raise DataError(f"target must have {cfg.horizon} entries, got {target.shape}")
    output, (conv_cache, pool_cache, flat, step_caches, hidden) = _forward_cache(net, x)

    error = output - target
    loss = float(np.mean(error**2))
    doutput = 2.0 * error / cfg.horizon

    grads = {key: np.zeros_like(value) for key, value in net.params().items()}
    grads["dense_w"] = np.outer(doutput, hidden)
    grads["dense_b"] = doutput.copy()

    weights = net.lstm_weights
    dhidden = net.dense_w.T @ doutput
    dcell = np.zeros(cfg.lstm_units)
    dflat = np.zeros_like(flat)
    for cache in reversed(step_caches):
        dhidden, dcell, dx = _lstm_cell_backward(dhidden, dcell, cache, weights, grads)
        dflat += dx

    dpooled = dflat.reshape(cfg.pooled_length(net.lookback), cfg.n_filters)
    dconv = _maxpool1d_backward(dpooled, pool_cache)
    dw, db = _conv1d_backward(dconv, net.conv_w, conv_cache, cfg.conv_activation)
    grads["conv_w"] = dw
    grads["conv_b"] = db
    return grads, loss


def compute_gradients(net: TrainedNetwork, x, target) -> dict[str, np.ndarray]:
    """Exact gradients of the MSE between ``network_forward(x)`` and target,
    for every weight and bias (keys as in ``PARAM_KEYS``)."""
    grads, _ = _gradients(net, x, target)
    return grads


class _Adam:
    def __init__(self, params, learning_rate):
        self.lr = learning_rate
        self.beta1, self.beta2, self.eps = 0.9, 0.999, 1e-8
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def update(self, params, grads):
        # in-place so the working network's views stay current
        self.t += 1
        for key in params:
            g = grads[key]
            self.m[key] = self.beta1 * self.m[key] + (1.0 - self.beta1) * g
            self.v[key] = self.beta2 * self.v[key] + (1.0 - self.beta2) * g * g
            m_hat = self.m[key] / (1.0 - self.beta1**self.t)
            v_hat = self.v[key] / (1.0 - self.beta2**self.t)
            params[key] -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class _SGD:
    def __init__(self, params, learning_rate):
        self.lr = learning_rate

    def update(self, params, grads):
        for key in params:
            params[key] -= self.lr * grads[key]


def _sample_arrays(samples: WindowedSamples):
    inputs = np.asarray(samples.inputs, dtype=float)
    targets = np.asarray(samples.targets, dtype=float)
    if targets.ndim == 3:
        if targets.shape[2] != 1:
            raise ConfigError("the network head predicts a single variable")
        targets = targets[:, :, 0]
    return inputs, targets


def train(net: TrainedNetwork, samples: WindowedSamples, cfg: TrainingConfig) -> TrainedNetwork:
    """Per-sample gradient training for a fixed epoch count.

    Sample order is reshuffled every epoch from the seeded stream; the
    loss history records the mean training MSE per epoch. A non-finite
    epoch loss aborts with DivergedError.
    """
    inputs, targets = _sample_arrays(samples)
    if len(inputs) == 0:
        raise DataError("no training samples")
    if samples.horizon != net.config.horizon:
        raise ConfigError(
            f"window horizon {samples.horizon} != network horizon {net.config.horizon}"
        )
    rng = np.random.default_rng(cfg.seed)
    params = {k: v.copy() for k, v in net.params().items()}
    opt_cls = _Adam if cfg.optimizer == "adam" else _SGD
    optimizer = opt_cls(params, cfg.learning_rate)
    working = net.with_params(params)  # attribute arrays alias params; updates are in place

    history = []
    for _ in range(cfg.epochs):
        order = rng.permutation(len(inputs))
        total = 0.0
        for idx in order:
            grads, loss = _gradients(working, inputs[idx], targets[idx])
            optimizer.update(params, grads)
            total += loss
        epoch_loss = total / len(inputs)
        if not np.isfinite(epoch_loss):
            raise DivergedError(f"epoch loss became {epoch_loss}")
        history.append(epoch_loss)

    return net.with_params({k: v.copy() for k, v in params.items()}, loss_history=history)


def predict_windows(net: TrainedNetwork, samples: WindowedSamples) -> np.ndarray:
    """One-step-ahead predictions for every window; shape (n, horizon)."""
    inputs, _ = _sample_arrays(samples)
    return np.stack([network_forward(x, net) for x in inputs])


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
    window = list(series[-net.lookback:])
    predictions: list[float] = []
    while len(predictions) < steps:
        block = network_forward(np.array(window)[:, None], net)
        for value in block:
            window.append(float(value))
            window.pop(0)
            predictions.append(float(value))
    return inverse_scale(np.array(predictions[:steps]), scaling)


def _encode_array(arr: np.ndarray) -> dict:
    data = np.ascontiguousarray(arr, dtype="<f8")
    return {"shape": list(arr.shape), "data": base64.b64encode(data.tobytes()).decode("ascii")}


def _decode_array(blob: dict) -> np.ndarray:
    raw = base64.b64decode(blob["data"])
    return np.frombuffer(raw, dtype="<f8").reshape(blob["shape"]).astype(float)


def model_to_dict(net: TrainedNetwork) -> dict:
    return {
        "config": asdict(net.config),
        "lookback": net.lookback,
        "weights": {key: _encode_array(value) for key, value in net.params().items()},
        "loss_history": list(net.loss_history),
    }


def model_from_dict(doc: dict) -> TrainedNetwork:
    config = NetworkConfig(**doc["config"])
    weights = {key: _decode_array(doc["weights"][key]) for key in PARAM_KEYS}
    return TrainedNetwork(
        config=config,
        lookback=int(doc["lookback"]),
        loss_history=tuple(float(v) for v in doc["loss_history"]),
        **weights,
    )


def save_model(net: TrainedNetwork, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(net), fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_model(path) -> TrainedNetwork:
    with open(path, encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))
