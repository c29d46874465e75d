"""Hyperparameter search: discrete grids driven by continuous optimizers.

The candidate grid is embedded in the unit box [0,1]^d with a
floor-scaling decode (monotone and surjective onto the grid). Fitness is
the validation MSE of a network trained with the decoded assignment,
seeded deterministically from (global seed, assignment) so it is a pure
function of the assignment and can be cached; the grid has only
2*6*3*4 = 144 cells under the default space.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DivergedError, TooShortError
from .evaluation import mse
from .metaheuristics import OPTIMIZERS, OptimizationTrace, OptimizerParams, SearchBounds
from .network import (
    NetworkConfig,
    TrainingConfig,
    initialize_network,
    predict_windows,
    train,
)
from .timeseries import WindowedSamples, make_windows, split_index, split_windows


@dataclass(frozen=True)
class HyperparamSpace:
    """Ordered (name, candidates) dimensions; candidates keep grid order."""

    dimensions: tuple[tuple[str, tuple], ...]

    def __post_init__(self):
        for name, candidates in self.dimensions:
            if len(candidates) == 0:
                raise ConfigError(f"dimension {name!r} has no candidates")

    def __len__(self):
        return len(self.dimensions)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.dimensions)

    def cells(self) -> int:
        return math.prod(len(c) for _, c in self.dimensions)


DEFAULT_SPACE = HyperparamSpace((
    ("n_filters", (32, 64)),
    ("kernel_size", (3, 4, 5, 6, 7, 8)),
    ("pool_size", (2, 3, 4)),
    ("lstm_units", (10, 15, 20, 25)),
))

# optional extras behind the --extended-space flag
EXTENDED_SPACE = HyperparamSpace(DEFAULT_SPACE.dimensions + (
    ("learning_rate", (1e-2, 1e-3, 1e-4)),
    ("epochs", (50, 100)),
))


@dataclass(frozen=True)
class HyperparamAssignment:
    """One grid cell: dimension name -> candidate value."""

    values: dict[str, object]

    def key(self) -> tuple:
        return tuple(self.values[name] for name in sorted(self.values))


def decode_position(position, space: HyperparamSpace) -> HyperparamAssignment:
    """Map a point of [0,1]^d onto the grid: index = min(floor(p*n), n-1).

    Out-of-box coordinates are clamped first, so the decode is total.
    """
    raw = np.asarray(position, dtype=float)
    if raw.shape != (len(space),):
        raise ConfigError(f"position must have {len(space)} entries, got {raw.shape}")
    clamped = np.clip(raw, 0.0, 1.0)
    values = {}
    for coord, (name, candidates) in zip(clamped, space.dimensions):
        idx = min(int(coord * len(candidates)), len(candidates) - 1)
        values[name] = candidates[idx]
    return HyperparamAssignment(values=values)


def enumerate_assignments(space: HyperparamSpace):
    """Every grid cell, in lexicographic candidate order."""
    names = space.names
    for combo in itertools.product(*(c for _, c in space.dimensions)):
        yield HyperparamAssignment(values=dict(zip(names, combo)))


def derive_seed(global_seed: int, assignment: HyperparamAssignment) -> int:
    """Stable 32-bit seed from the global seed and the assignment values."""
    payload = json.dumps(
        [int(global_seed), [[k, repr(v)] for k, v in sorted(assignment.values.items())]]
    )
    digest = hashlib.sha256(payload.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


def surrogate_fitness(assignment: HyperparamAssignment, global_seed: int = 0) -> float:
    """Cheap deterministic pseudo-loss in [0, 1); used to exercise the tuner
    against exhaustive enumeration without training anything."""
    digest = hashlib.sha256(
        (f"surrogate:{derive_seed(global_seed, assignment)}").encode("ascii")
    ).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


def cell_configs(
    assignment: HyperparamAssignment,
    global_seed: int,
    *,
    epochs: int,
    learning_rate: float,
    optimizer: str,
    n_features: int = 1,
    horizon: int = 1,
    repeat_steps: int = 3,
    conv_activation: str = "relu",
) -> tuple[NetworkConfig, TrainingConfig]:
    """The network and training configs for one grid cell.

    Weights are seeded with ``derive_seed(global_seed, assignment)`` and
    the sample order with that seed + 1, so a cell trains the same way
    wherever it is built. An assignment that carries ``learning_rate``
    or ``epochs`` overrides the given value.
    """
    values = assignment.values
    derived = derive_seed(global_seed, assignment)
    network = NetworkConfig(
        n_filters=int(values["n_filters"]),
        kernel_size=int(values["kernel_size"]),
        pool_size=int(values["pool_size"]),
        lstm_units=int(values["lstm_units"]),
        repeat_steps=repeat_steps,
        n_features=n_features,
        horizon=horizon,
        conv_activation=conv_activation,
        seed=derived,
    )
    training = TrainingConfig(
        epochs=int(values.get("epochs", epochs)),
        learning_rate=float(values.get("learning_rate", learning_rate)),
        optimizer=optimizer,
        seed=derived + 1,
    )
    return network, training


def _fits(assignment: HyperparamAssignment, lookback: int) -> bool:
    """Whether the cell's kernel and pool leave a non-empty pooled conv
    output at this lookback; ``fitness`` scores the others +inf."""
    values = assignment.values
    config = NetworkConfig(kernel_size=int(values["kernel_size"]),
                           pool_size=int(values["pool_size"]))
    try:
        config.validate_for_lookback(lookback)
    except ConfigError:
        return False
    return True


def fitness(
    assignment: HyperparamAssignment,
    train_windows: WindowedSamples,
    val_windows: WindowedSamples,
    training_cfg: TrainingConfig,
    repeat_steps: int = 3,
    conv_activation: str = "relu",
) -> float:
    """Validation MSE of a network trained under the assignment.

    ``training_cfg.seed`` is the global seed. Infeasible shape
    combinations and diverged trainings come back as +inf so the search
    stays total.
    """
    lookback = train_windows.lookback
    if not _fits(assignment, lookback):
        return math.inf
    config, run_cfg = cell_configs(
        assignment,
        training_cfg.seed,
        epochs=training_cfg.epochs,
        learning_rate=training_cfg.learning_rate,
        optimizer=training_cfg.optimizer,
        n_features=train_windows.inputs.shape[2],
        horizon=train_windows.horizon,
        repeat_steps=repeat_steps,
        conv_activation=conv_activation,
    )
    net = initialize_network(config, lookback)
    try:
        trained = train(net, train_windows, run_cfg)
    except DivergedError:
        return math.inf
    predictions = predict_windows(trained, val_windows)
    actual = np.asarray(val_windows.targets, dtype=float)[:, :, 0]
    return mse(predictions.ravel(), actual.ravel())


def inner_validation_split(
    series, lookback: int, horizon: int, val_fraction: float = 0.2
) -> tuple[WindowedSamples, WindowedSamples]:
    """Chronological window split of the series at ``1 - val_fraction``
    (see ``split_windows``); both sides must be non-empty."""
    if not 0.0 < val_fraction < 1.0:
        raise ConfigError("val_fraction must be in (0, 1)")
    matrix = np.asarray(series, dtype=float)
    if matrix.ndim == 1:
        matrix = matrix[:, None]
    windows = make_windows(matrix, lookback, horizon)
    fit, val = split_windows(windows, split_index(len(matrix), 1.0 - val_fraction))
    if len(fit) == 0 or len(val) == 0:
        raise TooShortError(
            f"series of length {len(matrix)} cannot supply both fit and "
            f"validation windows at fraction {val_fraction}"
        )
    return fit, val


@dataclass(frozen=True)
class EvaluationRecord:
    values: dict[str, object]
    loss: float
    wall_time: float


@dataclass
class TuningResult:
    algorithm: str
    best_assignment: HyperparamAssignment
    best_loss: float
    records: list[EvaluationRecord] = field(default_factory=list)
    trace: OptimizationTrace | None = None
    cache_hits: int = 0
    cache_misses: int = 0


def tune(
    evaluate,
    algorithm: str,
    params: OptimizerParams,
    space: HyperparamSpace = DEFAULT_SPACE,
    evaluation_budget: int | None = None,
) -> TuningResult:
    """Drive a metaheuristic over the grid's unit box.

    ``evaluate`` maps an assignment to a loss; results are cached by
    decoded cell so revisits cost nothing. The optimizer scores each
    population with one objective call, which decodes and evaluates its
    rows in row order. ``evaluation_budget`` caps the number of
    *distinct* cells evaluated: once it is spent, a row whose cell was
    never evaluated scores +inf, uncached and uncounted, while cached
    cells keep their loss. Whatever the search leaves unspent is used to
    sweep still-unvisited cells in grid order, so a budget covering the
    whole grid guarantees the exact grid optimum.
    Returns the best assignment, its loss, the fresh-evaluation log and
    the optimizer trace.
    """
    if algorithm not in OPTIMIZERS:
        raise ConfigError(f"unknown algorithm {algorithm!r}; pick from {sorted(OPTIMIZERS)}")
    if evaluation_budget is not None and evaluation_budget < 1:
        raise ConfigError("evaluation_budget must be positive")
    cache: dict[tuple, float] = {}
    records: list[EvaluationRecord] = []
    counters = {"hits": 0, "misses": 0}

    def evaluate_cell(assignment):
        key = assignment.key()
        if key in cache:
            counters["hits"] += 1
            return cache[key]
        if counters["misses"] == evaluation_budget:
            return math.inf  # spent: an unvisited cell can never win
        started = time.perf_counter()
        loss = float(evaluate(assignment))
        elapsed = time.perf_counter() - started
        cache[key] = loss
        counters["misses"] += 1
        records.append(EvaluationRecord(dict(assignment.values), loss, elapsed))
        return loss

    def objective(positions):
        return [evaluate_cell(decode_position(row, space)) for row in positions]

    bounds = SearchBounds.cube(0.0, 1.0, len(space))
    best_position, best_loss, trace = OPTIMIZERS[algorithm](objective, bounds, params)
    best_assignment = decode_position(best_position, space)
    best_loss = float(best_loss)

    if evaluation_budget is not None:
        for assignment in enumerate_assignments(space):
            if counters["misses"] >= evaluation_budget:
                break
            if assignment.key() in cache:
                continue
            loss = evaluate_cell(assignment)
            if loss < best_loss:
                best_loss, best_assignment = loss, assignment

    return TuningResult(
        algorithm=algorithm,
        best_assignment=best_assignment,
        best_loss=best_loss,
        records=records,
        trace=trace,
        cache_hits=counters["hits"],
        cache_misses=counters["misses"],
    )


def tune_series(
    series,
    algorithm: str,
    params: OptimizerParams,
    space: HyperparamSpace = DEFAULT_SPACE,
    *,
    lookback: int = 7,
    horizon: int = 1,
    val_fraction: float = 0.2,
    fitness_epochs: int = 20,
    global_seed: int = 0,
    repeat_steps: int = 3,
    conv_activation: str = "relu",
    learning_rate: float = 1e-3,
    optimizer: str = "adam",
    surrogate: str | None = None,
    evaluation_budget: int | None = None,
) -> TuningResult:
    """Tune hyperparameters for one (already scaled) training series.

    ``surrogate='hash'`` swaps the real fitness for the deterministic
    pseudo-loss, which is handy for exercising the search itself.
    """
    if surrogate == "hash":
        evaluate = lambda assignment: surrogate_fitness(assignment, global_seed)
    elif surrogate is None:
        if not any(_fits(assignment, lookback) for assignment in enumerate_assignments(space)):
            raise ConfigError(
                f"no cell of the space fits lookback {lookback}: each kernel_size is"
                " wider than it or its pool_size empties the conv output"
            )
        train_windows, val_windows = inner_validation_split(
            series, lookback, horizon, val_fraction
        )
        training_cfg = TrainingConfig(
            epochs=fitness_epochs,
            learning_rate=learning_rate,
            optimizer=optimizer,
            seed=global_seed,
        )
        evaluate = lambda assignment: fitness(
            assignment, train_windows, val_windows, training_cfg,
            repeat_steps=repeat_steps, conv_activation=conv_activation,
        )
    else:
        raise ConfigError(f"unknown surrogate {surrogate!r}")
    return tune(evaluate, algorithm, params, space, evaluation_budget=evaluation_budget)
