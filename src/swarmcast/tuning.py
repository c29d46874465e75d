"""Hyperparameter search: discrete grids driven by continuous optimizers.

The candidate grid is embedded in the unit box [0,1]^d with a
floor-scaling decode (monotone and surjective onto the grid) that maps a
whole population to grid indices at once. A cell is a plain dict,
dimension name -> candidate. Fitness is the validation MSE of a network
trained with the cell, seeded deterministically from (global seed, cell)
so it is a pure function of the cell and can be cached; the grid has
only 2*6*3*4 = 144 cells under the default space.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DataError, NumericalError
from .evaluation import mse
from .fileio import check_fields, read_json
from .metaheuristics import OPTIMIZERS, OptimizationTrace, OptimizerParams, SearchBounds
from .network import (
    NETWORK_RULES,
    TRAINING_RULES,
    NetworkConfig,
    TrainingConfig,
    initialize_network,
    pooled_length,
    predict_windows,
    train,
)
from .timeseries import WindowedSamples, make_windows, split_index, split_windows

# training epochs per fitness evaluation; the winner is retrained at full epochs
FITNESS_EPOCHS = 20
# input window length in days, unless a run sets its own
LOOKBACK = 7
# share of the training series held out to score each cell, unless a run sets its own
VAL_FRACTION = 0.2


@dataclass(frozen=True)
class HyperparamSpace:
    """Ordered (name, candidates) dimensions; candidates keep grid order.

    No dimension repeats a candidate, so a cell's grid indices and its
    values name it equally well.
    """

    dimensions: tuple[tuple[str, tuple], ...]

    def __post_init__(self):
        for name, candidates in self.dimensions:
            if len(candidates) == 0:
                raise ConfigError(f"dimension {name!r} has no candidates")
            for i, candidate in enumerate(candidates):
                if candidate in candidates[:i]:
                    raise ConfigError(f"dimension {name!r} repeats candidate {candidate!r}")

    def __len__(self):
        return len(self.dimensions)

    @property
    def shape(self) -> tuple[int, ...]:
        """Candidates per dimension: the grid as an array shape."""
        return tuple(len(candidates) for _, candidates in self.dimensions)

    def cell(self, indices) -> dict:
        """The cell at the given grid indices: dimension name -> candidate."""
        return {name: candidates[i] for (name, candidates), i in zip(self.dimensions, indices)}


DEFAULT_SPACE = HyperparamSpace((
    ("n_filters", (32, 64)),
    ("kernel_size", (3, 4, 5, 6, 7, 8)),
    ("pool_size", (2, 3, 4)),
    ("lstm_units", (10, 15, 20, 25)),
))

# the grid dimensions that set a NetworkConfig field; every space keeps them
ARCHITECTURE_DIMENSIONS = tuple(name for name, _ in DEFAULT_SPACE.dimensions)

# optional extras behind the --extended-space flag
EXTENDED_SPACE = HyperparamSpace(DEFAULT_SPACE.dimensions + (
    ("learning_rate", (1e-2, 1e-3, 1e-4)),
    ("epochs", (50, 100)),
))

# every dimension a cell may set, with its config field's rule: name -> (check, what it wants)
CELL_RULES = {name: NETWORK_RULES[name] for name in ARCHITECTURE_DIMENSIONS} | {
    name: TRAINING_RULES[name] for name in ("epochs", "learning_rate")}


def _check_dimensions(names, error: type[Exception], where: str) -> None:
    """A space or a cell names every architecture dimension and no unknown one."""
    missing = [name for name in ARCHITECTURE_DIMENSIONS if name not in names]
    if missing:
        raise error(f"{where} lacks {', '.join(missing)}")
    for name in names:
        if name not in CELL_RULES:
            raise error(f"{where} has unknown dimension {name!r}; pick from {list(CELL_RULES)}")


def space_from_json(space) -> HyperparamSpace:
    """The grid of a config's ``space`` entry: dimension name -> candidate list."""
    if not isinstance(space, dict) or not space:
        raise ConfigError("config 'space' must map dimension name -> candidate list")
    _check_dimensions(space, ConfigError, "config 'space'")
    for name, values in space.items():
        if not isinstance(values, list):
            raise ConfigError(f"config 'space' dimension {name!r} must be a list, got {values!r}")
        check, wanted = CELL_RULES[name]
        if not all(map(check, values)):
            raise ConfigError(f"config 'space' dimension {name!r}: each candidate"
                              f" must be {wanted}, got {values!r}")
    return HyperparamSpace(tuple((name, tuple(values)) for name, values in space.items()))


def decode_position(positions, space: HyperparamSpace) -> np.ndarray:
    """Map points of [0,1]^d onto grid indices: index = min(floor(p*n), n-1).

    Takes one ``(d,)`` position or an ``(n, d)`` population and returns
    integer indices of the same shape. Out-of-box coordinates are
    clamped first, so the decode is total.
    """
    raw = np.asarray(positions, dtype=float)
    if raw.ndim not in (1, 2) or raw.shape[-1] != len(space):
        raise ConfigError(f"positions must have {len(space)} columns, got shape {raw.shape}")
    sizes = np.array(space.shape)
    return np.minimum((np.clip(raw, 0.0, 1.0) * sizes).astype(np.intp), sizes - 1)


def fit_mask(space: HyperparamSpace, lookback: int) -> np.ndarray:
    """One bool per grid cell, indexed by its grid indices: whether the
    cell's kernel and pool fit ``lookback`` (see ``pooled_length``)."""
    axes = {name: np.reshape(candidates, [-1 if j == i else 1 for j in range(len(space))])
            for i, (name, candidates) in enumerate(space.dimensions)}
    fits = pooled_length(lookback, axes["kernel_size"], axes["pool_size"]) >= 1
    return np.broadcast_to(fits, space.shape)


def check_sizes(space: HyperparamSpace, network: NetworkConfig, lookback: int) -> None:
    """Raise a ConfigError naming a grid cell that fits ``lookback`` but is
    too large to build (see ``NetworkConfig.validate_for_lookback``).
    Weights and LSTM states grow with n_filters and lstm_units, so only
    the largest cell of each fitting kernel and pool is checked."""
    values = dict(space.dimensions)
    for kernel, pool in itertools.product(values["kernel_size"], values["pool_size"]):
        if pooled_length(lookback, kernel, pool) < 1:
            continue
        cell = {"n_filters": max(values["n_filters"]), "kernel_size": kernel,
                "pool_size": pool, "lstm_units": max(values["lstm_units"])}
        try:
            replace(network, **cell).validate_for_lookback(lookback)
        except ConfigError as exc:
            raise ConfigError(f"grid cell {cell} cannot be built: {exc}") from None


def derive_seed(global_seed: int, assignment: dict) -> int:
    """Stable 32-bit seed from the global seed and the cell's values."""
    payload = json.dumps(
        [int(global_seed), [[k, repr(v)] for k, v in sorted(assignment.items())]]
    )
    digest = hashlib.sha256(payload.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


def surrogate_fitness(assignment: dict, global_seed: int = 0) -> float:
    """Cheap deterministic pseudo-loss in [0, 1); used to exercise the tuner
    against exhaustive enumeration without training anything."""
    digest = hashlib.sha256(
        (f"surrogate:{derive_seed(global_seed, assignment)}").encode("ascii")
    ).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


def cell_configs(
    assignment: dict, network: NetworkConfig, training: TrainingConfig, global_seed: int
) -> tuple[NetworkConfig, TrainingConfig]:
    """The run's network and training templates, filled in by one grid cell.

    The cell's architecture values replace the network template's, and
    its ``learning_rate`` and ``epochs``, when present, the training
    template's. Weights are seeded with ``derive_seed(global_seed,
    assignment)`` and the sample order with that seed + 1, so a cell
    trains the same way wherever it is built.
    """
    derived = derive_seed(global_seed, assignment)
    network = replace(
        network, seed=derived, **{name: int(assignment[name]) for name in ARCHITECTURE_DIMENSIONS}
    )
    training = replace(
        training,
        epochs=int(assignment.get("epochs", training.epochs)),
        learning_rate=float(assignment.get("learning_rate", training.learning_rate)),
        seed=derived + 1,
    )
    return network, training


def fitness(
    assignment: dict,
    train_windows: WindowedSamples,
    val_windows: WindowedSamples,
    network: NetworkConfig,
    training: TrainingConfig,
    global_seed: int,
) -> float:
    """Validation MSE of a network trained under the assignment (see
    ``cell_configs``) on windows whose lookback it fits; the windows set
    its feature count and horizon. A diverged training scores +inf.
    """
    network = replace(
        network, n_features=train_windows.inputs.shape[2], horizon=train_windows.horizon
    )
    config, run_cfg = cell_configs(assignment, network, training, global_seed)
    net = initialize_network(config, train_windows.lookback)
    try:
        trained = train(net, train_windows, run_cfg)
    except NumericalError:
        return math.inf
    predictions = predict_windows(trained, val_windows)
    actual = np.asarray(val_windows.targets, dtype=float)[:, :, 0]
    return mse(predictions.ravel(), actual.ravel())


def inner_validation_split(
    series, lookback: int, horizon: int, val_fraction: float = VAL_FRACTION
) -> tuple[WindowedSamples, WindowedSamples]:
    """Chronological window split of the series at ``1 - val_fraction``
    (see ``split_windows``), a fraction in (0, 1) that ``tune_series``
    checks; both sides must be non-empty."""
    windows = make_windows(series, lookback, horizon)
    too_short = DataError(
        f"series of length {len(series)} cannot supply both fit and "
        f"validation windows at val_fraction {val_fraction}"
    )
    try:
        cut = split_index(len(series), 1.0 - val_fraction)
    except DataError:
        raise too_short from None
    fit, val = split_windows(windows, cut)
    if len(fit) == 0 or len(val) == 0:
        raise too_short
    return fit, val


def tune(
    evaluate,
    algorithm: str,
    params: OptimizerParams,
    space: HyperparamSpace = DEFAULT_SPACE,
    evaluation_budget: int | None = None,
    fits: np.ndarray | None = None,
) -> tuple[dict, OptimizationTrace, list[float]]:
    """Drive a metaheuristic over the grid's unit box.

    ``evaluate`` maps a cell (a dict) to a loss. One rule scores the
    search's populations and the sweep alike: the uncached cells, in
    first-occurrence order, are evaluated once each until
    ``evaluation_budget`` distinct cells have been; a cell past that cut
    scores +inf, while cached cells keep their loss. Only the rows whose
    cell ``fits`` (one bool per cell, see ``fit_mask``; all by default)
    are scored; the others score +inf, unlogged, uncounted and
    uncharged. Whatever the search leaves of a budget sweeps the
    unvisited fitting cells in grid order, so a budget covering them all
    guarantees the exact optimum.

    Returns ``(report, trace, seconds)``: the report.json document
    (``algorithm``, ``best_assignment``, ``best_loss``, ``cache_hits``,
    ``cache_misses`` and the ``evaluation_log`` of ``{"assignment",
    "loss"}`` entries in evaluation order), the optimizer trace and the
    wall seconds of each logged evaluation. The best cell is the log's
    first entry with the lowest loss, NaN counting as +inf; raises
    NumericalError if that loss is not finite.
    """
    if algorithm not in OPTIMIZERS:
        raise ConfigError(f"unknown algorithm {algorithm!r}; pick from {sorted(OPTIMIZERS)}")
    if evaluation_budget is not None and evaluation_budget < 1:
        raise ConfigError("evaluation_budget must be positive")
    fits = np.ones(space.shape, dtype=bool) if fits is None else fits
    log: dict[tuple, dict] = {}  # grid indices -> log entry, in evaluation order
    seconds = []
    hits = 0

    def score(cells: list[tuple]) -> list[float]:
        """One loss per fitting cell (grid indices); a cell the budget cut scores +inf."""
        nonlocal hits
        fresh = [indices for indices in dict.fromkeys(cells) if indices not in log]
        if evaluation_budget is not None:
            fresh = fresh[: evaluation_budget - len(log)]
        for indices in fresh:
            cell = space.cell(indices)
            started = time.perf_counter()
            loss = float(evaluate(cell))
            seconds.append(time.perf_counter() - started)
            log[indices] = {"assignment": cell, "loss": loss}
        hits += sum(indices in log for indices in cells) - len(fresh)
        return [log[indices]["loss"] if indices in log else math.inf for indices in cells]

    def objective(positions):
        rows = decode_position(positions, space)
        losses = np.full(len(rows), math.inf)
        fitting = fits[tuple(rows.T)]
        losses[fitting] = score(list(map(tuple, rows[fitting].tolist())))
        return losses

    _, _, trace = OPTIMIZERS[algorithm](objective, SearchBounds(0.0, 1.0, len(space)), params)
    if evaluation_budget is not None:
        score([indices for indices in map(tuple, np.argwhere(fits).tolist())
               if indices not in log])
    entries = list(log.values())
    best = min(entries, default={"loss": math.inf},
               key=lambda entry: math.inf if math.isnan(entry["loss"]) else entry["loss"])
    if not math.isfinite(best["loss"]):
        raise NumericalError("every evaluation returned NaN or +inf")
    return {
        "algorithm": algorithm,
        "best_assignment": best["assignment"],
        "best_loss": best["loss"],
        "cache_hits": hits,
        "cache_misses": len(entries),
        "evaluation_log": entries,
    }, trace, seconds


def tune_series(
    series,
    algorithm: str,
    params: OptimizerParams,
    space: HyperparamSpace = DEFAULT_SPACE,
    *,
    network: NetworkConfig = NetworkConfig(),
    training: TrainingConfig = TrainingConfig(epochs=FITNESS_EPOCHS),
    lookback: int = LOOKBACK,
    val_fraction: float = VAL_FRACTION,
    global_seed: int = 0,
    surrogate: str | None = None,
    evaluation_budget: int | None = None,
) -> tuple[dict, OptimizationTrace, list[float]]:
    """Tune hyperparameters for one (already scaled) training series.
    Returns ``tune``'s ``(report, trace, seconds)``, the report with the
    run's ``lookback``, ``horizon`` and ``seed`` added.

    Each cell trains under ``cell_configs(cell, network, training,
    global_seed)``; the network template's horizon sets the windows'.
    ``surrogate='hash'`` swaps the real fitness for the deterministic
    pseudo-loss, handy for exercising the search. Either way the series
    must split into windows, the grid must hold no cell that fits
    ``lookback`` but is too large to build (``check_sizes``), and only
    cells that fit ``lookback`` score.
    """
    if not 0.0 < val_fraction < 1.0:
        raise ConfigError("val_fraction must be in (0, 1)")
    fits = fit_mask(space, lookback)
    if not fits.any():
        raise ConfigError(
            f"no cell of the space fits lookback {lookback}: each kernel_size is"
            " wider than it or its pool_size empties the conv output"
        )
    train_windows, val_windows = inner_validation_split(
        series, lookback, network.horizon, val_fraction
    )
    check_sizes(space, replace(network, n_features=train_windows.inputs.shape[2]), lookback)
    if surrogate == "hash":
        evaluate = lambda assignment: surrogate_fitness(assignment, global_seed)
    elif surrogate is None:
        evaluate = lambda assignment: fitness(
            assignment, train_windows, val_windows, network, training, global_seed
        )
    else:
        raise ConfigError(f"unknown surrogate {surrogate!r}")
    report, trace, seconds = tune(evaluate, algorithm, params, space,
                                  evaluation_budget=evaluation_budget, fits=fits)
    run = {"lookback": lookback, "horizon": network.horizon, "seed": global_seed}
    return report | run, trace, seconds


def read_best_assignment(path, lookback: int, horizon: int) -> dict:
    """The best cell of a tune's report.json, checked by ``CELL_RULES``: a
    DataError if malformed, a ConfigError if tuned at another lookback or
    horizon, too wide for the lookback or too large to build, each naming
    the file."""
    report = read_json(path, "tuning report", DataError)
    best = report.get("best_assignment")
    if not isinstance(best, dict):
        raise DataError(f"{path}: missing key 'best_assignment'")
    _check_dimensions(best, DataError, f"{path}: 'best_assignment'")
    check_fields(best, {name: CELL_RULES[name] for name in best}, DataError,
                 "best_assignment", path)
    for key, value in (("lookback", lookback), ("horizon", horizon)):
        if key not in report:
            raise DataError(f"{path}: missing key {key!r}")
        if report[key] != value:
            raise ConfigError(f"{path} was tuned at {key} {report[key]!r}, but train runs"
                              f" at {key} {value}; pass --{key} {report[key]!r}")
    try:
        NetworkConfig(**{name: best[name] for name in ARCHITECTURE_DIMENSIONS}
                      ).validate_for_lookback(lookback)
    except ConfigError as exc:
        raise ConfigError(f"{path}: 'best_assignment' does not fit: {exc}") from None
    return dict(best)
