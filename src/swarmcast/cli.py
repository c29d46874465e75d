"""Command-line front end for reproducible batch runs.

Commands: ingest, tune, train, forecast, evaluate, compare, bench-opt.
Every command resolves its options as defaults < JSON config < explicit
flags and is byte-for-byte reproducible for a fixed seed. A command
returns its artifacts and stdout lines; only once it has succeeded does
``main`` create its output directory, write the artifacts atomically
with a manifest (config hash, seed, versions) last and print the lines,
so a failed run leaves no directory. The default config path can be set
via the SWARMCAST_CONFIG environment variable.

Each option is declared once in ``OPTIONS`` (flag type, choices, help)
and each command once in ``COMMANDS`` (its keys with their defaults);
the argument parsers, the option resolution and the config-file checks
are all built from these two tables.

A run exits 0 on success, with the ``exit_code`` of the toolkit error
that stopped it, or 5 when the host runs out of memory.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import os
import platform
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .errors import ConfigError, DataError, NumericalError, SwarmcastError
from .benchmarks import BENCHMARKS
from .evaluation import ALPHA, CHI2_CRITICAL, compare_methods, metric_report, parse_score_csv
from .fileio import (COUNT_RULE, OBJECT_RULE, canonical_json, check_fields, is_finite,
                     read_json, write_csv_columns, write_json)
from .layers import ACTIVATIONS
from .metaheuristics import OPTIMIZERS, OptimizerParams, SearchBounds
from .network import (
    WEIGHT_OPTIMIZERS,
    NetworkConfig,
    TrainedNetwork,
    TrainingConfig,
    initialize_network,
    iterative_forecast,
    load_model,
    predict_windows,
    save_model,
    train,
)
from .timeseries import (
    LAST_DAY,
    SCALING_RULES,
    ScalingParams,
    apply_scale,
    csv_variables,
    impute_missing,
    inverse_scale,
    iso_day,
    iso_days,
    load_csv,
    make_windows,
    minmax_scale,
    read_packed,
    split_index,
    split_windows,
    write_packed,
)
from .tuning import (
    ARCHITECTURE_DIMENSIONS,
    DEFAULT_SPACE,
    EXTENDED_SPACE,
    FITNESS_EPOCHS,
    LOOKBACK,
    VAL_FRACTION,
    cell_configs,
    read_best_assignment,
    space_from_json,
    tune_series,
)

# the options that fill a run's network and training templates
NETWORK_RECIPE = ("horizon", "repeat_steps", "conv_activation")
TRAINING_RECIPE = ("learning_rate", "optimizer")

CONFIG_ENV_VAR = "SWARMCAST_CONFIG"

# may differ between same-seed runs: argv paths and versions, the wall clock
VOLATILE_FILES = frozenset({"manifest.json", "timings.csv"})


class Option(NamedTuple):
    """One option key. Its flag is ``--key-with-dashes``; a config-file
    value goes through the flag's ``type`` and ``choices`` too, unless
    the key is ``free_form``. A key without a ``flag`` is config-only."""

    type: type = str
    help: str | None = None
    choices: tuple | None = None
    flag: bool = True
    free_form: bool = False


OPTIONS = {
    "seed": Option(int, "global seed"),
    "output_root": Option(help="parent of the config-hashed output directory"),
    "output_dir": Option(help="exact output directory (overrides --output-root)"),
    "data": Option(help="daily-series CSV"),
    "date_column": Option(help="name of the ISO-date column"),
    "variables": Option(help="comma-separated variable columns", free_form=True),
    "region": Option(help="region id recorded with the dataset"),
    "split_ratio": Option(float, "share of rows in the training split"),
    "data_dir": Option(help="ingest artifact directory"),
    "variable": Option(help="variable to model (default: the artifact's first)"),
    "algorithm": Option(help="search algorithm", choices=tuple(sorted(OPTIMIZERS))),
    "population": Option(int, "population size"),
    "iterations": Option(int, "search iterations"),
    "lookback": Option(int, "input window length in days"),
    "horizon": Option(int, "days predicted per window"),
    "val_fraction": Option(float, "share of the training split held out for fitness"),
    "fitness_epochs": Option(int, "training epochs per fitness evaluation"),
    "learning_rate": Option(float, "optimizer step size"),
    "optimizer": Option(help="weight optimizer", choices=tuple(WEIGHT_OPTIMIZERS)),
    "repeat_steps": Option(int, "LSTM steps fed the repeated conv features"),
    "conv_activation": Option(help="convolution activation", choices=tuple(ACTIVATIONS)),
    "surrogate": Option(help="replace fitness by a hash pseudo-loss", choices=("hash",)),
    "extended_space": Option(bool, "add learning_rate and epochs to the grid"),
    "space": Option(flag=False, free_form=True),
    "evaluation_budget": Option(int, "cap on distinct cell evaluations"),
    "from_tuning": Option(help="tuning report.json whose best assignment to train"),
    "n_filters": Option(int, "convolution filters"),
    "kernel_size": Option(int, "convolution kernel length"),
    "pool_size": Option(int, "max-pool width"),
    "lstm_units": Option(int, "LSTM hidden units"),
    "epochs": Option(int, "training epochs"),
    "model": Option(help="model.json written by train"),
    "steps": Option(int, "days to forecast"),
    "scores": Option(help="CSV: test name column then one column per method"),
    "alpha": Option(float, "significance level", choices=tuple(sorted(CHI2_CRITICAL))),
    "q": Option(float, "override the studentized-range constant"),
    "function": Option(help="benchmark function", choices=tuple(sorted(BENCHMARKS))),
    "dimension": Option(int, "benchmark dimension"),
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _load_config_file(path: str | None) -> dict:
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR)
    if path is None:
        return {}
    return read_json(path, "config", ConfigError)


def _config_value(key: str, value, default):
    """A config-file value, checked and converted as its flag's argument is."""
    option = OPTIONS[key]
    if option.free_form or (value is None and default is None):
        return value
    if option.type is bool:
        ok = isinstance(value, bool)
    else:
        # a JSON number or string; an int option refuses to truncate a fraction
        ok = isinstance(value, (int, float, str)) and not isinstance(value, bool)
        if option.type is int and isinstance(value, float):
            ok = value.is_integer()
        if ok:
            try:
                value = option.type(value)
            except ValueError:
                ok = False
    if not ok:
        raise ConfigError(f"config {key!r} must be {option.type.__name__}, got {value!r}")
    if option.choices and value not in option.choices:
        raise ConfigError(
            f"config {key!r} must be one of {', '.join(map(str, option.choices))}, got {value!r}"
        )
    return value


def resolve_options(args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags, for the keys of ``args.command``.

    One config file serves every command, so a key no command knows is a
    ConfigError while another command's key is accepted and left alone.
    Values for this command's keys pass the same type and choices checks
    as its flags, and its required keys must end up set.
    """
    command = COMMANDS[args.command]
    config = _load_config_file(args.config)
    unknown = sorted(set(config) - set(OPTIONS))
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    resolved = {}
    for key, default in command.defaults.items():
        value = _config_value(key, config[key], default) if key in config else default
        flag = getattr(args, key, None)
        resolved[key] = value if flag is None else flag
    for key in command.required:
        if not resolved[key]:
            raise ConfigError(f"{args.command} needs {_flag(key)} (or a {key!r} config entry)")
    return resolved


def prepare_output_dir(command: str, options: dict) -> tuple[Path, dict]:
    """Pick the output directory, without creating it, and build the
    manifest for this run."""
    hashed = {k: v for k, v in options.items() if k != "output_dir"}
    digest = hashlib.sha256(canonical_json(hashed).encode("utf-8")).hexdigest()
    if options.get("output_dir"):
        out_dir = Path(options["output_dir"])
    else:
        out_dir = Path(options["output_root"]) / f"{command}-{digest[:12]}"
    manifest = {
        "command": command,
        "config": hashed,
        "config_sha256": digest,
        "seed": options.get("seed"),
        "versions": {
            "swarmcast": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }
    return out_dir, manifest


def _parse_variables(raw) -> dict[str, str] | None:
    if raw is None:
        return None
    if isinstance(raw, dict):
        return {str(k): str(v) for k, v in raw.items()}
    if isinstance(raw, str):
        raw = [name.strip() for name in raw.split(",") if name.strip()]
    if not isinstance(raw, list) or not all(isinstance(name, str) for name in raw):
        raise ConfigError(
            "config 'variables' must be a comma-separated string, a list of column"
            f" names or a name -> column object, got {raw!r}"
        )
    return {name: name for name in raw}


# ---------------------------------------------------------------- ingest

def cmd_ingest(options, out_dir: Path):
    ratio = options["split_ratio"]
    columns = _parse_variables(options["variables"])
    days, variables = load_csv(
        options["data"], date_column=options["date_column"], variable_columns=columns
    )
    if "date" in variables:  # dataset.csv's date column
        raise DataError(f"{options['data']}: variable 'date' would repeat dataset.csv's"
                        " date column; rename it")
    n = len(days)
    cut = split_index(n, ratio)

    table = [iso_days(days)]  # dataset.csv's columns: each day, then each scaled variable
    scaled = np.empty((len(variables), n))  # dataset.f8's values, the same floats
    variable_meta = {}
    for row, (name, raw) in zip(scaled, variables.items()):
        column = columns[name] if columns else name
        try:
            filled = impute_missing(raw)
        except DataError as exc:
            raise DataError(f"{options['data']}: column {column!r}: {exc}") from None
        with np.errstate(over="ignore", invalid="ignore"):  # a span past float64, refused below
            _, params = minmax_scale(filled[:cut])
            row[:] = apply_scale(filled, params)
        bad = np.flatnonzero(~np.isfinite(row))
        if len(bad):
            raise DataError(f"{options['data']}: column {column!r}: the value on"
                            f" {iso_day(days[bad[0]])} scales to {row[bad[0]]},"
                            " not a finite number")
        table.append(list(map(repr, row.tolist())))
        variable_meta[name] = {
            "minimum": params.minimum,
            "maximum": params.maximum,
            "degenerate": params.degenerate,
            "imputed": int(np.isnan(raw).sum()),
        }

    region = options["region"]
    return {
        "dataset.csv": (["date", *variables], table),
        "dataset.f8": scaled,
        "scaling.json": {
            "region_id": Path(options["data"]).stem if region is None else region,
            "n_rows": n,
            "split_ratio": ratio,
            "split_index": cut,
            "variables": variable_meta,
        },
    }, [
        f"rows: {n} ({iso_day(days[0])} .. {iso_day(days[-1])})",
        f"imputed: {sum(meta['imputed'] for meta in variable_meta.values())}",
        f"split: train {cut} / test {n - cut}",
        f"artifact: {out_dir}",
    ]


def read_artifact(data_dir, variable: str | None) -> dict:
    """Load one variable of an ingest artifact back into memory (scaled
    values): ``variable``, or the first column when it is None.

    Every variable's scaling entry is checked and ``split_ratio`` must split
    ``n_rows`` at ``split_index``. The target's values come from dataset.f8
    while its digest proves it the pair of dataset.csv; otherwise only the
    target's column of dataset.csv is parsed. Either way there must be a
    value for each of ``n_rows`` days, and each training day's must lie in
    [0, 1], where ingest scaled them.
    """
    data_dir = Path(data_dir)
    scaling_path = data_dir / "scaling.json"
    dataset_path = data_dir / "dataset.csv"
    if not scaling_path.exists() or not dataset_path.exists():
        raise DataError(f"{data_dir} is not an ingest artifact")
    meta = read_json(scaling_path, "scaling file", DataError)
    check_fields(meta, {"split_index": COUNT_RULE, "n_rows": COUNT_RULE,
                        "split_ratio": (is_finite, "a finite number"), "variables": OBJECT_RULE},
                 DataError, "", scaling_path)
    cut, ratio = meta["split_index"], meta["split_ratio"]
    try:  # the split that ingest makes, which leaves rows on both sides
        agrees = split_index(meta["n_rows"], ratio) == cut
    except SwarmcastError:  # a ratio outside (0, 1), or one that empties a side
        agrees = False
    if not agrees:
        raise DataError(f"{scaling_path}: 'split_ratio' {ratio!r} does not split 'n_rows'"
                        f" {meta['n_rows']} at 'split_index' {cut}")
    names = csv_variables(dataset_path)
    scaling = {}
    for name in names:
        entry = meta["variables"].get(name)
        check_fields(entry, SCALING_RULES, DataError, f"variables.{name}", scaling_path)
        try:
            params = scaling[name] = ScalingParams(entry["minimum"], entry["maximum"])
        except DataError as exc:
            raise DataError(f"{scaling_path}: 'variables.{name}' has {exc}") from None
        # the recorded flag must be the bool that the bounds determine
        flag = (lambda value: value is params.degenerate,
                f"{params.degenerate} (minimum == maximum)")
        check_fields(entry, {"degenerate": flag}, DataError, f"variables.{name}", scaling_path)
    name = variable or names[0]
    if name not in names:
        raise ConfigError(f"unknown variable {name!r}; artifact has {names}")
    days, variables = (read_packed(dataset_path, names, name, meta["n_rows"])
                       or load_csv(dataset_path, variable_columns={name: name}))
    # ingest writes every day with a value, so a gap means a damaged file
    missing = np.flatnonzero(np.isnan(variables[name]))
    if missing.size:
        raise DataError(f"{dataset_path}: variable {name!r} has no value on"
                        f" {iso_day(days[missing[0]])}")
    # ... and a deleted first or last day shows only in the count
    if meta["n_rows"] != len(days):
        raise DataError(f"{scaling_path}: 'n_rows' is {meta['n_rows']}, but {dataset_path}"
                        f" has {len(days)} days")
    # ingest scales the training days by their own minimum and maximum
    training = variables[name][:cut]
    outside = np.flatnonzero((training < 0.0) | (training > 1.0))
    if outside.size:
        raise DataError(f"{dataset_path}: variable {name!r} is {float(training[outside[0]])!r}"
                        f" on training day {iso_day(days[outside[0]])}, outside [0, 1]")
    return {
        "days": days,
        "meta": meta,
        "name": name,
        "series": variables[name],
        "scaling": scaling[name],
    }


# ------------------------------------------------------------------ tune

def _templates(options, epochs: int) -> tuple[NetworkConfig, TrainingConfig]:
    """The run's network and training templates, which ``cell_configs``
    fills in with each cell's values."""
    network = NetworkConfig(**{key: options[key] for key in NETWORK_RECIPE})
    training = TrainingConfig(epochs=epochs, **{key: options[key] for key in TRAINING_RECIPE})
    return network, training


def _optimizer_params(options) -> OptimizerParams:
    return OptimizerParams(population_size=options["population"],
                           max_iterations=options["iterations"], seed=options["seed"])


def _trace_table(trace) -> tuple[list, list]:
    """A search's best fitness after each iteration, as a CSV table."""
    fitness = trace.best_fitness_per_iteration
    return ["iteration", "best_fitness"], [list(map(str, range(len(fitness)))),
                                           list(map(repr, fitness))]


def cmd_tune(options, out_dir: Path):
    artifact = read_artifact(options["data_dir"], options["variable"])
    name, series = artifact["name"], artifact["series"]
    cut = artifact["meta"]["split_index"]
    if options["space"] is not None:
        if options["extended_space"]:
            raise ConfigError("config 'space' and 'extended_space' both set the grid; drop one")
        space = space_from_json(options["space"])
    else:
        space = EXTENDED_SPACE if options["extended_space"] else DEFAULT_SPACE
    network, training = _templates(options, options["fitness_epochs"])

    report, trace, seconds = tune_series(
        series[:cut],
        options["algorithm"],
        _optimizer_params(options),
        space,
        network=network,
        training=training,
        lookback=options["lookback"],
        val_fraction=options["val_fraction"],
        global_seed=options["seed"],
        surrogate=options["surrogate"],
        evaluation_budget=options["evaluation_budget"],
    )

    # wall times go to a side file so the report stays byte-reproducible
    return {
        "report.json": report | {"variable": name},
        "trace.csv": _trace_table(trace),
        "timings.csv": (
            ["evaluation", "wall_time_seconds"],
            [list(map(str, range(len(seconds)))), [f"{wall:.6f}" for wall in seconds]],
        ),
    }, [
        f"best assignment: {report['best_assignment']}",
        f"best loss: {report['best_loss']}",
        f"report: {out_dir / 'report.json'}",
    ]


# ----------------------------------------------------------------- train

def cmd_train(options, out_dir: Path):
    artifact = read_artifact(options["data_dir"], options["variable"])
    name, series = artifact["name"], artifact["series"]
    cut = artifact["meta"]["split_index"]
    if options["from_tuning"]:
        values = read_best_assignment(options["from_tuning"], options["lookback"],
                                      options["horizon"])
    else:
        values = {key: options[key] for key in ARCHITECTURE_DIMENSIONS}
    config, training_cfg = cell_configs(
        values, *_templates(options, options["epochs"]), options["seed"]
    )
    windows = make_windows(series[:cut], options["lookback"], config.horizon)
    net = initialize_network(config, options["lookback"])
    [trained] = train([net], windows, [training_cfg])
    if isinstance(trained, NumericalError):
        raise trained

    return {"model.json": trained}, [
        f"variable: {name}",
        f"assignment: {values}",
        f"final epoch mse: {trained.loss_history[-1]}",
        f"model: {out_dir / 'model.json'}",
    ]


# -------------------------------------------------------------- forecast

def cmd_forecast(options, out_dir: Path):
    steps = options["steps"]
    net = load_model(options["model"])
    artifact = read_artifact(options["data_dir"], options["variable"])
    name, series, params = artifact["name"], artifact["series"], artifact["scaling"]

    last = artifact["days"][-1]
    fit = LAST_DAY - last
    if steps > fit:
        raise ConfigError(f"--steps {steps} runs past {iso_day(LAST_DAY)}: the artifact's"
                          f" last day is {iso_day(last)}, so at most {fit} steps fit")

    values = iterative_forecast(net, series, steps, params)
    dates = iso_days(range(last + 1, last + 1 + steps))
    return {"forecast.csv": (["date", "predicted"], [dates, list(map(repr, values.tolist()))])}, [
        f"variable: {name}",
        f"forecast: {out_dir / 'forecast.csv'} ({steps} steps)",
    ]


# -------------------------------------------------------------- evaluate

def cmd_evaluate(options, out_dir: Path):
    net = load_model(options["model"])
    artifact = read_artifact(options["data_dir"], options["variable"])
    name, series, params = artifact["name"], artifact["series"], artifact["scaling"]
    cut = artifact["meta"]["split_index"]
    lookback, horizon = net.lookback, net.config.horizon

    windows = make_windows(series, lookback, horizon)
    _, test_windows = split_windows(windows, cut)
    if len(test_windows) == 0:
        raise DataError("test segment too short for the model's lookback/horizon")
    offset = len(windows) - len(test_windows)
    predicted = predict_windows(net, test_windows)
    actual = test_windows.targets[:, :, 0]

    scaled_report = metric_report(predicted.ravel(), actual.ravel())
    predicted_units = inverse_scale(predicted.ravel(), params)
    actual_units = inverse_scale(actual.ravel(), params)
    units_report = metric_report(predicted_units, actual_units)

    # window i's step s predicts the day s after its first target day
    n = len(test_windows)
    first = artifact["days"][offset + lookback]
    dates = iso_days(range(first, first + n + horizon - 1))
    columns = [
        [dates[i + step] for i in range(n) for step in range(horizon)],
        list(map(str, range(1, horizon + 1))) * n,
        list(map(repr, actual_units.tolist())),
        list(map(repr, predicted_units.tolist())),
    ]

    return {
        "metrics.json": {
            "variable": name,
            "n_windows": len(test_windows),
            "scaled": scaled_report,
            "original_units": units_report,
        },
        "predictions.csv": (["date", "step", "actual", "predicted"], columns),
    }, [
        f"variable: {name}",
        f"test mse (scaled): {scaled_report['mse']}",
        f"metrics: {out_dir / 'metrics.json'}",
    ]


# --------------------------------------------------------------- compare

def cmd_compare(options, out_dir: Path):
    methods, matrix = parse_score_csv(options["scores"])
    doc = compare_methods(matrix, methods=methods, alpha=options["alpha"], q=options["q"])
    return {
        "comparison.json": doc,
        "cd_diagram.csv": (
            ["method", "average_rank"],
            [doc["methods"], list(map(repr, doc["average_ranks"]))],
        ),
    }, [
        f"friedman statistic: {doc['friedman_statistic']}",
        f"critical value (chi-square, alpha={doc['alpha']}): {doc['critical_value']}",
        f"null rejected: {doc['null_rejected']}",
        f"critical difference: {doc['cd']}",
        f"comparison: {out_dir / 'comparison.json'}",
    ]


# -------------------------------------------------------------- bench-opt

def cmd_bench_opt(options, out_dir: Path):
    name = options["function"]
    algorithm = options["algorithm"]
    objective, (low, high) = BENCHMARKS[name]
    bounds = SearchBounds(low, high, options["dimension"])
    params = _optimizer_params(options)
    position, fitness_value, trace = OPTIMIZERS[algorithm](objective, bounds, params)

    return {
        "result.json": {
            "function": name,
            "algorithm": algorithm,
            "dimension": options["dimension"],
            "best_fitness": fitness_value,
            "best_position": [float(v) for v in position],
            "evaluations": params.population_size * (params.max_iterations + 1),
            "gwo_iterations": trace.gwo_iterations,
            "woa_iterations": trace.woa_iterations,
        },
        "trace.csv": _trace_table(trace),
    }, [
        f"{name} d={options['dimension']} via {algorithm}: best {fitness_value}",
        f"result: {out_dir / 'result.json'}",
    ]


# ------------------------------------------------------- command table

class Command(NamedTuple):
    """A subcommand: its keys with their defaults, and the keys it needs set.
    ``run(options, out_dir)`` returns its artifacts (file name -> JSON
    object, CSV ``(header, columns)`` of str cells, ``TrainedNetwork`` or
    a float64 array packed beside the CSV written before it) and stdout lines."""

    run: Callable[[dict, Path], tuple[dict, list[str]]]
    help: str
    defaults: dict
    required: tuple[str, ...] = ()


OUTPUT_DEFAULTS = {"output_root": "runs", "output_dir": None}
_NETWORK, _TRAINING = NetworkConfig(), TrainingConfig()
RECIPE_DEFAULTS = {key: getattr(_NETWORK, key) for key in NETWORK_RECIPE} | {
    key: getattr(_TRAINING, key) for key in TRAINING_RECIPE
}

COMMANDS = {
    "ingest": Command(cmd_ingest, "clean, impute, scale and split a CSV", {
        "data": None, "date_column": "date", "variables": None, "region": None,
        "split_ratio": 0.8,
    } | OUTPUT_DEFAULTS, required=("data",)),
    "tune": Command(cmd_tune, "search hyperparameters for one variable", {
        "data_dir": None, "variable": None,
        "algorithm": "rs-gwo-woa", "population": 10, "iterations": 10, "seed": 0,
        "lookback": LOOKBACK, "val_fraction": VAL_FRACTION, "fitness_epochs": FITNESS_EPOCHS,
        "surrogate": None, "extended_space": False, "space": None, "evaluation_budget": None,
    } | RECIPE_DEFAULTS | OUTPUT_DEFAULTS, required=("data_dir",)),
    "train": Command(cmd_train, "train the final model at full epochs", {
        "data_dir": None, "variable": None, "from_tuning": None,
        **{key: getattr(_NETWORK, key) for key in ARCHITECTURE_DIMENSIONS},
        "lookback": LOOKBACK, "epochs": _TRAINING.epochs, "seed": 0,
    } | RECIPE_DEFAULTS | OUTPUT_DEFAULTS, required=("data_dir",)),
    "forecast": Command(cmd_forecast, "recursive multi-step forecast from a model", {
        "data_dir": None, "model": None, "variable": None, "steps": 7,
    } | OUTPUT_DEFAULTS, required=("model", "data_dir")),
    "evaluate": Command(cmd_evaluate, "score a model on the held-out test segment", {
        "data_dir": None, "model": None, "variable": None,
    } | OUTPUT_DEFAULTS, required=("model", "data_dir")),
    "compare": Command(cmd_compare, "Friedman + critical-difference comparison", {
        "scores": None, "alpha": ALPHA, "q": None,
    } | OUTPUT_DEFAULTS, required=("scores",)),
    "bench-opt": Command(cmd_bench_opt, "run an optimizer on a benchmark function", {
        "function": "sphere", "algorithm": "rs-gwo-woa", "dimension": 5,
        "population": OptimizerParams.population_size,
        "iterations": OptimizerParams.max_iterations, "seed": 0,
    } | OUTPUT_DEFAULTS),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser for ``COMMANDS``, built once: parsing keeps no state."""
    parser = argparse.ArgumentParser(
        prog="swarmcast",
        description="Daily series forecasting with a conv-LSTM tuned by swarm search",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", help="JSON config file (flags win over it)")
        for key in command.defaults:
            option = OPTIONS[key]
            if not option.flag:
                continue
            if option.type is bool:
                p.add_argument(_flag(key), dest=key, action="store_const", const=True,
                               help=option.help)
            else:
                p.add_argument(_flag(key), dest=key, type=option.type,
                               choices=option.choices, help=option.help)
    return parser


def run_command(name: str, options: dict) -> int:
    """Run a command; only then create its output directory, write its
    artifacts in order, each by its type's writer, and the manifest last,
    and print its lines. A command that fails leaves no directory."""
    out_dir, manifest = prepare_output_dir(name, options)
    artifacts, lines = COMMANDS[name].run(options, out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for filename, value in (artifacts | {"manifest.json": manifest}).items():
        if isinstance(value, TrainedNetwork):
            save_model(value, out_dir / filename)
        elif isinstance(value, tuple):
            write_csv_columns(out_dir / filename, *value)
        elif isinstance(value, np.ndarray):  # the packed values of the CSV written before
            write_packed(out_dir / filename, value)
        else:
            write_json(out_dir / filename, value)
    print(*lines, sep="\n")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run_command(args.command, resolve_options(args))
    except SwarmcastError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except MemoryError as exc:  # a network below the size bound that this host cannot hold
        print(f"memory error: {exc or 'out of memory'}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
