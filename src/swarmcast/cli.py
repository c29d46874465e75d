"""Command-line front end for reproducible batch runs.

Commands: ingest, tune, train, forecast, evaluate, compare, bench-opt.
Every command resolves its options as defaults < JSON config < explicit
flags, writes its artifacts under one output directory together with a
manifest (config hash, seed, versions), and is byte-for-byte
reproducible for a fixed seed. The default config path can be set via
the SWARMCAST_CONFIG environment variable.

Each option is declared once in ``OPTIONS`` (flag type, choices, help)
and each command once in ``COMMANDS`` (its keys with their defaults);
the argument parsers, the option resolution and the config-file checks
are all built from these two tables.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
divergence or a degenerate objective.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import sys
from dataclasses import asdict
from datetime import timedelta
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .errors import (
    ConfigError,
    DataError,
    DegenerateObjectiveError,
    DivergedError,
    SwarmcastError,
)
from .benchmarks import BENCHMARKS
from .evaluation import compare_methods, metric_report, parse_score_csv
from .fileio import atomic_writer
from .metaheuristics import OPTIMIZERS, OptimizerParams, SearchBounds
from .network import (
    initialize_network,
    iterative_forecast,
    load_model,
    predict_windows,
    save_model,
    train,
)
from .timeseries import (
    ScalingParams,
    apply_scale,
    impute_missing,
    inverse_scale,
    load_csv,
    make_windows,
    minmax_scale,
    split_windows,
)
from .tuning import (
    DEFAULT_SPACE,
    EXTENDED_SPACE,
    HyperparamAssignment,
    HyperparamSpace,
    cell_configs,
    tune_series,
)

ARCHITECTURE_DIMENSIONS = ("n_filters", "kernel_size", "pool_size", "lstm_units")

CONFIG_ENV_VAR = "SWARMCAST_CONFIG"


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
    "optimizer": Option(help="weight optimizer", choices=("adam", "sgd")),
    "repeat_steps": Option(int, "LSTM steps fed the repeated conv features"),
    "conv_activation": Option(help="convolution activation", choices=("relu", "tanh")),
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
    "alpha": Option(float, "significance level"),
    "q": Option(float, "override the studentized-range constant"),
    "function": Option(help="benchmark function", choices=tuple(sorted(BENCHMARKS))),
    "dimension": Option(int, "benchmark dimension"),
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_json(path: Path, obj) -> None:
    with atomic_writer(path) as fh:
        fh.write(canonical_json(obj))


def write_csv_rows(path: Path, header, rows) -> None:
    with atomic_writer(path, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _load_config_file(path: str | None) -> dict:
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR)
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return doc


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
            f"config {key!r} must be one of {', '.join(option.choices)}, got {value!r}"
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
    """Pick the output directory and build the manifest for this run."""
    hashed = {k: v for k, v in options.items() if k != "output_dir"}
    digest = hashlib.sha256(canonical_json(hashed).encode("utf-8")).hexdigest()
    if options.get("output_dir"):
        out_dir = Path(options["output_dir"])
    else:
        out_dir = Path(options.get("output_root", "runs")) / f"{command}-{digest[:12]}"
    out_dir.mkdir(parents=True, exist_ok=True)
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

def cmd_ingest(options) -> int:
    ratio = options["split_ratio"]
    if not 0.0 < ratio < 1.0:
        raise ConfigError(f"split_ratio must be in (0, 1), got {ratio}")

    dataset = load_csv(
        options["data"],
        date_column=options["date_column"],
        variable_columns=_parse_variables(options["variables"]),
        region_id=options["region"],
    )
    n = len(dataset)
    cut = math.floor(ratio * n)
    if cut < 1 or cut >= n:
        raise DataError(f"split_ratio {ratio} leaves an empty split for {n} rows")

    out_dir, manifest = prepare_output_dir("ingest", options)
    scaled = {}
    variable_meta = {}
    total_imputed = 0
    for name in dataset.variable_names:
        raw = dataset.series(name)
        missing = int(np.isnan(raw).sum())
        total_imputed += missing
        filled = impute_missing(raw)
        _, params = minmax_scale(filled[:cut])
        scaled[name] = apply_scale(filled, params)
        variable_meta[name] = {
            "minimum": params.minimum,
            "maximum": params.maximum,
            "degenerate": params.degenerate,
            "imputed": missing,
        }

    names = dataset.variable_names
    rows = [
        [day.isoformat()] + [repr(float(scaled[name][i])) for name in names]
        for i, day in enumerate(dataset.dates)
    ]
    write_csv_rows(out_dir / "dataset.csv", ["date"] + names, rows)
    write_json(out_dir / "scaling.json", {
        "region_id": dataset.region_id,
        "n_rows": n,
        "split_ratio": ratio,
        "split_index": cut,
        "variables": variable_meta,
    })
    write_json(out_dir / "manifest.json", manifest)

    print(f"rows: {n} ({dataset.dates[0]} .. {dataset.dates[-1]})")
    print(f"imputed: {total_imputed}")
    print(f"split: train {cut} / test {n - cut}")
    print(f"artifact: {out_dir}")
    return 0


def read_artifact(data_dir) -> dict:
    """Load an ingest artifact back into memory (scaled values)."""
    data_dir = Path(data_dir)
    scaling_path = data_dir / "scaling.json"
    dataset_path = data_dir / "dataset.csv"
    if not scaling_path.exists() or not dataset_path.exists():
        raise DataError(f"{data_dir} is not an ingest artifact")
    meta = json.loads(scaling_path.read_text(encoding="utf-8"))
    dataset = load_csv(dataset_path, region_id=meta.get("region_id"))
    return {
        "dates": dataset.dates,
        "variables": {name: dataset.series(name) for name in dataset.variable_names},
        "meta": meta,
    }


def _target_series(artifact: dict, variable: str | None) -> tuple[str, np.ndarray, ScalingParams]:
    names = list(artifact["variables"])
    name = variable or names[0]
    if name not in artifact["variables"]:
        raise ConfigError(f"unknown variable {name!r}; artifact has {names}")
    var_meta = artifact["meta"]["variables"][name]
    params = ScalingParams(
        var_meta["minimum"], var_meta["maximum"], degenerate=var_meta["degenerate"]
    )
    return name, artifact["variables"][name], params


# ------------------------------------------------------------------ tune

def _resolve_space(options) -> HyperparamSpace:
    override = options["space"]
    if override is None:
        return EXTENDED_SPACE if options["extended_space"] else DEFAULT_SPACE
    if not isinstance(override, dict) or not override:
        raise ConfigError("config 'space' must map dimension name -> candidate list")
    missing = [d for d in ARCHITECTURE_DIMENSIONS if d not in override]
    if missing:
        raise ConfigError(f"custom space must keep the architecture dimensions; missing {missing}")
    for name, values in override.items():
        if not isinstance(values, list):
            raise ConfigError(f"config 'space' dimension {name!r} must be a list, got {values!r}")
    return HyperparamSpace(
        tuple((name, tuple(values)) for name, values in override.items())
    )


def cmd_tune(options) -> int:
    artifact = read_artifact(options["data_dir"])
    name, series, _ = _target_series(artifact, options["variable"])
    cut = artifact["meta"]["split_index"]
    space = _resolve_space(options)

    params = OptimizerParams(
        population_size=options["population"],
        max_iterations=options["iterations"],
        seed=options["seed"],
    )
    result = tune_series(
        series[:cut],
        options["algorithm"],
        params,
        space,
        lookback=options["lookback"],
        horizon=options["horizon"],
        val_fraction=options["val_fraction"],
        fitness_epochs=options["fitness_epochs"],
        global_seed=options["seed"],
        repeat_steps=options["repeat_steps"],
        conv_activation=options["conv_activation"],
        learning_rate=options["learning_rate"],
        optimizer=options["optimizer"],
        surrogate=options["surrogate"],
        evaluation_budget=options["evaluation_budget"],
    )

    out_dir, manifest = prepare_output_dir("tune", options)
    # wall times go to a side file so the report stays byte-reproducible
    write_json(out_dir / "report.json", {
        "algorithm": result.algorithm,
        "variable": name,
        "best_assignment": result.best_assignment.values,
        "best_loss": result.best_loss,
        "cache_hits": result.cache_hits,
        "cache_misses": result.cache_misses,
        "evaluation_log": [
            {"assignment": record.values, "loss": record.loss}
            for record in result.records
        ],
        "lookback": options["lookback"],
        "horizon": options["horizon"],
        "seed": options["seed"],
    })
    write_csv_rows(
        out_dir / "trace.csv",
        ["iteration", "best_fitness"],
        [[i, repr(v)] for i, v in enumerate(result.trace.best_fitness_per_iteration)],
    )
    write_csv_rows(
        out_dir / "timings.csv",
        ["evaluation", "wall_time_seconds"],
        [[i, f"{record.wall_time:.6f}"] for i, record in enumerate(result.records)],
    )
    write_json(out_dir / "manifest.json", manifest)
    print(f"best assignment: {result.best_assignment.values}")
    print(f"best loss: {result.best_loss}")
    print(f"report: {out_dir / 'report.json'}")
    return 0


# ----------------------------------------------------------------- train

def _assignment_from_options(options) -> dict:
    if options["from_tuning"]:
        try:
            report = json.loads(Path(options["from_tuning"]).read_text(encoding="utf-8"))
        except OSError as exc:
            raise DataError(f"cannot read tuning report: {exc}") from exc
        return dict(report["best_assignment"])
    return {key: options[key] for key in ARCHITECTURE_DIMENSIONS}


def cmd_train(options) -> int:
    artifact = read_artifact(options["data_dir"])
    name, series, _ = _target_series(artifact, options["variable"])
    cut = artifact["meta"]["split_index"]
    values = _assignment_from_options(options)
    config, training_cfg = cell_configs(
        HyperparamAssignment(values),
        options["seed"],
        epochs=options["epochs"],
        learning_rate=options["learning_rate"],
        optimizer=options["optimizer"],
        horizon=options["horizon"],
        repeat_steps=options["repeat_steps"],
        conv_activation=options["conv_activation"],
    )
    windows = make_windows(series[:cut], options["lookback"], config.horizon)
    net = initialize_network(config, options["lookback"])
    trained = train(net, windows, training_cfg)

    out_dir, manifest = prepare_output_dir("train", options)
    save_model(trained, out_dir / "model.json")
    write_json(out_dir / "manifest.json", manifest)
    print(f"variable: {name}")
    print(f"assignment: {values}")
    print(f"final epoch mse: {trained.loss_history[-1]}")
    print(f"model: {out_dir / 'model.json'}")
    return 0


# -------------------------------------------------------------- forecast

def cmd_forecast(options) -> int:
    steps = options["steps"]
    if steps < 1:
        raise ConfigError("steps must be at least 1")
    model_path = Path(options["model"])
    if not model_path.exists():
        raise DataError(f"model file {model_path} does not exist")
    net = load_model(model_path)
    artifact = read_artifact(options["data_dir"])
    name, series, params = _target_series(artifact, options["variable"])

    values = iterative_forecast(net, series, steps, params)
    last_day = artifact["dates"][-1]
    rows = [
        [(last_day + timedelta(days=i + 1)).isoformat(), repr(float(v))]
        for i, v in enumerate(values)
    ]
    out_dir, manifest = prepare_output_dir("forecast", options)
    write_csv_rows(out_dir / "forecast.csv", ["date", "predicted"], rows)
    write_json(out_dir / "manifest.json", manifest)
    print(f"variable: {name}")
    print(f"forecast: {out_dir / 'forecast.csv'} ({steps} steps)")
    return 0


# -------------------------------------------------------------- evaluate

def cmd_evaluate(options) -> int:
    net = load_model(options["model"])
    artifact = read_artifact(options["data_dir"])
    name, series, params = _target_series(artifact, options["variable"])
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

    rows = []
    for i, (actual_value, predicted_value) in enumerate(
        zip(actual_units.tolist(), predicted_units.tolist())
    ):
        row, step = divmod(i, horizon)
        day = artifact["dates"][offset + row + lookback + step]
        rows.append([day.isoformat(), step + 1, repr(actual_value), repr(predicted_value)])

    out_dir, manifest = prepare_output_dir("evaluate", options)
    write_json(out_dir / "metrics.json", {
        "variable": name,
        "n_windows": len(test_windows),
        "scaled": asdict(scaled_report),
        "original_units": asdict(units_report),
    })
    write_csv_rows(out_dir / "predictions.csv", ["date", "step", "actual", "predicted"], rows)
    write_json(out_dir / "manifest.json", manifest)
    print(f"variable: {name}")
    print(f"test mse (scaled): {scaled_report.mse}")
    print(f"metrics: {out_dir / 'metrics.json'}")
    return 0


# --------------------------------------------------------------- compare

def cmd_compare(options) -> int:
    tests, methods, matrix = parse_score_csv(options["scores"])
    result = compare_methods(
        matrix,
        methods=methods,
        tests=tests,
        alpha=options["alpha"],
        q=options["q"],
    )
    out_dir, manifest = prepare_output_dir("compare", options)
    write_json(out_dir / "comparison.json", result.to_dict())
    write_csv_rows(
        out_dir / "cd_diagram.csv",
        ["method", "average_rank"],
        [[m, repr(float(r))] for m, r in zip(result.methods, result.average_ranks)],
    )
    write_json(out_dir / "manifest.json", manifest)
    print(f"friedman statistic: {result.friedman.statistic}")
    print(f"critical value (chi-square, alpha={result.friedman.alpha}): "
          f"{result.friedman.critical_value}")
    print(f"null rejected: {result.friedman.reject}")
    print(f"critical difference: {result.cd}")
    print(f"comparison: {out_dir / 'comparison.json'}")
    return 0


# -------------------------------------------------------------- bench-opt

def cmd_bench_opt(options) -> int:
    name = options["function"]
    algorithm = options["algorithm"]
    objective, (low, high) = BENCHMARKS[name]
    bounds = SearchBounds.cube(low, high, options["dimension"])
    params = OptimizerParams(
        population_size=options["population"],
        max_iterations=options["iterations"],
        seed=options["seed"],
    )
    position, fitness_value, trace = OPTIMIZERS[algorithm](objective, bounds, params)

    out_dir, manifest = prepare_output_dir("bench-opt", options)
    write_json(out_dir / "result.json", {
        "function": name,
        "algorithm": algorithm,
        "dimension": options["dimension"],
        "best_fitness": fitness_value,
        "best_position": [float(v) for v in position],
        "evaluations": trace.evaluations,
        "gwo_iterations": trace.gwo_iterations,
        "woa_iterations": trace.woa_iterations,
    })
    write_csv_rows(
        out_dir / "trace.csv",
        ["iteration", "best_fitness"],
        [[i, repr(v)] for i, v in enumerate(trace.best_fitness_per_iteration)],
    )
    write_json(out_dir / "manifest.json", manifest)
    print(f"{name} d={options['dimension']} via {algorithm}: best {fitness_value}")
    print(f"result: {out_dir / 'result.json'}")
    return 0


# ------------------------------------------------------- command table

class Command(NamedTuple):
    """A subcommand: its keys with their defaults, and the keys it needs set."""

    run: Callable[[dict], int]
    help: str
    defaults: dict
    required: tuple[str, ...] = ()


OUTPUT_DEFAULTS = {"output_root": "runs", "output_dir": None}

COMMANDS = {
    "ingest": Command(cmd_ingest, "clean, impute, scale and split a CSV", {
        "data": None, "date_column": "date", "variables": None, "region": None,
        "split_ratio": 0.8, "seed": 0,
    } | OUTPUT_DEFAULTS, required=("data",)),
    "tune": Command(cmd_tune, "search hyperparameters for one variable", {
        "data_dir": None, "variable": None,
        "algorithm": "rs-gwo-woa", "population": 10, "iterations": 10, "seed": 0,
        "lookback": 7, "horizon": 1, "val_fraction": 0.2, "fitness_epochs": 20,
        "learning_rate": 1e-3, "optimizer": "adam",
        "repeat_steps": 3, "conv_activation": "relu",
        "surrogate": None, "extended_space": False, "space": None, "evaluation_budget": None,
    } | OUTPUT_DEFAULTS, required=("data_dir",)),
    "train": Command(cmd_train, "train the final model at full epochs", {
        "data_dir": None, "variable": None, "from_tuning": None,
        "n_filters": 32, "kernel_size": 3, "pool_size": 2, "lstm_units": 10,
        "repeat_steps": 3, "conv_activation": "relu", "lookback": 7, "horizon": 1,
        "epochs": 100, "learning_rate": 1e-3, "optimizer": "adam", "seed": 0,
    } | OUTPUT_DEFAULTS, required=("data_dir",)),
    "forecast": Command(cmd_forecast, "recursive multi-step forecast from a model", {
        "data_dir": None, "model": None, "variable": None, "steps": 7,
    } | OUTPUT_DEFAULTS, required=("model", "data_dir")),
    "evaluate": Command(cmd_evaluate, "score a model on the held-out test segment", {
        "data_dir": None, "model": None, "variable": None,
    } | OUTPUT_DEFAULTS, required=("model", "data_dir")),
    "compare": Command(cmd_compare, "Friedman + critical-difference comparison", {
        "scores": None, "alpha": 0.05, "q": None,
    } | OUTPUT_DEFAULTS, required=("scores",)),
    "bench-opt": Command(cmd_bench_opt, "run an optimizer on a benchmark function", {
        "function": "sphere", "algorithm": "rs-gwo-woa", "dimension": 5,
        "population": 30, "iterations": 200, "seed": 0,
    } | OUTPUT_DEFAULTS),
}


def build_parser() -> argparse.ArgumentParser:
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command].run(resolve_options(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (DivergedError, DegenerateObjectiveError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4
    except SwarmcastError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
