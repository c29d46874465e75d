"""The benchmark's three closed-loop workloads and the client that drives them.

Each workload is one client issuing swarmcast CLI commands in-process
through ``swarmcast.cli.main``, the next only after the previous one
returned. A *pass* is one run of the workload's command sequence; the
benchmark repeats passes with identical arguments, so every command's
primary artifacts must hash the same on every pass.

- ``tune``: the demo pipeline's shape (ingest, tune, train the winner,
  evaluate, forecast) with real fitness at lookback 7. The evaluation
  budget covers the whole 144-cell grid, so every seed trains the same 72
  feasible cells: without it, the cells a search visits (and so its cost)
  vary about fivefold from seed to seed.
- ``infer``: ingest, evaluate, forecast and compare on a long generated
  series with pre-trained models; forward passes only.
- ``search``: ``bench-opt`` on every function x algorithm plus surrogate
  tunes over the extended grid; no network runs at all.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import random
import shutil
import time
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path
from statistics import median

# files that legitimately differ between same-seed runs
VOLATILE = {"manifest.json", "timings.csv"}


def artifact_digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every primary artifact under ``out_dir``."""
    if not out_dir.is_dir():
        return {}
    return {
        path.relative_to(out_dir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.rglob("*"))
        if path.is_file() and path.name not in VOLATILE
    }


def read_json_counting_nonfinite(path: Path) -> tuple[dict, int]:
    """Parse JSON that may hold bare Infinity/NaN tokens; also count them."""
    tokens = []

    def constant(token):
        tokens.append(token)
        return float(token)

    doc = json.loads(path.read_text(encoding="utf-8"), parse_constant=constant)
    return doc, len(tokens)


@dataclass
class Command:
    label: str
    seconds: float  # as measured
    ok: bool
    bytes_written: int
    speed: float = 1.0  # host speed factor of the pass (see hostspeed.py)

    @property
    def ref_seconds(self) -> float:
        return self.seconds * self.speed


class Client:
    """A single closed-loop client. ``main`` is the CLI entry point; the
    tracer swaps in a wrapped one for traced passes."""

    def __init__(self, main, clock=time.perf_counter):
        self.main = main
        self.clock = clock
        self.reference: dict[str, dict[str, str]] = {}
        self.commands: list[Command] = []
        self.failures: list[str] = []

    def run(self, label: str, out_dir: Path, *argv) -> None:
        argv = [str(a) for a in argv] + ["--output-dir", str(out_dir)]
        sink = io.StringIO()
        started = self.clock()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = self.main(argv)
        except Exception as exc:  # a crash is one failed command; the run goes on
            code = f"{type(exc).__name__}: {exc}"
        seconds = self.clock() - started
        digests = artifact_digests(out_dir)
        ok = code == 0
        if not ok:
            self.failures.append(f"{label}: exit {code}: {sink.getvalue()[-400:].strip()}")
        elif self.reference.setdefault(label, digests) != digests:
            ok = False
            self.failures.append(f"{label}: artifacts differ from the first same-seed run")
        written = sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file()) if out_dir.is_dir() else 0
        self.commands.append(Command(label, seconds, ok, written))


@dataclass
class Metric:
    name: str
    value: float
    unit: str
    better: str
    n: int


def _cell_feasible(values: dict, lookback: int) -> bool:
    """Mirror of NetworkConfig.validate_for_lookback for a grid cell."""
    kernel, pool = int(values["kernel_size"]), int(values["pool_size"])
    return kernel <= lookback and (lookback - kernel + 1) // pool >= 1


def tuning_counts(report: dict, lookback: int | None, budget: int | None) -> dict[str, float]:
    """Tuner counters read back from a tune report."""
    log = report["evaluation_log"]
    finite = sum(1 for e in log if math.isfinite(e["loss"]))
    infeasible = 0 if lookback is None else sum(
        1 for e in log if not _cell_feasible(e["assignment"], lookback))
    return {
        "tuning.objective_calls": report["cache_hits"] + report["cache_misses"],
        "tuning.cache_hits": report["cache_hits"],
        "tuning.distinct_cells": report["cache_misses"],
        "tuning.infeasible_cells": infeasible,
        "tuning.diverged_cells": len(log) - finite - infeasible,
        "tuning.finite_cells": finite,
        "tuning.budget_overrun": 0 if budget is None else max(0, report["cache_misses"] - budget),
    }


def _durations(passes, label_prefix: str) -> list[float]:
    """Per pass, the summed reference seconds of the commands whose label starts so."""
    return [sum(c.ref_seconds for c in cmds if c.label.startswith(label_prefix)) for cmds in passes]


class Workload:
    name = ""

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed

    def setup(self, client: Client, inputs: Path) -> str:
        """Generate the inputs under ``inputs``; return their fingerprint."""
        raise NotImplementedError

    def run_pass(self, client: Client, out: Path) -> None:
        raise NotImplementedError

    def results(self, passes, out: Path) -> tuple[list[Metric], dict[str, float]]:
        """Workload-specific end-to-end metrics and artifact-derived counts."""
        raise NotImplementedError


SAMPLE_CSV = Path("data") / "sample_daily_cases.csv"


class TuneWorkload(Workload):
    name = "tune"
    variable = "confirmed"
    lookback = 7
    split_ratio = 0.35
    population = 8
    iterations = 4
    fitness_epochs = 1
    budget = 144  # the whole default grid
    train_epochs = 3
    forecast_steps = 7

    def setup(self, client, inputs):
        return hashlib.sha256((self.root / SAMPLE_CSV).read_bytes()).hexdigest()

    def run_pass(self, client, out):
        ingest, tune, train = out / "ingest", out / "tune", out / "train"
        client.run("ingest", ingest, "ingest", "--data", SAMPLE_CSV, "--region", "sample",
                   "--split-ratio", self.split_ratio)
        client.run("tune", tune, "tune", "--data-dir", ingest, "--variable", self.variable,
                   "--algorithm", "rs-gwo-woa", "--population", self.population,
                   "--iterations", self.iterations, "--fitness-epochs", self.fitness_epochs,
                   "--lookback", self.lookback, "--evaluation-budget", self.budget,
                   "--seed", self.seed)
        client.run("train", train, "train", "--data-dir", ingest, "--variable", self.variable,
                   "--from-tuning", tune / "report.json", "--epochs", self.train_epochs,
                   "--lookback", self.lookback, "--seed", self.seed)
        client.run("evaluate", out / "evaluate", "evaluate", "--model", train / "model.json",
                   "--data-dir", ingest, "--variable", self.variable)
        client.run("forecast", out / "forecast", "forecast", "--model", train / "model.json",
                   "--data-dir", ingest, "--variable", self.variable,
                   "--steps", self.forecast_steps)

    def results(self, passes, out):
        n = len(passes)
        report, nonfinite = read_json_counting_nonfinite(out / "tune" / "report.json")
        counts = tuning_counts(report, self.lookback, self.budget)
        counts["cli.nonfinite_json_tokens"] = nonfinite
        feasible = counts["tuning.distinct_cells"] - counts["tuning.infeasible_cells"]

        scaling = json.loads((out / "ingest" / "scaling.json").read_text(encoding="utf-8"))
        cut = scaling["split_index"]
        inner_cut = math.floor(0.8 * cut)  # tune's default val_fraction 0.2
        fit_windows = max(0, inner_cut - self.lookback)
        final_windows = cut - self.lookback
        steps = feasible * self.fitness_epochs * fit_windows + self.train_epochs * final_windows

        tune_s = median(_durations(passes, "tune"))
        train_s = median(_durations(passes, "train"))
        both = median([a + b for a, b in zip(_durations(passes, "tune"), _durations(passes, "train"))])
        metrics = json.loads((out / "evaluate" / "metrics.json").read_text(encoding="utf-8"))
        return [
            Metric("tune_s", tune_s, "s", "lower", n),
            Metric("train_s", train_s, "s", "lower", n),
            Metric("fitness_evals_per_s", feasible / tune_s, "1/s", "higher", n),
            Metric("train_steps_per_s", steps / both, "1/s", "higher", n),
            Metric("best_val_mse", report["best_loss"], "scaled_mse", "lower", 1),
            Metric("test_mse_ratio",
                   metrics["scaled"]["mse"] / self._persistence_mse(out / "ingest", cut),
                   "ratio", "lower", 1),
        ], counts

    def _persistence_mse(self, ingest: Path, cut: int) -> float:
        """MSE of "tomorrow equals today" on the windows evaluate scores."""
        with open(ingest / "dataset.csv", newline="", encoding="utf-8") as fh:
            series = [float(row[self.variable]) for row in csv.DictReader(fh)]
        errors = [(series[t] - series[t - 1]) ** 2 for t in range(max(cut, self.lookback), len(series))]
        return sum(errors) / len(errors)


# ----------------------------------------------------------------- infer

INFER_VARIABLES = ("cases", "tests", "deaths")


def synthetic_csv(seed: int, days: int) -> str:
    """A daily CSV of three count series with calendar gaps and blank cells.

    Pure function of ``seed``: trend, yearly and weekly cycles and noise
    come from one ``random.Random(seed)``. The first and last rows are
    always complete, as imputation requires.
    """
    rng = random.Random(seed)
    shape = [(rng.uniform(200, 2000), rng.uniform(0.2, 0.6), rng.uniform(0.05, 0.3),
              rng.uniform(0, 2 * math.pi)) for _ in INFER_VARIABLES]
    weekly = [rng.uniform(-1, 1) for _ in range(7)]
    start = date(1990, 1, 1)
    lines = ["date," + ",".join(INFER_VARIABLES)]
    for day in range(days):
        edge = day in (0, days - 1)
        if not edge and rng.random() < 0.01:
            continue  # calendar gap
        years = day / 365.25
        cells = []
        for base, yearly, week, phase in shape:
            level = base * (1 + 0.3 * years / 27) * (1 + yearly * math.sin(2 * math.pi * years + phase))
            value = level * (1 + week * weekly[day % 7]) * rng.lognormvariate(0, 0.1)
            blank = not edge and rng.random() < 0.01
            cells.append("" if blank else str(max(0, round(value))))
        lines.append((start + timedelta(days=day)).isoformat() + "," + ",".join(cells))
    return "\n".join(lines) + "\n"


class InferWorkload(Workload):
    name = "infer"
    days = 10_000
    train_days = 200
    lookback = 14
    cell = ("--n-filters", 64, "--kernel-size", 3, "--pool-size", 2, "--lstm-units", 20)
    split_ratio = 0.9
    forecast_steps = 500
    seasonal_lag = 7

    def setup(self, client, inputs):
        text = synthetic_csv(self.seed, self.days)
        (inputs / "long.csv").write_text(text, encoding="utf-8")
        lines = text.splitlines(keepends=True)[: self.train_days + 1]
        while ",," in lines[-1] or lines[-1].rstrip().endswith(","):
            lines.pop()  # imputation needs a complete last row
        short = "".join(lines)
        (inputs / "short.csv").write_text(short, encoding="utf-8")
        client.run("setup-ingest", inputs / "short", "ingest", "--data", inputs / "short.csv",
                   "--region", "synthetic")
        for variable in INFER_VARIABLES:
            client.run(f"setup-train-{variable}", inputs / f"model-{variable}", "train",
                       "--data-dir", inputs / "short", "--variable", variable, *self.cell,
                       "--lookback", self.lookback, "--epochs", 1, "--seed", self.seed)
        self.inputs = inputs
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def run_pass(self, client, out):
        ingest = out / "ingest"
        client.run("ingest", ingest, "ingest", "--data", self.inputs / "long.csv",
                   "--region", "synthetic", "--split-ratio", self.split_ratio)
        for variable in INFER_VARIABLES:
            client.run(f"evaluate-{variable}", out / f"evaluate-{variable}", "evaluate",
                       "--model", self.inputs / f"model-{variable}" / "model.json",
                       "--data-dir", ingest, "--variable", variable)
        for variable in INFER_VARIABLES:
            client.run(f"forecast-{variable}", out / f"forecast-{variable}", "forecast",
                       "--model", self.inputs / f"model-{variable}" / "model.json",
                       "--data-dir", ingest, "--variable", variable,
                       "--steps", self.forecast_steps)
        self._write_scores(out)
        client.run("compare", out / "compare", "compare", "--scores", out / "scores.csv")

    def _write_scores(self, out: Path) -> None:
        """Per-window absolute errors of the model and three naive baselines."""
        rows = [["window", "model", "persistence", "seasonal", "mean7"]]
        lag = self.seasonal_lag
        for variable in INFER_VARIABLES:
            path = out / f"evaluate-{variable}" / "predictions.csv"
            if not path.exists():
                continue  # evaluate failed; compare then fails and is counted
            with open(path, newline="", encoding="utf-8") as fh:
                table = list(csv.DictReader(fh))
            actual = [float(r["actual"]) for r in table]
            for i in range(lag, len(table)):
                truth = actual[i]
                rows.append([
                    f"{variable}:{table[i]['date']}",
                    repr(abs(float(table[i]["predicted"]) - truth)),
                    repr(abs(actual[i - 1] - truth)),
                    repr(abs(actual[i - lag] - truth)),
                    repr(abs(sum(actual[i - lag:i]) / lag - truth)),
                ])
        with open(out / "scores.csv", "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)

    def results(self, passes, out):
        n = len(passes)
        scaling = json.loads((out / "ingest" / "scaling.json").read_text(encoding="utf-8"))
        windows = sum(
            json.loads((out / f"evaluate-{v}" / "metrics.json").read_text(encoding="utf-8"))["n_windows"]
            for v in INFER_VARIABLES)
        steps = self.forecast_steps * len(INFER_VARIABLES)
        return [
            Metric("ingest_rows_per_s", scaling["n_rows"] / median(_durations(passes, "ingest")),
                   "1/s", "higher", n),
            Metric("predict_windows_per_s", windows / median(_durations(passes, "evaluate")),
                   "1/s", "higher", n),
            Metric("forecast_steps_per_s", steps / median(_durations(passes, "forecast")),
                   "1/s", "higher", n),
            Metric("compare_s", median(_durations(passes, "compare")), "s", "lower", n),
        ], {}


# ---------------------------------------------------------------- search

class SearchWorkload(Workload):
    name = "search"
    functions = ("sphere", "rastrigin", "rosenbrock", "ackley")
    algorithms = ("rs-gwo-woa", "gwo", "woa", "ga")
    bench_seeds = 1
    tune_algorithms = ("rs-gwo-woa", "ga")
    tune_population = 30
    tune_iterations = 100
    budget = 5

    def setup(self, client, inputs):
        client.run("setup-ingest", inputs / "ingest", "ingest", "--data", SAMPLE_CSV,
                   "--region", "sample")
        self.inputs = inputs
        return hashlib.sha256((self.root / SAMPLE_CSV).read_bytes()).hexdigest()

    def _seeds(self) -> list[int]:
        rng = random.Random(self.seed)
        return [rng.randrange(2**31) for _ in range(self.bench_seeds)]

    def run_pass(self, client, out):
        for seed in self._seeds():
            for function in self.functions:
                for algorithm in self.algorithms:
                    label = f"bench-opt-{function}-{algorithm}-{seed}"
                    client.run(label, out / label, "bench-opt", "--function", function,
                               "--algorithm", algorithm, "--seed", seed)
        for algorithm in self.tune_algorithms:
            client.run(f"tune-{algorithm}", out / f"tune-{algorithm}", "tune",
                       "--data-dir", self.inputs / "ingest", "--surrogate", "hash",
                       "--extended-space", "--algorithm", algorithm,
                       "--population", self.tune_population, "--iterations", self.tune_iterations,
                       "--evaluation-budget", self.budget, "--seed", self.seed)

    def results(self, passes, out):
        n = len(passes)
        calls = 0
        for result in out.glob("bench-opt-*/result.json"):
            calls += json.loads(result.read_text(encoding="utf-8"))["evaluations"]
        counts: dict[str, float] = {}
        for algorithm in self.tune_algorithms:
            report, nonfinite = read_json_counting_nonfinite(out / f"tune-{algorithm}" / "report.json")
            part = tuning_counts(report, None, self.budget)
            part["cli.nonfinite_json_tokens"] = nonfinite
            for key, value in part.items():
                counts[key] = counts.get(key, 0) + value
        calls += counts["tuning.objective_calls"]
        search = [a + b for a, b in zip(_durations(passes, "bench-opt"), _durations(passes, "tune"))]
        return [
            Metric("tune_s", median(_durations(passes, "tune")), "s", "lower", n),
            Metric("objective_calls_per_s", calls / median(search), "1/s", "higher", n),
        ], counts


WORKLOADS = {w.name: w for w in (TuneWorkload, InferWorkload, SearchWorkload)}


def fresh_dir(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path
