"""The benchmark's tracer rebinds swarmcast attributes by name (see
perfbench/tracer.py). These tests fail when a refactor renames or
bypasses one of them, instead of leaving the benchmark to break or to
count nothing. They only read perfbench/.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from swarmcast import network, tuning
from swarmcast.cli import VOLATILE_FILES, main
from swarmcast.metaheuristics import OPTIMIZERS, OptimizerParams
from swarmcast.network import NetworkConfig, TrainingConfig, initialize_network
from swarmcast.timeseries import ScalingParams, make_windows

REPO_ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = REPO_ROOT / "perfbench"


@pytest.fixture()
def tracer_module(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    yield tracer
    for name in ("tracer", "workloads"):
        sys.modules.pop(name, None)


def test_benchmark_skips_the_same_volatile_files(tracer_module):
    # perfbench keeps its own copy of the set, which must not drift from the CLI's
    from workloads import VOLATILE

    assert VOLATILE == VOLATILE_FILES


def test_install_then_uninstall_restores_every_attribute(tracer_module):
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        patched = list(tracer._patches)
        for owner, attr, original in patched:
            current = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
            assert current is not original, attr
    finally:
        tracer.uninstall()
    bound = {(getattr(owner, "__name__", None), attr) for owner, attr, _ in patched}
    for name in (("swarmcast.network", "_gradients"), ("swarmcast.network", "network_forward"),
                 ("_Adam", "update"), ("swarmcast.network", "_conv1d_cache"),
                 ("swarmcast.tuning", "fitness")):
        assert name in bound, name
    for owner, attr, original in patched:
        current = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        assert current is original, attr


def test_traced_train_and_forecast_record_layer_spans(tracer_module):
    # training and forecasting must still call through the patched names
    tracer = tracer_module.Tracer()
    net = initialize_network(NetworkConfig(n_filters=2, lstm_units=3, seed=1), 6)
    windows = make_windows(np.linspace(0.0, 1.0, 12), 6, 1)
    tracer.install()
    try:
        trained = network.train(net, windows, TrainingConfig(epochs=1, seed=1))
        network.iterative_forecast(trained, np.linspace(0.0, 1.0, 8), 2, ScalingParams(0.0, 1.0))
    finally:
        tracer.uninstall()
    recorded = {tracer.names[i] for i in tracer.name_col}
    for span in ("network.grad", "network.optimizer", "network.predict_window",
                 "layers.conv_fwd", "layers.conv_bwd", "layers.pool_fwd", "layers.pool_bwd",
                 "layers.lstm_fwd", "layers.lstm_bwd"):
        assert span in recorded, span


def span_counts(tracer):
    names = [tracer.names[i] for i in tracer.name_col]
    return {name: names.count(name) for name in set(names)}


@pytest.mark.parametrize("algorithm", sorted(OPTIMIZERS))
def test_traced_bench_opt_records_one_span_per_population(tracer_module, tmp_path, algorithm):
    # the objective must go through the patched metaheuristics._evaluate
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        code = main(["bench-opt", "--function", "rastrigin", "--algorithm", algorithm,
                     "--dimension", "3", "--population", "5", "--iterations", "4",
                     "--seed", "1", "--output-dir", str(tmp_path / "b")])
    finally:
        tracer.uninstall()
    assert code == 0
    assert span_counts(tracer).get("benchmarks.call") == 1 + 4


def test_traced_surrogate_tune_records_objective_spans(tracer_module):
    tracer = tracer_module.Tracer()
    params = OptimizerParams(population_size=4, max_iterations=3, seed=1)
    tracer.install()
    try:
        result = tuning.tune_series(np.arange(40.0), "rs-gwo-woa", params, surrogate="hash")
    finally:
        tracer.uninstall()
    counts = span_counts(tracer)
    assert counts.get("tuning.objective") == 1 + 3
    # one decode per population, plus one for the returned best position
    assert counts.get("tuning.decode") == (1 + 3) + 1
    assert counts.get("tuning.surrogate") == result.cache_misses


def test_traced_cli_tune_and_train_record_training_spans(tracer_module, tmp_path):
    # real fitness and the final fit must both train through the patched names
    ingest, tune, train = tmp_path / "ingest", tmp_path / "tune", tmp_path / "train"
    assert main(["ingest", "--data", str(REPO_ROOT / "data" / "sample_daily_cases.csv"),
                 "--output-dir", str(ingest)]) == 0
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        tuned = main(["tune", "--data-dir", str(ingest), "--population", "4",
                      "--iterations", "1", "--fitness-epochs", "1", "--seed", "3",
                      "--output-dir", str(tune)])
        trained = main(["train", "--data-dir", str(ingest), "--epochs", "1",
                        "--from-tuning", str(tune / "report.json"), "--seed", "3",
                        "--output-dir", str(train)])
    finally:
        tracer.uninstall()
    assert (tuned, trained) == (0, 0)
    report = json.loads((tune / "report.json").read_text(encoding="utf-8"))
    counts = span_counts(tracer)
    # the tuner logs only cells that fit, and trains each once, plus the final fit
    assert counts.get("tuning.fitness") == report["cache_misses"]
    assert counts.get("network.train") == report["cache_misses"] + 1


@pytest.fixture()
def trained_artifact(tmp_path):
    """An ingest artifact of the sample CSV and a small model trained on it."""
    ingest, model = tmp_path / "ingest", tmp_path / "train"
    assert main(["ingest", "--data", str(REPO_ROOT / "data" / "sample_daily_cases.csv"),
                 "--output-dir", str(ingest)]) == 0
    assert main(["train", "--data-dir", str(ingest), "--epochs", "1", "--n-filters", "2",
                 "--lstm-units", "3", "--seed", "3", "--output-dir", str(model)]) == 0
    return ingest, model / "model.json"


@pytest.mark.parametrize("steps", [1, 7])
def test_traced_cli_forecast_records_one_read_and_a_window_per_step(
        tracer_module, tmp_path, trained_artifact, steps):
    # the benchmark counts forecast steps and CSV reads through these names
    ingest, model = trained_artifact
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        code = main(["forecast", "--model", str(model), "--data-dir", str(ingest),
                     "--steps", str(steps), "--output-dir", str(tmp_path / "f")])
    finally:
        tracer.uninstall()
    assert code == 0
    counts = span_counts(tracer)
    assert counts.get("network.predict_window") == steps
    assert counts.get("timeseries.load_csv") == 1


def test_traced_cli_evaluate_records_one_read(tracer_module, tmp_path, trained_artifact):
    ingest, model = trained_artifact
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        code = main(["evaluate", "--model", str(model), "--data-dir", str(ingest),
                     "--output-dir", str(tmp_path / "e")])
    finally:
        tracer.uninstall()
    assert code == 0
    assert span_counts(tracer).get("timeseries.load_csv") == 1


# every span of one small traced pipeline; a refactor that moves a call off a
# patched name, or adds one, changes what the benchmark measures
PIPELINE_SPANS = {
    "evaluation.compare": 1, "evaluation.metric_report": 2, "evaluation.mse": 6,
    "evaluation.parse_scores": 1, "evaluation.rank": 1,
    "layers.conv_bwd": 501, "layers.conv_fwd": 508, "layers.lstm_bwd": 1503,
    "layers.lstm_fwd": 1524, "layers.pool_bwd": 501, "layers.pool_fwd": 508,
    "metaheuristics.rs-gwo-woa": 1, "metaheuristics.woa_step": 1,
    "network.grad": 501, "network.initialize_network": 5, "network.iterative_forecast": 1,
    "network.load_model": 2, "network.optimizer": 501, "network.predict_window": 2,
    "network.predict_windows": 5, "network.save_model": 1, "network.train": 5,
    "timeseries.apply_scale": 3, "timeseries.impute_missing": 3,
    "timeseries.inverse_scale": 3, "timeseries.load_csv": 5, "timeseries.make_windows": 3,
    "tuning.decode": 3, "tuning.fitness": 4, "tuning.objective": 2, "tuning.tune_series": 1,
}


def test_traced_pipeline_records_the_pinned_span_counts(tracer_module, tmp_path):
    ingest, tune, train = tmp_path / "ingest", tmp_path / "tune", tmp_path / "train"
    scores = tmp_path / "scores.csv"
    scores.write_text("test,a,b,c\n" + "".join(
        f"case{t},{t % 3},{(t + 1) % 3},{(t + 2) % 3}\n" for t in range(6)), encoding="utf-8")
    model = str(train / "model.json")
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        codes = [main(argv) for argv in (
            ["ingest", "--data", str(REPO_ROOT / "data" / "sample_daily_cases.csv"),
             "--output-dir", str(ingest)],
            ["tune", "--data-dir", str(ingest), "--population", "4", "--iterations", "1",
             "--fitness-epochs", "1", "--seed", "3", "--output-dir", str(tune)],
            ["train", "--data-dir", str(ingest), "--epochs", "1", "--seed", "3",
             "--from-tuning", str(tune / "report.json"), "--output-dir", str(train)],
            ["evaluate", "--model", model, "--data-dir", str(ingest),
             "--output-dir", str(tmp_path / "e")],
            ["forecast", "--model", model, "--data-dir", str(ingest), "--steps", "2",
             "--output-dir", str(tmp_path / "f")],
            ["compare", "--scores", str(scores), "--output-dir", str(tmp_path / "c")],
        )]
    finally:
        tracer.uninstall()
    assert codes == [0] * 6
    assert span_counts(tracer) == PIPELINE_SPANS
