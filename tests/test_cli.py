import json
import math
from pathlib import Path

import numpy as np
import pytest

from swarmcast import cli
from swarmcast import network as network_module
from swarmcast.cli import main
from swarmcast.network import (
    NetworkConfig,
    initialize_network,
    load_model,
    network_forward,
    save_model,
)
from swarmcast.timeseries import ScalingParams, inverse_scale

SMALL_CSV = """date,confirmed
2020-03-22,10
2020-03-23,12
2020-03-25,18
2020-03-26,22
2020-03-27,NA
2020-03-28,31
2020-03-29,36
2020-03-30,41
2020-03-31,47
2020-04-01,52
2020-04-02,57
2020-04-03,61
2020-04-04,66
2020-04-05,70
2020-04-06,73
2020-04-07,77
2020-04-08,80
2020-04-09,82
2020-04-10,84
2020-04-11,86
2020-04-12,88
2020-04-13,89
2020-04-14,90
2020-04-15,91
2020-04-16,92
2020-04-17,93
2020-04-18,93
2020-04-19,94
2020-04-20,94
2020-04-21,95
"""


@pytest.fixture()
def small_csv(tmp_path):
    path = tmp_path / "cases.csv"
    path.write_text(SMALL_CSV, encoding="utf-8")
    return path


@pytest.fixture()
def artifact(tmp_path, small_csv):
    out = tmp_path / "artifact"
    code = main(["ingest", "--data", str(small_csv), "--output-dir", str(out)])
    assert code == 0
    return out


class TestIngest:
    def test_reports_imputation_count(self, small_csv, tmp_path, capsys):
        # one calendar gap (2020-03-24) plus one NA cell
        code = main(["ingest", "--data", str(small_csv),
                     "--output-dir", str(tmp_path / "a")])
        assert code == 0
        out = capsys.readouterr().out
        assert "imputed: 2" in out
        assert (tmp_path / "a" / "dataset.csv").exists()
        assert (tmp_path / "a" / "scaling.json").exists()
        assert (tmp_path / "a" / "manifest.json").exists()

    def test_idempotent_rerun(self, small_csv, tmp_path):
        for sub in ("a", "b"):
            assert main(["ingest", "--data", str(small_csv),
                         "--output-dir", str(tmp_path / sub)]) == 0
        for name in ("dataset.csv", "scaling.json", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_scaling_fitted_on_train_only(self, artifact):
        meta = json.loads((artifact / "scaling.json").read_text())
        cut = meta["split_index"]
        rows = (artifact / "dataset.csv").read_text().strip().splitlines()[1:]
        values = [float(r.split(",")[1]) for r in rows]
        assert max(values[:cut]) == pytest.approx(1.0)
        assert max(values[cut:]) > 1.0  # growth continues past the train max

    def test_malformed_date_exits_3_naming_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("date,v\n2020-03-22,1\nnonsense,2\n", encoding="utf-8")
        code = main(["ingest", "--data", str(bad), "--output-dir", str(tmp_path / "o")])
        assert code == 3
        assert ":3" in capsys.readouterr().err

    def test_missing_data_flag_exits_2(self, tmp_path):
        assert main(["ingest", "--output-dir", str(tmp_path / "o")]) == 2

    def test_edge_missing_exits_3(self, tmp_path):
        bad = tmp_path / "edge.csv"
        bad.write_text("date,v\n2020-03-22,NA\n2020-03-23,2\n", encoding="utf-8")
        assert main(["ingest", "--data", str(bad), "--output-dir", str(tmp_path / "o")]) == 3

    def test_infinite_cell_exits_3_naming_line_and_column(self, tmp_path, capsys):
        bad = tmp_path / "inf.csv"
        bad.write_text("date,v\n2020-03-22,1\n2020-03-23,inf\n2020-03-24,2\n",
                       encoding="utf-8")
        out = tmp_path / "o"
        assert main(["ingest", "--data", str(bad), "--output-dir", str(out)]) == 3
        err = capsys.readouterr().err
        assert ":3:" in err and "'v'" in err
        assert not (out / "dataset.csv").exists()


class TestTune:
    def test_same_seed_identical_reports(self, artifact, tmp_path):
        for sub in ("t1", "t2"):
            code = main(["tune", "--data-dir", str(artifact), "--surrogate", "hash",
                         "--algorithm", "rs-gwo-woa", "--population", "5",
                         "--iterations", "6", "--seed", "1",
                         "--output-dir", str(tmp_path / sub)])
            assert code == 0
        assert (tmp_path / "t1" / "report.json").read_bytes() == \
               (tmp_path / "t2" / "report.json").read_bytes()
        assert (tmp_path / "t1" / "manifest.json").read_bytes() == \
               (tmp_path / "t2" / "manifest.json").read_bytes()

    def test_ga_path_recorded(self, artifact, tmp_path):
        code = main(["tune", "--data-dir", str(artifact), "--surrogate", "hash",
                     "--algorithm", "ga", "--population", "5", "--iterations", "4",
                     "--seed", "2", "--output-dir", str(tmp_path / "ga")])
        assert code == 0
        report = json.loads((tmp_path / "ga" / "report.json").read_text())
        assert report["algorithm"] == "ga"

    def test_surrogate_reproduces_enumeration_optimum(self, artifact, tmp_path):
        from swarmcast.tuning import DEFAULT_SPACE, enumerate_assignments, surrogate_fitness

        seed = 3
        code = main(["tune", "--data-dir", str(artifact), "--surrogate", "hash",
                     "--population", "8", "--iterations", "20", "--seed", str(seed),
                     "--evaluation-budget", "200",
                     "--output-dir", str(tmp_path / "opt")])
        assert code == 0
        report = json.loads((tmp_path / "opt" / "report.json").read_text())
        true_min = min(
            surrogate_fitness(a, seed) for a in enumerate_assignments(DEFAULT_SPACE)
        )
        assert report["best_loss"] == true_min

    def test_custom_space_from_config(self, artifact, tmp_path):
        cfg = tmp_path / "space.json"
        cfg.write_text(json.dumps({"space": {
            "n_filters": [4], "kernel_size": [3], "pool_size": [2], "lstm_units": [3],
        }}), encoding="utf-8")
        out = tmp_path / "sp"
        code = main(["tune", "--config", str(cfg), "--data-dir", str(artifact),
                     "--surrogate", "hash", "--population", "4", "--iterations", "2",
                     "--seed", "6", "--output-dir", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["best_assignment"] == {
            "n_filters": 4, "kernel_size": 3, "pool_size": 2, "lstm_units": 3,
        }

    def test_custom_space_missing_dimension_rejected(self, artifact, tmp_path):
        cfg = tmp_path / "bad_space.json"
        cfg.write_text(json.dumps({"space": {"n_filters": [4]}}), encoding="utf-8")
        assert main(["tune", "--config", str(cfg), "--data-dir", str(artifact),
                     "--surrogate", "hash", "--output-dir", str(tmp_path / "x")]) == 2

    def test_trace_csv_matches_iterations(self, artifact, tmp_path):
        code = main(["tune", "--data-dir", str(artifact), "--surrogate", "hash",
                     "--population", "4", "--iterations", "7", "--seed", "4",
                     "--output-dir", str(tmp_path / "tr")])
        assert code == 0
        rows = (tmp_path / "tr" / "trace.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 7


class TestTrainForecast:
    def test_train_then_forecast_round_trip(self, artifact, tmp_path):
        train_dir = tmp_path / "model"
        code = main(["train", "--data-dir", str(artifact),
                     "--n-filters", "4", "--kernel-size", "3", "--pool-size", "2",
                     "--lstm-units", "4", "--epochs", "10", "--seed", "3",
                     "--output-dir", str(train_dir)])
        assert code == 0
        model_path = train_dir / "model.json"
        assert model_path.exists()

        fc_dir = tmp_path / "fc"
        code = main(["forecast", "--model", str(model_path), "--data-dir", str(artifact),
                     "--steps", "3", "--output-dir", str(fc_dir)])
        assert code == 0
        lines = (fc_dir / "forecast.csv").read_text().strip().splitlines()
        assert lines[0] == "date,predicted"
        assert len(lines) == 1 + 3

        # the CSV must equal the in-memory forecast from the serialized model
        from swarmcast.network import iterative_forecast

        net = load_model(model_path)
        meta = json.loads((artifact / "scaling.json").read_text())["variables"]["confirmed"]
        params = ScalingParams(meta["minimum"], meta["maximum"], degenerate=meta["degenerate"])
        rows = (artifact / "dataset.csv").read_text().strip().splitlines()[1:]
        series = np.array([float(r.split(",")[1]) for r in rows])
        expected = iterative_forecast(net, series, 3, params)
        got = [float(line.split(",")[1]) for line in lines[1:]]
        assert np.allclose(got, expected, atol=0, rtol=0)

    def test_single_step_equals_one_forward_pass(self, artifact, tmp_path):
        train_dir = tmp_path / "m1"
        assert main(["train", "--data-dir", str(artifact),
                     "--n-filters", "2", "--kernel-size", "3", "--pool-size", "2",
                     "--lstm-units", "3", "--epochs", "5", "--seed", "9",
                     "--output-dir", str(train_dir)]) == 0
        fc_dir = tmp_path / "f1"
        assert main(["forecast", "--model", str(train_dir / "model.json"),
                     "--data-dir", str(artifact), "--steps", "1",
                     "--output-dir", str(fc_dir)]) == 0
        line = (fc_dir / "forecast.csv").read_text().strip().splitlines()[1]
        got = float(line.split(",")[1])

        net = load_model(train_dir / "model.json")
        rows = (artifact / "dataset.csv").read_text().strip().splitlines()[1:]
        series = np.array([float(r.split(",")[1]) for r in rows])
        meta = json.loads((artifact / "scaling.json").read_text())["variables"]["confirmed"]
        params = ScalingParams(meta["minimum"], meta["maximum"], degenerate=meta["degenerate"])
        direct = network_forward(series[-net.lookback:][:, None], net)[0]
        assert got == pytest.approx(float(inverse_scale([direct], params)[0]), abs=1e-12)

    def test_missing_model_exits_3(self, artifact, tmp_path):
        assert main(["forecast", "--model", str(tmp_path / "nope.json"),
                     "--data-dir", str(artifact), "--steps", "2",
                     "--output-dir", str(tmp_path / "x")]) == 3

    def test_bad_steps_exits_2(self, artifact, tmp_path):
        assert main(["forecast", "--model", str(tmp_path / "nope.json"),
                     "--data-dir", str(artifact), "--steps", "0",
                     "--output-dir", str(tmp_path / "x")]) == 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
    def test_divergence_exits_4(self, artifact, tmp_path):
        code = main(["train", "--data-dir", str(artifact),
                     "--n-filters", "2", "--kernel-size", "3", "--pool-size", "2",
                     "--lstm-units", "3", "--epochs", "5", "--seed", "3",
                     "--optimizer", "sgd", "--learning-rate", "1e14",
                     "--output-dir", str(tmp_path / "dv")])
        assert code == 4

    def test_evaluate_writes_metrics(self, artifact, tmp_path):
        train_dir = tmp_path / "m2"
        assert main(["train", "--data-dir", str(artifact),
                     "--n-filters", "2", "--kernel-size", "3", "--pool-size", "2",
                     "--lstm-units", "3", "--epochs", "10", "--seed", "4",
                     "--output-dir", str(train_dir)]) == 0
        ev_dir = tmp_path / "ev"
        assert main(["evaluate", "--model", str(train_dir / "model.json"),
                     "--data-dir", str(artifact), "--output-dir", str(ev_dir)]) == 0
        metrics = json.loads((ev_dir / "metrics.json").read_text())
        assert math.isfinite(metrics["scaled"]["mse"])
        assert metrics["scaled"]["n"] > 0
        lines = (ev_dir / "predictions.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + metrics["scaled"]["n"]


class TestCompare:
    def make_scores(self, path, n_tests=24, k=6):
        rng = np.random.default_rng(1)
        offsets = np.linspace(0.0, 0.5, k)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("test," + ",".join(f"m{i}" for i in range(k)) + "\n")
            for t in range(n_tests):
                row = rng.random(k) + offsets
                fh.write(f"case{t}," + ",".join(f"{v:.4f}" for v in row) + "\n")

    def test_reproduction_cd(self, tmp_path):
        scores = tmp_path / "scores.csv"
        self.make_scores(scores)
        out = tmp_path / "cmp"
        assert main(["compare", "--scores", str(scores), "--q", "2.728",
                     "--output-dir", str(out)]) == 0
        doc = json.loads((out / "comparison.json").read_text())
        assert doc["cd"] == pytest.approx(1.474, abs=1e-3)
        ranks = (out / "cd_diagram.csv").read_text().strip().splitlines()
        assert len(ranks) == 1 + 6

    def test_two_method_dominance_flagged(self, tmp_path):
        scores = tmp_path / "two.csv"
        with open(scores, "w", encoding="utf-8") as fh:
            fh.write("test,weak,strong\n")
            for t in range(12):
                fh.write(f"case{t},{1.0 + t},{0.1 + t}\n")
        out = tmp_path / "cmp2"
        assert main(["compare", "--scores", str(scores), "--output-dir", str(out)]) == 0
        doc = json.loads((out / "comparison.json").read_text())
        # hand arithmetic: rank sums 24 vs 12 give statistic 12 > 3.841,
        # CD = 1.96 sqrt(6 / (6*12)) ~ 0.566 < |2 - 1|
        assert doc["friedman_statistic"] == pytest.approx(12.0)
        assert doc["null_rejected"] is True
        assert doc["pairwise_significant"][0][1] is True

    def test_empty_csv_exits_3(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("", encoding="utf-8")
        assert main(["compare", "--scores", str(empty),
                     "--output-dir", str(tmp_path / "c")]) == 3


class TestBenchOpt:
    def test_writes_result_and_trace(self, tmp_path):
        out = tmp_path / "bo"
        assert main(["bench-opt", "--function", "sphere", "--dimension", "3",
                     "--population", "8", "--iterations", "25", "--seed", "6",
                     "--output-dir", str(out)]) == 0
        doc = json.loads((out / "result.json").read_text())
        assert doc["function"] == "sphere"
        assert doc["best_fitness"] >= 0.0
        rows = (out / "trace.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 25

    def test_unknown_function_exits_2(self, tmp_path):
        import pytest as _pytest

        with _pytest.raises(SystemExit):  # argparse rejects the choice
            main(["bench-opt", "--function", "styblinski",
                  "--output-dir", str(tmp_path / "x")])


class TestConfigResolution:
    def test_flags_override_config_file(self, small_csv, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "data": str(small_csv),
            "split_ratio": 0.5,
        }), encoding="utf-8")
        out = tmp_path / "o1"
        assert main(["ingest", "--config", str(cfg), "--split-ratio", "0.8",
                     "--output-dir", str(out)]) == 0
        meta = json.loads((out / "scaling.json").read_text())
        assert meta["split_ratio"] == 0.8

    def test_config_file_supplies_values(self, small_csv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"data": str(small_csv), "split_ratio": 0.5}),
                       encoding="utf-8")
        out = tmp_path / "o2"
        assert main(["ingest", "--config", str(cfg), "--output-dir", str(out)]) == 0
        meta = json.loads((out / "scaling.json").read_text())
        assert meta["split_ratio"] == 0.5

    def test_env_var_config_path(self, small_csv, tmp_path, monkeypatch):
        cfg = tmp_path / "env.json"
        cfg.write_text(json.dumps({"data": str(small_csv)}), encoding="utf-8")
        monkeypatch.setenv("SWARMCAST_CONFIG", str(cfg))
        out = tmp_path / "o3"
        assert main(["ingest", "--output-dir", str(out)]) == 0
        assert (out / "dataset.csv").exists()

    def test_bad_config_json_exits_2(self, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json", encoding="utf-8")
        assert main(["ingest", "--config", str(cfg),
                     "--output-dir", str(tmp_path / "o4")]) == 2

    def test_default_output_dir_is_config_hashed(self, small_csv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["ingest", "--data", str(small_csv)]) == 0
        runs = list(Path(tmp_path, "runs").iterdir())
        assert len(runs) == 1
        assert runs[0].name.startswith("ingest-")


class TestOptionTable:
    """Options, defaults and config checks all come from cli.OPTIONS and cli.COMMANDS."""

    @staticmethod
    def config(tmp_path, doc):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def test_unknown_config_key_exits_2_naming_it(self, small_csv, tmp_path, capsys):
        cfg = self.config(tmp_path, {"epochz": 1})
        assert main(["ingest", "--config", cfg, "--data", str(small_csv),
                     "--output-dir", str(tmp_path / "o")]) == 2
        assert "epochz" in capsys.readouterr().err

    def test_other_commands_key_accepted(self, small_csv, tmp_path):
        # one config file serves every command, so train's keys are fine for ingest
        cfg = self.config(tmp_path, {"epochs": 5})
        assert main(["ingest", "--config", cfg, "--data", str(small_csv),
                     "--output-dir", str(tmp_path / "o")]) == 0

    def test_wrongly_typed_config_value_exits_2_naming_key(self, artifact, tmp_path, capsys):
        cfg = self.config(tmp_path, {"population": "ten"})
        assert main(["tune", "--config", cfg, "--data-dir", str(artifact),
                     "--surrogate", "hash", "--output-dir", str(tmp_path / "t")]) == 2
        assert "population" in capsys.readouterr().err

    def test_string_false_is_not_a_boolean(self, artifact, tmp_path, capsys):
        cfg = self.config(tmp_path, {"extended_space": "false"})
        assert main(["tune", "--config", cfg, "--data-dir", str(artifact),
                     "--surrogate", "hash", "--output-dir", str(tmp_path / "t")]) == 2
        assert "extended_space" in capsys.readouterr().err

    def test_config_value_outside_choices_exits_2(self, tmp_path, capsys):
        cfg = self.config(tmp_path, {"function": "styblinski"})
        assert main(["bench-opt", "--config", cfg, "--output-dir", str(tmp_path / "b")]) == 2
        assert "function" in capsys.readouterr().err

    def test_config_values_coerced_like_flags(self, artifact, tmp_path):
        # a JSON int for a float option resolves to the flag's float, so the
        # manifests (resolved config and its hash) match
        cfg = self.config(tmp_path, {"learning_rate": 1, "population": 4})
        common = ["--data-dir", str(artifact), "--surrogate", "hash", "--iterations", "1"]
        assert main(["tune", "--config", cfg, *common,
                     "--output-dir", str(tmp_path / "c")]) == 0
        assert main(["tune", "--learning-rate", "1", "--population", "4", *common,
                     "--output-dir", str(tmp_path / "f")]) == 0
        for name in ("report.json", "manifest.json"):
            assert (tmp_path / "c" / name).read_bytes() == (tmp_path / "f" / name).read_bytes()

    def test_misshaped_variables_exits_2_naming_key(self, small_csv, tmp_path, capsys):
        cfg = self.config(tmp_path, {"variables": 5})
        assert main(["ingest", "--config", cfg, "--data", str(small_csv),
                     "--output-dir", str(tmp_path / "o")]) == 2
        assert "'variables'" in capsys.readouterr().err

    def test_space_candidates_not_a_list_exits_2_naming_key(self, artifact, tmp_path, capsys):
        space = {"n_filters": 4, "kernel_size": [2], "pool_size": [2], "lstm_units": [3]}
        cfg = self.config(tmp_path, {"space": space})
        assert main(["tune", "--config", cfg, "--data-dir", str(artifact),
                     "--surrogate", "hash", "--output-dir", str(tmp_path / "t")]) == 2
        err = capsys.readouterr().err
        assert "'space'" in err and "'n_filters'" in err

    @pytest.mark.parametrize("command", ["forecast", "evaluate", "compare"])
    def test_seedless_commands_reject_seed_flag(self, command, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([command, "--seed", "1", "--output-dir", str(tmp_path / "x")])
        assert exc.value.code == 2

    def test_flags_are_each_commands_keys_plus_config(self):
        from swarmcast.cli import COMMANDS, OPTIONS, build_parser

        parser = build_parser()
        subparsers = next(a for a in parser._actions if a.dest == "command").choices
        total = 0
        for name, command in COMMANDS.items():
            flags = {
                opt for action in subparsers[name]._actions
                for opt in action.option_strings if opt.startswith("--") and opt != "--help"
            }
            expected = {"--" + key.replace("_", "-")
                        for key in command.defaults if OPTIONS[key].flag}
            assert flags == expected | {"--config"}, name
            total += len(flags)
        assert total == 75
        used = {key for command in COMMANDS.values() for key in command.defaults}
        assert used == set(OPTIONS)


class TestAtomicWrites:
    """An artifact write that fails partway leaves the previous file intact."""

    @staticmethod
    def assert_untouched(path, before):
        assert path.read_bytes() == before
        assert [p.name for p in path.parent.iterdir()] == [path.name]

    def test_write_json(self, tmp_path, monkeypatch):
        path = tmp_path / "report.json"
        cli.write_json(path, {"a": 1})
        before = path.read_bytes()

        # a lone surrogate cannot be encoded, so the write fails after it began
        monkeypatch.setattr(cli, "canonical_json", lambda obj: '{"a": 2, "b": "\ud800"}\n')
        with pytest.raises(UnicodeEncodeError):
            cli.write_json(path, {"a": 2})
        self.assert_untouched(path, before)

    def test_write_csv_rows(self, tmp_path):
        path = tmp_path / "rows.csv"
        cli.write_csv_rows(path, ["x"], [[1], [2]])
        before = path.read_bytes()

        def rows():
            yield [3]
            raise RuntimeError("row source failed")

        with pytest.raises(RuntimeError):
            cli.write_csv_rows(path, ["x"], rows())
        self.assert_untouched(path, before)

    def test_save_model(self, tmp_path, monkeypatch):
        net = initialize_network(NetworkConfig(n_filters=2, lstm_units=2), lookback=6)
        path = tmp_path / "model.json"
        save_model(net, path)
        before = path.read_bytes()

        def half_dump(doc, fh, **kwargs):
            fh.write('{"config": ')
            raise RuntimeError("serializer failed")

        monkeypatch.setattr(network_module.json, "dump", half_dump)
        with pytest.raises(RuntimeError):
            save_model(net, path)
        self.assert_untouched(path, before)
