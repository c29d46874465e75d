import base64
import csv
import hashlib
import json
import math
from datetime import date, timedelta
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import csv_writer_text, enumerate_assignments
from swarmcast import cli, fileio, network, tuning
from swarmcast.cli import main
from swarmcast.errors import ConfigError, DataError, NumericalError, SwarmcastError
from swarmcast.network import (
    NetworkConfig,
    initialize_network,
    load_model,
    network_forward,
    save_model,
)
from swarmcast.timeseries import (ScalingParams, inverse_scale, load_csv, read_packed,
                                  write_packed)

SAMPLE_CSV = Path(__file__).resolve().parents[1] / "data" / "sample_daily_cases.csv"

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


# an artifact read takes dataset.f8's values while its digest matches
# dataset.csv; a damaged dataset.csv breaks the digest, so with or without
# dataset.f8 it is parsed, and its faults are named as the parse names them
READS = ["with-f8", "csv-only"]


def drop_f8(artifact, read):
    """Delete the artifact's dataset.f8 for the ``csv-only`` read."""
    if read == "csv-only":
        (artifact / "dataset.f8").unlink()


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

    def test_byte_order_mark_is_accepted(self, tmp_path, capsys):
        # spreadsheet programs write "CSV UTF-8" with a leading byte-order mark
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(SMALL_CSV, encoding="utf-8")
        marked.write_text("\ufeff" + SMALL_CSV, encoding="utf-8")
        for path in (plain, marked):
            assert main(["ingest", "--data", str(path),
                         "--output-dir", str(tmp_path / path.stem)]) == 0
        written = (tmp_path / "marked" / "dataset.csv").read_bytes()
        assert written == (tmp_path / "plain" / "dataset.csv").read_bytes()

    # dataset.csv's first column is named date, so no variable may be
    @pytest.mark.parametrize("how", ["config", "header"])
    def test_variable_named_date_exits_3_naming_file_and_variable(self, tmp_path, capsys,
                                                                  how):
        data, out = tmp_path / "cases.csv", tmp_path / "out"
        if how == "config":  # a variable renamed date
            data.write_text(SMALL_CSV, encoding="utf-8")
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"variables": {"date": "confirmed"}}), encoding="utf-8")
            flags = ["--config", str(config)]
        else:  # a column named date beside another date column
            data.write_text(SMALL_CSV.replace("date,confirmed", "day,date", 1), encoding="utf-8")
            flags = ["--date-column", "day"]
        assert main(["ingest", "--data", str(data), *flags, "--output-dir", str(out)]) == 3
        err = capsys.readouterr().err
        assert f"{data}: variable 'date'" in err
        assert not out.exists()

    @pytest.mark.parametrize("values, day, scaled", [
        ("-1e308 1e308 0 1 2", "2020-01-02", "nan"),
        ("-1e308 0 -5e307 0 1e308", "2020-01-05", "inf"),
    ], ids=["training-span-overflows", "test-day-overflows"])
    def test_value_scaling_past_float64_exits_3_naming_column_and_date(self, tmp_path, capsys,
                                                                      values, day, scaled):
        # five days: the default split trains on the first four
        data, out = tmp_path / "wide.csv", tmp_path / "out"
        rows = [f"2020-01-0{i},{value}" for i, value in enumerate(values.split(), 1)]
        data.write_text("\n".join(["date,v", *rows, ""]), encoding="utf-8")
        assert main(["ingest", "--data", str(data), "--output-dir", str(out)]) == 3
        err = capsys.readouterr().err
        assert f"{data}: column 'v': the value on {day} scales to {scaled}, not a finite" in err
        assert not out.exists()

    def test_missing_data_flag_exits_2(self, tmp_path):
        assert main(["ingest", "--output-dir", str(tmp_path / "o")]) == 2

    # a spreadsheet export: byte-order mark, CRLF line ends, a quoted header and
    # quoted cells, a blank line and a short row; the sha256 of what ingest wrote
    EXPORT_DIGESTS = {
        "dataset.csv": "085b6d84e91be8c5bc988f258f53011afc362f095f5676bc14d5c63706d30ce6",
        "scaling.json": "7cb3520d263144614a809b98dc720b65ca60f91bf0d9d3a71918aebb0e599f07",
    }

    def test_a_csv_that_needs_the_csv_module_is_pinned(self, tmp_path):
        lines = ['"date","confirmed","deaths"', '2020-03-22,10,"1"', "2020-03-23,12,1", "",
                 "2020-03-24,15", '2020-03-26,"19",2'] + [
            f"2020-03-{day},{day},{day // 9}" for day in range(27, 32)]
        export = tmp_path / "export.csv"
        export.write_bytes(("\ufeff" + "\r\n".join(lines) + "\r\n").encode("utf-8"))
        out = tmp_path / "a"
        assert main(["ingest", "--data", str(export), "--output-dir", str(out)]) == 0
        for name, expected in self.EXPORT_DIGESTS.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == expected, name

    def test_edge_missing_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "edge.csv"
        bad.write_text("date,v,w\n2020-03-22,1,NA\n2020-03-23,2,3\n", encoding="utf-8")
        assert main(["ingest", "--data", str(bad), "--output-dir", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert str(bad) in err and "'w'" in err and "'v'" not in err

    @pytest.mark.parametrize("flag, leaf", [("--output-dir", "out_edge"),
                                            ("--output-root", "runs")])
    def test_failed_ingest_leaves_no_output_dir(self, tmp_path, flag, leaf):
        bad = tmp_path / "edge.csv"
        bad.write_text("date,v\n2020-03-22,1\n2020-03-23,NA\n", encoding="utf-8")
        assert main(["ingest", "--data", str(bad), flag, str(tmp_path / leaf)]) == 3
        assert not (tmp_path / leaf).exists()

    def test_region_defaults_to_the_file_stem(self, small_csv, tmp_path, monkeypatch):
        # the same file named by two paths gives the same scaling.json
        monkeypatch.chdir(small_csv.parent)
        for sub, data in (("absolute", str(small_csv)), ("relative", small_csv.name)):
            assert main(["ingest", "--data", data, "--output-dir", str(tmp_path / sub)]) == 0
        written = [(tmp_path / sub / "scaling.json").read_bytes()
                   for sub in ("absolute", "relative")]
        assert written[0] == written[1]
        assert json.loads(written[0])["region_id"] == "cases"

    def test_infinite_cell_exits_3_naming_line_and_column(self, tmp_path, capsys):
        bad = tmp_path / "inf.csv"
        bad.write_text("date,v\n2020-03-22,1\n2020-03-23,inf\n2020-03-24,2\n",
                       encoding="utf-8")
        out = tmp_path / "o"
        assert main(["ingest", "--data", str(bad), "--output-dir", str(out)]) == 3
        err = capsys.readouterr().err
        assert ":3:" in err and "'v'" in err
        assert not (out / "dataset.csv").exists()

    def test_not_utf8_exits_3_naming_file(self, tmp_path, capsys):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes("date,v\n2020-03-22,1\n2020-03-23,2 \u00e9\n".encode("latin-1"))
        assert main(["ingest", "--data", str(bad), "--output-dir", str(tmp_path / "o")]) == 3
        assert str(bad) in capsys.readouterr().err

    def test_repeated_column_name_exits_3_naming_it(self, tmp_path, capsys):
        bad = tmp_path / "twice.csv"
        bad.write_text("date,v,v\n2020-03-22,1,2\n2020-03-23,2,3\n", encoding="utf-8")
        assert main(["ingest", "--data", str(bad), "--output-dir", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert str(bad) in err and "'v'" in err

    def test_crlf_blank_line_and_short_row_ingest_like_the_clean_file(self, tmp_path):
        clean, messy = tmp_path / "clean.csv", tmp_path / "messy.csv"
        clean.write_bytes(b"date,v,w\n2020-03-22,1,5\n2020-03-23,2,\n"
                          b"2020-03-24,3,7\n2020-03-25,4,8\n")
        messy.write_bytes(b"date,v,w\r\n2020-03-22,1,5\r\n\r\n2020-03-23,2\r\n"
                          b"2020-03-24,3,7\r\n2020-03-25,4,8\r\n")
        for path in (clean, messy):
            assert main(["ingest", "--data", str(path), "--split-ratio", "0.5",
                         "--output-dir", str(tmp_path / path.stem)]) == 0
        written = [(tmp_path / name / "dataset.csv").read_bytes() for name in ("clean", "messy")]
        assert written[0] == written[1]

    def test_split_ratio_outside_unit_interval_exits_2_naming_key(self, small_csv, tmp_path,
                                                                   capsys):
        assert main(["ingest", "--data", str(small_csv), "--split-ratio", "1.0",
                     "--output-dir", str(tmp_path / "o")]) == 2
        assert "split_ratio" in capsys.readouterr().err

    def test_empty_split_side_exits_3_naming_ratio_and_rows(self, tmp_path, capsys):
        short = tmp_path / "short.csv"
        short.write_text("date,v\n2020-03-22,1\n2020-03-23,2\n2020-03-24,3\n",
                         encoding="utf-8")
        assert main(["ingest", "--data", str(short), "--split-ratio", "0.2",
                     "--output-dir", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "0.2" in err and "3 rows" in err


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
        from swarmcast.tuning import DEFAULT_SPACE, surrogate_fitness

        seed = 3
        code = main(["tune", "--data-dir", str(artifact), "--surrogate", "hash",
                     "--population", "8", "--iterations", "20", "--seed", str(seed),
                     "--evaluation-budget", "200",
                     "--output-dir", str(tmp_path / "opt")])
        assert code == 0
        report = json.loads((tmp_path / "opt" / "report.json").read_text())
        # the minimum over the cells that fit the default lookback 7
        true_min = min(
            surrogate_fitness(a, seed) for a in enumerate_assignments(DEFAULT_SPACE)
            if a["kernel_size"] + a["pool_size"] <= 8
        )
        assert report["best_loss"] == true_min
        assert len(report["evaluation_log"]) == 72

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

    def test_invalid_recipe_value_exits_2_in_surrogate_mode(self, artifact, tmp_path, capsys):
        # the recipe templates are built before any search, surrogate or not
        assert main(["tune", "--data-dir", str(artifact), "--surrogate", "hash",
                     "--repeat-steps", "0", "--output-dir", str(tmp_path / "t")]) == 2
        assert "repeat_steps" in capsys.readouterr().err
        # ... but after the artifact is read, so a bad data dir is still a data error
        assert main(["tune", "--data-dir", str(tmp_path / "absent"), "--surrogate", "hash",
                     "--repeat-steps", "0", "--output-dir", str(tmp_path / "t")]) == 3

    @pytest.mark.parametrize("rate", ["nan", "inf", "-inf", "0"])
    @pytest.mark.parametrize("command", [
        ["train", "--epochs", "1"], ["tune", "--surrogate", "hash"],
    ], ids=["train", "surrogate-tune"])
    def test_learning_rate_not_finite_and_positive_exits_2(self, artifact, tmp_path, capsys,
                                                           command, rate):
        assert main([*command, "--data-dir", str(artifact), f"--learning-rate={rate}",
                     "--output-dir", str(tmp_path / "t")]) == 2
        assert "learning_rate" in capsys.readouterr().err

    @pytest.mark.parametrize("fraction", ["7", "0", "1", "-0.2", "nan"])
    @pytest.mark.parametrize("fitness", ["surrogate", "real"])
    def test_val_fraction_outside_unit_interval_exits_2(self, artifact, tmp_path, capsys,
                                                        fitness, fraction):
        flags = ["--surrogate", "hash"] if fitness == "surrogate" else ["--fitness-epochs", "1"]
        assert main(["tune", "--data-dir", str(artifact), *flags, f"--val-fraction={fraction}",
                     "--output-dir", str(tmp_path / "t")]) == 2
        assert "val_fraction" in capsys.readouterr().err
        assert not (tmp_path / "t").exists()

    @pytest.mark.parametrize("fitness", ["surrogate", "real"])
    def test_lookback_longer_than_training_split_exits_3(self, artifact, tmp_path, capsys,
                                                         fitness):
        # the artifact's training split has 24 rows
        flags = ["--surrogate", "hash"] if fitness == "surrogate" else ["--fitness-epochs", "1"]
        assert main(["tune", "--data-dir", str(artifact), *flags, "--lookback", "40",
                     "--output-dir", str(tmp_path / "t")]) == 3
        assert "too short for lookback 40" in capsys.readouterr().err
        assert not (tmp_path / "t").exists()

    def test_negative_seed_exits_2_in_tune_but_not_in_train(self, artifact, tmp_path, capsys):
        assert main(["tune", "--data-dir", str(artifact), "--surrogate", "hash", "--seed", "-3",
                     "--output-dir", str(tmp_path / "t")]) == 2
        assert "seed" in capsys.readouterr().err
        # train hashes its seed, so any integer works there
        assert main(["train", "--data-dir", str(artifact), "--epochs", "1", "--seed", "-3",
                     "--output-dir", str(tmp_path / "tr")]) == 0

    def test_no_cell_fitting_the_lookback_exits_2(self, artifact, tmp_path, capsys):
        for flags in (["--lookback", "2"], ["--lookback", "2", "--surrogate", "hash"],
                      ["--lookback", "0", "--surrogate", "hash"]):
            assert main(["tune", "--data-dir", str(artifact), *flags,
                         "--output-dir", str(tmp_path / "t")]) == 2
            assert f"lookback {flags[1]}" in capsys.readouterr().err
            assert not (tmp_path / "t").exists()

    # at these seeds the first row of the first population is a cell that does
    # not fit lookback 7; it must not take the budget's one training
    @pytest.mark.parametrize("seed", [1, 4, 5, 7, 8])
    def test_budget_of_one_trains_a_fitting_cell(self, artifact, tmp_path, seed):
        out = tmp_path / "t"
        assert main(["tune", "--data-dir", str(artifact), "--evaluation-budget", "1",
                     "--population", "4", "--iterations", "1", "--fitness-epochs", "1",
                     "--seed", str(seed), "--output-dir", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        [entry] = report["evaluation_log"]
        assert entry["assignment"] == report["best_assignment"]
        NetworkConfig(kernel_size=entry["assignment"]["kernel_size"],
                      pool_size=entry["assignment"]["pool_size"]).validate_for_lookback(7)

    @pytest.fixture()
    def narrow_space(self, tmp_path):
        """A space in which only kernel 3 of eight fits lookback 7."""
        cfg = tmp_path / "narrow.json"
        cfg.write_text(json.dumps({"space": {
            "n_filters": [32], "kernel_size": [8, 9, 10, 11, 12, 13, 14, 3], "pool_size": [2],
            "lstm_units": [10],
        }}), encoding="utf-8")
        return cfg

    # at these seeds no row of the search lands on the one fitting cell, so
    # only the budget sweep trains it
    @pytest.mark.parametrize("fitness, seed", [
        ("surrogate", 2), ("surrogate", 3), ("surrogate", 4), ("real", 2),
    ])
    def test_budget_sweep_runs_when_the_search_finds_no_fitting_cell(
        self, artifact, tmp_path, narrow_space, fitness, seed
    ):
        out = tmp_path / "t"
        flags = ["--surrogate", "hash"] if fitness == "surrogate" else ["--fitness-epochs", "1"]
        assert main(["tune", "--config", str(narrow_space), "--data-dir", str(artifact),
                     "--population", "4", "--iterations", "1", "--evaluation-budget", "8",
                     "--seed", str(seed), "--output-dir", str(out), *flags]) == 0
        report = json.loads((out / "report.json").read_text())
        [entry] = report["evaluation_log"]
        assert entry["assignment"]["kernel_size"] == 3
        assert report["best_assignment"] == entry["assignment"]
        assert math.isfinite(report["best_loss"])

    def test_unbudgeted_search_finding_no_fitting_cell_exits_4(
        self, artifact, tmp_path, narrow_space, capsys
    ):
        assert main(["tune", "--config", str(narrow_space), "--data-dir", str(artifact),
                     "--surrogate", "hash", "--population", "4", "--iterations", "1",
                     "--seed", "2", "--output-dir", str(tmp_path / "t")]) == 4
        assert "NaN or +inf" in capsys.readouterr().err
        assert not (tmp_path / "t").exists()

    # sha256 of report.json and trace.csv, and the stdout lines before the
    # path, of a surrogate tune over the extended space (population 6,
    # 5 iterations, seed 4), without and with an evaluation budget of 5
    PINNED = {
        ("ga", None): (
            "525f03ac6b2b631d355a609a326ec88ec922f0cd9f3cfb82b47100b9c596b1c0",
            "89fd6b537224cb58cca9773c675510e3b9560b6bc971518089e944261db06eb8",
            "{'n_filters': 64, 'kernel_size': 5, 'pool_size': 3, 'lstm_units': 25,"
            " 'learning_rate': 0.01, 'epochs': 100}", "0.00923122053668464"),
        ("ga", 5): (
            "a5240add493d2fe2c2a2706a1cc43f03e1cf921613eeb5d964fb1c6a9ab33c12",
            "df68d2a9662ed1714f65ee246676a8e0d2e44e09d24b8d5aa5ff2caab26fd11d",
            "{'n_filters': 64, 'kernel_size': 5, 'pool_size': 3, 'lstm_units': 10,"
            " 'learning_rate': 0.01, 'epochs': 50}", "0.16349631247306565"),
        ("gwo", None): (
            "a9ce3894dba72e0b4cac8268dec63bb1cc57694f7fcc09315e900cde1c0382db",
            "74b068ed4f6e44121ae3338933f2fd952753f7619ba8fc23569eae9d3c684cf2",
            "{'n_filters': 64, 'kernel_size': 4, 'pool_size': 3, 'lstm_units': 20,"
            " 'learning_rate': 0.01, 'epochs': 50}", "0.1319146567424589"),
        ("gwo", 5): (
            "77506df72ee09c39199f9efc3de6d862ea839c70a9226af58b72eec7aad366ef",
            "74ba3d86dee163e8ee3754ac3beb4a2f60714d3e34b8285608cc0ba9c6f587a6",
            "{'n_filters': 64, 'kernel_size': 4, 'pool_size': 4, 'lstm_units': 20,"
            " 'learning_rate': 0.0001, 'epochs': 50}", "0.36653343154307877"),
        ("rs-gwo-woa", None): (
            "1e575a767c47025d8d891c98e5ecc370b6595c6a2db5e44d5c25954d5dc3846d",
            "85d28a4574e8aa37df5fef89249612c7d763975bbe539eb7fe6f9071f27b157b",
            "{'n_filters': 64, 'kernel_size': 3, 'pool_size': 3, 'lstm_units': 10,"
            " 'learning_rate': 0.001, 'epochs': 50}", "0.1487825386289536"),
        ("rs-gwo-woa", 5): (
            "defac688ce9f58df21fd1e30a34122cb79c282f534fdb1d17f40f0ed25b70beb",
            "377fd866834808a93d2f2d7a5a3fbbbec4dd0727c97de40ced87166ea62f97df",
            "{'n_filters': 64, 'kernel_size': 3, 'pool_size': 4, 'lstm_units': 10,"
            " 'learning_rate': 0.0001, 'epochs': 50}", "0.2286324564585665"),
        ("woa", None): (
            "058c4827acaa374036853ba69b30795671d8b5c06179d1639d35f6d18de4733c",
            "807f8bd21e4fdc1899c2b44d34c4bed67b14b8aaa64f4e970fb345b4136ac0ef",
            "{'n_filters': 64, 'kernel_size': 3, 'pool_size': 4, 'lstm_units': 20,"
            " 'learning_rate': 0.0001, 'epochs': 50}", "0.12429967041938032"),
        ("woa", 5): (
            "5eacee2d9188a9fc3bcdb98d59d6b7178c74bae36c34fcabed8431fc938142fc",
            "807f8bd21e4fdc1899c2b44d34c4bed67b14b8aaa64f4e970fb345b4136ac0ef",
            "{'n_filters': 64, 'kernel_size': 3, 'pool_size': 4, 'lstm_units': 20,"
            " 'learning_rate': 0.0001, 'epochs': 50}", "0.12429967041938032"),
    }

    @pytest.mark.parametrize("algorithm, budget", sorted(PINNED, key=str), ids=str)
    def test_artifacts_and_stdout_are_pinned(self, artifact, tmp_path, capsys, algorithm,
                                             budget):
        report_sha, trace_sha, best, loss = self.PINNED[algorithm, budget]
        out = tmp_path / "t"
        flags = [] if budget is None else ["--evaluation-budget", str(budget)]
        assert main(["tune", "--data-dir", str(artifact), "--surrogate", "hash",
                     "--extended-space", "--population", "6", "--iterations", "5",
                     "--seed", "4", "--algorithm", algorithm, "--output-dir", str(out),
                     *flags]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"best assignment: {best}", f"best loss: {loss}", f"report: {out / 'report.json'}",
        ]
        for name, expected in (("report.json", report_sha), ("trace.csv", trace_sha)):
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == expected, name
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        timings = (out / "timings.csv").read_text(encoding="utf-8").splitlines()
        assert len(timings) == 1 + len(report["evaluation_log"])

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
        params = ScalingParams(meta["minimum"], meta["maximum"])
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
        params = ScalingParams(meta["minimum"], meta["maximum"])
        direct = network_forward(series[-net.lookback:][:, None], net)[0]
        assert got == pytest.approx(float(inverse_scale([direct], params)[0]), abs=1e-12)

    def test_missing_model_exits_3(self, artifact, tmp_path):
        assert main(["forecast", "--model", str(tmp_path / "nope.json"),
                     "--data-dir", str(artifact), "--steps", "2",
                     "--output-dir", str(tmp_path / "x")]) == 3

    def test_bad_steps_exits_2(self, artifact, tmp_path, capsys):
        # a readable model: the one steps check is iterative_forecast's
        model = tmp_path / "model.json"
        save_model(initialize_network(NetworkConfig(n_filters=2, lstm_units=3), 7), model)
        assert main(["forecast", "--model", str(model),
                     "--data-dir", str(artifact), "--steps", "0",
                     "--output-dir", str(tmp_path / "x")]) == 2
        assert "steps must be at least 1" in capsys.readouterr().err

    def test_a_forecast_past_the_last_date_exits_2_before_any_forward_pass(self, tmp_path,
                                                                          capsys):
        # 100 days ending two days before the last day a date can hold
        first = date.max - timedelta(days=101)
        data, ingest, model = tmp_path / "late.csv", tmp_path / "ing", tmp_path / "m"
        data.write_text("date,v\n" + "".join(f"{first + timedelta(days=i)},{i % 7 + i}\n"
                                             for i in range(100)), encoding="utf-8")
        assert main(["ingest", "--data", str(data), "--output-dir", str(ingest)]) == 0
        assert main(["train", "--data-dir", str(ingest), "--n-filters", "2", "--lstm-units",
                     "3", "--epochs", "1", "--output-dir", str(model)]) == 0
        forecast = ["forecast", "--model", str(model / "model.json"), "--data-dir", str(ingest)]
        assert main([*forecast, "--steps", "2", "--output-dir", str(tmp_path / "fits")]) == 0
        rows = (tmp_path / "fits" / "forecast.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows[1:]] == ["9999-12-30", "9999-12-31"]
        capsys.readouterr()
        spy = mock.Mock(side_effect=cli.iterative_forecast)
        with mock.patch.object(cli, "iterative_forecast", spy):
            assert main([*forecast, "--steps", "3", "--output-dir", str(tmp_path / "x")]) == 2
        assert spy.call_count == 0
        assert capsys.readouterr().err == (
            "config error: --steps 3 runs past 9999-12-31: the artifact's last day is"
            " 9999-12-29, so at most 2 steps fit\n")
        assert not (tmp_path / "x").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
    def test_divergence_exits_4(self, artifact, tmp_path):
        code = main(["train", "--data-dir", str(artifact),
                     "--n-filters", "2", "--kernel-size", "3", "--pool-size", "2",
                     "--lstm-units", "3", "--epochs", "5", "--seed", "3",
                     "--optimizer", "sgd", "--learning-rate", "1e14",
                     "--output-dir", str(tmp_path / "dv")])
        assert code == 4

    def test_identity_activation_trains_and_evaluates(self, artifact, tmp_path):
        # every activation the network knows is a choice, from a flag or a config file
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"conv_activation": "identity"}), encoding="utf-8")
        for flags, out in ((["--conv-activation", "identity"], "flag"),
                           (["--config", str(cfg)], "config")):
            assert main(["train", "--data-dir", str(artifact), *flags, "--n-filters", "2",
                         "--lstm-units", "3", "--epochs", "2", "--seed", "4",
                         "--output-dir", str(tmp_path / out)]) == 0
            model = tmp_path / out / "model.json"
            assert load_model(model).config.conv_activation == "identity"
            assert main(["evaluate", "--model", str(model), "--data-dir", str(artifact),
                         "--output-dir", str(tmp_path / f"{out}-ev")]) == 0

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

    def test_horizon_two_evaluate_is_pinned(self, tmp_path, capsys):
        # the sample data splits at row 128 (2020-07-28); each test window
        # predicts two days, so its rows are steps 1 and 2 of one window
        ingest, model, ev = tmp_path / "ing", tmp_path / "m", tmp_path / "ev"
        assert main(["ingest", "--data", str(SAMPLE_CSV), "--output-dir", str(ingest)]) == 0
        assert main(["train", "--data-dir", str(ingest), "--horizon", "2", "--n-filters", "2",
                     "--lstm-units", "3", "--epochs", "2", "--seed", "4",
                     "--output-dir", str(model)]) == 0
        capsys.readouterr()
        assert main(["evaluate", "--model", str(model / "model.json"),
                     "--data-dir", str(ingest), "--output-dir", str(ev)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "variable: confirmed", "test mse (scaled): 0.5075957800496046",
            f"metrics: {ev / 'metrics.json'}",
        ]
        for name, expected in (
            ("metrics.json", "242c5ec7e3386c59672b3da5719855c558695137a2c4beaf6dccadd2ce77b484"),
            ("predictions.csv", "bb0a9b5a3eb8a8794b8a4be6fd846fc3396161449463a7950b2d4ca857d8e8c3"),
        ):
            assert hashlib.sha256((ev / name).read_bytes()).hexdigest() == expected, name
        rows = (ev / "predictions.csv").read_text().splitlines()[1:3]
        assert [row.split(",")[:2] for row in rows] == [["2020-07-28", "1"], ["2020-07-29", "2"]]


def long_series_csv(days: int = 2000) -> str:
    """A daily CSV of three series over ``days`` days, with calendar gaps
    and blank cells (never on the first or last day):

    - ``drift`` falls through zero on a 1e-7 scale, so its test days scale
      below 0 and its values in original units print with ``-`` and an
      exponent;
    - ``rising`` grows, so its test days scale above 1;
    - ``spiky`` is small but for one training day of 1e6, so its scaled
      values print with an exponent.
    """
    rng = np.random.default_rng(2000)
    start = date(1990, 1, 1)
    lines = ["date,drift,rising,spiky"]
    for day in range(days):
        edge = day in (0, days - 1)
        if not edge and rng.random() < 0.02:
            continue  # a calendar gap
        t = day / days
        cells = [
            repr((600 - 1000 * t + 40 * math.sin(day / 9) + rng.normal(0, 15)) * 1e-9),
            str(round(100 + 900 * t + 60 * math.sin(day / 5) + rng.normal(0, 20))),
            "1000000" if day == 300 else repr(round(rng.uniform(0, 10), 3)),
        ]
        lines.append(f"{start + timedelta(days=day)},"
                     + ",".join("" if not edge and rng.random() < 0.01 else c for c in cells))
    return "\n".join(lines) + "\n"


class TestLongPipeline:
    """The bytes of a long pipeline: ingest, train at horizons 1 and 2,
    evaluate both models and forecast with the first."""

    DIGESTS = {
        "dataset.csv": "851a2d9f76162ba024904a1d9b66f793cce69a1109312d46aef1d66bc27c5e87",
        "predictions-h1.csv": "8b1bcf8ce20d2315f87477a890e6480745c7181ed8fa925d5bc6963ca427fc99",
        "predictions-h2.csv": "b6ee49dfa964de4c1d59c0e082dbb170c1e3f1d429577ecfe97ff23c1a880223",
        "forecast.csv": "80cc72fde7a1ce3b06f4a21d2dbb1556d7ac09a192017d981abd0089063f04c0",
    }

    def test_artifacts_are_pinned(self, tmp_path, capsys):
        data = tmp_path / "long.csv"
        data.write_text(long_series_csv(), encoding="utf-8")
        ingest = tmp_path / "ingest"
        assert main(["ingest", "--data", str(data), "--output-dir", str(ingest)]) == 0
        assert capsys.readouterr().out.splitlines()[:3] == [
            "rows: 2000 (1990-01-01 .. 1995-06-23)", "imputed: 182", "split: train 1600 / test 400"]
        written = {"dataset.csv": ingest / "dataset.csv"}
        # the data reach what the change must keep: negative reprs and exponents
        body = (ingest / "dataset.csv").read_text(encoding="utf-8")
        assert ",-" in body and "e-" in body
        for horizon in (1, 2):
            model, ev = tmp_path / f"model-{horizon}", tmp_path / f"ev-{horizon}"
            assert main(["train", "--data-dir", str(ingest), "--horizon", str(horizon),
                         "--n-filters", "2", "--lstm-units", "3", "--epochs", "1",
                         "--seed", "4", "--output-dir", str(model)]) == 0
            assert main(["evaluate", "--model", str(model / "model.json"),
                         "--data-dir", str(ingest), "--output-dir", str(ev)]) == 0
            written[f"predictions-h{horizon}.csv"] = ev / "predictions.csv"
        forecast = tmp_path / "forecast"
        assert main(["forecast", "--model", str(tmp_path / "model-1" / "model.json"),
                     "--data-dir", str(ingest), "--steps", "30",
                     "--output-dir", str(forecast)]) == 0
        written["forecast.csv"] = forecast / "forecast.csv"
        for name, path in written.items():
            assert hashlib.sha256(path.read_bytes()).hexdigest() == self.DIGESTS[name], name


def _encoded(*values) -> dict:
    """A model file's encoding of a 1-d weight array."""
    data = np.array(values, dtype="<f8").tobytes()
    return {"shape": [len(values)], "data": base64.b64encode(data).decode("ascii")}


class TestModelFileChecks:
    """load_model rejects every malformed model file with exit 3, naming it."""

    @staticmethod
    def model_doc(tmp_path):
        path = tmp_path / "model.json"
        save_model(initialize_network(NetworkConfig(n_filters=2, lstm_units=3), 7), path)
        return json.loads(path.read_text())

    def run_evaluate(self, artifact, tmp_path, model_path, capsys):
        code = main(["evaluate", "--model", str(model_path), "--data-dir", str(artifact),
                     "--output-dir", str(tmp_path / "ev")])
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("content", [None, "{not json"], ids=["missing", "invalid-json"])
    def test_unreadable_file_exits_3_naming_it(self, artifact, tmp_path, capsys, content):
        path = tmp_path / "model.json"
        if content is not None:
            path.write_text(content, encoding="utf-8")
        code, err = self.run_evaluate(artifact, tmp_path, path, capsys)
        assert code == 3
        assert str(path) in err

    @pytest.mark.parametrize("mutate, named", [
        (lambda doc: doc.pop("weights"), "'weights'"),
        (lambda doc: doc.pop("loss_history"), "'loss_history'"),
        (lambda doc: doc["weights"].pop("input_b"), "'input_b'"),
        (lambda doc: doc["config"].update(dropout=0.5), "'dropout'"),
        # a one-entry blob would broadcast into the (3,) view unnoticed
        (lambda doc: doc["weights"].update(
            output_b={"shape": [1], "data": "AAAAAAAA8D8="}), "'output_b'"),
        (lambda doc: doc["weights"]["dense_w"].update(data="AAAA"), "'dense_w'"),
        # a count is a JSON integer >= 1, never truncated
        (lambda doc: doc["config"].update(n_filters=2.5), "'config.n_filters'"),
        (lambda doc: doc["config"].update(n_filters=2.0), "'config.n_filters'"),
        (lambda doc: doc["config"].update(n_filters=True), "'config.n_filters'"),
        (lambda doc: doc.update(lookback=7.9), "'lookback'"),
        # every weight and loss is finite, and a loss is a JSON number
        (lambda doc: doc["weights"].update(dense_b=_encoded(math.nan)), "'dense_b'"),
        (lambda doc: doc["weights"].update(candidate_b=_encoded(0.0, -math.inf, 0.0)),
         "'candidate_b'"),
        (lambda doc: doc.update(loss_history=[0.5, math.nan]), "'loss_history'"),
        (lambda doc: doc.update(loss_history=["1.5"]), "'loss_history'"),
        (lambda doc: doc.update(loss_history=[True]), "'loss_history'"),
        (lambda doc: doc.update(loss_history=[10**400]), "'loss_history'"),
        # every config field is required: a default would load another model
        (lambda doc: doc["config"].pop("conv_activation"), "'config.conv_activation'"),
        (lambda doc: doc["config"].update(conv_activation=["relu"]), "'config.conv_activation'"),
        (lambda doc: doc["config"].pop("seed"), "'config.seed'"),
        (lambda doc: doc["config"].update(seed="x"), "'config.seed'"),
        (lambda doc: doc["config"].update(seed=-1), "'config.seed'"),
        # 4e12 weights, or 1e12 LSTM steps: refused by arithmetic (see
        # TestNetworkSize), not by a failed allocation
        (lambda doc: doc["config"].update(lstm_units=10**6), "'config'"),
        (lambda doc: doc["config"].update(repeat_steps=10**12), "'config'"),
    ], ids=["no-weights", "no-loss-history", "no-weight-key", "unknown-config-key",
            "wrong-shape", "short-data", "fractional-count", "integral-float-count",
            "bool-count", "fractional-lookback", "nan-weight", "infinite-weight",
            "nan-loss", "string-loss", "bool-loss", "float-overflowing-loss",
            "no-conv-activation", "list-conv-activation", "no-seed", "string-seed",
            "negative-seed", "million-units", "huge-repeat-steps"])
    def test_malformed_model_exits_3_naming_file_and_key(self, artifact, tmp_path, capsys,
                                                          mutate, named):
        doc = self.model_doc(tmp_path)
        mutate(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, err = self.run_evaluate(artifact, tmp_path, path, capsys)
        assert code == 3
        assert str(path) in err and named in err

    def test_shapes_are_compared_before_the_buffer_is_allocated(self, artifact, tmp_path,
                                                                capsys, monkeypatch):
        doc = self.model_doc(tmp_path)
        doc["config"]["lstm_units"] = 4  # the blobs hold 3 units
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")

        def allocate(*args):
            raise AssertionError("allocated a weight buffer before comparing shapes")

        monkeypatch.setattr(network, "_FlatParams", allocate)
        code, err = self.run_evaluate(artifact, tmp_path, path, capsys)
        assert code == 3
        assert str(path) in err and "'forget_w'" in err


class TestNetworkSize:
    """A network too large to allocate ends in one stderr line and a documented
    exit code, also from a model file (see TestModelFileChecks). Every size
    here would need more than 2**47 bytes, so it fails at once even where the
    host overcommits memory."""

    @pytest.mark.parametrize("units", [10**7, 10**12])
    def test_report_with_huge_lstm_units_exits_2_naming_it(self, artifact, tmp_path, capsys,
                                                           units):
        best = {"n_filters": 2, "kernel_size": 3, "pool_size": 2, "lstm_units": units}
        report = tmp_path / "report.json"
        report.write_text(json.dumps({"best_assignment": best, "lookback": 7, "horizon": 1}),
                          encoding="utf-8")
        assert TestTrainFromTuning().train(artifact, tmp_path, report) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and str(report) in err and "exceed " in err

    def test_huge_lstm_units_flag_exits_2(self, artifact, tmp_path, capsys):
        assert main(["train", "--data-dir", str(artifact), "--lstm-units", str(10**12),
                     "--epochs", "1", "--output-dir", str(tmp_path / "t")]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "exceed " in err

    @pytest.mark.parametrize("fitness", ["surrogate", "real"])
    def test_grid_cell_too_large_exits_2_before_any_training(self, artifact, tmp_path, capsys,
                                                             monkeypatch, fitness):
        def never(*args):
            raise AssertionError("a cell was trained")

        monkeypatch.setattr(tuning, "train", never)
        cfg = tmp_path / "space.json"
        cfg.write_text(json.dumps({"space": {
            "n_filters": [2], "kernel_size": [3], "pool_size": [2], "lstm_units": [3, 10**8],
        }}), encoding="utf-8")
        flags = ["--surrogate", "hash"] if fitness == "surrogate" else ["--fitness-epochs", "1"]
        assert main(["tune", "--config", str(cfg), "--data-dir", str(artifact), *flags,
                     "--output-dir", str(tmp_path / "t")]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "'lstm_units': 100000000" in err
        assert "300000000 LSTM states per window exceed 1073741824" in err
        assert not (tmp_path / "t").exists()

    def test_out_of_memory_exits_5_with_one_line(self, artifact, tmp_path, capsys,
                                                 monkeypatch):
        def initialize(*args):
            raise MemoryError("Unable to allocate 1.00 PiB")

        monkeypatch.setattr(cli, "initialize_network", initialize)
        assert main(["train", "--data-dir", str(artifact), "--epochs", "1",
                     "--output-dir", str(tmp_path / "t")]) == 5
        assert capsys.readouterr().err == "memory error: Unable to allocate 1.00 PiB\n"
        assert not (tmp_path / "t").exists()


class TestArtifactChecks:
    """read_artifact rejects a malformed scaling.json with exit 3, naming it and the key."""

    @pytest.mark.parametrize("mutate, named", [
        (lambda text: "{oops", "not valid JSON"),
        (lambda text: _drop(text, "split_index"), "'split_index'"),
        (lambda text: _drop(text, "n_rows"), "'n_rows'"),
        (lambda text: _drop(text, "variables"), "'variables'"),
        (lambda text: _drop(text, "variables", "confirmed"), "'variables.confirmed."),
        (lambda text: _drop(text, "variables", "confirmed", "minimum"),
         "'variables.confirmed.minimum'"),
        (lambda text: _drop(text, "variables", "confirmed", "maximum"),
         "'variables.confirmed.maximum'"),
        (lambda text: _drop(text, "variables", "confirmed", "degenerate"),
         "'variables.confirmed.degenerate'"),
        (lambda text: _drop(text, "split_ratio"), "'split_ratio'"),
        # the sample ingest splits at 0.8; another ratio would split elsewhere
        (lambda text: json.dumps(json.loads(text) | {"split_ratio": 0.5}), "'split_ratio'"),
        (lambda text: json.dumps(json.loads(text) | {"split_ratio": "abc"}), "'split_ratio'"),
    ], ids=["invalid-json", "no-split-index", "no-n-rows", "no-variables", "no-variable-entry",
            "no-minimum", "no-maximum", "no-degenerate", "no-split-ratio",
            "split-ratio-disagrees", "split-ratio-string"])
    def test_bad_scaling_file_exits_3_naming_file_and_key(self, artifact, tmp_path, capsys,
                                                          mutate, named):
        scaling = artifact / "scaling.json"
        scaling.write_text(mutate(scaling.read_text(encoding="utf-8")), encoding="utf-8")
        code = main(["train", "--data-dir", str(artifact), "--epochs", "1",
                     "--output-dir", str(tmp_path / "t")])
        err = capsys.readouterr().err
        assert code == 3
        assert str(scaling) in err and named in err

    @staticmethod
    def train_after(artifact, tmp_path, capsys, edit):
        """``train``'s exit code and stderr once ``edit`` changed scaling.json."""
        scaling = artifact / "scaling.json"
        doc = json.loads(scaling.read_text(encoding="utf-8"))
        edit(doc)
        scaling.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["train", "--data-dir", str(artifact), "--epochs", "1", "--n-filters", "2",
                     "--lstm-units", "2", "--output-dir", str(tmp_path / "t")])
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        lambda entry: entry.update(degenerate=True),
        lambda entry: entry.update(minimum=entry["maximum"]),
    ], ids=["forged-true", "constant-but-false"])
    def test_degenerate_flag_must_equal_minimum_equals_maximum(self, artifact, tmp_path,
                                                               capsys, edit):
        code, err = self.train_after(artifact, tmp_path, capsys,
                                     lambda doc: edit(doc["variables"]["confirmed"]))
        assert code == 3
        assert str(artifact / "scaling.json") in err
        assert "'variables.confirmed.degenerate'" in err

    # the split must leave rows on both sides; a bool is not an integer
    @pytest.mark.parametrize("value", [-5, 0, "n_rows", 1_000_000, True],
                             ids=["negative", "zero", "row-count", "million", "true"])
    def test_split_index_out_of_range_exits_3_naming_it(self, artifact, tmp_path, capsys,
                                                        value):
        def edit(doc):
            doc["split_index"] = doc["n_rows"] if value == "n_rows" else value

        code, err = self.train_after(artifact, tmp_path, capsys, edit)
        assert code == 3
        assert str(artifact / "scaling.json") in err and "'split_index'" in err

    @pytest.mark.parametrize("key, value", [
        ("minimum", "0"), ("minimum", None), ("maximum", True), ("maximum", math.nan),
        pytest.param("maximum", 10**400, id="maximum-10**400"),
        ("degenerate", "no"), ("degenerate", 0),
    ])
    def test_mistyped_scaling_entry_exits_3_naming_it(self, artifact, tmp_path, capsys,
                                                      key, value):
        def edit(doc):
            doc["variables"]["confirmed"][key] = value

        code, err = self.train_after(artifact, tmp_path, capsys, edit)
        assert code == 3
        assert str(artifact / "scaling.json") in err and f"'variables.confirmed.{key}'" in err

    def test_maximum_below_minimum_exits_3_naming_variable(self, artifact, tmp_path, capsys):
        def edit(doc):
            doc["variables"]["confirmed"]["maximum"] = -1.0

        code, err = self.train_after(artifact, tmp_path, capsys, edit)
        assert code == 3
        assert str(artifact / "scaling.json") in err and "'variables.confirmed'" in err
        assert "maximum -1.0 below minimum" in err

    def test_unreadable_scaling_file_exits_3_naming_it(self, artifact, tmp_path, capsys):
        scaling = artifact / "scaling.json"
        scaling.unlink()
        scaling.mkdir()
        assert main(["train", "--data-dir", str(artifact), "--epochs", "1",
                     "--output-dir", str(tmp_path / "t")]) == 3
        assert str(scaling) in capsys.readouterr().err

    # ingest writes every day with a value: a blank cell or a deleted row
    # (a calendar gap) in the target column is a damaged artifact
    @pytest.mark.parametrize("day, edit", [
        ("2020-03-25", "blank"), ("2020-03-26", "delete"), ("2020-04-18", "blank"),
        ("2020-04-21", "blank"),
    ], ids=["blank-train", "deleted-row", "blank-test", "blank-last"])
    @pytest.mark.parametrize("command", ["train", "evaluate", "forecast"])
    @pytest.mark.parametrize("read", READS)
    def test_day_without_value_exits_3_naming_file_variable_and_date(
            self, artifact, tmp_path, capsys, command, day, edit, read):
        drop_f8(artifact, read)
        dataset = artifact / "dataset.csv"
        lines = dataset.read_text(encoding="utf-8").splitlines(keepends=True)
        at = next(i for i, line in enumerate(lines) if line.startswith(day))
        lines[at:at + 1] = [] if edit == "delete" else [f"{day},\n"]
        dataset.write_text("".join(lines), encoding="utf-8")
        model = tmp_path / "model.json"
        save_model(initialize_network(NetworkConfig(n_filters=2, lstm_units=3), 7), model)
        flags = {"train": ["--epochs", "1", "--n-filters", "2", "--lstm-units", "2"],
                 "evaluate": ["--model", str(model)],
                 "forecast": ["--model", str(model), "--steps", "2"]}[command]
        assert main([command, "--data-dir", str(artifact), *flags,
                     "--output-dir", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert f"{dataset}: variable 'confirmed' has no value on {day}" in err
        assert not (tmp_path / "out").exists()

    # the artifact holds 31 days; without its first or last one every day
    # still has a value, so only scaling.json's n_rows tells
    @pytest.mark.parametrize("row", [1, -1], ids=["first", "last"])
    @pytest.mark.parametrize("command", ["train", "evaluate", "forecast"])
    @pytest.mark.parametrize("read", READS)
    def test_deleted_first_or_last_day_exits_3_naming_n_rows_and_both_counts(
            self, artifact, tmp_path, capsys, command, row, read):
        drop_f8(artifact, read)
        dataset = artifact / "dataset.csv"
        lines = dataset.read_text(encoding="utf-8").splitlines(keepends=True)
        del lines[row]
        dataset.write_text("".join(lines), encoding="utf-8")
        model = tmp_path / "model.json"
        save_model(initialize_network(NetworkConfig(n_filters=2, lstm_units=3), 7), model)
        flags = {"train": ["--epochs", "1", "--n-filters", "2", "--lstm-units", "2"],
                 "evaluate": ["--model", str(model)],
                 "forecast": ["--model", str(model), "--steps", "2"]}[command]
        assert main([command, "--data-dir", str(artifact), *flags,
                     "--output-dir", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert f"{artifact / 'scaling.json'}: 'n_rows' is 31, but {dataset} has 30 days" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("read", READS)
    def test_dataset_not_utf8_exits_3_naming_file(self, artifact, tmp_path, capsys, read):
        drop_f8(artifact, read)
        dataset = artifact / "dataset.csv"
        dataset.write_bytes(dataset.read_bytes().replace(b"date", "d\u00e4te".encode("latin-1")))
        assert main(["train", "--data-dir", str(artifact), "--epochs", "1",
                     "--output-dir", str(tmp_path / "t")]) == 3
        assert str(dataset) in capsys.readouterr().err

    @staticmethod
    def set_values(artifact, read, values: dict[str, float]):
        """Give dataset.csv ``values`` (day -> value) and, for the ``with-f8``
        read, a dataset.f8 whose digest matches it, as ingest would write."""
        dataset = artifact / "dataset.csv"
        lines = dataset.read_text(encoding="utf-8").splitlines(keepends=True)
        for i, line in enumerate(lines):
            day = line.split(",", 1)[0]
            if day in values:
                lines[i] = f"{day},{values[day]!r}\n"
        dataset.write_text("".join(lines), encoding="utf-8")
        if read == "with-f8":
            days, variables = load_csv(dataset)
            write_packed(artifact / "dataset.f8", np.array(list(variables.values())))
            assert read_packed(dataset, ["confirmed"], "confirmed", len(days)) is not None
        else:
            (artifact / "dataset.f8").unlink()

    # ingest scales the 24 training days (2020-03-22 .. 2020-04-14) by their
    # own minimum and maximum, so each lies in [0, 1]; a test day may not
    @pytest.mark.parametrize("values, named", [
        ({"2020-03-25": -5.0, "2020-04-02": 1e300}, "is -5.0 on training day 2020-03-25"),
        ({"2020-04-02": 1e300}, "is 1e+300 on training day 2020-04-02"),
        ({"2020-04-14": 1.0000000000000002}, "is 1.0000000000000002 on training day 2020-04-14"),
    ], ids=["negative-and-huge", "huge", "just-above-one"])
    @pytest.mark.parametrize("command", ["train", "evaluate", "forecast"])
    @pytest.mark.parametrize("read", READS)
    def test_training_value_outside_unit_interval_exits_3_naming_file_variable_and_date(
            self, artifact, tmp_path, capsys, command, read, values, named):
        self.set_values(artifact, read, values)
        model = tmp_path / "model.json"
        save_model(initialize_network(NetworkConfig(n_filters=2, lstm_units=3), 7), model)
        flags = {"train": ["--epochs", "1", "--n-filters", "2", "--lstm-units", "2"],
                 "evaluate": ["--model", str(model)],
                 "forecast": ["--model", str(model), "--steps", "2"]}[command]
        assert main([command, "--data-dir", str(artifact), *flags,
                     "--output-dir", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert f"{artifact / 'dataset.csv'}: variable 'confirmed' {named}, outside [0, 1]" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train", "evaluate", "forecast"])
    @pytest.mark.parametrize("read", READS)
    def test_test_values_may_lie_outside_unit_interval(self, artifact, tmp_path, command,
                                                       read):
        self.set_values(artifact, read, {"2020-04-15": -5.0, "2020-04-21": 3.5})
        model = tmp_path / "model.json"
        save_model(initialize_network(NetworkConfig(n_filters=2, lstm_units=3), 7), model)
        flags = {"train": ["--epochs", "1", "--n-filters", "2", "--lstm-units", "2"],
                 "evaluate": ["--model", str(model)],
                 "forecast": ["--model", str(model), "--steps", "2"]}[command]
        assert main([command, "--data-dir", str(artifact), *flags,
                     "--output-dir", str(tmp_path / "out")]) == 0


class TestOverLongCell:
    """A cell longer than the csv module's field size limit is a data error
    naming the file and the line its row starts on (exit 3), in every reader."""

    LONG = "9" * (csv.field_size_limit() + 1)
    MESSAGE = f"field larger than field limit ({csv.field_size_limit()})"

    @pytest.mark.parametrize("text, line", [
        (f"date,v\n2020-03-22,1\n2020-03-23,{LONG}\n", 3),
        (f'date,v\n2020-03-22,1\n2020-03-23,"{LONG}"\n', 3),
        (f'date,v\n2020-03-22,"1\n"\n2020-03-23,{LONG}\n', 4),
        (f"date,{LONG}\n2020-03-22,1\n", 1),
    ], ids=["unquoted", "quoted", "after-multiline-cell", "header"])
    def test_ingest_exits_3_naming_file_and_line(self, tmp_path, capsys, text, line):
        data = tmp_path / "long.csv"
        data.write_text(text, encoding="utf-8")
        assert main(["ingest", "--data", str(data), "--output-dir", str(tmp_path / "o")]) == 3
        assert f"{data}:{line}: {self.MESSAGE}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("quote", ["", '"'], ids=["unquoted", "quoted"])
    def test_compare_exits_3_naming_file_and_line(self, tmp_path, capsys, quote):
        scores = tmp_path / "scores.csv"
        scores.write_text(f"test,a,b\nt1,1,2\nt2,{quote}{self.LONG}{quote},1\n",
                          encoding="utf-8")
        assert main(["compare", "--scores", str(scores), "--output-dir", str(tmp_path / "o")]) == 3
        assert f"{scores}:3: {self.MESSAGE}" in capsys.readouterr().err

    @pytest.mark.parametrize("read", READS)
    def test_forecast_exits_3_naming_the_artifacts_file_and_line(self, artifact, tmp_path,
                                                                  capsys, read):
        drop_f8(artifact, read)
        dataset = artifact / "dataset.csv"
        lines = dataset.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[5] = lines[5].rstrip("\n") + "0" * len(self.LONG) + "\n"
        dataset.write_text("".join(lines), encoding="utf-8")
        model = tmp_path / "model.json"
        save_model(initialize_network(NetworkConfig(n_filters=2, lstm_units=3), 7), model)
        assert main(["forecast", "--model", str(model), "--data-dir", str(artifact),
                     "--steps", "2", "--output-dir", str(tmp_path / "out")]) == 3
        assert f"{dataset}:6: {self.MESSAGE}" in capsys.readouterr().err


class TestArtifactVariables:
    """read_artifact parses only the target column, yet checks every
    variable's scaling entry and names the artifact's variables."""

    @pytest.fixture()
    def three(self, tmp_path):
        lines = ["date,a,b,c"] + [f"2020-03-{d:02d},{d},{2 * d},{d % 5}" for d in range(1, 29)]
        path = tmp_path / "three.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "three"
        assert main(["ingest", "--data", str(path), "--output-dir", str(out)]) == 0
        return out

    def train(self, artifact, tmp_path, *extra):
        return main(["train", "--data-dir", str(artifact), "--epochs", "1", "--n-filters", "2",
                     "--lstm-units", "2", "--output-dir", str(tmp_path / "t"), *extra])

    def test_non_target_scaling_entry_is_still_checked(self, three, tmp_path, capsys):
        scaling = three / "scaling.json"
        scaling.write_text(_drop(scaling.read_text(encoding="utf-8"),
                                 "variables", "c", "minimum"), encoding="utf-8")
        assert self.train(three, tmp_path, "--variable", "a") == 3
        err = capsys.readouterr().err
        assert str(scaling) in err and "'variables.c.minimum'" in err

    def test_non_target_maximum_below_minimum_exits_3(self, three, tmp_path, capsys):
        scaling = three / "scaling.json"
        doc = json.loads(scaling.read_text(encoding="utf-8"))
        doc["variables"]["c"]["maximum"] = doc["variables"]["c"]["minimum"] - 1.0
        scaling.write_text(json.dumps(doc), encoding="utf-8")
        assert self.train(three, tmp_path, "--variable", "a") == 3
        err = capsys.readouterr().err
        assert str(scaling) in err and "'variables.c'" in err and "below minimum" in err

    def test_unknown_variable_exits_2_listing_all_three(self, three, tmp_path, capsys):
        assert self.train(three, tmp_path, "--variable", "nope") == 2
        assert "'nope'" in (err := capsys.readouterr().err) and "['a', 'b', 'c']" in err

    def test_first_column_by_default(self, three, tmp_path, capsys):
        assert self.train(three, tmp_path) == 0
        assert "variable: a" in capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize("read", READS)
    def test_only_the_target_column_is_parsed(self, three, tmp_path, capsys, read):
        drop_f8(three, read)
        dataset = three / "dataset.csv"
        lines = dataset.read_text(encoding="utf-8").splitlines()
        lines[5] = lines[5].rsplit(",", 1)[0] + ",oops"  # a bad cell in column c
        dataset.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert self.train(three, tmp_path, "--variable", "b") == 0
        assert self.train(three, tmp_path, "--variable", "c") == 3
        assert f"{dataset}:6: non-numeric value 'oops' in column 'c'" in capsys.readouterr().err


def _drop(text, *path):
    """The JSON document ``text`` without the entry at ``path``."""
    doc = json.loads(text)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    del parent[path[-1]]
    return json.dumps(doc)


class TestTrainFromTuning:
    def train(self, artifact, tmp_path, report, *flags):
        return main(["train", "--data-dir", str(artifact), "--from-tuning", str(report),
                     "--epochs", "1", "--output-dir", str(tmp_path / "t"), *flags])

    def test_report_not_json_exits_3_naming_file(self, artifact, tmp_path, capsys):
        report = tmp_path / "report.json"
        report.write_text("best: none", encoding="utf-8")
        assert self.train(artifact, tmp_path, report) == 3
        assert str(report) in capsys.readouterr().err

    @pytest.mark.parametrize("doc, named", [
        ({"best_loss": 0.1}, "best_assignment"),
        ({"best_assignment": {"n_filters": 2, "kernel_size": 3, "pool_size": 2}}, "lstm_units"),
        ({"best_assignment": {"n_filters": 2, "kernel_size": 3, "pool_size": 2, "lstm_units": 3},
          "horizon": 1}, "'lookback'"),
    ], ids=["no-best-assignment", "no-lstm-units", "no-lookback"])
    def test_report_missing_key_exits_3_naming_it(self, artifact, tmp_path, capsys, doc, named):
        report = tmp_path / "report.json"
        report.write_text(json.dumps(doc), encoding="utf-8")
        assert self.train(artifact, tmp_path, report) == 3
        err = capsys.readouterr().err
        assert str(report) in err and named in err

    # counts are JSON integers >= 1 and a learning rate a number > 0, never truncated
    @pytest.mark.parametrize("key, value", [
        ("n_filters", "x"), ("learning_rate", None), ("n_filters", 0), ("n_filters", 2.7),
        ("lstm_units", 3.0), ("kernel_size", True), ("epochs", 0), ("learning_rate", 0),
        ("learning_rate", -0.1),
    ])
    def test_report_value_not_a_number_exits_3_naming_file_and_key(
        self, artifact, tmp_path, capsys, key, value
    ):
        best = {"n_filters": 2, "kernel_size": 3, "pool_size": 2, "lstm_units": 3, key: value}
        report = tmp_path / "report.json"
        report.write_text(json.dumps({"best_assignment": best}), encoding="utf-8")
        assert self.train(artifact, tmp_path, report) == 3
        err = capsys.readouterr().err
        assert str(report) in err and key in err

    @pytest.fixture()
    def tuned(self, artifact, tmp_path):
        """A surrogate tune at the given options, over kernels that fit lookbacks 7 to 14."""
        cfg = tmp_path / "space.json"
        cfg.write_text(json.dumps({"space": {
            "n_filters": [2], "kernel_size": [2, 3], "pool_size": [2], "lstm_units": [2],
        }}), encoding="utf-8")

        def tune(*flags):
            out = tmp_path / "tune"
            assert main(["tune", "--config", str(cfg), "--data-dir", str(artifact),
                         "--surrogate", "hash", "--population", "4", "--iterations", "1",
                         "--output-dir", str(out), *flags]) == 0
            return out / "report.json"

        return tune

    @pytest.mark.parametrize("tuned_at, trained_at, named", [
        (["--lookback", "14", "--horizon", "2"], [], ("lookback 14", "lookback 7")),
        (["--horizon", "2"], [], ("horizon 2", "horizon 1")),
        (["--lookback", "14"], ["--lookback", "8"], ("lookback 14", "lookback 8")),
    ], ids=["both", "horizon", "lookback"])
    def test_lookback_or_horizon_unlike_the_reports_exits_2_naming_both(
        self, artifact, tmp_path, capsys, tuned, tuned_at, trained_at, named
    ):
        report = tuned(*tuned_at)
        capsys.readouterr()
        assert self.train(artifact, tmp_path, report, *trained_at) == 2
        err = capsys.readouterr().err
        assert str(report) in err and all(value in err for value in named)

    def test_lookback_and_horizon_like_the_reports_train(self, artifact, tmp_path, tuned):
        report = tuned("--lookback", "14", "--horizon", "2")
        assert self.train(artifact, tmp_path, report, "--lookback", "14", "--horizon", "2") == 0

    @staticmethod
    def edit_best(report, **values):
        doc = json.loads(report.read_text(encoding="utf-8"))
        doc["best_assignment"].update(values)
        report.write_text(json.dumps(doc), encoding="utf-8")

    def test_unknown_dimension_exits_3_listing_allowed(self, artifact, tmp_path, capsys, tuned):
        # an extra key would enter the cell's seed and train another model
        report = tuned()
        self.edit_best(report, epoch=1)
        capsys.readouterr()
        assert self.train(artifact, tmp_path, report) == 3
        err = capsys.readouterr().err
        assert str(report) in err and "'best_assignment'" in err and "'epoch'" in err
        assert "'epochs'" in err and "'learning_rate'" in err
        assert not (tmp_path / "t").exists()

    def test_infeasible_best_cell_exits_2_naming_report(self, artifact, tmp_path, capsys, tuned):
        report = tuned()
        self.edit_best(report, kernel_size=8)
        capsys.readouterr()
        assert self.train(artifact, tmp_path, report) == 2
        err = capsys.readouterr().err
        assert str(report) in err and "'best_assignment'" in err
        assert "kernel_size 8 exceeds lookback 7" in err


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

    def test_alpha_outside_table_exits_2(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        self.make_scores(scores)
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--scores", str(scores), "--alpha", "0.01",
                  "--output-dir", str(tmp_path / "f")])
        assert exc.value.code == 2
        capsys.readouterr()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 0.01}), encoding="utf-8")
        assert main(["compare", "--config", str(cfg), "--scores", str(scores),
                     "--output-dir", str(tmp_path / "c")]) == 2
        assert "'alpha'" in capsys.readouterr().err

    @pytest.mark.parametrize("q", ["nan", "inf", "-2", "0"])
    def test_q_not_finite_and_positive_exits_2(self, tmp_path, capsys, q):
        scores = tmp_path / "scores.csv"
        self.make_scores(scores)
        assert main(["compare", "--scores", str(scores), "--q", q,
                     "--output-dir", str(tmp_path / "c")]) == 2
        assert "q must be" in capsys.readouterr().err

    def test_empty_csv_exits_3(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("", encoding="utf-8")
        assert main(["compare", "--scores", str(empty),
                     "--output-dir", str(tmp_path / "c")]) == 3

    def test_nan_score_exits_3_naming_line_and_method(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text("test,a,b\ncase0,1.0,2.0\n\ncase1,0.5,nan\n", encoding="utf-8")
        assert main(["compare", "--scores", str(scores),
                     "--output-dir", str(tmp_path / "c")]) == 3
        assert f"{scores}:4: score of 'b' is NaN" in capsys.readouterr().err

    def test_inf_score_is_a_valid_worst_loss(self, tmp_path):
        scores = tmp_path / "scores.csv"
        scores.write_text("test,a,b\ncase0,1.0,inf\ncase1,0.5,2.0\n", encoding="utf-8")
        out = tmp_path / "c"
        assert main(["compare", "--scores", str(scores), "--output-dir", str(out)]) == 0
        doc = json.loads((out / "comparison.json").read_text())
        assert doc["average_ranks"] == [1.0, 2.0]

    def test_missing_scores_exits_3_naming_file(self, tmp_path, capsys):
        missing = tmp_path / "absent.csv"
        assert main(["compare", "--scores", str(missing),
                     "--output-dir", str(tmp_path / "c")]) == 3
        assert str(missing) in capsys.readouterr().err

    # two tied score matrices, one per Friedman decision: the sha256 of
    # comparison.json and cd_diagram.csv, and the stdout lines before the path
    PINNED = {
        "rejected": (
            "test,alpha,beta,gamma\nt1,0.1,0.2,0.3\nt2,0.1,0.2,0.3\nt3,0.1,0.1,0.3\n"
            "t4,0.1,0.2,0.2\nt5,0.1,0.2,0.3\nt6,0.1,0.2,0.3\nt7,0.2,0.2,0.3\nt8,0.1,0.3,0.3\n",
            "86cfd8931d94ea559468b119ede64aefa976fa5f88e46e5ebf0f1105ddcd1497",
            "6c7e7eb10dcd745611411d9d3983d4498052b5780567600ba45603846a9159f5",
            ["friedman statistic: 12.25", "critical value (chi-square, alpha=0.05): 5.991",
             "null rejected: True", "critical difference: 1.1715"],
        ),
        "kept": (
            "test,a,b,c\nt1,1,2,3\nt2,3,1,2\nt3,2,3,1\nt4,1,1,2\n",
            "318b2f3860cb6d47a09d152648756912e855abc2dd211de284e400ca4fc11174",
            "5f0f96ea9ee74d60e30b9fd506ddc9dc6c187941593132d76e84b13f7cec0653",
            ["friedman statistic: 0.375", "critical value (chi-square, alpha=0.05): 5.991",
             "null rejected: False", "critical difference: 1.656751188320081"],
        ),
    }

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_artifacts_and_stdout_are_pinned(self, tmp_path, capsys, case):
        text, comparison_sha, diagram_sha, lines = self.PINNED[case]
        scores = tmp_path / "scores.csv"
        scores.write_text(text, encoding="utf-8")
        out = tmp_path / "c"
        assert main(["compare", "--scores", str(scores), "--output-dir", str(out)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            *lines, f"comparison: {out / 'comparison.json'}"
        ]
        for name, expected in (("comparison.json", comparison_sha),
                               ("cd_diagram.csv", diagram_sha)):
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == expected, name

    def test_quoted_method_names_are_pinned(self, tmp_path):
        # names with a comma and a quote: cd_diagram.csv quotes them as csv.writer does
        scores = tmp_path / "scores.csv"
        scores.write_text('test,"a, b","say ""hi""",c\nt1,1,2,3\nt2,3,1,2\nt3,2,3,1\n'
                          "t4,1,1,2\nt5,0.5,2,3\n", encoding="utf-8")
        out = tmp_path / "c"
        assert main(["compare", "--scores", str(scores), "--output-dir", str(out)]) == 0
        assert (out / "cd_diagram.csv").read_text(encoding="utf-8") == (
            'method,average_rank\n"a, b",1.7\n"say ""hi""",1.9\nc,2.4\n')
        for name, expected in (
            ("comparison.json", "81fa108bf269f105c736ebbf08df0df8459e8b6ff08739696b20d2d8f0b99f09"),
            ("cd_diagram.csv", "994362969ee4055ed06694e500f9d2507ad35e81c8afb42a2158bd6efc458a43"),
        ):
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == expected, name

    @pytest.mark.parametrize("header, column", [("test,a,a", 3), ("test,,b", 2),
                                                ("test, a ,a", 3)])
    def test_blank_or_repeated_method_exits_3_naming_column(self, tmp_path, capsys,
                                                            header, column):
        scores = tmp_path / "scores.csv"
        scores.write_text(f"{header}\ncase0,1.0,2.0\n", encoding="utf-8")
        assert main(["compare", "--scores", str(scores),
                     "--output-dir", str(tmp_path / "c")]) == 3
        assert f"{scores}:1: column {column}" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()


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

    # sha256 of result.json and trace.csv for rastrigin, d=3, population 6,
    # 5 iterations, seed 1: the search box's bits must not move the search
    PINNED = {
        "rs-gwo-woa": ("1b508d2e949ec22625e9c21d09a0fc237eba4375e263c82b978475f2cf4b4e1d",
                       "b2a5be4829fd4059356ed0f5bc333d82100425942ad17f30c8f8ce22361955c8"),
        "gwo": ("402d19f13bc749db22eb840f9c7bf7e4d46672029ef98aff4294cff153050ad8",
                "201105d52be6fa7a785f88a5468b86924c8d9b54a60d2d6503e905319706a446"),
        "woa": ("fb96560003d2284dd930073f5f8ed1c6ba3990025a5fd4b201865c05fe3dab28",
                "66de49b8c2b01a5a1bfc595721a96c6430b7de7ce6390d59a1e9d3f11df6ad2e"),
        "ga": ("639e6264f2c75e3efbaf4326700ce4aa79ba1e5ac517d41f478ecfb19e209aa5",
               "d59e4a8989325a98cb5cf9f847308cad8877cbc262e28205d73bbaa1bcdaf67c"),
    }

    @pytest.mark.parametrize("algorithm", sorted(PINNED))
    def test_artifacts_are_pinned(self, tmp_path, algorithm):
        out = tmp_path / "bo"
        assert main(["bench-opt", "--function", "rastrigin", "--dimension", "3",
                     "--population", "6", "--iterations", "5", "--seed", "1",
                     "--algorithm", algorithm, "--output-dir", str(out)]) == 0
        for name, expected in zip(("result.json", "trace.csv"), self.PINNED[algorithm]):
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == expected, name

    @pytest.mark.parametrize("dimension", ["0", "-1"])
    def test_dimension_below_one_exits_2(self, dimension, tmp_path, capsys):
        assert main(["bench-opt", "--dimension", dimension, "--population", "4",
                     "--iterations", "1", "--output-dir", str(tmp_path / "bo")]) == 2
        assert "dimension" in capsys.readouterr().err

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        assert main(["bench-opt", "--seed", "-1", "--population", "4", "--iterations", "1",
                     "--output-dir", str(tmp_path / "bo")]) == 2
        assert "seed" in capsys.readouterr().err

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

    def test_no_flag_value_carries_over_to_the_next_call(self, small_csv, artifact, tmp_path):
        # the parser is built once per process and reused by every call
        ingest = ["ingest", "--data", str(small_csv)]
        tune = ["tune", "--data-dir", str(artifact), "--surrogate", "hash",
                "--population", "4", "--iterations", "1"]
        for argv, out in [
            (ingest + ["--region", "r1", "--split-ratio", "0.5", "--variables", "confirmed"], "i1"),
            (tune + ["--extended-space", "--seed", "3"], "t1"),
            (ingest, "i2"),
            (tune, "t2"),
        ]:
            assert main(argv + ["--output-dir", str(tmp_path / out)]) == 0
        config = json.loads((tmp_path / "i2" / "manifest.json").read_text())["config"]
        assert (config["region"], config["split_ratio"], config["variables"]) == (None, 0.8, None)
        config = json.loads((tmp_path / "t2" / "manifest.json").read_text())["config"]
        assert (config["extended_space"], config["seed"]) == (False, 0)
        assert cli.build_parser() is cli.build_parser()

    def test_bad_config_json_exits_2(self, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json", encoding="utf-8")
        assert main(["ingest", "--config", str(cfg),
                     "--output-dir", str(tmp_path / "o4")]) == 2

    def test_config_not_utf8_exits_2_naming_file(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.json"
        cfg.write_bytes('{"region": "é"}'.encode("latin-1"))
        assert main(["ingest", "--config", str(cfg),
                     "--output-dir", str(tmp_path / "o5")]) == 2
        assert str(cfg) in capsys.readouterr().err

    def test_default_output_dir_is_config_hashed(self, small_csv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["ingest", "--data", str(small_csv)]) == 0
        runs = list(Path(tmp_path, "runs").iterdir())
        assert len(runs) == 1
        assert runs[0].name.startswith("ingest-")


class TestOptionTable:
    """Options, defaults and config checks all come from cli.OPTIONS and cli.COMMANDS."""

    def test_every_option_belongs_to_a_command(self):
        # build_parser looks up each command's keys in OPTIONS; this is the reverse
        used = {key for command in cli.COMMANDS.values() for key in command.defaults}
        assert sorted(set(cli.OPTIONS) - used) == []

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

    @pytest.mark.parametrize("dimension, candidate", [
        ("n_filters", "a"), ("kernel_size", True), ("pool_size", None), ("lstm_units", [3]),
        ("learning_rate", {"lr": 0.1}), ("epochs", "50"),
        ("n_filters", 2.5), ("kernel_size", 3.0), ("pool_size", 0), ("lstm_units", -3),
        ("epochs", False), ("learning_rate", 0),
    ], ids=["string", "bool", "null", "list", "object", "numeric-string",
            "fraction", "integral-float", "zero", "negative", "bool-epochs", "zero-rate"])
    def test_space_candidate_not_a_number_exits_2_naming_dimension(
        self, artifact, tmp_path, capsys, dimension, candidate
    ):
        space = {"n_filters": [4], "kernel_size": [3], "pool_size": [2], "lstm_units": [3]}
        space[dimension] = [candidate]
        cfg = self.config(tmp_path, {"space": space})
        assert main(["tune", "--config", cfg, "--data-dir", str(artifact),
                     "--population", "2", "--iterations", "1", "--fitness-epochs", "1",
                     "--output-dir", str(tmp_path / "t")]) == 2
        err = capsys.readouterr().err
        assert "'space'" in err and repr(dimension) in err

    def test_space_repeating_a_candidate_exits_2_naming_dimension(
        self, artifact, tmp_path, capsys
    ):
        space = {"n_filters": [4, 8], "kernel_size": [2, 3, 2], "pool_size": [2],
                 "lstm_units": [3]}
        cfg = self.config(tmp_path, {"space": space})
        assert main(["tune", "--config", cfg, "--data-dir", str(artifact),
                     "--surrogate", "hash", "--output-dir", str(tmp_path / "t")]) == 2
        assert "'kernel_size'" in capsys.readouterr().err

    def test_space_unknown_dimension_exits_2_listing_allowed(self, artifact, tmp_path, capsys):
        space = {"n_filters": [4], "kernel_size": [3], "pool_size": [2], "lstm_units": [3],
                 "epoch": [1, 2]}
        cfg = self.config(tmp_path, {"space": space})
        assert main(["tune", "--config", cfg, "--data-dir", str(artifact),
                     "--surrogate", "hash", "--output-dir", str(tmp_path / "t")]) == 2
        err = capsys.readouterr().err
        assert "'epoch'" in err and "'epochs'" in err and "'learning_rate'" in err
        assert not (tmp_path / "t").exists()

    @pytest.mark.parametrize("from_config", [False, True], ids=["flag", "config"])
    def test_space_with_extended_space_exits_2_naming_both(
        self, artifact, tmp_path, capsys, from_config
    ):
        space = {"n_filters": [4], "kernel_size": [3], "pool_size": [2], "lstm_units": [3]}
        cfg = self.config(tmp_path, {"space": space} | ({"extended_space": True}
                                                        if from_config else {}))
        flag = [] if from_config else ["--extended-space"]
        assert main(["tune", "--config", cfg, *flag, "--data-dir", str(artifact),
                     "--surrogate", "hash", "--output-dir", str(tmp_path / "t")]) == 2
        err = capsys.readouterr().err
        assert "'space'" in err and "'extended_space'" in err
        assert not (tmp_path / "t").exists()

    @pytest.mark.parametrize("command", ["ingest", "forecast", "evaluate", "compare"])
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
        assert total == 74
        used = {key for command in COMMANDS.values() for key in command.defaults}
        assert used == set(OPTIONS)


# the cells of a CSV artifact: float reprs, ISO dates, ints and names, the
# last with every character csv.writer may quote
FLOAT_CELLS = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([5e-324, -5e-324, 2.2250738585072014e-308, -0.0, 1e300, -1e-300, 3.0,
                     -2.0, 1e16, 12345678901234567.0]),
).map(repr)
DATE_CELLS = st.dates(date.min, date.max).map(date.isoformat)
TEXT_CELLS = st.one_of(st.just(""), st.text(st.sampled_from(',"\r\n\x00 aé'), max_size=5))
TABLE_CELLS = st.one_of(FLOAT_CELLS, DATE_CELLS, st.integers().map(str), TEXT_CELLS)


class TestCsvWriter:
    """write_csv_columns writes what csv.writer writes, and hands it only
    the rows of a table with a cell that needs quoting."""

    @staticmethod
    def write(path, header, columns) -> tuple[bytes, bool]:
        """The bytes written, and whether the rows went through csv.writer."""
        handed = []

        def writer(fh, **kwargs):
            real = csv.writer(fh, **kwargs)
            return SimpleNamespace(writerow=real.writerow,
                                   writerows=lambda rows: handed.append(real.writerows(rows)))

        with mock.patch.object(fileio, "csv", SimpleNamespace(writer=writer)):
            fileio.write_csv_columns(path, header, columns)
        return path.read_bytes(), bool(handed)

    def test_matches_csv_writer(self, tmp_path):
        paths = set()

        # a chunk of rows that needs quoting may sit between plain ones
        @settings(max_examples=400, deadline=None)
        @given(st.integers(1, 5).flatmap(lambda width: st.tuples(
            st.lists(TEXT_CELLS, min_size=width, max_size=width),
            st.lists(st.lists(TABLE_CELLS, min_size=width, max_size=width), max_size=6))),
            st.sampled_from([1, 2, fileio.CHUNK_LINES]))
        def check(table, chunk_lines):
            header, rows = table
            columns = [[row[i] for row in rows] for i in range(len(header))]
            with mock.patch.object(fileio, "CHUNK_LINES", chunk_lines):
                text, handed = self.write(tmp_path / "t.csv", header, columns)
            assert text == csv_writer_text(header, columns).encode("utf-8")
            paths.add(handed)

        check()
        assert paths == {False, True}

    @pytest.mark.parametrize("columns, handed", [
        ([["1990-01-01", "1990-01-02"], ["0.5", "-1e-07"]], False),
        ([["a, b", "c"], ["1.5", "2.0"]], True),
        ([['say "hi"'], ["1"]], True),
        ([["1", "cr\r"]], True),
        ([["1", "", "2"]], True),
        ([["1", "2"]], False),
    ], ids=["dates-and-floats", "comma", "quote", "cr", "one-column-empty-cell",
            "one-column"])
    def test_only_a_cell_that_needs_quoting_goes_through_csv_writer(self, tmp_path, columns,
                                                                  handed):
        header = ["x", "y"][:len(columns)]
        text = csv_writer_text(header, columns).encode("utf-8")
        assert self.write(tmp_path / "t.csv", header, columns) == (text, handed)


class TestAtomicWrites:
    """An artifact write that fails partway leaves the previous file intact."""

    @staticmethod
    def assert_untouched(path, before):
        assert path.read_bytes() == before
        assert [p.name for p in path.parent.iterdir()] == [path.name]

    def test_write_json(self, tmp_path, monkeypatch):
        path = tmp_path / "report.json"
        fileio.write_json(path, {"a": 1})
        before = path.read_bytes()

        # a lone surrogate cannot be encoded, so the write fails after it began
        monkeypatch.setattr(fileio, "canonical_json", lambda obj: '{"a": 2, "b": "\ud800"}\n')
        with pytest.raises(UnicodeEncodeError):
            fileio.write_json(path, {"a": 2})
        self.assert_untouched(path, before)

    def test_write_csv_columns(self, tmp_path):
        path = tmp_path / "rows.csv"
        fileio.write_csv_columns(path, ["x"], [["1", "2"]])
        before = path.read_bytes()

        # the header is written before a cell that is not a str stops the body
        with pytest.raises(TypeError):
            fileio.write_csv_columns(path, ["x"], [["3", 4]])
        self.assert_untouched(path, before)

    def test_save_model(self, tmp_path, monkeypatch):
        net = initialize_network(NetworkConfig(n_filters=2, lstm_units=2), lookback=6)
        path = tmp_path / "model.json"
        save_model(net, path)
        before = path.read_bytes()

        # the model goes through the one JSON serializer, which fails here
        def failing(obj):
            raise RuntimeError("serializer failed")

        monkeypatch.setattr(fileio, "canonical_json", failing)
        with pytest.raises(RuntimeError):
            save_model(net, path)
        self.assert_untouched(path, before)


class TestExitCodes:
    def test_one_error_class_per_exit_code(self):
        assert {error: (error.exit_code, error.label)
                for error in SwarmcastError.__subclasses__()} == {
            ConfigError: (2, "config error"),
            DataError: (3, "data error"),
            NumericalError: (4, "numerical error"),
        }

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the training overflows
    @pytest.mark.parametrize("error, argv", [
        (ConfigError, ["train", "--lstm-units", "0"]),
        (DataError, ["forecast", "--model", "absent.json"]),
        (NumericalError, ["train", "--epochs", "5", "--optimizer", "sgd",
                          "--learning-rate", "1e14"]),
    ], ids=["config", "data", "numerical"])
    def test_main_returns_the_class_exit_code_with_one_labelled_line(
        self, artifact, tmp_path, capsys, error, argv
    ):
        assert main([*argv, "--data-dir", str(artifact),
                     "--output-dir", str(tmp_path / "out")]) == error.exit_code
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"{error.label}: ")
