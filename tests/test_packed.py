"""dataset.f8: ingest's scaled values packed beside dataset.csv.

A command that reads an ingest artifact takes its variable's values from
dataset.f8 while the file's digest proves it the pair of dataset.csv,
and parses dataset.csv otherwise. These tests check the layout, that
both read paths give the same bytes, and that every kind of damage falls
back to the parse.
"""

import contextlib
import csv
import hashlib
import io
import json
import shutil
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmcast.cli import VOLATILE_FILES, main
from swarmcast.network import NetworkConfig, initialize_network, save_model
from swarmcast.timeseries import csv_variables, load_csv, read_packed

THREE_CSV = "date,a,b,c\n" + "".join(
    f"{date(2020, 3, 1) + timedelta(days=d)},{d},{2 * d + 1},{d % 5}\n" for d in range(40))


def ingest(tmp_path: Path, text: str, name: str = "artifact") -> Path:
    (tmp_path / f"{name}.csv").write_text(text, encoding="utf-8")
    out = tmp_path / name
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["ingest", "--data", str(tmp_path / f"{name}.csv"),
                     "--output-dir", str(out)]) == 0
    return out


def outcome(argv: list[str], out: Path) -> tuple:
    """A command's exit code, stdout, stderr and primary artifacts' bytes,
    run into a fresh ``out``."""
    shutil.rmtree(out, ignore_errors=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([*argv, "--output-dir", str(out)])
    files = {path.relative_to(out).as_posix(): path.read_bytes()
             for path in sorted(out.rglob("*"))
             if path.is_file() and path.name not in VOLATILE_FILES} if out.exists() else {}
    return code, stdout.getvalue(), stderr.getvalue(), files


def both_paths(artifact: Path, argv: list[str], out: Path) -> tuple:
    """``argv``'s outcome with the artifact's dataset.f8, then without it."""
    packed = artifact / "dataset.f8"
    kept = packed.read_bytes() if packed.exists() else None
    with_f8 = outcome(argv, out)
    packed.unlink(missing_ok=True)
    try:
        return with_f8, outcome(argv, out)
    finally:
        if kept is not None:
            packed.write_bytes(kept)


def test_layout_is_a_digest_then_each_variables_block(tmp_path):
    artifact = ingest(tmp_path, THREE_CSV)
    dataset = artifact / "dataset.csv"
    raw = (artifact / "dataset.f8").read_bytes()
    days, variables = load_csv(dataset)
    values = np.frombuffer(raw[32:], "<f8").reshape(3, len(days))
    # the floats whose reprs dataset.csv holds, bit for bit, in header order
    expected = np.array(list(variables.values()))
    assert list(variables) == ["a", "b", "c"]
    assert values.tobytes() == expected.astype("<f8").tobytes()
    assert raw[:32] == hashlib.sha256(dataset.read_bytes() + raw[32:]).digest()
    for name, column in variables.items():
        packed_days, packed = read_packed(dataset, ["a", "b", "c"], name, len(days))
        assert packed_days == days
        assert packed[name].tobytes() == column.tobytes()


def test_golden_artifacts_values_match_their_csv():
    golden = Path(__file__).resolve().parent / "golden" / "demo" / "ingest"
    n_rows = json.loads((golden / "scaling.json").read_text(encoding="utf-8"))["n_rows"]
    days, variables = load_csv(golden / "dataset.csv")
    for name, column in variables.items():
        packed_days, packed = read_packed(golden / "dataset.csv", list(variables), name, n_rows)
        assert (packed_days, packed[name].tobytes()) == (days, column.tobytes())


# ------------------------------------------------- damage falls back to the parse

def _flip(path: Path, at: int) -> None:
    data = bytearray(path.read_bytes())
    data[at] ^= 0x01
    path.write_bytes(bytes(data))


def _swap_first_two_columns(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = [line.split(",") for line in lines]
    path.write_text("".join(",".join([c[0], c[2], c[1], *c[3:]]) + "\n" for c in cells),
                    encoding="utf-8")


def _foreign(artifact: Path, tmp_path: Path) -> None:
    # an ingest of other data with the same days and variables, so only the digest tells
    other = ingest(tmp_path, THREE_CSV.replace(",1,", ",7,"), "other")
    assert (other / "dataset.f8").stat().st_size == (artifact / "dataset.f8").stat().st_size
    shutil.copyfile(other / "dataset.f8", artifact / "dataset.f8")


def _change_a_digit(path: Path) -> None:
    # a's value on the second day, 1/31: still a number, but another one
    text = path.read_text(encoding="utf-8")
    at = text.index(repr(1 / 31)) + 3
    path.write_text(text[:at] + "2" + text[at + 1:], encoding="utf-8")


def _n_rows(artifact: Path, n: int) -> None:
    scaling = artifact / "scaling.json"
    doc = json.loads(scaling.read_text(encoding="utf-8"))
    doc["n_rows"] = n
    scaling.write_text(json.dumps(doc), encoding="utf-8")


DAMAGE = {
    "f8-missing": lambda artifact, tmp: (artifact / "dataset.f8").unlink(),
    "f8-truncated": lambda artifact, tmp: (artifact / "dataset.f8").write_bytes(
        (artifact / "dataset.f8").read_bytes()[:-1]),
    "f8-digest-only": lambda artifact, tmp: (artifact / "dataset.f8").write_bytes(
        (artifact / "dataset.f8").read_bytes()[:32]),
    "f8-digest-byte": lambda artifact, tmp: _flip(artifact / "dataset.f8", 5),
    # the low byte of the first value of a, the target
    "f8-value-byte": lambda artifact, tmp: _flip(artifact / "dataset.f8", 32),
    # the last value of c, a block that is hashed but not read
    "f8-other-block-byte": lambda artifact, tmp: _flip(artifact / "dataset.f8", -1),
    "f8-of-other-data": _foreign,
    # 0.8 still splits 41 rows at 32, so only the day count disagrees
    "n-rows-changed": lambda artifact, tmp: _n_rows(artifact, 41),
    "csv-value-digit": lambda artifact, tmp: _change_a_digit(artifact / "dataset.csv"),
    # the first day, 2020-03-01, becomes 2020-03-00
    "csv-date-byte": lambda artifact, tmp: _flip(artifact / "dataset.csv",
                                                 len("date,a,b,c\n2020-03-0")),
    "csv-header-reordered": lambda artifact, tmp: _swap_first_two_columns(
        artifact / "dataset.csv"),
}


@pytest.mark.parametrize("damage", sorted(DAMAGE))
def test_damage_reads_dataset_csv_as_without_dataset_f8(tmp_path, damage):
    artifact = ingest(tmp_path, THREE_CSV)
    DAMAGE[damage](artifact, tmp_path)
    n_rows = json.loads((artifact / "scaling.json").read_text(encoding="utf-8"))["n_rows"]
    assert read_packed(artifact / "dataset.csv", ["a", "b", "c"], "a", n_rows) is None

    model = tmp_path / "model.json"
    save_model(initialize_network(NetworkConfig(n_filters=2, lstm_units=3, seed=1), 7), model)
    for argv in (["train", "--data-dir", str(artifact), "--epochs", "1", "--n-filters", "2",
                  "--lstm-units", "2", "--seed", "1"],
                 ["evaluate", "--model", str(model), "--data-dir", str(artifact)],
                 ["forecast", "--model", str(model), "--data-dir", str(artifact),
                  "--steps", "3"]):
        with_f8, without = both_paths(artifact, argv, tmp_path / "out")
        assert with_f8 == without, argv


def test_a_fallback_succeeds_or_fails_as_the_parse_does(tmp_path):
    # a damaged dataset.f8 beside a sound dataset.csv gives the undamaged
    # artifact's outcome; a changed n_rows gives the parse's message
    artifact = ingest(tmp_path, THREE_CSV)
    argv = ["train", "--data-dir", str(artifact), "--epochs", "1", "--n-filters", "2",
            "--lstm-units", "2", "--seed", "1"]
    clean = outcome(argv, tmp_path / "out")
    DAMAGE["f8-value-byte"](artifact, tmp_path)
    assert outcome(argv, tmp_path / "out") == clean
    DAMAGE["n-rows-changed"](artifact, tmp_path)
    code, _, err, files = outcome(argv, tmp_path / "out")
    assert (code, files) == (3, {})
    assert f"'n_rows' is 41, but {artifact / 'dataset.csv'} has 40 days" in err


# ------------------------------------------------------ both paths, same bytes

NAMES = ["cases", "deaths, total", 'say "hi"', "two\nlines"]
CELLS = st.one_of(st.integers(-100, 100).map(str),
                  st.floats(-1e3, 1e3, allow_nan=False).map(repr))


@st.composite
def series_csvs(draw):
    """A series CSV with calendar gaps and blank cells, 1-3 variables (a
    name may need quoting), and the variable to model."""
    names = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=3, unique=True))
    n = draw(st.integers(40, 56))
    start = draw(st.dates(date(1900, 1, 1), date(2100, 1, 1)))
    gaps = draw(st.sets(st.integers(1, n - 2), max_size=4))
    blanks = draw(st.sets(st.tuples(st.integers(1, n - 2), st.integers(0, len(names) - 1)),
                          max_size=4))
    lines = []
    for day in range(n):
        if day in gaps:
            continue
        cells = ["" if (day, i) in blanks else draw(CELLS) for i in range(len(names))]
        lines.append([(start + timedelta(days=day)).isoformat(), *cells])
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows([["date", *names], *lines])
    return text.getvalue(), draw(st.sampled_from(names))


def test_both_read_paths_give_the_same_bytes(tmp_path):
    runs = iter(range(10**6))
    succeeded = set()
    config = tmp_path / "space.json"
    config.write_text(json.dumps({"space": {"n_filters": [2], "kernel_size": [3],
                                            "pool_size": [2], "lstm_units": [2, 3]}}),
                      encoding="utf-8")

    @settings(max_examples=25, deadline=None)
    @given(series_csvs())
    def check(drawn):
        text, variable = drawn
        root = tmp_path / f"run{next(runs)}"
        root.mkdir()
        artifact = ingest(root, text)
        names = csv_variables(artifact / "dataset.csv")
        n_rows = json.loads((artifact / "scaling.json").read_text(encoding="utf-8"))["n_rows"]
        _, packed = read_packed(artifact / "dataset.csv", names, variable, n_rows)
        if not ((packed[variable] >= 0.0) & (packed[variable] <= 1.0)).all():
            succeeded.add("test-value-outside-unit-interval")
        data = ["--data-dir", str(artifact), "--variable", variable]
        models = {}
        for horizon in (1, 2):
            models[horizon] = root / f"model-h{horizon}"
            argv = ["train", *data, "--epochs", "1", "--n-filters", "2", "--lstm-units", "2",
                    "--horizon", str(horizon), "--seed", "3"]
            with_f8, without = both_paths(artifact, argv, root / "out")
            assert with_f8 == without, argv
            outcome(argv, models[horizon])
            if with_f8[0] == 0:
                succeeded.add(f"train-h{horizon}")
        commands = [
            ["tune", *data, "--surrogate", "hash", "--population", "4", "--iterations", "2",
             "--seed", "3"],
            ["tune", *data, "--config", str(config), "--population", "4", "--iterations", "1",
             "--fitness-epochs", "1", "--seed", "3"],
            ["forecast", *data, "--model", str(models[1] / "model.json"), "--steps", "3"],
        ] + [["evaluate", *data, "--model", str(models[h] / "model.json")] for h in (1, 2)]
        for i, argv in enumerate(commands):
            with_f8, without = both_paths(artifact, argv, root / "out")
            assert with_f8 == without, argv
            if with_f8[0] == 0:
                succeeded.add(i)
        shutil.rmtree(root)

    check()
    # every command compared its artifacts, not only its error, at least once,
    # and some series had a test day that scales outside [0, 1]
    assert succeeded == {"train-h1", "train-h2", 0, 1, 2, 3, 4,
                         "test-value-outside-unit-interval"}
