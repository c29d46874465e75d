import csv
import math
import tempfile
import tracemalloc
from datetime import date, timedelta
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import csvtexts
from oracles import impute_missing_loop, load_csv_rows
from swarmcast import fileio
from swarmcast.errors import ConfigError, DataError
from swarmcast.timeseries import (
    ScalingParams,
    WindowedSamples,
    apply_scale,
    impute_missing,
    inverse_scale,
    load_csv,
    make_windows,
    minmax_scale,
    split_index,
    split_windows,
)


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_three_rows_parse(self, tmp_path):
        path = write_csv(
            tmp_path,
            "date,confirmed\n2020-03-22,1\n2020-03-23,2\n2020-03-24,3\n",
        )
        dates, variables = load_csv(path)
        assert len(dates) == 3
        assert dates[0] == date(2020, 3, 22)
        assert np.array_equal(variables["confirmed"], [1.0, 2.0, 3.0])

    def test_gap_materialised_as_missing(self, tmp_path):
        path = write_csv(tmp_path, "date,confirmed\n2020-03-22,1\n2020-03-24,3\n")
        dates, variables = load_csv(path)
        assert len(dates) == 3
        values = variables["confirmed"]
        assert math.isnan(values[1])
        assert values[0] == 1.0 and values[2] == 3.0

    def test_duplicate_date_rejected(self, tmp_path):
        path = write_csv(
            tmp_path, "date,confirmed\n2020-03-22,1\n2020-03-22,2\n"
        )
        with pytest.raises(DataError, match=":3: duplicate date 2020-03-22"):
            load_csv(path)

    def test_unsorted_rows_sorted(self, tmp_path):
        path = write_csv(tmp_path, "date,v\n2020-03-24,3\n2020-03-22,1\n2020-03-23,2\n")
        _, variables = load_csv(path)
        assert np.array_equal(variables["v"], [1.0, 2.0, 3.0])

    def test_missing_markers(self, tmp_path):
        path = write_csv(tmp_path, "date,v\n2020-03-22,1\n2020-03-23,NA\n2020-03-24,\n2020-03-25,4\n")
        values = load_csv(path)[1]["v"]
        assert math.isnan(values[1]) and math.isnan(values[2])

    def test_bad_date_names_line(self, tmp_path):
        path = write_csv(tmp_path, "date,v\n2020-03-22,1\nnot-a-date,2\n")
        with pytest.raises(DataError, match=":3"):
            load_csv(path)

    def test_non_numeric_cell(self, tmp_path):
        path = write_csv(tmp_path, "date,v\n2020-03-22,abc\n")
        with pytest.raises(DataError, match="non-numeric"):
            load_csv(path)

    @pytest.mark.parametrize("token", ["inf", "-inf", "nan"])
    def test_non_finite_cell_rejected_naming_line_and_column(self, tmp_path, token):
        path = write_csv(tmp_path, f"date,v\n2020-03-22,1\n2020-03-23,{token}\n")
        with pytest.raises(DataError, match=f":3: non-finite value '{token}' in column 'v'"):
            load_csv(path)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(DataError):
            load_csv(tmp_path / "nope.csv")

    @pytest.mark.parametrize("text, line", [
        ("date,v\n2020-03-22,1\n\n2020-03-23,2\n2020-03-24,x\n", 5),
        ('date,v,note\n2020-03-22,1,"two\nlines"\n2020-03-23,x,\n', 4),
        ('date,v,note\n2020-03-22,x,"two\nlines"\n', 2),
    ], ids=["after-blank-line", "after-multiline-cell", "multiline-row"])
    def test_error_names_the_line_the_row_starts_on(self, tmp_path, text, line):
        path = write_csv(tmp_path, text)
        with pytest.raises(DataError, match=f":{line}: non-numeric value 'x' in column 'v'"):
            load_csv(path, variable_columns={"v": "v"})

    def test_not_utf8_is_a_data_error_naming_the_file(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("date,v\n2020-03-22,1\n2020-03-23,2 \u00e9\n".encode("latin-1"))
        with pytest.raises(DataError, match="latin1.csv"):
            load_csv(path)

    def test_repeated_column_name_rejected_naming_it(self, tmp_path):
        path = write_csv(tmp_path, "date,v,v\n2020-03-22,1,2\n")
        with pytest.raises(DataError, match="repeated column name 'v'"):
            load_csv(path)

    def test_short_row_cells_missing_and_extra_cells_ignored(self, tmp_path):
        path = write_csv(tmp_path, "date,v,w\n2020-03-22,1\n2020-03-23, 2 ,3,junk\n")
        _, variables = load_csv(path)
        assert np.array_equal(variables["v"], [1.0, 2.0])
        assert math.isnan(variables["w"][0]) and variables["w"][1] == 3.0

    def test_column_mapping(self, tmp_path):
        path = write_csv(tmp_path, "day,cases\n2020-03-22,1\n2020-03-23,2\n")
        _, variables = load_csv(path, date_column="day", variable_columns={"confirmed": "cases"})
        assert list(variables) == ["confirmed"]

    def test_byte_order_mark_is_dropped(self, tmp_path):
        text = "date,v\n2020-03-22,1\n2020-03-23,2\n"
        plain = load_csv(write_csv(tmp_path, text))
        marked = load_csv(write_csv(tmp_path, "\ufeff" + text, name="bom.csv"))
        assert marked[0] == plain[0]
        assert marked[1]["v"].tobytes() == plain[1]["v"].tobytes()

    def test_unselected_columns_are_never_converted(self, tmp_path):
        path = write_csv(tmp_path, "date,v,note\n2020-03-22,1,abc\n2020-03-23,2,inf\n")
        _, variables = load_csv(path, variable_columns={"v": "v"})
        assert np.array_equal(variables["v"], [1.0, 2.0])

    def test_duplicate_before_a_later_bad_date_is_reported(self, tmp_path):
        # the duplicate check must not stop at the first unparsable date
        path = write_csv(tmp_path, "date,v\n2020-03-22,1\n2020-03-23,2\n2020-03-22,3\n"
                                   "2020-03-24,4\nnot-a-date,5\n")
        with pytest.raises(DataError, match=":4: duplicate date 2020-03-22"):
            load_csv(path)

    @pytest.mark.parametrize("text, error", [
        ("date,v\nnot-a-date,x\n", "unparsable date 'not-a-date'"),
        ("date,v\n2020-03-22,1\n2020-03-22,x\n", "duplicate date 2020-03-22"),
        ("date,v,w\n2020-03-22,inf,x\n", "non-finite value 'inf' in column 'v'"),
        ("date,v,w\n2020-03-22,x,inf\n", "non-numeric value 'x' in column 'v'"),
    ], ids=["date-first", "duplicate-before-cells", "cells-in-column-order", "non-numeric"])
    def test_a_row_reports_its_date_then_repetition_then_cells(self, tmp_path, text, error):
        with pytest.raises(DataError, match=error):
            load_csv(write_csv(tmp_path, text))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_the_row_by_row_oracle(self, data):
        text = data.draw(csvtexts.csv_texts(["date", "v", "note", "w"], LOAD_ROWS))
        variable_columns = data.draw(st.sampled_from([
            {"v": "v", "w": "w"}, {"w": "w", "v": "v"}, {"series": "w"}, {"v": "v"},
        ]))
        # small chunks and a small cell limit put every tier, switch, duplicate
        # and fault across chunk edges
        sizes = {"CHUNK_CHARS": data.draw(st.sampled_from([1, 7, 32, fileio.CHUNK_CHARS])),
                 "CHUNK_LINES": data.draw(st.sampled_from([1, 3, fileio.CHUNK_LINES]))}
        limit = data.draw(st.sampled_from([csv.field_size_limit(), 12, 24]))
        with tempfile.TemporaryDirectory() as tmp, csvtexts.cell_limit(limit):
            path = Path(tmp) / "data.csv"
            path.write_bytes(text.encode("utf-8"))
            with mock.patch.multiple(fileio, **sizes):
                got = outcome(load_csv, path, variable_columns)
            want = outcome(load_csv_rows, path, variable_columns)
        assert got == want

    @pytest.mark.parametrize("edit, reader_chunks", [
        ({}, 0), ({31: '2020-05-01,"31"'}, 1), ({31: "2020-05-01,31\r"}, 1),
        ({31: "2020-05-01,31\x00"}, 1), ({3: "2020-04-03", 25: "2020-04-25"}, 2),
    ], ids=["quote-free", "late-quote", "late-cr", "late-nul", "two-short-rows"])
    def test_only_a_quote_cr_or_nul_hands_the_rest_to_the_csv_module(self, tmp_path, edit,
                                                                  reader_chunks):
        # 31 rows of 12 to 14 characters: several 64-character chunks before the last row
        lines = ["date,v"] + [f"{date(2020, 4, 1) + timedelta(days=day - 1)},{day}"
                              for day in range(1, 32)]
        for row, line in edit.items():
            lines[row] = line
        path = write_csv(tmp_path, "\n".join(lines) + "\n")
        spy = mock.Mock(side_effect=fileio._reader_chunks)
        with mock.patch.object(fileio, "CHUNK_CHARS", 64), \
                mock.patch.object(fileio, "_reader_chunks", spy):
            got = outcome(load_csv, path, None)
        assert got == outcome(load_csv_rows, path, None)
        assert spy.call_count == reader_chunks

    @pytest.mark.parametrize("quote", [False, True], ids=["quote-free", "quote-on-line-3"])
    def test_a_long_file_is_held_a_chunk_at_a_time(self, tmp_path, quote):
        # 100,000 lines of about 17 characters: held at once, their strings
        # alone would take some 7 MiB beyond the result
        first = date(1800, 1, 1)
        lines = [f"{first + timedelta(days=day)},{day % 997}.5" for day in range(100_000)]
        if quote:
            lines[1] = lines[1].replace(",", ',"') + '"'
        path = write_csv(tmp_path, "date,v\n" + "\n".join(lines) + "\n")
        tracemalloc.start()
        try:
            dates, variables = load_csv(path)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(dates) == 100_000 and variables["v"][-1] == 99_999 % 997 + 0.5
        assert peak - held < 5 * 2**20  # measured: 3.95 MiB, mostly the per-chunk arrays

    def test_a_one_column_file_skips_its_blank_lines(self, tmp_path):
        # every line of a one-column file holds its one cell, a blank one too
        path = write_csv(tmp_path, "date\n20200322\n\n20200323\n")
        dates, variables = load_csv(path, variable_columns={"v": "date"})
        assert dates == (date(2020, 3, 22), date(2020, 3, 23))
        assert variables["v"].tolist() == [20200322.0, 20200323.0]


def outcome(loader, path, variable_columns):
    """A loader's result, comparable with ==: its dates and each variable's
    bytes, or its exception type and message."""
    try:
        dates, variables = loader(path, variable_columns=variable_columns)
    except DataError as exc:
        return type(exc), str(exc)
    return dates, {name: (column.dtype, column.tobytes()) for name, column in variables.items()}


CELLS = st.one_of(
    st.sampled_from(["", "NA", " NA ", "  ", "0", "-0", "1e3", " 7 ", "2.5", "-13"]),
    st.floats(-1e6, 1e6, allow_nan=False).map(repr),
)
FAULTS = {
    "bad-date": st.sampled_from(["not-a-date", "2020-02-30", "", "2020-3-1"]),
    "non-numeric": st.sampled_from(["abc", "1,5", "--1", "0x10"]),
    "non-finite": st.sampled_from(["nan", "inf", "-inf", "NaN", "1e999"]),
}


def _row_day(offset: int, form: int, bad: str) -> str:
    """A load_csv row's date cell: mostly a plain date, else padded, holding a NUL or bad."""
    day = (date(2020, 2, 20) + timedelta(offset)).isoformat()
    return {0: f" {day} ", 1: f"{day}\x00", 2: bad}.get(form, day)


# a load_csv row: date, v, note, w; dates repeat by chance, and a cell may be
# padded, missing, faulty, hold a NUL or span lines once quoted
VALUES = st.one_of(CELLS, CELLS, FAULTS["non-numeric"], FAULTS["non-finite"],
                   st.sampled_from(["\x00", "1\x00", "2\n"]))
LOAD_ROWS = st.tuples(
    st.builds(_row_day, st.integers(0, 40), st.integers(0, 15), FAULTS["bad-date"]),
    VALUES,
    st.sampled_from(["", "ok", "two\nlines", "a, b", 'say "hi"', "x\x00y", "cr\r"]),
    VALUES,
).map(list)


class TestImpute:
    def test_single_gap_neighbour_mean(self):
        assert np.array_equal(impute_missing([10, math.nan, 20]), [10, 15, 20])

    def test_nothing_missing_is_identity(self):
        assert np.array_equal(impute_missing([1, 2, 3]), [1, 2, 3])

    def test_run_gets_endpoint_mean(self):
        assert np.array_equal(
            impute_missing([10, math.nan, math.nan, 30]), [10, 20, 20, 30]
        )

    def test_edge_missing_rejected(self):
        with pytest.raises(DataError, match="starts or ends with a missing value"):
            impute_missing([math.nan, 1, 2])
        with pytest.raises(DataError, match="starts or ends with a missing value"):
            impute_missing([1, 2, math.nan])
        with pytest.raises(DataError, match="starts or ends with a missing value"):
            impute_missing([math.nan, math.nan])

    @given(
        st.lists(
            st.one_of(
                st.floats(0, 1e6, allow_nan=False),
                st.just(math.nan),
            ),
            min_size=3,
            max_size=50,
        ).map(lambda xs: [1.0] + xs + [2.0])
    )
    def test_idempotent(self, values):
        once = impute_missing(values)
        assert np.array_equal(impute_missing(once), once)
        assert not np.isnan(once).any()

    @settings(max_examples=300)
    @given(st.data())
    def test_matches_the_loop_oracle_bit_for_bit(self, data):
        present = st.floats(allow_nan=False, allow_infinity=False)
        inner = data.draw(st.lists(st.one_of(present, st.just(math.nan)), max_size=60))
        values = [data.draw(present), *inner, data.draw(present)]
        with np.errstate(over="ignore"):  # near the float limit both overflow to inf alike
            got = impute_missing(values)
        assert got.tobytes() == np.array(impute_missing_loop(values)).tobytes()


class TestScaling:
    def test_endpoints_map_to_unit_interval(self):
        scaled, params = minmax_scale([0, 5, 10])
        assert np.allclose(scaled, [0.0, 0.5, 1.0])
        assert (params.minimum, params.maximum) == (0, 10)
        assert not params.degenerate

    def test_constant_series_degenerate(self):
        scaled, params = minmax_scale([7, 7, 7])
        assert np.array_equal(scaled, [0, 0, 0])
        assert params.degenerate

    def test_round_trip(self):
        x = np.array([3.0, 9.0, 27.0])
        scaled, params = minmax_scale(x)
        back = inverse_scale(scaled, params)
        assert np.all(np.abs(back - x) <= 1e-12 * np.maximum(1.0, np.abs(x)))

    def test_inverse_examples(self):
        assert np.array_equal(
            inverse_scale([0.0, 0.5, 1.0], ScalingParams(0, 10)), [0, 5, 10]
        )
        assert inverse_scale([], ScalingParams(0, 10)).size == 0
        assert np.array_equal(inverse_scale([0.25], ScalingParams(4, 8)), [5.0])

    def test_degenerate_inverse_gives_constant(self):
        params = ScalingParams(7, 7)
        assert np.array_equal(inverse_scale([0.0, 0.3], params), [7.0, 7.0])

    def test_equal_bounds_are_degenerate_and_scale_to_zeros(self):
        params = ScalingParams(7.0, 7.0)
        assert params.degenerate
        assert np.array_equal(apply_scale([7.0, 7.0], params), [0.0, 0.0])
        assert not ScalingParams(0.0, 10.0).degenerate

    def test_empty_series_rejected(self):
        with pytest.raises(DataError):
            minmax_scale([])

    def test_unimputed_series_rejected(self):
        with pytest.raises(DataError):
            minmax_scale([1.0, math.nan])

    @given(
        st.lists(
            st.floats(-1e9, 1e9, allow_nan=False), min_size=2, max_size=60
        ).filter(lambda xs: max(xs) > min(xs))
    )
    def test_round_trip_property(self, values):
        # relative to the series scale: cancellation error grows with the
        # range, so an elementwise-relative bound cannot hold for wildly
        # mixed magnitudes
        x = np.array(values)
        scaled, params = minmax_scale(x)
        back = inverse_scale(scaled, params)
        scale = max(1.0, abs(params.minimum), abs(params.maximum))
        assert np.all(np.abs(back - x) <= 1e-12 * scale)

    @given(
        st.lists(
            st.floats(0, 1e6, allow_nan=False), min_size=2, max_size=60
        ).filter(lambda xs: max(xs) - min(xs) > 1e-3 * max(xs))
    )
    def test_round_trip_elementwise_on_count_like_data(self, values):
        x = np.array(values)
        scaled, params = minmax_scale(x)
        back = inverse_scale(scaled, params)
        assert np.all(np.abs(back - x) <= 1e-12 * np.maximum(1.0, np.abs(x)))


def make_dates(n, start=date(2020, 3, 22)):
    from datetime import timedelta

    return tuple(start + timedelta(days=i) for i in range(n))


class TestSplit:
    def test_eighty_twenty(self):
        assert split_index(10, 0.8) == 8

    def test_half(self):
        assert split_index(10, 0.5) == 5

    def test_length_two_boundary(self):
        assert split_index(2, 0.8) == 1

    def test_reconstructs_and_is_chronological(self):
        dates = make_dates(13)
        cut = split_index(len(dates), 0.8)
        train, test = dates[:cut], dates[cut:]
        assert train + test == dates
        assert max(train) < min(test)

    def test_bad_ratio(self):
        for ratio in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ConfigError, match="split_ratio"):
                split_index(10, ratio)

    def test_too_short(self):
        for n, ratio in ((1, 0.8), (3, 0.2), (10, 0.05)):
            with pytest.raises(DataError, match=rf"{ratio} leaves an empty side for {n} rows"):
                split_index(n, ratio)

    @given(st.integers(4, 300), st.floats(0.1, 0.9))
    def test_chronology_property(self, n, ratio):
        try:
            cut = split_index(n, ratio)
        except DataError as exc:
            assert "leaves an empty side" in str(exc)
            assert math.floor(ratio * n) in (0, n)  # degenerate ratio for this length
            return
        assert cut == math.floor(ratio * n)
        assert 1 <= cut < n


class TestWindows:
    def test_enumeration(self):
        w = make_windows(np.arange(1, 7, dtype=float), lookback=3, horizon=1)
        assert len(w) == 3
        assert np.array_equal(w.inputs[0][:, 0], [1, 2, 3])
        assert np.array_equal(w.targets[0][:, 0], [4])

    def test_too_short(self):
        with pytest.raises(DataError, match="length 4 too short for lookback 4 . horizon 1"):
            make_windows(np.arange(4, dtype=float), lookback=4, horizon=1)

    def test_lengths_are_the_arrays_step_counts(self):
        w = make_windows(np.arange(20, dtype=float), lookback=5, horizon=3)
        assert (w.lookback, w.horizon) == (5, 3)
        fit, test = split_windows(w, 12)
        assert (fit.lookback, fit.horizon, test.lookback, test.horizon) == (5, 3, 5, 3)

    @pytest.mark.parametrize("inputs, targets", [
        (np.zeros((4, 3)), np.zeros((4, 1, 1))), (np.zeros((4, 3, 1)), np.zeros((4, 1))),
    ], ids=["2-d-inputs", "2-d-targets"])
    def test_arrays_must_be_windows_steps_features(self, inputs, targets):
        with pytest.raises(DataError, match="windows, steps, features"):
            WindowedSamples(inputs, targets)

    def test_windows_are_read_only_views(self):
        series = np.arange(10, dtype=float)
        w = make_windows(series, lookback=3, horizon=2)
        for array in (w.inputs, w.targets):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0, 0] = -1.0
        assert np.shares_memory(w.inputs, series)
        assert np.array_equal(series, np.arange(10))

    def test_two_step_horizon(self):
        w = make_windows(np.arange(1, 6, dtype=float), lookback=2, horizon=2)
        assert len(w) == 2
        assert np.array_equal(w.inputs[1][:, 0], [2, 3])
        assert np.array_equal(w.targets[1][:, 0], [4, 5])

    def test_multivariate_shapes(self):
        series = np.arange(20, dtype=float).reshape(10, 2)
        w = make_windows(series, lookback=4, horizon=2)
        assert w.inputs.shape == (5, 4, 2)
        assert w.targets.shape == (5, 2, 2)

    def test_target_follows_input(self):
        series = np.arange(30, dtype=float)
        w = make_windows(series, lookback=5, horizon=2)
        for i in range(len(w)):
            assert w.targets[i][0, 0] == w.inputs[i][-1, 0] + 1

    @settings(max_examples=200)
    @given(st.integers(2, 120), st.integers(1, 15), st.integers(1, 15))
    def test_count_formula(self, n, lookback, horizon):
        series = np.arange(n, dtype=float)
        expected = n - lookback - horizon + 1
        if expected < 1:
            with pytest.raises(DataError, match=f"length {n} too short for lookback {lookback}"):
                make_windows(series, lookback, horizon)
        else:
            assert len(make_windows(series, lookback, horizon)) == expected


class TestSplitWindows:
    @settings(max_examples=200)
    @given(st.integers(2, 60), st.integers(1, 8), st.integers(1, 4), st.integers(0, 70))
    def test_rule_matches_per_window_selection(self, n, lookback, horizon, cut):
        if n - lookback - horizon + 1 < 1:
            return
        windows = make_windows(np.arange(n, dtype=float), lookback, horizon)
        fit, test = split_windows(windows, cut)
        # series value == row index, so target rows can be read off directly
        fit_rows = [i for i in range(len(windows)) if i + lookback + horizon <= cut]
        test_rows = [i for i in range(len(windows)) if i + lookback >= cut]
        assert np.array_equal(fit.inputs, windows.inputs[fit_rows])
        assert np.array_equal(test.inputs, windows.inputs[test_rows])
        assert np.array_equal(test.targets, windows.targets[test_rows])
        assert (fit.lookback, fit.horizon) == (test.lookback, test.horizon) == (lookback, horizon)

    def test_cut_before_first_target_clamps(self):
        windows = make_windows(np.arange(10, dtype=float), 4, 1)
        fit, test = split_windows(windows, 2)
        assert len(fit) == 0
        assert len(test) == len(windows)

    def test_test_side_is_a_suffix(self):
        windows = make_windows(np.arange(20, dtype=float), 3, 2)
        fit, test = split_windows(windows, 12)
        assert test.targets[0, 0, 0] == 12
        assert fit.targets[-1, -1, 0] == 11
        assert len(windows) - len(test) == 12 - 3
