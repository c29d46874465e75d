import math
import tempfile
from datetime import date, timedelta
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import impute_missing_loop, load_csv_rows
from swarmcast import timeseries
from swarmcast.errors import (
    ConfigError,
    DataError,
    DuplicateDateError,
    EdgeMissingError,
    TooShortError,
)
from swarmcast.timeseries import (
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
        with pytest.raises(DuplicateDateError):
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
        with pytest.raises(DuplicateDateError, match=":4: duplicate date 2020-03-22"):
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
        text, variable_columns = data.draw(csv_files())
        # small chunks put duplicates, faults and blank lines across chunk edges
        chunk_lines = data.draw(st.sampled_from([1, 2, 3, timeseries.CHUNK_LINES]))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data.csv"
            path.write_bytes(text.encode("utf-8"))
            with mock.patch.object(timeseries, "CHUNK_LINES", chunk_lines):
                got = outcome(load_csv, path, variable_columns)
            want = outcome(load_csv_rows, path, variable_columns)
        assert got == want


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
    "non-numeric": st.sampled_from(["abc", '"1,5"', "--1", "0x10"]),
    "non-finite": st.sampled_from(["nan", "inf", "-inf", "NaN", "1e999"]),
}


@st.composite
def csv_files(draw):
    """A CSV text with header date,v,note,w and the mapping to read it with.

    Rows come in any order with calendar gaps, blank lines, short and long
    rows, padded and missing cells and quoted notes that span lines, with
    0-3 faults (bad date, duplicate date, non-numeric or non-finite cell)
    injected on random rows.
    """
    n = draw(st.integers(1, 12))
    offsets = draw(st.lists(st.integers(0, 40), min_size=n, max_size=n, unique=True))
    start = date(2020, 2, 20)
    rows = []
    for offset in offsets:
        day = (start + timedelta(days=offset)).isoformat()
        if draw(st.booleans()):
            day = f" {day} "
        note = draw(st.sampled_from(["", "ok", '"two\nlines"', '"a, b"', "x"]))
        row = [day, draw(CELLS), note, draw(CELLS)]
        width = draw(st.sampled_from([1, 2, 3, 4, 4, 4, 5]))
        rows.append(row[:width] + ["extra"] * (width - 4))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(["bad-date", "duplicate", "non-numeric", "non-finite"]))
        if kind == "duplicate":
            rows[at][0] = rows[draw(st.integers(0, n - 1))][0]
        elif kind == "bad-date":
            rows[at][0] = draw(FAULTS[kind])
        else:
            column = draw(st.sampled_from([1, 3]))
            rows[at] += [""] * (column + 1 - len(rows[at]))
            rows[at][column] = draw(FAULTS[kind])
    lines = ["date,v,note,w"]
    for row in rows:
        lines.extend([""] * draw(st.integers(0, 1)))  # blank lines
        lines.append(",".join(row))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    variable_columns = draw(st.sampled_from([
        {"v": "v", "w": "w"}, {"w": "w", "v": "v"}, {"series": "w"}, {"v": "v"},
    ]))
    return newline.join(lines) + newline, variable_columns


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
        with pytest.raises(EdgeMissingError):
            impute_missing([math.nan, 1, 2])
        with pytest.raises(EdgeMissingError):
            impute_missing([1, 2, math.nan])
        with pytest.raises(EdgeMissingError):
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
        from swarmcast.timeseries import ScalingParams

        assert np.array_equal(
            inverse_scale([0.0, 0.5, 1.0], ScalingParams(0, 10)), [0, 5, 10]
        )
        assert inverse_scale([], ScalingParams(0, 10)).size == 0
        assert np.array_equal(inverse_scale([0.25], ScalingParams(4, 8)), [5.0])

    def test_degenerate_inverse_gives_constant(self):
        from swarmcast.timeseries import ScalingParams

        params = ScalingParams(7, 7, degenerate=True)
        assert np.array_equal(inverse_scale([0.0, 0.3], params), [7.0, 7.0])

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
            with pytest.raises(TooShortError, match=rf"{ratio} .* {n} rows"):
                split_index(n, ratio)

    @given(st.integers(4, 300), st.floats(0.1, 0.9))
    def test_chronology_property(self, n, ratio):
        try:
            cut = split_index(n, ratio)
        except TooShortError:
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
        with pytest.raises(TooShortError):
            make_windows(np.arange(4, dtype=float), lookback=4, horizon=1)

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
            with pytest.raises(TooShortError):
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
