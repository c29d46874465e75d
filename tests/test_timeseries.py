import math
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmcast.errors import (
    ConfigError,
    DataError,
    DuplicateDateError,
    EdgeMissingError,
    TooShortError,
)
from swarmcast.timeseries import (
    TimeSeriesDataset,
    impute_missing,
    inverse_scale,
    load_csv,
    make_windows,
    minmax_scale,
    split_windows,
    train_test_split,
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
        ds = load_csv(path)
        assert len(ds) == 3
        assert ds.dates[0] == date(2020, 3, 22)
        assert np.array_equal(ds.series("confirmed"), [1.0, 2.0, 3.0])

    def test_gap_materialised_as_missing(self, tmp_path):
        path = write_csv(tmp_path, "date,confirmed\n2020-03-22,1\n2020-03-24,3\n")
        ds = load_csv(path)
        assert len(ds) == 3
        values = ds.series("confirmed")
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
        ds = load_csv(path)
        assert np.array_equal(ds.series("v"), [1.0, 2.0, 3.0])

    def test_missing_markers(self, tmp_path):
        path = write_csv(tmp_path, "date,v\n2020-03-22,1\n2020-03-23,NA\n2020-03-24,\n2020-03-25,4\n")
        values = load_csv(path).series("v")
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

    def test_column_mapping(self, tmp_path):
        path = write_csv(tmp_path, "day,cases\n2020-03-22,1\n2020-03-23,2\n")
        ds = load_csv(path, date_column="day", variable_columns={"confirmed": "cases"})
        assert ds.variable_names == ["confirmed"]


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


def make_dataset(n, start=date(2020, 3, 22)):
    from datetime import timedelta

    dates = tuple(start + timedelta(days=i) for i in range(n))
    return TimeSeriesDataset("r", dates, {"v": np.arange(n, dtype=float)})


class TestSplit:
    def test_eighty_twenty(self):
        train, test = train_test_split(make_dataset(10), 0.8)
        assert (len(train), len(test)) == (8, 2)

    def test_half(self):
        train, test = train_test_split(make_dataset(10), 0.5)
        assert (len(train), len(test)) == (5, 5)

    def test_length_two_boundary(self):
        train, test = train_test_split(make_dataset(2), 0.8)
        assert (len(train), len(test)) == (1, 1)

    def test_reconstructs_and_is_chronological(self):
        ds = make_dataset(13)
        train, test = train_test_split(ds, 0.8)
        assert train.dates + test.dates == ds.dates
        assert max(train.dates) < min(test.dates)
        assert np.array_equal(
            np.concatenate([train.series("v"), test.series("v")]), ds.series("v")
        )

    def test_bad_ratio(self):
        for ratio in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ConfigError):
                train_test_split(make_dataset(10), ratio)

    def test_too_short(self):
        with pytest.raises(TooShortError):
            train_test_split(make_dataset(1), 0.8)

    @given(st.integers(4, 300), st.floats(0.1, 0.9))
    def test_chronology_property(self, n, ratio):
        ds = make_dataset(n)
        try:
            train, test = train_test_split(ds, ratio)
        except ConfigError:
            return  # degenerate ratio for this length
        assert max(train.dates) < min(test.dates)
        assert len(train) + len(test) == n
        assert len(train) == math.floor(ratio * n)


class TestWindows:
    def test_enumeration(self):
        w = make_windows(np.arange(1, 7, dtype=float), lookback=3, horizon=1)
        assert len(w) == 3
        assert np.array_equal(w.inputs[0][:, 0], [1, 2, 3])
        assert np.array_equal(w.targets[0][:, 0], [4])

    def test_too_short(self):
        with pytest.raises(TooShortError):
            make_windows(np.arange(4, dtype=float), lookback=4, horizon=1)

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
