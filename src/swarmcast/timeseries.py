"""Loading, cleaning, scaling, splitting and windowing of daily series.

All functions are pure: they return new values and never mutate their
inputs. Missing values are represented as NaN throughout.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import date, timedelta

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    DuplicateDateError,
    EdgeMissingError,
    TooShortError,
)

MISSING_MARKERS = {"", "NA"}


@dataclass(frozen=True)
class TimeSeriesDataset:
    """Per-region daily series of one or more named variables.

    All variable vectors share the length of ``dates``; dates are strictly
    increasing with daily step.
    """

    region_id: str
    dates: tuple[date, ...]
    variables: dict[str, np.ndarray]

    def __post_init__(self):
        n = len(self.dates)
        for name, values in self.variables.items():
            if len(values) != n:
                raise DataError(
                    f"variable {name!r} has {len(values)} values for {n} dates"
                )
        for prev, cur in zip(self.dates, self.dates[1:]):
            if cur - prev != timedelta(days=1):
                raise DataError(f"dates are not daily between {prev} and {cur}")

    def __len__(self):
        return len(self.dates)

    @property
    def variable_names(self) -> list[str]:
        return list(self.variables)

    def series(self, name: str) -> np.ndarray:
        return np.asarray(self.variables[name], dtype=float)

    def to_matrix(self, names: list[str] | None = None) -> np.ndarray:
        """Stack the named variables (default: all) into a (time, features) matrix."""
        names = names if names is not None else self.variable_names
        return np.column_stack([self.series(n) for n in names])

    def replace_variables(self, variables: dict[str, np.ndarray]) -> "TimeSeriesDataset":
        return TimeSeriesDataset(self.region_id, self.dates, dict(variables))


@dataclass(frozen=True)
class ScalingParams:
    """Min/max normalisation constants for one variable."""

    minimum: float
    maximum: float
    degenerate: bool = False

    def __post_init__(self):
        if self.maximum < self.minimum:
            raise DataError("scaling maximum below minimum")


@dataclass(frozen=True)
class WindowedSamples:
    """Sliding-window supervision pairs.

    ``inputs`` has shape (n, lookback, n_features) and ``targets`` shape
    (n, horizon, n_features); sample i's target window starts exactly one
    step after its input window ends.
    """

    inputs: np.ndarray
    targets: np.ndarray
    lookback: int
    horizon: int

    def __post_init__(self):
        if len(self.inputs) != len(self.targets):
            raise DataError("inputs/targets length mismatch")

    def __len__(self):
        return len(self.inputs)


def load_csv(
    path,
    date_column: str = "date",
    variable_columns: dict[str, str] | None = None,
    region_id: str | None = None,
) -> TimeSeriesDataset:
    """Read a daily-series CSV into a dataset.

    The file must have a header row with ``date_column`` holding ISO-8601
    dates. ``variable_columns`` maps series name -> CSV column; by default
    every non-date column is taken under its own name. Rows are sorted by
    date, duplicate dates are rejected and calendar gaps are materialised
    as NaN rows for later imputation.
    """
    path = str(path)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            header = reader.fieldnames or []
            rows = list(reader)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc

    if date_column not in header:
        raise DataError(f"{path}: missing date column {date_column!r}")
    if variable_columns is None:
        variable_columns = {c: c for c in header if c != date_column}
    for name, col in variable_columns.items():
        if col not in header:
            raise DataError(f"{path}: missing column {col!r} for variable {name!r}")
    if not variable_columns:
        raise DataError(f"{path}: no variable columns")

    parsed: dict[date, dict[str, float]] = {}
    for lineno, row in enumerate(rows, start=2):
        raw_date = (row.get(date_column) or "").strip()
        try:
            day = date.fromisoformat(raw_date)
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: unparsable date {raw_date!r}") from exc
        if day in parsed:
            raise DuplicateDateError(f"{path}:{lineno}: duplicate date {day}")
        values = {}
        for name, col in variable_columns.items():
            cell = (row.get(col) or "").strip()
            if cell in MISSING_MARKERS:
                values[name] = math.nan
                continue
            try:
                value = float(cell)
            except ValueError as exc:
                raise DataError(
                    f"{path}:{lineno}: non-numeric value {cell!r} in column {col!r}"
                ) from exc
            if not math.isfinite(value):
                raise DataError(
                    f"{path}:{lineno}: non-finite value {cell!r} in column {col!r}"
                    " (mark a missing value with an empty cell or NA)"
                )
            values[name] = value
        parsed[day] = values

    if not parsed:
        raise DataError(f"{path}: no data rows")

    first, last = min(parsed), max(parsed)
    all_days = [first + timedelta(days=i) for i in range((last - first).days + 1)]
    variables = {
        name: np.array(
            [parsed.get(d, {}).get(name, math.nan) for d in all_days], dtype=float
        )
        for name in variable_columns
    }
    return TimeSeriesDataset(
        region_id=region_id if region_id is not None else path,
        dates=tuple(all_days),
        variables=variables,
    )


def impute_missing(series) -> np.ndarray:
    """Fill NaN entries with the mean of the nearest present neighbours.

    A run of consecutive missing values all receive the mean of the run's
    two present endpoints, which reduces to the previous/next-day average
    for a single gap. The first and last entries must be present.
    """
    values = np.asarray(series, dtype=float).copy()
    missing = np.isnan(values)
    if not missing.any():
        return values
    if missing[0] or missing[-1]:
        raise EdgeMissingError("series starts or ends with a missing value")

    i = 0
    n = len(values)
    while i < n:
        if not missing[i]:
            i += 1
            continue
        j = i
        while missing[j]:
            j += 1
        fill = (values[i - 1] + values[j]) / 2.0
        values[i:j] = fill
        i = j
    return values


def minmax_scale(series) -> tuple[np.ndarray, ScalingParams]:
    """Scale a fully-imputed series to [0, 1]; constant series map to zeros."""
    values = np.asarray(series, dtype=float)
    if values.size == 0:
        raise DataError("cannot scale an empty series")
    if np.isnan(values).any():
        raise DataError("series must be imputed before scaling")
    lo, hi = float(values.min()), float(values.max())
    if hi == lo:
        return np.zeros_like(values), ScalingParams(lo, hi, degenerate=True)
    return (values - lo) / (hi - lo), ScalingParams(lo, hi)


def apply_scale(series, params: ScalingParams) -> np.ndarray:
    """Scale with previously fitted params (e.g. train-split params on test data)."""
    values = np.asarray(series, dtype=float)
    if params.degenerate:
        return np.zeros_like(values)
    return (values - params.minimum) / (params.maximum - params.minimum)


def inverse_scale(scaled, params: ScalingParams) -> np.ndarray:
    """Algebraic inverse of :func:`minmax_scale`; degenerate params give the constant min."""
    values = np.asarray(scaled, dtype=float)
    if params.degenerate:
        return np.full_like(values, params.minimum)
    return params.minimum + values * (params.maximum - params.minimum)


def train_test_split(
    dataset: TimeSeriesDataset, ratio: float = 0.8
) -> tuple[TimeSeriesDataset, TimeSeriesDataset]:
    """Chronological split at index floor(ratio * len); no shuffling.

    Both halves must be non-empty, so very small ratios on short datasets
    are rejected.
    """
    if not 0.0 < ratio < 1.0:
        raise ConfigError(f"split ratio must be in (0, 1), got {ratio}")
    n = len(dataset)
    if n < 2:
        raise TooShortError("need at least 2 points to split")
    cut = math.floor(ratio * n)
    if cut < 1 or cut >= n:
        raise ConfigError(f"ratio {ratio} leaves an empty split for length {n}")
    train = TimeSeriesDataset(
        dataset.region_id,
        dataset.dates[:cut],
        {k: v[:cut].copy() for k, v in dataset.variables.items()},
    )
    test = TimeSeriesDataset(
        dataset.region_id,
        dataset.dates[cut:],
        {k: v[cut:].copy() for k, v in dataset.variables.items()},
    )
    return train, test


def make_windows(series, lookback: int, horizon: int) -> WindowedSamples:
    """Build sliding-window samples from a (time, features) matrix.

    Sample i pairs rows [i, i+lookback) with target rows
    [i+lookback, i+lookback+horizon); a 1-d series is treated as a single
    feature column.
    """
    if lookback < 1 or horizon < 1:
        raise ConfigError("lookback and horizon must be positive")
    matrix = np.asarray(series, dtype=float)
    if matrix.ndim == 1:
        matrix = matrix[:, None]
    n = len(matrix)
    count = n - lookback - horizon + 1
    if count < 1:
        raise TooShortError(
            f"series of length {n} too short for lookback {lookback} + horizon {horizon}"
        )
    inputs = np.stack([matrix[i : i + lookback] for i in range(count)])
    targets = np.stack(
        [matrix[i + lookback : i + lookback + horizon] for i in range(count)]
    )
    return WindowedSamples(inputs=inputs, targets=targets, lookback=lookback, horizon=horizon)


def split_windows(
    windows: WindowedSamples, cut: int
) -> tuple[WindowedSamples, WindowedSamples]:
    """Chronological split of windows at series row ``cut``.

    A window fits if its target ends at or before the cut and tests if
    its target starts at or after it; with a horizon above 1 the windows
    whose target straddles the cut go to neither side. Both sides are
    contiguous slices, the test side a suffix.
    """
    fit_end = max(cut - windows.lookback - windows.horizon + 1, 0)
    test_start = max(cut - windows.lookback, 0)

    def part(rows: slice) -> WindowedSamples:
        return WindowedSamples(
            windows.inputs[rows], windows.targets[rows], windows.lookback, windows.horizon
        )

    return part(slice(0, fit_end)), part(slice(test_start, None))
