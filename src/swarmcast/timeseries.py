"""Loading, cleaning, scaling, splitting and windowing of daily series.

All functions are pure: they never mutate their inputs, and the windows
they cut are read-only views. Missing values are represented as NaN
throughout.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import date, timedelta

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    ConfigError,
    DataError,
    DuplicateDateError,
    EdgeMissingError,
    TooShortError,
)

MISSING_MARKERS = {"", "NA"}


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
    path, date_column: str = "date", variable_columns: dict[str, str] | None = None
) -> tuple[tuple[date, ...], dict[str, np.ndarray]]:
    """Read a daily-series UTF-8 CSV into its dates and variables.

    The file must have a header row, with no repeated name, whose
    ``date_column`` holds ISO-8601 dates. ``variable_columns`` maps
    series name -> CSV column; by default every non-date column is taken
    under its own name. Blank lines are skipped, cells are stripped, a
    short row's missing trailing cells are missing values and extra cells
    are ignored. Rows are sorted by date, duplicate dates are rejected and
    calendar gaps are materialised as NaN rows for later imputation; an
    error names the line its row starts on.

    Returns ``(dates, variables)``: one date per day from the first to the
    last, and each variable's float64 column in ``variable_columns`` order.
    """
    path = str(path)
    parsed: dict[date, list[float]] = {}
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            variable_columns = _variable_columns(path, header, date_column, variable_columns)
            date_at = header.index(date_column)
            columns = [(header.index(col), col) for col in variable_columns.values()]
            width = 1 + max(date_at, *(at for at, _ in columns))
            last = reader.line_num
            for row in reader:
                where, last = f"{path}:{last + 1}", reader.line_num  # the row's first line
                if not row:
                    continue
                cells = [cell.strip() for cell in row] + [""] * (width - len(row))
                try:
                    day = date.fromisoformat(cells[date_at])
                except ValueError as exc:
                    raise DataError(f"{where}: unparsable date {cells[date_at]!r}") from exc
                if day in parsed:
                    raise DuplicateDateError(f"{where}: duplicate date {day}")
                parsed[day] = [_cell_value(where, cells[at], col) for at, col in columns]
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not parsed:
        raise DataError(f"{path}: no data rows")

    first = min(parsed)
    span = (max(parsed) - first).days + 1
    # column-major, so each variable's column is one contiguous array
    matrix = np.full((span, len(columns)), math.nan, order="F")
    matrix[[(day - first).days for day in parsed]] = list(parsed.values())
    dates = tuple(first + timedelta(days=i) for i in range(span))
    return dates, dict(zip(variable_columns, matrix.T))


def _variable_columns(path, header, date_column, variable_columns) -> dict[str, str]:
    """The name -> column map ``load_csv`` reads, checked against the header."""
    for i, name in enumerate(header):
        if name in header[:i]:
            raise DataError(f"{path}: repeated column name {name!r}")
    if date_column not in header:
        raise DataError(f"{path}: missing date column {date_column!r}")
    if variable_columns is None:
        variable_columns = {c: c for c in header if c != date_column}
    for name, col in variable_columns.items():
        if col not in header:
            raise DataError(f"{path}: missing column {col!r} for variable {name!r}")
    if not variable_columns:
        raise DataError(f"{path}: no variable columns")
    return variable_columns


def _cell_value(where: str, cell: str, col: str) -> float:
    """A stripped cell as a float: NaN when missing, else finite."""
    if cell in MISSING_MARKERS:
        return math.nan
    try:
        value = float(cell)
    except ValueError as exc:
        raise DataError(f"{where}: non-numeric value {cell!r} in column {col!r}") from exc
    if not math.isfinite(value):
        raise DataError(
            f"{where}: non-finite value {cell!r} in column {col!r}"
            " (mark a missing value with an empty cell or NA)"
        )
    return value


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


def split_index(n: int, ratio: float) -> int:
    """Row at which a chronological split of ``n`` rows puts the first
    ``ratio`` of them on the earlier side: floor(ratio * n).

    Both sides must be non-empty, so a small ratio on a short series is
    rejected.
    """
    if not 0.0 < ratio < 1.0:
        raise ConfigError(f"split_ratio must be in (0, 1), got {ratio}")
    cut = math.floor(ratio * n)
    if cut < 1 or cut >= n:
        raise TooShortError(f"split ratio {ratio} leaves an empty side for {n} rows")
    return cut


def make_windows(series, lookback: int, horizon: int) -> WindowedSamples:
    """Build sliding-window samples from a (time, features) matrix.

    Sample i pairs rows [i, i+lookback) with target rows
    [i+lookback, i+lookback+horizon); a 1-d series is treated as a single
    feature column. Inputs and targets are read-only views of the series.
    """
    if lookback < 1 or horizon < 1:
        raise ConfigError("lookback and horizon must be positive")
    matrix = np.asarray(series, dtype=float)
    if matrix.ndim == 1:
        matrix = matrix[:, None]
    n = len(matrix)
    if n < lookback + horizon:
        raise TooShortError(
            f"series of length {n} too short for lookback {lookback} + horizon {horizon}"
        )
    # (n - lookback - horizon + 1, lookback + horizon, features)
    spans = sliding_window_view(matrix, lookback + horizon, axis=0).transpose(0, 2, 1)
    return WindowedSamples(spans[:, :lookback], spans[:, lookback:], lookback, horizon)


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
