"""Loading, cleaning, scaling, splitting and windowing of daily series.

All functions are pure: they never mutate their inputs, and the windows
they cut are read-only views. Missing values are represented as NaN
throughout.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from datetime import date

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DataError
from .fileio import check_fields, is_finite, numbered_rows

MISSING_MARKERS = {"", "NA"}
CHUNK_LINES = 1024  # CSV lines load_csv converts at a time

# each ScalingParams field's rule: key -> (check, what it wants)
SCALING_RULES = dict.fromkeys(("minimum", "maximum"), (is_finite, "a finite number"))


@dataclass(frozen=True)
class ScalingParams:
    """Min/max normalisation constants for one variable."""

    minimum: float
    maximum: float

    def __post_init__(self):
        check_fields(vars(self), SCALING_RULES, DataError, "", "scaling")
        if self.maximum < self.minimum:
            raise DataError(f"maximum {self.maximum!r} below minimum {self.minimum!r}")

    @property
    def degenerate(self) -> bool:
        """A constant variable: it scales to zeros and back to its value."""
        return bool(self.maximum == self.minimum)


@dataclass(frozen=True)
class WindowedSamples:
    """Sliding-window supervision pairs.

    ``inputs`` has shape (n, lookback, n_features) and ``targets`` shape
    (n, horizon, n_features); sample i's target window starts exactly one
    step after its input window ends.
    """

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        if self.inputs.ndim != 3 or self.targets.ndim != 3:
            raise DataError("inputs and targets must be (windows, steps, features) arrays")
        if len(self.inputs) != len(self.targets):
            raise DataError("inputs/targets length mismatch")

    def __len__(self):
        return len(self.inputs)

    @property
    def lookback(self) -> int:
        return self.inputs.shape[1]

    @property
    def horizon(self) -> int:
        return self.targets.shape[1]


def load_csv(
    path, date_column: str = "date", variable_columns: dict[str, str] | None = None
) -> tuple[tuple[date, ...], dict[str, np.ndarray]]:
    """Read a daily-series UTF-8 CSV into its dates and variables.

    The file must have a header row, with no repeated name, whose
    ``date_column`` holds ISO-8601 dates; a byte-order mark before it is
    dropped. ``variable_columns`` maps series name -> CSV column; by
    default every non-date column is taken under its own name. Blank
    lines are skipped, cells are stripped, a short row's missing trailing
    cells are missing values and extra cells are ignored. Rows are sorted
    by date, duplicate dates are rejected and calendar gaps are
    materialised as NaN rows for later imputation. An error names the
    line the first failing row starts on; within a row the date is
    checked first, then its repetition, then the cells in column order.

    Returns ``(dates, variables)``: one date per day from the first to the
    last, and each variable's float64 column in ``variable_columns`` order.
    """
    path = str(path)
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            variable_columns = _variable_columns(path, header, date_column, variable_columns)
            at = [header.index(col) for col in (date_column, *variable_columns.values())]
            chunks = [_parse_rows(rows, at) for rows in _row_chunks(reader)]
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not chunks:
        raise DataError(f"{path}: no data rows")
    if None in chunks:
        _raise_first_fault(path, at, variable_columns.values())

    ordinals, floats = (np.concatenate(part, axis=-1) for part in zip(*chunks))
    by_day = np.argsort(ordinals, kind="stable")
    if (np.diff(ordinals[by_day]) == 0).any():  # a repeated date
        _raise_first_fault(path, at, variable_columns.values())
    first = int(ordinals.min())
    span = int(ordinals.max()) - first + 1
    # one row per variable, so each variable's column is one contiguous array
    matrix = np.full((len(floats), span), math.nan)
    matrix[:, ordinals - first] = floats
    return tuple(map(date.fromordinal, range(first, first + span))), dict(
        zip(variable_columns, matrix)
    )


def csv_variables(path) -> list[str]:
    """The variable names ``load_csv`` reads from a CSV by default: its
    header's columns but ``date``, checked as ``load_csv`` checks them."""
    path = str(path)
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            header = next(csv.reader(fh), [])
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    return list(_variable_columns(path, header, "date", None))


def _row_chunks(reader):
    """The reader's non-blank rows, ``CHUNK_LINES`` lines at a time: a
    chunk's strings are all that is held of the file at once."""
    while lines := list(itertools.islice(reader, CHUNK_LINES)):
        rows = [row for row in lines if row]
        if rows:
            yield rows


def _parse_rows(rows: list[list[str]], at: list[int]):
    """Convert a chunk of rows a column at a time.

    ``at`` holds the date column's index, then the variables'. Returns
    the rows' date ordinals and the variables' floats as one row per
    variable (NaN where missing), or None if a date or a cell does not
    convert or a cell that is not missing is not finite.
    """
    width = 1 + max(at)
    if min(map(len, rows)) < width:
        for row in rows:
            row += [""] * (width - len(row))
    columns = list(zip(*rows))
    days = list(map(str.strip, columns[at[0]]))
    floats = np.empty((len(at) - 1, len(rows)))
    try:
        ordinals = np.fromiter(
            map(date.toordinal, map(date.fromisoformat, days)), np.int64, len(days)
        )
        for values, i in zip(floats, at[1:]):
            cells = list(map(str.strip, columns[i]))
            values[:] = [math.nan if cell in MISSING_MARKERS else float(cell) for cell in cells]
            if np.count_nonzero(~np.isfinite(values)) != sum(map(cells.count, MISSING_MARKERS)):
                return None
    except ValueError:
        return None
    return ordinals, floats


def _raise_first_fault(path: str, at: list[int], columns):
    """Read the data rows again in file order and raise the first failing
    row's error, naming the line it starts on: its date is checked first,
    then the date's repetition, then the cells in column order."""
    width = 1 + max(at)
    seen = set()
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        for line, row in numbered_rows(reader):
            where = f"{path}:{line}"
            cells = [cell.strip() for cell in row] + [""] * (width - len(row))
            try:
                day = date.fromisoformat(cells[at[0]])
            except ValueError as exc:
                raise DataError(f"{where}: unparsable date {cells[at[0]]!r}") from exc
            if day in seen:
                raise DataError(f"{where}: duplicate date {day}")
            seen.add(day)
            for i, col in zip(at[1:], columns):
                _cell_value(where, cells[i], col)  # raises at the row's first bad cell
    raise DataError(f"{path}: rows changed while the file was read")


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
        raise DataError("series starts or ends with a missing value")

    # each gap's nearest present index before it and after it
    index = np.arange(len(values))
    before = np.maximum.accumulate(np.where(missing, 0, index))[missing]
    after = np.minimum.accumulate(np.where(missing, index[-1], index)[::-1])[::-1][missing]
    values[missing] = (values[before] + values[after]) / 2.0
    return values


def minmax_scale(series) -> tuple[np.ndarray, ScalingParams]:
    """Scale a fully-imputed series to [0, 1]; constant series map to zeros."""
    values = np.asarray(series, dtype=float)
    if values.size == 0:
        raise DataError("cannot scale an empty series")
    if np.isnan(values).any():
        raise DataError("series must be imputed before scaling")
    params = ScalingParams(float(values.min()), float(values.max()))
    return apply_scale(values, params), params


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
        raise DataError(f"split ratio {ratio} leaves an empty side for {n} rows")
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
        raise DataError(
            f"series of length {n} too short for lookback {lookback} + horizon {horizon}"
        )
    # (n - lookback - horizon + 1, lookback + horizon, features)
    spans = sliding_window_view(matrix, lookback + horizon, axis=0).transpose(0, 2, 1)
    return WindowedSamples(spans[:, :lookback], spans[:, lookback:])


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
        return WindowedSamples(windows.inputs[rows], windows.targets[rows])

    return part(slice(0, fit_end)), part(slice(test_start, None))
