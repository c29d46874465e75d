"""Forecast-quality metrics and rank-based multi-method comparison.

Implements MAE, MSE and R-squared plus the Friedman chi-square test and
the Nemenyi critical-difference post hoc over a (tests x methods) loss
matrix. Lower scores are better everywhere; rank 1 is the best method on
a test, ties receive average ranks.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from .errors import ConfigError, DataError
from .fileio import numbered_rows

# significance level of the Friedman test and the Nemenyi post hoc, unless a run sets its own
ALPHA = 0.05

# Studentized range over sqrt(2) at infinite degrees of freedom, the usual
# Nemenyi table for k = 2..10 methods.
NEMENYI_Q = {
    0.05: {2: 1.960, 3: 2.343, 4: 2.569, 5: 2.728, 6: 2.850, 7: 2.949,
           8: 3.031, 9: 3.102, 10: 3.164},
    0.10: {2: 1.645, 3: 2.052, 4: 2.291, 5: 2.459, 6: 2.589, 7: 2.693,
           8: 2.780, 9: 2.855, 10: 2.920},
}

# Chi-square upper quantiles keyed by significance level, for df = 1..9.
CHI2_CRITICAL = {
    0.05: {1: 3.841, 2: 5.991, 3: 7.815, 4: 9.488, 5: 11.070, 6: 12.592,
           7: 14.067, 8: 15.507, 9: 16.919},
    0.10: {1: 2.706, 2: 4.605, 3: 6.251, 4: 7.779, 5: 9.236, 6: 10.645,
           7: 12.017, 8: 13.362, 9: 14.684},
}


def _check_pair(predicted, actual):
    y = np.asarray(predicted, dtype=float)
    x = np.asarray(actual, dtype=float)
    if y.shape != x.shape:
        raise DataError(f"length mismatch: {y.shape} vs {x.shape}")
    if y.size == 0:
        raise DataError("empty input")
    return y, x


def mae(predicted, actual) -> float:
    """Mean absolute deviation between predictions and truth."""
    y, x = _check_pair(predicted, actual)
    return float(np.mean(np.abs(y - x)))


def mse(predicted, actual) -> float:
    """Mean squared deviation between predictions and truth."""
    y, x = _check_pair(predicted, actual)
    return float(np.mean((y - x) ** 2))


def r_squared(predicted, actual) -> float:
    """1 - SS_res / SS_tot about the actual mean; negative when worse than the mean.

    A constant actual series (max == min) raises DataError.
    """
    y, x = _check_pair(predicted, actual)
    if x.max() == x.min():
        raise DataError("actual series is constant")
    deviations = x - x.mean()
    residuals = y - x
    ss_tot = float(np.sum(deviations**2))
    if ss_tot < np.finfo(float).tiny:
        # the squares underflow: one power of two lifts the largest deviation
        # into [0.5, 1) and scales both sums alike, leaving their ratio
        _, exponent = math.frexp(float(np.abs(deviations).max()))
        deviations = np.ldexp(deviations, -exponent)
        residuals = np.ldexp(residuals, -exponent)
        ss_tot = float(np.sum(deviations**2))
    ss_res = float(np.sum(residuals**2))
    return 1.0 - ss_res / ss_tot


def metric_report(predicted, actual) -> dict:
    """The metrics of one prediction set, as ``metrics.json`` records them."""
    y, x = _check_pair(predicted, actual)
    return {"mae": mae(y, x), "mse": mse(y, x), "r_squared": r_squared(y, x), "n": y.size}


def rank_methods(scores) -> np.ndarray:
    """(tests x methods) ranks of a loss matrix: rank 1 = lowest loss, ties averaged."""
    matrix = np.asarray(scores, dtype=float)
    if matrix.ndim != 2:
        raise DataError("scores must be a 2-d (tests x methods) matrix")
    n, k = matrix.shape
    if n < 1 or k < 2:
        raise DataError(f"need at least 1 test and 2 methods, got {n}x{k}")
    if np.isnan(matrix).any():
        raise DataError("scores contain NaN")
    # per row: 1 + the values below + half the other values equal to it
    value, other = matrix[:, :, None], matrix[:, None, :]
    return 1.0 + (other < value).sum(axis=2) + ((other == value).sum(axis=2) - 1) / 2.0


def friedman_statistic(ranks: np.ndarray, alpha: float = ALPHA) -> dict:
    """Friedman chi-square over the rank sums of ``rank_methods``' ranks.

    statistic = 12 / (n k (k+1)) * sum_i R_i^2 - 3 n (k+1), with R_i the
    rank sum of method i over the n tests. The decision compares against
    the embedded chi-square quantile with k-1 degrees of freedom. Returns
    the test's keys of ``comparison.json``: ``friedman_statistic``,
    ``critical_value``, ``null_rejected``, ``alpha`` and ``degrees_of_freedom``.
    """
    n, k = ranks.shape
    if alpha not in CHI2_CRITICAL:
        raise DataError(f"alpha must be one of {sorted(CHI2_CRITICAL)}")
    df = k - 1
    if df not in CHI2_CRITICAL[alpha]:
        raise DataError(f"no chi-square quantile for {k} methods")
    rank_sums = ranks.sum(axis=0)
    statistic = 12.0 / (n * k * (k + 1)) * float(np.sum(rank_sums**2)) - 3.0 * n * (k + 1)
    critical = CHI2_CRITICAL[alpha][df]
    return {
        "friedman_statistic": statistic,
        "critical_value": critical,
        "null_rejected": statistic > critical,
        "alpha": alpha,
        "degrees_of_freedom": df,
    }


def nemenyi_cd(k: int, n: int, alpha: float = ALPHA, q: float | None = None) -> float:
    """Critical difference q_alpha * sqrt(k (k+1) / (6 N)).

    ``q``, a finite number > 0, overrides the embedded table, which
    covers k = 2..10 at alpha in {0.05, 0.10}.
    """
    if n < 1:
        raise DataError("need at least one test")
    if q is None:
        if alpha not in NEMENYI_Q:
            raise DataError(f"alpha must be one of {sorted(NEMENYI_Q)}")
        if k not in NEMENYI_Q[alpha]:
            raise DataError(f"no q value for k={k}; supply q explicitly")
        q = NEMENYI_Q[alpha][k]
    elif not 0 < q < math.inf:
        raise ConfigError(f"q must be a finite number > 0, got {q}")
    return float(q * np.sqrt(k * (k + 1) / (6.0 * n)))


def compare_methods(
    scores, methods=None, alpha: float = ALPHA, q: float | None = None
) -> dict:
    """Rank, test and post-hoc compare methods on a loss matrix, its
    columns named by ``methods`` (default ``method_1``, ...).

    Returns ``comparison.json``: ``methods``, their ``average_ranks``, the
    ``friedman_statistic`` keys, the critical difference ``cd`` and the
    (k x k) ``pairwise_significant`` flags. A flag is |avg_rank_i -
    avg_rank_j| > CD, set only when the Friedman null is rejected (the
    post hoc is meaningless otherwise).
    """
    ranks = rank_methods(scores)
    n, k = ranks.shape
    methods = list(methods) if methods else [f"method_{i+1}" for i in range(k)]
    if len(methods) != k:
        raise DataError(f"{len(methods)} method names for {k} score columns")
    fr = friedman_statistic(ranks, alpha=alpha)
    cd = nemenyi_cd(k, n, alpha=alpha, q=q)
    avg = ranks.mean(axis=0)
    # cd > 0, so a method is never flagged against itself
    pairwise = (np.abs(avg[:, None] - avg[None, :]) > cd) & fr["null_rejected"]
    return {"methods": methods, "average_ranks": avg.tolist(), **fr, "cd": cd,
            "pairwise_significant": pairwise.tolist()}


def parse_score_csv(path) -> tuple[list[str], np.ndarray]:
    """Read a score matrix: first column test name, one column per method.

    Returns (method names, N x k matrix); the test names are skipped. An
    error names the line its row starts on; blank lines are skipped. A
    method name must be non-blank and unique. ``inf`` is a valid (worst)
    loss, NaN is not.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = list(numbered_rows(csv.reader(fh)))
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read scores {path}: {exc}") from exc
    if len(rows) < 2:
        raise DataError(f"{path}: need a header and at least one test row")
    header_line, header = rows[0]
    if len(header) < 3:
        raise DataError(f"{path}: need at least two method columns")
    methods = [h.strip() for h in header[1:]]
    for column, method in enumerate(methods, start=2):
        if not method or method in methods[:column - 2]:
            problem = f"repeated method name {method!r}" if method else "blank method name"
            raise DataError(f"{path}:{header_line}: column {column}: {problem}")
    values = []
    for lineno, row in rows[1:]:
        if len(row) != len(header):
            raise DataError(f"{path}:{lineno}: expected {len(header)} cells")
        try:
            scores = [float(c) for c in row[1:]]
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: non-numeric score") from exc
        for method, score in zip(methods, scores):
            if math.isnan(score):
                raise DataError(f"{path}:{lineno}: score of {method!r} is NaN")
        values.append(scores)
    return methods, np.asarray(values, dtype=float)
