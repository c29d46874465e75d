"""Independent reference implementations used to check the package.

Everything here is written with plain Python loops, over scalars with
``math`` or over one row at a time with numpy, so it shares no code path
with the vectorised implementations under test.
"""

import itertools
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np


def sigmoid_scalar(v):
    if v >= 0:
        return 1.0 / (1.0 + math.exp(-v))
    e = math.exp(v)
    return e / (1.0 + e)


def conv1d_loop(x, weights, bias):
    """Valid stride-1 convolution of x (L rows of F values) with weights
    (filters x K x F) and bias (filters); no activation. Returns the
    (L - K + 1) x filters output as nested lists."""
    n_filters, kernel = len(weights), len(weights[0])
    out = []
    for i in range(len(x) - kernel + 1):
        row = []
        for f in range(n_filters):
            total = bias[f]
            for m in range(kernel):
                for c, value in enumerate(x[i + m]):
                    total += weights[f][m][c] * value
            row.append(total)
        out.append(row)
    return out


def maxpool1d_loop(x, pool):
    """Non-overlapping max over ``pool`` consecutive rows of x, per column;
    a trailing remainder shorter than the pool is dropped."""
    out = []
    for start in range(0, len(x) - pool + 1, pool):
        out.append([max(x[start + k][c] for k in range(pool)) for c in range(len(x[0]))])
    return out


def lstm_step_scalar(x, prev_cell, prev_hidden, w):
    """Scalar-loop LSTM step over the concatenation [prev_hidden, x].

    ``w`` maps gate name -> (weight rows, bias list) with rows of length
    units + len(x). Returns (hidden, cell) as plain lists.
    """
    units = len(prev_hidden)
    concat = list(prev_hidden) + list(x)

    def affine(rows, bias, unit):
        total = bias[unit]
        for j, value in enumerate(concat):
            total += rows[unit][j] * value
        return total

    hidden, cell = [], []
    for u in range(units):
        forget = sigmoid_scalar(affine(*w["forget"], u))
        update = sigmoid_scalar(affine(*w["input"], u))
        candidate = math.tanh(affine(*w["candidate"], u))
        out_gate = sigmoid_scalar(affine(*w["output"], u))
        c = forget * prev_cell[u] + update * candidate
        cell.append(c)
        hidden.append(out_gate * math.tanh(c))
    return hidden, cell


def adam_loop(grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Kingma and Ba's Adam (ICLR 2015, Algorithm 1), element by element
    in Python floats with the bias-corrected m_hat and v_hat. ``grads``
    holds one gradient vector per step; yields, per step, the list of
    amounts lr * m_hat / (sqrt(v_hat) + eps) the algorithm subtracts
    from the parameters."""
    m, v = [0.0] * len(grads[0]), [0.0] * len(grads[0])
    for t, grad in enumerate(grads, start=1):
        steps = []
        for i, g in enumerate(float(value) for value in grad):
            m[i] = beta1 * m[i] + (1.0 - beta1) * g
            v[i] = beta2 * v[i] + (1.0 - beta2) * g * g
            m_hat = m[i] / (1.0 - beta1**t)
            v_hat = v[i] / (1.0 - beta2**t)
            steps.append(lr * m_hat / (math.sqrt(v_hat) + eps))
        yield steps


def _decimal(value: Fraction) -> Decimal:
    return Decimal(value.numerator) / Decimal(value.denominator)


def adam_exact(grads, lr, beta1=0.9, beta2=0.999, eps=1e-8, digits=50):
    """``adam_loop`` without rounding: m, v and the bias corrections are
    exact ``Fraction``s of the float inputs, and the square root and the
    step are taken in ``digits``-digit decimal. Yields, per step, the
    list of ``Decimal`` amounts the algorithm subtracts."""
    beta1, beta2 = Fraction(beta1), Fraction(beta2)
    m, v = [Fraction(0)] * len(grads[0]), [Fraction(0)] * len(grads[0])
    with localcontext() as context:
        context.prec = digits
        for t, grad in enumerate(grads, start=1):
            steps = []
            for i, g in enumerate(Fraction(float(value)) for value in grad):
                m[i] = beta1 * m[i] + (1 - beta1) * g
                v[i] = beta2 * v[i] + (1 - beta2) * g * g
                m_hat = _decimal(m[i] / (1 - beta1**t))
                v_hat = _decimal(v[i] / (1 - beta2**t))
                steps.append(Decimal(lr) * m_hat / (v_hat.sqrt() + Decimal(eps)))
            yield steps


def mae_loop(predicted, actual):
    total = 0.0
    for y, x in zip(predicted, actual):
        total += abs(y - x)
    return total / len(predicted)


def mse_loop(predicted, actual):
    total = 0.0
    for y, x in zip(predicted, actual):
        total += (y - x) ** 2
    return total / len(predicted)


def r_squared_loop(predicted, actual):
    mean = sum(actual) / len(actual)
    ss_tot = sum((x - mean) ** 2 for x in actual)
    ss_res = sum((y - x) ** 2 for y, x in zip(predicted, actual))
    return 1.0 - ss_res / ss_tot


def ranks_loop(row):
    """Ascending average-tie ranks computed by counting comparisons."""
    ranks = []
    for value in row:
        below = sum(1 for other in row if other < value)
        equal = sum(1 for other in row if other == value)
        ranks.append(below + (equal + 1) / 2.0)
    return ranks


def friedman_loop(scores):
    """Termwise Friedman chi-square from a (tests x methods) nested list."""
    n = len(scores)
    k = len(scores[0])
    rank_sums = [0.0] * k
    for row in scores:
        for j, rank in enumerate(ranks_loop(row)):
            rank_sums[j] += rank
    total = sum(r * r for r in rank_sums)
    return 12.0 / (n * k * (k + 1)) * total - 3.0 * n * (k + 1)


def finite_difference_grads(net, x, target, eps=1e-5):
    """Central-difference gradients of the forward-pass MSE for every
    parameter of ``net``; only the forward pass is used."""
    import numpy as np

    from fused import with_params
    from swarmcast.network import network_forward

    def loss_for(candidate):
        output = network_forward(x, candidate)
        err = output - np.asarray(target, dtype=float).reshape(-1)
        return float(np.mean(err**2))

    grads = {}
    params = {k: v.copy() for k, v in net.params().items()}
    for key, base in params.items():
        grad = np.zeros_like(base)
        flat = base.ravel()
        grad_flat = grad.ravel()
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + eps
            hi = loss_for(with_params(net, params))
            flat[i] = original - eps
            lo = loss_for(with_params(net, params))
            flat[i] = original
            grad_flat[i] = (hi - lo) / (2.0 * eps)
        grads[key] = grad
    return grads


def max_relative_error(analytic, numeric, floor=1e-3):
    """Largest |a - n| / max(|a|, |n|, floor) over matching gradient dicts.

    The floor keeps the ratio meaningful for near-zero entries, where
    central differences only resolve absolute error.
    """
    worst = 0.0
    for key in analytic:
        a = analytic[key].ravel()
        n = numeric[key].ravel()
        for ai, ni in zip(a, n):
            denom = max(abs(ai), abs(ni), floor)
            worst = max(worst, abs(ai - ni) / denom)
    return worst


def impute_missing_loop(values):
    """``timeseries.impute_missing`` as a loop over the runs of NaN: each
    run is filled with the mean of the present values around it. The first
    and last values must be present."""
    values = [float(v) for v in values]
    i = 0
    while i < len(values):
        if not math.isnan(values[i]):
            i += 1
            continue
        j = i
        while math.isnan(values[j]):
            j += 1
        fill = (values[i - 1] + values[j]) / 2.0
        values[i:j] = [fill] * (j - i)
        i = j
    return values


def load_csv_rows(path, date_column="date", variable_columns=None):
    """``timeseries.load_csv`` as a row-by-row loop: each row is stripped,
    padded, dated, checked against the dates before it and converted cell
    by cell, and the first failing row raises. Same contract and messages."""
    import csv
    from datetime import date, timedelta

    import numpy as np

    from swarmcast.errors import DataError
    from swarmcast.timeseries import _variable_columns

    def cell_value(where, cell, col):
        if cell in ("", "NA"):
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

    path = str(path)
    parsed = {}
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
                    raise DataError(f"{where}: duplicate date {day}")
                parsed[day] = [cell_value(where, cells[at], col) for at, col in columns]
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not parsed:
        raise DataError(f"{path}: no data rows")

    first = min(parsed)
    span = (max(parsed) - first).days + 1
    matrix = np.full((span, len(columns)), math.nan, order="F")
    matrix[[(day - first).days for day in parsed]] = list(parsed.values())
    dates = tuple(first + timedelta(days=i) for i in range(span))
    return dates, dict(zip(variable_columns, matrix.T))


def enumerate_assignments(space):
    """Every cell of a HyperparamSpace's grid, in lexicographic candidate order."""
    names = [name for name, _ in space.dimensions]
    for values in itertools.product(*(candidates for _, candidates in space.dimensions)):
        yield dict(zip(names, values))


def gwo_step_loop(positions, leaders, a, rng, bounds):
    """Grey-wolf update with one pass per leader, drawing r1 then r2 for
    alpha, then for beta, then for delta, and summing the candidates in
    that order; the vectorised ``gwo_step`` must match it byte for byte."""
    positions = np.asarray(positions, dtype=float)
    pop, dim = positions.shape
    total = np.zeros_like(positions)
    for leader in leaders:
        r1 = rng.random((pop, dim))
        r2 = rng.random((pop, dim))
        coeff_a = 2.0 * a * r1 - a
        coeff_c = 2.0 * r2
        dist = np.abs(coeff_c * leader - positions)
        total += leader - coeff_a * dist
    return np.clip(total / 3.0, bounds.low, bounds.high)
