import csv
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import csvtexts
from oracles import (friedman_loop, mae_loop, mse_loop, parse_score_rows, r_squared_loop,
                     ranks_loop)
from swarmcast import fileio
from swarmcast.errors import ConfigError, DataError
from swarmcast.evaluation import (
    compare_methods,
    friedman_statistic,
    mae,
    metric_report,
    mse,
    nemenyi_cd,
    parse_score_csv,
    r_squared,
    rank_methods,
)

finite_vectors = st.lists(
    st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=40
)


class TestMetrics:
    def test_mae_identity(self):
        assert mae([1, 2, 3], [1, 2, 3]) == 0.0

    def test_mae_hand_value(self):
        assert mae([2, 4], [1, 2]) == 1.5

    def test_mse_identity(self):
        assert mse([1, 2, 3], [1, 2, 3]) == 0.0

    def test_mse_hand_value(self):
        assert mse([2, 4], [1, 2]) == 2.5

    def test_r2_perfect(self):
        assert r_squared([1, 2, 3], [1, 2, 3]) == 1.0

    def test_r2_mean_predictor_is_zero(self):
        actual = [1.0, 2.0, 3.0]
        assert r_squared([2.0, 2.0, 2.0], actual) == 0.0

    def test_r2_hand_value(self):
        assert r_squared([1, 2, 5], [1, 2, 3]) == -1.0

    def test_r2_constant_actual_rejected(self):
        with pytest.raises(DataError, match="actual series is constant"):
            r_squared([1, 2, 3], [5, 5, 5])

    def test_r2_constant_actual_with_inexact_mean_rejected(self):
        # the mean of [0.1] * 3 rounds away from 0.1, so the deviations are not all 0
        with pytest.raises(DataError, match="actual series is constant"):
            r_squared([0.2] * 3, [0.1] * 3)

    def test_r2_of_underflowing_deviations(self):
        # the squared deviations of a non-constant series underflow to 0
        assert r_squared([0.0, 0.0], [0.0, 1.4082492351316105e-251]) == -1.0

    @pytest.mark.parametrize("exponent", [-520, -540, -600])
    @pytest.mark.parametrize("predicted, actual", [
        ([1.0, 2.0, 5.0], [1.0, 2.0, 3.0]),
        ([0.3, -1.1, 2.2, 0.1], [1.3, -2.2, 1.7, 0.4]),
    ])
    def test_r2_is_unchanged_by_scaling_into_underflow(self, predicted, actual, exponent):
        # a power of two scales every value exactly, so R^2 keeps its bits
        scaled = r_squared(np.ldexp(predicted, exponent), np.ldexp(actual, exponent))
        assert scaled == r_squared(predicted, actual)

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            mae([1], [1, 2])

    def test_empty(self):
        with pytest.raises(DataError):
            mse([], [])

    @given(finite_vectors, finite_vectors)
    def test_mae_symmetry(self, a, b):
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
        assert mae(a, b) == mae(b, a)

    @given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=40))
    def test_mse_zero_iff_equal(self, a):
        assert mse(a, a) == 0.0
        shifted = [v + 1.0 for v in a]
        assert mse(shifted, a) > 0.0

    @given(
        st.integers(1, 30).flatmap(
            lambda n: st.tuples(
                st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=n, max_size=n),
                st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=n, max_size=n),
            )
        )
    )
    @example(pair=([0.0, 0.0], [0.0, 1.4082492351316105e-251]))
    @example(pair=([0.0] * 3, [341.7017563720102] * 3))
    def test_metrics_match_loop_oracle(self, pair):
        # 1e-12 relative: summation order alone shifts absolute values
        # by ~eps * n * magnitude
        predicted, actual = pair
        a, b = mae(predicted, actual), mae_loop(predicted, actual)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))
        a, b = mse(predicted, actual), mse_loop(predicted, actual)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))
        # the oracle squares in plain floats, so it is only exact while its
        # sum of squared deviations stays a normal number; its rounded mean
        # can leave a constant series deviations, which r_squared rejects
        mean = sum(actual) / len(actual)
        squares = sum((x - mean) ** 2 for x in actual)
        if max(actual) != min(actual) and squares >= np.finfo(float).tiny:
            assert abs(
                r_squared(predicted, actual) - r_squared_loop(predicted, actual)
            ) <= 1e-9 * max(1.0, abs(r_squared_loop(predicted, actual)))


class TestRanks:
    def test_simple_ordering(self):
        ranks = rank_methods([[3.0, 1.0, 2.0]])
        assert np.array_equal(ranks[0], [3, 1, 2])

    def test_average_ties(self):
        ranks = rank_methods([[1.0, 1.0, 2.0]])
        assert np.array_equal(ranks[0], [1.5, 1.5, 3])

    def test_nan_rejected(self):
        with pytest.raises(DataError):
            rank_methods([[1.0, float("nan")]])

    @settings(max_examples=150)
    @given(
        st.integers(2, 8).flatmap(
            lambda k: st.lists(
                st.lists(st.integers(0, 5).map(float), min_size=k, max_size=k),
                min_size=1,
                max_size=12,
            )
        )
    )
    def test_rank_sum_identity(self, rows):
        ranks = rank_methods(rows)
        k = len(rows[0])
        for row in ranks:
            assert row.sum() == pytest.approx(k * (k + 1) / 2)
        average = ranks.mean(axis=0)
        assert np.all(average >= 1.0) and np.all(average <= k)

    @given(
        st.lists(st.floats(0, 10, allow_nan=False), min_size=3, max_size=3)
    )
    def test_matches_loop_oracle(self, row):
        ranks = rank_methods([row])
        assert np.allclose(ranks[0], ranks_loop(row))


class TestFriedman:
    def test_pure_ties_give_zero(self):
        scores = [[1.0, 1.0, 1.0]] * 4
        result = friedman_statistic(rank_methods(scores))
        assert result["friedman_statistic"] == pytest.approx(0.0)

    def test_hand_fixture_equals_four(self):
        scores = [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]]
        result = friedman_statistic(rank_methods(scores))
        assert result["friedman_statistic"] == pytest.approx(4.0)
        assert result["degrees_of_freedom"] == 2
        assert result["critical_value"] == pytest.approx(5.991)
        assert not result["null_rejected"]

    def test_column_permutation_invariance(self):
        rng = np.random.default_rng(3)
        scores = rng.random((6, 4))
        base = friedman_statistic(rank_methods(scores))
        perm = rng.permutation(4)
        shuffled = friedman_statistic(rank_methods(scores[:, perm]))
        assert shuffled["friedman_statistic"] == pytest.approx(base["friedman_statistic"])
        assert shuffled["null_rejected"] == base["null_rejected"]

    def test_matches_brute_force_on_random_matrices(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            scores = rng.random((10, 5))
            ours = friedman_statistic(rank_methods(scores))["friedman_statistic"]
            theirs = friedman_loop(scores.tolist())
            assert abs(ours - theirs) <= 1e-12


class TestNemenyi:
    def test_reproduction_value(self):
        assert nemenyi_cd(k=6, n=24, q=2.728) == pytest.approx(1.474, abs=1e-3)

    def test_two_methods_simplifies(self):
        q = 2.0
        for n in (3, 7, 24):
            assert nemenyi_cd(2, n, q=q) == pytest.approx(q * np.sqrt(1.0 / n))

    def test_decreasing_in_n(self):
        values = [nemenyi_cd(6, n) for n in (5, 10, 20, 40)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_table_bounds(self):
        with pytest.raises(DataError):
            nemenyi_cd(11, 10)
        with pytest.raises(DataError):
            nemenyi_cd(4, 10, alpha=0.01)
        # explicit q bypasses the table
        assert nemenyi_cd(11, 10, q=3.0) > 0

    @pytest.mark.parametrize("q", [float("nan"), float("inf"), -2.0, 0.0])
    def test_q_not_finite_and_positive_rejected(self, q):
        with pytest.raises(ConfigError, match="q must be"):
            nemenyi_cd(4, 10, q=q)


class TestCompare:
    def test_dominating_method_ranks_first(self):
        rng = np.random.default_rng(5)
        scores = rng.uniform(1.0, 2.0, (8, 4))
        scores[:, 2] = 0.5  # strictly dominates
        result = compare_methods(scores)
        assert result["average_ranks"][2] == pytest.approx(1.0)

    def test_composition_matches_manual(self):
        rng = np.random.default_rng(9)
        scores = rng.random((5, 4))
        result = compare_methods(scores)
        average = rank_methods(scores).mean(axis=0)
        fr = friedman_statistic(rank_methods(scores))
        cd = nemenyi_cd(4, 5)
        assert np.allclose(result["average_ranks"], average)
        assert result["friedman_statistic"] == pytest.approx(fr["friedman_statistic"])
        assert result["cd"] == pytest.approx(cd)
        if fr["null_rejected"]:
            diff = np.abs(average[:, None] - average[None, :])
            expected = diff > cd
            np.fill_diagonal(expected, False)
            assert np.array_equal(result["pairwise_significant"], expected)
        else:
            assert not np.any(result["pairwise_significant"])

    def test_pairwise_symmetric_false_diagonal(self):
        scores = np.array([[1.0, 10.0, 20.0]] * 12)
        result = compare_methods(scores)
        mat = np.array(result["pairwise_significant"])
        assert np.array_equal(mat, mat.T)
        assert not mat.diagonal().any()
        assert result["null_rejected"]
        assert mat.any()

    def test_result_is_its_json_document(self):
        import json

        scores = np.array([[1.0, 2.0, 3.0]] * 3)
        doc = compare_methods(scores)
        assert json.loads(json.dumps(doc)) == doc

    def test_method_names_default_and_must_match_the_columns(self):
        scores = np.array([[1.0, 2.0, 3.0]] * 3)
        assert compare_methods(scores)["methods"] == ["method_1", "method_2", "method_3"]
        assert compare_methods(scores, methods=("a", "b", "c"))["methods"] == ["a", "b", "c"]
        with pytest.raises(DataError, match="2 method names for 3 score columns"):
            compare_methods(scores, methods=["a", "b"])


class TestScoreCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text(
            "test,alpha,beta,gamma\ncase1,1.0,2.0,3.0\ncase2,0.5,0.4,0.3\n",
            encoding="utf-8",
        )
        methods, matrix = parse_score_csv(path)
        assert methods == ["alpha", "beta", "gamma"]
        assert matrix.tolist() == [[1.0, 2.0, 3.0], [0.5, 0.4, 0.3]]

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(DataError):
            parse_score_csv(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("test,a,b\ncase1,1.0,oops\n", encoding="utf-8")
        with pytest.raises(DataError):
            parse_score_csv(path)

    @pytest.mark.parametrize("text, line", [
        ("test,a,b\nt1,1,2\n\nt2,1\n", 4),  # after a blank line
        ("test,a,b\n\n\nt1,1,2\n\"t\n2\",1,x\n", 5),  # a cell spanning lines
    ])
    def test_error_names_the_line_the_row_starts_on(self, tmp_path, text, line):
        path = tmp_path / "scores.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DataError, match=f"scores.csv:{line}: "):
            parse_score_csv(path)

    @pytest.mark.parametrize("row, error", [
        ("t2,1,nan", ":3: score of 'b' is NaN"), ("t2,1,2,3", ":3: expected 3 cells"),
        ("t2,1", ":3: expected 3 cells"), ("t2,1,x", ":3: non-numeric score"),
    ], ids=["nan", "long-row", "short-row", "non-numeric"])
    @pytest.mark.parametrize("quote", ["", '"'], ids=["split", "csv-module"])
    def test_a_files_only_fault_is_found_by_either_reader(self, tmp_path, row, error, quote):
        path = tmp_path / "scores.csv"
        path.write_text(f"test,a,b\n{quote}t1{quote},1,2\n{row}\nt3,4,5\n", encoding="utf-8")
        with pytest.raises(DataError, match=error):
            parse_score_csv(path)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_chunked_reads_match_the_csv_reader_oracle(self, data):
        header = ["test", *data.draw(st.lists(st.sampled_from(["a", "b", " c ", "d", "e", ""]),
                                              min_size=1, max_size=3))]
        text = data.draw(csvtexts.csv_texts(header, st.lists(SCORE_CELLS, min_size=len(header),
                                                             max_size=len(header))))
        # small chunks and a small cell limit put every tier, switch and fault across chunk edges
        sizes = {"CHUNK_CHARS": data.draw(st.sampled_from([1, 7, 32, fileio.CHUNK_CHARS])),
                 "CHUNK_LINES": data.draw(st.sampled_from([1, 3, fileio.CHUNK_LINES]))}
        limit = data.draw(st.sampled_from([csv.field_size_limit(), 8, 16]))
        with tempfile.TemporaryDirectory() as tmp, csvtexts.cell_limit(limit):
            path = Path(tmp) / "scores.csv"
            path.write_bytes(text.encode("utf-8"))
            with mock.patch.multiple(fileio, **sizes):
                got = score_outcome(parse_score_csv, path)
            want = score_outcome(parse_score_rows, path)
        assert got == want


# score cells, six to three to one: numbers, padded or infinite ones, and faulty,
# NUL-holding or multi-line ones
SCORE_CELLS = st.sampled_from(
    [st.floats(allow_nan=False).map(repr)] * 6
    + [st.sampled_from(["1", " 2.5 ", "inf", "-inf", "1e999", "0"])] * 3
    + [st.sampled_from(["nan", " nan ", "x", "", "4\x00", "1,5", "7\n", "case\r2"])]
).flatmap(lambda cells: cells)


def score_outcome(reader, path):
    """A score reader's result, comparable with ==: the method names and the
    matrix's shape and bytes, or its exception type and message."""
    try:
        methods, matrix = reader(path)
    except DataError as exc:
        return type(exc), str(exc)
    return methods, matrix.shape, matrix.dtype, matrix.tobytes()


def test_metric_report_fields():
    report = metric_report([1.0, 2.0], [1.0, 4.0])
    assert sorted(report) == ["mae", "mse", "n", "r_squared"]
    assert report["n"] == 2
    assert report["mae"] == 1.0
    assert report["mse"] == 2.0
