import math
import warnings
import weakref
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import enumerate_assignments
from swarmcast import metaheuristics, network, tuning
from swarmcast.errors import ConfigError, DataError, NumericalError
from swarmcast.metaheuristics import OptimizerParams
from swarmcast.network import (NetworkConfig, TrainingConfig, initialize_network, lockstep_key,
                               pooled_length)
from swarmcast.timeseries import WindowedSamples
from swarmcast.tuning import (
    DEFAULT_SPACE,
    EXTENDED_SPACE,
    LOOKBACK,
    HyperparamSpace,
    cell_configs,
    check_sizes,
    decode_position,
    derive_seed,
    fit_mask,
    fitness,
    inner_validation_split,
    lockstep_groups,
    per_cell,
    surrogate_fitness,
    tune,
    tune_series,
)


DEGENERATE = r"every evaluation returned NaN or \+inf"


def decode_cell(position, space=DEFAULT_SPACE):
    return space.cell(decode_position(position, space))


def decode_row_reference(position, space):
    """The per-row decode as a plain loop over the coordinates."""
    indices = []
    for coord, (_, candidates) in zip(position, space.dimensions):
        clamped = min(max(float(coord), 0.0), 1.0)
        indices.append(min(int(clamped * len(candidates)), len(candidates) - 1))
    return indices


def boundary_coordinates(space):
    """k/n for every grid size n of the space, and the float just below each."""
    values = set()
    for _, candidates in space.dimensions:
        n = len(candidates)
        for k in range(n + 1):
            values.update((k / n, float(np.nextafter(k / n, -np.inf))))
    return sorted(values)


class TestDecode:
    def test_zeros_pick_first_candidates(self):
        a = decode_cell([0.0, 0.0, 0.0, 0.0])
        assert a == {"n_filters": 32, "kernel_size": 3, "pool_size": 2, "lstm_units": 10}

    def test_high_positions_pick_last_candidates(self):
        a = decode_cell([0.99, 0.99, 0.99, 0.99])
        assert a == {"n_filters": 64, "kernel_size": 8, "pool_size": 4, "lstm_units": 25}

    def test_midpoint_indices(self):
        a = decode_cell([0.5, 0.5, 0.5, 0.5])
        assert a == {"n_filters": 64, "kernel_size": 6, "pool_size": 3, "lstm_units": 20}

    def test_out_of_box_clamped(self):
        a = decode_cell([-3.0, 7.0, 0.2, 1.0])
        assert a["n_filters"] == 32
        assert a["kernel_size"] == 8
        assert a["lstm_units"] == 25

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigError):
            decode_position([0.5, 0.5], DEFAULT_SPACE)

    @pytest.mark.parametrize("space", [DEFAULT_SPACE, EXTENDED_SPACE], ids=["default", "extended"])
    @settings(max_examples=100)
    @given(data=st.data())
    def test_matrix_decode_matches_row_by_row(self, space, data):
        coordinate = st.one_of(
            st.sampled_from(boundary_coordinates(space)),
            st.floats(-0.5, 1.5, allow_nan=False),
            st.floats(allow_nan=False),
        )
        rows = data.draw(st.lists(
            st.lists(coordinate, min_size=len(space), max_size=len(space)),
            min_size=1, max_size=12,
        ))
        matrix = decode_position(np.array(rows), space)
        assert matrix.shape == (len(rows), len(space))
        for row, decoded in zip(rows, matrix):
            assert decoded.tolist() == decode_row_reference(row, space)
            assert decode_position(row, space).tolist() == decoded.tolist()

    def test_grid_size(self):
        assert math.prod(DEFAULT_SPACE.shape) == 144
        assert len(list(enumerate_assignments(DEFAULT_SPACE))) == 144
        assert math.prod(EXTENDED_SPACE.shape) == 144 * 6

    def test_surjective_by_inverse_sampling(self):
        seen = set()
        sizes = [len(c) for _, c in DEFAULT_SPACE.dimensions]
        for assignment in enumerate_assignments(DEFAULT_SPACE):
            indices = [
                candidates.index(assignment[name])
                for name, candidates in DEFAULT_SPACE.dimensions
            ]
            position = [(i + 0.5) / n for i, n in zip(indices, sizes)]
            decoded = decode_position(position, DEFAULT_SPACE)
            assert DEFAULT_SPACE.cell(decoded) == assignment
            seen.add(tuple(decoded.tolist()))
        assert len(seen) == 144

    @settings(max_examples=200)
    @given(
        st.integers(0, 3),
        st.floats(0, 1, allow_nan=False),
        st.floats(0, 1, allow_nan=False),
    )
    def test_monotone_per_dimension(self, dim, a, b):
        lo, hi = sorted((a, b))
        base = [0.4, 0.4, 0.4, 0.4]
        low_pos, high_pos = list(base), list(base)
        low_pos[dim], high_pos[dim] = lo, hi
        name, candidates = DEFAULT_SPACE.dimensions[dim]
        low_idx = candidates.index(decode_cell(low_pos)[name])
        high_idx = candidates.index(decode_cell(high_pos)[name])
        assert low_idx <= high_idx


class TestSpace:
    def test_repeated_candidate_rejected_naming_dimension(self):
        with pytest.raises(ConfigError, match="'kernel_size'"):
            HyperparamSpace((("n_filters", (32, 64)), ("kernel_size", (3, 5, 3))))

    def test_equal_values_of_different_types_count_as_repeats(self):
        with pytest.raises(ConfigError, match="'epochs'"):
            HyperparamSpace((("epochs", (50, 50.0)),))


class TestSeedsAndSurrogate:
    def test_derive_seed_deterministic(self):
        a = {"n_filters": 32, "kernel_size": 3, "pool_size": 2, "lstm_units": 10}
        assert derive_seed(7, a) == derive_seed(7, a)

    def test_derive_seed_varies_with_inputs(self):
        a = {"n_filters": 32, "kernel_size": 3, "pool_size": 2, "lstm_units": 10}
        b = {"n_filters": 64, "kernel_size": 3, "pool_size": 2, "lstm_units": 10}
        assert derive_seed(7, a) != derive_seed(8, a)
        assert derive_seed(7, a) != derive_seed(7, b)

    def test_surrogate_range_and_determinism(self):
        values = [surrogate_fitness(a, 3) for a in enumerate_assignments(DEFAULT_SPACE)]
        assert all(0.0 <= v < 1.0 for v in values)
        again = [surrogate_fitness(a, 3) for a in enumerate_assignments(DEFAULT_SPACE)]
        assert values == again
        assert len(set(values)) == len(values)


def learnable_constant_series(n=30, value=0.5):
    return np.full(n, value)


class TestFitness:
    def test_identical_assignment_identical_loss(self):
        train_w, val_w = inner_validation_split(learnable_constant_series(), 7, 1)
        a = {"n_filters": 32, "kernel_size": 3, "pool_size": 2, "lstm_units": 10}
        cfg = NetworkConfig(), TrainingConfig(epochs=2), 5
        assert fitness([a], train_w, val_w, *cfg) == fitness([a], train_w, val_w, *cfg)
        # the seeds come from the global seed and the cell, not the templates
        reseeded = NetworkConfig(seed=8), TrainingConfig(epochs=2, seed=9), 5
        assert fitness([a], train_w, val_w, *reseeded) == fitness([a], train_w, val_w, *cfg)

    def test_constant_fixture_learned_by_grid_corners(self):
        # representative feasible corners of the grid; a constant series is
        # learnable by any capacity, so validation loss collapses
        train_w, val_w = inner_validation_split(learnable_constant_series(60), 7, 1)
        cfg = NetworkConfig(), TrainingConfig(epochs=20, learning_rate=5e-3), 1
        corners = [
            {"n_filters": 32, "kernel_size": 3, "pool_size": 2, "lstm_units": 10},
            {"n_filters": 64, "kernel_size": 3, "pool_size": 2, "lstm_units": 25},
            {"n_filters": 32, "kernel_size": 6, "pool_size": 2, "lstm_units": 15},
            {"n_filters": 64, "kernel_size": 4, "pool_size": 4, "lstm_units": 20},
            {"n_filters": 32, "kernel_size": 5, "pool_size": 2, "lstm_units": 25},
        ]
        for values in corners:
            [loss] = fitness([values], train_w, val_w, *cfg)
            assert loss < 1e-4, values

    def test_extended_space_overrides_training(self):
        train_w, val_w = inner_validation_split(learnable_constant_series(), 7, 1)
        a = {
            "n_filters": 32, "kernel_size": 3, "pool_size": 2, "lstm_units": 10,
            "learning_rate": 1e-2, "epochs": 50,
        }
        [loss] = fitness([a], train_w, val_w, NetworkConfig(), TrainingConfig(epochs=1), 2)
        assert math.isfinite(loss)

    def test_a_diverged_member_scores_inf_and_leaves_the_other_as_alone(self):
        # the windows of TestTrain::test_divergence_guard, SGD at lr 1e12: at
        # global seed 9 the kernel-1 cell's third epoch overflows and the
        # kernel-3 cell's (about 1e290) does not, though its validation MSE does
        rng = np.random.default_rng(6)
        windows = WindowedSamples(inputs=rng.normal(size=(4, 6, 1)) * 10,
                                  targets=rng.normal(size=(4, 1, 1)) * 10)
        templates = NetworkConfig(), TrainingConfig(epochs=3, learning_rate=1e12,
                                                    optimizer="sgd"), 9
        cells = [{"n_filters": 1, "kernel_size": kernel, "pool_size": pool, "lstm_units": 128}
                 for kernel, pool in ((1, 3), (3, 2))]

        def run(group):
            """The group's trained networks, its fitness and its warning categories."""
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                configs = [cell_configs(cell, *templates) for cell in group]
                trained = network.train([initialize_network(config, 6) for config, _ in configs],
                                        windows, [run_cfg for _, run_cfg in configs])
                losses = fitness(group, windows, windows, *templates)
            return trained, losses, {w.category for w in caught}

        (diverged, kept), losses, categories = run(cells)
        (diverged_alone,), losses_alone, categories_alone = run(cells[:1])
        (kept_alone,), kept_losses, kept_categories = run(cells[1:])
        assert isinstance(diverged_alone, NumericalError) and isinstance(diverged, NumericalError)
        assert losses_alone == [math.inf]
        assert losses == losses_alone + kept_losses
        assert kept.weights.buf.tobytes() == kept_alone.weights.buf.tobytes()
        assert kept.loss_history == kept_alone.loss_history
        assert categories <= categories_alone | kept_categories

    def test_the_initial_weights_are_freed_before_the_first_step(self, monkeypatch):
        # a lockstep group's initial networks live on only in train's group buffer
        train_w, val_w = inner_validation_split(learnable_constant_series(), 7, 1)
        cells = [{"n_filters": 32, "kernel_size": kernel, "pool_size": 2, "lstm_units": 10}
                 for kernel in (1, 2)]
        templates = NetworkConfig(), TrainingConfig(epochs=1), 5
        expected = [fitness([cell], train_w, val_w, *templates)[0] for cell in cells]
        initial, alive_at_steps = [], []
        make, step = tuning.initialize_network, network._gradients

        def initialize(config, lookback):
            net = make(config, lookback)
            initial.append(weakref.ref(net.weights.buf))
            return net

        def gradients(*args):
            alive_at_steps.append(sum(ref() is not None for ref in initial))
            return step(*args)

        monkeypatch.setattr(tuning, "initialize_network", initialize)
        monkeypatch.setattr(network, "_gradients", gradients)
        assert fitness(cells, train_w, val_w, *templates) == expected
        assert len(initial) == 2 and alive_at_steps and set(alive_at_steps) == {0}


class TestCellConfigs:
    def test_seeds_derive_from_global_seed_and_cell(self):
        a = {"n_filters": 32, "kernel_size": 3, "pool_size": 2, "lstm_units": 10}
        network, training = cell_configs(
            a, NetworkConfig(), TrainingConfig(epochs=3, learning_rate=1e-3, optimizer="sgd"), 4
        )
        assert network.seed == derive_seed(4, a)
        assert training.seed == network.seed + 1
        assert (training.epochs, training.learning_rate, training.optimizer) == (3, 1e-3, "sgd")

    def test_assignment_overrides_training_and_is_cast(self):
        a = {
            "n_filters": 4.0, "kernel_size": 3, "pool_size": 2, "lstm_units": 5,
            "learning_rate": 1e-2, "epochs": 50,
        }
        network, training = cell_configs(
            a, NetworkConfig(horizon=2, repeat_steps=4),
            TrainingConfig(epochs=1, learning_rate=1e-3, optimizer="adam"), 0,
        )
        assert network.n_filters == 4 and isinstance(network.n_filters, int)
        assert (network.horizon, network.repeat_steps) == (2, 4)
        assert (training.epochs, training.learning_rate) == (50, 1e-2)


class TestInnerSplit:
    def test_targets_respect_cut(self):
        series = np.arange(50, dtype=float)
        train_w, val_w = inner_validation_split(series, 7, 1, val_fraction=0.2)
        cut = math.floor(0.8 * 50)
        assert np.all(train_w.targets[:, -1, 0] <= cut - 1)
        assert np.all(val_w.targets[:, 0, 0] >= cut)
        assert len(train_w) + len(val_w) <= 50 - 7

    def test_too_short_rejected(self):
        with pytest.raises(DataError, match="cannot supply both fit and validation windows"):
            inner_validation_split(np.arange(9, dtype=float), 7, 1)

    @pytest.mark.parametrize("val_fraction", [0.2, 0.9])
    def test_too_short_names_length_and_fraction(self, val_fraction):
        with pytest.raises(DataError, match=f"length 9 .*val_fraction {val_fraction}$"):
            inner_validation_split(np.arange(9.0), 7, 1, val_fraction=val_fraction)

    def test_bad_fraction(self):
        with pytest.raises(ConfigError):
            inner_validation_split(np.arange(50, dtype=float), 7, 1, val_fraction=1.5)


class TestTune:
    def test_budgeted_search_matches_enumeration(self):
        seed = 4
        true_min = min(surrogate_fitness(a, seed) for a in enumerate_assignments(DEFAULT_SPACE))
        params = OptimizerParams(population_size=30, max_iterations=200, seed=seed)
        result, _, _ = tune(
            per_cell(lambda a: surrogate_fitness(a, seed)), "rs-gwo-woa", params,
            evaluation_budget=200,
        )
        assert result["best_loss"] == true_min
        assert surrogate_fitness(result["best_assignment"], seed) == true_min

    def test_cache_accounting(self):
        params = OptimizerParams(population_size=10, max_iterations=50, seed=6)
        result, trace, _ = tune(per_cell(lambda a: surrogate_fitness(a, 6)), "rs-gwo-woa", params)
        assert result["cache_misses"] <= 144
        evaluations = params.population_size * (params.max_iterations + 1)
        assert result["cache_hits"] + result["cache_misses"] == evaluations
        assert result["cache_misses"] == len(result["evaluation_log"])

    def test_cached_loss_matches_fresh_recomputation(self):
        params = OptimizerParams(population_size=8, max_iterations=20, seed=7)
        result, _, _ = tune(per_cell(lambda a: surrogate_fitness(a, 7)), "woa", params)
        for record in result["evaluation_log"][:20]:
            fresh = surrogate_fitness(record["assignment"], 7)
            assert record["loss"] == fresh

    def test_best_loss_is_min_of_log(self):
        params = OptimizerParams(population_size=8, max_iterations=30, seed=8)
        result, _, _ = tune(per_cell(lambda a: surrogate_fitness(a, 8)), "ga", params)
        assert result["best_loss"] == min(r["loss"] for r in result["evaluation_log"])

    def test_single_cell_space_is_forced(self):
        space = HyperparamSpace((
            ("n_filters", (32,)), ("kernel_size", (3,)),
            ("pool_size", (2,)), ("lstm_units", (10,)),
        ))
        params = OptimizerParams(population_size=4, max_iterations=2, seed=9)
        result, _, _ = tune(per_cell(lambda a: 0.125), "rs-gwo-woa", params, space=space)
        assert result["best_assignment"] == {
            "n_filters": 32, "kernel_size": 3, "pool_size": 2, "lstm_units": 10,
        }
        assert result["cache_misses"] == 1

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigError):
            tune(per_cell(lambda a: 0.0), "simulated-annealing", OptimizerParams(seed=0))

    def test_budget_at_grid_size_guarantees_optimum(self):
        seed = 12
        params = OptimizerParams(population_size=6, max_iterations=5, seed=seed)
        result, _, _ = tune(
            per_cell(lambda a: surrogate_fitness(a, seed)), "gwo", params, evaluation_budget=144
        )
        true_min = min(surrogate_fitness(a, seed) for a in enumerate_assignments(DEFAULT_SPACE))
        assert result["best_loss"] == true_min
        assert result["cache_misses"] == 144

    def test_budget_caps_the_search(self):
        calls = []

        def evaluate(assignment):
            calls.append(tuple(sorted(assignment.items())))
            return surrogate_fitness(assignment, 0)

        params = OptimizerParams(population_size=10, max_iterations=10, seed=0)
        result, trace, _ = tune(per_cell(evaluate), "rs-gwo-woa", params, evaluation_budget=5)
        unbudgeted, unbudgeted_trace, _ = tune(per_cell(lambda a: surrogate_fitness(a, 0)),
                                               "rs-gwo-woa", params)
        assert len(calls) == result["cache_misses"] == len(result["evaluation_log"]) <= 5
        assert result["best_loss"] == min(r["loss"] for r in result["evaluation_log"])
        # the optimizer still runs every iteration
        iterations = len(trace.best_fitness_per_iteration)
        assert iterations == len(unbudgeted_trace.best_fitness_per_iteration) == 10
        assert unbudgeted["cache_misses"] > 5

    def test_budget_cut_inside_a_population(self, monkeypatch):
        # at seed 2 the first population decodes to the (n_filters, lstm_units)
        # cells (32,10) (64,10) (32,10) (32,15) (64,10) (32,15) (32,15) (32,15):
        # a budget of 2 pays for the first two and cuts (32,15), each of the
        # three on several rows
        space = HyperparamSpace((("n_filters", (32, 64)), ("kernel_size", (3,)),
                                 ("pool_size", (2,)), ("lstm_units", (10, 15))))
        losses = {(32, 10): 0.5, (64, 10): 0.25, (32, 15): 0.125, (64, 15): 0.0625}
        calls = []

        def evaluate(cell):
            calls.append((cell["n_filters"], cell["lstm_units"]))
            return losses[calls[-1]]

        seen = []  # the losses the optimizer sees, one array per population
        evaluate_population = metaheuristics._evaluate

        def recording_evaluate(objective, positions):
            seen.append(evaluate_population(objective, positions))
            return seen[-1]

        monkeypatch.setattr(metaheuristics, "_evaluate", recording_evaluate)
        params = OptimizerParams(population_size=8, max_iterations=1, seed=2)
        result, _, _ = tune(per_cell(evaluate), "gwo", params, space, evaluation_budget=2)
        assert calls == [(32, 10), (64, 10)]
        assert [(r["assignment"]["n_filters"], r["assignment"]["lstm_units"], r["loss"])
                for r in result["evaluation_log"]] == [(32, 10, 0.5), (64, 10, 0.25)]
        assert (result["cache_misses"], result["cache_hits"]) == (2, 7)
        inf = math.inf
        assert [s.tolist() for s in seen] == [
            [0.5, 0.25, 0.5, inf, 0.25, inf, inf, inf],
            [0.5, 0.25, 0.5, inf, 0.25, 0.5, inf, inf],
        ]
        assert (result["best_assignment"]["n_filters"], result["best_loss"]) == (64, 0.25)

    # at lookback 7 a kernel of 8 is wider than the window, and a kernel of 7
    # leaves one conv output, which a pool of 2 empties
    @pytest.mark.parametrize("unfit", [{"kernel_size": (3, 8), "pool_size": (2,)},
                                       {"kernel_size": (3, 7), "pool_size": (2,)}],
                             ids=["kernel", "pool"])
    def test_unfit_cell_is_never_evaluated_logged_or_charged(self, monkeypatch, unfit):
        space = HyperparamSpace((("n_filters", (32,)), ("kernel_size", unfit["kernel_size"]),
                                 ("pool_size", unfit["pool_size"]), ("lstm_units", (10,))))
        fitting = {"n_filters": 32, "kernel_size": 3, "pool_size": 2, "lstm_units": 10}
        rows = []  # every population row, as grid indices

        def recording_decode(positions, space):
            decoded = decode_position(positions, space)
            if decoded.ndim == 2:
                rows.extend(map(tuple, decoded.tolist()))
            return decoded

        monkeypatch.setattr(tuning, "decode_position", recording_decode)
        calls = []

        def evaluate(assignment):
            calls.append(assignment)
            return 0.25

        params = OptimizerParams(population_size=6, max_iterations=3, seed=2)
        result, _, _ = tune(per_cell(evaluate), "gwo", params, space, evaluation_budget=1,
                            fits=fit_mask(space, 7))
        fitting_rows = rows.count((0, 0, 0, 0))
        assert 0 < fitting_rows < len(rows)  # both cells were visited
        assert calls == [fitting]
        assert [r["assignment"] for r in result["evaluation_log"]] == [fitting]
        assert (result["cache_misses"], result["cache_hits"]) == (1, fitting_rows - 1)
        assert (result["best_assignment"], result["best_loss"]) == (fitting, 0.25)

    def test_sweep_runs_when_no_row_of_the_search_fits(self):
        # only kernel 3 fits lookback 7; at seed 2 no row of the search lands on it
        space = HyperparamSpace((
            ("n_filters", (32,)), ("kernel_size", (8, 9, 10, 11, 12, 13, 14, 3)),
            ("pool_size", (2,)), ("lstm_units", (10,)),
        ))
        params = OptimizerParams(population_size=4, max_iterations=1, seed=2)
        calls = []
        result, trace, _ = tune(per_cell(lambda cell: calls.append(cell) or 0.5), "rs-gwo-woa",
                                params, space, evaluation_budget=8, fits=fit_mask(space, 7))
        fitting = {"n_filters": 32, "kernel_size": 3, "pool_size": 2, "lstm_units": 10}
        assert calls == [fitting]
        assert (result["best_assignment"], result["best_loss"]) == (fitting, 0.5)
        assert trace.best_fitness_per_iteration == [math.inf]
        with pytest.raises(NumericalError, match=DEGENERATE):  # without a budget there is no sweep
            tune(per_cell(lambda cell: 0.5), "rs-gwo-woa", params, space, fits=fit_mask(space, 7))

    @pytest.mark.parametrize("budget", [None, 40])
    @pytest.mark.parametrize("algorithm", sorted(metaheuristics.OPTIMIZERS))
    def test_best_is_the_first_lowest_loss_of_the_log(self, algorithm, budget):
        # losses rounded to one decimal tie across cells; 0.3 stands for a
        # NaN and 0.7 for a diverged cell
        def evaluate(cell, seed):
            loss = round(surrogate_fitness(cell, seed), 1)
            return {0.3: math.nan, 0.7: math.inf}.get(loss, loss)

        for seed in range(10):
            params = OptimizerParams(population_size=4, max_iterations=3, seed=seed)
            result, _, _ = tune(per_cell(lambda cell: evaluate(cell, seed)), algorithm, params,
                                evaluation_budget=budget)
            losses = [math.inf if math.isnan(r["loss"]) else r["loss"]
                      for r in result["evaluation_log"]]
            first = losses.index(min(losses))
            assert result["best_assignment"] == result["evaluation_log"][first]["assignment"]
            assert result["best_loss"] == result["evaluation_log"][first]["loss"]

    def test_a_group_shares_its_seconds_and_the_log_keeps_fresh_order(self, monkeypatch):
        params = OptimizerParams(population_size=8, max_iterations=3, seed=5)
        groups = []
        ticks = iter(range(10**6))  # a clock that reads one second later each time
        monkeypatch.setattr(tuning, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))

        def loss(cell):
            return surrogate_fitness(cell, 5)

        def evaluate(cells):
            for parity in (1, 0):  # the odd positions first, as one group
                group = list(range(parity, len(cells), 2))
                if group:
                    groups.append([cells[i] for i in group])
                    yield group, [loss(cells[i]) for i in group]

        grouped, _, seconds = tune(evaluate, "rs-gwo-woa", params, evaluation_budget=144)
        alone, _, alone_seconds = tune(per_cell(loss), "rs-gwo-woa", params,
                                       evaluation_budget=144)
        assert grouped == alone
        assert alone_seconds == [1.0] * 144
        log = [entry["assignment"] for entry in grouped["evaluation_log"]]
        assert len(seconds) == len(log) == 144
        assert max(map(len, groups)) > 1
        for group in groups:
            assert [seconds[log.index(cell)] for cell in group] == [1 / len(group)] * len(group)

    def test_budget_spent_on_diverged_cells_is_degenerate(self):
        losses = iter([math.inf])  # the one cell the budget pays for diverges
        params = OptimizerParams(population_size=6, max_iterations=3, seed=2)
        with pytest.raises(NumericalError, match=DEGENERATE):
            tune(per_cell(lambda a: next(losses, 0.5)), "gwo", params, evaluation_budget=1)


class TestLockstepGroups:
    """Real fitness trains each scoring batch's cells in lockstep groups of at
    most 6/5 of the largest fitting cell's weights, counted with padding."""

    @staticmethod
    def fitting_cells(lookback=LOOKBACK):
        return [cell for cell in enumerate_assignments(DEFAULT_SPACE)
                if pooled_length(lookback, cell["kernel_size"], cell["pool_size"]) >= 1]

    def test_the_fitting_grid_in_order_forms_the_rules_groups(self):
        largest = max(NetworkConfig(**cell).weight_count(LOOKBACK)
                      for cell in self.fitting_cells())
        most = 6 * largest // 5
        assert (largest, most) == (15746, 18895)
        configs = [cell_configs(cell, NetworkConfig(), TrainingConfig(epochs=1), 0)
                   for cell in self.fitting_cells()]
        groups = lockstep_groups(configs, LOOKBACK, most)
        assert sorted(sum(groups, [])) == list(range(72))
        assert [group[0] for group in groups] == sorted(group[0] for group in groups)
        for group in groups:
            assert group == sorted(group)
            assert len({lockstep_key(configs[i][0], LOOKBACK, configs[i][1]) for i in group}) == 1
            assert len(group) * max(configs[i][0].weight_count(LOOKBACK) for i in group) <= most
        assert Counter(map(len, groups)) == {7: 1, 6: 1, 5: 1, 4: 1, 3: 5, 2: 13, 1: 9}

    def test_the_tuner_trains_no_group_past_the_weight_rule(self, monkeypatch):
        groups = []

        def recording(nets, samples, cfgs):
            nets = list(nets)  # fitness hands over a generator
            groups.append([net.config.weight_count(net.lookback) for net in nets])
            return network.train(nets, samples, cfgs)

        monkeypatch.setattr(tuning, "train", recording)
        params = OptimizerParams(population_size=4, max_iterations=1, seed=3)
        result, _, seconds = tune_series(learnable_constant_series(40), "rs-gwo-woa", params,
                                         training=TrainingConfig(epochs=1), global_seed=3,
                                         evaluation_budget=144)
        most = 6 * max(NetworkConfig(**cell).weight_count(LOOKBACK)
                       for cell in self.fitting_cells()) // 5
        assert sum(map(len, groups)) == result["cache_misses"] == len(seconds) == 72
        assert max(map(len, groups)) > 1
        for weights in groups:
            assert len(weights) * max(weights) <= most


class TestFitMask:
    @pytest.mark.parametrize("lookback", range(-1, 11))
    def test_agrees_with_the_config_check_in_any_dimension_order(self, lookback):
        reordered = HyperparamSpace(DEFAULT_SPACE.dimensions[::-1])
        for space in (DEFAULT_SPACE, reordered):
            mask = fit_mask(space, lookback)
            assert mask.shape == space.shape
            for indices in np.ndindex(space.shape):
                cell = space.cell(indices)
                try:
                    NetworkConfig(kernel_size=cell["kernel_size"],
                                  pool_size=cell["pool_size"]).validate_for_lookback(lookback)
                except ConfigError:
                    assert not mask[indices], cell
                else:
                    assert mask[indices], cell

    def test_half_the_default_grid_fits_lookback_7(self):
        assert fit_mask(DEFAULT_SPACE, LOOKBACK).sum() == 72


class TestCheckSizes:
    SPACE = HyperparamSpace((
        ("n_filters", (4, 1)), ("kernel_size", (2, 3, 5, 9)), ("pool_size", (1, 2)),
        ("lstm_units", (8, 2)),
    ))

    # bounds on both sides of the space's smallest and largest networks
    @pytest.mark.parametrize("bound", [20, 100, 250, 600, 1100, 5000])
    @pytest.mark.parametrize("lookback", [4, 7])
    def test_raises_iff_some_fitting_cell_is_too_large(self, monkeypatch, bound, lookback):
        monkeypatch.setattr(network, "MAX_NETWORK_FLOATS", bound)
        too_large = []
        for cell in enumerate_assignments(self.SPACE):
            if pooled_length(lookback, cell["kernel_size"], cell["pool_size"]) >= 1:
                try:
                    NetworkConfig(**cell).validate_for_lookback(lookback)
                except ConfigError:
                    too_large.append(cell)
        try:
            check_sizes(self.SPACE, NetworkConfig(), lookback)
        except ConfigError as exc:
            assert any(f"grid cell {cell} cannot be built: " in str(exc) for cell in too_large)
        else:
            assert too_large == []


class TestTuneSeries:
    def test_surrogate_mode_deterministic(self):
        series = np.arange(40, dtype=float) / 40.0
        params = OptimizerParams(population_size=6, max_iterations=10, seed=3)
        results = [
            tune_series(series, "rs-gwo-woa", params, surrogate="hash", global_seed=3)[0]
            for _ in range(2)
        ]
        assert results[0]["best_loss"] == results[1]["best_loss"]
        assert results[0]["best_assignment"] == results[1]["best_assignment"]

    def test_real_fitness_smoke(self):
        rng = np.random.default_rng(0)
        series = 0.5 + 0.1 * np.sin(np.arange(40) / 3.0) + 0.01 * rng.normal(size=40)
        params = OptimizerParams(population_size=4, max_iterations=2, seed=5)
        result, _, _ = tune_series(
            series, "rs-gwo-woa", params,
            network=NetworkConfig(horizon=1), training=TrainingConfig(epochs=2),
            lookback=7, global_seed=5,
        )
        assert math.isfinite(result["best_loss"])
        assert set(result["best_assignment"]) == {
            "n_filters", "kernel_size", "pool_size", "lstm_units",
        }

    def test_no_cell_fitting_the_lookback_rejected_up_front(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("fitness evaluated")

        monkeypatch.setattr(tuning, "fitness", never)
        monkeypatch.setattr(tuning, "surrogate_fitness", never)
        params = OptimizerParams(population_size=4, max_iterations=2, seed=5)
        for surrogate in (None, "hash"):
            with pytest.raises(ConfigError, match="lookback 2"):
                tune_series(np.linspace(0.0, 1.0, 40), "rs-gwo-woa", params, lookback=2,
                            surrogate=surrogate)

    def test_real_fitness_trains_only_fitting_cells(self, monkeypatch):
        trained = []

        def counting(cells, train_windows, *args):
            trained.extend(cells)
            return fitness(cells, train_windows, *args)

        monkeypatch.setattr(tuning, "fitness", counting)
        params = OptimizerParams(population_size=4, max_iterations=1, seed=1)
        result, _, _ = tune_series(learnable_constant_series(40), "rs-gwo-woa", params,
                                   training=TrainingConfig(epochs=1), global_seed=1)
        assert trained == [r["assignment"] for r in result["evaluation_log"]]
        for cell in trained:
            NetworkConfig(kernel_size=cell["kernel_size"],
                          pool_size=cell["pool_size"]).validate_for_lookback(7)

    @pytest.mark.parametrize("seed", range(30))
    def test_surrogate_tune_picks_a_cell_that_fits(self, seed):
        # scored like the others, an unfit cell won at 14 of these 30 seeds
        params = OptimizerParams(population_size=10, max_iterations=10, seed=seed)
        result, _, _ = tune_series(np.arange(40.0), "rs-gwo-woa", params, surrogate="hash",
                                   global_seed=seed)
        cells = [r["assignment"] for r in result["evaluation_log"]]
        for cell in [result["best_assignment"]] + cells:
            NetworkConfig(kernel_size=cell["kernel_size"],
                          pool_size=cell["pool_size"]).validate_for_lookback(LOOKBACK)

    @pytest.mark.parametrize("surrogate", [None, "hash"])
    def test_val_fraction_outside_unit_interval_rejected(self, surrogate):
        params = OptimizerParams(population_size=4, max_iterations=1, seed=0)
        with pytest.raises(ConfigError, match="val_fraction must be in"):
            tune_series(np.arange(50.0), "rs-gwo-woa", params, val_fraction=7.0,
                        surrogate=surrogate)

    def test_unknown_surrogate_rejected(self):
        with pytest.raises(ConfigError):
            tune_series(np.arange(30.0), "gwo", OptimizerParams(seed=0), surrogate="zeros")
