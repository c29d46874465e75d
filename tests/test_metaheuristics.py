import hashlib
import math

import numpy as np
import pytest
from oracles import gwo_step_loop

from swarmcast import metaheuristics
from swarmcast.benchmarks import BENCHMARKS, ackley, rastrigin, rosenbrock, sphere
from swarmcast.errors import ConfigError
from swarmcast.metaheuristics import (
    OPTIMIZERS,
    OptimizerParams,
    SearchBounds,
    clamp_to_bounds,
    gwo_step,
    uniform_mutation,
    woa_step,
)


class ScriptedRng:
    """Hands out pre-arranged draws so a single optimizer branch can be
    forced and checked in closed form."""

    def __init__(self, draws):
        self.draws = list(draws)

    def _next(self, shape):
        value = self.draws.pop(0)
        arr = np.asarray(value, dtype=float)
        return np.broadcast_to(arr, shape).copy() if arr.shape != tuple(shape) else arr

    def random(self, size=None):
        return self._next(np.empty(size).shape if size else ())

    def integers(self, low, high, size=None):
        value = np.asarray(self.draws.pop(0))
        return np.broadcast_to(value, (size,)).copy() if size else value


def unit_bounds(dim):
    return SearchBounds(0.0, 1.0, dim)


class TestBounds:
    def test_empty_box_rejected(self):
        with pytest.raises(ConfigError):
            SearchBounds(0.0, 1.0, 0)


class TestOptimizerParams:
    @pytest.mark.parametrize("key, value", [
        ("population_size", 6.5), ("population_size", 6.0), ("population_size", 3),
        ("population_size", True), ("max_iterations", 2.5), ("max_iterations", 0),
        ("max_iterations", "3"), ("seed", 1.5), ("seed", -1), ("seed", None),
    ])
    def test_bad_value_raises_config_error_naming_the_field(self, key, value):
        with pytest.raises(ConfigError, match=f"'{key}' must be an integer >= "):
            OptimizerParams(**{key: value})

    def test_smallest_values_accepted(self):
        params = OptimizerParams(population_size=4, max_iterations=1, seed=np.int64(0))
        assert (params.population_size, params.max_iterations, params.seed) == (4, 1, 0)


class TestClamp:
    def test_clamps_out_of_range(self):
        bounds = unit_bounds(3)
        assert np.array_equal(
            clamp_to_bounds([-10.0, 0.5, 10.0], bounds), [0.0, 0.5, 1.0]
        )

    def test_in_bounds_unchanged(self):
        bounds = unit_bounds(3)
        x = np.array([0.2, 0.5, 0.9])
        assert np.array_equal(clamp_to_bounds(x, bounds), x)

    def test_boundary_unchanged(self):
        bounds = unit_bounds(2)
        x = np.array([0.0, 1.0])
        assert np.array_equal(clamp_to_bounds(x, bounds), x)


class TestGwoStep:
    def test_fixed_point_when_a_zero_and_all_equal(self):
        position = np.array([0.4, 0.6])
        positions = np.tile(position, (5, 1))
        leaders = np.tile(position, (3, 1))
        rng = np.random.default_rng(0)
        updated = gwo_step(positions, leaders, 0.0, rng, unit_bounds(2))
        assert np.allclose(updated, positions)

    def test_population_collapses_onto_origin_leaders(self):
        bounds = SearchBounds(-1.0, 1.0, 3)
        rng = np.random.default_rng(1)
        positions = rng.uniform(-1, 1, (6, 3))
        leaders = np.zeros((3, 3))
        updated = gwo_step(positions, leaders, 0.0, rng, bounds)
        assert np.allclose(updated, 0.0)

    def test_positions_stay_feasible(self):
        bounds = SearchBounds(-2.0, 3.0, 4)
        rng = np.random.default_rng(2)
        positions = rng.uniform(-2, 3, (8, 4))
        leaders = rng.uniform(-2, 3, (3, 4))
        for step in range(1000):
            a = 2.0 * (1 - step / 1000)
            positions = gwo_step(positions, leaders, a, rng, bounds)
            assert np.all(positions >= bounds.low) and np.all(positions <= bounds.high)

    def test_small_population_rejected(self):
        with pytest.raises(ConfigError):
            gwo_step(np.zeros((3, 2)), np.zeros((3, 2)), 1.0, np.random.default_rng(0),
                     unit_bounds(2))

    @pytest.mark.parametrize("pop, dim, a, seed", [
        (4, 1, 2.0, 0), (4, 3, 1.3, 1), (5, 2, 0.0, 2), (9, 6, 0.7, 3), (30, 4, 1.9, 4),
    ])
    def test_matches_per_leader_loop_bytewise(self, pop, dim, a, seed):
        # one (3, 2, pop, dim) draw consumes the stream exactly as the
        # per-leader r1, r2 draws did, and the sum keeps the leader order
        bounds = SearchBounds(-2.0, 3.0, dim)
        start = np.random.default_rng(seed + 100)
        positions = start.uniform(-2.5, 3.5, (pop, dim))
        leaders = start.uniform(-2.0, 3.0, (3, dim))
        fast_rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        fast = gwo_step(positions, leaders, a, fast_rng, bounds)
        expected = gwo_step_loop(positions, leaders, a, loop_rng, bounds)
        assert fast.tobytes() == expected.tobytes()
        assert fast_rng.random() == loop_rng.random()


class TestWoaStep:
    def test_spiral_at_l_zero_lands_at_distance_plus_best(self):
        # p >= 0.5 selects the spiral; exp(0) * cos(0) = 1
        positions = np.array([[0.2, 0.2], [0.9, 0.4]])
        best = np.array([0.5, 0.55])
        rng = ScriptedRng([
            np.array([[0.3],   # r1
                      [0.3],   # r2
                      [0.9],   # p -> spiral
                      [0.5]]),  # l = -1 + 2 * 0.5 = 0
            np.array([0]),     # rand index (unused)
        ])
        updated = woa_step(positions, best, 1.0, rng, unit_bounds(2))
        expected = np.abs(best - positions) + best
        assert np.allclose(updated, expected)

    def test_encircle_with_zero_a_returns_best(self):
        # r1 = 0.5 makes A = 2 a r1 - a = 0
        positions = np.array([[0.1, 0.9], [0.8, 0.3]])
        best = np.array([0.5, 0.5])
        rng = ScriptedRng([
            np.array([[0.5],   # r1 -> A = 0
                      [0.7],   # r2
                      [0.2],   # p -> encircle
                      [0.7]]),  # l
            np.array([0]),
        ])
        updated = woa_step(positions, best, 1.5, rng, unit_bounds(2))
        assert np.allclose(updated, best)

    def test_exploration_with_identical_population_matches_encircle_form(self):
        # |A| >= 1 forces exploration; with every agent identical the random
        # peer equals the shared position, so the update reduces to the
        # encircling formula about that position
        shared = np.array([0.4, 0.6])
        positions = np.tile(shared, (4, 1))
        best = shared.copy()
        r1, r2 = 1.0, 0.8
        a = 2.0
        coeff_a, coeff_c = 2 * a * r1 - a, 2 * r2
        rng = ScriptedRng([
            np.array([np.full(4, r1),
                      np.full(4, r2),
                      np.full(4, 0.1),    # p -> not spiral
                      np.full(4, 0.75)]),  # l
            np.array([0, 0, 0, 0]),
        ])
        updated = woa_step(positions, best, a, rng, unit_bounds(2))
        expected = clamp_to_bounds(
            shared - coeff_a * np.abs(coeff_c * shared - shared), unit_bounds(2)
        )
        assert np.allclose(updated, np.tile(expected, (4, 1)))

    def test_never_selects_self_as_random_peer(self):
        rng = np.random.default_rng(7)
        pop = 6
        for _ in range(200):
            idx = rng.integers(0, pop - 1, size=pop)
            idx = idx + (idx >= np.arange(pop))
            assert np.all(idx != np.arange(pop))
            assert np.all((0 <= idx) & (idx < pop))


def count_evaluations(objective):
    calls = []

    def wrapped(X):
        values = objective(X)
        calls.extend(values)
        return values

    wrapped.calls = calls
    return wrapped


class TestDrivers:
    @pytest.mark.parametrize("algorithm", sorted(OPTIMIZERS))
    def test_trace_is_non_increasing(self, algorithm):
        params = OptimizerParams(population_size=8, max_iterations=40, seed=3)
        _, _, trace = OPTIMIZERS[algorithm](sphere, SearchBounds(-5, 5, 4), params)
        best = trace.best_fitness_per_iteration
        assert len(best) == 40
        assert all(a >= b for a, b in zip(best, best[1:]))

    @pytest.mark.parametrize("algorithm", sorted(OPTIMIZERS))
    def test_seed_determinism(self, algorithm):
        optimize = OPTIMIZERS[algorithm]
        params = OptimizerParams(population_size=6, max_iterations=25, seed=11)
        bounds = SearchBounds(-2, 2, 3)
        pos1, fit1, trace1 = optimize(rastrigin, bounds, params)
        pos2, fit2, trace2 = optimize(rastrigin, bounds, params)
        assert np.array_equal(pos1, pos2)
        assert fit1 == fit2
        assert trace1.best_fitness_per_iteration == trace2.best_fitness_per_iteration

    def test_both_branches_execute_over_many_iterations(self):
        params = OptimizerParams(population_size=4, max_iterations=1000, seed=5)
        _, _, trace = OPTIMIZERS["rs-gwo-woa"](sphere, SearchBounds(-1, 1, 2), params)
        assert trace.gwo_iterations > 0
        assert trace.woa_iterations > 0
        assert trace.gwo_iterations + trace.woa_iterations == 1000

    def test_single_iteration_matches_enumeration(self):
        # four starting points, one iteration: the returned best is the
        # minimum over every evaluation the run made
        params = OptimizerParams(population_size=4, max_iterations=1, seed=9)
        populations = []

        def objective(X):
            populations.append(X.copy())
            return sphere(X)

        objective = count_evaluations(objective)
        best_pos, best_fit, trace = OPTIMIZERS["rs-gwo-woa"](
            objective, SearchBounds(-5, 5, 2), params
        )
        assert len(objective.calls) == params.population_size * (params.max_iterations + 1) == 8
        assert best_fit == min(objective.calls)
        assert type(best_fit) is float
        assert all(type(v) is float for v in trace.best_fitness_per_iteration)
        # the first population is the generator's first draw
        first = np.random.default_rng(9).uniform(-5, 5, (4, 2))
        assert populations[0].tobytes() == first.tobytes()
        rows = np.concatenate(populations)
        assert best_pos.tobytes() == rows[np.argmin(objective.calls)].tobytes()

    def test_every_evaluated_position_feasible(self):
        bounds = SearchBounds(-1.5, 2.5, 3)
        seen = []

        def objective(X):
            seen.extend(row.copy() for row in X)
            return sphere(X)

        params = OptimizerParams(population_size=5, max_iterations=30, seed=13)
        OPTIMIZERS["rs-gwo-woa"](objective, bounds, params)
        stacked = np.array(seen)
        assert np.all(stacked >= bounds.low) and np.all(stacked <= bounds.high)

    def test_leader_ordering_after_each_iteration(self):
        # every algorithm runs the same loop, so each callback sees the
        # three best of the current population once per iteration
        for algorithm, optimize in OPTIMIZERS.items():
            records = []

            def callback(t, branch, positions, fitness, leaders):
                assert leaders.shape == (3, 3)
                order = np.argsort(fitness, kind="stable")[:3]
                assert leaders.tobytes() == positions[order].tobytes()
                records.append((t, fitness.copy(), list(fitness[order])))

            params = OptimizerParams(population_size=6, max_iterations=40, seed=17)
            optimize(sphere, SearchBounds(-4, 4, 3), params, callback=callback)
            assert [t for t, _, _ in records] == list(range(40)), algorithm
            for _, fitness, values in records:
                assert values == sorted(values)
                # the leaders are exactly the three best of the current pack,
                # so delta bounds every omega fitness from below
                assert values == sorted(fitness)[:3], algorithm

    def test_nan_fitness_never_leads(self):
        def objective(X):
            return np.where(X[:, 0] > 0, math.nan, sphere(X))

        params = OptimizerParams(population_size=8, max_iterations=30, seed=19)
        best_pos, best_fit, _ = OPTIMIZERS["rs-gwo-woa"](
            objective, SearchBounds(-1, 1, 2), params
        )
        assert math.isfinite(best_fit)
        assert best_pos[0] <= 0

    def test_all_nan_objective_returns_inf(self):
        params = OptimizerParams(population_size=4, max_iterations=3, seed=21)
        # the search does not raise: only the tuner decides nothing was found
        best, fitness, trace = OPTIMIZERS["rs-gwo-woa"](
            lambda X: np.full(len(X), math.nan), SearchBounds(-1, 1, 2), params
        )
        assert best.shape == (2,) and fitness == math.inf
        assert trace.best_fitness_per_iteration == [math.inf] * 3

    @pytest.mark.parametrize("objective", [
        lambda X: sphere(X[0]),
        lambda X: sphere(X)[:, None],
        lambda X: sphere(X)[:-1],
    ], ids=["scalar", "column", "short"])
    def test_objective_of_wrong_shape_rejected(self, objective):
        params = OptimizerParams(population_size=4, max_iterations=2, seed=1)
        with pytest.raises(ConfigError):
            OPTIMIZERS["rs-gwo-woa"](objective, unit_bounds(2), params)

    # sha256 of (best position, best fitness, trace) for rastrigin in d=3,
    # population 6, 20 iterations, seeds 0 and 1; any change to a draw or
    # an update moves them, so change one only when a trajectory must move
    TRAJECTORY_DIGESTS = {
        "rs-gwo-woa": "11136f3e57e33533536319dcb06f15db6f09d495e6b12a3e02e3492894a3a869",
        "gwo": "67d54233983bcd6bf987b75d5c3c49b6ada23f528830b69b67f2a17efaacf3d1",
        "woa": "9fe4b2e6798a6a39e2ee771dc4079344e4c2a4e9dd15d20b0b58513c8d087b95",
        "ga": "33f7c66537c5000b80e3b8c0eda65bd419fd21de94326455b4b0803146c288b5",
    }

    @pytest.mark.parametrize("algorithm", sorted(TRAJECTORY_DIGESTS))
    def test_trajectory_matches_recorded_digest(self, algorithm):
        digest = hashlib.sha256()
        for seed in (0, 1):
            params = OptimizerParams(population_size=6, max_iterations=20, seed=seed)
            position, best, trace = OPTIMIZERS[algorithm](
                rastrigin, SearchBounds(-5.12, 5.12, 3), params
            )
            digest.update(position.tobytes())
            digest.update(np.float64(best).tobytes())
            digest.update(np.array(trace.best_fitness_per_iteration).tobytes())
            evaluations = params.population_size * (params.max_iterations + 1)
            counts = (evaluations, trace.gwo_iterations, trace.woa_iterations)
            digest.update(np.array(counts, dtype=np.int64).tobytes())
        assert digest.hexdigest() == self.TRAJECTORY_DIGESTS[algorithm]


class TestGa:
    def test_closed_population_with_zero_rates(self, monkeypatch):
        monkeypatch.setattr(metaheuristics, "GA_CROSSOVER_RATE", 0.0)
        monkeypatch.setattr(metaheuristics, "GA_MUTATION_RATE", 0.0)
        params = OptimizerParams(population_size=6, max_iterations=25, seed=23)
        bounds = SearchBounds(-3, 3, 2)
        populations = []

        def objective(X):
            populations.append({tuple(row) for row in X})
            return sphere(X)

        _, _, trace = OPTIMIZERS["ga"](objective, bounds, params)
        assert len(populations) == 26
        initial_rows = populations[0]
        assert set().union(*populations) <= initial_rows
        best = trace.best_fitness_per_iteration
        assert all(a >= b for a, b in zip(best, best[1:]))

    @staticmethod
    def recorded_generations(pop, seed):
        generations = []

        def objective(X):
            fitness = rastrigin(X)
            generations.append((X.copy(), fitness))
            return fitness

        params = OptimizerParams(population_size=pop, max_iterations=15, seed=seed)
        result = OPTIMIZERS["ga"](objective, SearchBounds(-5.12, 5.12, 3), params)
        return generations, result

    @pytest.mark.parametrize("pop", [4, 5, 30, 31])
    def test_generation_shape_elite_and_determinism(self, pop):
        generations, (position, best, trace) = self.recorded_generations(pop, seed=31)
        assert len(generations) == 16
        for (previous, previous_fitness), (current, _) in zip(generations, generations[1:]):
            assert current.shape == (pop, 3)
            # elitism of one: row 0 is the best row of the previous generation
            assert current[0].tobytes() == previous[np.argmin(previous_fitness)].tobytes()
        again, (position2, best2, trace2) = self.recorded_generations(pop, seed=31)
        for (a, fa), (b, fb) in zip(generations, again):
            assert a.tobytes() == b.tobytes() and fa.tobytes() == fb.tobytes()
        assert position.tobytes() == position2.tobytes() and best == best2
        assert trace.best_fitness_per_iteration == trace2.best_fitness_per_iteration

    def test_sphere_convergence(self):
        params = OptimizerParams(population_size=30, max_iterations=300, seed=2)
        _, best, _ = OPTIMIZERS["ga"](sphere, SearchBounds(-5.12, 5.12, 3), params)
        assert best < 1e-2

    def test_mutation_frequency_matches_rate(self):
        rng = np.random.default_rng(29)
        bounds = SearchBounds(0.0, 1.0, 100_000)
        genome = np.full(100_000, 0.5)
        mutated = uniform_mutation(genome, 0.25, bounds, rng)
        frequency = np.mean(mutated != genome)
        assert abs(frequency - 0.25) <= 0.01


class TestBenchmarks:
    def test_known_minima(self):
        assert sphere(np.zeros(4)) == 0.0
        assert rastrigin(np.zeros(5)) == pytest.approx(0.0)
        assert rosenbrock(np.ones(6)) == 0.0
        assert ackley(np.zeros(3)) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    @pytest.mark.parametrize("dim", [1, 2, 5, 30])
    def test_matrix_rows_match_vector_calls_bitwise(self, name, dim):
        fn, (low, high) = BENCHMARKS[name]
        matrix = np.random.default_rng(dim).uniform(low, high, (7, dim))
        rowwise = np.array([fn(row) for row in matrix])
        assert fn(matrix).shape == (7,)
        assert fn(matrix).tobytes() == rowwise.tobytes()
        assert all(np.ndim(value) == 0 for value in rowwise)

    def test_registry_entries(self):
        for name, (fn, (low, high)) in BENCHMARKS.items():
            assert low < high
            assert math.isfinite(fn(np.full(3, low)))
