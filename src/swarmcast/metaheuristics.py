"""Population optimizers over bounded continuous boxes.

Provides grey-wolf and whale update steps, a random switcher that flips
a fair coin each iteration to run one of them on a shared population, a
generational GA baseline, and plain single-strategy drivers. All four
run through one population loop (``_drive``) and differ only in the
step that turns one population into the next. All randomness flows
through one ``numpy.random.Generator`` per run, so a seed fully
determines the trajectory.

An objective scores a whole population per call: it maps an ``(n, d)``
matrix of positions to ``n`` fitness values, one per row.

Leaders (alpha, beta, delta) are re-ranked every iteration as the
``(3, d)`` matrix of the three best rows of the current population; the
whale branch encircles alpha, so both strategies share one best-solution
notion, while the returned optimum is the best position ever evaluated.
NaN fitnesses are treated as +inf and can never lead the pack; a search
that saw nothing finite returns +inf, and its caller decides what that
means.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .fileio import COUNT_RULE, check_fields, is_count, is_finite

# per-gene rates of the GA baseline's uniform crossover and mutation
GA_CROSSOVER_RATE = 0.25
GA_MUTATION_RATE = 0.25


@dataclass(frozen=True)
class SearchBounds:
    """Feasible box: the cube [low, high] ** dimension, finite low < high."""

    low: float
    high: float
    dimension: int

    def __post_init__(self):
        rules = dict.fromkeys(("low", "high"), (is_finite, "a finite number"))
        check_fields(vars(self), rules | {"dimension": COUNT_RULE}, ConfigError, "", "bounds")
        if not self.low < self.high:
            raise ConfigError(f"low bound {self.low!r} must be below high bound {self.high!r}")


# each field's rule, key -> (check, what it wants), for the constructor
OPTIMIZER_RULES = {
    "population_size": (lambda value: is_count(value, 4), "an integer >= 4"),
    "max_iterations": COUNT_RULE,
    "seed": (lambda value: is_count(value, 0), "an integer >= 0"),
}


@dataclass(frozen=True)
class OptimizerParams:
    population_size: int = 30
    max_iterations: int = 200
    seed: int = 0

    def __post_init__(self):
        check_fields(vars(self), OPTIMIZER_RULES, ConfigError, "", "optimizer params")


@dataclass
class OptimizationTrace:
    """Best-so-far fitness per iteration plus bookkeeping counters."""

    best_fitness_per_iteration: list[float] = field(default_factory=list)
    evaluations: int = 0
    gwo_iterations: int = 0
    woa_iterations: int = 0


def clamp_to_bounds(position, bounds: SearchBounds) -> np.ndarray:
    """Elementwise clamp into [low, high]; accepts a vector or a matrix."""
    return np.clip(np.asarray(position, dtype=float), bounds.low, bounds.high)


def _evaluate(objective, positions: np.ndarray) -> np.ndarray:
    """Score the whole population with one objective call; NaN becomes +inf."""
    fitness = np.asarray(objective(positions), dtype=float)
    if fitness.shape != (len(positions),):
        raise ConfigError(
            f"objective must return one value per row, shape {(len(positions),)};"
            f" got {fitness.shape}"
        )
    return np.where(np.isnan(fitness), math.inf, fitness)


def gwo_step(positions, leaders, a: float, rng, bounds: SearchBounds) -> np.ndarray:
    """Wolf-pack position update toward the ``(3, d)`` leaders alpha, beta, delta.

    For each leader: A = 2 a r1 - a and C = 2 r2 with fresh random
    vectors per agent, D = |C * X_leader - X|, candidate = X_leader - A * D;
    the new position is the mean of the three candidates, clamped. One
    draw holds r1 then r2 for alpha, then for beta, then for delta.
    """
    positions = np.asarray(positions, dtype=float)
    if len(positions) < 4:
        raise ConfigError("grey wolf update needs a population of at least 4")
    draws = rng.random((3, 2) + positions.shape)
    r1, r2 = draws[:, 0], draws[:, 1]
    leaders = np.asarray(leaders, dtype=float)[:, None, :]
    coeff_a = 2.0 * a * r1 - a
    dist = np.abs(2.0 * r2 * leaders - positions)
    return clamp_to_bounds((leaders - coeff_a * dist).sum(axis=0) / 3.0, bounds)


def woa_step(positions, best, a: float, rng, bounds: SearchBounds) -> np.ndarray:
    """Whale update: encircle the best, spiral toward it, or chase a random peer.

    Per agent, p decides spiral (p >= 0.5) versus encircling; within
    encircling |A| >= 1 switches to exploration around a random *other*
    agent. A and C are scalar per agent so the single |A| test drives the
    whole move; l is uniform on [-1, 1] and the spiral constant b is 1.
    ``best`` is the ``(d,)`` position of alpha. One ``(4, pop)`` draw
    holds every agent's r1, r2, p and l, then one draw picks the peers.
    """
    positions = np.asarray(positions, dtype=float)
    pop, _ = positions.shape
    r1, r2, p, u = rng.random((4, pop))
    coeff_a = (2.0 * a * r1 - a)[:, None]
    coeff_c = (2.0 * r2)[:, None]
    spiral_l = -1.0 + 2.0 * u  # uniform(-1, 1) as numpy draws it
    rand_idx = rng.integers(0, pop - 1, size=pop)
    rand_idx += rand_idx >= np.arange(pop)

    # encircling (|A| < 1) moves about the best, exploring about a random peer
    anchor = np.where(np.abs(coeff_a) < 1.0, best, positions[rand_idx])
    encircled = anchor - coeff_a * np.abs(coeff_c * anchor - positions)
    swirl = np.exp(spiral_l) * np.cos(2.0 * np.pi * spiral_l)
    spiralled = np.abs(best - positions) * swirl[:, None] + best
    return clamp_to_bounds(np.where((p >= 0.5)[:, None], spiralled, encircled), bounds)


def _drive(objective, bounds: SearchBounds, params: OptimizerParams, step, callback=None):
    """The population loop every optimizer runs.

    The initial population is the generator's first numbers. Each
    iteration ``step(positions, fitness, leaders, a, rng, bounds)``
    returns ``(branch, positions)``, the next population, with ``a``
    decaying linearly from 2 towards 0; the loop scores it with one
    objective call, re-ranks the leaders (the ``(3, d)`` best rows) and
    counts the iteration under its branch. Returns the best position
    ever evaluated, its fitness (+inf if none was finite) and the trace.
    """
    rng = np.random.default_rng(params.seed)
    pop = params.population_size
    positions = rng.uniform(bounds.low, bounds.high, size=(pop, bounds.dimension))
    fitness = _evaluate(objective, positions)
    trace = OptimizationTrace(evaluations=pop)
    order = np.argsort(fitness, kind="stable")
    leaders = positions[order[:3]]
    best, best_fitness = leaders[0], float(fitness[order[0]])

    for t in range(params.max_iterations):
        a = 2.0 * (1.0 - t / params.max_iterations)
        branch, positions = step(positions, fitness, leaders, a, rng, bounds)
        if branch == "gwo":
            trace.gwo_iterations += 1
        elif branch == "woa":
            trace.woa_iterations += 1
        fitness = _evaluate(objective, positions)
        trace.evaluations += pop
        order = np.argsort(fitness, kind="stable")
        leaders = positions[order[:3]]
        if fitness[order[0]] < best_fitness:
            best, best_fitness = leaders[0], float(fitness[order[0]])
        trace.best_fitness_per_iteration.append(best_fitness)
        if callback is not None:
            callback(t, branch, positions, fitness, leaders)

    return best.copy(), best_fitness, trace


def _gwo_move(positions, fitness, leaders, a, rng, bounds):
    return "gwo", gwo_step(positions, leaders, a, rng, bounds)


def _woa_move(positions, fitness, leaders, a, rng, bounds):
    return "woa", woa_step(positions, leaders[0], a, rng, bounds)


def _rs_move(positions, fitness, leaders, a, rng, bounds):
    move = _woa_move if rng.random() < 0.5 else _gwo_move
    return move(positions, fitness, leaders, a, rng, bounds)


def rs_gwo_woa(objective, bounds, params, callback=None):
    """Random switcher: a fair coin per iteration picks the whale or wolf
    branch for the whole population; one shared a-schedule decays 2 -> 0."""
    return _drive(objective, bounds, params, _rs_move, callback)


def gwo_optimize(objective, bounds, params, callback=None):
    """Plain grey-wolf driver (the random switcher pinned to its wolf branch)."""
    return _drive(objective, bounds, params, _gwo_move, callback)


def woa_optimize(objective, bounds, params, callback=None):
    """Plain whale driver (the random switcher pinned to its whale branch)."""
    return _drive(objective, bounds, params, _woa_move, callback)


def uniform_crossover(parent1, parent2, rate: float, rng) -> tuple[np.ndarray, np.ndarray]:
    """Per-gene swap at the given rate; children are complementary. Takes a
    genome or a stack of genomes (one row per couple)."""
    swap = rng.random(np.shape(parent1)) < rate
    child1 = np.where(swap, parent2, parent1)
    child2 = np.where(swap, parent1, parent2)
    return child1, child2


def uniform_mutation(genome, rate: float, bounds: SearchBounds, rng) -> np.ndarray:
    """Per-gene resample within bounds at the given rate; takes a genome or
    a stack of genomes."""
    mutate = rng.random(np.shape(genome)) < rate
    fresh = rng.uniform(bounds.low, bounds.high, np.shape(genome))
    return np.where(mutate, fresh, genome)


def _ga_step(positions, fitness, leaders, a, rng, bounds):
    """One GA generation, drawn as whole arrays: every tournament for the
    ``pop // 2`` couples at once, one crossover of the stacked parents and
    one mutation of the ``pop - 1`` children, interleaved child1, child2
    per couple. The elite (alpha, ``leaders[:1]``) is row 0. Every row is a parent gene or
    a fresh draw inside the box, so no clamp is needed."""
    pop = len(positions)
    couples = pop // 2
    # contenders[c, k] are the two draws of parent k of couple c
    contenders = rng.integers(0, pop, size=(couples, 2, 2))
    first, second = contenders[..., 0], contenders[..., 1]
    winners = np.where(fitness[first] <= fitness[second], first, second)
    child1, child2 = uniform_crossover(
        positions[winners[:, 0]], positions[winners[:, 1]], GA_CROSSOVER_RATE, rng
    )
    children = np.stack((child1, child2), axis=1).reshape(2 * couples, -1)[: pop - 1]
    children = uniform_mutation(children, GA_MUTATION_RATE, bounds, rng)
    return "ga", np.concatenate((leaders[:1], children))


def ga_optimize(objective, bounds, params, callback=None):
    """Generational GA baseline: size-2 tournaments, uniform crossover and
    mutation at ``GA_CROSSOVER_RATE`` and ``GA_MUTATION_RATE``, elitism of
    one (see ``_ga_step``)."""
    return _drive(objective, bounds, params, _ga_step, callback)


OPTIMIZERS = {
    "rs-gwo-woa": rs_gwo_woa,
    "gwo": gwo_optimize,
    "woa": woa_optimize,
    "ga": ga_optimize,
}
