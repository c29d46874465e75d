"""Standard continuous test functions for exercising the optimizers.

Each function reduces over the last axis: a 1-d position vector gives a
scalar to minimise, and an ``(n, d)`` matrix of positions gives one value
per row, so a function can serve directly as a population objective.
The global minimum value is 0 in every case. ``BENCHMARKS`` maps CLI
names to (function, conventional symmetric bounds per dimension).
"""

import numpy as np


def sphere(x):
    """Sum of squares; minimum at the origin."""
    x = np.asarray(x, dtype=float)
    return np.sum(x * x, axis=-1)


def rastrigin(x):
    """Highly multimodal; minimum at the origin."""
    x = np.asarray(x, dtype=float)
    return 10.0 * x.shape[-1] + np.sum(x * x - 10.0 * np.cos(2.0 * np.pi * x), axis=-1)


def rosenbrock(x):
    """Banana valley; minimum at (1, ..., 1)."""
    x = np.asarray(x, dtype=float)
    head, tail = x[..., :-1], x[..., 1:]
    return np.sum(100.0 * (tail - head**2) ** 2 + (1.0 - head) ** 2, axis=-1)


def ackley(x):
    """Nearly flat outer region with a deep central well at the origin."""
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    return (
        -20.0 * np.exp(-0.2 * np.sqrt(np.sum(x * x, axis=-1) / n))
        - np.exp(np.sum(np.cos(2.0 * np.pi * x), axis=-1) / n)
        + 20.0
        + np.e
    )


BENCHMARKS = {
    "sphere": (sphere, (-5.12, 5.12)),
    "rastrigin": (rastrigin, (-5.12, 5.12)),
    "rosenbrock": (rosenbrock, (-5.0, 10.0)),
    "ackley": (ackley, (-32.768, 32.768)),
}
