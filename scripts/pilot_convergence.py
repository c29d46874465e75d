#!/usr/bin/env python3
"""Pre-build calibration pilot for the optimizer convergence gates.

Runs the random switcher on the sphere and Rastrigin benchmarks
(d=5, bounds +-5.12, population 30, 200 iterations) across seeds 0..19
and prints how many seeds clear each threshold. The acceptance suite
pins its pass counts to what this pilot measured:

    sphere    < 1e-3 : 20/20 observed  (gate: >= 18)
    rastrigin < 1.0  : 18/20 observed  (gate: >= 15)

Runs of this script are deterministic; rerun after any optimizer change
to confirm the gates still hold.
"""

import time

import numpy as np

from swarmcast.benchmarks import rastrigin, sphere
from swarmcast.metaheuristics import OptimizerParams, SearchBounds, rs_gwo_woa

SEEDS = range(20)
GATES = [
    ("sphere", sphere, 1e-3, 18),
    ("rastrigin", rastrigin, 1.0, 15),
]


def main():
    bounds = SearchBounds(-5.12, 5.12, 5)
    started = time.perf_counter()
    for name, objective, threshold, required in GATES:
        results = []
        for seed in SEEDS:
            params = OptimizerParams(population_size=30, max_iterations=200, seed=seed)
            _, best, _ = rs_gwo_woa(objective, bounds, params)
            results.append(best)
        hits = sum(v < threshold for v in results)
        status = "ok" if hits >= required else "BELOW GATE"
        print(f"{name:9s} < {threshold:g}: {hits}/{len(results)} seeds "
              f"(gate >= {required}) {status}")
        print(f"  median {np.median(results):.3e}  worst {max(results):.3e}")
    print(f"elapsed {time.perf_counter() - started:.1f}s")


if __name__ == "__main__":
    main()
