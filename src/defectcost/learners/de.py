"""Differential evolution, DE/rand/1/bin with the weight F and the crossover rate CR below.

Integer-valued dimensions are rounded at evaluation time; the best-seen vector
is tracked across all generations and returned (rounded in integer dims).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

F = 0.8  # differential weight
CR = 0.9  # crossover probability


def _round_integers(vec: np.ndarray, integer_dims) -> np.ndarray:
    out = vec.copy()
    for d in integer_dims:
        out[d] = round(out[d])
    return out


def differential_evolution(
    objective: Callable[[np.ndarray], float],
    bounds: Sequence[tuple[float, float]],
    *,
    population: int = 20,
    generations: int = 30,
    integer_dims: Sequence[int] = (),
    seed: int = 0,
) -> tuple[np.ndarray, float]:
    """Minimize ``objective`` over a finite box; returns (best vector, best value)."""
    if len(bounds) == 0:
        raise ValueError("bounds must not be empty")
    lo = np.array([b[0] for b in bounds], dtype=np.float64)
    hi = np.array([b[1] for b in bounds], dtype=np.float64)
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi)) and np.all(lo <= hi)):
        raise ValueError("bounds must be finite with lo <= hi")
    if population < 4:
        raise ValueError("DE/rand/1 needs a population of at least 4")
    if generations < 0:
        raise ValueError("generations must be >= 0")

    rng = np.random.default_rng(seed)
    dim = len(bounds)
    pop = lo + rng.random((population, dim)) * (hi - lo)
    fitness = np.array([objective(_round_integers(ind, integer_dims)) for ind in pop])

    best_i = int(np.argmin(fitness))
    best_x = pop[best_i].copy()
    best_f = float(fitness[best_i])

    for _ in range(generations):
        for i in range(population):
            candidates = [j for j in range(population) if j != i]
            r1, r2, r3 = rng.choice(candidates, size=3, replace=False)
            mutant = np.clip(pop[r1] + F * (pop[r2] - pop[r3]), lo, hi)
            cross = rng.random(dim) < CR
            cross[rng.integers(dim)] = True
            trial = np.where(cross, mutant, pop[i])
            trial_f = float(objective(_round_integers(trial, integer_dims)))
            if trial_f <= fitness[i]:
                pop[i] = trial
                fitness[i] = trial_f
                if trial_f < best_f:
                    best_f = trial_f
                    best_x = trial.copy()

    return _round_integers(best_x, integer_dims), best_f
