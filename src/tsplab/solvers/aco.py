"""Ant System for the TSP.

Each of `ants` ants builds a tour choosing the next unvisited city with
probability proportional to tau^alpha * (1/d)^beta; after every iteration the
pheromone matrix evaporates by (1 - evaporation_rate) and each ant deposits
Q / tour_cost on the edges it used. Q is the mean distance-matrix entry so
the pheromone scale tracks the instance scale.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from ..tours import roulette
from .base import TINY, SolveBudget, SolveResult, SolverSpec


@dataclass(frozen=True)
class AcoParams:
    ants: int
    alpha: float
    beta: float
    evaporation_rate: float

    def __post_init__(self):
        if self.ants < 1:
            raise ValueError(f"ants must be >= 1, got {self.ants}")
        if not 0.0 < self.evaporation_rate < 1.0:
            raise ValueError(f"evaporation_rate must be in (0,1), got {self.evaporation_rate}")


def solve_aco(d, p: AcoParams, b: SolveBudget, seed: int) -> SolveResult:
    tracker, dist, rows = SPEC.start(d, b)
    n = len(d)
    rng = random.Random(seed)

    tau = np.ones((n, n))
    eta = np.power(np.reciprocal(np.maximum(dist, TINY)), p.beta)  # (1/d)^beta, fixed
    weight = np.empty((n, n))
    q_deposit = float(dist.mean())

    while True:
        np.power(tau, p.alpha, out=weight)  # tau changes only at the deposit
        weight *= eta
        iteration_tours = []
        for _ in range(p.ants):
            tour = _construct(weight, n, rng)
            cost, _ = tracker.evaluate(tour, rows)
            iteration_tours.append((tour, cost))
            if tracker.out_of_budget():
                break
        tau *= 1.0 - p.evaporation_rate
        for tour, cost in iteration_tours:
            deposit = q_deposit / max(cost, TINY)
            prev = tour[-1:] + tour[:-1]
            tau[prev, tour] += deposit
            tau[tour, prev] += deposit
        if tracker.out_of_budget():
            return tracker.result()


SPEC = SolverSpec(
    "aco", "stochastic", ("baseline",),
    run=lambda inst, d, p, variant, b, seed: solve_aco(d, p, b, seed),
    params=AcoParams,
    tuning={
        "ants": ((2, 20), (7, 4, 2, 3, 17, 20)),
        "alpha": ((1.0, 2.0), (1.34, 1.72, 1.67, 1.46, 1.72, 1.22)),
        "beta": ((1.0, 2.0), (1.59, 1.24, 1.98, 1.97, 1.93, 1.55)),
        "evaporation_rate": ((0.01, 0.3), (0.24, 0.12, 0.24, 0.29, 0.06, 0.05)),
    },
)


def _construct(weight, n, rng) -> list[int]:
    start = rng.randrange(n)
    unvisited = [c for c in range(n) if c != start]
    free = np.ones(n, dtype=bool)
    free[start] = False
    tour = [start]
    while unvisited:
        weights = weight[tour[-1]].compress(free)  # ascending city order, like unvisited
        # The pairwise numpy sum, not cum[-1]; 0 (lowest index) when degenerate.
        nxt = unvisited.pop(roulette(weights.cumsum(), rng, float(weights.sum())))
        free[nxt] = False
        tour.append(nxt)
    return tour
