"""Adaptive large neighborhood search for the TSP.

Starts from a nearest-neighbor tour. Each iteration removes
ceil(removal_fraction * n) cities with a destroy operator drawn by adaptive
roulette over {random removal, worst-contribution removal}, repairs with
greedy cheapest insertion, and accepts any non-worsening tour. Both operator
weights are refreshed every iteration: w <- (1-rho) w + rho * score, where
the operator used earns 3 on a new global best, 1 on acceptance, 0 otherwise,
and the unused operator earns 0.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import accumulate

from ..tours import cheapest_insertion, nearest_neighbor_tour, roulette
from .base import SolveBudget, SolveResult, SolverSpec, operator_score, update_weights


@dataclass(frozen=True)
class AlnsParams:
    removal_fraction: float
    reaction_factor: float

    def __post_init__(self):
        if not 0.0 < self.removal_fraction < 1.0:
            raise ValueError(f"removal_fraction must be in (0,1), got {self.removal_fraction}")
        if not 0.0 < self.reaction_factor < 1.0:
            raise ValueError(f"reaction_factor must be in (0,1), got {self.reaction_factor}")


def solve_alns(d, p: AlnsParams, b: SolveBudget, seed: int) -> SolveResult:
    tracker, matrix, dist = SPEC.start(d, b)
    n = len(dist)
    rng = random.Random(seed)

    current = nearest_neighbor_tour(matrix, start=0)
    current_cost, _ = tracker.evaluate(current, dist)

    weights = [1.0, 1.0]
    k_remove = min(max(1, math.ceil(p.removal_fraction * n)), n - 1)

    while not tracker.out_of_budget():
        op = roulette(list(accumulate(weights)), rng)
        if op == 0:
            removed = rng.sample(current, k_remove)
        else:
            removed = _worst_contributors(current, dist, k_remove)
        removed_set = set(removed)
        partial = [c for c in current if c not in removed_set]
        candidate = cheapest_insertion(partial, sorted(removed_set), matrix)
        cost, is_best = tracker.evaluate(candidate, dist)
        accepted = cost <= current_cost
        if accepted:
            current, current_cost = candidate, cost
        weights = update_weights(weights, op, operator_score(is_best, accepted), p.reaction_factor)
    return tracker.result()


SPEC = SolverSpec(
    "alns", "stochastic", ("baseline",),
    run=lambda inst, d, p, variant, b, seed: solve_alns(d, p, b, seed),
    params=AlnsParams,
    tuning={
        "removal_fraction": ((0.05, 0.3), (0.27, 0.05, 0.26, 0.29, 0.22, 0.29)),
        "reaction_factor": ((0.01, 0.3), (0.27, 0.25, 0.04, 0.2, 0.27, 0.02)),
    },
)


def _worst_contributors(tour, dist, k) -> list[int]:
    n = len(tour)
    contributions = []
    for pos, city in enumerate(tour):
        a, bnext = tour[pos - 1], tour[(pos + 1) % n]
        detour = dist[a][city] + dist[city][bnext] - dist[a][bnext]
        contributions.append((-detour, city))
    contributions.sort()
    return [city for _, city in contributions[:k]]
