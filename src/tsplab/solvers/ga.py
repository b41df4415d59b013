"""Genetic algorithm for the TSP, baseline and hybrid variant.

baseline: random initial population, fitness-proportional selection, order
crossover (OX), single swap mutation at rate mutation_rate, top-elite
elitism, generational replacement.

hybrid_r1 layers on: nearest-neighbor seeding of max(1, N//5) individuals
(only when N >= 5), tournament selection of size 2 on rank (lower cost
wins), adaptive crossover choice among {OX, ER, BCR} scored 3/1/0, a
stochastic 2-opt pass over every offspring, and duplicate-cost diversity
replacement.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from ..tours import nearest_neighbor_tour, tour_length, two_opt
from .alns import roulette, update_weights
from .base import RunTracker, SolveBudget, SolveResult, SolverSpec

_TINY = 1e-12
# Reaction factor for the adaptive crossover weights (same 3/1/0 scoring as ALNS).
_OPERATOR_REACTION = 0.2
_SCORE_GLOBAL_BEST = 3.0
_SCORE_IMPROVED = 1.0

GA_VARIANTS = ("baseline", "hybrid_r1")


@dataclass(frozen=True)
class GaParams:
    population_size: int
    mutation_rate: float
    elite_count: int
    diversity_threshold: float = 0.5  # fraction of shared-cost duplicates that triggers refresh

    def __post_init__(self):
        if self.population_size < 2:
            raise ValueError(f"population_size must be >= 2, got {self.population_size}")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError(f"mutation_rate must be in [0,1], got {self.mutation_rate}")
        if not 0 <= self.elite_count <= self.population_size:
            raise ValueError("elite_count must be in [0, population_size]")


def nn_seed_count(population_size: int) -> int:
    """How many initial individuals the hybrid variant seeds with NN tours."""
    if population_size >= 5:
        return max(1, population_size // 5)
    return 0


def solve_ga(d, p: GaParams, b: SolveBudget, seed: int, variant: str = "baseline") -> SolveResult:
    if variant not in GA_VARIANTS:
        raise ValueError(f"unknown GA variant: {variant!r}")
    n = len(d)
    dist = d.tolist() if isinstance(d, np.ndarray) else [list(row) for row in d]
    rng = random.Random(seed)
    tracker = RunTracker(budget=b, seed=seed)
    hybrid = variant == "hybrid_r1"

    pop, costs = _initial_population(dist, n, p, rng, hybrid, tracker)
    op_weights = [1.0, 1.0, 1.0]  # OX, ER, BCR

    # A full-elite population would never produce offspring; keep one slot open.
    elite = min(p.elite_count, p.population_size - 1)
    while not tracker.out_of_budget():
        ranked = sorted(range(p.population_size), key=lambda i: (costs[i], i))
        new_pop = [list(pop[i]) for i in ranked[:elite]]
        new_costs = [costs[i] for i in ranked[:elite]]
        # Baseline parent weights: costs change only at the end of a generation.
        cum_weights = None if hybrid else list(accumulate(1.0 / (c + _TINY) for c in costs))
        while len(new_pop) < p.population_size:
            if hybrid:
                i1, i2 = _tournament(costs, rng), _tournament(costs, rng)
                op = roulette(op_weights, rng)
            else:
                i1, i2 = rng.choices(range(p.population_size), cum_weights=cum_weights, k=2)
                op = 0
            parent1, parent2 = pop[i1], pop[i2]
            if op == 0:
                child = _order_crossover(parent1, parent2, rng)
            elif op == 1:
                child = _edge_recombination(parent1, parent2)
            else:
                child = _best_cost_insertion_crossover(parent1, parent2, dist, rng)
            if rng.random() < p.mutation_rate:
                a, bpos = rng.randrange(n), rng.randrange(n)
                child[a], child[bpos] = child[bpos], child[a]
            if hybrid:
                child = two_opt(child, dist, mode="stochastic", tries=n, rng=rng)
            child_cost = tour_length(child, dist)
            tracker.evaluations += 1
            was_best = tracker.offer(child, child_cost)
            if hybrid:
                score = _SCORE_GLOBAL_BEST if was_best else (
                    _SCORE_IMPROVED if child_cost < min(costs[i1], costs[i2]) else 0.0
                )
                op_weights = update_weights(op_weights, op, score, _OPERATOR_REACTION)
            new_pop.append(child)
            new_costs.append(child_cost)
            if tracker.out_of_budget():
                return tracker.result()
        pop, costs = new_pop, new_costs
        if hybrid:
            _refresh_duplicates(pop, costs, dist, n, p, rng, tracker)
    return tracker.result()


SPEC = SolverSpec(
    "ga", "stochastic", GA_VARIANTS,
    run=lambda inst, d, p, variant, b, seed: solve_ga(d, p, b, seed, variant=variant),
    params=GaParams,
    tuning={
        "population_size": ((5, 100), (97, 14, 97, 84, 55, 58)),
        "mutation_rate": ((0.01, 0.2), (0.02, 0.04, 0.16, 0.16, 0.01, 0.13)),
        "elite_count": ((1, 5), (4, 2, 5, 2, 3, 5)),
    },
)


def _initial_population(dist, n, p, rng, hybrid, tracker):
    pop: list[list[int]] = []
    if hybrid:
        k = nn_seed_count(p.population_size)
        starts = rng.sample(range(n), min(k, n))
        starts += [rng.randrange(n) for _ in range(k - len(starts))]
        pop.extend(nearest_neighbor_tour(dist, start=s) for s in starts)
    while len(pop) < p.population_size:
        perm = list(range(n))
        rng.shuffle(perm)
        pop.append(perm)
    costs = []
    for tour in pop:
        cost = tour_length(tour, dist)
        tracker.evaluations += 1
        tracker.offer(tour, cost)
        costs.append(cost)
    return pop, costs


def _tournament(costs, rng) -> int:
    # Size-2 tournament on rank: the cheaper individual wins, index breaks ties.
    i, j = rng.randrange(len(costs)), rng.randrange(len(costs))
    return min(i, j, key=lambda k: (costs[k], k))


def _order_crossover(p1, p2, rng) -> list[int]:
    n = len(p1)
    a, b = rng.randrange(n), rng.randrange(n)
    if a > b:
        a, b = b, a
    child = [-1] * n
    child[a : b + 1] = p1[a : b + 1]
    used = set(child[a : b + 1])
    pos = (b + 1) % n
    for idx in range(n):
        city = p2[(b + 1 + idx) % n]
        if city not in used:
            child[pos] = city
            pos = (pos + 1) % n
    return child


def _edge_recombination(p1, p2) -> list[int]:
    n = len(p1)
    adj: dict[int, set[int]] = {c: set() for c in p1}
    for parent in (p1, p2):
        for i, city in enumerate(parent):
            adj[city].add(parent[i - 1])
            adj[city].add(parent[(i + 1) % n])
    current = p1[0]
    tour = [current]
    remaining = set(p1)
    remaining.discard(current)
    while remaining:
        for neighbors in adj.values():
            neighbors.discard(current)
        candidates = adj[current] & remaining
        if candidates:
            current = min(candidates, key=lambda c: (len(adj[c] & remaining), c))
        else:
            current = min(remaining)
        tour.append(current)
        remaining.discard(current)
    return tour


def _best_cost_insertion_crossover(p1, p2, dist, rng) -> list[int]:
    # Remove a random subroute of parent2's cities from parent1, then reinsert
    # each removed city at its cheapest position. Stays a Python loop: numpy per
    # city measured slower (three test_c06 seeds: 17.7 s before, 23.8 s after).
    n = len(p1)
    max_len = max(1, n // 4)
    length = min(1 + rng.randrange(max_len), n - 2) if n > 3 else 1
    start = rng.randrange(n)
    segment = [p2[(start + k) % n] for k in range(length)]
    removed = set(segment)
    child = [c for c in p1 if c not in removed]
    for city in segment:
        best_pos, best_delta = 0, float("inf")
        m = len(child)
        for pos in range(m):
            a, bnext = child[pos - 1], child[pos]
            delta = dist[a][city] + dist[city][bnext] - dist[a][bnext]
            if delta < best_delta - 1e-12:
                best_pos, best_delta = pos, delta
        child.insert(best_pos, city)
    return child


def _refresh_duplicates(pop, costs, dist, n, p, rng, tracker):
    counts: dict[float, int] = {}
    for c in costs:
        counts[c] = counts.get(c, 0) + 1
    worst_cost, count = max(counts.items(), key=lambda kv: kv[1])
    if count <= p.diversity_threshold * p.population_size:
        return
    kept_one = False
    for i in range(len(pop)):
        if costs[i] != worst_cost:
            continue
        if not kept_one:
            kept_one = True
            continue
        perm = list(range(n))
        rng.shuffle(perm)
        cost = tour_length(perm, dist)
        tracker.evaluations += 1
        tracker.offer(perm, cost)
        pop[i], costs[i] = perm, cost
