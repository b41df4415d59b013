"""Tabular Q-Learning and SARSA tour constructors.

The state is the current city only; actions are the unvisited cities. Each
step earns reward -d_norm[s][a] where d_norm is the distance matrix divided
by its largest entry, so every reward lies in [-1, 0]. The terminal step
folds in the closing-edge reward and bootstraps nothing. Training returns
the best tour seen across episodes; a final greedy rollout is offered to the
tracker as well so it lands in the trajectory whenever it improves.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from ..errors import EmptyInput, NonFiniteInput
from ..tours import tour_length
from .base import RunTracker, SolveBudget, SolveResult, SolverSpec

SARSA_VARIANTS = ("baseline", "boltzmann_o1")

_TINY = 1e-12
# Boltzmann temperature anneals linearly across episodes over this range.
BOLTZMANN_T_START = 1.0
BOLTZMANN_T_END = 0.1


@dataclass(frozen=True)
class RlParams:
    learning_rate: float
    discount: float
    epsilon: float
    episodes: int

    def __post_init__(self):
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError(f"learning_rate must be in (0,1], got {self.learning_rate}")
        if not 0.0 <= self.discount < 1.0:
            raise ValueError(f"discount must be in [0,1), got {self.discount}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0,1], got {self.epsilon}")
        if self.episodes < 1:
            raise ValueError(f"episodes must be >= 1, got {self.episodes}")


def boltzmann_probabilities(q, temperature: float) -> np.ndarray:
    """Max-shifted softmax over q/temperature; sums to 1 within 1e-12."""
    arr = np.asarray(q, dtype=float)
    if arr.size == 0:
        raise EmptyInput("empty preference vector")
    if not np.isfinite(arr).all():
        raise NonFiniteInput("preference vector contains NaN or infinity")
    if not temperature > 0.0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    scaled = arr / temperature
    shifted = scaled - scaled.max()
    exp = np.exp(shifted)
    return exp / exp.sum()


def boltzmann_temperature(episode: int, total_episodes: int) -> float:
    """Linear anneal from 1.0 to 0.1 across the planned episode count."""
    if total_episodes <= 1:
        return BOLTZMANN_T_START
    frac = episode / (total_episodes - 1)
    return BOLTZMANN_T_START + (BOLTZMANN_T_END - BOLTZMANN_T_START) * frac


def q_update(value: float, lr: float, reward: float, df: float, bootstrap: float) -> float:
    """One temporal-difference update: value + lr*(reward + df*bootstrap - value)."""
    return value + lr * (reward + df * bootstrap - value)


def solve_qlearning(d, p: RlParams, b: SolveBudget, seed: int) -> SolveResult:
    return _train(d, p, b, seed, on_policy=False, boltzmann=False)


def solve_sarsa(d, p: RlParams, b: SolveBudget, seed: int, variant: str = "baseline") -> SolveResult:
    if variant not in SARSA_VARIANTS:
        raise ValueError(f"unknown SARSA variant: {variant!r}")
    return _train(d, p, b, seed, on_policy=True, boltzmann=variant == "boltzmann_o1")


QLEARNING_SPEC = SolverSpec(
    "qlearning", "stochastic", ("baseline",),
    run=lambda inst, d, p, variant, b, seed: solve_qlearning(d, p, b, seed),
    params=RlParams,
    tuning={
        "learning_rate": ((0.01, 0.5), (0.44, 0.15, 0.26, 0.49, 0.46, 0.34)),
        "discount": ((0.8, 0.99), (0.97, 0.82, 0.98, 0.87, 0.98, 0.82)),
        "epsilon": ((0.01, 0.3), (0.09, 0.28, 0.03, 0.24, 0.21, 0.13)),
        "episodes": ((1000, 10000), (4266, 1082, 4906, 2474, 1294, 1989)),
    },
)

SARSA_SPEC = SolverSpec(
    "sarsa", "stochastic", SARSA_VARIANTS,
    run=lambda inst, d, p, variant, b, seed: solve_sarsa(d, p, b, seed, variant=variant),
    params=RlParams,
    tuning={
        "learning_rate": ((0.01, 0.5), (0.04, 0.36, 0.49, 0.19, 0.41, 0.29)),
        "discount": ((0.8, 0.99), (0.86, 0.91, 0.8, 0.88, 0.83, 0.87)),
        "epsilon": ((0.01, 0.3), (0.23, 0.18, 0.16, 0.08, 0.12, 0.16)),
        "episodes": ((100, 5000), (105, 156, 1850, 137, 124, 1711)),
    },
)


def _train(d, p: RlParams, b: SolveBudget, seed: int, on_policy: bool, boltzmann: bool) -> SolveResult:
    n = len(d)
    dist = d.tolist() if isinstance(d, np.ndarray) else [list(row) for row in d]
    scale = max(max(max(row) for row in dist), _TINY)
    dn = [[v / scale for v in row] for row in dist]
    rng = random.Random(seed)
    tracker = RunTracker(budget=b, seed=seed)
    q = [[0.0] * n for _ in range(n)]
    lr, df = p.learning_rate, p.discount

    for episode in range(p.episodes):
        temperature = boltzmann_temperature(episode, p.episodes) if boltzmann else None
        start = rng.randrange(n)
        unvisited = [c for c in range(n) if c != start]
        tour = [start]
        s = start
        a = _select(q[s], unvisited, p.epsilon, temperature, rng)[0] if unvisited else None
        while unvisited:
            unvisited.remove(a)
            tour.append(a)
            r = -dn[s][a]
            if not unvisited:
                # Terminal: fold in the closing edge, bootstrap nothing.
                q[s][a] = q_update(q[s][a], lr, r - dn[a][start], 0.0, 0.0)
                break
            a_next, greedy = _select(q[a], unvisited, p.epsilon, temperature, rng)
            if on_policy or greedy:
                bootstrap = q[a][a_next]  # a greedy pick holds the row's maximum
            else:
                bootstrap = max(map(q[a].__getitem__, unvisited))
            q[s][a] = q_update(q[s][a], lr, r, df, bootstrap)
            s, a = a, a_next
        cost = tour_length(tour, dist)
        tracker.evaluations += 1
        tracker.offer(tour, cost)
        if tracker.out_of_budget():
            break

    if not tracker.out_of_budget():
        greedy = _greedy_rollout(q, n)
        tracker.evaluations += 1
        tracker.offer(greedy, tour_length(greedy, dist))
    return tracker.result()


def _select(row, unvisited, epsilon, temperature, rng) -> tuple[int, bool]:
    """Next city from Q row `row`, and whether the pick was greedy."""
    if temperature is not None:
        probs = boltzmann_probabilities(list(map(row.__getitem__, unvisited)), temperature)
        k = bisect_right(list(accumulate(probs.tolist())), rng.random())
        return unvisited[min(k, len(unvisited) - 1)], False
    if rng.random() < epsilon:
        return unvisited[rng.randrange(len(unvisited))], False
    return _greedy(row, unvisited), True


def _greedy(row, unvisited) -> int:
    # unvisited ascends, so the first maximum is the lowest index on ties.
    vals = list(map(row.__getitem__, unvisited))
    return unvisited[vals.index(max(vals))]


def _greedy_rollout(q, n) -> list[int]:
    tour, unvisited = [0], list(range(1, n))
    while unvisited:
        tour.append(_greedy(q[tour[-1]], unvisited))
        unvisited.remove(tour[-1])
    return tour
