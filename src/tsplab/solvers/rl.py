"""Tabular Q-Learning and SARSA tour constructors.

The state is the current city only; actions are the unvisited cities. Each
step earns reward -d_norm[s][a] where d_norm is the distance matrix divided
by its largest entry, so every reward lies in [-1, 0]. The terminal step
folds in the closing-edge reward and bootstraps nothing. Training returns
the best tour seen across episodes; a final greedy rollout is offered to the
tracker as well so it lands in the trajectory whenever it improves.

The Q table is one n x n float array. A greedy pick over many open cities is
one masked numpy argmax; scalar reads and writes of Q, and greedy picks over
few open cities, go through per-row memoryviews of it at Python-float speed.
Both picks return the same city, so the crossover never changes a seeded run.
Distances are read through the rows SolverSpec.start returns.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from ..errors import EmptyInput, NonFiniteInput
from ..tours import randbelow, roulette
from .base import TINY, SolveBudget, SolveResult, SolverSpec

# Boltzmann temperature anneals linearly across episodes over this range.
BOLTZMANN_T_START = 1.0
BOLTZMANN_T_END = 0.1
# A greedy pick over fewer open cities than this scans the Q row in Python;
# over more, one masked numpy argmax is faster. Both return the same city.
ARRAY_PICK_MIN = 32


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
    return _softmax(arr, temperature)


def _softmax(arr: np.ndarray, temperature: float) -> np.ndarray:
    """boltzmann_probabilities' arithmetic, for a non-empty finite float array.
    The reductions are the ufunc calls behind ndarray.max() and .sum()."""
    scaled = arr / temperature
    exp = np.exp(scaled - np.maximum.reduce(scaled))
    return exp / np.add.reduce(exp)


def boltzmann_temperature(episode: int, total_episodes: int) -> float:
    """Linear anneal from 1.0 to 0.1 across the planned episode count."""
    if total_episodes <= 1:
        return BOLTZMANN_T_START
    frac = episode / (total_episodes - 1)
    return BOLTZMANN_T_START + (BOLTZMANN_T_END - BOLTZMANN_T_START) * frac


def solve_qlearning(d, p: RlParams, b: SolveBudget, seed: int) -> SolveResult:
    return _train(QLEARNING_SPEC.start(d, b), p, seed, on_policy=False, boltzmann=False)


def solve_sarsa(d, p: RlParams, b: SolveBudget, seed: int, variant: str = "baseline") -> SolveResult:
    started = SARSA_SPEC.start(d, b, variant)
    return _train(started, p, seed, on_policy=True, boltzmann=variant == "boltzmann_o1")


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
    "sarsa", "stochastic", ("baseline", "boltzmann_o1"),
    run=lambda inst, d, p, variant, b, seed: solve_sarsa(d, p, b, seed, variant=variant),
    params=RlParams,
    tuning={
        "learning_rate": ((0.01, 0.5), (0.04, 0.36, 0.49, 0.19, 0.41, 0.29)),
        "discount": ((0.8, 0.99), (0.86, 0.91, 0.8, 0.88, 0.83, 0.87)),
        "epsilon": ((0.01, 0.3), (0.23, 0.18, 0.16, 0.08, 0.12, 0.16)),
        "episodes": ((100, 5000), (105, 156, 1850, 137, 124, 1711)),
    },
)


def _train(started, p: RlParams, seed: int, on_policy: bool, boltzmann: bool) -> SolveResult:
    tracker, matrix, dist = started
    n = len(matrix)
    scale = max(float(matrix.max()), TINY)
    q = np.zeros((n, n))
    q_rows = [memoryview(row) for row in q]
    # The open cities, kept twice: ascending in `unvisited`, and as a mask.
    is_open = np.empty(n, dtype=bool)
    open_view = memoryview(is_open)
    rng = random.Random(seed)
    getrandbits = rng.getrandbits
    lr, df, epsilon = p.learning_rate, p.discount, p.epsilon

    for episode in range(p.episodes):
        temperature = boltzmann_temperature(episode, p.episodes) if boltzmann else None
        start = randbelow(getrandbits, n)  # rng.randrange(n)'s draw
        unvisited = list(range(n))
        del unvisited[start]
        is_open.fill(True)
        open_view[start] = False
        tour = [start]
        # Each step picks a from s, then updates the previous step's Q(prev, s)
        # from row s at `target`: the pick itself (SARSA) or the greedy pick
        # (Q-learning), which holds the row's maximum over the open cities.
        prev, s, r = None, start, 0.0
        while unvisited:
            if temperature is not None:
                a = target = _boltzmann_pick(q, s, unvisited, is_open, temperature, rng)
            elif rng.random() < epsilon:
                a = target = unvisited[randbelow(getrandbits, len(unvisited))]
                if not on_policy and prev is not None:
                    target = _greedy(q, q_rows, s, unvisited, is_open)
            else:
                a = target = _greedy(q, q_rows, s, unvisited, is_open)
            if prev is not None:
                row = q_rows[prev]
                value = row[s]
                row[s] = value + lr * (r + df * q_rows[s][target] - value)
            del unvisited[bisect_left(unvisited, a)]
            open_view[a] = False
            tour.append(a)
            prev, s, r = s, a, -(dist[s][a] / scale)
        if prev is not None:
            # Terminal: fold in the closing edge, bootstrap nothing.
            q_rows[prev][s] += lr * (r - dist[s][start] / scale - q_rows[prev][s])
        tracker.evaluate(tour, dist)
        if tracker.out_of_budget():
            break

    if not tracker.out_of_budget():
        tracker.evaluate(_greedy_rollout(q, q_rows), dist)
    return tracker.result()


def _boltzmann_pick(q, s, unvisited, is_open, temperature, rng) -> int:
    """A city drawn by the Boltzmann probabilities of the open Q values from s.
    unvisited lists the open cities in ascending order; is_open masks them."""
    # Rewards are finite and bounded, so Q values stay finite: no check here.
    probs = _softmax(q[s][is_open], temperature)
    # cumsum adds in sequence, as Python adds running sums.
    return unvisited[roulette(probs.cumsum(), rng, 1.0)]


def _greedy(q, q_rows, s, unvisited, is_open) -> int:
    """The open city with the highest Q value from s; the lowest index on ties."""
    m = len(unvisited)
    if m == 1:  # also: itemgetter of one key returns a value, not a tuple
        return unvisited[0]
    if m < ARRAY_PICK_MIN:
        # unvisited ascends, so the first maximum is the lowest index on ties.
        vals = itemgetter(*unvisited)(q_rows[s])
        return unvisited[vals.index(max(vals))]
    return int(np.where(is_open, q[s], -np.inf).argmax())  # argmax: the first maximum too


def _greedy_rollout(q, q_rows) -> list[int]:
    n = len(q)
    tour, unvisited = [0], list(range(1, n))
    is_open = np.ones(n, dtype=bool)
    is_open[0] = False
    while unvisited:
        city = _greedy(q, q_rows, tour[-1], unvisited, is_open)
        tour.append(city)
        del unvisited[bisect_left(unvisited, city)]
        is_open[city] = False
    return tour
