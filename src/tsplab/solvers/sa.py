"""Simulated annealing for the TSP, geometric baseline and Lundy-Mees variant.

baseline: random initial tour, uniform random 2-opt neighbor proposals,
Metropolis acceptance exp(-delta/T), geometric cooling T <- cooling_rate * T
from t_start down to t_final, restarting the schedule while budget remains.

lundy_mees_r1: nearest-neighbor initial tour and the Lundy-Mees schedule
T <- T / (1 + beta*T) with beta = (T0 - Tf) / (K * T0 * Tf), which reaches
exactly Tf after K steps and then keeps decreasing toward zero (never
restarts, so the temperature sequence is strictly decreasing).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from ..tours import nearest_neighbor_tour, randbelow, reversal_delta
from .base import SolveBudget, SolveResult, SolverSpec, start_run

SA_VARIANTS = ("baseline", "lundy_mees_r1")

# Planned Lundy-Mees sweep length per city when the budget gives no
# evaluation cap to plan K from.
_SWEEP_PER_CITY = 1000


@dataclass(frozen=True)
class SaParams:
    t_start: float
    t_final: float
    cooling_rate: float

    def __post_init__(self):
        if not self.t_start > self.t_final > 0.0:
            raise ValueError("need t_start > t_final > 0")
        if not 0.0 < self.cooling_rate < 1.0:
            raise ValueError(f"cooling_rate must be in (0,1), got {self.cooling_rate}")


def lundy_mees_step(temperature: float, beta: float) -> float:
    """One Lundy-Mees cooling step: T / (1 + beta*T)."""
    return temperature / (1.0 + beta * temperature)


def lundy_mees_beta(t_start: float, t_final: float, planned_steps: int) -> float:
    """beta such that the schedule lands exactly on t_final after planned_steps."""
    return (t_start - t_final) / (planned_steps * t_start * t_final)


def metropolis_accept(delta: float, temperature: float, rng: random.Random) -> bool:
    """Accept non-worsening moves outright, worse ones with exp(-delta/T)."""
    if delta <= 0.0:
        return True
    return rng.random() < math.exp(-delta / temperature)


def solve_sa(
    d,
    p: SaParams,
    b: SolveBudget,
    seed: int,
    variant: str = "baseline",
    temperature_trace: list[float] | None = None,
) -> SolveResult:
    if variant not in SA_VARIANTS:
        raise ValueError(f"unknown SA variant: {variant!r}")
    tracker, matrix = start_run(d, b)
    dist = matrix.tolist()
    n = len(dist)
    rng = random.Random(seed)
    getrandbits = rng.getrandbits

    if variant == "baseline":
        current = list(range(n))
        rng.shuffle(current)
    else:
        current = nearest_neighbor_tour(matrix, start=0)
    current_cost, _ = tracker.evaluate(current, dist)

    temperature = p.t_start
    if variant == "lundy_mees_r1":
        planned = b.max_evaluations if b.max_evaluations is not None else _SWEEP_PER_CITY * n
        beta = lundy_mees_beta(p.t_start, p.t_final, max(planned, 1))

    while n >= 4 and not tracker.out_of_budget():
        # rng.randrange(n - 1), then rng.randrange(i + 1, n): the same draws.
        i = randbelow(getrandbits, n - 1)
        j = i + 1 + randbelow(getrandbits, n - i - 1)
        if i == 0 and j == n - 1:
            continue
        delta = reversal_delta(current, dist, i, j)
        tracker.evaluations += 1
        if metropolis_accept(delta, temperature, rng):
            current[i : j + 1] = current[i : j + 1][::-1]
            current_cost = tracker.offer_summed(current, current_cost + delta, dist)
        if variant == "baseline":
            temperature *= p.cooling_rate
            if temperature < p.t_final:
                temperature = p.t_start  # schedule restart under remaining budget
        else:
            temperature = lundy_mees_step(temperature, beta)
        if temperature_trace is not None:
            temperature_trace.append(temperature)
    return tracker.result()


SPEC = SolverSpec(
    "sa", "stochastic", SA_VARIANTS,
    run=lambda inst, d, p, variant, b, seed: solve_sa(d, p, b, seed, variant=variant),
    params=SaParams,
    tuning={
        "t_start": ((1.0, 50.0), (12, 49, 9, 30, 35, 50)),
        "t_final": ((0.0001, 0.1), (0.0547, 0.0464, 0.074, 0.056, 0.0433, 0.048)),
        "cooling_rate": ((0.8, 0.99), (0.9895, 0.8732, 0.8956, 0.8131, 0.9154, 0.8777)),
    },
)
