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
import time
from dataclasses import dataclass

from ..tours import nearest_neighbor_tour, shuffle
from .base import SolveBudget, SolveResult, SolverSpec

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


def solve_sa(
    d,
    p: SaParams,
    b: SolveBudget,
    seed: int,
    variant: str = "baseline",
    temperature_trace: list[float] | None = None,
) -> SolveResult:
    tracker, matrix, dist = SPEC.start(d, b, variant)
    n = len(dist)
    rng = random.Random(seed)
    getrandbits = rng.getrandbits

    if variant == "baseline":
        current = list(range(n))
        shuffle(current, getrandbits)  # rng.shuffle's draws and swaps
    else:
        current = nearest_neighbor_tour(matrix, start=0)
    current_cost, _ = tracker.evaluate(current, dist)
    if n < 4:  # no 2-opt move exists
        return tracker.result()

    t_start, t_final, cooling_rate = p.t_start, p.t_final, p.cooling_rate
    temperature = t_start
    baseline = variant == "baseline"
    if not baseline:
        planned = b.max_evaluations if b.max_evaluations is not None else _SWEEP_PER_CITY * n
        beta = lundy_mees_beta(t_start, t_final, max(planned, 1))

    # The proposal loop inlines tracker.out_of_budget, tours.randbelow,
    # tours.reversal_delta and lundy_mees_step: the same checks, draws and
    # float operations in the same order, without four calls per proposal.
    # A move is accepted outright when delta <= 0, otherwise with probability
    # exp(-delta / T) (Metropolis). The pins in test_meta_solvers hold it.
    cap = b.max_evaluations if b.max_evaluations is not None else math.inf
    limit = b.time_limit if b.time_limit is not None else math.inf
    started, now = tracker.started, time.perf_counter
    random_, exp = rng.random, math.exp
    top = n - 1
    bits = [m.bit_length() for m in range(n)]
    top_bits = bits[top]
    evaluations = tracker.evaluations
    while evaluations < cap and now() - started < limit:
        # rng.randrange(n - 1), then rng.randrange(i + 1, n): the same draws.
        i = getrandbits(top_bits)
        while i >= top:
            i = getrandbits(top_bits)
        span = top - i
        j = getrandbits(bits[span])
        while j >= span:
            j = getrandbits(bits[span])
        j += i + 1
        if i == 0 and j == top:
            continue
        prev, first, last, after = current[i - 1], current[i], current[j], current[(j + 1) % n]
        row = dist[prev]
        delta = row[last] + dist[first][after] - row[first] - dist[last][after]
        evaluations += 1
        if delta <= 0.0 or random_() < exp(-delta / temperature):
            current[i : j + 1] = current[i : j + 1][::-1]
            current_cost += delta
            if current_cost < tracker.best_cost:
                current_cost = tracker.offer_summed(current, current_cost, dist)
        if baseline:
            temperature *= cooling_rate
            if temperature < t_final:
                temperature = t_start  # schedule restart under remaining budget
        else:
            temperature = temperature / (1.0 + beta * temperature)
        if temperature_trace is not None:
            temperature_trace.append(temperature)
    tracker.evaluations = evaluations
    return tracker.result()


SPEC = SolverSpec(
    "sa", "stochastic", ("baseline", "lundy_mees_r1"),
    run=lambda inst, d, p, variant, b, seed: solve_sa(d, p, b, seed, variant=variant),
    params=SaParams,
    tuning={
        "t_start": ((1.0, 50.0), (12, 49, 9, 30, 35, 50)),
        "t_final": ((0.0001, 0.1), (0.0547, 0.0464, 0.074, 0.056, 0.0433, 0.048)),
        "cooling_rate": ((0.8, 0.99), (0.9895, 0.8732, 0.8956, 0.8131, 0.9154, 0.8777)),
    },
)
