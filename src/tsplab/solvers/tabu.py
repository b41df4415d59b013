"""Tabu search over the 2-opt neighborhood.

Each iteration applies the best admissible reversal. A move is identified by
the unordered set of the four edges it exchanges (the two removed and the two
created), so a move and its exact undo share one tabu entry, held for
`tenure` iterations. Aspiration admits a tabu move that beats the global
best; if every move is tabu and none aspires, the best tabu move is taken so
the search never deadlocks.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..tours import nearest_neighbor_tour, reversal_delta
from .base import SolveBudget, SolveResult, SolverSpec, start_run

_EPS = 1e-12


@dataclass(frozen=True)
class TabuParams:
    tenure: int

    def __post_init__(self):
        if self.tenure < 1:
            raise ValueError(f"tenure must be >= 1, got {self.tenure}")


def _edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def move_key(order, i: int, j: int) -> frozenset:
    """Tabu attribute of reversing positions i..j: the exchanged edge pair."""
    n = len(order)
    a, b = order[i - 1], order[i]
    c, e = order[j], order[(j + 1) % n]
    return frozenset((_edge(a, b), _edge(c, e), _edge(a, c), _edge(b, e)))


def solve_tabu(d, p: TabuParams, b: SolveBudget, seed: int) -> SolveResult:
    tracker, matrix = start_run(d, b)
    dist = matrix.tolist()
    n = len(dist)

    current = nearest_neighbor_tour(matrix, start=0)
    current_cost, _ = tracker.evaluate(current, dist)

    tabu: dict[frozenset, int] = {}
    iteration = 0
    while not tracker.out_of_budget() and n >= 4:
        iteration += 1
        best_move = None  # (cost, i, j)
        best_any = None  # fallback when everything is tabu
        for i in range(n - 1):
            for j in range(i + 1, n):
                if i == 0 and j == n - 1:
                    continue
                cand_cost = current_cost + reversal_delta(current, dist, i, j)
                if best_any is None or cand_cost < best_any[0] - _EPS:
                    best_any = (cand_cost, i, j)
                if best_move is not None and cand_cost >= best_move[0] - _EPS:
                    continue
                # Tabu status only guards replacing best_move, so the key is
                # built for those candidates alone.
                if (tabu.get(move_key(current, i, j), 0) >= iteration
                        and cand_cost >= tracker.best_cost - _EPS):
                    continue  # tabu and no aspiration
                best_move = (cand_cost, i, j)
        cand_cost, i, j = best_any if best_move is None else best_move
        tabu[move_key(current, i, j)] = iteration + p.tenure
        current[i : j + 1] = current[i : j + 1][::-1]
        tracker.evaluations += 1
        current_cost = tracker.offer_summed(current, cand_cost, dist)
        if len(tabu) > 4 * n * n:  # drop expired entries now and then
            tabu = {k: exp for k, exp in tabu.items() if exp >= iteration}
    # Below 4 cities the 2-opt neighborhood is empty and the NN tour is final.
    return tracker.result()


SPEC = SolverSpec(
    "tabu", "stochastic", ("baseline",),
    run=lambda inst, d, p, variant, b, seed: solve_tabu(d, p, b, seed),
    params=TabuParams,
    tuning={"tenure": ((3, 30), (8, 12, 30, 15, 10, 9))},
)
