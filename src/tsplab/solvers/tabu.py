"""Tabu search over the 2-opt neighborhood.

Each iteration applies the best admissible reversal. A move is identified by
the unordered set of the four edges it exchanges (the two removed and the two
created), so a move and its exact undo share one tabu entry, held for
`tenure` iterations. Aspiration admits a tabu move that beats the global
best; if every move is tabu and none aspires, the best tabu move is taken so
the search never deadlocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..tours import TIE_EPS, nearest_neighbor_tour
from .base import SolveBudget, SolveResult, SolverSpec


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


def _first_below(cands, start: int, bound: float) -> int:
    """The first position >= start whose candidate is below bound, or -1."""
    if start >= len(cands):
        return -1
    below = cands[start:] < bound
    k = int(below.argmax())  # the first True, or 0 when there is none
    return start + k if below[k] else -1


def solve_tabu(d, p: TabuParams, b: SolveBudget, seed: int) -> SolveResult:
    tracker, matrix, dist = SPEC.start(d, b)
    n = len(matrix)

    current = nearest_neighbor_tour(matrix, start=0)
    current_cost, _ = tracker.evaluate(current, dist)
    if n < 4:  # the 2-opt neighborhood is empty and the NN tour is final
        return tracker.result()

    # One sweep's candidates in scan order: i ascending, then j, skipping
    # (0, n-1), which reverses the whole tour. Each sweep costs them all as
    # one array, current_cost + (((d[a][c] + d[b][e]) - d[a][b]) - d[c][e]):
    # tours.reversal_delta's float operations in its order, into buffers
    # made once per run.
    rows, cols = np.triu_indices(n, k=1)
    rows, cols = np.delete(rows, n - 2), np.delete(cols, n - 2)
    position = np.arange(n)
    prev, nxt = position - 1, (position + 1) % n  # tour[prev][i] is tour[i - 1]
    flat = matrix.ravel()
    index, other = np.empty_like(rows), np.empty_like(rows)
    cands, term = np.empty(len(rows)), np.empty(len(rows))

    def pair_costs(u, v, out):
        """out[k] = d[u[rows[k]]][v[cols[k]]] for u, v indexed by tour position."""
        (u * n).take(rows, out=index)
        np.add(index, v.take(cols, out=other), out=index)
        return flat.take(index, out=out)

    tabu: dict[frozenset, int] = {}
    iteration = 0
    while not tracker.out_of_budget():
        iteration += 1
        tour = np.array(current)
        before, after = tour[prev], tour[nxt]
        edge = matrix[tour, after]  # edge[k] = d[tour[k]][tour[(k + 1) % n]]
        pair_costs(before, tour, cands)
        cands += pair_costs(tour, after, term)
        cands -= edge[prev].take(rows, out=term)
        cands -= edge.take(cols, out=term)
        cands += current_cost

        # Replay the sequential scan's records: a candidate replaces the
        # record only if it is below it by more than TIE_EPS, so the choice is
        # not "first within TIE_EPS of the minimum". Tabu status and
        # aspiration are checked only where the scan checked them, on the
        # candidates that would replace the admissible record.
        move, bound = -1, math.inf
        k = _first_below(cands, 0, bound)
        while k >= 0:
            i, j = int(rows[k]), int(cols[k])
            if (tabu.get(move_key(current, i, j), 0) < iteration
                    or cands[k] < tracker.best_cost - TIE_EPS):
                move, bound = k, cands[k] - TIE_EPS
            k = _first_below(cands, k + 1, bound)
        if move < 0:  # every move is tabu and none aspires: take the best one
            move = 0
            while (k := _first_below(cands, move + 1, cands[move] - TIE_EPS)) >= 0:
                move = k

        i, j = int(rows[move]), int(cols[move])
        tabu[move_key(current, i, j)] = iteration + p.tenure
        current[i : j + 1] = current[i : j + 1][::-1]
        tracker.evaluations += 1
        current_cost = tracker.offer_summed(current, float(cands[move]), dist)
        if len(tabu) > 4 * n * n:  # drop expired entries now and then
            tabu = {key: exp for key, exp in tabu.items() if exp >= iteration}
    return tracker.result()


SPEC = SolverSpec(
    "tabu", "stochastic", ("baseline",),
    run=lambda inst, d, p, variant, b, seed: solve_tabu(d, p, b, seed),
    params=TabuParams,
    tuning={"tenure": ((3, 30), (8, 12, 30, 15, 10, 9))},
)
