"""Exact branch and bound with the classical two-minimum lower bound.

Depth-first search over partial paths rooted at city 0 (tours are rotation
invariant, so anchoring removes an n-fold symmetry). The root bound is
(sum of each city's two cheapest incident edges) / 2, tightened along the
path so that each open endpoint keeps its cheapest incident edge charged;
a branch is pruned when bound >= incumbent.

baseline: incumbent starts at +infinity, children in index order.
enhanced_r1: incumbent starts at the nearest-neighbor tour cost and children
are visited in ascending edge-weight order. Both variants always return the
same optimal cost; nodes_expanded counts bound evaluations.

Each solve builds one n x n table of bound adjustments from bound_cache's
minima, so a node reads its adjustment instead of computing it. The search
recurses once per tour position, under a recursion limit raised to n + 200
for the call, so a node-capped search runs at any n.
"""

from __future__ import annotations

import sys

import numpy as np

from ..tours import nearest_neighbor_tour, tour_length
from .base import SolveResult, SolverSpec, float_rows

_CAP_CHECK_MASK = 0x3FF  # consult the wall clock every 1024 bound evaluations


def bound_cache(d) -> tuple[list[float], list[float]]:
    """Per-city smallest and second-smallest incident edge weights (the
    smallest twice at n = 2), from one stable sort of the off-diagonal rows."""
    ranked = np.array(d, dtype=float)
    np.fill_diagonal(ranked, np.inf)
    ranked.sort(axis=1, kind="stable")
    return ranked[:, 0].tolist(), ranked[:, 1 if len(ranked) > 2 else 0].tolist()


def branch_and_bound(
    d,
    variant: str = "baseline",
    node_cap: int | None = None,
    time_cap: float | None = None,
) -> SolveResult:
    tracker, matrix, dist = SPEC.start(d, None, variant)
    n = len(dist)
    nn_tour = nearest_neighbor_tour(matrix, start=0)
    nn_cost = tour_length(nn_tour, dist)

    # enhanced_r1 starts from the NN incumbent and tries children in ascending
    # edge weight (a stable sort, so the lower index breaks ties).
    if variant == "enhanced_r1":
        best, incumbent = nn_tour, nn_cost
        order_from = np.argsort(matrix, axis=1, kind="stable").tolist()
    else:
        best, incumbent = None, float("inf")
        order_from = [list(range(n))] * n

    nodes = 0
    capped = False
    visited = [False] * n
    visited[0] = True
    path = [0]

    def dfs(current: int, depth: int, weight: float, bound: float):
        nonlocal nodes, incumbent, best, capped
        row, half = dist[current], halves[current]
        for child in order_from[current]:
            if visited[child]:
                continue
            nodes += 1
            if node_cap is not None and nodes > node_cap:
                capped = True
                return
            if time_cap is not None and nodes & _CAP_CHECK_MASK == 0:
                if tracker.elapsed() >= time_cap:
                    capped = True
                    return
            child_weight = weight + row[child]
            child_bound = bound - half[child]
            if depth == n - 1:
                total = child_weight + dist[child][0]
                if total < incumbent:
                    incumbent = total
                    best = path + [child]
                continue
            if child_weight + child_bound >= incumbent:
                continue  # prune
            visited[child] = True
            path.append(child)
            dfs(child, depth + 1, child_weight, child_bound)
            visited[child] = False
            path.pop()
            if capped:
                return

    if n > 2:
        min1, min2 = bound_cache(matrix)
        m1, m2 = np.array(min1), np.array(min2)
        # Stepping from `current` to `child` subtracts halves[current][child].
        # Keep min1/2 charged for every open endpoint (the future edge out of
        # `child` and the closing edge back to 0 are only guaranteed to cost
        # min1); removing min1 here instead would overestimate the completion
        # and can prune the optimal branch. City 0 is `current` only at depth
        # 1, where both endpoints give up min2. numpy adds and halves exactly
        # as Python floats do, so every entry equals the per-node arithmetic.
        table = (m1[:, None] + m2) / 2.0
        table[0] = (m2[0] + m2) / 2.0
        halves = float_rows(table)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, n + 200))  # one frame per tour position
        try:
            dfs(0, 1, 0.0, sum(a + b for a, b in zip(min1, min2)) / 2.0)
        finally:
            sys.setrecursionlimit(limit)
    if best is None:
        # A cap fired before any complete tour, or n <= 2, whose one tour is NN's.
        best, incumbent = nn_tour, nn_cost
    return SolveResult(best, float(incumbent), trajectory=None, evaluations=None,
                       elapsed=tracker.elapsed(), nodes_expanded=nodes,
                       proven_optimal=not capped)


def _run(inst, d, params, variant, budget, seed) -> SolveResult:
    # Nodes are branch and bound's work unit: the evaluation cap caps them.
    caps = (None, None) if budget is None else (budget.max_evaluations, budget.time_limit)
    return branch_and_bound(d, variant, *caps)


SPEC = SolverSpec("branch_and_bound", "exact", ("baseline", "enhanced_r1"), run=_run)
