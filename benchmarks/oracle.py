"""Held-Karp dynamic program: the benchmark's own exact TSP oracle.

It checks branch and bound's optima without sharing any code with tsplab.
O(2^n * n^2) work, vectorised over subsets of equal size; fine up to n ~ 16.
"""

from __future__ import annotations

import numpy as np


def held_karp(d) -> float:
    """Optimal closed-tour cost for the symmetric or asymmetric matrix d."""
    dist = np.asarray(d, dtype=float)
    n = len(dist)
    if n < 2:
        raise ValueError("need at least two cities")
    if n == 2:
        return float(dist[0, 1] + dist[1, 0])
    m = n - 1  # city 0 is the fixed start; subsets range over cities 1..n-1
    inner = dist[1:, 1:]
    dp = np.full((1 << m, m), np.inf)
    for j in range(m):
        dp[1 << j, j] = dist[0, j + 1]
    masks = np.arange(1 << m)
    popcount = np.zeros(1 << m, dtype=np.int64)
    for j in range(m):
        popcount += (masks >> j) & 1
    for size in range(2, m + 1):
        layer = masks[popcount == size]
        for j in range(m):
            sel = layer[(layer >> j) & 1 == 1]
            prev = sel ^ (1 << j)
            # dp[prev, k] is inf for every k outside prev, so the min over all
            # k equals the min over the cities actually in the subset.
            dp[sel, j] = (dp[prev] + inner[:, j]).min(axis=1)
    full = (1 << m) - 1
    return float((dp[full] + dist[1:, 0]).min())
