"""Tour evaluation, validation, nearest-neighbor construction, cheapest
insertion, and 2-opt.

Tours are stored open (lists of city indices); the closing edge back to the
first city is implicit in every cost computation. Tie-breaking is always by
lowest index so seeded runs reproduce exactly.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch

# Tie window of every scan that keeps the first of near-equal scores.
TIE_EPS = 1e-12


@dataclass(frozen=True)
class TourCheck:
    """Validation verdict: ok, or the first violation found."""

    ok: bool
    problem: str | None = None  # wrong length | duplicate index | out-of-range index
    detail: int | None = None  # offending value (or actual length)


def validate_tour(order, n: int) -> TourCheck:
    """Valid iff order is a permutation of 0..n-1; names the first violation."""
    if len(order) != n:
        return TourCheck(False, "wrong length", len(order))
    seen = [False] * n
    for v in order:
        if not isinstance(v, (int, np.integer)) or v < 0 or v >= n:
            detail = int(v) if isinstance(v, (int, np.integer)) else None
            return TourCheck(False, "out-of-range index", detail)
        if seen[v]:
            return TourCheck(False, "duplicate index", int(v))
        seen[v] = True
    return TourCheck(True)


def tour_length(order, d) -> float:
    """Sum of consecutive legs plus the closing edge."""
    n = len(d)
    if len(order) != n:
        raise DimensionMismatch(f"tour length {len(order)} vs matrix dimension {n}")
    total = 0.0
    prev = order[-1]
    for city in order:
        total += d[prev][city]
        prev = city
    return float(total)


def costs_agree(a: float, b: float) -> bool:
    """Whether b is a's cost up to summation order: within 1e-9 relative to a,
    or 1e-9 absolute below 1. One cycle summed from another start or in the
    other direction can differ in the last bits."""
    return abs(a - b) <= 1e-9 * max(1.0, abs(a))


def nearest_neighbor_tour(d, start: int = 0) -> list[int]:
    """Greedy construction from `start`; ties go to the lowest index."""
    return nearest_neighbor_tours(d, [start])[0]


def nearest_neighbor_tours(d, starts) -> list[list[int]]:
    """nearest_neighbor_tour(d, s) for each s in starts, all built together:
    each step gathers every tour's current row, masks its visited cities
    with inf and takes the row's argmin (the lowest index on ties)."""
    dist = np.asarray(d, dtype=float)
    n, starts = len(dist), list(starts)
    for start in starts:
        if not 0 <= start < n:
            raise ValueError(f"start {start} outside [0, {n})")
    current = np.array(starts, dtype=np.intp)
    visited = np.zeros((len(current), n), dtype=bool)
    marks, offsets = visited.reshape(-1), np.arange(len(current)) * n
    steps = []
    for step in range(n):
        if step:
            rows = dist.take(current, axis=0)
            # Assign inf, never add a penalty: NaN + inf is NaN, which argmin
            # would pick even at a visited city.
            np.putmask(rows, visited, np.inf)
            current = rows.argmin(axis=1)
        steps.append(current)
        marks[offsets + current] = True
    return np.array(steps).T.tolist()


def randbelow(getrandbits, n: int) -> int:
    """A uniform int in [0, n), drawn as random.Random.randrange(n) draws it.

    This is CPython's Random._randbelow_with_getrandbits (3.10 to 3.13): draw
    n.bit_length() bits, reject draws >= n. Pass the generator's bound
    getrandbits method; randbelow(rng.getrandbits, n) consumes the same bits
    and returns the same value as rng.randrange(n), without randrange's
    argument handling.
    """
    if n < 1:
        raise ValueError(f"empty range: randbelow needs n >= 1, got {n}")
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def shuffle(order, getrandbits) -> None:
    """Shuffle the list order in place as random.Random.shuffle does: for i
    from len(order) - 1 down to 1, swap order[i] with order[j], j =
    randbelow(getrandbits, i + 1). The draws and swaps are Random.shuffle's
    (3.10 to 3.13), with randbelow inline."""
    for i in range(len(order) - 1, 0, -1):
        span = i + 1
        k = span.bit_length()
        j = getrandbits(k)
        while j >= span:
            j = getrandbits(k)
        order[i], order[j] = order[j], order[i]


def roulette(cum, rng, total: float | None = None) -> int:
    """The first k with rng.random() * total < cum[k] (cum: running sums of
    weights), clamped to the last index. total=None means cum[-1], which draws
    as rng.choices(cum_weights=cum); a total outside (0, inf) gives 0, no draw."""
    total = cum[-1] if total is None else total
    if not 0.0 < total < np.inf:
        return 0
    return bisect_right(cum, rng.random() * total, 0, len(cum) - 1)


def reversal_delta(order, d, i: int, j: int) -> float:
    """Cost change of reversing positions i..j (0 <= i < j <= n-1)."""
    n = len(order)
    a, b = order[i - 1], order[i]
    c, e = order[j], order[(j + 1) % n]
    return d[a][c] + d[b][e] - d[a][b] - d[c][e]


def cheapest_insertion(tour, pending, d, criterion: str = "detour") -> list[int]:
    """Insert the pending cities one at a time, each step at the cheapest spot.

    A step scores every (city k, position p) pair, where p names the tour
    edge (i, j) = (tour[p-1], tour[p]): "detour" scores d[i][k] + d[k][j] -
    d[i][j], "ratio" scores (d[i][k] + d[k][j]) / max(d[i][j], 1e-12). It
    inserts k before tour[p] for the first pair in scan order (pending order,
    then position) whose score is within 1e-12 of the step's minimum. A
    one-city tour [t] has no edge: each k scores 2 * d[t][k] and goes after t.

    The scores are kept across steps, not rebuilt: a buffer holds one row
    ("slot") per tour edge and one column per pending city, and each slot's
    minimum. Inserting k into edge (a, b) turns k's column NaN, rescores
    slot (a, b) as (a, k) and a new slot as (k, b): a step computes two rows,
    each entry with the same float operations as a full rescan, and rescans
    only the slots whose minimum was k's. The winner is the first pending
    city scoring within 1e-12 of the least slot minimum; slots are not in
    tour order, so its ties go to the lowest tour position. The tours are
    those of a full rescan each step, for asymmetric d too. NaN scores never
    win; if every score is NaN, the first pending city goes before tour[0].
    """
    if criterion not in ("ratio", "detour"):
        raise ValueError(f"unknown insertion criterion: {criterion!r}")
    dist = np.asarray(d, dtype=float)
    tour, pending = list(tour), list(pending)
    if len(tour) == 1 and pending:
        twice = 2.0 * dist[tour[0], pending]
        tour.append(pending.pop(int(np.argmax(twice <= twice.min() + TIE_EPS))))
    if not pending:
        return tour
    # scores[s, j]: the score of pending[j] in slot s, whose edge is
    # (starts[s], ends[s]); least[s]: the slot's minimum. into[c, j] is
    # d[pending[j]][c], so a slot is scored from two contiguous rows. An
    # inserted city's column turns NaN, and fmin skips NaN.
    cities, m = np.array(pending), len(tour)
    into = np.ascontiguousarray(dist.take(cities, axis=0).T)
    scores = np.empty((m + len(cities), len(cities)))
    least = np.empty(len(scores))
    starts, ends = tour[-1:] + tour[:-1], list(tour)
    ratio = criterion == "ratio"

    def score(from_i, to_j, edge, out):  # (d[i][k] + d[k][j]) then - or / d[i][j]
        np.add(from_i.take(cities, axis=-1), to_j, out=out)
        if ratio:
            np.divide(out, np.maximum(edge, TIE_EPS), out=out)
        else:
            np.subtract(out, edge, out=out)
        return np.fmin.reduce(out, axis=-1)

    first, last = np.array(starts), np.array(ends)
    least[:m] = score(dist[first], into[last], dist[first, last][:, None], scores[:m])
    left = list(range(len(cities)))  # columns still pending, in pending order
    while True:
        count = len(ends)
        mins = least[:count]
        limit = np.fmin.reduce(mins) + TIE_EPS  # <= keeps the minimum even where this rounds to it
        cand = (mins <= limit).nonzero()[0]
        if len(cand) == 1:
            s = int(cand[0])
            j = int((scores[s] <= limit).argmax())
        elif len(cand):
            hits = scores[cand] <= limit
            j = int(hits.any(axis=0).argmax())
            s = min(cand[hits[:, j]].tolist(), key=lambda c: tour.index(ends[c]))
        else:  # every score is NaN
            j, s = left[0], ends.index(tour[0])
        k, a, b = pending[j], starts[s], ends[s]
        tour.insert(tour.index(b), k)
        left.remove(j)
        if not left:
            return tour
        column = scores[:count, j]
        stale = (column == mins).nonzero()[0]
        column[:] = np.nan
        into[:, j] = np.nan
        ends[s] = k
        starts.append(k)
        ends.append(b)
        least[s] = score(dist[a], into[k], dist[a, k], scores[s])
        least[count] = score(dist[k], into[b], dist[k, b], scores[count])
        if len(stale):
            least[stale] = np.fmin.reduce(scores[stale], axis=1)


def two_opt(order, d) -> list[int]:
    """First-improvement 2-opt local search: sweeps, applying each reversal
    that lowers the cost by more than TIE_EPS, until none does. Never
    increases cost; tours of fewer than 4 cities come back unchanged.

    d is indexed as given, d[a][b], in the inner loop: a list of lists (such
    as ndarray.tolist()) runs about 3x faster than an ndarray, whose every
    read builds a numpy scalar, and per-row memoryviews (the rows solvers
    get from SolverSpec.start at ROW_VIEW_MIN cities and up) about 2x.
    """
    n = len(order)
    tour = list(order)
    improved = n >= 4
    while improved:
        improved = False
        for i in range(n - 1):
            for j in range(i + 1, n):
                if i == 0 and j == n - 1:
                    continue  # reversing the whole tour is a no-op
                if reversal_delta(tour, d, i, j) < -TIE_EPS:
                    tour[i : j + 1] = tour[i : j + 1][::-1]
                    improved = True
    return tour
