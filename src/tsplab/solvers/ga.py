"""Genetic algorithm for the TSP, baseline and hybrid variant.

baseline: random initial population, fitness-proportional selection, order
crossover (OX), single swap mutation at rate mutation_rate, top-elite
elitism, generational replacement. No child of a generation reads another's
cost, so each generation is built in three phases on a population x n intp
array: (1) every child's draws, in the order a one-child-at-a-time loop
makes them (two roulette parents on the previous generation's costs, OX's
two cut points, the mutation test and, if it passes, the two swap
positions); (2) every OX child at once; (3) the mutation swaps. Then
RunTracker.evaluate_rows costs the children with tour_length's float
operations and counts and offers them in order, so seeded runs are
bit-identical to that loop.

hybrid_r1 layers on: nearest-neighbor seeding of max(1, N//5) individuals
(only when N >= 5, all built in one tours.nearest_neighbor_tours call),
tournament selection of size 2 on rank (lower cost wins), adaptive
crossover choice among {OX, ER, BCR} scored 3/1/0, a stochastic 2-opt pass
over every offspring (_two_opt_pass, n sampled reversals, not
tours.two_opt's full search), and duplicate-cost diversity replacement.

BCR (best-cost insertion crossover) works in buffers made once per run: the
transposed matrix, and length-n arrays for the child, each position's
predecessor and each position's edge cost. It scores all insertion positions
of a city as one numpy row, with the float operations of a Python scan, and
inserts where that scan would: at the first delta below the best so far by
more than TIE_EPS. Where another delta lies near the minimum, the scan is
replayed exactly on the row.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from ..tours import TIE_EPS, nearest_neighbor_tours, randbelow, roulette, shuffle
from .base import TINY, SolveBudget, SolveResult, SolverSpec, operator_score, update_weights

# Reaction factor for the adaptive crossover weights (same 3/1/0 scoring as ALNS).
_OPERATOR_REACTION = 0.2


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
    tracker, matrix, dist = SPEC.start(d, b, variant)
    rng = random.Random(seed)
    # A full-elite population would never produce offspring; keep one slot open.
    elite = min(p.elite_count, p.population_size - 1)
    if variant == "hybrid_r1":
        _evolve_hybrid(matrix, dist, p, elite, rng, tracker)
    else:
        pop, costs = _initial_population(matrix, dist, len(dist), p, rng, False, tracker)
        # The baseline works on arrays from here: free the float rows and the lists.
        del dist
        pop = np.array(pop, dtype=np.intp)
        _evolve_baseline(pop, costs, matrix, p, elite, rng, tracker)
    return tracker.result()


def _evolve_baseline(pop, costs, matrix, p, elite, rng, tracker):
    # The three phases of the module docstring. A generation makes only the
    # children the evaluation cap leaves room for.
    size, n = p.population_size, len(matrix)
    getrandbits, random_, rate = rng.getrandbits, rng.random, p.mutation_rate
    cap = tracker.budget.max_evaluations
    new_pop = np.empty_like(pop)
    buffers = _crossover_buffers(size, n)
    while not tracker.out_of_budget():
        ranked = sorted(range(size), key=lambda i: (costs[i], i))[:elite]
        new_pop[:elite] = pop[ranked]
        new_costs = [costs[i] for i in ranked]
        cum_weights = list(accumulate(1.0 / (c + TINY) for c in costs))
        count = size - elite if cap is None else min(size - elite, cap - tracker.evaluations)
        cuts, swaps = [], []
        for k in range(count):
            i1, i2 = roulette(cum_weights, rng), roulette(cum_weights, rng)
            a, b = randbelow(getrandbits, n), randbelow(getrandbits, n)
            cuts.append((i1, i2, a, b) if a <= b else (i1, i2, b, a))
            if random_() < rate:
                swaps.append((k, randbelow(getrandbits, n), randbelow(getrandbits, n)))
        children = new_pop[elite : elite + count]
        _order_crossover_rows(pop, *np.array(cuts, dtype=np.intp).T, children, buffers)
        if swaps:
            k, a, b = np.array(swaps, dtype=np.intp).T
            children[k, a], children[k, b] = children[k, b], children[k, a]
        new_costs += tracker.evaluate_rows(children, matrix)
        if tracker.out_of_budget():
            return
        pop, new_pop, costs = new_pop, pop, new_costs


def _evolve_hybrid(matrix, dist, p, elite, rng, tracker):
    n = len(dist)
    pop, costs = _initial_population(matrix, dist, n, p, rng, True, tracker)
    getrandbits = rng.getrandbits  # randbelow(getrandbits, k) draws as rng.randrange(k)
    buffers = _insertion_buffers(matrix)
    op_weights = [1.0, 1.0, 1.0]  # OX, ER, BCR
    while not tracker.out_of_budget():
        ranked = sorted(range(p.population_size), key=lambda i: (costs[i], i))
        new_pop = [list(pop[i]) for i in ranked[:elite]]
        new_costs = [costs[i] for i in ranked[:elite]]
        while len(new_pop) < p.population_size:
            i1, i2 = _tournament(costs, getrandbits), _tournament(costs, getrandbits)
            op = roulette(list(accumulate(op_weights)), rng)
            parent1, parent2 = pop[i1], pop[i2]
            if op == 0:
                child = _order_crossover(parent1, parent2, getrandbits)
            elif op == 1:
                child = _edge_recombination(parent1, parent2)
            else:
                child = _best_cost_insertion_crossover(parent1, parent2, matrix, buffers,
                                                       getrandbits)
            if rng.random() < p.mutation_rate:
                a, bpos = randbelow(getrandbits, n), randbelow(getrandbits, n)
                child[a], child[bpos] = child[bpos], child[a]
            _two_opt_pass(child, dist, getrandbits)
            child_cost, was_best = tracker.evaluate(child, dist)
            score = operator_score(was_best, child_cost < min(costs[i1], costs[i2]))
            op_weights = update_weights(op_weights, op, score, _OPERATOR_REACTION)
            new_pop.append(child)
            new_costs.append(child_cost)
            if tracker.out_of_budget():
                return
        pop, costs = new_pop, new_costs
        _refresh_duplicates(pop, costs, dist, n, p, rng, tracker)


SPEC = SolverSpec(
    "ga", "stochastic", ("baseline", "hybrid_r1"),
    run=lambda inst, d, p, variant, b, seed: solve_ga(d, p, b, seed, variant=variant),
    params=GaParams,
    tuning={
        "population_size": ((5, 100), (97, 14, 97, 84, 55, 58)),
        "mutation_rate": ((0.01, 0.2), (0.02, 0.04, 0.16, 0.16, 0.01, 0.13)),
        "elite_count": ((1, 5), (4, 2, 5, 2, 3, 5)),
    },
)


def _initial_population(matrix, dist, n, p, rng, hybrid, tracker):
    pop: list[list[int]] = []
    if hybrid:
        k = nn_seed_count(p.population_size)
        starts = rng.sample(range(n), min(k, n))
        starts += [rng.randrange(n) for _ in range(k - len(starts))]
        pop.extend(nearest_neighbor_tours(matrix, starts))
    while len(pop) < p.population_size:
        perm = list(range(n))
        shuffle(perm, rng.getrandbits)
        pop.append(perm)
    costs = [tracker.evaluate(tour, dist)[0] for tour in pop]
    return pop, costs


def _tournament(costs, getrandbits) -> int:
    # Size-2 tournament on rank: the cheaper individual wins, index breaks ties.
    i, j = randbelow(getrandbits, len(costs)), randbelow(getrandbits, len(costs))
    return min(i, j, key=lambda k: (costs[k], k))


def _order_crossover(p1, p2, getrandbits) -> list[int]:
    # Keep p1[a..b]; fill positions b+1, ..., n-1, 0, ..., a-1 in turn with
    # the other cities in their order in p2, read cyclically from b+1.
    n = len(p1)
    a, b = randbelow(getrandbits, n), randbelow(getrandbits, n)
    if a > b:
        a, b = b, a
    used = set(p1[a : b + 1])
    fill = [c for c in p2[b + 1 :] + p2[: b + 1] if c not in used]
    tail = n - 1 - b
    return fill[tail:] + p1[a : b + 1] + fill[:tail]


def _crossover_buffers(size, n):
    """Baseline OX's per-run state: positions 0..2n-1 mod n (intp), then
    size x n rows, one per child: each walk step's child position, a flat
    index, and the first and second parent read along the walk (intp); the
    steps before the segment, each child's cities outside its segment, and
    the second parent's such cities (bool)."""
    return (np.arange(2 * n) % n, *(np.empty((size, n), dtype=np.intp) for _ in range(4)),
            *(np.empty((size, n), dtype=bool) for _ in range(3)))


def _order_crossover_rows(pop, first, second, lo, hi, out, buffers) -> None:
    # _order_crossover for every child at once, into the rows of out. Child
    # k walks positions hi+1, ..., n-1, 0, ..., hi: step j is position
    # spin[k, j] = (hi[k] + 1 + j) % n. The walk ends on the segment lo..hi,
    # which keeps pop[first[k]]; its first n - (hi - lo + 1) steps take the
    # cities of pop[second[k]] read along the same walk, minus the segment's.
    # Flat takes and stores: every index is in range, and take's mode="clip"
    # skips mode="raise"'s buffered copy.
    count, n = out.shape
    cycle, *rest = buffers
    spin, index, kept, walk, head, outside, fresh = (buf[:count] for buf in rest)
    cols, rows = cycle[:n], np.arange(0, count * n, n)[:, None]
    np.add(hi[:, None] + 1, cols, out=index)
    cycle.take(index, out=spin, mode="clip")
    np.add(spin, first[:, None] * n, out=index)
    pop.take(index, out=kept, mode="clip")
    np.add(spin, second[:, None] * n, out=index)
    pop.take(index, out=walk, mode="clip")
    np.less_equal(cols, (n - 2 - hi + lo)[:, None], out=head)
    np.add(kept, rows, out=index)
    outside.reshape(-1)[index.reshape(-1)] = head.reshape(-1)  # city not in child k's segment
    np.add(walk, rows, out=index)
    outside.take(index, out=fresh, mode="clip")
    kept[head] = walk[fresh]
    np.add(spin, rows, out=index)
    out.reshape(-1)[index.reshape(-1)] = kept.reshape(-1)


def _edge_recombination(p1, p2) -> list[int]:
    # Each step goes to the unvisited neighbour of the current city with the
    # fewest unvisited neighbours of its own, ties to the lower city, or, if
    # there is none, to the lowest unvisited city. Cities are 0..n-1, and
    # key[c] = n * (c's unvisited neighbours) + c, so the least key is the
    # choice: visiting a city takes n off each neighbour's key (adjacency is
    # symmetric). `lowest` only moves up.
    n = len(p1)
    adj: list[set[int]] = [set() for _ in range(n)]
    for parent in (p1, p2):
        prev = parent[-1]
        for city in parent:
            adj[city].add(prev)
            adj[prev].add(city)
            prev = city
    key = [n * len(near) + c for c, near in enumerate(adj)]
    none = 5 * n  # above every key: a city has at most 4 neighbours
    visited = [False] * n
    current, lowest = p1[0], 0
    tour = [current]
    for _ in range(n - 1):
        visited[current] = True
        near = adj[current]
        for c in near:
            key[c] -= n
        best = none
        for c in near:
            if not visited[c] and key[c] < best:
                best = key[c]
        if best == none:
            while visited[lowest]:
                lowest += 1
            current = lowest
        else:
            current = best % n
        tour.append(current)
    return tour


def _insertion_buffers(matrix):
    """BCR's per-run state: the transposed matrix, whose row city holds
    d[a][city] for every a, and the child, each position's predecessor and
    each position's edge cost as length-n buffers that each BCR call fills."""
    n = len(matrix)
    return matrix.T.copy(), np.empty(n, dtype=np.intp), np.empty(n, dtype=np.intp), np.empty(n)


def _best_cost_insertion_crossover(p1, p2, matrix, buffers, getrandbits) -> list[int]:
    # Remove a random subroute of parent2's cities from parent1, then reinsert
    # each removed city at its cheapest position. Position pos is the edge
    # (a, b) = (prev[pos], child[pos]), scored d[a][city] + d[city][b] - d[a][b]
    # as one numpy row. The city goes where a sequential scan from position 0
    # would put it: at the first delta below the best so far by more than
    # TIE_EPS. That is the argmin when no other delta lies within a few
    # TIE_EPS of the minimum; otherwise the scan is replayed on the row.
    n = len(p1)
    max_len = max(1, n // 4)
    length = min(1 + randbelow(getrandbits, max_len), n - 2) if n > 3 else 1
    start = randbelow(getrandbits, n)
    segment = [p2[(start + k) % n] for k in range(length)]
    if n == 1:
        return segment
    removed = set(segment)
    mt, child, prev, edge = buffers
    m = n - length
    child[:m] = [c for c in p1 if c not in removed]
    prev[0] = child[m - 1]
    prev[1:m] = child[: m - 1]
    edge[:m] = matrix[prev[:m], child[:m]]
    eps = TIE_EPS
    for city in segment:
        into, out = mt[city][prev[:m]], matrix[city][child[:m]]
        deltas = into + out
        deltas -= edge[:m]
        pos = int(deltas.argmin())
        low = float(deltas[pos])
        deltas[pos] = np.inf
        if not deltas.min() > low + 4 * eps + abs(low) * 4e-16:
            deltas[pos] = low
            pos, best = 0, np.inf
            for p, delta in enumerate(deltas.tolist()):
                if delta < best - eps:
                    pos, best = p, delta
        # Insert before child[pos]: shift the tail, then write the edges
        # (a, city) and (city, b). prev[pos] stays a.
        child[pos + 1 : m + 1] = child[pos:m]
        prev[pos + 1 : m + 1] = prev[pos:m]
        edge[pos + 1 : m + 1] = edge[pos:m]
        child[pos] = prev[pos + 1] = city
        edge[pos], edge[pos + 1] = into[pos], out[pos]
        m += 1
    return child.tolist()


def _two_opt_pass(tour, dist, getrandbits) -> None:
    # hybrid_r1's stochastic 2-opt, in place: n random reversals (i as
    # randrange(n - 1), then j as randrange(i + 1, n)), each applied if it
    # lowers the cost by more than TIE_EPS. Below 4 cities it draws nothing.
    # The draws are tours.randbelow's, inline: take k bits, reject r >= span;
    # the delta is tours.reversal_delta's, in the same order.
    n = len(tour)
    if n < 4:
        return
    k = (n - 1).bit_length()
    for _ in range(n):
        i = getrandbits(k)
        while i >= n - 1:
            i = getrandbits(k)
        span = n - i - 1
        kj = span.bit_length()
        r = getrandbits(kj)
        while r >= span:
            r = getrandbits(kj)
        j = i + 1 + r
        if i == 0 and j == n - 1:
            continue  # reversing the whole tour is a no-op
        a, b, c = tour[i - 1], tour[i], tour[j]
        e = tour[j + 1] if j < n - 1 else tour[0]
        if dist[a][c] + dist[b][e] - dist[a][b] - dist[c][e] < -TIE_EPS:
            tour[i : j + 1] = tour[i : j + 1][::-1]


def _refresh_duplicates(pop, costs, dist, n, p, rng, tracker):
    worst_cost, count = Counter(costs).most_common(1)[0]
    if count <= p.diversity_threshold * p.population_size:
        return
    tied = [i for i, cost in enumerate(costs) if cost == worst_cost]
    for i in tied[1:]:  # keep the first of the tied
        perm = list(range(n))
        shuffle(perm, rng.getrandbits)
        costs[i], _ = tracker.evaluate(perm, dist)
        pop[i] = perm
