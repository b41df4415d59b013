"""Independent reference implementations used only by the tests.

Everything here is written from first principles (exhaustive enumeration,
textbook dynamic programming, direct formula transcription) so that agreement
with the package is meaningful evidence, not self-confirmation.
"""

import itertools
import math
import random

import numpy as np


def tour_cost(order, d):
    total = 0.0
    for i in range(len(order) - 1):
        total += d[order[i]][order[i + 1]]
    return total + d[order[-1]][order[0]]


def brute_force_optimum(d):
    """Exhaustive closed-tour minimum, city 0 fixed as the anchor.

    Pure python below 9 cities, vectorized enumeration up to 10.
    """
    n = len(d)
    if n == 2:
        return 2.0 * float(d[0][1])
    if n <= 8:
        best = math.inf
        for perm in itertools.permutations(range(1, n)):
            cost = d[0][perm[0]] + d[perm[-1]][0]
            for i in range(len(perm) - 1):
                cost += d[perm[i]][perm[i + 1]]
            if cost < best:
                best = cost
        return best
    if n > 10:
        raise ValueError("permutation enumeration capped at n=10")
    dm = np.asarray(d, dtype=float)
    perms = np.array(list(itertools.permutations(range(1, n))), dtype=np.int8)
    cost = dm[0, perms[:, 0]] + dm[perms[:, -1], 0]
    for col in range(perms.shape[1] - 1):
        cost += dm[perms[:, col], perms[:, col + 1]]
    return float(cost.min())


def held_karp_optimum(d):
    """Exact optimum by subset dynamic programming, n <= 16."""
    n = len(d)
    if n == 2:
        return 2.0 * float(d[0][1])
    full = 1 << (n - 1)
    inf = math.inf
    dp = [[inf] * n for _ in range(full)]
    for j in range(1, n):
        dp[1 << (j - 1)][j] = d[0][j]
    for mask in range(full):
        row = dp[mask]
        for j in range(1, n):
            cur = row[j]
            if cur == inf or not (mask >> (j - 1)) & 1:
                continue
            for k in range(1, n):
                if (mask >> (k - 1)) & 1:
                    continue
                nm = mask | (1 << (k - 1))
                v = cur + d[j][k]
                if v < dp[nm][k]:
                    dp[nm][k] = v
    return min(dp[full - 1][j] + d[j][0] for j in range(1, n))


def _prufer_tree_weight(seq, n, d):
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    total = 0.0
    seq = list(seq)
    leaves = [i for i in range(n) if degree[i] == 1]
    import heapq

    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        total += d[leaf][v]
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    w = heapq.heappop(leaves)
    return total + d[u][w]


def minimum_spanning_tree_weight(d):
    """Exhaustive minimum over all spanning trees via Prufer sequences, n <= 8."""
    n = len(d)
    if n == 2:
        return float(d[0][1])
    if n > 8:
        raise ValueError("spanning-tree enumeration capped at n=8")
    best = math.inf
    for seq in itertools.product(range(n), repeat=n - 2):
        w = _prufer_tree_weight(seq, n, d)
        if w < best:
            best = w
    return best


def has_improving_two_opt(order, d, eps=1e-9):
    """True when some segment reversal strictly improves the closed tour."""
    n = len(order)
    for i in range(n - 1):
        for j in range(i + 1, n):
            if i == 0 and j == n - 1:
                continue
            a, b = order[i - 1], order[i]
            c, e = order[j], order[(j + 1) % n]
            delta = d[a][c] + d[b][e] - d[a][b] - d[c][e]
            if delta < -eps:
                return True
    return False


def reference_cheapest_insertion(tour, pending, d, criterion="detour"):
    """The sequential pure-Python scans convex-hull construction and ALNS repair
    ran before insertion was vectorised: keep a new best only when its score
    is more than 1e-12 below the current one. A one-city tour appends after
    its city at score 2 * d[t][k], as ALNS repair did.

    tours.cheapest_insertion takes instead the first (city, position) whose
    score is within 1e-12 of the step's minimum. The two agree unless
    distinct scores chain within 1e-12: with scores 2e-12, 1e-12 and 0 in
    scan order, this scan keeps 2e-12 against 1e-12 and ends on 0, where
    cheapest_insertion takes 1e-12. A 7-city matrix of 0 and 1e-12 entries
    pins one such case in tests/test_tours.py."""
    tour = list(tour)
    pending = list(pending)
    while pending:
        best = None  # (score, city, position)
        m = len(tour)
        for k in pending:
            if m == 1:
                score = 2.0 * d[tour[0]][k]
                if best is None or score < best[0] - 1e-12:
                    best = (score, k, 1)
                continue
            for pos in range(m):
                i, j = tour[pos - 1], tour[pos]
                if criterion == "ratio":
                    score = (d[i][k] + d[k][j]) / max(d[i][j], 1e-12)
                else:
                    score = d[i][k] + d[k][j] - d[i][j]
                if best is None or score < best[0] - 1e-12:
                    best = (score, k, pos)
        _, k, pos = best
        tour.insert(pos, k)
        pending.remove(k)
    return tour


def reference_greedy_pick(row, unvisited):
    """RL's greedy pick before it read the Q row through map/max/index: the
    highest value, the lowest city index on ties."""
    return max(unvisited, key=lambda c: (row[c], -c))


def reference_boltzmann_pick(probs, unvisited, r):
    """RL's Boltzmann pick before it bisected the accumulated probabilities:
    walk the running sum and take the first city whose sum exceeds r."""
    acc = 0.0
    for city, prob in zip(unvisited, probs):
        acc += prob
        if r < acc:
            return city
    return unvisited[-1]


def reference_aco_tour(dist, tau, alpha, beta, rng, tiny=1e-12):
    """One Ant System tour as ACO built it before it read a per-iteration
    weight buffer: at every step, the weights of the unvisited cities are
    tau^alpha * (1/d)^beta, with a lowest-index fallback when their total is
    not finite and positive."""
    dist = np.asarray(dist, dtype=float)
    n = len(dist)
    eta = 1.0 / np.maximum(dist, tiny)
    np.fill_diagonal(eta, 0.0)
    start = rng.randrange(n)
    unvisited = list(range(n))
    unvisited.remove(start)
    tour = [start]
    current = start
    while unvisited:
        idx = np.array(unvisited)
        with np.errstate(over="ignore", invalid="ignore"):
            weights = tau[current, idx] ** alpha * eta[current, idx] ** beta
        total = float(weights.sum())
        if not np.isfinite(total) or total <= 0.0:
            nxt = unvisited[0]
        else:
            r = rng.random() * total
            cum = np.cumsum(weights)
            nxt = unvisited[int(np.searchsorted(cum, r, side="right").clip(0, len(unvisited) - 1))]
        tour.append(nxt)
        unvisited.remove(nxt)
        current = nxt
    return tour


def reference_order_crossover(p1, p2, rng):
    """GA's order crossover before it filled the child with slices: keep
    p1[a..b] and walk p2 cyclically from b+1, index by index."""
    n = len(p1)
    a, b = rng.randrange(n), rng.randrange(n)
    if a > b:
        a, b = b, a
    child = [-1] * n
    child[a : b + 1] = p1[a : b + 1]
    used = set(child[a : b + 1])
    pos = (b + 1) % n
    for idx in range(n):
        city = p2[(b + 1 + idx) % n]
        if city not in used:
            child[pos] = city
            pos = (pos + 1) % n
    return child


def reference_ga_baseline(d, population_size, mutation_rate, elite_count, cap, seed):
    """GA baseline as solve_ga ran it before it built each generation as
    arrays: one child at a time, drawn, crossed, mutated, costed and offered
    in turn, stopping once cap evaluations are counted (the whole initial
    population is always costed). Each cost sums tour_length's way: from
    0.0, the closing edge first. Returns (best, best_cost, evaluations, the
    trajectory's costs)."""
    rows = np.asarray(d, dtype=float).tolist()
    n = len(rows)
    rng = random.Random(seed)
    best, best_cost, trajectory = None, math.inf, []
    evaluations = 0

    def evaluate(tour):
        nonlocal best, best_cost, evaluations
        total, prev = 0.0, tour[-1]
        for city in tour:
            total += rows[prev][city]
            prev = city
        evaluations += 1
        if total < best_cost:
            best, best_cost = list(tour), total
            trajectory.append(total)
        return total

    pop = []
    for _ in range(population_size):
        perm = list(range(n))
        rng.shuffle(perm)
        pop.append(perm)
    costs = [evaluate(tour) for tour in pop]
    elite = min(elite_count, population_size - 1)
    everyone = range(population_size)
    while evaluations < cap:
        ranked = sorted(everyone, key=lambda i: (costs[i], i))[:elite]
        new_pop, new_costs = [list(pop[i]) for i in ranked], [costs[i] for i in ranked]
        cum_weights = list(itertools.accumulate(1.0 / (c + 1e-12) for c in costs))
        while len(new_pop) < population_size:
            i1 = rng.choices(everyone, cum_weights=cum_weights)[0]
            i2 = rng.choices(everyone, cum_weights=cum_weights)[0]
            child = reference_order_crossover(pop[i1], pop[i2], rng)
            if rng.random() < mutation_rate:
                a, b = rng.randrange(n), rng.randrange(n)
                child[a], child[b] = child[b], child[a]
            new_pop.append(child)
            new_costs.append(evaluate(child))
            if evaluations >= cap:
                return best, best_cost, evaluations, trajectory
        pop, costs = new_pop, new_costs
    return best, best_cost, evaluations, trajectory


def reference_best_cost_insertion(p1, p2, d, rng):
    """GA's best-cost insertion crossover before it scored positions in numpy:
    every position of the child scanned in Python, keeping the first delta
    below the best so far by more than 1e-12."""
    n = len(p1)
    max_len = max(1, n // 4)
    length = min(1 + rng.randrange(max_len), n - 2) if n > 3 else 1
    start = rng.randrange(n)
    segment = [p2[(start + k) % n] for k in range(length)]
    child = [c for c in p1 if c not in set(segment)]
    for city in segment:
        best_pos, best_delta = 0, float("inf")
        for pos in range(len(child)):
            a, b = child[pos - 1], child[pos]
            delta = d[a][city] + d[city][b] - d[a][b]
            if delta < best_delta - 1e-12:
                best_pos, best_delta = pos, delta
        child.insert(best_pos, city)
    return child


def reference_edge_recombination(p1, p2):
    """GA's edge recombination before it stopped pruning: after each step the
    visited city is discarded from every adjacency set."""
    n = len(p1)
    adj = {c: set() for c in p1}
    for parent in (p1, p2):
        for i, city in enumerate(parent):
            adj[city].add(parent[i - 1])
            adj[city].add(parent[(i + 1) % n])
    current = p1[0]
    tour = [current]
    remaining = set(p1)
    remaining.discard(current)
    while remaining:
        for neighbors in adj.values():
            neighbors.discard(current)
        candidates = adj[current] & remaining
        if candidates:
            current = min(candidates, key=lambda c: (len(adj[c] & remaining), c))
        else:
            current = min(remaining)
        tour.append(current)
        remaining.discard(current)
    return tour


def reference_greedy_matching(vertices, d):
    """Greedy matching before it sorted in numpy: every pair as a
    (weight, u, v) tuple, sorted, scanned to the end."""
    pairs = sorted(
        ((float(d[u][v]), u, v) for i, u in enumerate(vertices) for v in vertices[i + 1 :]),
    )
    matched = set()
    matching = []
    for _, u, v in pairs:
        if u not in matched and v not in matched:
            matching.append((u, v))
            matched.add(u)
            matched.add(v)
    return matching


def reference_geo_distance(a, b):
    """Direct transcription of the TSPLIB geographical distance rules."""
    PI = 3.141592

    def to_radians(x):
        deg = int(x + 0.5) if x >= 0 else -int(-x + 0.5)
        minutes = x - deg
        return PI * (deg + 5.0 * minutes / 3.0) / 180.0

    RRR = 6378.388
    lat1, lon1 = to_radians(a[0]), to_radians(a[1])
    lat2, lon2 = to_radians(b[0]), to_radians(b[1])
    q1 = math.cos(lon1 - lon2)
    q2 = math.cos(lat1 - lat2)
    q3 = math.cos(lat1 + lat2)
    return int(RRR * math.acos(0.5 * ((1.0 + q1) * q2 - (1.0 - q1) * q3)) + 1.0)


def reference_distance_matrix(pts, kind, rounding="none"):
    """Whole-matrix EUC_2D and GEO formulas, one n x n temporary per step.

    This is how `build_distance_matrix` computed a coordinate matrix before
    it worked in row blocks; the blocked build must give the same bits."""
    pts = np.asarray(pts, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        if kind == "EUC_2D":
            diff = pts[:, None, :] - pts[None, :, :]
            d = np.hypot(diff[..., 0], diff[..., 1])
            if rounding == "tsplib_nint":
                d = np.floor(d + 0.5)
        else:  # GEO
            deg = np.floor(pts + 0.5)
            minutes = pts - deg
            rad = 3.141592 * (deg + 5.0 * minutes / 3.0) / 180.0
            lat, lon = rad[:, 0], rad[:, 1]
            q1 = np.cos(lon[:, None] - lon[None, :])
            q2 = np.cos(lat[:, None] - lat[None, :])
            q3 = np.cos(lat[:, None] + lat[None, :])
            arg = np.clip(0.5 * ((1.0 + q1) * q2 - (1.0 - q1) * q3), -1.0, 1.0)
            d = np.floor(6378.388 * np.arccos(arg) + 1.0)
            np.fill_diagonal(d, 0.0)
    return d


# Frozen by exhaustive 11-permutation enumeration (39,916,800 tours), and
# confirmed by an independent subset-DP run; both returned this exact float.
RND12_S3_OPTIMUM = 350.00577989418167


def reference_roulette(weights, rng):
    """The hand-rolled adaptive roulette: one draw scaled by the plain sum,
    then the first index whose running total exceeds it."""
    total = sum(weights)
    if total <= 0.0:
        return 0
    r = rng.random() * total
    acc = 0.0
    for k, w in enumerate(weights):
        acc += w
        if r < acc:
            return k
    return len(weights) - 1


def reference_most_shared_cost(costs):
    """(cost, count) of the most repeated cost; the first seen wins ties."""
    counts = {}
    for c in costs:
        counts[c] = counts.get(c, 0) + 1
    return max(counts.items(), key=lambda kv: kv[1])


def reference_rl_train(d, learning_rate, discount, epsilon, episodes, max_evaluations, seed,
                       on_policy, boltzmann):
    """Tabular Q-learning (on_policy=False) or SARSA as RL trained before its
    Q table became one array: a list-of-lists Q table, the open cities as an
    ascending list, the greedy pick as the first maximum over that list, the
    Boltzmann pick as the first running sum of the probabilities above one
    draw. Stops on the evaluation cap only; returns (best, best_cost,
    evaluations, trajectory costs)."""
    import random

    d = np.asarray(d, dtype=float)
    dist = d.tolist()
    n = len(dist)
    scale = max(float(d.max()), 1e-12)
    rng = random.Random(seed)
    q = [[0.0] * n for _ in range(n)]
    record = {"best": None, "best_cost": float("inf"), "evaluations": 0, "costs": []}

    def evaluate(tour):
        cost, prev = 0.0, tour[-1]
        for city in tour:  # summed in tours.tour_length's order
            cost += dist[prev][city]
            prev = city
        record["evaluations"] += 1
        if cost < record["best_cost"]:
            record.update(best=list(tour), best_cost=cost)
            record["costs"].append(cost)

    def select(row, unvisited, temperature):
        if temperature is not None:
            scaled = np.asarray([row[c] for c in unvisited]) / temperature
            exp = np.exp(scaled - scaled.max())
            probs = (exp / exp.sum()).tolist()
            return reference_boltzmann_pick(probs, unvisited, rng.random()), False
        if rng.random() < epsilon:
            return unvisited[rng.randrange(len(unvisited))], False
        return reference_greedy_pick(row, unvisited), True

    def update(value, reward, bootstrap):
        return value + learning_rate * (reward + discount * bootstrap - value)

    for episode in range(episodes):
        temperature = None  # annealed linearly from 1.0 to 0.1 across the episodes
        if boltzmann:
            temperature = 1.0 if episodes <= 1 else 1.0 + (0.1 - 1.0) * (episode / (episodes - 1))
        start = rng.randrange(n)
        unvisited = [c for c in range(n) if c != start]
        tour, s = [start], start
        a = select(q[s], unvisited, temperature)[0] if unvisited else None
        while unvisited:
            unvisited.remove(a)
            tour.append(a)
            r = -(dist[s][a] / scale)
            if not unvisited:
                q[s][a] = update(q[s][a], r - dist[a][start] / scale, 0.0)
                break
            a_next, greedy = select(q[a], unvisited, temperature)
            if on_policy or greedy:
                bootstrap = q[a][a_next]
            else:
                bootstrap = max(q[a][c] for c in unvisited)
            q[s][a] = update(q[s][a], r, bootstrap)
            s, a = a, a_next
        evaluate(tour)
        if record["evaluations"] >= max_evaluations:
            break

    if record["evaluations"] < max_evaluations:
        tour, unvisited = [0], list(range(1, n))
        while unvisited:
            tour.append(reference_greedy_pick(q[tour[-1]], unvisited))
            unvisited.remove(tour[-1])
        evaluate(tour)
    return record["best"], record["best_cost"], record["evaluations"], record["costs"]


def reference_bound_cache(d):
    """Per-city smallest and second-smallest off-diagonal weights, by sorting
    each row in Python (the smallest twice when a row has one entry)."""
    n = len(d)
    min1, min2 = [], []
    for i in range(n):
        row = sorted(float(d[i][j]) for j in range(n) if j != i)
        min1.append(row[0])
        min2.append(row[1] if len(row) > 1 else row[0])
    return min1, min2
