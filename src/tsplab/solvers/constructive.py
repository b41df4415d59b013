"""Deterministic constructive heuristics: Christofides-style and convex hull.

The matching step uses greedy shortest-edge selection rather than an exact
blossom matching, which weakens the classical 1.5 approximation guarantee to
2.0 on metric instances; repeated calls are byte-identical.
"""

from __future__ import annotations

import numpy as np

from ..errors import DegenerateInput, DimensionMismatch, NoCoordinates
from ..instances import Instance
from ..tours import TIE_EPS, cheapest_insertion
from .base import SolveResult, SolverSpec, read_matrix


def minimum_spanning_tree(d) -> list[tuple[int, int, float]]:
    """Prim's algorithm from city 0; ties break to the lowest index.

    Returns (parent, child, weight) edges in the order they were added.
    """
    dist = np.asarray(d, dtype=float)
    n = len(dist)
    in_tree = np.zeros(n, dtype=bool)
    best = dist[0].copy()
    parent = np.zeros(n, dtype=int)
    in_tree[0] = True
    best[0] = np.inf
    edges = []
    for _ in range(n - 1):
        v = int(np.argmin(np.where(in_tree, np.inf, best)))
        edges.append((int(parent[v]), v, float(dist[parent[v]][v])))
        in_tree[v] = True
        closer = ~in_tree & (dist[v] < best)
        parent[closer] = v
        best = np.where(closer, dist[v], best)
        best[v] = np.inf
    return edges


def greedy_matching(vertices: list[int], d) -> list[tuple[int, int]]:
    """Pair up distinct vertices scanning all pairs by ascending weight (then index).

    A pair is (u, v) with u listed before v in `vertices`; pairs are scanned
    in (d[u][v], u, v) order and the scan stops once at most one vertex is
    left unmatched.
    """
    ids = np.asarray(vertices, dtype=int)
    first, second = np.triu_indices(len(ids), k=1)
    us, vs = ids[first], ids[second]
    order = np.lexsort((vs, us, np.asarray(d, dtype=float)[us, vs]))  # weight, then u, then v
    matched: set[int] = set()
    matching = []
    for u, v in zip(us[order].tolist(), vs[order].tolist()):
        if len(matching) == len(ids) // 2:
            break
        if u not in matched and v not in matched:
            matching.append((u, v))
            matched.add(u)
            matched.add(v)
    return matching


def christofides(d) -> list[int]:
    """MST + greedy matching on odd-degree vertices + Euler circuit + shortcut."""
    return _christofides(read_matrix(d))


def _christofides(d: np.ndarray) -> list[int]:
    n = len(d)
    mst = minimum_spanning_tree(d)
    adjacency: dict[int, list[int]] = {v: [] for v in range(n)}
    for u, v, _ in mst:
        adjacency[u].append(v)
        adjacency[v].append(u)
    odd = [v for v in range(n) if len(adjacency[v]) % 2 == 1]
    for u, v in greedy_matching(odd, d):
        adjacency[u].append(v)
        adjacency[v].append(u)
    return list(dict.fromkeys(_euler_circuit(adjacency, start=0)))


def _euler_circuit(adjacency: dict[int, list[int]], start: int) -> list[int]:
    # Hierholzer on a multigraph with all degrees even; neighbors taken in
    # ascending order so the circuit is deterministic.
    adj = {v: sorted(neighbors, reverse=True) for v, neighbors in adjacency.items()}
    stack = [start]
    circuit = []
    while stack:
        v = stack[-1]
        if adj[v]:
            u = adj[v].pop()
            adj[u].remove(v)
            stack.append(u)
        else:
            circuit.append(stack.pop())
    return circuit[::-1]


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(points) -> list[int]:
    """Andrew monotone chain; counter-clockwise from the lowest-(x, y) point.

    Collinear boundary points are excluded. All-collinear input raises
    DegenerateInput carrying the two extreme indices.
    """
    if len(points) < 3:
        raise ValueError(f"need at least 3 points, got {len(points)}")
    order = sorted(range(len(points)), key=lambda i: (points[i][0], points[i][1], i))
    hull = []
    for chain_order in (order, order[::-1]):  # lower chain, then upper chain
        chain: list[int] = []
        for i in chain_order:
            while (len(chain) >= 2
                   and _cross(points[chain[-2]], points[chain[-1]], points[i]) <= TIE_EPS):
                chain.pop()
            chain.append(i)
        hull += chain[:-1]
    if len(hull) < 3:
        raise DegenerateInput(
            "all points collinear", extremes=(order[0], order[-1])
        )
    return hull


def convex_hull_tour(inst: Instance, d) -> list[int]:
    """Hull cycle plus cheapest insertion of the interior points.

    Each step inserts the uninserted city k between the tour edge (i, j) that
    minimizes the ratio (d[i][k] + d[k][j]) / d[i][j].
    Ties: the first pair in scan order (city index, then tour position) within
    1e-12 of the minimum wins. Hull vertices keep their cyclic order.
    """
    return _convex_hull_tour(inst, read_matrix(d))


def _convex_hull_tour(inst: Instance, d: np.ndarray) -> list[int]:
    if inst.coords is None:
        raise NoCoordinates(f"instance {inst.name} has no coordinates")
    n = inst.dimension
    if len(d) != n:
        raise DimensionMismatch(f"matrix has {len(d)} rows for {n} cities")
    if n == 2:
        return [0, 1]
    try:
        tour = convex_hull(inst.coords)
    except DegenerateInput as exc:
        tour = list(exc.extremes)  # degenerate hull: fall back to the two extremes
    return cheapest_insertion(tour, sorted(set(range(n)) - set(tour)), d, "ratio")


def _construction_spec(name: str, construct) -> SolverSpec:
    """The SolverSpec of a deterministic construction: its run starts through
    the spec, which reads and checks the matrix once, then times one
    construction and evaluates its tour."""
    def run(inst, d, params, variant, budget, seed) -> SolveResult:
        tracker, matrix, rows = spec.start(d, budget, variant)
        tracker.evaluate(construct(inst, matrix), rows)
        return tracker.result()
    spec = SolverSpec(name, "deterministic", ("baseline",), run=run)
    return spec


CHRISTOFIDES_SPEC = _construction_spec("christofides", lambda inst, d: _christofides(d))
CONVEX_HULL_SPEC = _construction_spec("convex_hull", _convex_hull_tour)
