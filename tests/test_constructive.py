import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsplab import (
    DegenerateInput,
    DimensionMismatch,
    Instance,
    NoCoordinates,
    build_distance_matrix,
    cheapest_insertion,
    christofides,
    convex_hull,
    convex_hull_tour,
    generate_random_instance,
    greedy_matching,
    minimum_spanning_tree,
    tour_length,
    validate_tour,
)

from ._oracles import (
    brute_force_optimum,
    minimum_spanning_tree_weight,
    reference_greedy_matching,
    tour_cost,
)
from .conftest import SQUARE_COORDS, TRI_COORDS, random_matrix, tour_digest


def _euclid_instance(n, seed):
    inst = generate_random_instance(n, seed, (0.0, 100.0))
    return inst, build_distance_matrix(inst)


class TestMinimumSpanningTree:
    def test_345_triangle(self, tri345):
        _, d = tri345
        edges = minimum_spanning_tree(d)
        assert {(min(u, v), max(u, v)) for u, v, _ in edges} == {(0, 1), (0, 2)}
        assert sum(w for _, _, w in edges) == pytest.approx(7.0)

    def test_collinear_chain(self):
        inst = Instance(name="line", dimension=3, kind="EUC_2D",
                        coords=[(0.0, 0.0), (1.0, 0.0), (3.0, 0.0)])
        edges = minimum_spanning_tree(build_distance_matrix(inst))
        assert sum(w for _, _, w in edges) == pytest.approx(3.0)
        assert {(min(u, v), max(u, v)) for u, v, _ in edges} == {(0, 1), (1, 2)}

    @pytest.mark.parametrize("n,seed", [(4, 0), (5, 7), (6, 2), (7, 5), (8, 9)])
    def test_weight_matches_enumeration_oracle(self, n, seed):
        _, d = _euclid_instance(n, seed)
        weight = sum(w for _, _, w in minimum_spanning_tree(d))
        assert weight == pytest.approx(minimum_spanning_tree_weight(d), rel=1e-12)

    def test_edge_count_and_connectivity(self):
        _, d = _euclid_instance(9, 3)
        edges = minimum_spanning_tree(d)
        assert len(edges) == 8
        reached = {0}
        for u, v, _ in edges:
            assert u in reached  # Prim order: parent already in the tree
            reached.add(v)
        assert reached == set(range(9))


class TestGreedyMatching:
    def test_pairs_shortest_first(self):
        big = 50.0
        d = [[0.0] * 4 for _ in range(4)]
        for u, v, w in [(0, 1, big), (0, 2, big), (0, 3, 5.0),
                        (1, 2, 1.0), (1, 3, big), (2, 3, big)]:
            d[u][v] = d[v][u] = w
        assert greedy_matching([0, 1, 2, 3], d) == [(1, 2), (0, 3)]

    def test_perfect_on_even_sets(self):
        _, d = _euclid_instance(8, 4)
        matching = greedy_matching(list(range(8)), d)
        touched = [v for pair in matching for v in pair]
        assert len(matching) == 4
        assert sorted(touched) == list(range(8))


class TestChristofides:
    def test_345_triangle(self, tri345):
        _, d = tri345
        tour = christofides(d)
        assert validate_tour(tour, 3).ok
        assert tour_length(tour, d) == pytest.approx(12.0)

    def test_unit_square(self, unit_square):
        _, d = unit_square
        tour = christofides(d)
        assert validate_tour(tour, 4).ok
        assert tour_length(tour, d) == pytest.approx(4.0)

    def test_two_cities(self):
        assert christofides([[0.0, 2.0], [2.0, 0.0]]) == [0, 1]

    @pytest.mark.parametrize("n,seed", [(6, 0), (7, 1), (8, 2), (9, 3), (10, 4)])
    def test_within_two_of_optimum_on_metric_instances(self, n, seed):
        _, d = _euclid_instance(n, seed)
        tour = christofides(d)
        assert validate_tour(tour, n).ok
        assert tour_length(tour, d) <= 2.0 * brute_force_optimum(d) + 1e-9

    def test_deterministic(self):
        _, d = _euclid_instance(12, 8)
        assert christofides(d) == christofides(d)


class TestConvexHull:
    def test_square_ccw_from_lowest(self):
        assert convex_hull(SQUARE_COORDS) == [0, 1, 2, 3]

    def test_interior_point_excluded(self):
        assert convex_hull(TRI_COORDS + [(0.5, 0.5)]) == [0, 1, 2]

    def test_collinear_raises_with_extremes(self):
        points = [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]
        with pytest.raises(DegenerateInput) as excinfo:
            convex_hull(points)
        assert excinfo.value.extremes == (0, 3)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            convex_hull([(0.0, 0.0), (1.0, 0.0)])

    @given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)),
                    min_size=3, max_size=20, unique=True))
    @settings(max_examples=150, deadline=None)
    def test_hull_is_convex_and_contains_everything(self, points):
        pts = [(float(x), float(y)) for x, y in points]
        try:
            hull = convex_hull(pts)
        except DegenerateInput as exc:
            lo, hi = exc.extremes
            key = sorted(range(len(pts)), key=lambda i: (pts[i][0], pts[i][1], i))
            assert (lo, hi) == (key[0], key[-1])
            return
        m = len(hull)
        assert len(set(hull)) == m >= 3

        def cross(o, a, b):
            return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

        for i in range(m):
            a, b, c = pts[hull[i]], pts[hull[(i + 1) % m]], pts[hull[(i + 2) % m]]
            assert cross(a, b, c) > 0  # strictly counter-clockwise corners
        for p in range(len(pts)):
            for i in range(m):
                a, b = pts[hull[i]], pts[hull[(i + 1) % m]]
                assert cross(a, b, pts[p]) >= 0  # nothing outside any edge


def _check_seeded_tour(n, seed, criterion, digest, cost):
    """The hull tour (ratio), or detour insertion from the hull, of the seeded
    n-city instance has this digest and cost."""
    inst = generate_random_instance(n, seed)
    d = build_distance_matrix(inst)
    if criterion == "ratio":
        tour = convex_hull_tour(inst, d)
    else:
        hull = convex_hull(inst.coords)
        tour = cheapest_insertion(hull, sorted(set(range(n)) - set(hull)), d, criterion)
    assert hashlib.sha256(",".join(map(str, tour)).encode()).hexdigest()[:16] == digest
    assert tour_length(tour, d) == cost


class TestConvexHullTour:
    def test_square_perimeter(self, unit_square):
        inst, d = unit_square
        tour = convex_hull_tour(inst, d)
        assert tour == [0, 1, 2, 3]
        assert tour_length(tour, d) == pytest.approx(4.0)

    def test_square_plus_center_is_optimal(self):
        inst = Instance(name="sq5", dimension=5, kind="EUC_2D",
                        coords=SQUARE_COORDS + [(0.5, 0.5)])
        d = build_distance_matrix(inst)
        tour = convex_hull_tour(inst, d)
        assert validate_tour(tour, 5).ok
        assert tour_length(tour, d) == pytest.approx(brute_force_optimum(d), rel=1e-9)

    def test_two_cities(self):
        inst = Instance(name="pair", dimension=2, kind="EUC_2D",
                        coords=[(0.0, 0.0), (5.0, 0.0)])
        assert convex_hull_tour(inst, build_distance_matrix(inst)) == [0, 1]

    @pytest.mark.parametrize("cities,rows", [(6, 4), (4, 6)])
    def test_matrix_of_another_dimension_is_refused(self, cities, rows):
        # 6 cities on a 4x4 matrix used to index past it; 4 cities on a 6x6
        # one returned a tour of 4 of the matrix's 6 cities.
        inst = generate_random_instance(cities, 0)
        d = build_distance_matrix(generate_random_instance(rows, 0))
        with pytest.raises(DimensionMismatch):
            convex_hull_tour(inst, d)

    def test_explicit_instance_rejected(self):
        inst = Instance(name="ex", dimension=3, kind="EXPLICIT",
                        matrix=[[0.0, 3.0, 4.0], [3.0, 0.0, 5.0], [4.0, 5.0, 0.0]])
        with pytest.raises(NoCoordinates):
            convex_hull_tour(inst, inst.matrix)

    def test_collinear_fallback(self):
        coords = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)]
        inst = Instance(name="line4", dimension=4, kind="EUC_2D", coords=coords)
        d = build_distance_matrix(inst)
        tour = convex_hull_tour(inst, d)
        assert validate_tour(tour, 4).ok
        # out-and-back over a segment costs twice its span, which is optimal
        assert tour_length(tour, d) == pytest.approx(6.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_hull_cyclic_order_preserved(self, seed):
        inst, d = _euclid_instance(11, seed)
        hull = convex_hull(inst.coords)
        tour = convex_hull_tour(inst, d)
        assert validate_tour(tour, 11).ok
        on_hull = [c for c in tour if c in set(hull)]
        k = on_hull.index(hull[0])
        assert on_hull[k:] + on_hull[:k] == hull

    @pytest.mark.parametrize("n,seed", [(5, 10), (6, 11), (7, 12), (8, 13)])
    def test_close_to_optimum_on_small_instances(self, n, seed):
        inst, d = _euclid_instance(n, seed)
        tour = convex_hull_tour(inst, d)
        assert tour_length(tour, d) <= 1.5 * brute_force_optimum(d) + 1e-9

    # Tours recorded from the sequential pure-Python insertion scan, which
    # tests/_oracles.py keeps as reference_cheapest_insertion. The hull tour
    # inserts by ratio; the detour rows pin cheapest_insertion's detour scores
    # (ALNS's repair) from the same hull start.
    @pytest.mark.parametrize("seed,criterion,digest,cost", [
        (11, "ratio", "4e1aeaaddf86f5bc", 1135.9242739104943),
        (11, "detour", "960ff3b24a4f6a07", 1118.2595931799901),
        (12, "ratio", "9aefa9c08c23abae", 1258.1700966870912),
        (12, "detour", "7ac9cdc4ca9a6ff7", 1217.898670962465),
    ])
    def test_seeded_n200_tours_pinned(self, seed, criterion, digest, cost):
        _check_seeded_tour(200, seed, criterion, digest, cost)

    def test_seeded_n1000_hull_tour_pinned(self):
        # Recorded from the insertion that rescored every pair each step: a
        # run of 987 steps through the kept scores.
        _check_seeded_tour(1000, 5, "ratio", "bf8e360cfba68d57", 2905.2023932070374)

    def test_tour_cost_against_oracle(self, unit_square):
        inst, d = unit_square
        tour = convex_hull_tour(inst, d)
        assert tour_length(tour, d) == pytest.approx(tour_cost(tour, d), abs=0)


# --- greedy matching against the parent-commit reference ---------------------

@st.composite
def _matching_case(draw):
    n = draw(st.integers(1, 30))
    rnd = random.Random(draw(st.integers(0, 2**32)))
    # Few distinct weights, -0.0 among them: many ties, broken by (u, v). The
    # matrix need not be symmetric; both read d[u][v] with u listed first.
    tied = draw(st.booleans())
    d = [[rnd.choice((0.0, -0.0, 1.0, 2.0)) if tied else rnd.uniform(0.0, 100.0)
          for _ in range(n)] for _ in range(n)]
    order = draw(st.permutations(range(n)))
    vertices = list(order[: draw(st.integers(0, n))])  # unsorted, odd or even length
    return vertices, d


@given(_matching_case())
@settings(max_examples=300, deadline=None)
def test_greedy_matching_matches_reference(case):
    vertices, d = case
    assert greedy_matching(vertices, d) == reference_greedy_matching(vertices, d)
    assert greedy_matching(vertices, np.asarray(d)) == reference_greedy_matching(vertices, d)


@pytest.mark.parametrize("seed,cost,digest", [
    (1, 2746.2459237227613, "a06ddef10bf539bc"),  # 440 odd-degree vertices
    (2, 2873.106942044202, "2b77cbeb71c5b184"),  # 444
])
def test_christofides_n1000_pinned(seed, cost, digest):
    # Recorded at the commit before greedy_matching sorted its pairs in numpy.
    d = random_matrix(1000, seed)
    tour = christofides(d)
    assert (tour_length(tour, d), tour_digest(tour)) == (cost, digest)
