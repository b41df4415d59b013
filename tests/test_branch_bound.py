import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsplab import (
    NonSymmetric,
    SolveBudget,
    bound_cache,
    branch_and_bound,
    build_distance_matrix,
    nearest_neighbor_tour,
    generate_random_instance,
    run_solver,
    tour_length,
    validate_tour,
)

from ._oracles import RND12_S3_OPTIMUM, brute_force_optimum, held_karp_optimum, reference_bound_cache
from .conftest import nint_matrix, random_matrix


def root_bound(d) -> float:
    """The two-minimum root bound: half the sum of each city's two cheapest edges."""
    min1, min2 = bound_cache(d)
    return sum(m1 + m2 for m1, m2 in zip(min1, min2)) / 2.0


def test_bound_cache_345(tri345):
    _, d = tri345
    min1, min2 = bound_cache(d)
    assert min1 == [3.0, 3.0, 4.0]
    assert min2 == [4.0, 5.0, 5.0]
    assert root_bound(d) == pytest.approx(12.0)


@st.composite
def _bound_matrix(draw):
    n, seed = draw(st.integers(2, 40)), draw(st.integers(0, 10_000))
    layout = draw(st.sampled_from(["random", "nint", "coincident"]))
    if layout == "random":
        return random_matrix(n, seed)
    if layout == "nint":  # small integer weights: many exact ties in a row
        return nint_matrix(n, seed)
    pool = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=4))
    pts = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    return np.array([[math.dist(p, q) for q in pts] for p in pts])  # coincident: zero weights


@given(_bound_matrix())
@settings(max_examples=60, deadline=None)
def test_bound_cache_matches_the_per_row_sort(d):
    assert [[x.hex() for x in col] for col in bound_cache(d)] == \
        [[x.hex() for x in col] for col in reference_bound_cache(d)]


def test_asymmetric_matrix_is_refused_instead_of_a_false_proof():
    # The two-minimum bound reads d[i][j] rows only. On this directed n=7
    # matrix the baseline used to report 99.431 as proven after 302 nodes;
    # enumeration gives 94.713.
    rng = np.random.default_rng(5)
    n = int(rng.integers(5, 9))
    d = rng.uniform(1, 100, (n, n))
    np.fill_diagonal(d, 0.0)
    for variant in ("baseline", "enhanced_r1"):
        with pytest.raises(NonSymmetric):
            branch_and_bound(d, variant)


@pytest.mark.parametrize("variant", ["baseline", "enhanced_r1"])
def test_345_triangle_proven(tri345, variant):
    _, d = tri345
    result = branch_and_bound(d, variant=variant)
    assert result.best_cost == pytest.approx(12.0)
    assert result.proven_optimal
    assert validate_tour(result.best, 3).ok
    assert result.nodes_expanded > 0
    assert result.elapsed >= 0.0


@pytest.mark.parametrize("n,seed", [(7, 0), (8, 1), (9, 2), (10, 3)])
def test_matches_exhaustive_enumeration(n, seed):
    d = random_matrix(n, seed)
    optimum = brute_force_optimum(d)
    for variant in ("baseline", "enhanced_r1"):
        result = branch_and_bound(d, variant=variant)
        assert result.proven_optimal
        assert result.best_cost == pytest.approx(optimum, rel=1e-9)
        assert tour_length(result.best, d) == pytest.approx(result.best_cost, rel=1e-12)


@pytest.mark.parametrize("n,seed", [(6, 4), (8, 5), (10, 6)])
def test_root_bound_never_exceeds_optimum(n, seed):
    d = random_matrix(n, seed)
    assert root_bound(d) <= brute_force_optimum(d) + 1e-9


def test_frozen_12_city_instance():
    d = random_matrix(12, 3)
    assert held_karp_optimum(d) == pytest.approx(RND12_S3_OPTIMUM, rel=1e-12)
    result = branch_and_bound(d, variant="enhanced_r1")
    assert result.proven_optimal
    assert result.best_cost == pytest.approx(RND12_S3_OPTIMUM, rel=1e-9)


def test_enhanced_starts_from_nearest_neighbor():
    d = random_matrix(9, 7)
    nn_cost = tour_length(nearest_neighbor_tour(d, start=0), d)
    result = branch_and_bound(d, variant="enhanced_r1", node_cap=0)
    assert not result.proven_optimal
    assert result.best_cost == pytest.approx(nn_cost)
    assert validate_tour(result.best, 9).ok


def test_node_cap_returns_incumbent_without_error():
    d = random_matrix(11, 8)
    optimum = held_karp_optimum(d)
    for variant in ("baseline", "enhanced_r1"):
        result = branch_and_bound(d, variant=variant, node_cap=50)
        assert not result.proven_optimal
        assert result.nodes_expanded <= 51
        assert validate_tour(result.best, 11).ok
        assert result.best_cost >= optimum - 1e-9


def test_time_cap_stops_search():
    d = random_matrix(12, 3)
    result = branch_and_bound(d, variant="baseline", time_cap=0.0)
    assert not result.proven_optimal
    assert validate_tour(result.best, 12).ok
    assert result.best_cost >= RND12_S3_OPTIMUM - 1e-9


def test_two_cities():
    result = branch_and_bound([[0.0, 7.0], [7.0, 0.0]])
    assert result.best == [0, 1]
    assert result.best_cost == pytest.approx(14.0)
    assert result.proven_optimal


@pytest.mark.parametrize("variant", ["baseline", "enhanced_r1"])
def test_two_cities_need_no_search(variant):
    result = branch_and_bound([[0.0, 7.0], [7.0, 0.0]], variant)
    assert (result.best, result.best_cost) == ([0, 1], 14.0)
    assert (result.nodes_expanded, result.proven_optimal) == (0, True)


@pytest.mark.parametrize("variant", ["baseline", "enhanced_r1"])
def test_one_city_is_its_own_tour(variant):
    result = branch_and_bound([[0.0]], variant)
    assert (result.best, result.best_cost) == ([0], 0.0)
    assert (result.nodes_expanded, result.proven_optimal) == (0, True)


def test_cap_before_any_tour_falls_back_to_nearest_neighbor():
    d = random_matrix(6, 0)
    nn = nearest_neighbor_tour(d, start=0)
    result = branch_and_bound(d, "baseline", node_cap=1)
    assert (result.best, result.best_cost) == (nn, tour_length(nn, d))
    assert (result.nodes_expanded, result.proven_optimal) == (2, False)


def test_unknown_variant():
    with pytest.raises(ValueError):
        branch_and_bound([[0.0, 1.0], [1.0, 0.0]], variant="fancy")


def test_deterministic_node_counts():
    d = random_matrix(10, 9)
    a = branch_and_bound(d, variant="enhanced_r1")
    b = branch_and_bound(d, variant="enhanced_r1")
    assert a.best == b.best
    assert a.best_cost == b.best_cost
    assert a.nodes_expanded == b.nodes_expanded


def test_enhanced_usually_expands_fewer_nodes():
    wins = []
    baseline_nodes = []
    enhanced_nodes = []
    for i, seed in enumerate(range(40, 48)):
        d = random_matrix(10 + i % 3, seed)
        base = branch_and_bound(d, variant="baseline")
        enh = branch_and_bound(d, variant="enhanced_r1")
        assert base.best_cost == pytest.approx(enh.best_cost, rel=1e-9)
        baseline_nodes.append(base.nodes_expanded)
        enhanced_nodes.append(enh.nodes_expanded)
        wins.append(enh.nodes_expanded <= base.nodes_expanded)
    assert sum(wins) >= 6
    assert statistics.median(enhanced_nodes) < statistics.median(baseline_nodes)


@pytest.mark.parametrize("variant", ["baseline", "enhanced_r1"])
def test_run_solver_caps_nodes_at_the_evaluation_cap(variant):
    # Nodes are branch and bound's work unit, so an evaluation-capped run
    # expands exactly as far as branch_and_bound(node_cap=K) and reproduces.
    inst = generate_random_instance(12, 3)
    d = build_distance_matrix(inst)
    budget = SolveBudget(time_limit=60.0, max_evaluations=200)
    got = run_solver("branch_and_bound", inst, d, None, variant, budget, 7)
    want = branch_and_bound(d, variant, node_cap=200)
    assert (got.best, got.nodes_expanded, got.proven_optimal) == (
        want.best, want.nodes_expanded, False)
    assert got.best_cost == want.best_cost
