import hashlib
import math
import statistics
import sys

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
from .conftest import grid_matrix, nint_matrix, random_matrix


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


def _search_digest(result) -> str:
    """A 16-hex sha256 prefix of everything a search returns but its time."""
    text = (f"{','.join(map(str, result.best))};{result.best_cost.hex()};"
            f"{result.nodes_expanded};{result.proven_optimal}")
    return hashlib.sha256(text.encode()).hexdigest()[:16]


_PIN_INPUTS = {
    "rnd9": lambda: random_matrix(9, 21),
    "rnd11": lambda: random_matrix(11, 22),
    "rnd13": lambda: random_matrix(13, 23),
    "nint12": lambda: nint_matrix(12, 24),
    "grid4": lambda: grid_matrix(4),  # 16 integer points: exactly equal weights
    "list10": lambda: random_matrix(10, 25).tolist(),
    "float32_10": lambda: random_matrix(10, 26).astype(np.float32),
    "rnd320": lambda: random_matrix(320, 27),  # memoryview rows (ROW_VIEW_MIN)
}
_PIN_CAPS = (None, 1, 50, 1023, 1024, 1025)
_PIN_CAPS_LARGE = (1, 50, 1023, 1024, 1025, 5000)  # rnd320 cannot be searched to proof

# One digest per cap, in the order of _PIN_CAPS (or _PIN_CAPS_LARGE).
_SEARCH_PINS = {
    ("rnd9", "baseline"): (
        "92d969c71a36e10c", "954bad7e5585b143", "3880457fc0514815",
        "19bdb0976f2a0ccb", "ef21c35ff81e8124", "bb7da0fb79d05010"),
    ("rnd9", "enhanced_r1"): (
        "70bd8a55404c91e8", "954bad7e5585b143", "1c73647b35e68452",
        "70bd8a55404c91e8", "70bd8a55404c91e8", "70bd8a55404c91e8"),
    ("rnd11", "baseline"): (
        "8021c096ba79bdbc", "51d3cec3f9012217", "eaa58d83cdfebc36",
        "066339e93066fe88", "b55274442f59d9c5", "3ffbf7401daa4dec"),
    ("rnd11", "enhanced_r1"): (
        "a451d1296c34349d", "51d3cec3f9012217", "4380206f4955c1eb",
        "175a67ec4cc0a1ea", "9fd82df32f7675e8", "b146b27293092e35"),
    ("rnd13", "baseline"): (
        "cbfeefafd024294d", "edfffd7de88caf16", "1c31307a213d59e6",
        "1c22d5e647e717aa", "e6cd9251c41e0585", "b4cc1b693eae2859"),
    ("rnd13", "enhanced_r1"): (
        "fd4ccfc86e71920a", "edfffd7de88caf16", "8ccd408b365a62e5",
        "6a09b2f7475dda2f", "4343f50f823a0289", "ff097f3a26552c29"),
    ("nint12", "baseline"): (
        "5216bffda3dc2ede", "2d966ffa75bdf3b2", "5963d2f51c2f7093",
        "da14bedb4619d146", "1cc310f93e7fe7c8", "7aac5fa3968a4f00"),
    ("nint12", "enhanced_r1"): (
        "2cbfc2fd715320dd", "2d966ffa75bdf3b2", "e6155bf3b4192172",
        "d82992d647a6a712", "6ee94961826c1c6b", "82ced468b050dbb5"),
    ("grid4", "baseline"): (
        "26a3435f0a7cdf2c", "b8420032f9225fed", "664f80a4b6ec1dda",
        "408b564b9dacb904", "a8413dec3ae7c4e3", "54beb411f01da88c"),
    ("grid4", "enhanced_r1"): (
        "7ebe8a4578e44b8b", "b8420032f9225fed", "f35297ca1dc0ccfe",
        "3260c6b902be26c7", "e0e65aebe650b9da", "4a59deca6da5b6e9"),
    ("list10", "baseline"): (
        "10036e04b894fe2f", "5187a85c2f05d759", "59b9121439147cae",
        "e0031f09caab1e04", "7a2ff3e8504ee3ea", "e49bccaf9dd31989"),
    ("list10", "enhanced_r1"): (
        "9d7a38353de5622a", "5187a85c2f05d759", "1190ba014750b4c5",
        "1d09d437531e0a7d", "c7b38a9919bdf23a", "2f8734c9ba74032f"),
    ("float32_10", "baseline"): (
        "ca819edb5cbc4b02", "c93b15ecfe5965d3", "f50ace7977dea06a",
        "20b06eaeaedf85db", "ed1a1b5d86f3f96b", "3a60ea5359324289"),
    ("float32_10", "enhanced_r1"): (
        "94603a7c677f4241", "c93b15ecfe5965d3", "eef29daaf97c2ea0",
        "63fc05333ac67a13", "9cdfa0e076867761", "848ee8501463288c"),
    ("rnd320", "baseline"): (
        "b9dbb31644547660", "029d284a14a49196", "b430d1cd9db07023",
        "7012b01b8be9caa2", "5befbf854424a018", "99c35d89ce6cd7dd"),
    ("rnd320", "enhanced_r1"): (
        "b9dbb31644547660", "029d284a14a49196", "493b13cf3484a40c",
        "0b714293691c8c6e", "e1f85d2147d351e8", "f19e5194b08e32b5"),
}


@pytest.mark.parametrize("name,variant", list(_SEARCH_PINS))
def test_search_outputs_pinned(name, variant):
    d = _PIN_INPUTS[name]()
    caps = _PIN_CAPS_LARGE if name == "rnd320" else _PIN_CAPS
    got = [_search_digest(branch_and_bound(d, variant, node_cap=cap)) for cap in caps]
    assert got == list(_SEARCH_PINS[name, variant])


@pytest.mark.parametrize("variant", ["baseline", "enhanced_r1"])
def test_node_capped_search_runs_at_any_n(variant):
    # One frame per tour position: at n = 1000 the search passes Python's
    # default recursion limit, which it raises for the call and restores.
    inst = generate_random_instance(1000, 5)
    d = build_distance_matrix(inst)
    limit = sys.getrecursionlimit()
    direct = branch_and_bound(d, variant, node_cap=5000)
    planned = run_solver("branch_and_bound", inst, d, None, variant,
                         SolveBudget(max_evaluations=5000), 0)
    for result in (direct, planned):
        assert validate_tour(result.best, 1000).ok
        assert (result.nodes_expanded, result.proven_optimal) == (5001, False)
    assert sys.getrecursionlimit() == limit
