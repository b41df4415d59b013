import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsplab import (
    AcoParams,
    AlnsParams,
    GaParams,
    SaParams,
    SolveBudget,
    TabuParams,
    lundy_mees_beta,
    lundy_mees_step,
    metropolis_accept,
    nearest_neighbor_tour,
    nn_seed_count,
    solve_aco,
    solve_alns,
    solve_ga,
    solve_sa,
    solve_tabu,
    tour_length,
    validate_tour,
)
from tsplab.solvers.aco import _construct
from tsplab.solvers.alns import update_weights
from tsplab.solvers.ga import _initial_population

from ._oracles import brute_force_optimum, reference_aco_tour
from .conftest import PIN_MATRICES, random_matrix, tour_digest

GENEROUS = SolveBudget(time_limit=10.0, max_evaluations=6000)
TINY = SolveBudget(max_evaluations=30)

ACO_P = AcoParams(ants=7, alpha=1.34, beta=1.59, evaporation_rate=0.24)
GA_P = GaParams(population_size=30, mutation_rate=0.05, elite_count=3)
ALNS_P = AlnsParams(removal_fraction=0.27, reaction_factor=0.27)
TABU_P = TabuParams(tenure=8)
SA_P = SaParams(t_start=12.0, t_final=0.0547, cooling_rate=0.9895)


def _solver_calls(d):
    return [
        ("aco", lambda seed: solve_aco(d, ACO_P, GENEROUS, seed)),
        ("ga", lambda seed: solve_ga(d, GA_P, GENEROUS, seed)),
        ("ga-hybrid", lambda seed: solve_ga(d, GA_P, GENEROUS, seed, variant="hybrid_r1")),
        ("alns", lambda seed: solve_alns(d, ALNS_P, GENEROUS, seed)),
        ("tabu", lambda seed: solve_tabu(d, TABU_P, GENEROUS, seed)),
        ("sa", lambda seed: solve_sa(d, SA_P, GENEROUS, seed)),
        ("sa-lm", lambda seed: solve_sa(d, SA_P, GENEROUS, seed, variant="lundy_mees_r1")),
    ]


def test_all_meta_solvers_solve_345_triangle(tri345):
    _, d = tri345
    for name, call in _solver_calls(d):
        result = call(1)
        assert result.best_cost == pytest.approx(12.0), name


@pytest.mark.parametrize("n,seed", [(5, 2), (6, 5)])
def test_meta_solvers_reach_brute_force_optimum(n, seed):
    d = random_matrix(n, seed)
    optimum = brute_force_optimum(d)
    for name, call in _solver_calls(d):
        result = call(7)
        assert result.best_cost == pytest.approx(optimum, rel=1e-9), name


def test_meta_solver_result_contract():
    d = random_matrix(7, 9)
    for name, call in _solver_calls(d):
        result = call(3)
        assert validate_tour(result.best, 7).ok, name
        assert result.best_cost == pytest.approx(tour_length(result.best, d), abs=1e-9), name
        costs = [c for _, c in result.trajectory]
        assert all(b < a for a, b in zip(costs, costs[1:])), name
        assert costs[-1] == result.best_cost, name
        # best-so-far is monotone: never worse than the initial solution
        assert result.best_cost <= costs[0] + 1e-9, name
        assert result.seed == 3


def test_meta_solver_seeded_determinism():
    d = random_matrix(8, 12)
    for name, call in _solver_calls(d):
        a, b = call(42), call(42)
        assert a.best == b.best, name
        assert a.best_cost == b.best_cost, name
        assert a.evaluations == b.evaluations, name
        assert [c for _, c in a.trajectory] == [c for _, c in b.trajectory], name
        other = call(43)
        assert other.seed != a.seed


def test_meta_solver_evaluation_budget_respected():
    d = random_matrix(10, 1)
    for name, call in [
        ("aco", lambda s: solve_aco(d, ACO_P, TINY, s)),
        ("ga", lambda s: solve_ga(d, GA_P, TINY, s)),
        ("ga-hybrid", lambda s: solve_ga(d, GA_P, TINY, s, variant="hybrid_r1")),
        ("alns", lambda s: solve_alns(d, ALNS_P, TINY, s)),
        ("tabu", lambda s: solve_tabu(d, TABU_P, TINY, s)),
        ("sa", lambda s: solve_sa(d, SA_P, TINY, s)),
    ]:
        result = call(5)
        assert result.evaluations <= 30, name
        assert validate_tour(result.best, 10).ok, name


# --- Seeded SA, tabu, ACO and GA pins --------------------------------------

_PIN_CALLS = {
    "sa": lambda d, cap: solve_sa(d, SA_P, SolveBudget(max_evaluations=cap), 7),
    "sa-lm": lambda d, cap: solve_sa(d, SA_P, SolveBudget(max_evaluations=cap), 7,
                                     variant="lundy_mees_r1"),
    "tabu": lambda d, cap: solve_tabu(d, TABU_P, SolveBudget(max_evaluations=cap), 7),
}


# Recorded from the inline 2-opt delta loops that solve_sa and solve_tabu ran
# before both called tours.reversal_delta; the same float operations in the
# same order must reproduce them bit for bit.
@pytest.mark.parametrize("solver,instance,cap,best_cost,digest", [
    ("sa", "rnd200_1", 20000, 1846.1510783733788, "502d00549144a7cc"),
    ("sa-lm", "rnd200_1", 20000, 1174.4950524883247, "f003b1365d7c2057"),
    ("tabu", "rnd200_1", 8, 1197.7070819902833, "8d3ffbc5ea584f4f"),
    ("sa", "rnd200_2", 20000, 1803.6285336236845, "42fadc6174803f6b"),
    ("sa-lm", "rnd200_2", 20000, 1193.390619119692, "d687e284bd88fae7"),
    ("tabu", "rnd200_2", 8, 1242.1785849265766, "12a1bec3a76f7339"),
    ("sa", "grid5", 5000, 26.650281539872886, "6bd4a81d9b31c6ef"),
    ("sa-lm", "grid5", 5000, 25.414213562373096, "a1d2b57c33bd1097"),
    ("tabu", "grid5", 60, 25.414213562373096, "94a2553a43196af2"),
])
def test_sa_tabu_capped_runs_pinned(solver, instance, cap, best_cost, digest):
    result = _PIN_CALLS[solver](PIN_MATRICES[instance](), cap)
    assert (result.best_cost, result.evaluations) == (best_cost, cap)
    assert tour_digest(result.best) == digest


# Recorded at the commit before ACO read its pick weights from one n x n
# buffer filled once per iteration and GA baseline drew parents from
# cumulative weights built once per generation.
_ACO_GA_PIN_CALLS = {
    "aco": lambda d, cap: solve_aco(d, ACO_P, SolveBudget(max_evaluations=cap), 7),
    # (1/1e-12)^400 overflows: every step from a city with an unvisited twin
    # has infinite weights and takes the lowest-index fallback.
    "aco-beta400": lambda d, cap: solve_aco(d, AcoParams(ants=7, alpha=1.34, beta=400.0,
                                                         evaporation_rate=0.24),
                                            SolveBudget(max_evaluations=cap), 7),
    "ga": lambda d, cap: solve_ga(d, GA_P, SolveBudget(max_evaluations=cap), 7),
}


@pytest.mark.parametrize("solver,instance,cap,best_cost,digest", [
    ("aco", "rnd200_1", 21, 4003.7528740207736, "64e69c9eb1f69fab"),
    ("ga", "rnd200_1", 1500, 8074.002105923202, "0c723f4e20f3c422"),
    ("aco", "rnd200_2", 21, 4039.4935061362985, "ce46485197059e2c"),
    ("ga", "rnd200_2", 1500, 8044.615459806922, "3b2925e515a64739"),
    ("aco", "grid5", 60, 34.128990204491956, "dd5e952b6e2ffa65"),
    ("ga", "grid5", 600, 45.598403654025596, "df7418e42433946e"),
    ("aco", "rnd2", 60, 158.9197591407065, "b0e4f9bb7b55e4b1"),
    ("ga", "rnd2", 600, 158.9197591407065, "83b97b859aa5f81b"),
    ("aco", "rnd3", 60, 171.37784728024377, "6e0cd09f6e0ea17c"),
    ("ga", "rnd3", 600, 171.37784728024377, "6e0cd09f6e0ea17c"),
    ("aco", "grid3x2", 21, 10.82842712474619, "9b70d4bfd83afcd6"),
    ("aco-beta400", "grid3x2", 21, 19.478708664619077, "355965af52400f6d"),
])
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_aco_ga_capped_runs_pinned(solver, instance, cap, best_cost, digest):
    result = _ACO_GA_PIN_CALLS[solver](PIN_MATRICES[instance](), cap)
    assert (result.best_cost, result.evaluations) == (best_cost, cap)
    assert tour_digest(result.best) == digest


@st.composite
def _aco_pick_case(draw):
    n = draw(st.integers(1, 9))
    layout = draw(st.sampled_from(["uniform", "grid", "twins"]))
    if layout == "uniform":
        pts = draw(st.lists(st.tuples(st.floats(0.0, 100.0), st.floats(0.0, 100.0)),
                            min_size=n, max_size=n))
    elif layout == "grid":  # exact ties between weights
        pts = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=n, max_size=n))
    else:  # coincident points: eta = 1e12, so a large beta overflows to inf
        pool = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=3))
        pts = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    d = np.array([[math.dist(p, q) for q in pts] for p in pts])
    tau = np.array(draw(st.lists(st.floats(1e-3, 10.0), min_size=n * n, max_size=n * n))).reshape(n, n)
    alpha = draw(st.sampled_from([0.5, 1.0, 1.34, 2.0]) | st.floats(0.5, 3.0))
    beta = draw(st.sampled_from([0.5, 1.59, 2.0, 30.0, 400.0]) | st.floats(0.5, 3.0))
    return d, tau, alpha, beta, draw(st.integers(0, 10_000))


@given(_aco_pick_case())
@settings(max_examples=150, deadline=None)
def test_aco_construct_matches_per_step_reference(case):
    # The weight buffer solve_aco fills once per iteration, then one tour from
    # it against the per-step tau^alpha * eta^beta rebuild.
    d, tau, alpha, beta, seed = case
    with np.errstate(over="ignore", invalid="ignore"):
        weight = np.power(tau, alpha) * np.power(1.0 / np.maximum(d, 1e-12), beta)
    tour = _construct(weight, len(d), random.Random(seed))
    assert tour == reference_aco_tour(d, tau, alpha, beta, random.Random(seed))


def test_tabu_all_moves_tabu_pinned():
    # Nothing expires at this tenure: 109 of the 400 iterations find every
    # move tabu and take the fallback, and one admits a tabu move by
    # aspiration. Without aspiration the run returns another rotation of
    # this tour. No change to the fallback's choice shows here: it comes into
    # play only after the last improvement.
    result = solve_tabu(random_matrix(8, 116), TabuParams(tenure=10_000),
                        SolveBudget(max_evaluations=400), 1)
    assert (result.best_cost, result.evaluations) == (287.394178756223, 400)
    assert result.best == [1, 6, 2, 3, 4, 5, 7, 0]


# --- GA specifics -----------------------------------------------------------

def test_nn_seed_count_rule():
    assert nn_seed_count(4) == 0
    assert nn_seed_count(5) == 1
    assert nn_seed_count(10) == 2
    assert nn_seed_count(97) == 19


def test_hybrid_initial_population_nn_seeds():
    from tsplab.solvers.base import RunTracker

    d = random_matrix(10, 3).tolist()
    rng = random.Random(0)
    tracker = RunTracker(budget=GENEROUS, seed=0)
    pop, costs = _initial_population(d, 10, GaParams(10, 0.05, 1), rng, True, tracker)
    assert len(pop) == len(costs) == 10
    nn_tours = {tuple(nearest_neighbor_tour(d, start=s)) for s in range(10)}
    seeded = sum(1 for tour in pop if tuple(tour) in nn_tours)
    assert seeded >= 2  # both NN seeds present (random tours may coincide)

    pop4, _ = _initial_population(d, 10, GaParams(4, 0.05, 1), rng, True,
                                  RunTracker(budget=GENEROUS, seed=0))
    assert len(pop4) == 4
    assert not any(tuple(t) in nn_tours for t in pop4)  # below the N >= 5 guard


def test_ga_params_validation():
    with pytest.raises(ValueError):
        GaParams(population_size=1, mutation_rate=0.05, elite_count=1)
    with pytest.raises(ValueError):
        GaParams(population_size=10, mutation_rate=0.05, elite_count=11)


# --- ALNS specifics ---------------------------------------------------------

def test_alns_weight_update_arithmetic():
    w = update_weights([1.0, 1.0], used=0, score=3.0, reaction=0.2)
    assert w[0] == pytest.approx(1.4)
    assert w[1] == pytest.approx(0.8)


def test_alns_near_total_destroy_still_valid():
    d = random_matrix(6, 4)
    p = AlnsParams(removal_fraction=0.99, reaction_factor=0.1)
    result = solve_alns(d, p, SolveBudget(max_evaluations=200), 2)
    assert validate_tour(result.best, 6).ok
    assert math.ceil(0.99 * 6) == 6  # clamped internally to n - 1


# Recorded from the sequential pure-Python repair scan, which tests/_oracles.py
# keeps as reference_cheapest_insertion.
@pytest.mark.parametrize("seed,best_cost", [
    (1, 823.7436371512413),
    (2, 869.5121700458155),
    (3, 823.7436371512413),
])
def test_alns_capped_n100_runs_pinned(seed, best_cost):
    result = solve_alns(random_matrix(100, 5), ALNS_P, SolveBudget(max_evaluations=150), seed)
    assert (result.best_cost, result.evaluations) == (best_cost, 150)


def test_alns_one_city_repair_pinned():
    # ceil(0.95 * 12) = 12 is clamped to 11 removals, so every repair starts
    # from a one-city tour.
    p = AlnsParams(removal_fraction=0.95, reaction_factor=0.27)
    result = solve_alns(random_matrix(12, 4), p, SolveBudget(max_evaluations=300), 9)
    assert (result.best_cost, result.evaluations) == (292.11412122361617, 300)
    assert result.best == [10, 8, 4, 0, 5, 7, 1, 3, 11, 2, 9, 6]


# --- Tabu specifics ---------------------------------------------------------

def test_tabu_huge_tenure_no_deadlock():
    d = random_matrix(6, 6)
    p = TabuParams(tenure=10_000)
    result = solve_tabu(d, p, SolveBudget(max_evaluations=300), 3)
    assert validate_tour(result.best, 6).ok
    assert result.best_cost == pytest.approx(brute_force_optimum(d), rel=1e-9)


def test_tabu_improves_over_nn_start():
    d = random_matrix(12, 8)
    nn_cost = tour_length(nearest_neighbor_tour(d, start=0), d)
    result = solve_tabu(d, TabuParams(tenure=8), SolveBudget(max_evaluations=400), 1)
    assert result.best_cost <= nn_cost + 1e-9


# --- SA specifics -----------------------------------------------------------

def test_lundy_mees_step_formula():
    assert lundy_mees_step(10.0, 0.05) == pytest.approx(10.0 / 1.5, abs=1e-12)


def test_lundy_mees_beta_reaches_final_temperature():
    t0, tf, k = 12.0, 0.05, 1000
    beta = lundy_mees_beta(t0, tf, k)
    t = t0
    for _ in range(k):
        t = lundy_mees_step(t, beta)
    assert t == pytest.approx(tf, rel=1e-9)


def test_metropolis_zero_delta_always_accepts():
    rng = random.Random(0)
    assert all(metropolis_accept(0.0, t, rng) for t in (0.001, 1.0, 50.0))
    assert all(metropolis_accept(-1.0, t, rng) for t in (0.001, 1.0, 50.0))


def test_lundy_mees_temperatures_strictly_decreasing():
    d = random_matrix(8, 2)
    trace = []
    solve_sa(d, SA_P, SolveBudget(max_evaluations=500), 4,
             variant="lundy_mees_r1", temperature_trace=trace)
    assert len(trace) > 10
    assert all(b < a for a, b in zip(trace, trace[1:]))
    assert all(t > 0 for t in trace)


def test_baseline_sa_restarts_schedule():
    d = random_matrix(8, 2)
    trace = []
    p = SaParams(t_start=1.0, t_final=0.5, cooling_rate=0.8)
    solve_sa(d, p, SolveBudget(max_evaluations=50), 4, temperature_trace=trace)
    # schedule hits t_final quickly, then restarts from t_start
    assert any(b > a for a, b in zip(trace, trace[1:]))
    assert max(trace) <= 1.0


def test_sa_params_validation():
    with pytest.raises(ValueError):
        SaParams(t_start=0.1, t_final=1.0, cooling_rate=0.9)
    with pytest.raises(ValueError):
        SaParams(t_start=1.0, t_final=0.1, cooling_rate=1.5)
