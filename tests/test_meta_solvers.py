import hashlib
import math
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsplab import (
    ALGORITHMS,
    AcoParams,
    AlnsParams,
    GaParams,
    DimensionMismatch,
    EmptyInput,
    NonFiniteInput,
    NonSymmetric,
    RlParams,
    SaParams,
    SolveBudget,
    TabuParams,
    branch_and_bound,
    build_distance_matrix,
    christofides,
    convex_hull_tour,
    generate_random_instance,
    lundy_mees_beta,
    lundy_mees_step,
    nearest_neighbor_tour,
    nn_seed_count,
    run_solver,
    solve_aco,
    solve_alns,
    solve_ga,
    solve_qlearning,
    solve_sa,
    solve_sarsa,
    solve_tabu,
    tour_length,
    two_opt,
    validate_tour,
)
from tsplab.solvers import base
from tsplab.solvers.aco import _construct
from tsplab.solvers.alns import update_weights
from tsplab.solvers.ga import (
    _best_cost_insertion_crossover,
    _edge_recombination,
    _initial_population,
    _insertion_buffers,
    _order_crossover,
)

from ._oracles import (
    brute_force_optimum,
    reference_aco_tour,
    reference_best_cost_insertion,
    reference_edge_recombination,
    reference_ga_baseline,
    reference_order_crossover,
)
from .conftest import (
    PIN_MATRICES,
    grid_matrix,
    nint_matrix,
    random_matrix,
    tour_digest,
    trajectory_digest,
)

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


def test_meta_solver_seeded_determinism():
    d = random_matrix(8, 12)
    for name, call in _solver_calls(d):
        a, b = call(42), call(42)
        assert a.best == b.best, name
        assert a.best_cost == b.best_cost, name
        assert a.evaluations == b.evaluations, name
        assert [c for _, c in a.trajectory] == [c for _, c in b.trajectory], name


@pytest.mark.parametrize("cap", [2.5, 1.5, 1e9 + 0.5])
def test_evaluation_cap_must_be_a_whole_number(cap):
    # A cap of 2.5 used to run to 3 evaluations, ants or nodes.
    with pytest.raises(ValueError, match=f"max_evaluations must be a whole number >= 1, got {cap}"):
        SolveBudget(max_evaluations=cap)
    assert SolveBudget(max_evaluations=3).max_evaluations == 3


@pytest.mark.parametrize("algorithm,variant",
                         [(a, v) for a, spec in ALGORITHMS.items() for v in spec.variants])
def test_whole_number_float_cap_runs_as_its_int(algorithm, variant):
    # GA baseline's last, partial generation once took range() of a float cap.
    inst = generate_random_instance(12, 3)
    d = build_distance_matrix(inst)

    def outcome(cap):
        r = run_solver(algorithm, inst, d, None, variant, SolveBudget(max_evaluations=cap), 7)
        costs = None if r.trajectory is None else [c for _, c in r.trajectory]
        return r.best, r.best_cost, r.evaluations, costs

    assert outcome(250.0) == outcome(250)
    assert outcome(1e3) == outcome(1000)


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
    "tabu-t5": lambda d, cap: solve_tabu(d, TabuParams(tenure=5),
                                         SolveBudget(max_evaluations=cap), 7),
    "tabu-t30": lambda d, cap: solve_tabu(d, TabuParams(tenure=30),
                                          SolveBudget(max_evaluations=cap), 7),
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
    # Recorded before tabu scored each sweep as one numpy array. rnd5 takes
    # the all-tabu fallback 9 times, and its choice shows in the trajectory;
    # rnd10 admits one tabu move by aspiration; nint30's integer distances
    # make many candidates tie exactly, so the scan order decides.
    ("tabu-t30", "rnd5", 40, 173.9567397666487, "5e400a907a98cd48"),
    ("tabu-t30", "rnd10", 40, 355.4810953330641, "dfc72cc36eb544c8"),
    ("tabu-t5", "nint30", 60, 46.0, "8c6c49f89c42810f"),
])
def test_sa_tabu_capped_runs_pinned(solver, instance, cap, best_cost, digest):
    result = _PIN_CALLS[solver](PIN_MATRICES[instance](), cap)
    assert (result.best_cost, result.evaluations) == (best_cost, cap)
    assert tour_digest(result.best) == digest


# Every trajectory cost, as float.hex(), of the runs above; recorded before
# SA's proposal loop ran inline and tabu scored each sweep as one numpy array.
@pytest.mark.parametrize("solver,instance,cap,digest", [
    ("sa", "rnd200_1", 20000, "ca0bcdfc19cebb23"),
    ("sa-lm", "rnd200_1", 20000, "7fbd5e9ed29dff1e"),
    ("tabu", "rnd200_1", 8, "49daf2bf60007496"),
    ("sa", "rnd200_2", 20000, "5b8b60146d191bcc"),
    ("sa-lm", "rnd200_2", 20000, "c0a3edb1901b6cfa"),
    ("tabu", "rnd200_2", 8, "87460e387ad5dda6"),
    ("sa", "grid5", 5000, "6fd7385716364214"),
    ("sa-lm", "grid5", 5000, "d0c1c2a39bb75ade"),
    ("tabu", "grid5", 60, "3f263747703d8140"),
    ("tabu-t30", "rnd5", 40, "c5f76b6deac399b2"),
    ("tabu-t30", "rnd10", 40, "0ce7b35a9d66bb50"),
    ("tabu-t5", "nint30", 60, "812855b1b1305e3f"),
])
def test_sa_tabu_capped_trajectories_pinned(solver, instance, cap, digest):
    result = _PIN_CALLS[solver](PIN_MATRICES[instance](), cap)
    assert trajectory_digest(result.trajectory) == digest


def test_tabu_ignores_its_seed():
    # Tabu starts from the nearest-neighbour tour at city 0 and scans
    # deterministically, so its capped runs are the same for every seed.
    d = random_matrix(30, 5)
    runs = [solve_tabu(d, TABU_P, SolveBudget(max_evaluations=15), seed) for seed in range(5)]
    outcomes = {(r.best_cost, tuple(r.best), r.evaluations, tuple(c for _, c in r.trajectory))
                for r in runs}
    assert len(outcomes) == 1


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
    "ga-hybrid": lambda d, cap: solve_ga(d, GA_P, SolveBudget(max_evaluations=cap), 7,
                                         variant="hybrid_r1"),
    # Branch and bound's cap is the node count of its proof: the pin holds only
    # if the search proves the optimum in exactly that many nodes.
    "bb": lambda d, cap: branch_and_bound(d, "baseline", node_cap=cap),
    "bb-enhanced": lambda d, cap: branch_and_bound(d, "enhanced_r1", node_cap=cap),
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
    # Recorded before the solvers read the caller's matrix once as a float
    # array and handed that array, not its rows, to nearest_neighbor_tour.
    ("ga-hybrid", "rnd200_1", 300, 1138.9984041539892, "acec7f483e70bb0a"),
    ("ga-hybrid", "rnd200_2", 300, 1155.2484729299006, "336cbaf8a23c6c81"),
    ("ga-hybrid", "grid5", 600, 25.414213562373096, "208cc388bc3d62ba"),
    ("bb", "rnd12", 191897, 350.00577989418167, "12998411331d3eb2"),
    ("bb-enhanced", "rnd12", 40497, 350.00577989418167, "12998411331d3eb2"),
])
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_aco_ga_capped_runs_pinned(solver, instance, cap, best_cost, digest):
    result = _ACO_GA_PIN_CALLS[solver](PIN_MATRICES[instance](), cap)
    work = result.evaluations if result.nodes_expanded is None else result.nodes_expanded
    assert (result.best_cost, work) == (best_cost, cap)
    assert tour_digest(result.best) == digest


_RL_P = RlParams(learning_rate=0.44, discount=0.97, epsilon=0.09, episodes=60)
_ENTRY_CALLS = {
    "sa": lambda d: solve_sa(d, SA_P, SolveBudget(max_evaluations=2000), 7),
    "sa-lm": lambda d: solve_sa(d, SA_P, SolveBudget(max_evaluations=2000), 7,
                                variant="lundy_mees_r1"),
    "tabu": lambda d: solve_tabu(d, TABU_P, SolveBudget(max_evaluations=20), 7),
    "ga": lambda d: solve_ga(d, GA_P, SolveBudget(max_evaluations=300), 7),
    "ga-hybrid": lambda d: solve_ga(d, GA_P, SolveBudget(max_evaluations=300), 7,
                                    variant="hybrid_r1"),
    "alns": lambda d: solve_alns(d, ALNS_P, SolveBudget(max_evaluations=60), 7),
    "aco": lambda d: solve_aco(d, ACO_P, SolveBudget(max_evaluations=40), 7),
    "qlearning": lambda d: solve_qlearning(d, _RL_P, SolveBudget(max_evaluations=100), 7),
    "sarsa": lambda d: solve_sarsa(d, _RL_P, SolveBudget(max_evaluations=100), 7),
    "sarsa-boltzmann": lambda d: solve_sarsa(d, _RL_P, SolveBudget(max_evaluations=100), 7,
                                             variant="boltzmann_o1"),
    "bb": lambda d: branch_and_bound(d, "baseline"),
    "bb-enhanced": lambda d: branch_and_bound(d, "enhanced_r1"),
    "christofides": christofides,
    "two_opt": lambda d: two_opt([5, 0, 9, 3, 11, 1, 7, 2, 10, 4, 8, 6], d),
}


@pytest.mark.parametrize("entry", list(_ENTRY_CALLS))
def test_entry_points_read_rows_like_the_array(entry):
    # A list of rows and the ndarray it came from must give the same run: the
    # solvers read either once as a float array, two_opt indexes either as given.
    d = PIN_MATRICES["rnd12"]()

    def outcome(result):
        if isinstance(result, list):  # christofides and two_opt return a tour
            return result
        return (result.best, result.best_cost, result.evaluations, result.nodes_expanded)

    assert outcome(_ENTRY_CALLS[entry](d.tolist())) == outcome(_ENTRY_CALLS[entry](d))


# Each algorithm's public entry point, called directly on a 6-city matrix.
_SOLVE_CALLS = {
    "aco": _ENTRY_CALLS["aco"], "ga": _ENTRY_CALLS["ga"], "alns": _ENTRY_CALLS["alns"],
    "tabu": _ENTRY_CALLS["tabu"], "sa": _ENTRY_CALLS["sa"],
    "qlearning": _ENTRY_CALLS["qlearning"], "sarsa": _ENTRY_CALLS["sarsa"],
    "branch_and_bound": _ENTRY_CALLS["bb"], "christofides": christofides,
    "convex_hull": lambda d: convex_hull_tour(generate_random_instance(6, 0), d),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("algorithm", list(ALGORITHMS))
def test_non_finite_matrix_is_refused_before_any_run(algorithm, bad):
    inst = generate_random_instance(6, 0)
    d = build_distance_matrix(inst)
    d[1, 2] = d[2, 1] = bad
    with pytest.raises(NonFiniteInput):
        run_solver(algorithm, inst, d, None, "baseline", SolveBudget(max_evaluations=50), 0)
    with pytest.raises(NonFiniteInput):
        _SOLVE_CALLS[algorithm](d)


@pytest.mark.parametrize("shape", ["4x3", "1x1"])
@pytest.mark.parametrize("algorithm", list(ALGORITHMS))
def test_wrong_shape_matrix_is_refused_before_any_run(algorithm, shape):
    inst = generate_random_instance(4, 0)
    d = build_distance_matrix(inst)
    bad = d[:, :3] if shape == "4x3" else np.zeros((1, 1))
    with pytest.raises(DimensionMismatch):
        run_solver(algorithm, inst, bad, None, "baseline", SolveBudget(max_evaluations=50), 0)
    if shape == "4x3":  # a matrix that is not square fails in every entry point
        with pytest.raises(DimensionMismatch):
            _SOLVE_CALLS[algorithm](bad)


@pytest.mark.parametrize("algorithm", list(ALGORITHMS))
def test_asymmetric_matrix_is_refused_before_any_run(algorithm):
    # 2-opt deltas and the branch-and-bound bound assume d[i][j] == d[j][i].
    inst = generate_random_instance(6, 0)
    d = build_distance_matrix(inst)
    d[1, 2] += 1e-6
    with pytest.raises(NonSymmetric):
        run_solver(algorithm, inst, d, None, "baseline", SolveBudget(max_evaluations=50), 0)
    with pytest.raises(NonSymmetric):
        _SOLVE_CALLS[algorithm](d)


@pytest.mark.parametrize("algorithm", list(ALGORITHMS))
def test_asymmetry_within_tolerance_still_runs(algorithm):
    inst = generate_random_instance(6, 0)
    d = build_distance_matrix(inst)
    d[1, 2] += 1e-10
    result = run_solver(algorithm, inst, d, None, "baseline", SolveBudget(max_evaluations=50), 0)
    assert validate_tour(result.best, 6).ok


@pytest.mark.parametrize("algorithm", list(ALGORITHMS))
def test_matrix_with_no_city_is_refused(algorithm):
    with pytest.raises(EmptyInput, match="no city"):
        _SOLVE_CALLS[algorithm](np.zeros((0, 0)))


@pytest.mark.parametrize("algorithm,variant",
                         [(a, v) for a, spec in ALGORITHMS.items() for v in spec.variants])
def test_list_rows_and_memoryview_rows_give_the_same_run(algorithm, variant, monkeypatch):
    # SolverSpec.start reads a matrix below ROW_VIEW_MIN cities as lists and from
    # there as per-row memoryviews; both forms, over a C- or a Fortran-ordered
    # array, must give the same floats and so the same run.
    inst = generate_random_instance(12, 3)
    d = build_distance_matrix(inst)

    def outcome(matrix, row_view_min):
        monkeypatch.setattr(base, "ROW_VIEW_MIN", row_view_min)
        r = run_solver(algorithm, inst, matrix, None, variant, SolveBudget(max_evaluations=300), 7)
        costs = None if r.trajectory is None else [c.hex() for _, c in r.trajectory]
        return r.best, r.best_cost.hex(), r.evaluations, r.nodes_expanded, costs

    runs = [outcome(matrix, row_view_min)
            for matrix in (np.ascontiguousarray(d), np.asfortranarray(d))
            for row_view_min in (0, len(d) + 1)]
    assert runs[1:] == runs[:1] * 3


class _SlowMatrix:
    """A matrix-like object whose conversion to an array takes 50 ms."""

    def __init__(self, d):
        self.d = d

    def __len__(self):
        return len(self.d)

    def __array__(self, dtype=None, copy=None):
        time.sleep(0.05)
        return np.asarray(self.d, dtype=dtype)


@pytest.mark.parametrize("entry", ["sa", "tabu", "ga", "alns", "aco", "qlearning", "sarsa"])
def test_clock_starts_before_the_matrix_is_read(entry):
    # elapsed, the time budget and the trajectory times all cover the
    # conversion of d, as they do for branch_and_bound.
    result = _ENTRY_CALLS[entry](_SlowMatrix(PIN_MATRICES["rnd12"]()))
    assert result.elapsed >= 0.05
    assert result.trajectory[0][0] >= 0.05


def test_branch_and_bound_clock_covers_the_matrix_read():
    assert branch_and_bound(_SlowMatrix(PIN_MATRICES["rnd12"]()), node_cap=10).elapsed >= 0.05


class _UnreadMatrix:
    """A matrix-like object that fails the test when it is read."""

    def __len__(self):
        raise AssertionError("d was read")

    def __array__(self, dtype=None, copy=None):
        raise AssertionError("d was read")


@pytest.mark.parametrize("name, solve", [
    ("ga", lambda d: solve_ga(d, GaParams(6, 0.1, 1, 0.3), TINY, 0, variant="bogus")),
    ("sa", lambda d: solve_sa(d, SaParams(12.0, 0.05, 0.99), TINY, 0, variant="bogus")),
    ("sarsa", lambda d: solve_sarsa(d, _RL_P, TINY, 0, variant="bogus")),
    ("branch_and_bound", lambda d: branch_and_bound(d, "bogus")),
], ids=["ga", "sa", "sarsa", "branch_and_bound"])
def test_unknown_variant_is_refused(name, solve):
    # run_solver's message, before anything of d is read.
    inst = generate_random_instance(12, 0)
    with pytest.raises(ValueError) as via_run_solver:
        run_solver(name, inst, build_distance_matrix(inst), None, "bogus", TINY, 0)
    with pytest.raises(ValueError, match="has no variant 'bogus'") as direct:
        solve(_UnreadMatrix())
    assert str(direct.value) == str(via_run_solver.value)


@pytest.mark.parametrize("name, solve, params", [
    ("sa", solve_sa, SA_P),
    ("tabu", solve_tabu, TABU_P),
    ("ga", solve_ga, GA_P),
    ("alns", solve_alns, ALNS_P),
    ("aco", solve_aco, ACO_P),
    ("qlearning", solve_qlearning, _RL_P),
    ("sarsa", solve_sarsa, _RL_P),
], ids=["sa", "tabu", "ga", "alns", "aco", "qlearning", "sarsa"])
def test_stochastic_entry_point_needs_a_budget_before_reading_d(name, solve, params):
    with pytest.raises(ValueError, match=f"^{name} needs a budget$"):
        solve(_UnreadMatrix(), params, None, 0)


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

    d = random_matrix(10, 3)
    rng = random.Random(0)
    tracker = RunTracker(budget=GENEROUS)
    pop, costs = _initial_population(d, d.tolist(), 10, GaParams(10, 0.05, 1), rng, True, tracker)
    assert len(pop) == len(costs) == 10
    nn_tours = {tuple(nearest_neighbor_tour(d, start=s)) for s in range(10)}
    seeded = sum(1 for tour in pop if tuple(tour) in nn_tours)
    assert seeded >= 2  # both NN seeds present (random tours may coincide)

    pop4, _ = _initial_population(d, d.tolist(), 10, GaParams(4, 0.05, 1), rng, True,
                                  RunTracker(budget=GENEROUS))
    assert len(pop4) == 4
    assert not any(tuple(t) in nn_tours for t in pop4)  # below the N >= 5 guard


def test_ga_params_validation():
    with pytest.raises(ValueError):
        GaParams(population_size=1, mutation_rate=0.05, elite_count=1)
    with pytest.raises(ValueError):
        GaParams(population_size=10, mutation_rate=0.05, elite_count=11)


def _slightly_asymmetric(n, seed):
    # Upper entries raised by less than SYMMETRY_TOL: read_matrix accepts the
    # matrix, and d[a][b] differs from d[b][a] in the last bits.
    d = random_matrix(n, seed)
    return d + np.triu(np.random.default_rng(seed).uniform(0.0, 5e-10, (n, n)), 1)


_GA_PIN_INPUTS = {
    "float64": lambda n: random_matrix(n, 50 + n),
    "nint": lambda n: nint_matrix(n, 51 + n),
    "grid": lambda n: grid_matrix(18)[:n, :n],  # 324 integer points: exact ties
    "list": lambda n: random_matrix(n, 52 + n).tolist(),
    "float32": lambda n: random_matrix(n, 53 + n).astype(np.float32),
    "asym": lambda n: _slightly_asymmetric(n, 54 + n),
}
_GA_PIN_SIZES = (4, 5, 12, 40, 200, 320)  # 320: memoryview rows (ROW_VIEW_MIN)
_GA_PIN_P = GaParams(population_size=12, mutation_rate=0.2, elite_count=2)


def _ga_digest(d, variant) -> str:
    """A 16-hex sha256 prefix of seeds 0-2's best, best_cost, evaluations
    and trajectory costs, each cost as float.hex()."""
    text = []
    for seed in range(3):
        r = solve_ga(d, _GA_PIN_P, SolveBudget(max_evaluations=72), seed, variant=variant)
        costs = ",".join(cost.hex() for _, cost in r.trajectory)
        text.append(f"{','.join(map(str, r.best))};{r.best_cost.hex()};{r.evaluations};{costs}")
    return hashlib.sha256("|".join(text).encode()).hexdigest()[:16]


# Recorded at the commit before BCR scored insertion positions in numpy, the
# 2-opt pass drew inline and the NN seeds were built in one batch; one digest
# per size, in the order of _GA_PIN_SIZES.
_GA_PINS = {
    ("float64", "baseline"): (
        "a891711971abdc27", "8707c5432e2293b8", "bca3d41293c96700",
        "a891d40549c44ef1", "c57a205cfbf3a26a", "ea3ea6eb3b517ca9"),
    ("float64", "hybrid_r1"): (
        "d3501ac5abbaff8c", "e048d2e233d11cf7", "b8eea4b36f06eb12",
        "3ca22fa67e6e0b2f", "93b3321ef0449a13", "38d1bc60df7df1e1"),
    ("nint", "baseline"): (
        "144b4b2ea3468494", "47ef8ffdb8c662c6", "9aa6144ca8e15a2a",
        "7ba45946e8181ddc", "149ea4d31b656680", "36247020ea82bbf6"),
    ("nint", "hybrid_r1"): (
        "c16ffaa83b000fe9", "361471f0c6fce379", "94222f0d9b7d61cb",
        "f1213631a24ee1a1", "0ceeef23b9c77430", "a00ac0388f9d1a1d"),
    ("grid", "baseline"): (
        "7a855191ec7ad05a", "2fc825d8b00abe7a", "9872e53e3a29e187",
        "4d156e738bfd5963", "54fe8883f40906e6", "a1b3959c778ceded"),
    ("grid", "hybrid_r1"): (
        "e910bccfc50df70e", "ccafddc3e07f22ef", "39ff9d5512a0414a",
        "ca3ad47ce9b820e5", "704b477924e7b47f", "d3101fc68380cd55"),
    ("list", "baseline"): (
        "96253e9bb8d3dc4e", "1d7df7b710caad4c", "d8dd1182af99cd03",
        "c312f82bef615e58", "5e5c968b362f5ba9", "9fd050b1fb7ae56b"),
    ("list", "hybrid_r1"): (
        "4bac433e012d966d", "05f3eda3840a478f", "b29e87946160333c",
        "49ab302e051b01d4", "7283a935b00d17fa", "cfa040c51704c483"),
    ("float32", "baseline"): (
        "1b50288e3b295c4d", "97a6ae9255788527", "74e0fe29e2826a18",
        "bce8473a8f7cbf1f", "de83d925757acf1d", "d1e58b94b60cd6ef"),
    ("float32", "hybrid_r1"): (
        "e18bc7ba613d463e", "0d10978e9ac8544e", "fecbf13f6c050e4f",
        "adceeb779e067602", "e4067ec1727bb852", "228036a3957ffb70"),
    ("asym", "baseline"): (
        "2475814612a9eafb", "c199091f050b4e1e", "7d85f734895097d0",
        "9074dab89c44c9ba", "7d1d67be6fc676c3", "738ba85c056d0a5b"),
    ("asym", "hybrid_r1"): (
        "c0f11e05f13f01df", "ce821b660324fda2", "f7ac92528a29feb0",
        "18ca1394826a5b3d", "94002e98e136f19e", "f0b2ebaa0f93e385"),
}


@pytest.mark.parametrize("name,variant", list(_GA_PINS))
def test_ga_outputs_pinned(name, variant):
    got = [_ga_digest(_GA_PIN_INPUTS[name](n), variant) for n in _GA_PIN_SIZES]
    assert got == list(_GA_PINS[name, variant])


# --- GA baseline: each generation built and costed as arrays ----------------
# The names carry "ga_batch" so that CI's AVX-512-off step selects them.

def _ga_input(kind, n):
    """A _GA_PIN_INPUTS matrix of n cities, n = 1 included."""
    if n > 1:
        return _GA_PIN_INPUTS[kind](n)
    d = _GA_PIN_INPUTS[kind](2)
    return [d[0][:1]] if kind == "list" else d[:1, :1]


@st.composite
def _ga_batch_case(draw):
    n = draw(st.integers(1, 60))
    size = draw(st.integers(2, 20))
    elite = draw(st.integers(0, size))
    children = size - min(elite, size - 1)  # per generation
    generations = draw(st.integers(0, 4))
    stop = draw(st.sampled_from(["one", "initial", "mid", "end"]))
    cap = {"one": 1,
           "initial": draw(st.integers(1, size)),
           "mid": size + generations * children + draw(st.integers(1, children)) - 1,
           "end": size + (generations + 1) * children}[stop]
    rate = draw(st.sampled_from([0.0, 0.5, 1.0]))
    kind = draw(st.sampled_from(list(_GA_PIN_INPUTS)))
    return _ga_input(kind, n), GaParams(size, rate, elite), cap, draw(st.integers(0, 2**32))


@given(_ga_batch_case())
@settings(max_examples=400, deadline=None)
def test_ga_batch_matches_per_child_loop(case):
    d, p, cap, seed = case
    r = solve_ga(d, p, SolveBudget(max_evaluations=cap), seed)
    best, best_cost, evaluations, trajectory = reference_ga_baseline(
        d, p.population_size, p.mutation_rate, p.elite_count, cap, seed)
    assert (r.best, r.best_cost.hex(), r.evaluations) == (best, best_cost.hex(), evaluations)
    assert [cost.hex() for _, cost in r.trajectory] == [cost.hex() for cost in trajectory]


def _ga_batch_rows(n, count, seed):
    rng = random.Random(seed)
    return np.array([rng.sample(range(n), n) for _ in range(count)], dtype=np.intp)


@pytest.mark.parametrize("n", [1, 2, 5, 40, 320])
@pytest.mark.parametrize("kind", [*_GA_PIN_INPUTS, "all -0.0"])
def test_ga_batch_evaluate_rows_costs_as_tour_length(kind, n):
    # Compared as float.hex(), so that -0.0 and 0.0 differ: a tour of -0.0
    # legs costs 0.0, as tour_length's sum starts from 0.0.
    matrix = base.read_matrix(np.full((n, n), -0.0) if kind == "all -0.0" else _ga_input(kind, n))
    rows = _ga_batch_rows(n, 30, n)
    tracker = base.RunTracker(SolveBudget(max_evaluations=100))
    costs = tracker.evaluate_rows(rows, matrix)
    expected = [tour_length(row, base.float_rows(matrix)) for row in rows.tolist()]
    assert [c.hex() for c in costs] == [c.hex() for c in expected]
    assert tracker.evaluations == 30


@pytest.mark.parametrize("cap", [1, 7, 30, 31])
def test_ga_batch_evaluate_rows_counts_and_offers_as_evaluate(cap):
    # Row by row as evaluate(): counted, offered on a strict improvement, and
    # no row after the one that exhausts the budget.
    matrix = base.read_matrix(nint_matrix(12, 3))
    rows = _ga_batch_rows(12, 30, 4)
    rows[5] = rows[3]  # an equal cost is not a new best
    ours, theirs = (base.RunTracker(SolveBudget(max_evaluations=cap)) for _ in range(2))
    costs = ours.evaluate_rows(rows, matrix)
    expected = []
    for row in rows.tolist():
        expected.append(theirs.evaluate(row, base.float_rows(matrix))[0])
        if theirs.out_of_budget():
            break
    assert costs == expected and len(costs) == min(cap, 30)
    assert (ours.best, ours.best_cost, ours.evaluations) == (
        theirs.best, theirs.best_cost, theirs.evaluations)
    assert [c for _, c in ours.trajectory] == [c for _, c in theirs.trajectory]
    assert all(type(city) is int for city in ours.best)


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


# --- GA crossovers against the parent-commit references ----------------------

@st.composite
def _parents(draw):
    n = draw(st.integers(1, 60))
    p1 = draw(st.permutations(range(n)))
    kind = draw(st.sampled_from(["random", "identical", "reversed"]))
    p2 = {"identical": p1, "reversed": p1[::-1]}.get(kind) or draw(st.permutations(range(n)))
    return list(p1), list(p2)


@given(_parents(), st.integers(0, 2**32))
@settings(max_examples=300, deadline=None)
def test_order_crossover_matches_reference(parents, seed):
    p1, p2 = parents
    ours, theirs = random.Random(seed), random.Random(seed)
    assert _order_crossover(p1, p2, ours.getrandbits) == reference_order_crossover(p1, p2, theirs)
    assert ours.random() == theirs.random()


@given(_parents())
@settings(max_examples=300, deadline=None)
def test_edge_recombination_matches_reference(parents):
    p1, p2 = parents
    assert _edge_recombination(p1, p2) == reference_edge_recombination(p1, p2)


@given(_parents(), st.sampled_from(["float", "nint", "grid", "asym"]), st.integers(0, 2**32))
@settings(max_examples=300, deadline=None)
def test_best_cost_insertion_matches_reference(parents, kind, seed):
    # The numpy row and its argmin shortcut must keep the sequential scan's
    # choice, also where exact ties (nint, grid) send it to the replay.
    p1, p2 = parents
    n = len(p1)
    if kind == "asym":
        d = np.random.default_rng(seed).uniform(0.0, 100.0, (n, n))
    else:
        d = {"float": lambda: random_matrix(max(n, 2), seed % 1000),
             "nint": lambda: nint_matrix(max(n, 2), seed % 1000),
             "grid": lambda: grid_matrix(8)}[kind]()[:n, :n]
    ours, theirs = random.Random(seed), random.Random(seed)
    got = _best_cost_insertion_crossover(p1, p2, d, _insertion_buffers(d), ours.getrandbits)
    assert got == reference_best_cost_insertion(p1, p2, d.tolist(), theirs)
    assert ours.random() == theirs.random()
