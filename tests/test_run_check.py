"""run_solver re-validates and re-costs every tour, and each entry point that
runs a solver (library, bench, solve, tune) gets the check from it."""

import dataclasses

import numpy as np
import pytest

from tsplab import (
    InvalidTour,
    SolveBudget,
    SolveResult,
    SolverSpec,
    UnknownParameter,
    build_distance_matrix,
    generate_random_instance,
    get_algorithm,
    parse_plan,
    race,
    render_instance,
    resolve_config,
    run_experiment,
    run_solver,
    tour_length,
)
from tsplab.cli import main
from tsplab.solvers import ALGORITHMS

INST = generate_random_instance(6, 3)


def _repeated_city(inst, d, params, variant, budget, seed):
    tour = [0] + list(range(inst.dimension - 1))  # city 0 twice, the last city never
    return SolveResult(tour, tour_length(tour, d), None, 1, 0.0)


def _halved_cost(inst, d, params, variant, budget, seed):
    tour = list(range(inst.dimension))
    return SolveResult(tour, tour_length(tour, d) / 2, None, 1, 0.0)


BAD_RUNS = {
    "non-permutation": (_repeated_city, "invalid tour: duplicate index"),
    "misreported cost": (_halved_cost, "reported cost"),
}


@pytest.fixture(params=sorted(BAD_RUNS))
def bad_tabu(request, monkeypatch):
    """Swaps tabu's run for one that returns a bad result; yields the message."""
    run, message = BAD_RUNS[request.param]
    monkeypatch.setitem(ALGORITHMS, "tabu", dataclasses.replace(ALGORITHMS["tabu"], run=run))
    return message


def test_run_solver_raises(bad_tabu):
    d = build_distance_matrix(INST)
    with pytest.raises(InvalidTour, match=bad_tabu):
        run_solver("tabu", INST, d, None, "baseline", SolveBudget(time_limit=1.0), 0)


def test_bench_writes_failed_row(bad_tabu):
    plan = parse_plan("repetitions = 1\ntime_scale = 0.05\n"
                      "[instances]\nrandom n=6 seed=3\n[algorithms]\ntabu\n")
    (row,) = run_experiment(plan, workers=1)
    assert row.status == "failed" and row.best_cost is None


def test_solve_is_data_error(bad_tabu, capsys, tmp_path):
    path = tmp_path / "six.tsp"
    path.write_text(render_instance(INST), encoding="utf-8")
    code = main(["solve", "--instance", str(path), "--algorithm", "tabu",
                 "--time-scale", "0.05"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error:" in captured.err and bad_tabu in captured.err


def test_race_default_runner_raises(bad_tabu):
    with pytest.raises(InvalidTour, match=bad_tabu):
        race("tabu", instances=[INST], budget=2, candidates=2, time_scale=0.05)


def test_cost_within_tolerance_is_re_costed(monkeypatch):
    def nudged(inst, d, params, variant, budget, seed):
        tour = list(range(inst.dimension))
        return SolveResult(tour, tour_length(tour, d) * (1 + 1e-12), None, 1, 0.0)

    monkeypatch.setitem(ALGORITHMS, "tabu", dataclasses.replace(ALGORITHMS["tabu"], run=nudged))
    d = build_distance_matrix(INST)
    out = run_solver("tabu", INST, d, None, "baseline", SolveBudget(time_limit=1.0), 0)
    assert out.best_cost == tour_length(list(range(INST.dimension)), d)


@pytest.mark.parametrize("algorithm,variant,values,error,match", [
    ("tabu", "enhanced_r1", None, ValueError, "tabu has no variant 'enhanced_r1'"),
    ("tabu", "baseline", {"tenur": 9}, UnknownParameter, "tabu has no parameter 'tenur'"),
    ("sa", "baseline", {"t_start": float("inf")}, ValueError, "t_start must be finite"),
    ("tabu", "baseline", {"tenure": 0}, ValueError, "tenure must be >= 1"),
    ("ga", "baseline", {"population_size": 40.6}, ValueError,
     "ga parameter population_size must be a whole number, got 40.6"),
])
def test_run_solver_rejects_bad_config_before_running(monkeypatch, algorithm, variant, values,
                                                      error, match):
    def never(*args):
        raise AssertionError("the solver ran")

    monkeypatch.setitem(ALGORITHMS, algorithm,
                        dataclasses.replace(ALGORITHMS[algorithm], run=never))
    d = build_distance_matrix(INST)
    with pytest.raises(error, match=match):
        run_solver(algorithm, INST, d, values, variant, SolveBudget(time_limit=1.0), 0)


def test_run_solver_builds_the_params_bundle_once(monkeypatch):
    original = SolverSpec.make_params
    builds = []

    def make_params(self, values):
        builds.append(values)
        return original(self, values)

    monkeypatch.setattr(SolverSpec, "make_params", make_params)
    d = build_distance_matrix(INST)
    run_solver("sarsa", INST, d, {"episodes": 2}, "baseline", SolveBudget(time_limit=1.0), 0)
    assert len(builds) == 1


@pytest.mark.parametrize("algorithm", list(ALGORITHMS))
def test_every_run_starts_through_its_spec_once(algorithm, monkeypatch):
    original = SolverSpec.start
    starts = []

    def start(self, d, budget, variant="baseline"):
        starts.append(self.name)
        return original(self, d, budget, variant)

    monkeypatch.setattr(SolverSpec, "start", start)
    d = build_distance_matrix(INST)
    run_solver(algorithm, INST, d, None, "baseline", SolveBudget(time_limit=5.0, max_evaluations=50), 0)
    assert starts == [algorithm]


@pytest.mark.parametrize("algorithm,preset,values,config_id", [
    ("ga", "claude", None, "claude"),
    ("sa", None, {"t_start": "40", "cooling_rate": 0.9}, "custom"),
    ("aco", None, None, "original"),
    ("christofides", None, None, "default"),
])
def test_resolve_config_returns_the_params_bundle(algorithm, preset, values, config_id):
    resolved_id, resolved, params = resolve_config(algorithm, "baseline", preset, values)
    assert resolved_id == config_id
    assert params == get_algorithm(algorithm).make_params(resolved)


@pytest.mark.parametrize("algorithm,variant",
                         [(a, v) for a, spec in ALGORITHMS.items() for v in spec.variants])
def test_float32_matrix_runs_as_its_float64_upcast(algorithm, variant):
    # Every solver costs in float64; the re-cost must too, or a float32 sum
    # disagrees with the reported cost and the run is refused.
    inst = generate_random_instance(12, 5)
    d32 = build_distance_matrix(inst).astype(np.float32)
    budget = SolveBudget(time_limit=10.0, max_evaluations=200)
    single, double = (run_solver(algorithm, inst, d, None, variant, budget, 0)
                      for d in (d32, d32.astype(float)))
    assert single.best == double.best
    assert single.best_cost.hex() == double.best_cost.hex()
    assert (single.evaluations, single.nodes_expanded) == (double.evaluations, double.nodes_expanded)
