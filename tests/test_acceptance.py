"""Acceptance suite: sixteen end-to-end checks of the laboratory's contract.

Each test covers one numbered claim about the shipped behavior, from exact
solver optimality through harness reproducibility to the refinement loop.
They run on desk-scale budgets: evaluation caps stand in for long wall-clock
limits wherever best-so-far monotonicity makes the capped run the harder
claim (a solver that reaches the optimum under a small evaluation budget
also reaches it with the full time budget).
"""

import math
import statistics
import time

import numpy as np
import pytest

from tsplab import (
    SolveBudget,
    TemperatureSchedule,
    boltzmann_probabilities,
    branch_and_bound,
    build_distance_matrix,
    christofides,
    compute_gap,
    convex_hull,
    convex_hull_tour,
    execution_error,
    expand_plan,
    generate_random_instance,
    invalid_solution,
    lundy_mees_step,
    minimum_spanning_tree,
    nn_seed_count,
    parameter_space,
    parse_plan,
    preset,
    race,
    refinement_loop,
    run_experiment,
    run_solver,
    sample_config,
    solve_sa,
    time_limit_for,
    tour_length,
    valid,
    validate_tour,
    write_csv,
)
from tsplab.refine import CORRECTION_SENTENCE, RefinementRequest
from tsplab.solvers import ALGORITHMS
from tsplab.solvers.sa import SaParams

from ._oracles import brute_force_optimum, minimum_spanning_tree_weight
from .conftest import random_matrix

STOCHASTIC_COMBOS = [
    (name, variant)
    for name, info in ALGORITHMS.items()
    if info.kind == "stochastic"
    for variant in info.variants
]


def test_c01_exact_solver_matches_permutation_oracle():
    checked = 0
    for i in range(20):
        n = 7 + i % 4
        d = random_matrix(n, 300 + i)
        optimum = brute_force_optimum(d)
        for variant in ("baseline", "enhanced_r1"):
            result = branch_and_bound(d, variant=variant)
            assert result.proven_optimal
            assert result.best_cost == pytest.approx(optimum, rel=1e-9)
        checked += 1
    assert checked == 20
    print("criterion 1 PASS: 20/20 instances match the permutation oracle")


def test_c02_enhanced_bb_expands_fewer_nodes():
    wins = 0
    base_nodes, enh_nodes = [], []
    for i in range(30):
        n = 10 + i % 3
        d = random_matrix(n, 100 + i)
        base = branch_and_bound(d, variant="baseline")
        enh = branch_and_bound(d, variant="enhanced_r1")
        base_nodes.append(base.nodes_expanded)
        enh_nodes.append(enh.nodes_expanded)
        wins += enh.nodes_expanded <= base.nodes_expanded
    assert wins >= 24  # at least 80% of 30
    assert statistics.median(enh_nodes) < statistics.median(base_nodes)
    print(f"criterion 2 PASS: enhanced wins {wins}/30, median nodes "
          f"{statistics.median(enh_nodes):.0f} vs {statistics.median(base_nodes):.0f}")


def test_c03_variant_cost_equivalence_exact():
    for i in range(12):
        n = 7 + i % 6
        d = random_matrix(n, 500 + i)
        base = branch_and_bound(d, variant="baseline")
        enh = branch_and_bound(d, variant="enhanced_r1")
        assert base.best_cost == enh.best_cost  # exact float equality
    print("criterion 3 PASS: baseline and enhanced costs identical on 12/12")


def test_c04_stochastic_validity_fuzz():
    rng = np.random.default_rng(2024)
    for i in range(1000):
        algorithm, variant = STOCHASTIC_COMBOS[i % len(STOCHASTIC_COMBOS)]
        n = int(rng.integers(5, 31))
        inst = generate_random_instance(n, int(rng.integers(0, 10_000)), (0.0, 100.0))
        d = build_distance_matrix(inst)
        cfg = sample_config(parameter_space(algorithm), int(rng.integers(0, 2**31)))
        budget = SolveBudget(time_limit=1.0,
                             max_evaluations=int(rng.integers(50, 501)))
        out = run_solver(algorithm, inst, d, cfg.values, variant, budget,
                         int(rng.integers(0, 2**31)))
        assert validate_tour(out.best, n).ok, (algorithm, variant, n)
        recomputed = tour_length(out.best, d)
        assert abs(recomputed - out.best_cost) <= 1e-9 * max(1.0, abs(recomputed))
    print("criterion 4 PASS: 1000/1000 fuzzed runs returned valid, "
          "correctly costed tours")


def test_c05_small_instance_convergence():
    inst = generate_random_instance(6, 42, (0.0, 100.0))
    d = build_distance_matrix(inst)
    optimum = brute_force_optimum(d)
    # per-family evaluation caps, all comfortably inside a 5-second budget
    caps = {"aco": 2000, "ga": 6000, "alns": 4000, "tabu": 6000,
            "sa": 20000, "qlearning": 20000, "sarsa": 20000}
    scoreboard = {}
    for algorithm, variant in STOCHASTIC_COMBOS:
        values = dict(preset(algorithm, "original").values)
        budget = SolveBudget(time_limit=5.0, max_evaluations=caps[algorithm])
        hits = 0
        for seed in range(20):
            out = run_solver(algorithm, inst, d, values, variant, budget, seed)
            if abs(out.best_cost - optimum) <= 1e-9 * optimum:
                hits += 1
        scoreboard[(algorithm, variant)] = hits
        assert hits >= 18, f"{algorithm}/{variant} found the optimum {hits}/20"
    summary = ", ".join(f"{a}/{v}={h}" for (a, v), h in scoreboard.items())
    print(f"criterion 5 PASS: {summary}")


def test_c06_ga_hybrid_beats_baseline_at_equal_budget():
    inst = generate_random_instance(100, 7, (0.0, 100.0))
    d = build_distance_matrix(inst)
    values = dict(preset("ga", "original").values)
    budget = SolveBudget(time_limit=120.0, max_evaluations=10_000)
    medians = {}
    for variant in ("baseline", "hybrid_r1"):
        costs = [
            run_solver("ga", inst, d, values, variant, budget, seed).best_cost
            for seed in range(20)
        ]
        medians[variant] = statistics.median(costs)
    assert medians["hybrid_r1"] <= medians["baseline"]
    print(f"criterion 6 PASS: hybrid median {medians['hybrid_r1']:.1f} <= "
          f"baseline median {medians['baseline']:.1f}")


def test_c07_nn_seed_count_rule():
    expected = {4: 0, 5: 1, 10: 2, 97: 19}
    for population, want in expected.items():
        assert nn_seed_count(population) == want
    print("criterion 7 PASS: NN seed counts match for N in {4, 5, 10, 97}")


def test_c08_lundy_mees_formula_and_monotone_temperatures():
    assert lundy_mees_step(10.0, 0.05) == pytest.approx(6.6667, abs=1e-4)
    assert lundy_mees_step(10.0, 0.05) == pytest.approx(10.0 / 1.5, abs=1e-9)
    d = random_matrix(6, 3)
    params = SaParams(t_start=10.0, t_final=0.01, cooling_rate=0.95)
    trace: list[float] = []
    solve_sa(d, params, SolveBudget(time_limit=5.0, max_evaluations=2000),
             seed=1, variant="lundy_mees_r1", temperature_trace=trace)
    assert len(trace) > 2
    assert all(b < a for a, b in zip(trace, trace[1:]))
    print(f"criterion 8 PASS: step formula exact, {len(trace)} temperatures "
          "strictly decreasing")


def test_c09_boltzmann_math():
    probs = boltzmann_probabilities([0.0, math.log(2.0)], 1.0)
    assert abs(probs[0] - 1 / 3) <= 1e-12 and abs(probs[1] - 2 / 3) <= 1e-12

    rng = np.random.default_rng(99)
    for _ in range(1000):
        q = rng.uniform(-10, 10, size=int(rng.integers(1, 12)))
        tau = float(rng.uniform(0.05, 5.0))
        p = boltzmann_probabilities(q, tau)
        assert abs(float(np.sum(p)) - 1.0) <= 1e-12
        shift = float(rng.uniform(-5, 5))
        assert np.allclose(p, boltzmann_probabilities(q + shift, tau),
                           rtol=0.0, atol=1e-12)

    concentrated = boltzmann_probabilities([1.0, 2.0, 3.0], 1e-3)
    assert concentrated[2] >= 1.0 - 1e-6
    print("criterion 9 PASS: closed form, normalization, shift invariance, "
          "low-temperature concentration")


def test_c10_christofides_bound_and_mst_oracle():
    for i in range(30):
        n = 6 + i % 5
        d = random_matrix(n, 700 + i)
        tour = christofides(d)
        assert validate_tour(tour, n).ok
        assert tour_length(tour, d) <= 2.0 * brute_force_optimum(d) + 1e-9
    for i in range(10):
        n = 4 + i % 5
        d = random_matrix(n, 800 + i)
        weight = sum(w for _, _, w in minimum_spanning_tree(d))
        assert weight == pytest.approx(minimum_spanning_tree_weight(d), rel=1e-12)
    print("criterion 10 PASS: 30/30 tours within 2x optimum, "
          "10/10 MST weights match enumeration")


def test_c11_hull_order_preserved_in_tour():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 50:
        n = int(rng.integers(5, 30))
        seed = int(rng.integers(0, 100_000))
        inst = generate_random_instance(n, seed, (0.0, 100.0))
        d = build_distance_matrix(inst)
        hull = convex_hull(inst.coords)
        tour = convex_hull_tour(inst, d)
        on_hull = [c for c in tour if c in set(hull)]
        k = on_hull.index(hull[0])
        assert on_hull[k:] + on_hull[:k] == hull
        checked += 1
    print("criterion 11 PASS: hull cyclic order preserved on 50/50 point sets")


def test_c12_harness_protocol_fidelity():
    assert time_limit_for(99, 1.0) == 99

    plan = parse_plan(
        "repetitions = 30\nbase_seed = 11\ntime_scale = 0.2\n"
        "[instances]\nrandom n=5 seed=1\nrandom n=6 seed=2\n"
        "[algorithms]\nqlearning\nsarsa\n"
    )
    specs = expand_plan(plan, ["a", "b"], [5, 6])
    assert len(specs) == 120

    det = parse_plan(
        "repetitions = 30\n[instances]\nrandom n=5 seed=1\nrandom n=6 seed=2\n"
        "[algorithms]\nchristofides\n"
    )
    assert len(expand_plan(det, ["a", "b"], [5, 6])) == 2

    first = run_experiment(plan)
    second = run_experiment(plan)
    assert len(first) == 120

    def cost_column(records):
        return "\n".join(line.split(",")[7]
                         for line in write_csv(records).splitlines()[1:])

    assert cost_column(first) == cost_column(second)
    print("criterion 12 PASS: limits, counting rules, and a byte-identical "
          "rerun of a 120-row plan")


def test_c13_gap_sign_convention():
    assert compute_gap(100.0, 90.0) == 10.0
    print("criterion 13 PASS: compute_gap(100, 90) = +10.0")


def test_c14_preset_cells_exact():
    assert preset("aco", "original").values["ants"] == 7
    assert preset("ga", "r1").values["population_size"] == 58
    assert preset("sa", "original").values["cooling_rate"] == 0.9895
    assert preset("tabu", "gemini").values["tenure"] == 30
    assert preset("qlearning", "original").values["episodes"] == 4266
    assert preset("sarsa", "o1").values["learning_rate"] == 0.41
    print("criterion 14 PASS: six embedded preset cells exact")


def test_c15_refinement_loop_scenarios():
    started = time.perf_counter()
    request = RefinementRequest(
        algorithm_name="Simulated Annealing",
        main_signature="def simulated_annealing(d, t0):",
        code="def simulated_annealing(d, t0):\n    pass\n",
    )

    def scripted(verdicts, calls):
        feed = iter(verdicts)

        def evaluator(payload, temperature, feedback):
            calls.append({"temperature": temperature, "feedback": feedback})
            return f"candidate-{len(calls)}", next(feed)

        return evaluator

    # (a) success on the first try
    report = refinement_loop(request, evaluator=scripted([valid()], []))
    assert report.succeeded and report.attempts == 1

    # (b) two execution errors then success, error text threaded as feedback
    calls = []
    report = refinement_loop(request, evaluator=scripted(
        [execution_error("ZeroDivisionError: division by zero"),
         execution_error("TypeError: bad operand"), valid()], calls))
    assert report.succeeded and report.corrections == 2
    assert calls[1]["feedback"] == "ZeroDivisionError: division by zero"
    assert calls[2]["feedback"] == "TypeError: bad operand"

    # (c) invalid solution feeds the verbatim correction sentence
    calls = []
    report = refinement_loop(request, evaluator=scripted(
        [invalid_solution(), valid()], calls))
    assert calls[1]["feedback"] == CORRECTION_SENTENCE

    # (d) temperatures non-increasing with floor clamp
    calls = []
    schedule = TemperatureSchedule(start=1.0, decrement=0.3, floor=0.25,
                                   max_attempts=5)
    report = refinement_loop(request, schedule=schedule, evaluator=scripted(
        [execution_error("e")] * 5, calls))
    temps = [o.temperature for o in report.outcomes]
    assert temps == sorted(temps, reverse=True)
    assert min(temps) == 0.25

    # (e) exhaustion at max_attempts
    report = refinement_loop(
        request, schedule=TemperatureSchedule(max_attempts=4),
        evaluator=scripted([execution_error("boom")] * 4, []))
    assert not report.succeeded and report.attempts == 4

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"criterion 15 PASS: five scripted scenarios in {elapsed * 1000:.0f} ms")


def test_c16_tuner_race_and_sampling():
    insts = [generate_random_instance(8, 60 + i, (0.0, 100.0)) for i in range(2)]

    for race_seed in range(10):
        def runner(config, inst, run_seed):
            return float(config.values["tenure"])  # lower tenure always wins

        winner, state = race("tabu", instances=insts, budget=64, candidates=4,
                             seed=race_seed, runner=runner)
        dominant = min(state.configs, key=lambda c: c.values["tenure"])
        assert winner.values == dominant.values
        assert state.spent <= 64
        assert state.spent == sum(len(v) for v in state.costs.values())
        assert len(state.alive) == 1 or state.spent + len(state.alive) > 64

    rng = np.random.default_rng(5)
    names = sorted(parameter_space(a).algorithm for a in
                   ("aco", "ga", "alns", "tabu", "sa", "qlearning", "sarsa"))
    for _ in range(1000):
        algorithm = names[int(rng.integers(0, len(names)))]
        space = parameter_space(algorithm)
        cfg = sample_config(space, int(rng.integers(0, 2**31)))
        for p in space.params:
            assert p.lo <= cfg.values[p.name] <= p.hi
    print("criterion 16 PASS: dominant config won 10/10 races, "
          "1000 sampled configs in range")
