"""RunTracker.evaluate is the one place a complete tour is costed, counted
and offered; the plan, instance-line and CSV readers reject malformed input
with a ValueError (exit 2 on the command line)."""

import random
import re
from collections import Counter
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ._oracles import reference_most_shared_cost, reference_roulette, tour_cost
from tsplab import (
    CSV_HEADER,
    ExperimentPlan,
    InstanceSpec,
    SolveBudget,
    build_distance_matrix,
    generate_random_instance,
    parse_plan,
    read_csv,
    render_instance,
    run_experiment,
    run_solver,
    tour_length,
)
from tsplab import bench
from tsplab.bench import _parse_algorithm_line, _parse_instance_line
from tsplab.cli import main
from tsplab.solvers.base import RunTracker
from tsplab.solvers.ga import GaParams, _refresh_duplicates
from tsplab.tours import roulette

INST = generate_random_instance(9, 4)
MATRIX = build_distance_matrix(INST)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- RunTracker.evaluate --------------------------------------------------------


@pytest.mark.parametrize("seed", range(5))
def test_evaluate_costs_counts_and_offers(seed):
    rng = random.Random(seed)
    tracker = RunTracker(SolveBudget(max_evaluations=100))
    for k in range(40):
        tour = list(range(INST.dimension))
        rng.shuffle(tour)
        before = tracker.best_cost
        cost, is_new_best = tracker.evaluate(tour, MATRIX)
        assert tracker.evaluations == k + 1
        assert cost == tour_length(tour, MATRIX)
        assert cost == pytest.approx(tour_cost(tour, MATRIX), rel=1e-12)
        assert is_new_best == (cost < before)
        if is_new_best:
            assert tracker.best == tour and tracker.best is not tour
    costs = [c for _, c in tracker.trajectory]
    assert all(a > b for a, b in zip(costs, costs[1:]))
    assert costs[-1] == tracker.best_cost


def test_evaluate_keeps_a_tied_tour_out():
    tracker = RunTracker(SolveBudget(max_evaluations=10))
    tour = list(range(INST.dimension))
    assert tracker.evaluate(tour, MATRIX)[1] is True
    assert tracker.evaluate(tour[::-1], MATRIX) == (tracker.best_cost, False)
    assert tracker.evaluations == 2
    assert len(tracker.trajectory) == 1


@pytest.mark.parametrize("algorithm", ["christofides", "convex_hull"])
def test_deterministic_run_reports_one_evaluation(algorithm):
    result = run_solver(algorithm, INST, MATRIX, None, "baseline", None, 0)
    assert result.evaluations == 1
    assert len(result.trajectory) == 1
    (t, cost), = result.trajectory
    assert cost == result.best_cost
    assert 0.0 <= t <= result.elapsed


# -- the standard-library forms of two hand-rolled loops ------------------------

_WEIGHT = st.sampled_from([0.0, 1e-300, 3.0]) | st.floats(0.0, 3.0)


@settings(max_examples=300, deadline=None)
@given(st.lists(_WEIGHT, min_size=2, max_size=3), st.integers(0, 2**32))
def test_roulette_draws_as_the_reference_loop(weights, seed):
    rng, ref = random.Random(seed), random.Random(seed)
    for _ in range(5):
        assert roulette(list(accumulate(weights)), rng) == reference_roulette(weights, ref)
    assert rng.random() == ref.random()  # same stream position


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([1.0, 2.0, 3.0, 4.0]), min_size=1, max_size=12))
def test_most_common_cost_keeps_the_first_tie(costs):
    assert Counter(costs).most_common(1)[0] == reference_most_shared_cost(costs)


def test_refresh_replaces_all_but_one_of_the_first_tied_cost():
    d = MATRIX
    pop = [list(range(9)) for _ in range(6)]
    costs = [5.0, 5.0, 7.0, 7.0, 9.0, 1.0]
    tracker = RunTracker(SolveBudget(max_evaluations=100))
    _refresh_duplicates(pop, costs, d, 9, GaParams(6, 0.1, 1, 0.3), random.Random(0), tracker)
    assert tracker.evaluations == 1
    assert costs[0] == 5.0 and costs[2:] == [7.0, 7.0, 9.0, 1.0]
    assert costs[1] == tour_length(pop[1], d)


def test_stochastic_run_needs_a_budget():
    with pytest.raises(ValueError, match="sa needs a budget"):
        run_solver("sa", INST, MATRIX, None, "baseline", None, 0)
    with pytest.raises(ValueError, match="budget needs a time limit or an evaluation cap"):
        SolveBudget()


# -- plan and instance lines ------------------------------------------------------

BAD_PLANS = {
    "unknown header key": ("time_scal = 0.01\n[instances]\nrandom n=5 seed=1\n",
                           "unknown key 'time_scal'"),
    "unknown instance key": ("[instances]\nrandom n=5 sed=4\n", "unknown key 'sed'"),
    "missing n": ("[instances]\nrandom seed=4\n", "missing key 'n'"),
    "missing seed": ("[instances]\nrandom n=5\n", "missing key 'seed'"),
}


@pytest.mark.parametrize("case", BAD_PLANS)
def test_plan_rejects_missing_and_unknown_keys(case):
    text, message = BAD_PLANS[case]
    with pytest.raises(ValueError, match=message) as info:
        parse_plan(text + "[algorithms]\nchristofides\n")
    assert "valid: " in str(info.value)


@pytest.mark.parametrize("case", BAD_PLANS)
def test_bench_cli_rejects_missing_and_unknown_keys(capsys, tmp_path, case):
    text, message = BAD_PLANS[case]
    plan = tmp_path / "plan.txt"
    plan.write_text(text + "[algorithms]\nchristofides\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "bench", "--plan", str(plan))
    assert code == 2
    assert err.startswith("error: ") and message in err
    assert out == ""


@pytest.mark.parametrize("line, message", [
    ("random seed=3", "missing key 'n'"),
    ("random n=6 seed=3 hi=50 high=9", "unknown key 'high'"),
])
def test_tune_cli_rejects_bad_instance_lines(capsys, line, message):
    with pytest.raises(ValueError, match=message):
        _parse_instance_line(line)
    code, out, err = run_cli(capsys, "tune", "--algorithm", "aco", "--instances", line)
    assert code == 2
    assert "error: " in err and message in err
    assert out == ""


_QUICK = "repetitions = 1\ntime_scale = 0.05\n"
_PLAN_TAIL = "[instances]\nrandom n=5 seed=1\n[algorithms]\nchristofides\n"

REPEATED_KEYS = {
    "header": (_QUICK + "time_scale = 0.1\n" + _PLAN_TAIL, "repeated key 'time_scale'"),
    "instance line": (_QUICK + "[instances]\nrandom n=5 n=6 seed=1\n[algorithms]\nchristofides\n",
                      "repeated key 'n'"),
    "algorithm line": (_QUICK + _PLAN_TAIL + "aco ants=2 ants=3\n", "repeated key 'ants'"),
}


@pytest.mark.parametrize("case", REPEATED_KEYS)
def test_plan_rejects_repeated_keys(capsys, tmp_path, case):
    text, message = REPEATED_KEYS[case]
    with pytest.raises(ValueError, match=message):
        parse_plan(text)
    plan = tmp_path / "plan.txt"
    plan.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "bench", "--plan", str(plan))
    assert code == 2
    assert err.startswith("error: ") and message in err
    assert out == ""


@pytest.mark.parametrize("header, message", [
    ("repetitions 1\n", "expected key=value in plan header, got 'repetitions 1'"),
    ("repetitions = 1\nrepetitions = 2\n", "repeated key 'repetitions' in plan header"),
], ids=["no equals sign", "repeated key"])
def test_plan_header_error_wins_over_a_later_section_error(capsys, tmp_path, header, message):
    # The algorithm line is malformed too; the header comes first in the file,
    # so its error is the one reported.
    text = header + _PLAN_TAIL + "sa t_start\n"
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_plan(text)
    plan = tmp_path / "plan.txt"
    plan.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "bench", "--plan", str(plan))
    assert code == 2
    assert err == f"error: {message}\n" and out == ""


def test_tune_cli_rejects_a_repeated_instance_key(capsys):
    code, out, err = run_cli(capsys, "tune", "--algorithm", "aco", "--budget", "4",
                             "--candidates", "2", "--time-scale", "0.05",
                             "--instances", "random n=5 seed=1 seed=2")
    assert code == 2
    assert "error: " in err and "repeated key 'seed'" in err
    assert out == ""


@pytest.mark.parametrize("line, message", [
    ("tabu tenure=0", "tenure must be >= 1"),
    ("aco ants=0", "ants must be >= 1"),
    ("sa t_start=1 t_final=2", "t_start > t_final"),
    ("ga population_size=1e400", "ga parameter population_size must be finite"),
    ("alns reaction_factor=nan", "alns parameter reaction_factor must be finite"),
    ("sa t_start", "expected key=value in algorithm line sa, got 't_start'"),
    ("aco evaporation_rate=1", "evaporation_rate must be in"),
    ("alns removal_fraction=0", "removal_fraction must be in"),
    ("alns reaction_factor=1.5", "reaction_factor must be in"),
    ("ga mutation_rate=2", "mutation_rate must be in"),
    ("sarsa epsilon=1.5", "epsilon must be in"),
    ("sa t_start=abc", "sa parameters: t_start must be a number, got 'abc'"),
    ("ga population_size=40.6", "ga parameter population_size must be a whole number, got 40.6"),
    ("aco ants=2.5", "aco parameter ants must be a whole number, got 2.5"),
])
def test_bad_parameter_values_stop_the_plan_before_any_run(capsys, tmp_path, line, message):
    text = _QUICK + _PLAN_TAIL + line + "\n"
    with pytest.raises(ValueError, match=message):
        parse_plan(text)
    plan, rows = tmp_path / "plan.txt", tmp_path / "rows.csv"
    plan.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "bench", "--plan", str(plan), "--out-csv", str(rows))
    assert code == 2
    assert err.startswith("error: ") and message in err
    assert out == "" and not rows.exists()


@pytest.mark.parametrize("text, message", [
    ("repetitions = 0\n" + _PLAN_TAIL, "repetitions must be >= 1, got 0"),
    (_QUICK + "metric = mean\n" + _PLAN_TAIL, "metric must be best_cost or runtime, got 'mean'"),
    (_QUICK + _PLAN_TAIL.replace("seed=1", "seed=1 lo=5 hi=1"),
     "empty coordinate range: lo=5.0 > hi=1.0"),
    ("repetitions = 1.5\n" + _PLAN_TAIL, "plan header: repetitions must be an integer, got '1.5'"),
    (_QUICK + _PLAN_TAIL.replace("seed=1", "seed=x"),
     "instance line 'random n=5 seed=x': seed must be an integer, got 'x'"),
], ids=["repetitions", "metric", "lo above hi", "repetitions not an integer", "seed not an integer"])
def test_bench_cli_rejects_bad_header_and_instance_values(capsys, tmp_path, text, message):
    plan, rows = tmp_path / "plan.txt", tmp_path / "rows.csv"
    plan.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "bench", "--plan", str(plan), "--out-csv", str(rows))
    assert code == 2
    assert f"error: {message}" in err
    assert out == "" and not rows.exists()


def test_every_documented_key_still_parses():
    plan = parse_plan("repetitions = 3\nbase_seed = 11\ntime_scale = 0.5\n"
                      "metric = runtime\nrounding = tsplib_nint\n"
                      "[instances]\nrandom n=40 seed=0\nrandom n=60 seed=1 lo=0 hi=500\n"
                      "[algorithms]\nchristofides\n")
    assert (plan.repetitions, plan.base_seed, plan.time_scale, plan.metric, plan.rounding) == (
        3, 11, 0.5, "runtime", "tsplib_nint")
    assert [(s.n, s.seed, s.lo, s.hi) for s in plan.instances] == [
        (40, 0, 0.0, 100.0), (60, 1, 0.0, 500.0)]
    default = parse_plan("[instances]\nrandom n=5 seed=1\n[algorithms]\nchristofides\n")
    assert (default.repetitions, default.base_seed, default.time_scale,
            default.metric, default.rounding) == (30, 0, 1.0, "best_cost", "none")


# -- one plan line per (algorithm, variant) -------------------------------------------

REPEATED_PAIRS = {
    "qlearning": (["qlearning episodes=3", "qlearning episodes=2"], "('qlearning', 'baseline')"),
    "sa presets": (["sa preset=original", "sa preset=r1"], "('sa', 'baseline')"),
    "christofides": (["christofides", "christofides"], "('christofides', 'baseline')"),
}


@pytest.mark.parametrize("case", REPEATED_PAIRS)
def test_plan_rejects_a_repeated_algorithm_variant(case):
    lines, pair = REPEATED_PAIRS[case]
    message = re.escape(f"(algorithm, variant) {pair} more than once")
    with pytest.raises(ValueError, match=message):
        parse_plan(_QUICK + "[instances]\nrandom n=5 seed=1\n[algorithms]\n"
                   + "".join(f"{line}\n" for line in lines))
    with pytest.raises(ValueError, match=message):
        ExperimentPlan(instances=[InstanceSpec("random", n=5, seed=1)],
                       algorithms=[_parse_algorithm_line(line) for line in lines])


@pytest.mark.parametrize("case", REPEATED_PAIRS)
def test_bench_cli_rejects_a_repeated_algorithm_variant(capsys, tmp_path, case):
    # The instance file does not exist: the plan is refused before any
    # instance is read.
    lines, pair = REPEATED_PAIRS[case]
    plan, rows, report = tmp_path / "plan.txt", tmp_path / "rows.csv", tmp_path / "report.json"
    plan.write_text(_QUICK + f"[instances]\nfile {tmp_path / 'absent.tsp'}\n[algorithms]\n"
                    + "".join(f"{line}\n" for line in lines), encoding="utf-8")
    code, out, err = run_cli(capsys, "bench", "--plan", str(plan),
                             "--out-csv", str(rows), "--out-json", str(report))
    assert code == 2
    assert err.startswith("error: ") and f"(algorithm, variant) {pair} more than once" in err
    assert out == "" and not rows.exists() and not report.exists()


def test_variants_of_one_algorithm_share_a_plan():
    plan = parse_plan(_QUICK + "[instances]\nrandom n=5 seed=1\n[algorithms]\n"
                      "sa\nsa variant=lundy_mees_r1\nsarsa\nsarsa variant=boltzmann_o1\n")
    assert [(a.algorithm, a.variant) for a in plan.algorithms] == [
        ("sa", "baseline"), ("sa", "lundy_mees_r1"),
        ("sarsa", "baseline"), ("sarsa", "boltzmann_o1")]


# -- duplicate instance names -------------------------------------------------------


def _two_unnamed_files(tmp_path):
    paths = []
    for k, seed in enumerate((1, 2)):
        text = render_instance(generate_random_instance(5, seed))
        text = "\n".join(line for line in text.splitlines() if not line.startswith("NAME"))
        path = tmp_path / f"city{k}.tsp"
        path.write_text(text + "\n", encoding="utf-8")
        paths.append(path)
    return "".join(f"file {p}\n" for p in paths)


def test_duplicate_instance_names_are_rejected(monkeypatch, tmp_path):
    built = []
    monkeypatch.setattr(bench, "build_distance_matrix",
                        lambda inst, rounding: built.append(inst.name))
    plan = parse_plan("repetitions = 1\n[instances]\n" + _two_unnamed_files(tmp_path)
                      + "[algorithms]\nchristofides\n")
    with pytest.raises(ValueError, match="share the name 'unnamed'"):
        run_experiment(plan)
    twice = parse_plan("[instances]\nrandom n=5 seed=1\nrandom n=5 seed=1\n"
                       "[algorithms]\nchristofides\n")
    with pytest.raises(ValueError, match="share the name 'rnd5-s1'"):
        run_experiment(twice)
    assert built == []  # the names are checked before any matrix is built


def test_random_lines_sharing_a_name_are_told_to_change_n_or_seed():
    # lo and hi move the cities but not the name rnd{n}-s{seed}; a random line has no NAME.
    plan = parse_plan("[instances]\nrandom n=6 seed=1\nrandom n=6 seed=1 lo=0 hi=500\n"
                      "[algorithms]\nchristofides\n")
    with pytest.raises(ValueError) as shared:
        run_experiment(plan)
    assert str(shared.value) == ("plan instances share the name 'rnd6-s1'; each file needs its "
                                 "own NAME and each random line its own (n, seed)")


def test_bench_cli_rejects_duplicate_instance_names(capsys, tmp_path):
    plan = tmp_path / "plan.txt"
    plan.write_text("repetitions = 1\n[instances]\n" + _two_unnamed_files(tmp_path)
                    + "[algorithms]\nchristofides\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "bench", "--plan", str(plan))
    assert code == 2
    assert "error: plan instances share the name 'unnamed'" in err
    assert out == ""


# -- ragged CSV rows ------------------------------------------------------------------

ROW = "sa,baseline,original,rnd5-s1,5,7,0,123.5,0.25,100,,ok"


@pytest.mark.parametrize("row, fields", [(ROW.rsplit(",", 5)[0], 7), (ROW + ",extra", 13)])
def test_read_csv_rejects_ragged_rows(row, fields):
    text = f"{CSV_HEADER}\n{ROW}\n{row}\n"
    with pytest.raises(ValueError, match=f"CSV line 3 has {fields} fields, expected 12"):
        read_csv(text)
    assert len(read_csv(f"{CSV_HEADER}\n{ROW}\n\n")) == 1


def test_gap_cli_rejects_ragged_rows(capsys, tmp_path):
    path = tmp_path / "runs.csv"
    path.write_text(f"{CSV_HEADER}\n{ROW.rsplit(',', 5)[0]}\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "gap", "--csv", str(path))
    assert code == 2
    assert "error: CSV line 2 has 7 fields, expected 12" in err
    assert out == ""


# -- repeated run keys in a CSV --------------------------------------------------------

# Rows that an earlier tsplab wrote for a plan with the two lines
# "qlearning episodes=3" and "qlearning episodes=2" (repetitions = 2):
# each (algorithm, variant, instance, rep) appears twice.
TWO_QLEARNING_LINES = f"""{CSV_HEADER}
qlearning,baseline,custom,rnd5-s1,5,7800623035905623970,0,247.9712924423154,7.923399971332401e-05,4,,ok
qlearning,baseline,custom,rnd5-s1,5,7800623035905623970,0,247.9712924423154,3.917200228897855e-05,3,,ok
qlearning,baseline,custom,rnd5-s1,5,622281081424468621,1,283.10630750867955,4.7445999371120706e-05,4,,ok
qlearning,baseline,custom,rnd5-s1,5,622281081424468621,1,283.10630750867955,2.5943001674022526e-05,3,,ok
"""
ONE_ROW_TWICE = f"{CSV_HEADER}\n{ROW}\n{ROW.replace(',0,123.5,', ',1,124.5,')}\n{ROW}\n"


@pytest.mark.parametrize("text, line, first, key", [
    (TWO_QLEARNING_LINES, 3, 2, "('qlearning', 'baseline', 'rnd5-s1', 0)"),
    (ONE_ROW_TWICE, 4, 2, "('sa', 'baseline', 'rnd5-s1', 0)"),
], ids=["two qlearning lines", "one row twice"])
def test_read_csv_rejects_a_repeated_run(capsys, tmp_path, text, line, first, key):
    message = f"CSV line {line} repeats the (algorithm, variant, instance, rep) {key} of line {first}"
    with pytest.raises(ValueError, match=re.escape(message)):
        read_csv(text)
    path = tmp_path / "runs.csv"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "gap", "--csv", str(path))
    assert code == 2
    assert f"error: {message}" in err
    assert out == ""


# -- cells write_csv never writes --------------------------------------------------------

NEVER_WRITTEN = {
    "nan cost": (ROW.replace(",123.5,", ",nan,"), "a non-finite best_cost nan"),
    "infinite cost": (ROW.replace(",123.5,", ",inf,"), "a non-finite best_cost inf"),
    "nan time": (ROW.replace(",0.25,", ",nan,"), "a non-finite elapsed_s nan"),
    "infinite time": (ROW.replace(",0.25,", ",-Infinity,"), "a non-finite elapsed_s -inf"),
    "unknown status": (ROW.replace(",ok", ",done"),
                       "status 'done'; expected one of ok, timeout_with_result, failed"),
    # summarize would drop a costless row without a word, and gap print a
    # median over fewer runs than the CSV holds.
    "ok without a cost": (ROW.replace(",123.5,", ",,"),
                          "status 'ok' without a best_cost; "
                          "a row has a best_cost exactly when its status is not failed"),
    "timeout without a cost": (ROW.replace(",123.5,", ",,").replace(",ok", ",timeout_with_result"),
                               "status 'timeout_with_result' without a best_cost; "
                               "a row has a best_cost exactly when its status is not failed"),
    "failed with a cost": (ROW.replace(",ok", ",failed"),
                           "status 'failed' with a best_cost; "
                           "a row has a best_cost exactly when its status is not failed"),
    "no city": (ROW.replace(",5,7,", ",0,7,"), "n 0; a run's n is at least 1"),
    "negative rep": (ROW.replace(",7,0,", ",7,-3,"), "rep -3; a run's rep is at least 0"),
    "negative time": (ROW.replace(",0.25,", ",-2.0,"), "elapsed_s -2.0; a run's elapsed_s is at least 0"),
    "negative evaluations": (ROW.replace(",100,", ",-7,"),
                             "evaluations -7; a run's evaluations is at least 0"),
    "negative nodes": (ROW.replace(",100,,", ",100,-1,"),
                       "nodes_expanded -1; a run's nodes_expanded is at least 0"),
    "empty algorithm": (ROW.replace("sa,", ",", 1), "an empty algorithm"),
    "empty variant": (ROW.replace(",baseline,", ",,"), "an empty variant"),
    "empty config_id": (ROW.replace(",original,", ",,"), "an empty config_id"),
    "empty instance": (ROW.replace(",rnd5-s1,", ",,"), "an empty instance"),
}


@pytest.mark.parametrize("case", NEVER_WRITTEN)
def test_read_csv_rejects_cells_write_csv_never_writes(capsys, tmp_path, case):
    # gap would print NaN or Infinity, which is not JSON, or group an unknown status.
    row, what = NEVER_WRITTEN[case]
    text = f"{CSV_HEADER}\n{ROW.replace(',0,', ',1,')}\n{row}\n"
    message = f"CSV line 3 has {what}"
    with pytest.raises(ValueError, match=re.escape(message)):
        read_csv(text)
    path = tmp_path / "runs.csv"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "gap", "--csv", str(path))
    assert code == 2
    assert f"error: {message}" in err
    assert out == ""


def test_read_csv_names_the_line_and_column_of_a_cell_that_does_not_convert(capsys, tmp_path):
    text = f"{CSV_HEADER}\n{ROW.replace(',0,', ',1,')}\n{ROW.replace(',5,', ',x,')}\n"
    message = "CSV line 3: n must be an integer, got 'x'"
    with pytest.raises(ValueError, match=re.escape(message)):
        read_csv(text)
    path = tmp_path / "runs.csv"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "gap", "--csv", str(path))
    assert code == 2
    assert err == f"error: {message}\n" and out == ""


# -- plan rounding ----------------------------------------------------------------------


def test_plan_rejects_an_unknown_rounding(capsys, tmp_path):
    # The instance file does not exist: the rounding is refused before any
    # instance is read.
    text = f"rounding = bogus\n[instances]\nfile {tmp_path / 'absent.tsp'}\n[algorithms]\nchristofides\n"
    message = "rounding must be one of ('none', 'tsplib_nint'), got 'bogus'"
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_plan(text)
    plan = tmp_path / "plan.txt"
    plan.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "bench", "--plan", str(plan))
    assert code == 2
    assert f"error: {message}" in err
    assert out == ""
