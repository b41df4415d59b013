import dataclasses
import itertools
import json
import statistics
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsplab import (
    ALGORITHMS,
    CSV_HEADER,
    AlgorithmSpec,
    ExperimentPlan,
    InstanceSpec,
    RunRecord,
    RunSpec,
    SolveBudget,
    UnknownAlgorithm,
    UnknownParameter,
    ZeroBaseline,
    build_distance_matrix,
    compute_gap,
    expand_plan,
    gap_table,
    json_report,
    order_statistics,
    parse_plan,
    read_csv,
    run_experiment,
    stable_hash,
    summarize,
    time_limit_for,
    write_csv,
)
from tsplab import bench
from tsplab.bench import run_order
from tsplab.cli import main

PLAN_TEXT = """\
# toy experiment
repetitions = 2
base_seed = 7
time_scale = 0.05   # keeps every limit at 1 second for these sizes

[instances]
random n=5 seed=3
random n=6 seed=4 lo=10 hi=20

[algorithms]
tabu preset=original
christofides
ga variant=hybrid_r1 preset=r1
"""


class TestTimeLimit:
    def test_examples(self):
        assert time_limit_for(99, 1.0) == 99
        assert time_limit_for(280, 0.1) == 28
        assert time_limit_for(99, 0.001) == 1

    def test_result_is_integral_seconds(self):
        assert isinstance(time_limit_for(10, 0.25), int)
        assert time_limit_for(10, 0.25) == 3

    def test_errors(self):
        with pytest.raises(ValueError):
            time_limit_for(0, 1.0)
        with pytest.raises(ValueError):
            time_limit_for(10, 0.0)
        with pytest.raises(ValueError):
            time_limit_for(10, -1.0)

    # inf overflowed math.ceil, NaN failed it with an unnamed message, and
    # 1e308 * 10 overflows to inf.
    @pytest.mark.parametrize("scale", [float("inf"), float("nan"), 1e308])
    def test_non_finite_scale_names_the_field(self, scale):
        with pytest.raises(ValueError, match="time_scale must be positive and finite"):
            time_limit_for(10, scale)

    @pytest.mark.parametrize("field,value", [
        ("time_limit", float("nan")), ("time_limit", float("inf")),
        ("max_evaluations", float("nan")), ("max_evaluations", float("inf")),
    ])
    def test_non_finite_solve_budget_names_the_field(self, field, value):
        # A NaN limit compares false to every elapsed time: the run never stops.
        with pytest.raises(ValueError, match=f"{field} must be"):
            SolveBudget(**{field: value})

    @pytest.mark.parametrize("scale", ["inf", "nan", "-inf"])
    def test_non_finite_plan_scale_names_the_field(self, scale):
        with pytest.raises(ValueError, match="time_scale must be positive and finite"):
            parse_plan(f"time_scale = {scale}\n[instances]\nrandom n=5 seed=0\n[algorithms]\nsa\n")
        with pytest.raises(ValueError, match="time_scale must be positive and finite"):
            ExperimentPlan(instances=[], algorithms=[], time_scale=float(scale))


class TestComputeGap:
    def test_sign_convention(self):
        assert compute_gap(100.0, 90.0) == pytest.approx(10.0)
        assert compute_gap(100.0, 100.0) == 0.0
        assert compute_gap(100.0, 110.0) == pytest.approx(-10.0)

    def test_zero_baseline(self):
        with pytest.raises(ZeroBaseline):
            compute_gap(0.0, 5.0)
        with pytest.raises(ZeroBaseline):
            compute_gap(-3.0, 5.0)


class TestOrderStatistics:
    def test_even_count_convention(self):
        assert order_statistics([4.0, 2.0, 1.0, 3.0]) == (1.0, 1.5, 2.5, 3.5, 4.0)

    def test_single_value(self):
        assert order_statistics([7.0]) == (7.0, 7.0, 7.0, 7.0, 7.0)

    def test_odd_count_excludes_median(self):
        assert order_statistics([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.0, 1.5, 3.0, 4.5, 5.0)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_monotone_and_matches_stdlib_median(self, values):
        mn, q1, med, q3, mx = order_statistics(values)
        assert mn <= q1 <= med <= q3 <= mx
        assert med == pytest.approx(statistics.median(values), rel=1e-12, abs=1e-12)
        s = sorted(values)
        if len(s) > 1:
            assert q1 == pytest.approx(statistics.median(s[: len(s) // 2]))
            assert q3 == pytest.approx(statistics.median(s[(len(s) + 1) // 2 :]))


class TestParsePlan:
    def test_full_plan(self):
        plan = parse_plan(PLAN_TEXT)
        assert plan.repetitions == 2
        assert plan.base_seed == 7
        assert plan.time_scale == 0.05
        assert plan.metric == "best_cost"
        assert plan.rounding == "none"
        assert plan.instances == [
            InstanceSpec(source="random", n=5, seed=3),
            InstanceSpec(source="random", n=6, seed=4, lo=10.0, hi=20.0),
        ]
        tabu, chris, ga = plan.algorithms
        assert tabu.config_id == "original" and tabu.values == {"tenure": 8}
        assert chris == AlgorithmSpec("christofides", "baseline", "default", {})
        assert ga.variant == "hybrid_r1" and ga.config_id == "r1"
        assert ga.values["population_size"] == 58

    def test_defaults(self):
        plan = parse_plan("[instances]\nrandom n=5 seed=0\n[algorithms]\nsa\n")
        assert plan.repetitions == 30
        assert plan.base_seed == 0
        assert plan.time_scale == 1.0
        # tunable solvers with no explicit values run their original preset
        assert plan.algorithms[0].config_id == "original"
        assert plan.algorithms[0].values["t_start"] == 12

    def test_inline_values(self):
        plan = parse_plan(
            "[instances]\nrandom n=5 seed=0\n[algorithms]\ntabu tenure=9\n"
        )
        assert plan.algorithms[0].config_id == "custom"
        assert plan.algorithms[0].values == {"tenure": 9.0}

    def test_file_instance_line(self):
        plan = parse_plan("[instances]\nfile a.tsp\n[algorithms]\nchristofides\n")
        assert plan.instances[0] == InstanceSpec(source="file", path="a.tsp")

    @pytest.mark.parametrize("text,match", [
        ("[algorithms]\nsa\n", "no \\[instances\\]"),
        ("[instances]\nrandom n=5 seed=0\n", "no \\[algorithms\\]"),
        ("[fruit]\napple\n", "unknown plan section"),
        ("repetitions 30\n[instances]\nrandom n=5 seed=0\n[algorithms]\nsa\n",
         "key=value in plan header"),
        ("[instances]\nrandom n=5 seed=0\n[algorithms]\ntabu preset=original tenure=9\n",
         "not both"),
        ("[instances]\nrandom n=5 seed=0\n[algorithms]\ntabu variant=quantum\n",
         "no variant"),
        ("[instances]\nlattice n=5\n[algorithms]\nsa\n", "unknown instance source"),
        ("[instances]\nfile a.tsp b.tsp\n[algorithms]\nsa\n", "one path"),
    ])
    def test_rejects(self, text, match):
        with pytest.raises(ValueError, match=match):
            parse_plan(text)

    def test_unknown_algorithm(self):
        with pytest.raises(UnknownAlgorithm):
            parse_plan("[instances]\nrandom n=5 seed=0\n[algorithms]\nsimplex\n")

    @pytest.mark.parametrize("line,name", [
        ("tabu tenur=9", "tenur"),
        ("christofides tenure=9", "tenure"),
        ("ga variant=hybrid_r1 population_size=20 elite=2", "elite"),
    ])
    def test_unknown_parameter(self, line, name):
        text = f"[instances]\nrandom n=5 seed=0\n[algorithms]\n{line}\n"
        with pytest.raises(UnknownParameter, match=f"no parameter '{name}'"):
            parse_plan(text)
        with pytest.raises(ValueError):
            parse_plan(text)

    def test_untuned_field_is_a_valid_name(self):
        plan = parse_plan(
            "[instances]\nrandom n=5 seed=0\n[algorithms]\nga diversity_threshold=0.3\n"
        )
        assert plan.algorithms[0].config_id == "custom"
        assert plan.algorithms[0].values == {"diversity_threshold": 0.3}


class TestExpandPlan:
    def test_counting_rules(self):
        plan = ExperimentPlan(
            instances=[InstanceSpec("random", n=5, seed=0),
                       InstanceSpec("random", n=6, seed=1)],
            algorithms=[AlgorithmSpec("sa"), AlgorithmSpec("tabu")],
            repetitions=30,
        )
        specs = expand_plan(plan, ["a", "b"], [5, 6])
        assert len(specs) == 120  # 2 stochastic x 2 instances x 30 reps

    def test_deterministic_override(self):
        plan = ExperimentPlan(
            instances=[InstanceSpec("random", n=5, seed=s) for s in range(3)],
            algorithms=[AlgorithmSpec("christofides")],
            repetitions=30,
        )
        specs = expand_plan(plan, ["a", "b", "c"], [5, 5, 5])
        assert len(specs) == 3
        assert all(s.rep == 0 for s in specs)

    def test_seed_formula_and_time_limit(self):
        plan = ExperimentPlan(
            instances=[InstanceSpec("random", n=40, seed=0)],
            algorithms=[AlgorithmSpec("sa", "lundy_mees_r1", "original", {})],
            repetitions=2, base_seed=5, time_scale=0.1,
        )
        specs = expand_plan(plan, ["rnd40-s0"], [40])
        assert [s.seed for s in specs] == [
            stable_hash(5, "sa", "lundy_mees_r1", "rnd40-s0", 0),
            stable_hash(5, "sa", "lundy_mees_r1", "rnd40-s0", 1),
        ]
        assert all(s.time_limit == 4 for s in specs)


def _row(variant, rep, cost, status="ok", algorithm="ga", instance="x"):
    return RunRecord(algorithm=algorithm, variant=variant, config_id="c",
                     instance=instance, n=5, seed=rep, rep=rep, best_cost=cost,
                     elapsed_s=0.01, evaluations=10, nodes_expanded=None,
                     status=status)


class TestSummarize:
    def test_failed_rows_excluded_and_na(self):
        records = [
            _row("baseline", 0, 10.0),
            _row("baseline", 1, 12.0),
            _row("baseline", 2, None, status="failed"),
            _row("hybrid_r1", 0, None, status="failed"),
        ]
        stats = {(s.variant): s for s in summarize(records)}
        ok = stats["baseline"]
        assert ok.count == 2
        assert ok.median == pytest.approx(11.0)
        assert ok.stddev == pytest.approx(statistics.stdev([10.0, 12.0]))
        na = stats["hybrid_r1"]
        assert na.n_a and na.count == 0 and na.median is None

    def test_single_value_stddev_zero(self):
        stats = summarize([_row("baseline", 0, 5.0)])
        assert stats[0].stddev == 0.0
        assert stats[0].minimum == stats[0].maximum == 5.0

    def test_runtime_metric(self):
        records = [_row("baseline", r, 10.0 + r) for r in range(2)]
        stats = summarize(records, metric="runtime")
        assert stats[0].median == pytest.approx(0.01)


class TestGapTable:
    def test_positive_gap_for_better_variant(self):
        records = (
            [_row("baseline", r, 100.0 + r % 2) for r in range(4)]
            + [_row("hybrid_r1", r, 90.0 + r % 2) for r in range(4)]
        )
        rows = gap_table(records)
        assert len(rows) == 1
        row = rows[0]
        assert row["algorithm"] == "ga" and row["variant"] == "hybrid_r1"
        assert row["baseline_median"] == pytest.approx(100.5)
        assert row["gap_percent"] == pytest.approx(
            compute_gap(100.5, 90.5)
        )

    def test_variant_without_baseline_is_skipped(self):
        rows = gap_table([_row("hybrid_r1", 0, 90.0)])
        assert rows == []

    def test_zero_baseline_median_has_no_gap(self):
        records = [_row(v, r, c, instance=inst)
                   for inst, base, var in (("flat", 0.0, 0.0), ("x", 100.0, 90.0))
                   for v, c in (("baseline", base), ("hybrid_r1", var))
                   for r in range(3)]
        rows = {row["instance"]: row for row in gap_table(records)}
        assert rows["flat"]["gap_percent"] is None
        assert (rows["flat"]["baseline_median"], rows["flat"]["variant_median"]) == (0.0, 0.0)
        assert rows["x"]["gap_percent"] == compute_gap(100.0, 90.0)

    def test_medians_of_one_tour_read_from_two_starts_have_no_gap(self):
        # The two medians of one tour, summed from different starts.
        records = [_row(v, r, c) for v, c in (("baseline", 247.97166328923726),
                                              ("hybrid_r1", 247.97166328923728))
                   for r in range(3)]
        assert [row["gap_percent"] for row in gap_table(records)] == [0.0]

    def test_negative_baseline_median_still_raises(self):
        records = [_row(v, r, c) for v, c in (("baseline", -5.0), ("hybrid_r1", -6.0))
                   for r in range(3)]
        with pytest.raises(ZeroBaseline):
            gap_table(records)


@pytest.fixture(scope="module")
def tiny_plan():
    return parse_plan(
        "repetitions = 2\nbase_seed = 3\ntime_scale = 0.05\n"
        "[instances]\nrandom n=5 seed=3\n"
        "[algorithms]\ntabu preset=original\nchristofides\n"
    )


@pytest.fixture(scope="module")
def records(tiny_plan):
    return run_experiment(tiny_plan)


class TestRunExperiment:
    def test_row_shape(self, records):
        assert len(records) == 3  # 2 tabu reps + 1 christofides
        assert [r.algorithm for r in records] == ["christofides", "tabu", "tabu"]
        assert all(r.status == "ok" for r in records)
        assert all(r.instance == "rnd5-s3" and r.n == 5 for r in records)
        assert records[0].evaluations == 1

    def test_rerun_reproduces_costs(self, tiny_plan, records):
        again = run_experiment(tiny_plan)
        assert [r.best_cost for r in again] == [r.best_cost for r in records]
        assert [r.seed for r in again] == [r.seed for r in records]

    def test_workers_match_serial(self, tiny_plan, records):
        # evaluation counts under a wall-clock limit vary with machine load,
        # like elapsed_s; everything else must agree exactly
        parallel = run_experiment(tiny_plan, workers=2)

        def strip(r):
            return dataclasses.replace(r, elapsed_s=0.0, evaluations=0)

        assert [strip(r) for r in parallel] == [strip(r) for r in records]

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_rejected(self, tiny_plan, workers):
        with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
            run_experiment(tiny_plan, workers=workers)

    def test_csv_round_trip(self, records, tmp_path):
        path = tmp_path / "runs.csv"
        text = write_csv(records, str(path))
        assert text.splitlines()[0] == CSV_HEADER
        assert path.read_text(encoding="utf-8") == text
        assert read_csv(text) == records

    def test_json_report(self, tiny_plan, records):
        report = json_report(tiny_plan, records)
        assert report["schema"] == 1
        assert report["plan"]["repetitions"] == 2
        assert {s["algorithm"] for s in report["summary"]} == {"tabu", "christofides"}
        json.dumps(report)  # must be serializable as-is

    def test_failed_rows_recorded_not_raised(self, monkeypatch):
        # The run itself fails; bad parameter values never get this far, as
        # parse_plan rejects them.
        def crash(inst, d, params, variant, budget, seed):
            raise RuntimeError("solver crashed mid-run")

        monkeypatch.setitem(ALGORITHMS, "tabu", dataclasses.replace(ALGORITHMS["tabu"], run=crash))
        plan = parse_plan(
            "repetitions = 1\ntime_scale = 0.05\n"
            "[instances]\nrandom n=5 seed=3\n"
            "[algorithms]\ntabu\n"
        )
        records = run_experiment(plan)
        assert len(records) == 1
        assert records[0].status == "failed"
        assert records[0].best_cost is None
        assert read_csv(write_csv(records)) == records
        assert summarize(records)[0].n_a

    def test_exact_solver_cap_is_timeout_with_result(self):
        plan = parse_plan(
            "repetitions = 1\ntime_scale = 0.05\n"
            "[instances]\nrandom n=16 seed=0\n"
            "[algorithms]\nbranch_and_bound\n"
        )
        records = run_experiment(plan)
        assert len(records) == 1
        row = records[0]
        assert row.status == "timeout_with_result"
        assert row.best_cost is not None
        assert row.nodes_expanded > 0


class TestRunOrder:
    @given(st.lists(st.integers(1, 60), max_size=80))
    @settings(max_examples=300, deadline=None)
    def test_longest_limit_first_ties_in_plan_order(self, limits):
        # each run's seed is its plan position
        specs = [RunSpec(AlgorithmSpec("sa"), instance_index=i, rep=0, seed=i, time_limit=lim)
                 for i, lim in enumerate(limits)]
        order = [spec.seed for spec in run_order(specs)]
        assert sorted(order) == list(range(len(limits)))  # every run exactly once
        assert [limits[i] for i in order] == sorted(limits, reverse=True)
        for a, b in zip(order, order[1:]):
            assert limits[a] > limits[b] or a < b

    def test_example(self):
        specs = [RunSpec(AlgorithmSpec("sa"), instance_index=0, rep=0, seed=i, time_limit=lim)
                 for i, lim in enumerate((1, 3, 1, 2, 1, 3))]
        assert [spec.seed for spec in run_order(specs)] == [1, 5, 3, 0, 2, 4]


# Six cities with integer distances in the EXPLICIT FULL_MATRIX layout;
# convex_hull needs coordinates and fails on it.
EXPLICIT6 = """NAME : ex6
TYPE : TSP
DIMENSION : 6
EDGE_WEIGHT_TYPE : EXPLICIT
EDGE_WEIGHT_FORMAT : FULL_MATRIX
EDGE_WEIGHT_SECTION
0 3 4 2 7 5
3 0 4 6 3 4
4 4 0 5 8 3
2 6 5 0 6 5
7 3 8 6 0 4
5 4 3 5 4 0
EOF
"""


class TestRunExperimentWorkers:
    @pytest.fixture
    def mixed_plan(self, tmp_path):
        path = tmp_path / "ex6.tsp"
        path.write_text(EXPLICIT6, encoding="utf-8")
        # limits: 2 s at n=20 and 1 s at n=6, so the n=20 runs start first
        return parse_plan(
            "repetitions = 2\nbase_seed = 5\ntime_scale = 0.1\n"
            f"[instances]\nrandom n=20 seed=1\nfile {path}\n"
            "[algorithms]\nconvex_hull\nchristofides\nqlearning episodes=3\n"
        )

    def test_two_workers_match_one(self, mixed_plan):
        serial = run_experiment(mixed_plan, workers=1)
        parallel = run_experiment(mixed_plan, workers=2)

        def strip(r):
            return dataclasses.replace(r, elapsed_s=0.0)

        assert [strip(r) for r in parallel] == [strip(r) for r in serial]
        assert len(serial) == 8
        failed = [(r.algorithm, r.instance) for r in serial if r.status == "failed"]
        assert failed == [("convex_hull", "ex6")]
        assert all(r.status == "ok" for r in serial if r.status != "failed")

    def test_a_failed_run_does_not_stop_the_drain(self, mixed_plan):
        inst = [spec.resolve() for spec in mixed_plan.instances]
        specs = expand_plan(mixed_plan, [i.name for i in inst], [i.dimension for i in inst])
        runs = run_order(specs)
        matrices = [build_distance_matrix(i, mixed_plan.rounding) for i in inst]
        done = bench._drain(runs, inst, matrices, itertools.count().__next__)
        assert [(r.algorithm, r.instance, r.rep, r.seed) for r in done] == [
            (s.algo.algorithm, inst[s.instance_index].name, s.rep, s.seed) for s in runs]
        rows = [(r.algorithm, r.instance, r.status) for r in done]
        failed = rows.index(("convex_hull", "ex6", "failed"))
        assert rows[failed + 1:] and all(s == "ok" for _, _, s in rows[failed + 1:])

    @pytest.mark.parametrize("repetitions, workers, started", [(1, 3, None), (2, 4, 2), (3, 2, 2)])
    def test_no_more_workers_than_runs(self, monkeypatch, repetitions, workers, started):
        # A pool under fork starts all max_workers processes at the first submit.
        executor = bench.ProcessPoolExecutor
        pools = []

        def pool(max_workers, **kwargs):
            pools.append(max_workers)
            return executor(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(bench, "ProcessPoolExecutor", pool)
        plan = parse_plan(f"repetitions = {repetitions}\nbase_seed = 2\ntime_scale = 0.05\n"
                          "[instances]\nrandom n=6 seed=1\n[algorithms]\nqlearning episodes=2\n")
        records = run_experiment(plan, workers=workers)
        assert pools == ([] if started is None else [started])

        def strip(r):
            return dataclasses.replace(r, elapsed_s=0.0)

        assert [strip(r) for r in records] == [strip(r) for r in run_experiment(plan)]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_matrix_outlives_the_call(self, mixed_plan, monkeypatch, workers):
        build_distance_matrix = bench.build_distance_matrix
        built = []

        def build(inst, rounding):
            matrix = build_distance_matrix(inst, rounding)
            built.append(weakref.ref(matrix))
            return matrix

        monkeypatch.setattr(bench, "build_distance_matrix", build)
        records = run_experiment(mixed_plan, workers=workers)
        assert len(records) == 8 and len(built) == 2
        assert [ref() for ref in built] == [None, None]


def test_read_csv_rejects_foreign_header():
    with pytest.raises(ValueError):
        read_csv("a,b,c\n1,2,3\n")


# Hand-built rows and the text write_csv gave for them before it left the
# cells to the csv module: empty cells for None, a quoted instance name,
# and each float as its shortest repr.
PINNED_RECORDS = [
    RunRecord("branch_and_bound", "enhanced_r1", "default", "rnd12-s3", 12, 5, 0,
              1e16, 30.25, None, 12345, "timeout_with_result"),
    RunRecord("ga", "baseline", "original", 'city, "north"', 40, 2**63 - 1, 1,
              0.1 + 0.2, 1.5, 300, None, "ok"),
    RunRecord("sa", "baseline", "original", "tiny", 3, 0, 0,
              5e-324, 7.923399971332401e-05, 1, None, "ok"),
    RunRecord("tabu", "baseline", "custom", "rnd5-s1", 5, 7, 2,
              None, 0.0, None, None, "failed"),
]
PINNED_CSV = f"""{CSV_HEADER}
branch_and_bound,enhanced_r1,default,rnd12-s3,12,5,0,1e+16,30.25,,12345,timeout_with_result
ga,baseline,original,"city, ""north""\",40,9223372036854775807,1,0.30000000000000004,1.5,300,,ok
sa,baseline,original,tiny,3,0,0,5e-324,7.923399971332401e-05,1,,ok
tabu,baseline,custom,rnd5-s1,5,7,2,,0.0,,,failed
"""


def test_write_csv_text_is_pinned():
    assert write_csv(PINNED_RECORDS) == PINNED_CSV
    assert read_csv(PINNED_CSV) == PINNED_RECORDS


def test_csv_header_is_pinned():
    # The paper-facing column list; the README restates it (test_docs).
    assert CSV_HEADER == ("algorithm,variant,config_id,instance,n,seed,rep,"
                          "best_cost,elapsed_s,evaluations,nodes_expanded,status")


# Two algorithms on two instances, rows out of key order: ga's i2 baseline
# has a zero median, sa's i1 baseline failed every run (an n_a group), and
# sa's lundy_mees_r1 has no usable baseline on either instance.
GOLDEN_CSV = f"""{CSV_HEADER}
sa,lundy_mees_r1,r1,i2,5,11,0,40.5,0.5,200,,ok
ga,hybrid_r1,r1,i1,5,3,0,90.0,0.25,300,,ok
ga,baseline,original,i1,5,1,1,104.0,0.5,300,,timeout_with_result
ga,baseline,original,i1,5,2,0,100.0,0.25,300,,ok
ga,hybrid_r1,r1,i1,5,4,1,,0.0,,,failed
ga,baseline,original,i1,5,5,2,98.0,0.75,300,,ok
ga,hybrid_r1,r1,i1,5,6,2,95.0,0.5,300,,ok
ga,baseline,original,i2,5,7,0,0.0,0.0,10,,ok
ga,hybrid_r1,r1,i2,5,8,0,0.0,0.0,10,,ok
sa,baseline,original,i1,5,9,0,,0.0,,,failed
sa,baseline,original,i1,5,10,1,,0.0,,,failed
sa,lundy_mees_r1,r1,i1,5,12,0,50.0,0.5,200,,ok
sa,lundy_mees_r1,r1,i2,5,13,1,41.25,0.5,200,,ok
"""
_SUMMARY_FIELDS = ("algorithm", "variant", "instance", "count", "minimum", "q1", "median",
                   "q3", "maximum", "mean", "stddev", "n_a")
GOLDEN_SUMMARY = [dict(zip(_SUMMARY_FIELDS, row)) for row in [
    ("ga", "baseline", "i1", 3, 98.0, 98.0, 100.0, 104.0, 104.0, 100.66666666666667,
     3.055050463303893, False),
    ("ga", "baseline", "i2", 1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, False),
    ("ga", "hybrid_r1", "i1", 2, 90.0, 90.0, 92.5, 95.0, 95.0, 92.5, 3.5355339059327378, False),
    ("ga", "hybrid_r1", "i2", 1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, False),
    ("sa", "baseline", "i1", 0, None, None, None, None, None, None, None, True),
    ("sa", "lundy_mees_r1", "i1", 1, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0, 0.0, False),
    ("sa", "lundy_mees_r1", "i2", 2, 40.5, 40.5, 40.875, 41.25, 41.25, 40.875,
     0.5303300858899106, False),
]]
GOLDEN_GAP_STDOUT = """\
[
  {
    "algorithm": "ga",
    "instance": "i1",
    "variant": "hybrid_r1",
    "baseline_median": 100.0,
    "variant_median": 92.5,
    "gap_percent": 7.5
  },
  {
    "algorithm": "ga",
    "instance": "i2",
    "variant": "hybrid_r1",
    "baseline_median": 0.0,
    "variant_median": 0.0,
    "gap_percent": null
  }
]
"""


def test_harness_outputs_are_pinned(capsys, tmp_path):
    records = read_csv(GOLDEN_CSV)
    assert write_csv(records) == GOLDEN_CSV
    path = tmp_path / "runs.csv"
    path.write_text(GOLDEN_CSV, encoding="utf-8")
    assert main(["gap", "--csv", str(path)]) == 0
    assert capsys.readouterr().out == GOLDEN_GAP_STDOUT
    report = json_report(parse_plan("[instances]\nrandom n=5 seed=1\n[algorithms]\nga\n"), records)
    assert json.dumps(report["summary"]) == json.dumps(GOLDEN_SUMMARY)
    assert json.dumps(report["gaps"], indent=2) + "\n" == GOLDEN_GAP_STDOUT
    with pytest.raises(ValueError) as repeated_row:
        read_csv(GOLDEN_CSV + "ga,baseline,original,i1,5,1,1,104.0,0.5,300,,ok\n")
    assert str(repeated_row.value) == ("CSV line 15 repeats the (algorithm, variant, instance, "
                                       "rep) ('ga', 'baseline', 'i1', 1) of line 4")
    with pytest.raises(ValueError) as repeated_line:
        parse_plan("[instances]\nrandom n=5 seed=1\n"
                   "[algorithms]\nsa preset=original\nga\nsa preset=r1\n")
    assert str(repeated_line.value) == ("plan names (algorithm, variant) ('sa', 'baseline') "
                                        "more than once; seeds, summaries and gaps key runs "
                                        "by that pair")


def test_exact_repetitions_repeat_one_tour():
    # branch_and_bound runs `repetitions` times like a stochastic solver, but
    # its search draws no random number: the repeats sample only its run time.
    plan = parse_plan("repetitions = 3\n[instances]\nrandom n=7 seed=2\n"
                      "[algorithms]\nbranch_and_bound\n")
    rows = run_experiment(plan)
    assert [r.rep for r in rows] == [0, 1, 2] and len({r.seed for r in rows}) == 3
    assert len({r.best_cost for r in rows}) == 1 and len({r.nodes_expanded for r in rows}) == 1
    assert all(r.status == "ok" for r in rows)
