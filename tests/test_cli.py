import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import tsplab
from tsplab import ALGORITHMS, RunRecord, parse_instance, parse_plan, preset, write_csv
from tsplab.cli import main

TRIANGLE = """NAME : tri345
TYPE : TSP
DIMENSION : 3
EDGE_WEIGHT_TYPE : EUC_2D
NODE_COORD_SECTION
1 0 0
2 3 0
3 0 4
EOF
"""


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "tri.tsp"
    path.write_text(TRIANGLE, encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_deterministic(self, capsys):
        code1, out1, _ = run_cli(capsys, "gen", "--n", "12", "--seed", "3")
        code2, out2, _ = run_cli(capsys, "gen", "--n", "12", "--seed", "3")
        assert code1 == code2 == 0
        assert out1 == out2
        assert "DIMENSION : 12" in out1

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "inst.tsp"
        code, out, err = run_cli(capsys, "gen", "--n", "5", "--seed", "1",
                                 "--out", str(target))
        assert code == 0
        assert out == ""
        assert f"wrote {target}" in err
        assert "NODE_COORD_SECTION" in target.read_text(encoding="utf-8")

    def test_degenerate_n_is_data_error(self, capsys):
        code, _, err = run_cli(capsys, "gen", "--n", "1", "--seed", "0")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("bounds", [("--lo", "nan"), ("--hi", "inf"), ("--lo=-inf",),
                                        ("--lo=-1e308", "--hi=1e308")])
    def test_non_finite_range_is_data_error(self, capsys, bounds):
        code, out, err = run_cli(capsys, "gen", "--n", "5", "--seed", "0", *bounds)
        assert code == 2
        assert "error: coordinate range must be finite" in err
        assert out == ""

    def test_negative_exponent_bound_needs_equals_form(self, capsys):
        # argparse reads "-1e3" after a space as a flag, not as --lo's value
        code, _, err = run_cli(capsys, "gen", "--n", "3", "--seed", "0", "--lo", "-1e3",
                               "--hi", "5")
        assert code == 1
        assert "argument --lo: expected one argument" in err
        code, out, _ = run_cli(capsys, "gen", "--n", "3", "--seed", "0", "--lo=-1e3",
                               "--hi", "5")
        assert code == 0
        inst = parse_instance(out)
        assert inst.dimension == 3
        assert all(-1e3 <= c <= 5 for xy in inst.coords for c in xy)
        assert min(c for xy in inst.coords for c in xy) < -100


class TestSolve:
    def test_triangle_json(self, capsys, triangle_file):
        code, out, err = run_cli(
            capsys, "solve", "--instance", triangle_file,
            "--algorithm", "christofides", "--seed", "5", "--time-scale", "0.5",
        )
        assert code == 0
        assert "config: seed=5 time_scale=0.5 rounding=none" in err
        payload = json.loads(out)
        assert payload["best_cost"] == 12
        assert payload["instance"] == "tri345"
        assert payload["algorithm"] == "christofides"
        assert sorted(payload["best"]) == [0, 1, 2]

    def test_stochastic_solver_with_eval_cap(self, capsys, triangle_file):
        code, out, _ = run_cli(
            capsys, "solve", "--instance", triangle_file, "--algorithm", "tabu",
            "--time-scale", "0.5", "--max-evaluations", "200",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["best_cost"] == 12
        assert payload["config_id"] == "original"
        assert payload["evaluations"] <= 200

    def test_preset_flag(self, capsys, triangle_file):
        code, out, _ = run_cli(
            capsys, "solve", "--instance", triangle_file, "--algorithm", "sa",
            "--preset", "r1", "--variant", "lundy_mees_r1",
            "--time-scale", "0.4", "--max-evaluations", "500",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["config_id"] == "r1"
        assert payload["variant"] == "lundy_mees_r1"
        assert payload["best_cost"] == 12

    def test_unknown_flag_is_usage_error(self, capsys, triangle_file):
        code, _, err = run_cli(capsys, "solve", "--instance", triangle_file,
                               "--algorithm", "tabu", "--bogus", "1")
        assert code == 1
        assert "usage error" in err

    def test_unknown_algorithm_is_usage_error(self, capsys, triangle_file):
        code, _, _ = run_cli(capsys, "solve", "--instance", triangle_file,
                             "--algorithm", "simplex")
        assert code == 1

    def test_preset_config_conflict(self, capsys, triangle_file):
        code, _, err = run_cli(
            capsys, "solve", "--instance", triangle_file, "--algorithm", "tabu",
            "--preset", "original", "--config", "tenure=4",
        )
        assert code == 1
        assert "mutually exclusive" in err

    def test_foreign_variant_is_usage_error(self, capsys, triangle_file):
        code, _, _ = run_cli(capsys, "solve", "--instance", triangle_file,
                             "--algorithm", "tabu", "--variant", "enhanced_r1")
        assert code == 1

    @pytest.mark.parametrize("algorithm,config", [
        ("tabu", "tenur=9"),
        ("christofides", "tenure=9"),
        ("sa", "t_start=20,cooling=0.9"),
    ])
    def test_unknown_parameter_is_data_error(self, capsys, triangle_file, algorithm, config):
        code, out, err = run_cli(capsys, "solve", "--instance", triangle_file,
                                 "--algorithm", algorithm, "--config", config)
        assert code == 2
        assert "error:" in err and "no parameter" in err
        assert out == ""

    def test_repeated_config_key_is_data_error(self, capsys, triangle_file):
        code, out, err = run_cli(capsys, "solve", "--instance", triangle_file,
                                 "--algorithm", "aco", "--config", "ants=2,ants=3")
        assert code == 2
        assert "error: repeated key 'ants' in --config" in err
        assert out == ""

    @pytest.mark.parametrize("algorithm,config,message", [
        ("ga", "population_size=1e400", "ga parameter population_size must be finite"),
        ("sa", "t_start=inf", "sa parameter t_start must be finite"),
        ("aco", "alpha=nan", "aco parameter alpha must be finite"),
        ("tabu", "tenure=0", "tenure must be >= 1"),
        ("sa", "t_start=abc", "sa parameters: t_start must be a number, got 'abc'"),
        ("aco", "ants=2.5", "aco parameter ants must be a whole number, got 2.5"),
    ])
    def test_bad_parameter_value_is_data_error(self, capsys, triangle_file, algorithm, config,
                                               message):
        code, out, err = run_cli(capsys, "solve", "--instance", triangle_file,
                                 "--algorithm", algorithm, "--config", config)
        assert code == 2
        assert f"error: {message}" in err
        assert out == ""

    @pytest.mark.parametrize("algorithm", ["branch_and_bound", "christofides",
                                           "convex_hull", "sa"])
    def test_non_finite_coordinate_is_data_error(self, capsys, tmp_path, algorithm):
        path = tmp_path / "nan.tsp"
        path.write_text(TRIANGLE.replace("2 3 0", "2 nan 0"), encoding="utf-8")
        code, out, err = run_cli(capsys, "solve", "--instance", str(path),
                                 "--algorithm", algorithm, "--max-evaluations", "50")
        assert code == 2
        assert "error:" in err and "NaN or infinite" in err
        assert out == ""

    def test_overflowing_coordinates_are_data_error(self, capsys, tmp_path):
        path = tmp_path / "huge.tsp"
        path.write_text(TRIANGLE.replace("2 3 0", "2 1e308 0").replace("3 0 4", "3 -1e308 0"),
                        encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "solve", "--instance", str(path),
                                     "--algorithm", "convex_hull")
        assert code == 2
        assert "error:" in err and "overflow" in err
        assert out == ""

    @pytest.mark.parametrize("scale", ["inf", "nan", "1e308"])
    def test_non_finite_time_scale_is_data_error(self, capsys, triangle_file, scale):
        code, out, err = run_cli(capsys, "solve", "--instance", triangle_file,
                                 "--algorithm", "sa", "--time-scale", scale)
        assert code == 2
        assert "error: time_scale must be positive and finite" in err
        assert out == ""

    def test_missing_instance_is_data_error(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--instance", "nope.tsp",
                               "--algorithm", "tabu")
        assert code == 2
        assert "error:" in err


def _config_ids(capsys, instance_file, algorithm, cli_flags, plan_keys):
    """config_id reported by `tsplab solve` and by the equivalent plan line."""
    code, out, err = run_cli(
        capsys, "solve", "--instance", instance_file, "--algorithm", algorithm,
        "--time-scale", "0.1", "--max-evaluations", "20", *cli_flags,
    )
    assert code == 0, err
    plan = parse_plan(f"[instances]\nfile {instance_file}\n"
                      f"[algorithms]\n{' '.join([algorithm, *plan_keys])}\n")
    return json.loads(out)["config_id"], plan.algorithms[0].config_id


class TestConfigIdContract:
    """`tsplab solve` and a plan line name a run's configuration alike."""

    @pytest.fixture
    def six_city_file(self, tmp_path):
        path = tmp_path / "six.tsp"
        path.write_text(tsplab.render_instance(tsplab.generate_random_instance(6, 1)),
                        encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_no_preset_or_config(self, capsys, six_city_file, algorithm):
        expected = "original" if ALGORITHMS[algorithm].kind == "stochastic" else "default"
        assert _config_ids(capsys, six_city_file, algorithm, [], []) == (expected, expected)

    @pytest.mark.parametrize("algorithm", sorted(a for a, s in ALGORITHMS.items() if s.tunable))
    def test_preset_and_inline(self, capsys, six_city_file, algorithm):
        assert _config_ids(capsys, six_city_file, algorithm,
                           ["--preset", "r1"], ["preset=r1"]) == ("r1", "r1")
        name, value = next(iter(preset(algorithm, "original").values.items()))
        assert _config_ids(capsys, six_city_file, algorithm,
                           ["--config", f"{name}={value}"], [f"{name}={value}"]) == (
            "custom", "custom")


class TestBench:
    def test_plan_run_with_outputs(self, capsys, tmp_path):
        plan = tmp_path / "plan.txt"
        plan.write_text(
            "repetitions = 1\ntime_scale = 0.05\n"
            "[instances]\nrandom n=6 seed=0\n"
            "[algorithms]\nchristofides\nbranch_and_bound\ntabu preset=original\n",
            encoding="utf-8",
        )
        out_csv = tmp_path / "runs.csv"
        out_json = tmp_path / "report.json"
        code, out, err = run_cli(
            capsys, "bench", "--plan", str(plan),
            "--out-csv", str(out_csv), "--out-json", str(out_json),
        )
        assert code == 0
        report = json.loads(out)
        assert report["schema"] == 1
        assert len(report["summary"]) == 3
        header = out_csv.read_text(encoding="utf-8").splitlines()[0]
        assert header == ("algorithm,variant,config_id,instance,n,seed,rep,"
                          "best_cost,elapsed_s,evaluations,nodes_expanded,status")
        assert json.loads(out_json.read_text(encoding="utf-8")) == report
        assert "config: seed=0 time_scale=0.05" in err

    def test_out_json_holds_the_printed_report(self, capsys, tmp_path):
        plan = tmp_path / "plan.txt"
        plan.write_text("repetitions = 2\ntime_scale = 0.05\n"
                        "[instances]\nrandom n=6 seed=0\n"
                        "[algorithms]\nchristofides\nqlearning episodes=2\n",
                        encoding="utf-8")
        out_json = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "bench", "--plan", str(plan), "--out-json", str(out_json))
        assert code == 0
        assert out_json.read_bytes() == out.encode("utf-8")

    def test_missing_plan_is_data_error(self, capsys):
        code, _, _ = run_cli(capsys, "bench", "--plan", "missing-plan.txt")
        assert code == 2

    def test_zero_workers_is_data_error(self, capsys, tmp_path):
        plan = tmp_path / "plan.txt"
        plan.write_text("repetitions = 1\ntime_scale = 0.05\n"
                        "[instances]\nrandom n=5 seed=0\n[algorithms]\nchristofides\n",
                        encoding="utf-8")
        code, _, err = run_cli(capsys, "bench", "--plan", str(plan), "--workers", "0")
        assert code == 2
        assert "error: workers must be >= 1, got 0" in err


    def test_zero_cost_instance_keeps_the_report(self, capsys, tmp_path):
        # lo = hi puts every city at one point, so every tour costs 0.
        def bench(name, instances):
            plan = tmp_path / f"{name}.txt"
            plan.write_text("repetitions = 1\ntime_scale = 0.05\n[instances]\n"
                            f"{instances}\n[algorithms]\nbranch_and_bound\n"
                            "branch_and_bound variant=enhanced_r1\n", encoding="utf-8")
            out_csv, out_json = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
            code, out, _ = run_cli(capsys, "bench", "--plan", str(plan),
                                   "--out-csv", str(out_csv), "--out-json", str(out_json))
            assert code == 0
            report = json.loads(out_json.read_text(encoding="utf-8"))
            return {row["instance"]: row for row in report["gaps"]}, out_csv

        gaps, out_csv = bench("both", "random n=5 seed=0 lo=3 hi=3\nrandom n=6 seed=1")
        alone, _ = bench("alone", "random n=6 seed=1")
        assert gaps["rnd5-s0"]["gap_percent"] is None
        assert gaps["rnd5-s0"]["baseline_median"] == gaps["rnd5-s0"]["variant_median"] == 0.0
        assert gaps["rnd6-s1"] == alone["rnd6-s1"]
        code, out, _ = run_cli(capsys, "gap", "--csv", str(out_csv))
        assert code == 0
        assert {row["instance"]: row for row in json.loads(out)} == gaps

    @pytest.mark.parametrize("scale", ["inf", "nan"])
    def test_non_finite_time_scale_is_data_error(self, capsys, tmp_path, scale):
        plan = tmp_path / "plan.txt"
        plan.write_text(f"repetitions = 1\ntime_scale = {scale}\n"
                        "[instances]\nrandom n=5 seed=0\n[algorithms]\nsa\n",
                        encoding="utf-8")
        code, out, err = run_cli(capsys, "bench", "--plan", str(plan))
        assert code == 2
        assert "error: time_scale must be positive and finite" in err
        assert out == ""


class TestTune:
    @pytest.mark.parametrize("scale", ["inf", "nan"])
    def test_non_finite_time_scale_is_data_error(self, capsys, scale):
        code, out, err = run_cli(
            capsys, "tune", "--algorithm", "sa", "--instances", "random n=6 seed=0",
            "--budget", "8", "--candidates", "2", "--time-scale", scale,
        )
        assert code == 2
        assert "error: time_scale must be positive and finite" in err
        assert out == ""

    def test_race_outputs_config(self, capsys):
        code, out, err = run_cli(
            capsys, "tune", "--algorithm", "qlearning",
            "--instances", "random n=6 seed=0", "random n=6 seed=1",
            "--budget", "8", "--candidates", "2", "--seed", "4",
            "--time-scale", "0.05",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["algorithm"] == "qlearning"
        assert payload["provenance"].startswith("raced(seed=4,")
        assert payload["runs_spent"] <= 8
        assert payload["survivors"] >= 1
        assert 0.01 <= payload["values"]["learning_rate"] <= 0.5
        assert 1000 <= payload["values"]["episodes"] <= 10000

    @pytest.mark.parametrize("line", ["random n=6 seed=1", "file missing.tsp"])
    def test_foreign_variant_is_usage_error(self, capsys, line):
        # Checked before any instance is read, as in solve.
        code, out, err = run_cli(
            capsys, "tune", "--algorithm", "aco", "--variant", "bogus",
            "--instances", line, "--budget", "4", "--candidates", "2",
        )
        assert code == 1
        assert "usage error: --variant 'bogus' not offered by aco" in err
        assert out == ""

    def test_budget_too_small_is_data_error(self, capsys):
        code, _, err = run_cli(
            capsys, "tune", "--algorithm", "tabu",
            "--instances", "random n=5 seed=0", "--budget", "3",
            "--candidates", "4",
        )
        assert code == 2
        assert "budget" in err


class TestGap:
    def test_variant_beats_baseline(self, capsys, tmp_path):
        def row(variant, rep, cost):
            return RunRecord(algorithm="ga", variant=variant, config_id="c",
                             instance="x", n=5, seed=rep, rep=rep, best_cost=cost,
                             elapsed_s=0.0, evaluations=1, nodes_expanded=None,
                             status="ok")

        records = [row("baseline", r, 100.0) for r in range(3)]
        records += [row("hybrid_r1", r, 90.0) for r in range(3)]
        csv_path = tmp_path / "runs.csv"
        write_csv(records, str(csv_path))
        code, out, _ = run_cli(capsys, "gap", "--csv", str(csv_path))
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["gap_percent"] == 10.0
        assert rows[0]["variant"] == "hybrid_r1"

    def test_malformed_csv_is_data_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n", encoding="utf-8")
        code, _, _ = run_cli(capsys, "gap", "--csv", str(bad))
        assert code == 2


class TestRenderPrompt:
    def test_renders_to_stdout(self, capsys, tmp_path):
        code_file = tmp_path / "algo.py"
        code_file.write_text("def ga(d):\n    return list(range(len(d)))\n",
                             encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "render-prompt", "--name", "Genetic Algorithm",
            "--signature", "def ga(d):", "--code-file", str(code_file),
        )
        assert code == 0
        assert "improve this Genetic Algorithm implementation" in out
        assert "{{" not in out

    def test_custom_template(self, capsys, tmp_path):
        template = tmp_path / "tpl.txt"
        template.write_text(
            "N={{algorithm name}} S={{the signature of an the main function}} "
            "C={{algorithm code}}",
            encoding="utf-8",
        )
        code_file = tmp_path / "algo.py"
        code_file.write_text("pass", encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "render-prompt", "--template", str(template),
            "--name", "SA", "--signature", "def sa(d):",
            "--code-file", str(code_file),
        )
        assert code == 0
        assert out == "N=SA S=def sa(d): C=pass"

    def test_broken_template_is_data_error(self, capsys, tmp_path):
        template = tmp_path / "tpl.txt"
        template.write_text("no placeholders here", encoding="utf-8")
        code_file = tmp_path / "algo.py"
        code_file.write_text("pass", encoding="utf-8")
        code, _, _ = run_cli(
            capsys, "render-prompt", "--template", str(template),
            "--name", "SA", "--signature", "def sa(d):",
            "--code-file", str(code_file),
        )
        assert code == 2


HELP_FLAGS = {
    "gen": ["--n", "--seed", "--lo", "--hi", "--out"],
    "solve": ["--instance", "--algorithm", "--variant", "--preset", "--config",
              "--seed", "--time-scale", "--max-evaluations", "--rounding"],
    "bench": ["--plan", "--out-csv", "--out-json", "--workers"],
    "tune": ["--algorithm", "--instances", "--budget", "--seed", "--candidates",
             "--variant", "--time-scale"],
    "gap": ["--csv"],
    "render-prompt": ["--template", "--name", "--signature", "--code-file"],
}


class TestHelp:
    def test_top_level_lists_subcommands(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        for sub in HELP_FLAGS:
            assert sub in out

    @pytest.mark.parametrize("sub", sorted(HELP_FLAGS))
    def test_subcommand_help_enumerates_flags(self, capsys, sub):
        """The help lists exactly the table's flags, so a flag added or
        removed without updating HELP_FLAGS fails here."""
        code, out, _ = run_cli(capsys, sub, "--help")
        assert code == 0
        assert set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", out)) == {*HELP_FLAGS[sub], "--help"}

    def test_no_arguments_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 1
        assert "usage error" in err


def test_console_script_installed(tmp_path):
    """The ``tsplab`` script that pyproject.toml declares runs from PATH.

    The launcher is written here, in the shape pip's script writer gives it,
    so the test needs no prior ``pip install``; it checks the declaration,
    its target and the exit codes, not pip itself.
    """
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert "tsplab" in scripts, "pyproject.toml declares no tsplab script"
    module, _, attr = scripts["tsplab"].partition(":")
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    launcher = bin_dir / "tsplab"
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        "if __name__ == '__main__':\n"
        f"    sys.exit({attr}())\n",
        encoding="utf-8")
    launcher.chmod(0o755)
    # Run the code under test, installed or not.
    import_root = str(Path(tsplab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PATH"] = os.pathsep.join([str(bin_dir), env.get("PATH", "")])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (import_root, env.get("PYTHONPATH")) if p)

    def run(*argv):
        return subprocess.run(["tsplab", *argv], env=env, capture_output=True,
                              text=True, timeout=60)

    proc = run("gen", "--n", "5", "--seed", "2")
    assert proc.returncode == 0, proc.stderr
    assert "DIMENSION : 5" in proc.stdout
    proc = run("gen", "--n", "1", "--seed", "0")
    assert proc.returncode == 2
    assert "error:" in proc.stderr


def _single_json_document(out: str):
    """The document out holds, asserting it is exactly one JSON document
    indented by 2 with one trailing newline."""
    payload = json.loads(out)
    assert out == json.dumps(payload, indent=2) + "\n"
    return payload


class TestOutputRules:
    GEN_GOLDEN = (
        "NAME : rnd4-s2\nTYPE : TSP\nDIMENSION : 4\nEDGE_WEIGHT_TYPE : EUC_2D\n"
        "NODE_COORD_SECTION\n"
        "1 26.16121342493164 29.84911434141233\n"
        "2 81.42257405942803 9.19159421350969\n"
        "3 60.0100525965654 72.85605268117946\n"
        "4 18.790107336660345 5.514662733306819\n"
        "EOF\n"
    )
    GAP_GOLDEN = (
        '[\n  {\n    "algorithm": "ga",\n    "instance": "x",\n'
        '    "variant": "hybrid_r1",\n    "baseline_median": 100.0,\n'
        '    "variant_median": 95.0,\n    "gap_percent": 5.0\n  }\n]\n'
    )
    PROMPT_GOLDEN = (
        "You are an optimization algorithm expert.\n\n"
        "I need to improve this GA implementation for the travelling salesman "
        "problem (TSP) by incorporating state-of-the-art techniques. Focus on:\n\n"
        "1. Finding better quality solutions\n2. Faster convergence time\n\n"
        "Requirements:\n- Keep the main function signature: def ga(d):\n"
        "- Include detailed docstrings explaining:\n"
        "  * What improvement is implemented\n  * How it enhances performance\n"
        "  * Which state-of-the-art technique it is based on\n"
        "- All explanations must be within docstrings, no additional text\n"
        "- Check that there are no errors in the code\n\n"
        "IMPORTANT:\n- Return ONLY Python code\n"
        "- Any explanation or discussion must be inside docstrings\n"
        "- At the end, include a comment block listing unmodified functions "
        "from the original code\n\n"
        "Current implementation:\ndef ga(d):\n    return list(range(len(d)))\n\n"
    )

    def test_gen_stdout_is_golden_and_echoes_only_the_seed(self, capsys):
        code, out, err = run_cli(capsys, "gen", "--n", "4", "--seed", "2")
        assert code == 0
        assert out == self.GEN_GOLDEN
        assert err == "config: seed=2\n"

    def test_gap_stdout_is_golden_and_echoes_no_config(self, capsys, tmp_path):
        def row(variant, rep, cost):
            return RunRecord(algorithm="ga", variant=variant, config_id="c",
                             instance="x", n=5, seed=rep, rep=rep, best_cost=cost,
                             elapsed_s=0.0, evaluations=1, nodes_expanded=None,
                             status="ok")

        records = [row("baseline", r, c) for r, c in enumerate((100.0, 104.0, 98.0))]
        records += [row("hybrid_r1", r, c) for r, c in enumerate((90.0, 95.0, 97.0))]
        csv_path = tmp_path / "runs.csv"
        write_csv(records, str(csv_path))
        code, out, err = run_cli(capsys, "gap", "--csv", str(csv_path))
        assert code == 0
        assert out == self.GAP_GOLDEN
        assert "config:" not in err

    def test_render_prompt_stdout_is_golden_and_echoes_no_config(self, capsys, tmp_path):
        code_file = tmp_path / "algo.py"
        code_file.write_text("def ga(d):\n    return list(range(len(d)))\n",
                             encoding="utf-8")
        code, out, err = run_cli(capsys, "render-prompt", "--name", "GA",
                                 "--signature", "def ga(d):", "--code-file", str(code_file))
        assert code == 0
        assert out == self.PROMPT_GOLDEN
        assert "config:" not in err

    def test_solve_prints_one_json_document(self, capsys, triangle_file):
        code, out, _ = run_cli(capsys, "solve", "--instance", triangle_file,
                               "--algorithm", "sa", "--max-evaluations", "20")
        assert code == 0
        assert _single_json_document(out)["algorithm"] == "sa"

    def test_tune_prints_one_json_document(self, capsys):
        code, out, _ = run_cli(capsys, "tune", "--algorithm", "qlearning",
                               "--instances", "random n=6 seed=0", "random n=6 seed=1",
                               "--budget", "8", "--candidates", "2", "--time-scale", "0.05")
        assert code == 0
        assert _single_json_document(out)["algorithm"] == "qlearning"

    def test_bench_prints_one_json_document(self, capsys, tmp_path):
        plan = tmp_path / "plan.txt"
        plan.write_text("repetitions = 1\ntime_scale = 0.05\n"
                        "[instances]\nrandom n=6 seed=0\n"
                        "[algorithms]\nchristofides\nbranch_and_bound\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "bench", "--plan", str(plan))
        assert code == 0
        assert _single_json_document(out)["schema"] == 1
        assert "config: seed=0 time_scale=0.05 rounding=none\n" in err
