"""Command-line entry point: gen, solve, bench, tune, gap, render-prompt.

JSON results go to stdout, logs and the resolved configuration to stderr.
Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bench import (
    InstanceSpec,
    gap_table,
    json_report,
    load_plan,
    read_csv,
    run_experiment,
    time_limit_for,
    write_csv,
    _parse_instance_line,
    _parse_kv,
)
from .errors import TsplabError
from .instances import (
    ROUNDING_MODES,
    build_distance_matrix,
    generate_random_instance,
    render_instance,
)
from .refine import PromptTemplate, RefinementRequest, load_template, render_prompt
from .solvers import ALGORITHMS, SolveBudget, get_algorithm, resolve_config, run_solver
from .tuning import race


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; the contract here is 1."""

    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="tsplab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random instance file")
    gen.add_argument("--n", type=int, required=True, help="number of cities")
    gen.add_argument("--seed", type=int, required=True, help="generator seed")
    gen.add_argument("--lo", type=float, default=0.0, help="coordinate lower bound")
    gen.add_argument("--hi", type=float, default=100.0, help="coordinate upper bound")
    gen.add_argument("--out", default=None, help="output path (stdout when omitted)")
    gen.set_defaults(run=_cmd_gen)

    solve = sub.add_parser("solve", help="run one solver on one instance")
    solve.add_argument("--instance", required=True, help="instance file path")
    solve.add_argument("--algorithm", required=True, choices=sorted(ALGORITHMS))
    solve.add_argument("--variant", default="baseline", help="solver variant")
    solve.add_argument("--preset", default=None, help="named parameter preset column")
    solve.add_argument("--config", default=None,
                       help="inline parameters, e.g. ants=7,alpha=1.3")
    solve.add_argument("--seed", type=int, default=0, help="run seed")
    solve.add_argument("--time-scale", type=float, default=1.0,
                       help="seconds of budget per city")
    solve.add_argument("--max-evaluations", type=int, default=None,
                       help="optional evaluation budget")
    solve.add_argument("--rounding", default="none", choices=sorted(ROUNDING_MODES),
                       help="distance rounding mode")
    solve.set_defaults(run=_cmd_solve)

    bench = sub.add_parser("bench", help="run an experiment plan")
    bench.add_argument("--plan", required=True, help="plan file path")
    bench.add_argument("--out-csv", default=None, help="write per-run rows here")
    bench.add_argument("--out-json", default=None, help="write the JSON report here")
    bench.add_argument("--workers", type=int, default=1, help="parallel processes")
    bench.set_defaults(run=_cmd_bench)

    tune = sub.add_parser("tune", help="race sampled configurations")
    tune.add_argument("--algorithm", required=True,
                      choices=sorted(name for name, spec in ALGORITHMS.items() if spec.tunable))
    tune.add_argument("--instances", nargs="+", required=True,
                      help="instance lines, e.g. 'random n=10 seed=3' or 'file x.tsp'")
    tune.add_argument("--budget", type=int, default=500, help="total run budget")
    tune.add_argument("--seed", type=int, default=0, help="race seed")
    tune.add_argument("--candidates", type=int, default=16, help="configs to sample")
    tune.add_argument("--variant", default="baseline", help="solver variant")
    tune.add_argument("--time-scale", type=float, default=1.0,
                      help="seconds of budget per city")
    tune.set_defaults(run=_cmd_tune)

    gap = sub.add_parser("gap", help="variant-vs-baseline gap table from a CSV")
    gap.add_argument("--csv", required=True, help="results CSV path")
    gap.set_defaults(run=_cmd_gap)

    rp = sub.add_parser("render-prompt", help="render the refinement prompt")
    rp.add_argument("--template", default=None, help="template file (default embedded)")
    rp.add_argument("--name", required=True, help="algorithm name")
    rp.add_argument("--signature", required=True, help="main function signature")
    rp.add_argument("--code-file", required=True, help="file holding the code body")
    rp.set_defaults(run=_cmd_render_prompt)

    return parser


def _echo_config(**settings) -> None:
    """Print on stderr the settings the command runs with, and only those."""
    print("config: " + " ".join(f"{k}={v}" for k, v in settings.items()), file=sys.stderr)


def _write_file(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {path}", file=sys.stderr)


def _print_result(payload, out: str | None = None) -> int:
    """Print the JSON result, indented 2 with one trailing newline, after
    writing the same text to `out` when one is given."""
    text = json.dumps(payload, indent=2) + "\n"
    if out is not None:
        _write_file(out, text)
    sys.stdout.write(text)
    return 0


def _cmd_gen(args) -> int:
    _echo_config(seed=args.seed)
    inst = generate_random_instance(args.n, args.seed, (args.lo, args.hi))
    text = render_instance(inst)
    if args.out is None:
        sys.stdout.write(text)
    else:
        _write_file(args.out, text)
    return 0


def _check_variant(args) -> None:
    if args.variant not in get_algorithm(args.algorithm).variants:
        raise _UsageError(f"--variant {args.variant!r} not offered by {args.algorithm}")


def _cmd_solve(args) -> int:
    if args.preset is not None and args.config is not None:
        raise _UsageError("--preset and --config are mutually exclusive")
    _check_variant(args)
    _echo_config(seed=args.seed, time_scale=args.time_scale, rounding=args.rounding)
    inline = None if args.config is None else _parse_kv(args.config.split(","), "--config")
    config_id, values, _ = resolve_config(args.algorithm, args.variant, args.preset, inline)
    inst = InstanceSpec(source="file", path=args.instance).resolve()
    matrix = build_distance_matrix(inst, rounding=args.rounding)
    budget = SolveBudget(
        time_limit=float(time_limit_for(inst.dimension, args.time_scale)),
        max_evaluations=args.max_evaluations,
    )
    outcome = run_solver(args.algorithm, inst, matrix, values, args.variant,
                         budget, args.seed)
    return _print_result({
        "algorithm": args.algorithm,
        "variant": args.variant,
        "config_id": config_id,
        "instance": inst.name,
        "n": inst.dimension,
        "seed": args.seed,
        "best": list(outcome.best),
        "best_cost": outcome.best_cost,
        "evaluations": outcome.evaluations,
        "nodes_expanded": outcome.nodes_expanded,
        "proven_optimal": outcome.proven_optimal,
        "elapsed_s": outcome.elapsed,
        "trajectory": outcome.trajectory,
    })


def _cmd_bench(args) -> int:
    plan = load_plan(args.plan)
    _echo_config(seed=plan.base_seed, time_scale=plan.time_scale, rounding=plan.rounding)
    records = run_experiment(plan, workers=args.workers)
    if args.out_csv is not None:
        _write_file(args.out_csv, write_csv(records))
    return _print_result(json_report(plan, records), args.out_json)


def _cmd_tune(args) -> int:
    _check_variant(args)
    _echo_config(seed=args.seed, time_scale=args.time_scale, rounding="none")
    specs = [_parse_instance_line(line) for line in args.instances]
    instances = [spec.resolve() for spec in specs]
    config, state = race(
        args.algorithm,
        instances=instances,
        budget=args.budget,
        candidates=args.candidates,
        seed=args.seed,
        time_scale=args.time_scale,
        variant=args.variant,
    )
    return _print_result({
        "algorithm": config.algorithm,
        "values": config.values,
        "provenance": config.provenance,
        "runs_spent": state.spent,
        "rounds": state.rounds,
        "survivors": len(state.alive),
    })


def _cmd_gap(args) -> int:
    with open(args.csv, encoding="utf-8") as fh:
        records = read_csv(fh.read())
    return _print_result(gap_table(records))


def _cmd_render_prompt(args) -> int:
    template = PromptTemplate() if args.template is None else load_template(args.template)
    with open(args.code_file, encoding="utf-8") as fh:
        code = fh.read()
    request = RefinementRequest(algorithm_name=args.name,
                                main_signature=args.signature, code=code)
    sys.stdout.write(render_prompt(template, request))
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.run(args)
    except SystemExit as exc:  # argparse --help path
        return int(exc.code or 0)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (TsplabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
