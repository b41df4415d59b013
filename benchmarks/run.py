"""Fixed-work benchmark for tsplab.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload heuristics_n200 --seed 1 --seconds 36 --trace 0

It sets the workload up, repeats the workload's fixed run list ("a pass")
until --seconds are used, checking every output, then times several set-ups,
each in a fresh Python process from its start (reporting the median), and
prints each metric by name with its unit. The last line
of standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json; with --trace 1 untraced and traced passes alternate and the
metrics are the per-layer ones. The full record, with provenance and, when
traced, every span, is written under .perfbench/results/. Exit status is 0
when every check passed, 1 when one failed, 2 on a usage error.
"""

from __future__ import annotations

import os
import sys
import time

# Before numpy is imported, here or in a worker process forked from here.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

import numpy  # noqa: E402

from measure import (  # noqa: E402
    REFERENCE_KERNEL_S, NullTracer, SpeedProbe, Tracer, span_cost, summarize, totals_by_name,
)
from workloads import BNB_VARIANTS, DETERMINISTIC, HEURISTIC_PAIRS, WORKLOADS  # noqa: E402

SETUP_REPS = 11
SETUP_TIMEOUT_S = 120
# A fresh interpreter that imports numpy, and the time it takes to start at
# the reference speed (about the median on a 2-core Xeon VM).
REFERENCE_START = "import time, numpy; print(repr(time.monotonic()))"
REFERENCE_START_S = 0.1
OUT_DIR = ".perfbench"


def setup_only(args, workdir: str) -> int:
    """Set the workload up once in this process, then print the reading of
    the system-wide monotonic clock at the end of the set-up."""
    import tsplab

    WORKLOADS[args.workload](args.seed, workdir).setup(tsplab)
    print(repr(time.monotonic()), flush=True)
    return 0


def time_child(cmd: list[str]) -> float:
    """Seconds from just before `cmd` starts to the monotonic-clock reading
    it prints last."""
    started = time.monotonic()
    child = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    if child.returncode != 0:
        raise RuntimeError(f"{cmd} failed:\n{child.stderr}")
    return float(child.stdout.split()[-1]) - started


def timed_setups(args) -> dict:
    """Raw and reference seconds of SETUP_REPS set-ups, each from the start
    of a fresh Python process (interpreter, numpy, tsplab and the benchmark's
    own imports included) to the end of its set-up. Every child inherits
    this process's environment, thread pinning included.

    Process start-up is bound by file and memory access more than by the
    interpreter loop that SpeedProbe times, so a set-up is rescaled by the
    start of a fixed reference process run just before it instead."""
    setup_cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                 "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    start_cmd = [sys.executable, "-c", REFERENCE_START]
    times = {"raw": [], "ref": [], "reference_start": []}
    for _ in range(SETUP_REPS):
        start_s = time_child(start_cmd)
        raw = time_child(setup_cmd)
        times["raw"].append(raw)
        times["ref"].append(raw * REFERENCE_START_S / start_s)
        times["reference_start"].append(start_s)
    return times


def git_commit(root: str) -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a repository."""
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(root, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(root, args, workers) -> dict:
    return {
        "git_commit": git_commit(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workers": workers,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def peak_rss_mb(include_children: bool) -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def layer_metrics(spans, setup_spans, result, workers) -> dict:
    """Per-layer metrics of one traced pass (see README.md for each name)."""
    totals = totals_by_name(spans)
    totals.update(result.remote)
    setup = totals_by_name(setup_spans)

    def seconds(name, source=totals):
        return source.get(name, (0.0, 0))[0]

    def rate(work, secs):
        return work / secs if secs > 0 else 0.0

    m = {}
    for alg, variant in HEURISTIC_PAIRS:
        secs, work = totals.get(f"solver.{alg}.{variant}", (0.0, 0))
        m[f"solver.{alg}.{variant}.self_s"] = secs
        if alg not in DETERMINISTIC:
            m[f"solver.{alg}.{variant}.work_per_s"] = rate(work, secs)
    nodes = {}
    for variant in BNB_VARIANTS:
        secs, nodes[variant] = totals.get(f"solver.branch_and_bound.{variant}", (0.0, 0))
        m[f"solver.branch_and_bound.{variant}.nodes"] = nodes[variant]
        m[f"solver.branch_and_bound.{variant}.nodes_per_s"] = rate(nodes[variant], secs)
        m[f"solver.branch_and_bound.{variant}.self_s"] = secs
    m["solver.branch_and_bound.node_ratio"] = rate(nodes["enhanced_r1"], nodes["baseline"])
    m["tours.revalidate_s"] = seconds("tours.revalidate")
    m["instances.parse_s"] = seconds("instances.parse", setup)
    for kind in ("euc_2d", "geo", "explicit"):
        m[f"instances.matrix_s.{kind}"] = seconds(f"instances.matrix.{kind}", setup)
    run_s = seconds("bench.run_experiment")
    busy = result.solver_busy_s
    m["bench.parse_plan_s"] = seconds("bench.parse_plan")
    m["bench.runs"] = totals.get("bench.run_experiment", (0.0, 0))[1]
    m["bench.run_experiment_s"] = run_s
    m["bench.solver_busy_s"] = busy
    m["bench.worker_util"] = rate(busy, workers * run_s)
    m["bench.overhead_s"] = run_s - busy / workers if run_s > 0 else 0.0
    m["bench.report_s"] = seconds("bench.report")
    return m


def first_difference(a, b) -> str:
    for mine, theirs in zip(a.fingerprint()[0], b.fingerprint()[0]):
        if mine != theirs:
            return str(mine[0])
    return "(CSV rows)"


def describe(name: str, values: list[float], what: str) -> str:
    s = summarize(values)
    return (f"  {name:<24} median {s.median:.6g} of {s.count} {what}; "
            f"q1 {s.q1:.6g}, q3 {s.q3:.6g}, min {s.minimum:.6g}, max {s.maximum:.6g}")


def run(args, root: str, workdir: str, declared: dict) -> int:
    cls = WORKLOADS[args.workload]

    import tsplab as T

    src = os.path.join(root, "src")
    if os.path.commonpath([os.path.abspath(T.__file__), src]) != src:
        print(f"error: imported tsplab from {T.__file__}, not from {src}", file=sys.stderr)
        return 2
    wl = cls(args.seed, workdir)
    wl.setup(T)
    setup_tracer = Tracer(wl.name)
    if args.trace:
        wl.setup(T, setup_tracer)  # warm, so that imports are not traced

    problems: list[str] = []
    first = None
    attempted = failed = 0
    walls = {(traced, kind): [] for traced in (False, True) for kind in ("raw", "ref")}
    traced = []  # (tracer, result) per traced pass
    pass_marks = []  # (first, last) probe mark of each pass
    modes = (False, True) if args.trace else (False,)
    probe = SpeedProbe()
    measure_start = time.perf_counter()
    rounds = 0
    while True:
        for traced_mode in modes:
            tracer = Tracer(wl.name) if traced_mode else NullTracer()
            first_mark = probe.sample()
            with tracer.span("pass"):
                result = wl.run_pass(T, tracer, probe)
            pass_marks.append((first_mark, probe.sample()))
            raw, ref = probe.times_since(first_mark)
            walls[traced_mode, "raw"].append(raw)
            walls[traced_mode, "ref"].append(ref)
            # Checks below are outside the timed region.
            attempted += len(result.rows)
            bad = [r for r in result.rows if r.failed]
            failed += len(bad)
            problems += [f"{r.key}: {r.failed}" for r in bad]
            if first is None:
                first = result
                problems += wl.check(T, result)
            elif result.fingerprint() != first.fingerprint():
                problems.append(f"pass {len(pass_marks)} differs from the first, "
                                f"from run {first_difference(first, result)}")
            if traced_mode:
                traced.append((tracer, result))
        rounds += 1
        elapsed = time.perf_counter() - measure_start
        if elapsed + elapsed / rounds > args.seconds:
            break

    # Before the set-up processes below, which would count as children.
    rss_mb = peak_rss_mb(include_children=wl.workers > 1)
    setup_times = timed_setups(args)
    lines = [f"workload {wl.name}, seed {args.seed}, trace {args.trace}: "
             f"{len(walls[False, 'raw'])} untraced and {len(walls[True, 'raw'])} traced passes; "
             f"probe kernel {summarize([k for _, _, k in probe.marks]).median:.6g} s "
             f"(reference {REFERENCE_KERNEL_S} s)"]
    for traced_mode, kind in walls:
        if walls[traced_mode, kind]:
            label = f"{'traced' if traced_mode else 'untraced'} pass, {kind} s"
            lines.append(describe(label, walls[traced_mode, kind], "passes"))
    lines.append(describe("set-up, raw s", setup_times["raw"], "set-ups"))
    lines.append(describe("set-up, ref s", setup_times["ref"], "set-ups"))
    lines.append(describe("reference start, s", setup_times["reference_start"], "starts"))
    if args.trace:
        per_pass = [layer_metrics(tr.spans, setup_tracer.spans, res, wl.workers) for tr, res in traced]
        metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
        spans_per_pass = statistics.median(len(tr.spans) for tr, _ in traced)
        metrics["trace.overhead_s"] = span_cost() * spans_per_pass
    else:
        metrics = {
            "setup_s": statistics.median(setup_times["ref"]),
            "wall_s": statistics.median(walls[False, "ref"]),
            "cost_ratio_nn": first.cost_ratio_nn(),
            "peak_rss_mb": rss_mb,
        }
    units = declared["per_layer" if args.trace else "end_to_end"]
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    for name in units:
        lines.append(f"  {name:<40} {metrics[name]:.6g} {units[name]}")
    lines.append(f"  failed_frac {failed / attempted:.6g} ({failed} of {attempted} runs failed)")
    for p in problems[:20]:
        lines.append(f"  CHECK FAILED: {p}")

    record = {
        "provenance": provenance(root, args, wl.workers),
        "setup_s": setup_times,
        "pass_s": {f"{'traced' if t else 'untraced'}_{kind}": v for (t, kind), v in walls.items()},
        "probe_marks": probe.marks,
        "pass_marks": pass_marks,
        "problems": problems,
        "spans": [vars(s) for tr, _ in traced for s in tr.spans] + [vars(s) for s in setup_tracer.spans],
    }
    out = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record["result"] = out
    results_dir = os.path.join(root, OUT_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    record_path = os.path.join(results_dir, f"{wl.name}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    print("\n".join(lines))
    print(json.dumps(out), flush=True)
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "tsplab", "__init__.py")):
        print("error: run from the root of a tsplab checkout; src/tsplab is missing",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {group: {m["name"]: m["unit"] for m in spec[group]}
                for group in ("end_to_end", "per_layer")}
    sys.path.insert(0, src)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")  # relative: plan paths stay short
    os.makedirs(workdir)
    try:
        if args.setup_only:
            return setup_only(args, workdir)
        return run(args, root, workdir, declared)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
