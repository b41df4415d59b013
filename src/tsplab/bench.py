"""Seeded benchmark harness: plans, runs, CSV/JSON reports, gaps, stats.

Runs are embarrassingly parallel; each gets a seed derived by content hash
from (base_seed, algorithm, variant, instance, rep), a time limit of
ceil(time_scale * n) seconds, and its tour is re-validated and re-costed by
run_solver before anything is recorded.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import math
import multiprocessing
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from operator import attrgetter
from statistics import median

from .errors import ZeroBaseline
from .instances import ROUNDING_MODES, Instance, build_distance_matrix, generate_random_instance, parse_instance
from .solvers import SolveBudget, get_algorithm, resolve_config, run_solver
from .solvers.base import convert_values
from .tours import costs_agree

CSV_HEADER = "algorithm,variant,config_id,instance,n,seed,rep,best_cost,elapsed_s,evaluations,nodes_expanded,status"

RUN_STATUSES = ("ok", "timeout_with_result", "failed")
_GRACE_FACTOR = 2.0  # elapsed beyond this multiple of the limit downgrades ok

# A run's identity, each key the one before plus a field: one plan line, one
# summary group, one run. Every reader takes the fields through attrgetter.
LINE_KEY = ("algorithm", "variant")
GROUP_KEY = (*LINE_KEY, "instance")
RUN_KEY = (*GROUP_KEY, "rep")


def stable_hash(*parts) -> int:
    """Deterministic 63-bit seed from the given parts, shared by the harness
    and the tuner.

    Content-addressed (SHA-256 over the stringified parts), so adding an
    algorithm to a plan never reshuffles the seeds of the others.
    """
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & 0x7FFFFFFFFFFFFFFF


def time_limit_for(n: int, time_scale: float) -> int:
    """Per-run limit in whole seconds: ceil(time_scale * n), never below 1."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    limit = time_scale * n
    if not (time_scale > 0 and math.isfinite(limit)):
        raise ValueError(f"time_scale must be positive and finite, got {time_scale}")
    return max(1, math.ceil(limit))


def compute_gap(baseline_cost: float, variant_cost: float) -> float:
    """Percent improvement over the baseline; positive means variant better.

    Costs within run_solver's re-costing tolerance (costs_agree) give 0.0: two
    variants that found one tour may have summed it from different starts."""
    if baseline_cost <= 0:
        raise ZeroBaseline(f"baseline cost must be positive, got {baseline_cost}")
    if costs_agree(baseline_cost, variant_cost):
        return 0.0
    return 100.0 * (baseline_cost - variant_cost) / baseline_cost


@dataclass(frozen=True)
class InstanceSpec:
    """Where one instance comes from: a TSPLIB file or the seeded generator."""

    source: str  # "file" | "random"
    path: str | None = None
    n: int | None = None
    seed: int | None = None
    lo: float = 0.0
    hi: float = 100.0

    def resolve(self) -> Instance:
        if self.source == "file":
            with open(self.path, encoding="utf-8") as fh:
                return parse_instance(fh.read())
        return generate_random_instance(self.n, self.seed, (self.lo, self.hi))


@dataclass(frozen=True)
class AlgorithmSpec:
    algorithm: str
    variant: str = "baseline"
    config_id: str = "default"
    values: dict = field(default_factory=dict)


@dataclass
class ExperimentPlan:
    instances: list[InstanceSpec]
    algorithms: list[AlgorithmSpec]
    repetitions: int = 30
    base_seed: int = 0
    time_scale: float = 1.0
    metric: str = "best_cost"  # best_cost | runtime
    rounding: str = "none"

    def __post_init__(self):
        if self.repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {self.repetitions}")
        if not 0 < self.time_scale < math.inf:
            raise ValueError(f"time_scale must be positive and finite, got {self.time_scale}")
        if self.metric not in ("best_cost", "runtime"):
            raise ValueError(f"metric must be best_cost or runtime, got {self.metric!r}")
        if self.rounding not in ROUNDING_MODES:
            raise ValueError(f"rounding must be one of {ROUNDING_MODES}, got {self.rounding!r}")
        lines = Counter(map(attrgetter(*LINE_KEY), self.algorithms))
        repeated = ", ".join(repr(line) for line, count in lines.items() if count > 1)
        if repeated:
            raise ValueError(f"plan names ({', '.join(LINE_KEY)}) {repeated} more than once; "
                             "seeds, summaries and gaps key runs by that pair")


@dataclass(frozen=True)
class RunRecord:
    algorithm: str
    variant: str
    config_id: str
    instance: str
    n: int
    seed: int
    rep: int
    best_cost: float | None
    elapsed_s: float
    evaluations: int | None
    nodes_expanded: int | None
    status: str  # one of RUN_STATUSES


@dataclass(frozen=True)
class SummaryStats:
    # GROUP_KEY's fields first, in its order: summarize fills them positionally.
    algorithm: str
    variant: str
    instance: str
    count: int
    minimum: float | None
    q1: float | None
    median: float | None
    q3: float | None
    maximum: float | None
    mean: float | None
    stddev: float | None
    n_a: bool = False


# Header and random-instance keys, each with its value conversion; the
# dataclass defaults fill in the keys a plan leaves out.
_HEADER_KEYS = {"repetitions": int, "base_seed": int, "time_scale": float,
                "metric": str, "rounding": str}
_RANDOM_KEYS = {"n": int, "seed": int, "lo": float, "hi": float}
# The numeric CSV columns; an empty cell in an optional one reads as None.
_CSV_NUMBERS = {"n": int, "seed": int, "rep": int, "best_cost": float, "elapsed_s": float,
                "evaluations": int, "nodes_expanded": int}
_CSV_OPTIONAL = ("best_cost", "evaluations", "nodes_expanded")
# The least value a run can give each count and time column.
_CSV_LEAST = {"n": 1, "rep": 0, "elapsed_s": 0, "evaluations": 0, "nodes_expanded": 0}


def _check_keys(given, valid, required, context: str) -> None:
    """Reject unknown and missing keys, naming them and every valid key."""
    unknown = [k for k in given if k not in valid]
    missing = [k for k in required if k not in given]
    if unknown or missing:
        problem = (f"unknown key {', '.join(map(repr, unknown))}" if unknown
                   else f"missing key {', '.join(map(repr, missing))}")
        raise ValueError(f"{context}: {problem}; valid: {', '.join(valid)}")


def parse_plan(text: str) -> ExperimentPlan:
    """Parse the plain-text plan format (key = value header plus two lists)."""
    lines = [raw.split("#", 1)[0].strip() for raw in text.splitlines()]
    lines = [line for line in lines if line]
    # The header (every line before the first [section]) is read first, so its errors win.
    start = next((i for i, line in enumerate(lines) if line.startswith("[")), len(lines))
    header = _parse_kv(lines[:start], "plan header")
    instances: list[InstanceSpec] = []
    algorithms: list[AlgorithmSpec] = []
    for line in lines[start:]:
        if line.startswith("["):
            section = line.strip("[]").lower()
            if section not in ("instances", "algorithms"):
                raise ValueError(f"unknown plan section [{section}]")
        elif section == "instances":
            instances.append(_parse_instance_line(line))
        else:
            algorithms.append(_parse_algorithm_line(line))
    if not instances:
        raise ValueError("plan has no [instances]")
    if not algorithms:
        raise ValueError("plan has no [algorithms]")
    _check_keys(header, _HEADER_KEYS, (), "plan header")
    return ExperimentPlan(instances=instances, algorithms=algorithms,
                          **convert_values(header, _HEADER_KEYS, "plan header"))


def load_plan(path: str) -> ExperimentPlan:
    with open(path, encoding="utf-8") as fh:
        return parse_plan(fh.read())


def _parse_kv(tokens: list[str], context: str) -> dict[str, str]:
    out = {}
    for tok in tokens:
        key, sep, value = tok.partition("=")
        key = key.strip()
        if not sep:
            raise ValueError(f"expected key=value in {context}, got {tok!r}")
        if key in out:
            raise ValueError(f"repeated key {key!r} in {context}")
        out[key] = value.strip()
    return out


def _parse_instance_line(line: str) -> InstanceSpec:
    tokens = line.split()
    kind = tokens[0]
    if kind == "file":
        if len(tokens) != 2:
            raise ValueError(f"instance line needs one path: {line!r}")
        return InstanceSpec(source="file", path=tokens[1])
    if kind == "random":
        kv = _parse_kv(tokens[1:], "instance line")
        context = f"instance line {line!r}"
        _check_keys(kv, _RANDOM_KEYS, ("n", "seed"), context)
        return InstanceSpec(source="random", **convert_values(kv, _RANDOM_KEYS, context))
    raise ValueError(f"unknown instance source {kind!r}")


def _parse_algorithm_line(line: str) -> AlgorithmSpec:
    tokens = line.split()
    name = tokens[0]
    kv = _parse_kv(tokens[1:], f"algorithm line {name}")
    variant = kv.pop("variant", "baseline")
    preset_name = kv.pop("preset", None)
    config_id, values, _ = resolve_config(name, variant, preset_name, kv)
    return AlgorithmSpec(name, variant, config_id=config_id, values=values)


@dataclass(frozen=True)
class RunSpec:
    algo: AlgorithmSpec
    instance_index: int
    rep: int
    seed: int
    time_limit: int


def expand_plan(plan: ExperimentPlan, names: list[str], sizes: list[int]) -> list[RunSpec]:
    """Deterministic run list: stochastic solvers get `repetitions` runs,
    deterministic heuristics exactly one."""
    specs = []
    for spec in plan.algorithms:
        info = get_algorithm(spec.algorithm)
        reps = 1 if info.kind == "deterministic" else plan.repetitions
        for idx, (name, n) in enumerate(zip(names, sizes)):
            for rep in range(reps):
                # Not RUN_KEY: a field added to the key must not reseed any row.
                seed = stable_hash(plan.base_seed, spec.algorithm, spec.variant, name, rep)
                specs.append(RunSpec(
                    algo=spec,
                    instance_index=idx,
                    rep=rep,
                    seed=seed,
                    time_limit=time_limit_for(n, plan.time_scale),
                ))
    return specs


def run_order(specs: list[RunSpec]) -> list[RunSpec]:
    """The runs in the order they start: longest time limit first, runs with
    equal limits in plan order."""
    return sorted(specs, key=lambda spec: -spec.time_limit)


# A worker process's plan, set once by _init_worker: the runs in run_order,
# the instances, the matrices and the draw of the next run to start.
_WORKER_PLAN: tuple | None = None


def _init_worker(runs: list[RunSpec], instances: list[Instance], matrices: list,
                 started) -> None:
    global _WORKER_PLAN

    def take() -> int:
        with started.get_lock():
            started.value += 1
            return started.value - 1

    _WORKER_PLAN = (runs, instances, matrices, take)


def _worker_drain() -> list[RunRecord]:
    return _drain(*_WORKER_PLAN)


def _drain(runs: list[RunSpec], instances: list[Instance], matrices: list,
           take) -> list[RunRecord]:
    """Start runs one at a time, runs[take()], until take() passes the end;
    returns the record of each run taken, in the order taken."""
    done = []
    while (k := take()) < len(runs):
        spec = runs[k]
        done.append(_execute_spec(spec, instances[spec.instance_index],
                                  matrices[spec.instance_index]))
    return done


def _execute_spec(spec: RunSpec, inst: Instance, matrix) -> RunRecord:
    algo = spec.algo
    shared = dict(algorithm=algo.algorithm, variant=algo.variant, config_id=algo.config_id,
                  instance=inst.name, n=inst.dimension, seed=spec.seed, rep=spec.rep)
    budget = SolveBudget(time_limit=float(spec.time_limit))
    try:
        outcome = run_solver(algo.algorithm, inst, matrix, algo.values, algo.variant,
                             budget, spec.seed)
    except Exception:
        return RunRecord(**shared, best_cost=None, elapsed_s=0.0, evaluations=None,
                         nodes_expanded=None, status="failed")
    late = outcome.elapsed > _GRACE_FACTOR * spec.time_limit or outcome.proven_optimal is False
    return RunRecord(**shared, best_cost=outcome.best_cost, elapsed_s=outcome.elapsed,
                     evaluations=outcome.evaluations, nodes_expanded=outcome.nodes_expanded,
                     status="timeout_with_result" if late else "ok")


def run_experiment(plan: ExperimentPlan, workers: int = 1) -> list[RunRecord]:
    """Execute every run of the plan; failures become failed rows, not aborts.

    Each worker process receives the runs, instances and matrices once, then
    starts one run at a time, the next in run_order that no worker has
    taken, until none is left. No more workers start than there are runs,
    and a single worker drains the same order in this process. Rows do not
    depend on workers, except elapsed_s and what a run that stops on the
    clock finds in its time."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    resolved = [spec.resolve() for spec in plan.instances]
    names = [inst.name for inst in resolved]
    shared = sorted(name for name, count in Counter(names).items() if count > 1)
    if shared:
        raise ValueError(f"plan instances share the name {', '.join(map(repr, shared))}; "
                         "each file needs its own NAME and each random line its own (n, seed)")
    matrices = [build_distance_matrix(inst, plan.rounding) for inst in resolved]
    runs = run_order(expand_plan(plan, names, [inst.dimension for inst in resolved]))
    workers = min(workers, len(runs))  # under fork, the pool starts every worker at once
    if workers <= 1:
        records = _drain(runs, resolved, matrices, itertools.count().__next__)
    else:
        started = multiprocessing.Value("q", 0)
        with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                                 initargs=(runs, resolved, matrices, started)) as pool:
            futures = [pool.submit(_worker_drain) for _ in range(workers)]
            records = [row for f in futures for row in f.result()]
    records.sort(key=attrgetter(*RUN_KEY))
    return records


def write_csv(records: list[RunRecord], path: str | None = None) -> str:
    """Serialize records; returns the CSV text (and writes it when path given)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    columns = CSV_HEADER.split(",")
    writer.writerow(columns)
    # csv writes None as an empty cell and a float as its shortest repr.
    writer.writerows([getattr(r, c) for c in columns] for r in records)
    text = buf.getvalue()
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def read_csv(text: str) -> list[RunRecord]:
    reader = csv.reader(io.StringIO(text))
    header = CSV_HEADER.split(",")
    if next(reader, None) != header:
        raise ValueError("unrecognized CSV header")
    records = []
    run_key = attrgetter(*RUN_KEY)
    first_line: dict[tuple, int] = {}  # run key -> the CSV line that has it
    for row in reader:
        if not row:
            continue
        if len(row) != len(header):
            raise ValueError(f"CSV line {reader.line_num} has {len(row)} fields, "
                             f"expected {len(header)}")
        cells = dict(zip(header, row))
        numbers = {c: cells[c] for c in _CSV_NUMBERS if cells[c] or c not in _CSV_OPTIONAL}
        r = RunRecord(**{**cells, **dict.fromkeys(_CSV_OPTIONAL),
                         **convert_values(numbers, _CSV_NUMBERS, f"CSV line {reader.line_num}")})
        for column in ("best_cost", "elapsed_s"):  # write_csv never writes nan or inf
            value = getattr(r, column)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"CSV line {reader.line_num} has a non-finite {column} {value!r}")
        for column in ("algorithm", "variant", "config_id", "instance"):
            if not getattr(r, column):
                raise ValueError(f"CSV line {reader.line_num} has an empty {column}")
        for column, least in _CSV_LEAST.items():
            value = getattr(r, column)
            if value is not None and value < least:
                raise ValueError(f"CSV line {reader.line_num} has {column} {value!r}; "
                                 f"a run's {column} is at least {least}")
        if r.status not in RUN_STATUSES:
            raise ValueError(f"CSV line {reader.line_num} has status {r.status!r}; "
                             f"expected one of {', '.join(RUN_STATUSES)}")
        if (r.best_cost is None) != (r.status == "failed"):
            raise ValueError(f"CSV line {reader.line_num} has status {r.status!r} "
                             f"{'without' if r.best_cost is None else 'with'} a best_cost; "
                             "a row has a best_cost exactly when its status is not failed")
        key = run_key(r)
        if first_line.setdefault(key, reader.line_num) != reader.line_num:
            raise ValueError(f"CSV line {reader.line_num} repeats the ({', '.join(RUN_KEY)}) "
                             f"{key} of line {first_line[key]}")
        records.append(r)
    return records


def order_statistics(values: list[float]) -> tuple[float, float, float, float, float]:
    """(min, q1, median, q3, max) with quartiles as medians of the halves,
    excluding the middle element when the count is odd."""
    s = sorted(values)
    n = len(s)
    med = median(s)
    if n == 1:
        return s[0], med, med, med, s[-1]
    q1 = median(s[: n // 2])
    q3 = median(s[(n + 1) // 2 :])
    return s[0], q1, med, q3, s[-1]


def summarize(records: list[RunRecord], metric: str = "best_cost") -> list[SummaryStats]:
    """Per GROUP_KEY stats of the metric over usable rows, in key order."""
    group_key = attrgetter(*GROUP_KEY)
    groups: dict[tuple, list[RunRecord]] = {}
    for r in records:
        groups.setdefault(group_key(r), []).append(r)
    out = []
    for key, rows in sorted(groups.items()):
        values = [
            r.elapsed_s if metric == "runtime" else r.best_cost
            for r in rows
            if r.status != "failed" and r.best_cost is not None
        ]
        if not values:
            out.append(SummaryStats(*key, 0, None, None, None, None, None, None, None, n_a=True))
            continue
        mn, q1, med, q3, mx = order_statistics(values)
        mean = sum(values) / len(values)
        if len(values) > 1:
            var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
            stddev = math.sqrt(var)
        else:
            stddev = 0.0
        out.append(SummaryStats(*key, len(values), mn, q1, med, q3, mx, mean, stddev))
    return out


def gap_table(records: list[RunRecord]) -> list[dict]:
    """Median-vs-median percent gaps of every variant against the variant
    named "baseline", per (algorithm, instance); positive means the variant
    is better.
    A zero baseline median (every city at one point) has no gap: None."""
    stats = [s for s in summarize(records) if not s.n_a]
    group_key = attrgetter(*GROUP_KEY)
    medians = {group_key(s): s.median for s in stats}
    rows = []
    for s in stats:
        base = medians.get(group_key(replace(s, variant="baseline")))
        if s.variant == "baseline" or base is None:
            continue
        rows.append({
            "algorithm": s.algorithm,
            "instance": s.instance,
            "variant": s.variant,
            "baseline_median": base,
            "variant_median": s.median,
            "gap_percent": None if base == 0 else compute_gap(base, s.median),
        })
    return rows


def json_report(plan: ExperimentPlan, records: list[RunRecord]) -> dict:
    """Versioned report: plan echo, per-group stats, gap table. Summary rows
    hold scalars only, so a shallow copy of each is its full dict."""
    return {
        "schema": 1,
        "plan": asdict(plan),
        "summary": [dict(vars(s)) for s in summarize(records, metric=plan.metric)],
        "gaps": gap_table(records),
    }
