"""The benchmark's three fixed-work workloads.

Each workload makes its inputs from the workload seed, writes them as TSPLIB
files, and loads them back through tsplab (`InstanceSpec.resolve`,
`build_distance_matrix`). A pass runs the workload's fixed run list once;
every run is seeded and either capped by evaluations or run to completion,
so two passes do identical work and must give identical outputs. See
README.md for why each workload exists.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
from dataclasses import dataclass, field

from measure import NullTracer, geometric_mean
from oracle import held_karp

REL_TOL = 1e-9  # the harness's re-costing tolerance
# Far above any capped run here. A run that reaches it would not be fixed
# work, so every capped run is also checked to have reached its cap.
TIME_LIMIT_S = 3600.0
PLAN_WORKERS = 2

HEURISTIC_PAIRS = (
    ("aco", "baseline"),
    ("alns", "baseline"),
    ("christofides", "baseline"),
    ("convex_hull", "baseline"),
    ("ga", "baseline"),
    ("ga", "hybrid_r1"),
    ("qlearning", "baseline"),
    ("sa", "baseline"),
    ("sa", "lundy_mees_r1"),
    ("sarsa", "baseline"),
    ("sarsa", "boltzmann_o1"),
    ("tabu", "baseline"),
)
DETERMINISTIC = ("christofides", "convex_hull")
BNB_VARIANTS = ("baseline", "enhanced_r1")

# Evaluation caps, sized on a 2-core Xeon so that each stochastic pair takes
# a comparable share (~0.3 s per n=200 instance, ~20 ms per small instance).
N200_CAPS = {
    ("aco", "baseline"): 30,
    ("alns", "baseline"): 6,
    ("ga", "baseline"): 3500,
    ("ga", "hybrid_r1"): 300,
    ("qlearning", "baseline"): 35,
    ("sa", "baseline"): 80_000,
    ("sa", "lundy_mees_r1"): 100_000,
    ("sarsa", "baseline"): 60,
    ("sarsa", "boltzmann_o1"): 32,
    ("tabu", "baseline"): 8,
}
SMALL_CAPS = {
    ("aco", "baseline"): 21,
    ("alns", "baseline"): 12,
    ("ga", "baseline"): 600,
    ("ga", "hybrid_r1"): 150,
    ("qlearning", "baseline"): 80,
    ("sa", "baseline"): 6000,
    ("sa", "lundy_mees_r1"): 6000,
    ("sarsa", "baseline"): 80,
    ("sarsa", "boltzmann_o1"): 30,
    ("tabu", "baseline"): 12,
}


def derive_seed(*parts) -> int:
    """Deterministic 62-bit seed from the parts (string seeding is hashed
    with SHA-512, so it does not depend on PYTHONHASHSEED)."""
    return random.Random("\x1f".join(map(str, parts))).getrandbits(62)


# ---------------------------------------------------------------- inputs


def uniform_points(rng: random.Random, n: int, size: float = 1000.0):
    return [(rng.uniform(0.0, size), rng.uniform(0.0, size)) for _ in range(n)]


def clustered_points(rng: random.Random, n: int, clusters: int = 8):
    centres = uniform_points(rng, clusters)
    pts = []
    for _ in range(n):
        cx, cy = centres[rng.randrange(clusters)]
        pts.append((rng.gauss(cx, 40.0), rng.gauss(cy, 40.0)))
    return pts


def geo_points(rng: random.Random, n: int):
    """TSPLIB DDD.MM latitude/longitude pairs."""
    def coord(max_deg):
        return rng.randint(-max_deg, max_deg - 1) + rng.randint(0, 49) / 100.0
    return [(coord(60), coord(170)) for _ in range(n)]


def rigid_motion(pts, rng: random.Random):
    """Rotate, maybe reflect, and translate: every distance is kept."""
    theta = rng.uniform(0.0, 2.0 * math.pi)
    c, s = math.cos(theta), math.sin(theta)
    flip = -1.0 if rng.random() < 0.5 else 1.0
    tx, ty = rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)
    return [(c * x - s * flip * y + tx, s * x + c * flip * y + ty) for x, y in pts]


def coords_tsplib(name: str, kind: str, pts) -> str:
    lines = [f"NAME : {name}", "TYPE : TSP", f"DIMENSION : {len(pts)}",
             f"EDGE_WEIGHT_TYPE : {kind}", "NODE_COORD_SECTION"]
    lines += [f"{i} {x!r} {y!r}" for i, (x, y) in enumerate(pts, start=1)]
    return "\n".join(lines + ["EOF"]) + "\n"


def explicit_tsplib(name: str, fmt: str, pts) -> str:
    """Integer-rounded Euclidean weights written in the given format."""
    n = len(pts)
    w = [[round(math.dist(p, q)) for q in pts] for p in pts]
    if fmt == "FULL_MATRIX":
        rows = w
    elif fmt == "LOWER_DIAG_ROW":
        rows = [w[i][: i + 1] for i in range(n)]
    elif fmt == "UPPER_ROW":
        rows = [w[i][i + 1:] for i in range(n - 1)]
    else:
        raise ValueError(f"unknown weight format {fmt}")
    lines = [f"NAME : {name}", "TYPE : TSP", f"DIMENSION : {n}",
             "EDGE_WEIGHT_TYPE : EXPLICIT", f"EDGE_WEIGHT_FORMAT : {fmt}",
             "EDGE_WEIGHT_SECTION"]
    lines += [" ".join(map(str, row)) for row in rows]
    return "\n".join(lines + ["EOF"]) + "\n"


def instance_text(name: str, kind: str, n: int, rng: random.Random) -> str:
    """A seeded TSPLIB instance; `kind` is EUC_2D, GEO or an EXPLICIT format."""
    if kind == "EUC_2D":
        return coords_tsplib(name, kind, uniform_points(rng, n))
    if kind == "GEO":
        return coords_tsplib(name, kind, geo_points(rng, n))
    return explicit_tsplib(name, kind, uniform_points(rng, n))


def write_file(workdir: str, name: str, text: str) -> str:
    path = os.path.join(workdir, name + ".tsp")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


@dataclass
class Loaded:
    inst: object
    d: object
    nn_cost: float  # cost of tsplab's nearest-neighbour tour from city 0


def load(T, specs, tracer) -> list[Loaded]:
    """Resolve and build each instance the way the harness does."""
    out = []
    for spec in specs:
        with tracer.span("instances.parse"):
            inst = spec.resolve()
        with tracer.span("instances.matrix." + inst.kind.lower()):
            d = T.build_distance_matrix(inst)
        out.append(Loaded(inst, d, T.tour_length(T.nearest_neighbor_tour(d, 0), d)))
    return out


# ---------------------------------------------------------------- results


@dataclass
class Row:
    """One run as the benchmark checked it; `failed` names the first problem."""

    key: tuple
    best_cost: float | None
    evaluations: int | None
    nodes: int | None
    failed: str | None
    nn_cost: float


@dataclass
class PassResult:
    rows: list[Row]
    # Rows of the written CSV without elapsed_s (plan_sweep only).
    csv_rows: list = field(default_factory=list)
    # layer name -> (seconds, work) measured inside worker processes, where
    # the benchmark's spans cannot reach (plan_sweep only).
    remote: dict = field(default_factory=dict)
    solver_busy_s: float = 0.0
    records: list = field(default_factory=list)
    csv_text: str = ""

    def fingerprint(self):
        return ([(r.key, r.best_cost, r.evaluations, r.nodes, r.failed) for r in self.rows],
                self.csv_rows)

    def cost_ratio_nn(self) -> float:
        return geometric_mean([r.best_cost / r.nn_cost for r in self.rows
                               if r.best_cost is not None])


def revalidate(T, tour, reported: float, d) -> str | None:
    """The harness's check: a permutation whose re-computed cost matches."""
    check = T.validate_tour(tour, len(d))
    if not check.ok:
        return f"invalid tour: {check.problem}"
    cost = T.tour_length(tour, d)
    if abs(cost - reported) > REL_TOL * max(1.0, abs(cost)):
        return f"reported cost {reported!r} != recomputed {cost!r}"
    return None


def min_evaluations(T, alg: str, cap: int) -> int:
    """Evaluations a capped run must reach unless it finished on its own:
    RL runs stop after their preset episodes plus one greedy rollout."""
    if alg in ("qlearning", "sarsa"):
        return min(cap, int(T.preset(alg, "original").values["episodes"]) + 1)
    return cap


def run_heuristic(T, tracer, key, alg, variant, item: Loaded, cap, seed) -> Row:
    budget = None
    if alg not in DETERMINISTIC:
        budget = T.SolveBudget(time_limit=TIME_LIMIT_S, max_evaluations=cap)
    try:
        with tracer.span(f"solver.{alg}.{variant}") as sp:
            out = T.run_solver(alg, item.inst, item.d, {}, variant, budget, seed)
            sp.work = out.evaluations or 0
    except Exception as exc:  # a failing run is counted, not fatal
        return Row(key, None, None, None, f"{type(exc).__name__}: {exc}", item.nn_cost)
    with tracer.span("tours.revalidate"):
        problem = revalidate(T, out.best, out.best_cost, item.d)
    if problem is None and budget is not None and out.evaluations < min_evaluations(T, alg, cap):
        problem = f"stopped at {out.evaluations} evaluations, before its cap {cap}"
    return Row(key, out.best_cost, out.evaluations, None, problem, item.nn_cost)


def run_bnb(T, tracer, key, variant, item: Loaded) -> Row:
    try:
        with tracer.span(f"solver.branch_and_bound.{variant}") as sp:
            opt = T.branch_and_bound(item.d, variant=variant)
            sp.work = opt.nodes_expanded
    except Exception as exc:
        return Row(key, None, None, None, f"{type(exc).__name__}: {exc}", item.nn_cost)
    with tracer.span("tours.revalidate"):
        problem = revalidate(T, opt.best, opt.best_cost, item.d)
    if problem is None and not opt.proven_optimal:
        problem = "optimality not proven"
    return Row(key, opt.best_cost, None, opt.nodes_expanded, problem, item.nn_cost)


def heuristic_runs(T, tracer, probe, seed, items: list[Loaded], caps) -> list[Row]:
    rows = []
    for idx, item in enumerate(items):
        for alg, variant in HEURISTIC_PAIRS:
            if alg == "convex_hull" and item.inst.kind == "EXPLICIT":
                continue  # the hull needs coordinates
            rows.append(run_heuristic(T, tracer, (alg, variant, item.inst.name), alg, variant,
                                      item, caps.get((alg, variant)),
                                      derive_seed(seed, alg, variant, idx)))
            probe.between()
    return rows


# ---------------------------------------------------------------- workloads


class HeuristicsN200:
    """Every heuristic pair on n=200 EUC_2D instances, called through
    run_solver with evaluation caps; the harness is bypassed."""

    name = "heuristics_n200"
    workers = 1

    def __init__(self, seed: int, workdir: str):
        self.seed, self.workdir = seed, workdir
        self.items: list[Loaded] = []

    def setup(self, T, tracer=NullTracer()):
        rng = random.Random(derive_seed(self.seed, self.name))
        specs = []
        for name, pts in ((f"uni200_{self.seed}", uniform_points(rng, 200)),
                          (f"clu200_{self.seed}", clustered_points(rng, 200))):
            path = write_file(self.workdir, name, coords_tsplib(name, "EUC_2D", pts))
            specs.append(T.InstanceSpec(source="file", path=path))
        self.items = load(T, specs, tracer)

    def run_pass(self, T, tracer, probe) -> PassResult:
        return PassResult(heuristic_runs(T, tracer, probe, self.seed, self.items, N200_CAPS))

    def check(self, T, result: PassResult) -> list[str]:
        return []


class SmallN:
    """Branch and bound to proof at n=12-13, plus short capped heuristic
    runs on n=20-30 instances of every edge-weight kind."""

    name = "small_n"
    workers = 1
    # (kind, n) of the heuristic instances. Sizes are fixed so that every
    # seed does the same amount of work; the seed moves every city.
    HEURISTIC_SET = (("EUC_2D", 20), ("EUC_2D", 30), ("GEO", 24), ("GEO", 28),
                     ("UPPER_ROW", 22), ("LOWER_DIAG_ROW", 26))
    BNB_SIZES = (12,) * 8 + (13,) * 8

    def __init__(self, seed: int, workdir: str):
        self.seed, self.workdir = seed, workdir
        self.items: list[Loaded] = []
        self.bnb_items: list[Loaded] = []

    def setup(self, T, tracer=NullTracer()):
        rng = random.Random(derive_seed(self.seed, self.name))
        specs = []
        for idx, (kind, n) in enumerate(self.HEURISTIC_SET):
            name = f"small{idx}_{kind.lower()}{n}_{self.seed}"
            path = write_file(self.workdir, name, instance_text(name, kind, n, rng))
            specs.append(T.InstanceSpec(source="file", path=path))
        # Branch and bound's tree size varies several-fold between random
        # instances of one size (1.6M to 3.9M nodes over 16 solves, between
        # seeds), so its instances are one fixed base set that the seed moves
        # rigidly: every coordinate changes, the amount of work does not, and
        # wall_s stays comparable across seeds.
        base = random.Random("small_n branch-and-bound base set")
        bnb_specs = []
        for idx, n in enumerate(self.BNB_SIZES):
            name = f"bnb{idx}_n{n}_{self.seed}"
            pts = rigid_motion(uniform_points(base, n), rng)
            path = write_file(self.workdir, name, coords_tsplib(name, "EUC_2D", pts))
            bnb_specs.append(T.InstanceSpec(source="file", path=path))
        self.items = load(T, specs, tracer)
        self.bnb_items = load(T, bnb_specs, tracer)

    def run_pass(self, T, tracer, probe) -> PassResult:
        rows = []
        for item in self.bnb_items:
            for v in BNB_VARIANTS:
                rows.append(run_bnb(T, tracer, ("branch_and_bound", v, item.inst.name), v, item))
                probe.between()
        rows += heuristic_runs(T, tracer, probe, self.seed, self.items, SMALL_CAPS)
        return PassResult(rows)

    def check(self, T, result: PassResult) -> list[str]:
        """Both B&B variants agree with each other and with Held-Karp."""
        problems = []
        costs = {r.key: r.best_cost for r in result.rows}
        for item in self.bnb_items:
            exact = held_karp(item.d)
            for v in BNB_VARIANTS:
                got = costs.get(("branch_and_bound", v, item.inst.name))
                if got is None or abs(got - exact) > REL_TOL * max(1.0, exact):
                    problems.append(f"{item.inst.name}: B&B {v} cost {got!r} != Held-Karp {exact!r}")
        return problems


class PlanSweep:
    """A plan through the user-facing harness: parse_plan, run_experiment
    with two workers, write_csv and json_report."""

    name = "plan_sweep"
    workers = PLAN_WORKERS
    RANDOM_INSTANCES = 200
    # (kind, n) of the TSPLIB files the plan names. The n=1000 matrix, as a
    # list of lists, is larger than a 2 MiB per-core L2 cache.
    FILES = (("EUC_2D", 1000), ("GEO", 60), ("FULL_MATRIX", 50),
             ("LOWER_DIAG_ROW", 50), ("UPPER_ROW", 50))
    REPETITIONS = 2
    EPISODES = 2  # inline RL episodes: fixed work far inside the time limit
    STOCHASTIC_LINES = 3  # qlearning, sarsa, sarsa boltzmann_o1

    def __init__(self, seed: int, workdir: str):
        self.seed, self.workdir = seed, workdir
        self.plan_text = ""
        self.nn_cost: dict[str, float] = {}
        self.expected_runs = 0

    def setup(self, T, tracer=NullTracer()):
        rng = random.Random(derive_seed(self.seed, self.name))
        lines = [f"repetitions = {self.REPETITIONS}", f"base_seed = {self.seed}",
                 "time_scale = 1.0", "[instances]"]
        specs = []
        for k in range(self.RANDOM_INSTANCES):
            n, inst_seed = 5 + k % 8, derive_seed(self.seed, self.name, k)
            lines.append(f"random n={n} seed={inst_seed}")
            specs.append(T.InstanceSpec(source="random", n=n, seed=inst_seed))
        for kind, n in self.FILES:
            name = f"{kind.lower()}{n}_{self.seed}"
            path = write_file(self.workdir, name, instance_text(name, kind, n, rng))
            lines.append(f"file {path}")
            specs.append(T.InstanceSpec(source="file", path=path))
        lines += ["[algorithms]", "christofides",
                  f"qlearning episodes={self.EPISODES}",
                  f"sarsa episodes={self.EPISODES}",
                  f"sarsa variant=boltzmann_o1 episodes={self.EPISODES}"]
        self.plan_text = "\n".join(lines) + "\n"
        self.nn_cost = {item.inst.name: item.nn_cost for item in load(T, specs, tracer)}
        self.expected_runs = len(specs) * (1 + self.STOCHASTIC_LINES * self.REPETITIONS)

    def run_pass(self, T, tracer, probe) -> PassResult:
        with tracer.span("bench.parse_plan"):
            plan = T.parse_plan(self.plan_text)
        with tracer.span("bench.run_experiment") as sp:
            records = T.run_experiment(plan, workers=PLAN_WORKERS)
            sp.work = len(records)
        probe.between()
        with tracer.span("bench.report"):
            csv_text = T.write_csv(records, os.path.join(self.workdir, "results.csv"))
            with open(os.path.join(self.workdir, "report.json"), "w", encoding="utf-8") as fh:
                json.dump(T.json_report(plan, records), fh)
        rows, remote = [], {}
        for r in records:
            failed = None if r.status == "ok" else f"status {r.status}"
            rows.append(Row((r.algorithm, r.variant, r.config_id, r.instance, r.rep, r.seed),
                            r.best_cost, r.evaluations, r.nodes_expanded, failed,
                            self.nn_cost[r.instance]))
            name = f"solver.{r.algorithm}.{r.variant}"
            t, w = remote.get(name, (0.0, 0))
            remote[name] = (t + r.elapsed_s, w + (r.evaluations or 0))
        elapsed_col = T.CSV_HEADER.split(",").index("elapsed_s")
        csv_rows = [row[:elapsed_col] + row[elapsed_col + 1:]
                    for row in csv.reader(io.StringIO(csv_text))]
        return PassResult(rows, csv_rows, remote, sum(r.elapsed_s for r in records),
                          records, csv_text)

    def check(self, T, result: PassResult) -> list[str]:
        problems = []
        if len(result.rows) != self.expected_runs:
            problems.append(f"{len(result.rows)} rows, expected {self.expected_runs}")
        if T.read_csv(result.csv_text) != result.records:
            problems.append("the CSV does not read back to the records")
        return problems


WORKLOADS = {w.name: w for w in (HeuristicsN200, SmallN, PlanSweep)}
