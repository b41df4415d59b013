"""Shared solver plumbing: budgets, results, best-so-far tracking, and the
SolverSpec each solver module declares to describe itself to the lab."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, get_type_hints

import numpy as np

from ..errors import NoSuchColumn, UnknownAlgorithm
from ..instances import read_matrix
from ..tours import tour_length

PRESET_COLUMNS = ("original", "claude", "gemini", "llama", "o1", "r1")
TINY = 1e-12  # GA, ACO and RL add it to a divisor, or floor one at it: no division by zero
# float_rows gives an n x n array's tolist() below this many cities and one
# memoryview per row from here: a list reads faster, but from about here
# fixed-work runs measured no slower on memoryviews, which build no n x n list.
ROW_VIEW_MIN = 300


@dataclass(frozen=True)
class SolveBudget:
    """Stop at whichever bound triggers first; at least one must be set.

    The time limit is a soft deadline: solvers check it between iterations,
    and every solver completes at least one full solution before honoring it.
    """

    time_limit: float | None = None
    max_evaluations: int | None = None

    def __post_init__(self):
        if self.time_limit is None and self.max_evaluations is None:
            raise ValueError("budget needs a time limit or an evaluation cap")
        # `not 0 < x < inf` also rejects NaN, which compares false to every limit.
        if self.time_limit is not None and not 0 < self.time_limit < math.inf:
            raise ValueError(f"time_limit must be positive and finite, got {self.time_limit}")
        cap = self.max_evaluations
        if cap is not None:
            if not (1 <= cap < math.inf and cap % 1 == 0):
                raise ValueError(f"max_evaluations must be a whole number >= 1, got {cap}")
            # Stored as an int: a solver may range() over what is left of it.
            object.__setattr__(self, "max_evaluations", int(cap))


@dataclass
class SolveResult:
    """Outcome of one seeded solver run.

    trajectory holds (elapsed seconds, cost) at each strict improvement, so
    its costs are strictly decreasing and the last equals best_cost. All
    fields except elapsed and trajectory times are deterministic in the seed.
    The exact solver reports nodes_expanded and proven_optimal instead of
    evaluations and a trajectory.
    """

    best: list[int]
    best_cost: float
    trajectory: list[tuple[float, float]] | None
    evaluations: int | None
    elapsed: float
    nodes_expanded: int | None = None
    proven_optimal: bool | None = None


@dataclass
class RunTracker:
    """Clock, evaluation counter, and strictly-improving incumbent record.

    evaluate() is the one place a complete tour is costed, counted as one
    evaluation and offered to the incumbent. offer_summed() takes a tour whose
    cost was summed from move deltas, as SA and tabu keep it: it costs the tour
    exactly before offering it and counts no evaluation.
    """

    budget: SolveBudget | None
    started: float = field(default_factory=time.perf_counter)
    evaluations: int = 0
    best: list[int] | None = None
    best_cost: float = float("inf")
    trajectory: list[tuple[float, float]] = field(default_factory=list)

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def offer(self, tour: list[int], cost: float) -> bool:
        """Record a candidate; keeps it only on strict improvement."""
        if cost < self.best_cost:
            self.best = list(tour)
            self.best_cost = cost
            self.trajectory.append((self.elapsed(), cost))
            return True
        return False

    def evaluate(self, tour: list[int], d) -> tuple[float, bool]:
        """Cost a complete tour on d, count it, offer it: (cost, is_new_best)."""
        cost = tour_length(tour, d)
        self.evaluations += 1
        return cost, self.offer(tour, cost)

    def evaluate_rows(self, rows: np.ndarray, matrix: np.ndarray) -> list[float]:
        """evaluate() for each row of rows, an intp array of complete tours on
        the float array matrix, in order until out_of_budget(): the costs of
        the rows evaluated. Each cost is tour_length's: the closing edge, then
        each leg, added in sequence by cumsum, and + 0.0 as tour_length's
        start from 0.0, which turns a sum of -0.0 legs into 0.0."""
        n = rows.shape[1]
        index = np.empty_like(rows)  # flat matrix index of each leg, closing edge first
        index[:, 0] = rows[:, -1]
        index[:, 1:] = rows[:, :-1]
        index *= n
        index += rows
        legs = matrix.take(index)
        costs = (np.cumsum(legs, axis=1, out=legs)[:, -1] + 0.0).tolist()
        for k, cost in enumerate(costs):
            self.evaluations += 1
            if cost < self.best_cost:
                self.offer(rows[k].tolist(), cost)
            if self.out_of_budget():
                return costs[: k + 1]
        return costs

    def offer_summed(self, tour: list[int], cost: float, d) -> float:
        """The cost to carry on with for a tour whose cost was summed from
        move deltas; one that looks like a new best is re-costed on d, since
        summed deltas drift, and offered."""
        if cost < self.best_cost:
            cost = tour_length(tour, d)
            self.offer(tour, cost)
        return cost

    def out_of_budget(self) -> bool:
        b = self.budget
        if b.max_evaluations is not None and self.evaluations >= b.max_evaluations:
            return True
        # elapsed() inlined: this check runs once per solver iteration.
        if b.time_limit is not None and time.perf_counter() - self.started >= b.time_limit:
            return True
        return False

    def result(self) -> SolveResult:
        if self.best is None:
            raise RuntimeError("no solution was ever offered")
        return SolveResult(
            best=self.best,
            best_cost=self.best_cost,
            trajectory=self.trajectory,
            evaluations=self.evaluations,
            elapsed=self.elapsed(),
        )


def float_rows(array: np.ndarray) -> list:
    """The rows of a 2-D float64 array, each giving its entries as Python
    floats: array.tolist() below ROW_VIEW_MIN rows, one memoryview per row
    from there."""
    if len(array) < ROW_VIEW_MIN:
        return array.tolist()
    return [memoryview(row) for row in array]


def operator_score(new_best: bool, improved: bool) -> float:
    """Adaptive-operator score (Ropke & Pisinger 2006): 3 new best, 1 improved, else 0."""
    return 3.0 if new_best else (1.0 if improved else 0.0)


def update_weights(weights: list[float], used: int, score: float, reaction: float) -> list[float]:
    """One adaptive-roulette refresh; the unused operators earn score 0."""
    return [(1.0 - reaction) * w + reaction * (score if k == used else 0.0)
            for k, w in enumerate(weights)]


def convert_values(kv: dict, types: dict[str, type], context: str) -> dict:
    """kv with each value converted to its key's type; one that does not
    convert raises ValueError naming the context, the key and the value."""
    out = {}
    for key, value in kv.items():
        try:
            out[key] = types[key](value)
        except ValueError:
            kind = "an integer" if types[key] is int else "a number"
            raise ValueError(f"{context}: {key} must be {kind}, got {value!r}") from None
    return out


@dataclass(frozen=True)
class ParamDef:
    name: str
    kind: str  # "int" | "real"
    lo: float
    hi: float

    def __post_init__(self):
        if self.kind not in ("int", "real"):
            raise ValueError(f"kind must be int or real, got {self.kind!r}")
        if not self.lo < self.hi:
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class ParamSpace:
    algorithm: str
    params: tuple[ParamDef, ...]


@dataclass(frozen=True)
class ParamConfig:
    algorithm: str
    values: dict
    provenance: str


@dataclass(frozen=True)
class SolverSpec:
    """Everything the lab knows about one algorithm, declared once beside it.

    tuning maps each tuned parameter to ((lo, hi), cells): its search range
    and one preset cell per PRESET_COLUMNS entry. Whether a parameter is int
    or real is its field type in the params dataclass. run(inst, d, params,
    variant, budget, seed) returns a SolveResult.
    """

    name: str
    kind: str  # stochastic | deterministic | exact
    variants: tuple[str, ...]
    run: Callable[..., SolveResult]
    params: type | None = None
    tuning: dict[str, tuple[tuple[float, float], tuple]] = field(default_factory=dict)

    def check_variant(self, variant: str) -> None:
        if variant not in self.variants:
            raise ValueError(f"{self.name} has no variant {variant!r}")

    def start(self, d, budget: SolveBudget | None, variant: str = "baseline"):
        """Refuse an unknown variant and, for a stochastic kind, a missing
        budget; then start the run's clock and read d once through
        read_matrix: (tracker, array, float_rows(array)). elapsed, the time
        budget and the trajectory times all cover the read."""
        self.check_variant(variant)
        if self.kind == "stochastic" and budget is None:
            raise ValueError(f"{self.name} needs a budget")
        tracker = RunTracker(budget)
        matrix = read_matrix(d)
        return tracker, matrix, float_rows(matrix)

    @property
    def tunable(self) -> bool:
        return bool(self.tuning)

    @cached_property
    def field_types(self) -> dict[str, type]:
        """Parameter name -> type, for every field of the params dataclass."""
        return get_type_hints(self.params) if self.params is not None else {}

    def space(self) -> ParamSpace:
        types = self.field_types
        return ParamSpace(self.name, tuple(
            ParamDef(name, "int" if types[name] is int else "real", lo, hi)
            for name, ((lo, hi), _) in self.tuning.items()
        ))

    def preset(self, column: str) -> ParamConfig:
        """The shipped tuned values for one source column."""
        if not self.tunable:
            raise UnknownAlgorithm(f"no presets for algorithm {self.name!r}")
        if column not in PRESET_COLUMNS:
            raise NoSuchColumn(f"no preset column {column!r}; one of {PRESET_COLUMNS}")
        idx = PRESET_COLUMNS.index(column)
        values = {name: cells[idx] for name, (_, cells) in self.tuning.items()}
        return ParamConfig(algorithm=self.name, values=values, provenance=f"preset({column})")

    def make_params(self, values: dict):
        """The params bundle: the original preset overridden by values, each
        finite, whole where its field is an int, and converted to its field
        type; None for solvers without params."""
        if self.params is None:
            return None
        types = self.field_types
        merged = {**self.preset("original").values, **values}
        for k, v in merged.items():
            if not math.isfinite(v):
                raise ValueError(f"{self.name} parameter {k} must be finite, got {v}")
            if types[k] is int and v % 1:
                raise ValueError(f"{self.name} parameter {k} must be a whole number, got {v}")
        return self.params(**{
            k: int(v) if types[k] is int else float(v) for k, v in merged.items()
        })
