"""Configuration sampling and a transparent racing tuner.

Parameter spaces and the shipped tuned presets (one column per source
configuration: original, claude, gemini, llama, o1, r1) come from each
solver's SolverSpec, through tsplab.solvers. The race is a simplified stand-in
for a full configurator: mean rank plus one standard error decides
eliminations round by round under an exact run budget.
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass
from itertools import groupby

from .bench import stable_hash, time_limit_for
from .errors import BudgetTooSmall
from .instances import Instance, build_distance_matrix
from .solvers import ParamConfig, ParamSpace, SolveBudget, parameter_space, run_solver


def sample_config(space: ParamSpace, seed: int) -> ParamConfig:
    """Uniform independent draw per parameter; deterministic in seed."""
    rng = random.Random(seed)
    values = {}
    for p in space.params:
        if p.kind == "int":
            values[p.name] = rng.randint(int(p.lo), int(p.hi))
        else:
            values[p.name] = p.lo + (p.hi - p.lo) * rng.random()
    return ParamConfig(algorithm=space.algorithm, values=values, provenance=f"sampled(seed={seed})")


@dataclass
class RaceState:
    """Bookkeeping of one race: survivors, per-round costs and ranks."""

    configs: list[ParamConfig]
    alive: list[int]
    costs: dict[int, list[float]]
    ranks: dict[int, list[float]]
    spent: int = 0
    rounds: int = 0


def race(
    algorithm: str,
    instances: list[Instance] | None = None,
    budget: int = 500,
    candidates: int = 16,
    seed: int = 0,
    time_scale: float = 1.0,
    variant: str = "baseline",
    runner=None,
) -> tuple[ParamConfig, RaceState]:
    """Race sampled configs on the training instances under an exact run budget.

    Each round draws one new (instance, seed) pair shared by all survivors;
    a config is eliminated once its mean rank trails the best mean rank by
    more than one standard error of the best config's ranks. The survivor
    with the best mean cost wins; returns it with the final RaceState.
    `runner(config, instance, run_seed)` can be injected for tests; the
    default builds the distance matrix and runs the real solver with the
    protocol time limit.
    """
    space = parameter_space(algorithm)
    if candidates < 2:
        raise ValueError(f"candidates must be >= 2, got {candidates}")
    if not instances:
        raise ValueError("need at least one training instance")
    if budget < candidates * len(instances):
        raise BudgetTooSmall(
            f"budget {budget} < candidates x instances = {candidates * len(instances)}"
        )
    if runner is None:
        runner = _default_runner(algorithm, variant, time_scale)

    configs = [sample_config(space, stable_hash(seed, "candidate", i)) for i in range(candidates)]
    state = RaceState(configs=configs, alive=list(range(candidates)),
                      costs={i: [] for i in range(candidates)},
                      ranks={i: [] for i in range(candidates)})

    while len(state.alive) > 1 and state.spent + len(state.alive) <= budget:
        inst = instances[state.rounds % len(instances)]
        run_seed = stable_hash(seed, "round", state.rounds)
        round_costs = []
        for i in state.alive:
            cost = runner(state.configs[i], inst, run_seed)
            state.costs[i].append(cost)
            round_costs.append((cost, i))
            state.spent += 1
        for rank, i in _ranked(round_costs):
            state.ranks[i].append(rank)
        state.rounds += 1
        if state.rounds >= 2:
            means = {i: statistics.fmean(state.ranks[i]) for i in state.alive}
            best_i = min(state.alive, key=lambda i: (means[i], i))
            se = statistics.stdev(state.ranks[best_i]) / math.sqrt(state.rounds)
            state.alive = [i for i in state.alive if means[i] <= means[best_i] + se or i == best_i]

    winner = min(state.alive, key=lambda i: (statistics.fmean(state.costs[i]), i))
    cfg = state.configs[winner]
    final = ParamConfig(
        algorithm=cfg.algorithm,
        values=dict(cfg.values),
        provenance=f"raced(seed={seed},rounds={state.rounds},runs={state.spent})",
    )
    return final, state


def _ranked(round_costs: list[tuple[float, int]]):
    """Competition ranks with ties averaged."""
    out = []
    for _, group in groupby(sorted(round_costs), key=lambda ci: ci[0]):
        ids = [i for _, i in group]
        avg_rank = len(out) + (len(ids) + 1) / 2.0  # mean of ranks len(out)+1 .. len(out)+len(ids)
        out += [(avg_rank, i) for i in ids]
    return out


def _default_runner(algorithm: str, variant: str, time_scale: float):
    def run(config: ParamConfig, inst: Instance, run_seed: int) -> float:
        matrix = build_distance_matrix(inst)
        limit = time_limit_for(inst.dimension, time_scale)
        outcome = run_solver(
            algorithm, inst, matrix, config.values, variant,
            SolveBudget(time_limit=float(limit)), run_seed,
        )
        return outcome.best_cost

    return run
