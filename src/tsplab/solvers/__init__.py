"""Solver registry: one uniform entry point per algorithm for harness and CLI.

Each solver module declares its algorithm's SolverSpec; everything below is
derived from those specs.
"""

from __future__ import annotations

import numpy as np

from ..errors import DimensionMismatch, InvalidTour, UnknownAlgorithm, UnknownParameter
from ..instances import Instance
from ..tours import costs_agree, tour_length, validate_tour
from . import aco, alns, branch_bound, constructive, ga, rl, sa, tabu
from .aco import AcoParams, solve_aco
from .alns import AlnsParams, solve_alns
from .base import (
    PRESET_COLUMNS, ParamConfig, ParamDef, ParamSpace, SolveBudget, SolveResult, SolverSpec, convert_values,
)
from .branch_bound import bound_cache, branch_and_bound
from .constructive import christofides, convex_hull, convex_hull_tour, greedy_matching, minimum_spanning_tree
from .ga import GaParams, nn_seed_count, solve_ga
from .rl import RlParams, boltzmann_probabilities, solve_qlearning, solve_sarsa
from .sa import SaParams, lundy_mees_beta, lundy_mees_step, solve_sa
from .tabu import TabuParams, solve_tabu

ALGORITHMS: dict[str, SolverSpec] = {spec.name: spec for spec in (
    aco.SPEC, ga.SPEC, alns.SPEC, tabu.SPEC, sa.SPEC, rl.QLEARNING_SPEC, rl.SARSA_SPEC,
    constructive.CHRISTOFIDES_SPEC, constructive.CONVEX_HULL_SPEC, branch_bound.SPEC,
)}


def get_algorithm(name: str) -> SolverSpec:
    try:
        return ALGORITHMS[name]
    except KeyError:
        raise UnknownAlgorithm(f"unknown algorithm: {name!r}") from None


def parameter_space(algorithm: str) -> ParamSpace:
    spec = ALGORITHMS.get(algorithm)
    if spec is None or not spec.tunable:
        raise UnknownAlgorithm(f"no parameter space for algorithm {algorithm!r}")
    return spec.space()


def preset(algorithm: str, column: str) -> ParamConfig:
    """The shipped tuned values for one algorithm and source column."""
    return get_algorithm(algorithm).preset(column)


def resolve_config(
    algorithm: str, variant: str, preset: str | None = None, values: dict | None = None,
) -> tuple[str, dict, object]:
    """(config_id, values, params) of one run: a named preset column, inline
    values ("custom", each converted to float), or else the original preset
    of a tunable solver ("original") and no values for the others
    ("default"); params is the bundle make_params builds from the values.
    Values the params bundle rejects raise ValueError here, before any run."""
    spec = get_algorithm(algorithm)
    spec.check_variant(variant)
    if preset is not None and values:
        raise ValueError(f"give either preset= or inline values for {algorithm}, not both")
    if preset is not None:
        config_id, values = preset, dict(spec.preset(preset).values)
    elif values:
        known = spec.field_types
        unknown = ", ".join(repr(k) for k in values if k not in known)
        if unknown:
            raise UnknownParameter(f"{algorithm} has no parameter {unknown}; "
                                   f"valid: {', '.join(known) or 'none'}")
        config_id = "custom"
        values = convert_values(values, dict.fromkeys(values, float), f"{algorithm} parameters")
    elif spec.tunable:
        config_id, values = "original", dict(spec.preset("original").values)
    else:
        config_id, values = "default", {}
    return config_id, values, spec.make_params(values)


def run_solver(
    algorithm: str,
    inst: Instance,
    matrix,
    values: dict | None,
    variant: str,
    budget: SolveBudget | None,
    seed: int,
) -> SolveResult:
    """Run one algorithm and check its tour; stochastic solvers require a budget.

    values override the original preset, so callers may give only the knobs
    they care about. A matrix whose row count is not the instance's dimension
    raises DimensionMismatch before the run. The returned tour is re-validated
    as a permutation of the instance's cities and re-costed on `matrix` read
    as float64; a tour that fails, or a reported cost off by more than 1e-9
    relative, raises InvalidTour. The result carries the re-costed best_cost.
    """
    spec = get_algorithm(algorithm)
    _, _, params = resolve_config(algorithm, variant, None, values)
    if len(matrix) != inst.dimension:
        raise DimensionMismatch(f"matrix has {len(matrix)} rows for {inst.dimension} cities")
    result = spec.run(inst, matrix, params, variant, budget, seed)
    check = validate_tour(result.best, inst.dimension)
    if not check.ok:
        raise InvalidTour(f"{algorithm} returned an invalid tour: {check.problem}")
    cost = tour_length(result.best, np.asarray(matrix, dtype=float))
    if not costs_agree(cost, result.best_cost):
        raise InvalidTour(f"{algorithm} reported cost {result.best_cost} != recomputed {cost}")
    result.best_cost = cost
    return result
