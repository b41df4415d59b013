import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsplab import (
    BudgetTooSmall,
    NoSuchColumn,
    ParamDef,
    ParamSpace,
    SolveBudget,
    UnknownAlgorithm,
    build_distance_matrix,
    generate_random_instance,
    parameter_space,
    preset,
    race,
    run_solver,
    sample_config,
)
from tsplab.solvers import ALGORITHMS as SPECS, PRESET_COLUMNS
from tsplab.tuning import _ranked

ALGORITHMS = tuple(name for name, spec in SPECS.items() if spec.tunable)


class TestPresets:
    def test_aco_original(self):
        cfg = preset("aco", "original")
        assert cfg.values == {
            "ants": 7, "alpha": 1.34, "beta": 1.59, "evaporation_rate": 0.24,
        }
        assert cfg.provenance == "preset(original)"

    def test_ga_r1(self):
        cfg = preset("ga", "r1")
        assert cfg.values == {
            "population_size": 58, "mutation_rate": 0.13, "elite_count": 5,
        }

    def test_sarsa_original(self):
        cfg = preset("sarsa", "original")
        assert cfg.values == {
            "learning_rate": 0.04, "discount": 0.86, "epsilon": 0.23, "episodes": 105,
        }

    def test_errors(self):
        with pytest.raises(UnknownAlgorithm):
            preset("christofides", "original")
        with pytest.raises(NoSuchColumn):
            preset("aco", "grid_search")

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("column", PRESET_COLUMNS)
    def test_every_cell_within_space(self, algorithm, column):
        cfg = preset(algorithm, column)
        space = parameter_space(algorithm)
        assert set(cfg.values) == {p.name for p in space.params}
        for p in space.params:
            v = cfg.values[p.name]
            assert p.lo <= v <= p.hi
            if p.kind == "int":
                assert isinstance(v, int)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_presets_runnable(self, algorithm):
        # every original-column preset must drive its solver end to end
        inst = generate_random_instance(6, 0, (0.0, 100.0))
        d = build_distance_matrix(inst)
        cfg = preset(algorithm, "original")
        values = dict(cfg.values)
        if "episodes" in values:
            values["episodes"] = min(values["episodes"], 50)
        out = run_solver(algorithm, inst, d, values, "baseline",
                         SolveBudget(time_limit=5.0, max_evaluations=200), 1)
        assert out.best_cost > 0


class TestSampling:
    def test_deterministic(self):
        space = parameter_space("aco")
        assert sample_config(space, 1).values == sample_config(space, 1).values

    def test_distinct_seeds_usually_differ(self):
        space = parameter_space("aco")
        assert sample_config(space, 1).values != sample_config(space, 2).values

    @given(st.integers(0, 10_000), st.sampled_from(ALGORITHMS))
    @settings(max_examples=300, deadline=None)
    def test_range_containment(self, seed, algorithm):
        space = parameter_space(algorithm)
        cfg = sample_config(space, seed)
        for p in space.params:
            v = cfg.values[p.name]
            assert p.lo <= v <= p.hi
            if p.kind == "int":
                assert isinstance(v, int)

    def test_degenerate_integer_range(self):
        space = ParamSpace("toy", (ParamDef("k", "int", 3, 4),))
        seen = {sample_config(space, s).values["k"] for s in range(40)}
        assert seen == {3, 4}

    def test_unknown_algorithm(self):
        with pytest.raises(UnknownAlgorithm):
            parameter_space("dijkstra")

    def test_param_def_validation(self):
        with pytest.raises(ValueError):
            ParamDef("x", "real", 2.0, 2.0)
        with pytest.raises(ValueError):
            ParamDef("x", "categorical", 0.0, 1.0)


def _training_instances(count=2, n=8):
    return [generate_random_instance(n, 50 + i, (0.0, 100.0)) for i in range(count)]


class TestRace:
    def test_dominated_config_eliminated_after_two_rounds(self):
        # candidate 0's samples always beat candidate 1's by construction
        def runner(config, inst, run_seed):
            return float(config.values["ants"])

        insts = _training_instances()
        winner, state = race("aco", instances=insts, budget=50,
                             candidates=2, seed=3, runner=runner)
        lighter = min(range(2), key=lambda i: state.configs[i].values["ants"])
        assert state.alive == [lighter]
        assert winner.values == state.configs[lighter].values
        assert state.rounds == 2  # earliest legal elimination point
        assert state.spent == 4

    def test_equal_configs_either_survives(self):
        def runner(config, inst, run_seed):
            return 10.0

        winner, state = race("tabu", instances=_training_instances(1), budget=24,
                             candidates=4, seed=0, runner=runner)
        space = parameter_space("tabu")
        assert 3 <= winner.values["tenure"] <= 30
        assert space.params[0].lo <= winner.values["tenure"] <= space.params[0].hi
        # ties never eliminate anybody, so the race runs to budget exhaustion
        assert state.spent <= 24
        assert state.spent + len(state.alive) > 24

    def test_budget_accounting_and_monotonicity(self):
        calls = []

        def runner(config, inst, run_seed):
            calls.append((config.values["tenure"], inst.name, run_seed))
            return float(config.values["tenure"] % 7)

        _, state = race("tabu", instances=_training_instances(3), budget=60,
                        candidates=8, seed=9, runner=runner)
        assert state.spent == len(calls) <= 60
        survivor_counts = [len({i for i in state.ranks if len(state.ranks[i]) > r})
                           for r in range(state.rounds)]
        assert survivor_counts == sorted(survivor_counts, reverse=True)
        assert set(state.alive) <= set(range(8))

    def test_rounds_share_instance_and_seed(self):
        seen = []

        def runner(config, inst, run_seed):
            seen.append((inst.name, run_seed))
            return float(config.values["tenure"])

        insts = _training_instances(2)
        race("tabu", instances=insts, budget=12, candidates=3, seed=4, runner=runner)
        per_round = {}
        for name, run_seed in seen:
            per_round.setdefault(run_seed, set()).add(name)
        # every run in a round used one instance with one shared seed
        assert all(len(names) == 1 for names in per_round.values())
        first_round = seen[:3]
        assert len({pair for pair in first_round}) == 1
        assert first_round[0][0] == insts[0].name

    def test_winner_has_best_mean_cost(self):
        table = {2: 5.0, 3: 1.0, 4: 9.0}

        def runner(config, inst, run_seed):
            return table.get(config.values["tenure"] % 5, 3.0)

        winner, state = race("tabu", instances=_training_instances(1), budget=40,
                             candidates=4, seed=7, runner=runner)
        means = {i: statistics.fmean(state.costs[i])
                 for i in state.alive if state.costs[i]}
        best = min(means.values())
        assert statistics.fmean(
            state.costs[[i for i in means if means[i] == best][0]]
        ) == pytest.approx(best)
        assert winner.provenance.startswith("raced(seed=7,")

    def test_budget_too_small(self):
        with pytest.raises(BudgetTooSmall):
            race("tabu", instances=_training_instances(3), budget=20, candidates=16,
                 runner=lambda c, i, s: 0.0)

    def test_candidates_validation(self):
        with pytest.raises(ValueError):
            race("tabu", instances=_training_instances(1), budget=50, candidates=1,
                 runner=lambda c, i, s: 0.0)
        with pytest.raises(ValueError):
            race("tabu", instances=[], budget=50, candidates=4,
                 runner=lambda c, i, s: 0.0)

    def test_real_solver_race(self):
        def runner(config, inst, run_seed):
            d = build_distance_matrix(inst)
            out = run_solver("tabu", inst, d, config.values, "baseline",
                             SolveBudget(time_limit=2.0, max_evaluations=150), run_seed)
            return out.best_cost

        winner, _ = race("tabu", instances=_training_instances(2, n=7), budget=10,
                      candidates=2, seed=1, runner=runner)
        space = parameter_space("tabu")
        assert space.params[0].lo <= winner.values["tenure"] <= space.params[0].hi


class TestRankHelper:
    def test_plain_ranking(self):
        assert _ranked([(3.0, 0), (1.0, 1), (2.0, 2)]) == [(1.0, 1), (2.0, 2), (3.0, 0)]

    def test_ties_average(self):
        ranked = dict((i, r) for r, i in _ranked([(5.0, 0), (5.0, 1), (7.0, 2)]))
        assert ranked == {0: 1.5, 1: 1.5, 2: 3.0}
