import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsplab import (
    EmptyInput,
    NonFiniteInput,
    RlParams,
    SolveBudget,
    boltzmann_probabilities,
    q_update,
    solve_qlearning,
    solve_sarsa,
    tour_length,
    validate_tour,
)
from tsplab.solvers.rl import _greedy_rollout, _select, boltzmann_temperature

from ._oracles import brute_force_optimum, reference_boltzmann_pick, reference_greedy_pick
from .conftest import PIN_MATRICES, random_matrix, tour_digest

PARAMS = RlParams(learning_rate=0.44, discount=0.97, epsilon=0.09, episodes=4266)
GENEROUS = SolveBudget(time_limit=10.0)


def test_rl_solvers_solve_345_triangle(tri345):
    _, d = tri345
    p = RlParams(learning_rate=0.3, discount=0.9, epsilon=0.1, episodes=200)
    for call in (solve_qlearning, solve_sarsa):
        result = call(d, p, GENEROUS, 1)
        assert result.best_cost == pytest.approx(12.0)


def test_q_update_arithmetic():
    # one update from zero with lr=0.5, df=0 and reward -0.5
    assert q_update(0.0, 0.5, -0.5, 0.0, 0.0) == pytest.approx(-0.25, abs=1e-15)
    # no-op when lr drives toward the same value
    assert q_update(1.0, 1.0, 1.0, 0.0, 0.0) == pytest.approx(1.0)


def test_qlearning_reaches_optimum_on_5_cities():
    d = random_matrix(5, 2)
    p = RlParams(learning_rate=0.44, discount=0.97, epsilon=0.09, episodes=10_000)
    result = solve_qlearning(d, p, GENEROUS, 3)
    assert result.best_cost == pytest.approx(brute_force_optimum(d), rel=1e-9)


def test_sarsa_boltzmann_reaches_optimum_on_5_cities():
    d = random_matrix(5, 2)
    p = RlParams(learning_rate=0.29, discount=0.87, epsilon=0.16, episodes=5000)
    result = solve_sarsa(d, p, GENEROUS, 3, variant="boltzmann_o1")
    assert result.best_cost == pytest.approx(brute_force_optimum(d), rel=1e-9)


def test_rl_result_contract_and_determinism():
    d = random_matrix(7, 11)
    p = RlParams(learning_rate=0.3, discount=0.9, epsilon=0.2, episodes=400)
    for call in (solve_qlearning, solve_sarsa):
        a = call(d, p, GENEROUS, 9)
        b = call(d, p, GENEROUS, 9)
        assert validate_tour(a.best, 7).ok
        assert a.best_cost == pytest.approx(tour_length(a.best, d), abs=1e-9)
        assert a.best == b.best and a.best_cost == b.best_cost
        assert a.evaluations == b.evaluations
        costs = [c for _, c in a.trajectory]
        assert all(y < x for x, y in zip(costs, costs[1:]))


def test_rl_episode_budget():
    d = random_matrix(6, 0)
    p = RlParams(learning_rate=0.3, discount=0.9, epsilon=0.2, episodes=50)
    result = solve_qlearning(d, p, SolveBudget(time_limit=30.0), 0)
    # 50 episodes plus the final greedy rollout
    assert result.evaluations == 51

    capped = solve_qlearning(d, p, SolveBudget(max_evaluations=20), 0)
    assert capped.evaluations <= 20


def test_boltzmann_uniform_on_equal_values():
    probs = boltzmann_probabilities([1.0, 1.0, 1.0], 1.0)
    assert np.allclose(probs, [1 / 3] * 3, atol=1e-12)


def test_boltzmann_closed_form():
    probs = boltzmann_probabilities([0.0, math.log(2.0)], 1.0)
    assert probs[0] == pytest.approx(1 / 3, abs=1e-12)
    assert probs[1] == pytest.approx(2 / 3, abs=1e-12)


def test_boltzmann_low_temperature_concentrates():
    probs = boltzmann_probabilities([1.0, 2.0, 3.0], 0.001)
    assert probs[2] >= 1.0 - 1e-6


def test_boltzmann_errors():
    with pytest.raises(EmptyInput):
        boltzmann_probabilities([], 1.0)
    with pytest.raises(NonFiniteInput):
        boltzmann_probabilities([1.0, float("nan")], 1.0)
    with pytest.raises(NonFiniteInput):
        boltzmann_probabilities([1.0, float("inf")], 1.0)
    with pytest.raises(ValueError):
        boltzmann_probabilities([1.0, 2.0], 0.0)


@given(st.lists(st.floats(-20, 20), min_size=1, max_size=12),
       st.floats(0.1, 10.0), st.floats(-5, 5))
@settings(max_examples=200, deadline=None)
def test_boltzmann_normalization_shift_invariance_order(q, tau, shift):
    probs = boltzmann_probabilities(q, tau)
    assert abs(float(np.sum(probs)) - 1.0) <= 1e-12
    shifted = boltzmann_probabilities([v + shift for v in q], tau)
    assert np.allclose(probs, shifted, rtol=0.0, atol=1e-12)
    for i in range(len(q)):
        for j in range(len(q)):
            if q[i] > q[j]:
                assert probs[i] >= probs[j]
            if q[i] - q[j] > 1e-9:
                assert probs[i] > probs[j]


def test_boltzmann_temperature_anneal():
    assert boltzmann_temperature(0, 100) == pytest.approx(1.0)
    assert boltzmann_temperature(99, 100) == pytest.approx(0.1)
    mid = boltzmann_temperature(50, 101)
    assert mid == pytest.approx(0.55)
    assert boltzmann_temperature(0, 1) == pytest.approx(1.0)


def test_rl_params_validation():
    with pytest.raises(ValueError):
        RlParams(learning_rate=0.0, discount=0.9, epsilon=0.1, episodes=100)
    with pytest.raises(ValueError):
        RlParams(learning_rate=0.5, discount=1.0, epsilon=0.1, episodes=100)
    with pytest.raises(ValueError):
        RlParams(learning_rate=0.5, discount=0.9, epsilon=0.1, episodes=0)


def test_rewards_are_normalized_to_unit_interval():
    # the reward for any move is -(d / d.max()), so one full episode's return
    # is bounded by the city count; spot-check via the normalization itself
    d = np.asarray(random_matrix(8, 5))
    dn = d / d.max()
    assert float(dn.min()) >= 0.0
    assert float(dn.max()) == 1.0
    assert np.all(-dn >= -1.0) and np.all(-dn <= 0.0)


class _FixedDraw:
    """An rng whose random() returns one chosen value."""

    def __init__(self, r):
        self.r = r

    def random(self):
        return self.r


# Few distinct values, so that rows tie exactly, with both signs of zero.
_Q_VALUE = st.sampled_from([0.0, -0.0, -0.5, -1.0, -1e-300]) | st.floats(-2.0, 0.0)


@st.composite
def _rl_pick_case(draw):
    n = draw(st.integers(2, 12))
    row = draw(st.lists(_Q_VALUE, min_size=n, max_size=n))
    size = draw(st.sampled_from([1, n]) | st.integers(1, n))  # one-city sets included
    unvisited = sorted(draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size,
                                     unique=True)))
    return row, unvisited


def _sign(x):
    return math.copysign(1.0, x)


@given(_rl_pick_case())
@settings(max_examples=300, deadline=None)
def test_greedy_pick_matches_reference(case):
    row, unvisited = case
    city, greedy = _select(row, unvisited, 0.0, None, random.Random(0))
    assert greedy and city == reference_greedy_pick(row, unvisited)
    # Q-learning bootstraps from row[city] after a greedy pick: it must be the
    # element max() over the unvisited values returns, sign of zero included.
    best = max(row[c] for c in unvisited)
    assert row[city] == best and _sign(row[city]) == _sign(best)


@given(_rl_pick_case(), st.floats(0.1, 1.0), st.data())
@settings(max_examples=300, deadline=None)
def test_boltzmann_pick_matches_reference(case, temperature, data):
    row, unvisited = case
    probs = boltzmann_probabilities([row[c] for c in unvisited], temperature)
    # r anywhere in [0, 1), or exactly on a running sum, where `<` matters
    sums = np.cumsum(probs).tolist()
    r = data.draw(st.floats(0.0, 1.0, exclude_max=True) | st.sampled_from(sums).filter(lambda x: x < 1.0))
    city, greedy = _select(row, unvisited, 0.5, temperature, _FixedDraw(r))
    assert not greedy and city == reference_boltzmann_pick(probs, unvisited, r)


@given(st.integers(1, 8).flatmap(lambda n: st.lists(st.lists(_Q_VALUE, min_size=n, max_size=n),
                                                    min_size=n, max_size=n)))
@settings(max_examples=100, deadline=None)
def test_greedy_rollout_matches_reference(q):
    tour, unvisited = [0], list(range(1, len(q)))
    while unvisited:
        tour.append(reference_greedy_pick(q[tour[-1]], unvisited))
        unvisited.remove(tour[-1])
    assert _greedy_rollout(q, len(q)) == tour


# Recorded at the commit before the greedy, bootstrap and Boltzmann picks read
# a Q row through map/max/index and bisect over the accumulated probabilities.
# n=200 runs stop on their cap; the others finish their 40 episodes and add
# the greedy rollout. grid5 has exact Q-value ties.
_Q_PIN = RlParams(learning_rate=0.44, discount=0.97, epsilon=0.09, episodes=40)
_SARSA_PIN = RlParams(learning_rate=0.04, discount=0.86, epsilon=0.23, episodes=40)
_RL_PIN_CALLS = {
    "qlearning": lambda d, cap: solve_qlearning(d, _Q_PIN, SolveBudget(max_evaluations=cap), 7),
    "sarsa": lambda d, cap: solve_sarsa(d, _SARSA_PIN, SolveBudget(max_evaluations=cap), 7),
    "sarsa-b": lambda d, cap: solve_sarsa(d, _SARSA_PIN, SolveBudget(max_evaluations=cap), 7,
                                          variant="boltzmann_o1"),
}


@pytest.mark.parametrize("solver,instance,cap,best_cost,evaluations,digest", [
    ("qlearning", "rnd200_1", 20, 9460.742680319949, 20, "94dad87e617eaaf0"),
    ("sarsa", "rnd200_1", 30, 9648.882954655975, 30, "e0cb467cd9a9dae5"),
    ("sarsa-b", "rnd200_1", 12, 9817.683961178132, 12, "745e0fb48626a2f0"),
    ("qlearning", "rnd200_2", 20, 9736.219377191439, 20, "85c2dc245d74b2de"),
    ("sarsa", "rnd200_2", 30, 9904.34888339931, 30, "7654e43dddfe917c"),
    ("sarsa-b", "rnd200_2", 12, 9949.3401891714, 12, "a6fdb1f5c7767419"),
    ("qlearning", "grid5", 1000, 42.59183094440611, 41, "a5b73e49cb01c626"),
    ("sarsa", "grid5", 1000, 43.86775908720181, 41, "8a5bcc7490fdb02a"),
    ("sarsa-b", "grid5", 1000, 52.09099257760745, 41, "44fb1c6666ea1986"),
    ("qlearning", "rnd2", 1000, 158.9197591407065, 41, "b0e4f9bb7b55e4b1"),
    ("sarsa", "rnd2", 1000, 158.9197591407065, 41, "b0e4f9bb7b55e4b1"),
    ("sarsa-b", "rnd2", 1000, 158.9197591407065, 41, "b0e4f9bb7b55e4b1"),
    ("qlearning", "rnd3", 1000, 171.37784728024377, 41, "81a757319532fa82"),
    ("sarsa", "rnd3", 1000, 171.37784728024377, 41, "81a757319532fa82"),
    ("sarsa-b", "rnd3", 1000, 171.37784728024377, 41, "6e0cd09f6e0ea17c"),
])
def test_rl_capped_runs_pinned(solver, instance, cap, best_cost, evaluations, digest):
    result = _RL_PIN_CALLS[solver](PIN_MATRICES[instance](), cap)
    assert (result.best_cost, result.evaluations) == (best_cost, evaluations)
    assert tour_digest(result.best) == digest
