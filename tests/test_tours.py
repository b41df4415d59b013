import random
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsplab import (
    DimensionMismatch,
    cheapest_insertion,
    nearest_neighbor_tour,
    nearest_neighbor_tours,
    tour_length,
    two_opt,
    validate_tour,
)
from tsplab.instances import Instance, build_distance_matrix
from tsplab.solvers.ga import _two_opt_pass
from tsplab.tours import randbelow, roulette, shuffle

from ._oracles import has_improving_two_opt, reference_cheapest_insertion, tour_cost
from .conftest import random_matrix


def test_tour_length_345(tri345):
    _, d = tri345
    assert tour_length([0, 1, 2], d) == 12.0


def test_tour_length_out_and_back():
    d = [[0.0, 5.0], [5.0, 0.0]]
    assert tour_length([0, 1], d) == 10.0


def test_tour_length_rotation_reversal_invariance(unit_square):
    _, d = unit_square
    base = tour_length([0, 1, 2, 3], d)
    for rot in range(4):
        order = [(i + rot) % 4 for i in range(4)]
        assert tour_length(order, d) == base
        assert tour_length(order[::-1], d) == base


def test_tour_length_dimension_mismatch(tri345):
    _, d = tri345
    with pytest.raises(DimensionMismatch):
        tour_length([0, 1], d)


def test_validate_tour_verdicts():
    assert validate_tour([0, 2, 1], 3).ok

    dup = validate_tour([0, 0, 1], 3)
    assert not dup.ok
    assert dup.problem == "duplicate index"
    assert dup.detail == 0

    short = validate_tour([0, 1], 3)
    assert not short.ok
    assert short.problem == "wrong length"

    out = validate_tour([0, 1, 7], 3)
    assert not out.ok
    assert out.problem == "out-of-range index"
    assert out.detail == 7


def test_nearest_neighbor_345(tri345):
    _, d = tri345
    tour = nearest_neighbor_tour(d, start=0)
    assert tour == [0, 1, 2]
    assert tour_length(tour, d) == 12.0


def test_nearest_neighbor_collinear():
    coords = [(0.0, 0.0), (1.0, 0.0), (3.0, 0.0), (7.0, 0.0)]
    inst = Instance(name="line", dimension=4, kind="EUC_2D", coords=coords)
    d = build_distance_matrix(inst)
    tour = nearest_neighbor_tour(d, start=0)
    assert tour == [0, 1, 2, 3]
    assert tour_length(tour, d) == 14.0


def test_nearest_neighbor_tie_takes_lower_index():
    # cities 1 and 2 both at distance 1 from city 0
    d = [
        [0.0, 1.0, 1.0],
        [1.0, 0.0, 2.0],
        [1.0, 2.0, 0.0],
    ]
    assert nearest_neighbor_tour(d, start=0) == [0, 1, 2]


def _nn_each(d, starts):
    return [nearest_neighbor_tour(d, s) for s in starts]


@pytest.mark.parametrize("d,starts", [
    (random_matrix(30, 4), [3, 3, 0, 29, 3]),  # duplicate starts
    (np.zeros((7, 7)), [6, 0, 2, 6]),  # every pick a tie
    ([[0.0]], [0, 0]),
    ([[0.0, 2.5], [2.5, 0.0]], [1, 0, 1]),
    (random_matrix(12, 9), []),
], ids=["duplicates", "all-zero", "n1", "n2", "no-start"])
def test_nearest_neighbor_tours_match_one_at_a_time(d, starts):
    assert nearest_neighbor_tours(d, starts) == _nn_each(d, starts)


def test_nearest_neighbor_tours_stay_permutations_on_non_finite_entries():
    # NaN and -inf win every argmin they are in; a visited city must still
    # be masked, so each tour is a permutation.
    d = random_matrix(9, 2)
    d[4, 1] = d[1, 4] = np.nan
    d[2, 7] = -np.inf
    tours = nearest_neighbor_tours(d, range(9))
    assert tours == _nn_each(d, range(9))
    assert all(validate_tour(t, 9).ok for t in tours)


@pytest.mark.parametrize("start", [-1, 5])
def test_nearest_neighbor_tours_refuse_a_start_outside_the_matrix(start):
    with pytest.raises(ValueError, match=f"start {start} outside \\[0, 5\\)"):
        nearest_neighbor_tours(random_matrix(5, 1), [0, start])


def test_two_opt_uncrosses_square(unit_square):
    _, d = unit_square
    crossed = [0, 2, 1, 3]
    fixed = two_opt(crossed, d)
    assert tour_length(fixed, d) == pytest.approx(4.0)


def test_two_opt_fixed_point(unit_square):
    _, d = unit_square
    tour = [0, 1, 2, 3]
    assert two_opt(tour, d) == tour


def test_two_opt_full_reaches_local_optimum():
    d = random_matrix(8, 3)
    start = list(range(8))
    out = two_opt(start, d)
    assert validate_tour(out, 8).ok
    assert not has_improving_two_opt(out, d)


@given(st.integers(4, 12), st.integers(0, 500), st.integers(0, 500))
@settings(max_examples=40, deadline=None)
def test_two_opt_never_worsens_and_stays_valid(n, seed, shuffle_seed):
    d = random_matrix(n, seed)
    order = list(range(n))
    random.Random(shuffle_seed).shuffle(order)
    before = tour_length(order, d)

    full = two_opt(order, d)
    assert validate_tour(full, n).ok
    assert tour_length(full, d) <= before + 1e-9
    assert not has_improving_two_opt(full, d)

    rng = random.Random(shuffle_seed)
    sto = list(order)
    _two_opt_pass(sto, d, rng.getrandbits)
    assert validate_tour(sto, n).ok
    assert tour_length(sto, d) <= before + 1e-9


@pytest.mark.parametrize("n", [2, 3, 4, 5, 13, 40])
def test_ga_two_opt_pass_draws_n_index_pairs(n):
    # n pairs (randrange(n - 1), randrange(i + 1, n)) from 4 cities up, none
    # below; the next rng.random() shows that no other bit was consumed.
    d = random_matrix(n, n)
    order = list(range(n))
    random.Random(n).shuffle(order)
    rng, ref = random.Random(7), random.Random(7)
    tour, expected = list(order), list(order)
    _two_opt_pass(tour, d, rng.getrandbits)
    for _ in range(n if n >= 4 else 0):
        i = ref.randrange(n - 1)
        j = ref.randrange(i + 1, n)
        flipped = expected[:i] + expected[i : j + 1][::-1] + expected[j + 1 :]
        if (i, j) != (0, n - 1) and tour_cost(flipped, d) < tour_cost(expected, d) - 1e-9:
            expected = flipped
    assert rng.random() == ref.random()
    assert tour == expected


def test_two_opt_cost_agrees_with_oracle_cost():
    d = random_matrix(6, 8)
    order = [3, 1, 4, 0, 5, 2]
    assert tour_length(order, d) == pytest.approx(tour_cost(order, d), abs=1e-12)


_UNIFORM = st.tuples(st.floats(0.0, 100.0), st.floats(0.0, 100.0))
_GRID = st.tuples(st.integers(0, 4), st.integers(0, 4)).map(lambda p: (float(p[0]), float(p[1])))


@st.composite
def _insertion_case(draw, layout):
    """A matrix, a starting tour of 1 to n-1 cities, and the rest in any order."""
    n = draw(st.integers(2, 40))
    order = draw(st.permutations(range(n)))
    start = draw(st.sampled_from(sorted({1, 2, n - 1} & set(range(1, n)))) | st.integers(1, n - 1))
    if layout == "asymmetric":  # the scores must read d[i][k] and d[k][j], not their mirrors
        # n * n drawn floats overrun hypothesis's buffer long before n = 40,
        # so a larger matrix is filled from a drawn seed.
        if n <= 14:
            flat = draw(st.lists(st.floats(0.0, 100.0), min_size=n * n, max_size=n * n))
        else:
            rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
            flat = [rnd.uniform(0.0, 100.0) for _ in range(n * n)]
        return np.array(flat).reshape(n, n), order[:start], order[start:]
    if layout == "uniform":
        pts = draw(st.lists(_UNIFORM, min_size=n, max_size=n))
    elif layout == "grid":  # many exact ties
        pts = draw(st.lists(_GRID, min_size=n, max_size=n))
    else:  # few distinct points, so many zero-length edges
        pool = draw(st.lists(_UNIFORM, min_size=1, max_size=3))
        pts = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    d = build_distance_matrix(Instance(name="ins", dimension=n, kind="EUC_2D", coords=pts))
    return d, order[:start], order[start:]


@pytest.mark.parametrize("criterion", ["detour", "ratio"])
@pytest.mark.parametrize("layout", ["uniform", "grid", "duplicates", "asymmetric"])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_cheapest_insertion_matches_sequential_scan(layout, criterion, data):
    """cheapest_insertion against reference_cheapest_insertion. The two
    differ only where distinct scores chain within TIE_EPS (1e-12): the scan
    moves to a score only if it is more than 1e-12 below its current best,
    while cheapest_insertion takes the first pair within 1e-12 of the step's
    minimum (see test_cheapest_insertion_first_within_tie_window_of_step_minimum).
    These layouts' ties are exact or differ by rounding far below 1e-12."""
    d, tour, pending = data.draw(_insertion_case(layout))
    _assert_matches_sequential_scan(d, tour, pending, criterion)


def _assert_matches_sequential_scan(d, tour, pending, criterion):
    expected = reference_cheapest_insertion(tour, pending, d.tolist(), criterion)
    got = cheapest_insertion(tour, pending, d, criterion)
    assert got == expected
    assert validate_tour(got, len(d)).ok
    return got


# Hand-built cases, each forcing one part of the kept-score update: (coords,
# tour, pending, criterion, the tour the sequential scan gives).
_INSERTION_CASES = {
    # City 2 ties in both slots of the two-city tour and goes in first. The
    # other slot's minimum was city 2's score, so it must be rescanned;
    # kept as it was, it names a city that is no longer pending.
    "slot minimum was the inserted city's": (
        [(0, 3), (1, 3), (0, 1), (3, 3)], [0, 1], [2, 3], "detour", [3, 2, 0, 1]),
    "slot minimum was the inserted city's, ratio": (
        [(0, 2), (4, 4), (4, 3), (1, 1)], [0, 1], [2, 3], "ratio", [2, 3, 0, 1]),
    # All on one line. City 3 goes before city 0, which appends slot (3, 0)
    # after slot (0, 1). City 2 then ties in both, and (3, 0) comes first in
    # the tour: slot order would put city 2 after city 0 instead.
    "tie across slots out of tour order": (
        [(4, 1), (5, 1), (2, 1), (6, 1)], [0, 1], [2, 3], "detour", [3, 2, 0, 1]),
    # A one-city tour has no edge: cities 2 and 1 tie at 2 * d[0][k], the
    # first pending goes after city 0, and the kept scores take over.
    "one-city start": ([(0, 0), (0, 3), (3, 0), (5, 5)], [0], [2, 1, 3], "detour", [3, 1, 0, 2]),
    "nothing pending": ([(0, 0), (0, 3), (3, 0)], [2, 0, 1], [], "ratio", [2, 0, 1]),
}


@pytest.mark.parametrize("case", _INSERTION_CASES)
def test_cheapest_insertion_hand_built_cases(case):
    coords, tour, pending, criterion, expected = _INSERTION_CASES[case]
    pts = [(float(x), float(y)) for x, y in coords]
    d = build_distance_matrix(Instance(name="ins", dimension=len(pts), kind="EUC_2D", coords=pts))
    assert _assert_matches_sequential_scan(d, tour, pending, criterion) == expected


def test_cheapest_insertion_first_within_tie_window_of_step_minimum():
    # Scores of 0 and 1e-12 chain within the tie window. The first pair
    # within 1e-12 of the step's minimum wins, as it has since insertion was
    # vectorised; the sequential scan, which moves only to a score more than
    # 1e-12 below its current best, gives [6, 5, 3, 4, 2, 0, 1] here.
    e = 1e-12
    d = np.zeros((7, 7))
    for i, j in [(0, 0), (0, 2), (1, 2), (1, 3), (2, 6), (3, 2), (3, 6), (4, 6)]:
        d[i][j] = e
    assert cheapest_insertion([0], [1, 2, 3, 4, 5, 6], d) == [6, 5, 4, 2, 3, 0, 1]
    assert reference_cheapest_insertion([0], [1, 2, 3, 4, 5, 6], d.tolist()) == [6, 5, 3, 4, 2, 0, 1]


def test_cheapest_insertion_unknown_criterion():
    with pytest.raises(ValueError, match="angle"):
        cheapest_insertion([0, 1], [2], [[0.0] * 3] * 3, criterion="angle")


# --- randbelow: randrange's draws at getrandbits speed ------------------------

# 1 and every 2^k - 1, 2^k, 2^k + 1 up to 2^40: the bit length and the
# rejection rate both change at the powers of two.
_RANDBELOW_EDGES = sorted({1} | {2**k + e for k in range(41) for e in (-1, 0, 1)} - {0})


@pytest.mark.parametrize("n", _RANDBELOW_EDGES)
def test_randbelow_draws_as_randrange_at_bit_length_edges(n):
    ours, theirs = random.Random(n), random.Random(n)
    for _ in range(40):
        assert randbelow(ours.getrandbits, n) == theirs.randrange(n)
    assert ours.random() == theirs.random()  # and leaves the stream in the same place


@given(st.integers(0, 2**64), st.lists(
    st.one_of(st.integers(1, 2**40), st.sampled_from(_RANDBELOW_EDGES)), min_size=1, max_size=30))
@settings(max_examples=200, deadline=None)
def test_randbelow_draws_as_randrange_interleaved(seed, sizes):
    ours, theirs = random.Random(seed), random.Random(seed)
    for n in sizes:
        assert randbelow(ours.getrandbits, n) == theirs.randrange(n)
        assert ours.random() == theirs.random()


@given(st.integers(0, 2**64), st.integers(2, 2**20))
@settings(max_examples=200, deadline=None)
def test_reversal_pair_draws_as_randrange(seed, n):
    # The (i, j) pair of SA and stochastic 2-opt: randrange(n - 1), then
    # randrange(i + 1, n).
    ours, theirs = random.Random(seed), random.Random(seed)
    for _ in range(20):
        i = randbelow(ours.getrandbits, n - 1)
        j = i + 1 + randbelow(ours.getrandbits, n - i - 1)
        ti = theirs.randrange(n - 1)
        assert (i, j) == (ti, theirs.randrange(ti + 1, n))
    assert ours.random() == theirs.random()


@pytest.mark.parametrize("n", [0, -1])
def test_randbelow_rejects_an_empty_range(n):
    with pytest.raises(ValueError, match="empty range"):
        randbelow(random.Random(0).getrandbits, n)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 200, 1000])
def test_shuffle_draws_and_swaps_as_random_shuffle(n):
    for seed in range(300 if n < 1000 else 60):
        ours, theirs = random.Random(seed), random.Random(seed)
        order, expected = list(range(n)), list(range(n))
        shuffle(order, ours.getrandbits)
        theirs.shuffle(expected)
        assert order == expected
        assert ours.getstate() == theirs.getstate()


# --- roulette: random.choices(cum_weights=...) as one shared draw -------------

_WEIGHT = st.sampled_from([0.0, 1e-300, 2.5]) | st.floats(0.0, 1e6)


@settings(max_examples=300, deadline=None)
@given(st.lists(_WEIGHT, min_size=1, max_size=40), st.integers(0, 2**32))
def test_roulette_draws_as_choices(weights, seed):
    cum = list(accumulate(weights))
    ours, theirs = random.Random(seed), random.Random(seed)
    for _ in range(5):
        if cum[-1] > 0.0:
            expected = theirs.choices(range(len(cum)), cum_weights=cum)[0]
        else:
            expected = 0  # choices raises here; roulette returns 0 without a draw
        assert roulette(cum, ours) == expected
    assert ours.random() == theirs.random()  # same stream position


@pytest.mark.parametrize("cum, total", [
    ([0.0, 0.0], None), ([1.0, 2.0], 0.0), ([1.0, 2.0], -1.0),
    ([1.0, float("inf")], None), ([1.0, 2.0], float("nan")), ([float("nan")], None),
])
def test_roulette_degenerate_total_returns_0_without_a_draw(cum, total):
    ours, theirs = random.Random(5), random.Random(5)
    assert roulette(cum, ours, total) == 0
    assert ours.random() == theirs.random()


def test_roulette_clamps_to_the_last_index():
    # A total above cum[-1] can put the draw past every running sum.
    rng = random.Random(0)
    assert {roulette([0.0, 0.0, 1.0], rng, 10.0) for _ in range(50)} == {2}
