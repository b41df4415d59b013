import hashlib

import numpy as np
import pytest

from tsplab import Instance, build_distance_matrix, generate_random_instance

TRI_COORDS = [(0.0, 0.0), (3.0, 0.0), (0.0, 4.0)]
SQUARE_COORDS = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


@pytest.fixture
def tri345():
    """Right triangle with sides 3, 4, 5; the only tour costs 12."""
    inst = Instance(name="tri345", dimension=3, kind="EUC_2D", coords=list(TRI_COORDS))
    return inst, build_distance_matrix(inst)


@pytest.fixture
def unit_square():
    """Unit square corners in perimeter order; optimum tour cost 4."""
    inst = Instance(name="square", dimension=4, kind="EUC_2D",
                    coords=list(SQUARE_COORDS))
    return inst, build_distance_matrix(inst)


def random_matrix(n, seed, lo=0.0, hi=100.0):
    inst = generate_random_instance(n, seed, (lo, hi))
    return build_distance_matrix(inst)


def grid_matrix(k, copies=1):
    """The integer points of [0, k-1]^2, each `copies` times: many exactly
    equal distances and deltas, and zero distances when copies > 1."""
    coords = [(float(x), float(y)) for x in range(k) for y in range(k)] * copies
    return build_distance_matrix(Instance(name=f"grid{k}x{copies}", dimension=len(coords),
                                          kind="EUC_2D", coords=coords))


# Inputs of the seeded-output pins, by the name the pin tables use.
PIN_MATRICES = {
    "rnd200_1": lambda: random_matrix(200, 1),
    "rnd200_2": lambda: random_matrix(200, 2),
    "grid5": lambda: grid_matrix(5),
    "rnd2": lambda: random_matrix(2, 3),
    "rnd3": lambda: random_matrix(3, 3),
    "grid3x2": lambda: grid_matrix(3, copies=2),
}


def tour_digest(tour):
    """A 16-hex sha256 prefix of the tour, for pinning seeded outputs."""
    return hashlib.sha256(",".join(map(str, tour)).encode()).hexdigest()[:16]


@pytest.fixture
def rnd6():
    return random_matrix(6, 1)


def assert_symmetric_metric(d):
    a = np.asarray(d)
    assert np.allclose(a, a.T)
    assert np.all(np.diag(a) == 0)
    assert np.all(a >= 0)
