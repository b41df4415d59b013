import hashlib

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


def nint_matrix(n, seed, span=10.0):
    """n uniform points in [0, span]^2 with TSPLIB nint rounding: small
    integer distances, so many 2-opt moves tie exactly."""
    inst = generate_random_instance(n, seed, (0.0, span))
    return build_distance_matrix(inst, rounding="tsplib_nint")


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
    "rnd12": lambda: random_matrix(12, 3),
    "rnd1000": lambda: random_matrix(1000, 5),
    "rnd5": lambda: random_matrix(5, 6),
    "rnd10": lambda: random_matrix(10, 31),
    "nint30": lambda: nint_matrix(30, 0),
}


def tour_digest(tour):
    """A 16-hex sha256 prefix of the tour, for pinning seeded outputs."""
    return hashlib.sha256(",".join(map(str, tour)).encode()).hexdigest()[:16]


def trajectory_digest(trajectory):
    """A 16-hex sha256 prefix of a trajectory's costs, each as float.hex()."""
    text = ",".join(cost.hex() for _, cost in trajectory)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.fixture
def rnd6():
    return random_matrix(6, 1)

