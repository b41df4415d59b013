"""TSPLIB instance ingestion, distance matrices, and random instance generation.

Supported subset: EDGE_WEIGHT_TYPE in {EUC_2D, GEO, EXPLICIT} and, for
EXPLICIT, EDGE_WEIGHT_FORMAT in {FULL_MATRIX, LOWER_DIAG_ROW, UPPER_ROW}.
Anything else is rejected with UnsupportedFormat rather than misread.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CountMismatch,
    DimensionMismatch,
    EmptyInput,
    MissingField,
    NegativeDistance,
    NoCoordinates,
    NonFiniteInput,
    NonNumericToken,
    NonSymmetric,
    UnsupportedFormat,
)

ROUNDING_MODES = ("none", "tsplib_nint")

# A distance matrix is symmetric when no |d[i][j] - d[j][i]| exceeds this.
SYMMETRY_TOL = 1e-9

_SUPPORTED_TYPES = ("EUC_2D", "GEO", "EXPLICIT")
_SUPPORTED_FORMATS = ("FULL_MATRIX", "LOWER_DIAG_ROW", "UPPER_ROW")

# TSPLIB geographic convention constants.
_GEO_PI = 3.141592
_EARTH_RADIUS = 6378.388

# A coordinate matrix is built a block of rows at a time, each block's
# temporaries about this many entries (512 KB of float64).
_BLOCK_ENTRIES = 1 << 16


@dataclass
class Instance:
    """One TSP problem: coordinates or an explicit matrix, never both."""

    name: str
    dimension: int
    kind: str  # EUC_2D | GEO | EXPLICIT
    coords: list[tuple[float, float]] | None = None
    matrix: list[list[float]] | None = None

    def __post_init__(self):
        if self.dimension < 2:
            raise ValueError(f"dimension must be >= 2, got {self.dimension}")
        if self.kind not in _SUPPORTED_TYPES:
            raise UnsupportedFormat(f"unsupported edge weight type: {self.kind}")
        if self.coords is not None and len(self.coords) != self.dimension:
            raise CountMismatch(
                f"{len(self.coords)} coordinates for dimension {self.dimension}"
            )


def parse_instance(text: str) -> Instance:
    """Parse a TSPLIB-format character stream into an Instance.

    Keyword order-insensitive; the EOF marker is optional. Unknown sections
    are skipped; unsupported weight types/formats raise UnsupportedFormat.
    """
    header: dict[str, str] = {}
    sections: dict[str, list[tuple[int, str]]] = {}  # (line number, line)
    current_section = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line == "EOF":
            current_section = None
            continue
        key, sep, value = line.partition(":")
        key_token = key.strip()
        if sep and key_token.isupper() and " " not in key_token:
            header[key_token] = value.strip()
            current_section = None
            continue
        if line.endswith("_SECTION"):
            current_section = line
            sections.setdefault(line, [])
            continue
        if current_section is not None:
            sections[current_section].append((lineno, line))
        # Stray non-numeric junk outside sections is ignored.

    if "DIMENSION" not in header:
        raise MissingField("missing DIMENSION")
    try:
        dimension = int(header["DIMENSION"])
    except ValueError as exc:
        raise MissingField(f"DIMENSION not an integer: {header['DIMENSION']}") from exc

    if "EDGE_WEIGHT_TYPE" not in header:
        raise MissingField("missing EDGE_WEIGHT_TYPE")
    kind = header["EDGE_WEIGHT_TYPE"]
    if kind not in _SUPPORTED_TYPES:
        raise UnsupportedFormat(f"EDGE_WEIGHT_TYPE {kind} not supported")

    name = header.get("NAME") or "unnamed"  # every run row names its instance

    if kind in ("EUC_2D", "GEO"):
        lines = sections.get("NODE_COORD_SECTION")
        if not lines:
            raise MissingField("missing NODE_COORD_SECTION")
        if len(lines) != dimension:
            raise CountMismatch(
                f"{len(lines)} coordinate lines for dimension {dimension}"
            )
        coords = []
        for lineno, line in lines:
            parts = line.split()
            if len(parts) != 3:  # TSPLIB's "id x y"
                length = "short" if len(parts) < 3 else "long"
                raise CountMismatch(f"coordinate line too {length}: {line!r}")
            coords.append((_number(parts[1], "NODE_COORD_SECTION", lineno),
                           _number(parts[2], "NODE_COORD_SECTION", lineno)))
            if parts[0] != str(len(coords)):  # TSPLIB numbers the nodes 1..n in order
                raise UnsupportedFormat(f"NODE_COORD_SECTION line {lineno}: node id "
                                        f"{parts[0]!r}, expected {len(coords)}")
        return Instance(name=name, dimension=dimension, kind=kind, coords=coords)

    fmt = header.get("EDGE_WEIGHT_FORMAT")
    if fmt is None:
        raise MissingField("missing EDGE_WEIGHT_FORMAT")
    if fmt not in _SUPPORTED_FORMATS:
        raise UnsupportedFormat(f"EDGE_WEIGHT_FORMAT {fmt} not supported")
    lines = sections.get("EDGE_WEIGHT_SECTION")
    if not lines:
        raise MissingField("missing EDGE_WEIGHT_SECTION")
    values = [_number(tok, "EDGE_WEIGHT_SECTION", lineno)
              for lineno, line in lines for tok in line.split()]
    matrix = _weights_to_matrix(values, dimension, fmt)
    return Instance(name=name, dimension=dimension, kind="EXPLICIT", matrix=matrix)


def _number(token: str, section: str, lineno: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise NonNumericToken(f"{section} line {lineno}: {token!r} is not a number") from None


def _weights_to_matrix(values: list[float], n: int, fmt: str) -> list[list[float]]:
    expected = {
        "FULL_MATRIX": n * n,
        "LOWER_DIAG_ROW": n * (n + 1) // 2,
        "UPPER_ROW": n * (n - 1) // 2,
    }[fmt]
    if len(values) != expected:
        raise CountMismatch(
            f"{len(values)} weights for {fmt} with dimension {n}, expected {expected}"
        )
    # Each format lists its cells in row-major order of one index set.
    if fmt == "FULL_MATRIX":
        rows, cols = (idx.ravel() for idx in np.indices((n, n)))
    elif fmt == "LOWER_DIAG_ROW":
        rows, cols = np.tril_indices(n)
    else:  # UPPER_ROW
        rows, cols = np.triu_indices(n, k=1)
    m = np.zeros((n, n))
    weights = np.asarray(values, dtype=float)
    m[rows, cols] = weights
    if fmt != "FULL_MATRIX":
        m[cols, rows] = weights
    return m.tolist()


def check_symmetric(d: np.ndarray) -> None:
    """Raise NonSymmetric if some |d[i][j] - d[j][i]| exceeds SYMMETRY_TOL.

    Exact symmetry is checked first, on the upper triangle in panels of 64
    rows, each against the matching 64 columns: reading d.T whole would
    stride n entries per read. The tolerance is computed only when that
    fails, one row at a time, so no n-by-n float temporary is made."""
    panels = range(0, len(d), 64)
    if all((d[lo : lo + 64, lo:] == d[lo:, lo : lo + 64].T).all() for lo in panels):
        return
    if any(np.abs(row - col).max() > SYMMETRY_TOL for row, col in zip(d, d.T)):
        raise NonSymmetric(f"distance matrix asymmetric beyond {SYMMETRY_TOL:g}")


def read_matrix(d) -> np.ndarray:
    """d as a float array, checked: a matrix that is not square raises
    DimensionMismatch, one with no city EmptyInput, one with a NaN or
    infinite entry NonFiniteInput, and one asymmetric beyond SYMMETRY_TOL
    NonSymmetric. Solvers read d through it, and so does an EXPLICIT build."""
    matrix = np.asarray(d, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DimensionMismatch(f"distance matrix must be square, got shape {matrix.shape}")
    if len(matrix) == 0:
        raise EmptyInput("distance matrix has no city")
    if not np.isfinite(matrix).all():
        raise NonFiniteInput("distance matrix contains NaN or infinity")
    check_symmetric(matrix)
    return matrix


def build_distance_matrix(inst: Instance, rounding: str = "none") -> np.ndarray:
    """Dense symmetric n-by-n distance matrix for an instance.

    rounding applies to EUC_2D only: "tsplib_nint" rounds each distance to
    the nearest integer; GEO always follows the TSPLIB geographic convention
    (which truncates); EXPLICIT copies the stored matrix and checks it with
    read_matrix, its errors naming the instance. NaN or infinite coordinates,
    or distances that overflow, raise NonFiniteInput.

    A coordinate matrix is filled a block of rows at a time, so a build holds
    the matrix plus one block's temporaries and the n-by-n bool of the
    finiteness check: at n=3000 (a 72 MB matrix) tracemalloc peaks at 81 MB
    for EUC_2D and 83 MB for GEO.
    """
    if rounding not in ROUNDING_MODES:
        raise ValueError(f"rounding must be one of {ROUNDING_MODES}, got {rounding!r}")
    if inst.kind == "EXPLICIT":
        d = np.array(inst.matrix, dtype=float)
        if d.shape != (inst.dimension, inst.dimension):
            raise CountMismatch(f"matrix shape {d.shape} for dimension {inst.dimension}")
        try:
            read_matrix(d)
        except (NonFiniteInput, NonSymmetric) as exc:
            raise type(exc)(f"instance {inst.name}: {exc}") from None
        if (d < 0).any():
            raise NegativeDistance("explicit matrix has negative entries")
        np.fill_diagonal(d, 0.0)
        return d
    if inst.coords is None:
        raise NoCoordinates(f"instance {inst.name} has no coordinates")
    pts = np.asarray(inst.coords, dtype=float)
    if not np.isfinite(pts).all():
        raise NonFiniteInput(f"instance {inst.name} has NaN or infinite coordinates")
    n = len(pts)
    d = np.empty((n, n))
    rows = max(1, _BLOCK_ENTRIES // n)
    with np.errstate(over="ignore", invalid="ignore"):
        if inst.kind == "GEO":  # degrees.minutes decoding, in radians
            deg = np.floor(pts + 0.5)
            pts = _GEO_PI * (deg + 5.0 * (pts - deg) / 3.0) / 180.0
        x, y = pts[:, 0], pts[:, 1]  # GEO: latitude, longitude
        for lo in range(0, n, rows):
            bx, by, block = x[lo : lo + rows, None], y[lo : lo + rows, None], d[lo : lo + rows]
            if inst.kind == "EUC_2D":
                np.hypot(bx - x, by - y, out=block)
                if rounding == "tsplib_nint":
                    block += 0.5
                    np.floor(block, out=block)
            else:  # GEO: great-circle distance, truncated
                q1 = np.cos(by - y)
                q2 = np.cos(bx - x)
                q3 = np.cos(bx + x)
                arg = np.clip(0.5 * ((1.0 + q1) * q2 - (1.0 - q1) * q3), -1.0, 1.0)
                np.floor(_EARTH_RADIUS * np.arccos(arg) + 1.0, out=block)
    if inst.kind == "GEO":
        np.fill_diagonal(d, 0.0)
    if not np.isfinite(d).all():
        raise NonFiniteInput(f"instance {inst.name} has distances that overflow")
    return d


def generate_random_instance(
    n: int, seed: int, coord_range: tuple[float, float] = (0.0, 100.0)
) -> Instance:
    """n points uniform i.i.d. in coord_range squared; deterministic in seed."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    lo, hi = coord_range
    if not np.isfinite(hi - lo):  # NaN, an infinite bound, or a span that overflows
        raise ValueError(f"coordinate range must be finite, got {coord_range}")
    if lo > hi:
        raise ValueError(f"empty coordinate range: lo={lo} > hi={hi}")
    rng = np.random.default_rng(seed)
    pts = rng.uniform(lo, hi, size=(n, 2))
    coords = [(float(x), float(y)) for x, y in pts]
    return Instance(name=f"rnd{n}-s{seed}", dimension=n, kind="EUC_2D", coords=coords)


def render_instance(inst: Instance) -> str:
    """Write an instance back out in NODE_COORD_SECTION form."""
    if inst.coords is None:
        raise NoCoordinates("only coordinate instances can be rendered")
    lines = [
        f"NAME : {inst.name}",
        "TYPE : TSP",
        f"DIMENSION : {inst.dimension}",
        f"EDGE_WEIGHT_TYPE : {inst.kind}",
        "NODE_COORD_SECTION",
    ]
    for i, (x, y) in enumerate(inst.coords, start=1):
        lines.append(f"{i} {x!r} {y!r}")
    lines.append("EOF")
    return "\n".join(lines) + "\n"
