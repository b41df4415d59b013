import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsplab import (
    CountMismatch,
    Instance,
    MissingField,
    NegativeDistance,
    NonFiniteInput,
    NonNumericToken,
    NonSymmetric,
    UnsupportedFormat,
    build_distance_matrix,
    generate_random_instance,
    parse_instance,
    render_instance,
)
from tsplab.cli import main
from tsplab.instances import ROUNDING_MODES, check_symmetric
from tsplab.solvers.base import read_matrix

from ._oracles import reference_distance_matrix, reference_geo_distance

TRIANGLE_FILE = """NAME : tri
TYPE : TSP
DIMENSION : 3
EDGE_WEIGHT_TYPE : EUC_2D
NODE_COORD_SECTION
1 0 0
2 3 0
3 0 4
EOF
"""

EXPLICIT_FILE = """NAME : pair
DIMENSION : 2
EDGE_WEIGHT_TYPE : EXPLICIT
EDGE_WEIGHT_FORMAT : FULL_MATRIX
EDGE_WEIGHT_SECTION
0 5
5 0
EOF
"""


def test_parse_euc2d_minimal():
    inst = parse_instance(TRIANGLE_FILE)
    assert inst.name == "tri"
    assert inst.dimension == 3
    assert inst.kind == "EUC_2D"
    assert inst.coords == [(0.0, 0.0), (3.0, 0.0), (0.0, 4.0)]
    assert inst.matrix is None


def test_parse_explicit_full_matrix():
    inst = parse_instance(EXPLICIT_FILE)
    assert inst.dimension == 2
    assert inst.kind == "EXPLICIT"
    assert inst.matrix == [[0.0, 5.0], [5.0, 0.0]]


def test_parse_count_mismatch():
    text = TRIANGLE_FILE.replace("3 0 4\n", "")
    with pytest.raises(CountMismatch):
        parse_instance(text)


def test_parse_missing_dimension():
    text = TRIANGLE_FILE.replace("DIMENSION : 3\n", "")
    with pytest.raises(MissingField):
        parse_instance(text)


def test_parse_unsupported_weight_type():
    text = TRIANGLE_FILE.replace("EUC_2D", "CEIL_2D")
    with pytest.raises(UnsupportedFormat) as exc:
        parse_instance(text)
    assert "CEIL_2D" in str(exc.value)


def test_parse_unsupported_weight_format():
    text = EXPLICIT_FILE.replace("FULL_MATRIX", "UPPER_DIAG_ROW")
    with pytest.raises(UnsupportedFormat) as exc:
        parse_instance(text)
    assert "UPPER_DIAG_ROW" in str(exc.value)


def test_parse_header_order_insensitive_and_eof_optional():
    shuffled = """EDGE_WEIGHT_TYPE : EUC_2D
NAME : tri
DIMENSION : 3
COMMENT : reordered header, no EOF marker
NODE_COORD_SECTION
1 0 0
2 3 0
3 0 4
"""
    assert parse_instance(shuffled) == parse_instance(TRIANGLE_FILE)


def test_parse_skips_unknown_sections():
    text = TRIANGLE_FILE.replace(
        "EOF\n",
        "DISPLAY_DATA_SECTION\n1 0 0\n2 3 0\n3 0 4\nEOF\n",
    )
    assert parse_instance(text) == parse_instance(TRIANGLE_FILE)


def test_parse_lower_diag_row():
    text = """NAME : ld
DIMENSION : 3
EDGE_WEIGHT_TYPE : EXPLICIT
EDGE_WEIGHT_FORMAT : LOWER_DIAG_ROW
EDGE_WEIGHT_SECTION
0
3 0
4 5 0
EOF
"""
    inst = parse_instance(text)
    assert inst.matrix == [[0.0, 3.0, 4.0], [3.0, 0.0, 5.0], [4.0, 5.0, 0.0]]


def test_parse_upper_row():
    text = """NAME : ur
DIMENSION : 3
EDGE_WEIGHT_TYPE : EXPLICIT
EDGE_WEIGHT_FORMAT : UPPER_ROW
EDGE_WEIGHT_SECTION
3 4
5
EOF
"""
    inst = parse_instance(text)
    assert inst.matrix == [[0.0, 3.0, 4.0], [3.0, 0.0, 5.0], [4.0, 5.0, 0.0]]


def test_parse_weight_count_mismatch():
    text = EXPLICIT_FILE.replace("0 5\n5 0\n", "0 5\n5\n")
    with pytest.raises(CountMismatch):
        parse_instance(text)


MALFORMED_FILES = {
    "dimension not an integer": (TRIANGLE_FILE.replace("DIMENSION : 3", "DIMENSION : three"),
                                 MissingField, "DIMENSION not an integer: three"),
    "no weight type": (TRIANGLE_FILE.replace("EDGE_WEIGHT_TYPE : EUC_2D\n", ""),
                       MissingField, "missing EDGE_WEIGHT_TYPE"),
    "no coordinate section": (TRIANGLE_FILE.replace("NODE_COORD_SECTION\n", ""),
                              MissingField, "missing NODE_COORD_SECTION"),
    "two-field coordinate line": (TRIANGLE_FILE.replace("2 3 0\n", "2 3\n"),
                                  CountMismatch, "coordinate line too short: '2 3'"),
    "four-field coordinate line": (TRIANGLE_FILE.replace("2 3 0\n", "2 3 0 junk\n"),
                                   CountMismatch, "coordinate line too long: '2 3 0 junk'"),
    "explicit without format": (EXPLICIT_FILE.replace("EDGE_WEIGHT_FORMAT : FULL_MATRIX\n", ""),
                                MissingField, "missing EDGE_WEIGHT_FORMAT"),
    "explicit without weights": (EXPLICIT_FILE.split("EDGE_WEIGHT_SECTION")[0],
                                 MissingField, "missing EDGE_WEIGHT_SECTION"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_FILES))
def test_malformed_file_raises_typed_error_and_cli_exits_2(case, tmp_path, capsys):
    text, error, message = MALFORMED_FILES[case]
    with pytest.raises(error) as exc:
        parse_instance(text)
    assert str(exc.value) == message
    path = tmp_path / "bad.tsp"
    path.write_text(text, encoding="utf-8")
    code = main(["solve", "--instance", str(path), "--algorithm", "christofides"])
    captured = capsys.readouterr()
    assert code == 2
    assert f"error: {message}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("text", [TRIANGLE_FILE.replace("NAME : tri\n", ""),
                                  TRIANGLE_FILE.replace("NAME : tri", "NAME :")],
                         ids=["no NAME", "empty NAME"])
def test_missing_or_empty_name_reads_unnamed(text):
    # A run row names its instance, and read_csv refuses an empty one.
    assert parse_instance(text).name == "unnamed"


def test_parse_skips_blank_lines():
    spaced = TRIANGLE_FILE.replace("\n", "\n\n   \n")
    assert parse_instance(spaced) == parse_instance(TRIANGLE_FILE)


def test_build_345_triangle(tri345):
    _, d = tri345
    assert d[0][1] == 3.0
    assert d[0][2] == 4.0
    assert d[1][2] == 5.0


def test_build_nint_rounding():
    inst = Instance(name="diag", dimension=2, kind="EUC_2D",
                    coords=[(0.0, 0.0), (1.0, 1.0)])
    raw = build_distance_matrix(inst, rounding="none")
    assert raw[0][1] == pytest.approx(math.sqrt(2.0), abs=1e-12)
    rounded = build_distance_matrix(inst, rounding="tsplib_nint")
    assert rounded[0][1] == 1.0


def test_build_rejects_unknown_rounding(tri345):
    inst, _ = tri345
    with pytest.raises(ValueError):
        build_distance_matrix(inst, rounding="ceil")


# Frozen outputs of an independent transcription of the geographic distance
# rules (degrees.minutes decoding, radius 6378.388, truncation), checked by
# hand against the formula before freezing.
GEO_CASES = [
    ((38.24, 20.42), (39.57, 26.15), 492.0),
    ((38.24, 20.42), (40.56, 25.32), 466.0),
    ((39.57, 26.15), (40.56, 25.32), 126.0),
    ((36.26, 23.12), (33.48, 10.54), 1216.0),
    ((51.30, 0.0), (48.52, 2.20), 404.0),
    ((0.0, 0.0), (0.0, 90.0), 10020.0),
    ((10.30, -5.45), (-10.30, 5.45), 2662.0),
]


@pytest.mark.parametrize("a,b,want", GEO_CASES)
def test_geo_distance_frozen_values(a, b, want):
    inst = Instance(name="geo2", dimension=2, kind="GEO", coords=[a, b])
    d = build_distance_matrix(inst)
    assert (d[0][1], d[1][0]) == (want, want)
    assert reference_geo_distance(a, b) == want


def test_geo_matrix_matches_scalar_reference():
    coords = [p for pair in GEO_CASES[:3] for p in pair[:2]]
    inst = Instance(name="geo", dimension=len(coords), kind="GEO", coords=coords)
    d = build_distance_matrix(inst)
    for i in range(len(coords)):
        assert d[i][i] == 0.0
        for j in range(len(coords)):
            if i != j:
                assert d[i][j] == reference_geo_distance(coords[i], coords[j])


@given(st.lists(
    st.tuples(
        st.integers(-85, 85), st.integers(0, 59),
        st.integers(-179, 179), st.integers(0, 59),
    ),
    min_size=2, max_size=6,
))
@settings(max_examples=60, deadline=None)
def test_geo_fuzz_against_reference(raw):
    # degrees.minutes encoding; minute value 50 is skipped on negative degrees
    # because nearest-integer tie behavior at exactly .5 is unspecified.
    coords = []
    for lat_d, lat_m, lon_d, lon_m in raw:
        if lat_d < 0 and lat_m == 50:
            lat_m = 49
        if lon_d < 0 and lon_m == 50:
            lon_m = 49
        lat = math.copysign(abs(lat_d) + lat_m / 100.0, lat_d) if lat_d else lat_m / 100.0
        lon = math.copysign(abs(lon_d) + lon_m / 100.0, lon_d) if lon_d else lon_m / 100.0
        coords.append((lat, lon))
    inst = Instance(name="fz", dimension=len(coords), kind="GEO", coords=coords)
    d = build_distance_matrix(inst)
    for i in range(len(coords)):
        for j in range(i + 1, len(coords)):
            assert d[i][j] == reference_geo_distance(coords[i], coords[j])


def test_explicit_copy_and_validation():
    inst = parse_instance(EXPLICIT_FILE)
    d = build_distance_matrix(inst)
    assert d.tolist() == [[0.0, 5.0], [5.0, 0.0]]

    bad = Instance(name="asym", dimension=2, kind="EXPLICIT",
                   matrix=[[0.0, 5.0], [4.0, 0.0]])
    with pytest.raises(NonSymmetric):
        build_distance_matrix(bad)

    neg = Instance(name="neg", dimension=2, kind="EXPLICIT",
                   matrix=[[0.0, -1.0], [-1.0, 0.0]])
    with pytest.raises(NegativeDistance):
        build_distance_matrix(neg)


# n = 150 gives panels 0-63, 64-127 and the partial 128-149.
@pytest.mark.parametrize("i,j", [(63, 64), (64, 63), (63, 127), (140, 145), (149, 128),
                                 (0, 149), (149, 0)],
                         ids=["panel-edge", "panel-edge-lower", "panel-corner", "last-panel",
                              "last-panel-lower", "corner", "corner-lower"])
def test_one_asymmetric_entry_is_found_in_any_panel(i, j):
    d = build_distance_matrix(generate_random_instance(150, 8))
    d[i, j] += 2e-9
    with pytest.raises(NonSymmetric):
        check_symmetric(d)
    with pytest.raises(NonSymmetric):
        read_matrix(d)
    d[i, j] -= 1.5e-9  # within SYMMETRY_TOL again: accepted
    check_symmetric(d)


def test_explicit_array_is_copied_not_shared():
    stored = np.array([[7.0, 5.0], [5.0, 7.0]])
    inst = Instance(name="array", dimension=2, kind="EXPLICIT", matrix=stored)
    d = build_distance_matrix(inst)
    assert d is not stored and d.tolist() == [[0.0, 5.0], [5.0, 0.0]]
    d[0][1] = 9.0
    assert stored.tolist() == [[7.0, 5.0], [5.0, 7.0]]


@pytest.mark.parametrize("inst", [
    Instance(name="nan_euc", dimension=3, kind="EUC_2D",
             coords=[(0.0, 0.0), (math.nan, 0.0), (0.0, 4.0)]),
    Instance(name="inf_geo", dimension=3, kind="GEO",
             coords=[(10.0, 20.0), (11.0, math.inf), (12.0, 22.0)]),
    Instance(name="nan_explicit", dimension=2, kind="EXPLICIT",
             matrix=[[0.0, math.nan], [math.nan, 0.0]]),
    Instance(name="inf_explicit", dimension=2, kind="EXPLICIT",
             matrix=[[0.0, math.inf], [math.inf, 0.0]]),
    # finite coordinates whose distances overflow
    Instance(name="overflow_euc", dimension=3, kind="EUC_2D",
             coords=[(0.0, 0.0), (1e308, 0.0), (-1e308, 0.0)]),
    Instance(name="overflow_geo", dimension=3, kind="GEO",
             coords=[(0.0, 0.0), (1e308, 0.0), (-1e308, 0.0)]),
], ids=lambda inst: inst.name)
def test_build_rejects_non_finite(inst):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning may leak
        with pytest.raises(NonFiniteInput):
            build_distance_matrix(inst)


@pytest.mark.parametrize("upper, error, message", [
    ("nan", NonFiniteInput, "instance pair: distance matrix contains NaN or infinity"),
    ("5.000000002", NonSymmetric, "instance pair: distance matrix asymmetric beyond 1e-09"),
], ids=["nan", "asymmetric"])
def test_explicit_matrix_errors_name_the_instance(capsys, tmp_path, upper, error, message):
    # An EXPLICIT build checks its matrix with read_matrix, as every solver does.
    text = EXPLICIT_FILE.replace("0 5\n", f"0 {upper}\n")
    with pytest.raises(error) as raised:
        build_distance_matrix(parse_instance(text))
    assert str(raised.value) == message
    path = tmp_path / "pair.tsp"
    path.write_text(text, encoding="utf-8")
    assert main(["solve", "--instance", str(path), "--algorithm", "christofides"]) == 2
    assert f"error: {message}\n" in capsys.readouterr().err


def test_parsed_nan_coordinate_rejected_at_matrix():
    inst = parse_instance(TRIANGLE_FILE.replace("2 3 0", "2 nan 0"))
    with pytest.raises(NonFiniteInput, match="tri"):
        build_distance_matrix(inst)


@pytest.mark.parametrize("text, message", [
    (TRIANGLE_FILE.replace("2 3 0", "1 a 0"), "NODE_COORD_SECTION line 7: 'a' is not a number"),
    (EXPLICIT_FILE.replace("5 0", "5 0x"), "EDGE_WEIGHT_SECTION line 7: '0x' is not a number"),
], ids=["coordinate", "weight"])
def test_non_numeric_token_is_a_typed_error(text, message, tmp_path, capsys):
    with pytest.raises(NonNumericToken, match=message):
        parse_instance(text)
    path = tmp_path / "bad.tsp"
    path.write_text(text, encoding="utf-8")
    assert main(["solve", "--instance", str(path), "--algorithm", "christofides"]) == 2
    assert message in capsys.readouterr().err


# TRIANGLE_FILE's coordinate lines are file lines 6-8; tours index the cities
# by line order, so an id that is not the line's 1-based position is refused.
@pytest.mark.parametrize("ids, message", [
    (("3", "1", "2"), "line 6: node id '3', expected 1"),  # out of order
    (("1", "1", "3"), "line 7: node id '1', expected 2"),  # repeated
    (("1", "2", "4"), "line 8: node id '4', expected 3"),  # skipped
    (("0", "1", "2"), "line 6: node id '0', expected 1"),  # 0-based
    (("1", "foo", "3"), "line 7: node id 'foo', expected 2"),
    (("1", "2.0", "3"), "line 7: node id '2.0', expected 2"),
], ids=["out_of_order", "repeated", "skipped", "zero_based", "word", "float"])
def test_node_ids_must_count_from_one(ids, message, tmp_path, capsys):
    text = TRIANGLE_FILE
    for old, new in zip(("1 0 0", "2 3 0", "3 0 4"), ids):
        text = text.replace(old, new + old[1:])
    with pytest.raises(UnsupportedFormat, match=f"NODE_COORD_SECTION {message}"):
        parse_instance(text)
    path = tmp_path / "bad.tsp"
    path.write_text(text, encoding="utf-8")
    assert main(["solve", "--instance", str(path), "--algorithm", "christofides"]) == 2
    assert message in capsys.readouterr().err


def test_generate_deterministic():
    a = generate_random_instance(10, 7, (0.0, 100.0))
    b = generate_random_instance(10, 7, (0.0, 100.0))
    assert a == b
    assert render_instance(a) == render_instance(b)
    assert a.name == "rnd10-s7"


def test_generate_degenerate_range():
    inst = generate_random_instance(2, 0, (0.0, 0.0))
    assert inst.coords == [(0.0, 0.0), (0.0, 0.0)]
    d = build_distance_matrix(inst)
    assert np.all(d == 0.0)


def test_generate_rejects_tiny_n():
    with pytest.raises(ValueError):
        generate_random_instance(1, 0)


@given(st.integers(2, 20), st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_render_parse_round_trip(n, seed):
    inst = generate_random_instance(n, seed)
    assert parse_instance(render_instance(inst)) == inst


@given(st.integers(2, 15), st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_matrix_invariants_and_triangle_inequality(n, seed):
    inst = generate_random_instance(n, seed)
    d = build_distance_matrix(inst)
    assert d.shape == (n, n)
    assert np.allclose(d, d.T)
    assert np.all(np.diag(d) == 0.0)
    assert np.all(d >= 0.0)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert d[i][j] <= d[i][k] + d[k][j] + 1e-9


def test_instance_invariants():
    with pytest.raises(ValueError):
        Instance(name="x", dimension=1, kind="EUC_2D", coords=[(0, 0)])
    with pytest.raises(CountMismatch):
        Instance(name="x", dimension=3, kind="EUC_2D", coords=[(0, 0), (1, 1)])
    with pytest.raises(UnsupportedFormat):
        Instance(name="x", dimension=2, kind="ATT", coords=[(0, 0), (1, 1)])


def _coord_instance(kind, pts):
    """An EUC_2D or GEO instance over pts, one city included: Instance itself
    refuses dimension 1, but building its matrix must still work."""
    inst = object.__new__(Instance)
    inst.__dict__.update(name=f"{kind}{len(pts)}", dimension=len(pts), kind=kind,
                         coords=[tuple(p) for p in np.asarray(pts, dtype=float).tolist()])
    return inst


def _geo_points(rng, n):
    """n TSPLIB degrees.minutes points: latitude within 90, longitude within 180."""
    deg = rng.integers([-89, -179], [90, 180], size=(n, 2))
    return deg + np.copysign(rng.integers(0, 60, size=(n, 2)) / 100.0, deg)


# (kind, rounding) of every coordinate build; GEO ignores rounding.
MATRIX_KINDS = [("EUC_2D", "none"), ("EUC_2D", "tsplib_nint"), ("GEO", "none")]


def _assert_matches_reference(kind, rounding, pts):
    d = build_distance_matrix(_coord_instance(kind, pts), rounding=rounding)
    ref = reference_distance_matrix(pts, kind, rounding)
    assert d.dtype == ref.dtype and np.array_equal(d, ref)


# A build works in blocks of 2**16 entries: one block up to n = 256, two
# from 257; n = 1000 and 1025 end on a partial block.
@pytest.mark.parametrize("n", [1, 2, 3, 255, 256, 257, 1000, 1025])
@pytest.mark.parametrize("kind, rounding", MATRIX_KINDS)
def test_matrix_identity_with_whole_matrix_reference(kind, rounding, n):
    rng = np.random.default_rng(n)
    if kind == "GEO":
        pts = _geo_points(rng, n)
    else:  # coordinate scales from 1e-3 to 1e6
        pts = rng.uniform(-1.0, 1.0, size=(n, 2)) * 10.0 ** rng.integers(-3, 7, size=(n, 1))
    _assert_matches_reference(kind, rounding, pts)


@pytest.mark.parametrize("kind, rounding", MATRIX_KINDS)
def test_matrix_identity_coincident_points_and_grids(kind, rounding):
    rng = np.random.default_rng(5)
    base = _geo_points(rng, 40) if kind == "GEO" else rng.uniform(0, 50, size=(40, 2))
    _assert_matches_reference(kind, rounding, base[rng.integers(0, 40, size=700)])
    # half-unit grid: many ties, and distances such as 0.5 and 2.5 that round half up
    grid = np.stack(np.meshgrid(np.arange(24.0), np.arange(23.0)), axis=-1).reshape(-1, 2)
    _assert_matches_reference(kind, rounding, grid / 2.0)
    _assert_matches_reference(kind, rounding, grid)


@given(st.sampled_from(MATRIX_KINDS),
       st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                          st.floats(allow_nan=False, allow_infinity=False)),
                min_size=1, max_size=30))
@settings(max_examples=150, deadline=None)
def test_matrix_identity_small_n_fuzz(kind_rounding, pts):
    kind, rounding = kind_rounding
    ref = reference_distance_matrix(pts, kind, rounding)
    if np.isfinite(ref).all():
        _assert_matches_reference(kind, rounding, pts)
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteInput):
                build_distance_matrix(_coord_instance(kind, pts), rounding=rounding)


# n = 600 spans several blocks. Each pair below overflows only against the
# other point of the pair: in x - x' (1e308 apart) or in hypot (8e307 each way).
@pytest.mark.parametrize("cities", [(0, 1), (598, 599)], ids=["first-block", "last-block"])
@pytest.mark.parametrize("far", [1e308, 8e307], ids=["difference", "hypot"])
@pytest.mark.parametrize("rounding", ROUNDING_MODES)
def test_matrix_identity_overflow_in_one_block_raises(cities, far, rounding):
    pts = np.random.default_rng(3).uniform(0, 100, size=(600, 2))
    pts[cities[0]] = (far, far)
    pts[cities[1]] = (-far, -far)
    bad = np.argwhere(~np.isfinite(reference_distance_matrix(pts, "EUC_2D")))
    assert sorted(map(tuple, bad.tolist())) == [cities, cities[::-1]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning may leak
        with pytest.raises(NonFiniteInput, match="overflow"):
            build_distance_matrix(_coord_instance("EUC_2D", pts), rounding=rounding)


@pytest.mark.parametrize("kind, rounding", MATRIX_KINDS)
def test_build_peak_memory_is_one_matrix_plus_a_block(kind, rounding):
    # numpy reports its array memory to tracemalloc. Whole-matrix formulas
    # peaked at 3x the matrix for EUC_2D and 6x for GEO.
    rng = np.random.default_rng(11)
    pts = _geo_points(rng, 1500) if kind == "GEO" else rng.uniform(0, 1000, size=(1500, 2))
    inst = _coord_instance(kind, pts)
    tracemalloc.start()
    try:
        d = build_distance_matrix(inst, rounding=rounding)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * d.nbytes, f"peak {peak / d.nbytes:.2f}x the matrix"
