"""Tests of the benchmark's own logic.

Run from the repository root:  python3 -m pytest -q benchmarks
"""

from __future__ import annotations

import itertools
import math
import os
import random
import statistics
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from measure import (  # noqa: E402
    REFERENCE_KERNEL_S, Span, SpeedProbe, Tracer, geometric_mean, self_times, span_cost, summarize,
    totals_by_name,
)
from oracle import held_karp  # noqa: E402
from workloads import derive_seed, explicit_tsplib, rigid_motion, uniform_points  # noqa: E402


# ------------------------------------------------------------ statistics


def test_geometric_mean():
    assert geometric_mean([4.0]) == pytest.approx(4.0)
    assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
    assert geometric_mean([2.0, 8.0, 4.0]) == pytest.approx(4.0)
    # Order does not matter and a constant list is its own mean.
    assert geometric_mean([1.1] * 7) == pytest.approx(1.1)


@pytest.mark.parametrize("bad", [[], [1.0, 0.0], [2.0, -1.0]])
def test_geometric_mean_rejects(bad):
    with pytest.raises(ValueError):
        geometric_mean(bad)


def test_summary_single_sample():
    s = summarize([3.5])
    assert (s.count, s.median, s.q1, s.q3, s.minimum, s.maximum) == (1, 3.5, 3.5, 3.5, 3.5, 3.5)


@pytest.mark.parametrize("values", [
    [2.0, 1.0],
    [5.0, 1.0, 3.0],
    [4.0, 1.0, 3.0, 2.0],
    [9.0, 7.0, 1.0, 3.0, 5.0, 11.0, 13.0, 2.0, 8.0, 6.0],
])
def test_summary_matches_statistics_quantiles(values):
    s = summarize(values)
    q1, med, q3 = statistics.quantiles(values, n=4)
    assert s.count == len(values)
    assert s.median == statistics.median(values) == pytest.approx(med)
    assert (s.q1, s.q3) == (q1, q3)
    assert (s.minimum, s.maximum) == (min(values), max(values))


def test_summary_of_ten_known_values():
    s = summarize([float(v) for v in range(1, 11)])
    # Exclusive method: positions (n+1)p = 2.75 and 8.25.
    assert (s.count, s.q1, s.median, s.q3) == (10, 2.75, 5.5, 8.25)


def test_summary_rejects_no_samples():
    with pytest.raises(ValueError):
        summarize([])


# ------------------------------------------------------------ spans


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("pass", 0.0, 10.0, None, "w"),
        Span("a", 1.0, 4.0, 0, "w"),
        Span("a.child", 2.0, 3.0, 1, "w"),
        Span("b", 5.0, 9.0, 0, "w"),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_totals_group_self_time_and_work_by_name():
    spans = [
        Span("pass", 0.0, 6.0, None, "w"),
        Span("solver", 0.0, 2.0, 0, "w", work=10),
        Span("solver", 3.0, 4.0, 0, "w", work=5),
    ]
    totals = totals_by_name(spans)
    assert totals["solver"] == (pytest.approx(3.0), 15)
    assert totals["pass"][0] == pytest.approx(3.0)


def test_tracer_records_parents_from_nesting():
    tracer = Tracer("wl")
    with tracer.span("outer"):
        with tracer.span("inner") as sp:
            sp.work = 3
        with tracer.span("inner"):
            pass
    with tracer.span("next"):
        pass
    assert [(s.name, s.parent, s.workload) for s in tracer.spans] == [
        ("outer", None, "wl"), ("inner", 0, "wl"), ("inner", 0, "wl"), ("next", None, "wl")]
    assert tracer.spans[1].work == 3
    assert all(s.end >= s.start for s in tracer.spans)
    own = self_times(tracer.spans)
    assert own[0] <= tracer.spans[0].duration
    assert all(t >= 0.0 for t in own)


def test_span_cost_is_small_and_positive():
    assert 0.0 < span_cost(calls=1000, repeats=3) < 1e-3


# ------------------------------------------------------------ speed probe


def test_probe_rescales_work_between_marks_and_excludes_probe_time():
    probe = SpeedProbe()
    k = REFERENCE_KERNEL_S
    # (start, end, kernel seconds): work runs from 1 to 3 and from 4 to 5.
    probe.marks = [(0.0, 1.0, k), (3.0, 4.0, 2 * k), (5.0, 6.0, k)]
    raw, ref = probe.times_since(0)
    assert raw == pytest.approx(3.0)
    # Kernel at 1.5x the reference time on both intervals: work counts 1/1.5.
    assert ref == pytest.approx(3.0 / 1.5)
    assert probe.times_since(1) == (pytest.approx(1.0), pytest.approx(1.0 / 1.5))
    assert probe.times_since(2) == (0.0, 0.0)


def test_probe_samples_between_runs_only_after_its_interval():
    probe = SpeedProbe()
    probe.interval = 3600.0
    assert probe.sample() == 0
    probe.between()
    assert len(probe.marks) == 1
    probe.interval = 0.0
    probe.between()
    assert len(probe.marks) == 2
    start, end, kernel_s = probe.marks[1]
    assert start <= end and kernel_s > 0.0


# ------------------------------------------------------------ Held-Karp


def brute_force(d) -> float:
    n = len(d)
    best = math.inf
    for perm in itertools.permutations(range(1, n)):
        tour = (0,) + perm
        best = min(best, sum(d[tour[i - 1]][tour[i]] for i in range(n)))
    return best


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("symmetric", [True, False])
def test_held_karp_matches_brute_force(n, symmetric):
    rng = random.Random(1000 * n + symmetric)
    for _ in range(3):
        if symmetric:
            pts = uniform_points(rng, n)
            d = [[math.dist(p, q) for q in pts] for p in pts]
        else:
            d = [[0.0 if i == j else rng.uniform(1.0, 100.0) for j in range(n)] for i in range(n)]
        assert held_karp(d) == pytest.approx(brute_force(d), rel=1e-12)


# ------------------------------------------------------------ inputs


def test_derive_seed_is_stable_and_distinct():
    assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
    assert derive_seed(1, "a", 2) != derive_seed(1, "a", 3)
    assert 0 <= derive_seed("x") < 2 ** 62


def test_rigid_motion_keeps_every_distance():
    rng = random.Random(3)
    pts = uniform_points(rng, 12)
    moved = rigid_motion(pts, rng)
    for i, j in itertools.combinations(range(12), 2):
        assert math.dist(moved[i], moved[j]) == pytest.approx(math.dist(pts[i], pts[j]), rel=1e-12)


@pytest.mark.parametrize("fmt", ["FULL_MATRIX", "LOWER_DIAG_ROW", "UPPER_ROW"])
def test_explicit_writer_round_trips_through_tsplab(fmt):
    tsplab = pytest.importorskip("tsplab")
    pts = uniform_points(random.Random(5), 9)
    inst = tsplab.parse_instance(explicit_tsplib("t", fmt, pts))
    assert inst.matrix == [[float(round(math.dist(p, q))) for q in pts] for p in pts]
