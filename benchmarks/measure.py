"""Spans, self time, host-speed probes and the order statistics the
benchmark reports.

Everything here is plain Python with no dependency on tsplab, so the
benchmark's own arithmetic cannot change when the measured code does.
"""

from __future__ import annotations

import contextlib
import math
import random
import statistics
import time
from dataclasses import dataclass

# What the probe kernel takes at the reference speed. Times normalised by
# SpeedProbe read as seconds on a host that runs the kernel in this time.
REFERENCE_KERNEL_S = 0.02
PROBE_INTERVAL_S = 0.25
_KERNEL_CITIES = 400
_KERNEL_MOVES = 8_000


@dataclass
class Span:
    """One timed call into a layer. `work` is the layer's own count
    (evaluations, nodes) when the call reports one."""

    name: str
    start: float
    end: float
    parent: int | None
    workload: str
    work: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps spans in memory; nesting follows the order of `with` blocks."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        record = Span(name, time.perf_counter(), 0.0, parent, self.workload)
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()


class NullTracer:
    """Stands in for Tracer in untraced passes; records nothing."""

    _null = contextlib.nullcontext(Span("", 0.0, 0.0, None, ""))

    def span(self, name: str):
        return self._null


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.
    Tracer's children are sequential and nested inside their parent."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def span_cost(calls: int = 20_000, repeats: int = 5) -> float:
    """Seconds one empty `Tracer.span` costs: the median over `repeats`
    timings of `calls` spans each."""
    per_call = []
    for _ in range(repeats):
        tracer = Tracer("")
        started = time.perf_counter()
        for _ in range(calls):
            with tracer.span(""):
                pass
        per_call.append((time.perf_counter() - started) / calls)
    return statistics.median(per_call)


def totals_by_name(spans: list[Span]) -> dict[str, tuple[float, int]]:
    """name -> (summed self time, summed work) over every span of that name."""
    out: dict[str, tuple[float, int]] = {}
    for s, own in zip(spans, self_times(spans)):
        t, w = out.get(s.name, (0.0, 0))
        out[s.name] = (t + own, w + s.work)
    return out


def geometric_mean(values: list[float]) -> float:
    if not values:
        raise ValueError("geometric mean of no values")
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean needs positive values")
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


@dataclass(frozen=True)
class Summary:
    count: int
    median: float
    q1: float
    q3: float
    minimum: float
    maximum: float


def summarize(values: list[float]) -> Summary:
    """Median and quartiles as `statistics.quantiles(n=4)` gives them
    (exclusive method); with one sample every statistic is that sample."""
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        v = values[0]
        return Summary(1, v, v, v, v, v)
    q1, med, q3 = statistics.quantiles(values, n=4)
    return Summary(len(values), statistics.median(values), q1, q3, min(values), max(values))


class SpeedProbe:
    """Measures how fast the host runs Python right now.

    The speed of a shared host can drift by a factor of two within a minute,
    so a pass's raw seconds say as much about the neighbours as about the
    code. The probe times a fixed pure-Python kernel at the start and end of
    a pass and between runs: random 2-opt deltas over a 400-city
    list-of-lists matrix, the solvers' typical inner loop over a working set
    of a few MB. Measured against the solvers' own calls across the host's
    speed changes, its time scales with theirs (log-log slope 0.85-1.0) more
    closely than a cache-resident loop's does (0.7-0.9). The work between
    two probes is rescaled by the mean of their kernel times; probe time
    itself is excluded.
    """

    def __init__(self):
        self.interval = PROBE_INTERVAL_S
        rng = random.Random(0)
        pts = [(rng.random(), rng.random()) for _ in range(_KERNEL_CITIES)]
        self._d = [[math.dist(p, q) for q in pts] for p in pts]
        self.marks: list[tuple[float, float, float]] = []  # (start, end, kernel seconds)

    def _kernel(self) -> float:
        d, n = self._d, _KERNEL_CITIES
        rng = random.Random(0)
        tour = list(range(n))
        started = time.perf_counter()
        for _ in range(_KERNEL_MOVES):
            i = rng.randrange(n - 1)
            j = rng.randrange(i + 1, n)
            a, b, c, e = tour[i - 1], tour[i], tour[j], tour[(j + 1) % n]
            if d[a][c] + d[b][e] - d[a][b] - d[c][e] < 0.0:
                tour[i:j + 1] = tour[i:j + 1][::-1]
        return time.perf_counter() - started

    def sample(self) -> int:
        """Probe now; returns the index of this mark."""
        start = time.perf_counter()
        kernel_s = self._kernel()
        self.marks.append((start, time.perf_counter(), kernel_s))
        return len(self.marks) - 1

    def between(self) -> None:
        """Probe if the last probe is more than `interval` seconds old."""
        if time.perf_counter() - self.marks[-1][1] >= self.interval:
            self.sample()

    def times_since(self, first: int) -> tuple[float, float]:
        """(raw seconds, reference seconds) of the work between mark `first`
        and the last mark."""
        raw = ref = 0.0
        marks = self.marks[first:]
        for (_, end, k0), (start, _, k1) in zip(marks, marks[1:]):
            raw += start - end
            ref += (start - end) * REFERENCE_KERNEL_S / ((k0 + k1) / 2.0)
        return raw, ref

