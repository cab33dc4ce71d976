"""Property tests for the columnar + incremental measurement engine.

Three exactness contracts carry the PR 4 engine, and each gets
hypothesis coverage against its reference implementation:

* :class:`~repro.metrics.sampler.GoodSetIndex` /
  :class:`~repro.metrics.sampler.WindowIndex` answer every point query
  identically to the brute per-corruption predicates — including at
  boundary times and their one-ulp neighbours, since the index
  pre-computes float thresholds with ordinal bisection;
* the pure-Python and numpy reduction backends in
  :mod:`repro.metrics.columns` return byte-identical results;
* :class:`~repro.metrics.streaming.OnlineMeasures` reproduces every
  post-hoc measure byte-for-byte from the sampling hook alone, and a
  campaign :class:`~repro.runner.campaign.RunRecord` is identical with
  ``stream_measures`` on or off.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.clocks import (
    FixedRateClock,
    LogicalClock,
    PiecewiseRateClock,
    QuantizedClock,
)
from repro.metrics.columns import (
    HAVE_NUMPY,
    as_column,
    set_numpy,
    spread_slice,
)
from repro.metrics.measures import (
    accuracy_report,
    deviation_series,
    recovery_report,
)
from repro.metrics.sampler import (
    ClockSamples,
    CorruptionInterval,
    GoodSetIndex,
    WindowIndex,
    good_set,
)
from repro.metrics.streaming import OnlineMeasures
from repro.runner.campaign import execute_run

N_NODES = 4

times_strategy = st.floats(min_value=0.0, max_value=60.0, allow_nan=False)


@st.composite
def corruption_sets(draw, n_nodes=N_NODES, allow_infinite=True):
    count = draw(st.integers(0, 6))
    corruptions = []
    for _ in range(count):
        node = draw(st.integers(0, n_nodes - 1))
        start = draw(times_strategy)
        if allow_infinite and draw(st.booleans()) and draw(st.booleans()):
            end = math.inf
        else:
            end = start + draw(st.floats(0.0, 12.0, allow_nan=False))
        corruptions.append(CorruptionInterval(node, start, end))
    return corruptions


def boundary_taus(corruptions, pi, extra=()):
    """Every float where a window answer can flip, plus ulp neighbours."""
    anchors = {0.0, pi}
    for c in corruptions:
        for base in (c.start, c.end):
            if not math.isfinite(base):
                continue
            anchors.update((base, base + pi, base - pi))
    anchors.update(extra)
    taus = set()
    for a in anchors:
        if a < 0.0 or not math.isfinite(a):
            continue
        taus.add(a)
        taus.add(math.nextafter(a, math.inf))
        down = math.nextafter(a, -math.inf)
        if down >= 0.0:
            taus.add(down)
    return sorted(taus)


# ---------------------------------------------------------------------------
# GoodSetIndex / WindowIndex vs the brute predicates
# ---------------------------------------------------------------------------


@settings(max_examples=200)
@given(corruptions=corruption_sets(),
       pi=st.floats(0.05, 10.0, allow_nan=False),
       random_taus=st.lists(times_strategy, max_size=8))
def test_good_set_index_matches_brute(corruptions, pi, random_taus):
    index = GoodSetIndex(corruptions, pi, N_NODES)
    for tau in boundary_taus(corruptions, pi, extra=random_taus):
        assert index.good_set(tau) == good_set(corruptions, tau, pi, N_NODES), tau


@settings(max_examples=200)
@given(corruptions=corruption_sets(),
       before=st.floats(0.0, 10.0, allow_nan=False),
       after=st.floats(0.0, 10.0, allow_nan=False),
       random_taus=st.lists(times_strategy, max_size=8))
def test_window_index_matches_definition(corruptions, before, after, random_taus):
    """A corruption excludes its node at anchor t iff it overlaps the
    window [max(0, t - before), t + after] — checked pointwise."""
    index = WindowIndex(corruptions, N_NODES, before=before, after=after)
    anchors = boundary_taus(corruptions, before, extra=random_taus)
    anchors.extend(boundary_taus(corruptions, after))
    for tau in anchors:
        lo = max(0.0, tau - before)
        hi = tau + after
        expected = frozenset(
            c.node for c in corruptions if c.start <= hi and c.end >= lo)
        assert index.excluded_at(tau) == expected, tau


@settings(max_examples=150)
@given(corruptions=corruption_sets(),
       pi=st.floats(0.05, 10.0, allow_nan=False),
       taus=st.lists(times_strategy, min_size=1, max_size=20))
def test_runs_and_cursor_match_point_queries(corruptions, pi, taus):
    """Batch iteration (runs) and the forward cursor agree with the
    random-access point query on any sorted time grid."""
    index = GoodSetIndex(corruptions, pi, N_NODES)
    times = sorted(taus)
    covered = [None] * len(times)
    for lo, hi, included in index.runs(times):
        for i in range(lo, hi):
            covered[i] = included
    cursor = index.cursor()
    for i, tau in enumerate(times):
        expected = index.good_at(tau)
        assert covered[i] == expected, tau
        assert cursor.included_at(tau) == expected, tau


# ---------------------------------------------------------------------------
# Columnar reduction backends
# ---------------------------------------------------------------------------


finite_floats = st.floats(-1e9, 1e9, allow_nan=False)


@st.composite
def column_slices(draw):
    """``(columns, lo, hi)``: 2-5 equal-length float columns and a
    non-empty slice of them."""
    n_cols = draw(st.integers(2, 5))
    length = draw(st.integers(1, 30))
    columns = [draw(st.lists(finite_floats, min_size=length,
                             max_size=length)) for _ in range(n_cols)]
    lo = draw(st.integers(0, length - 1))
    return columns, lo, draw(st.integers(lo + 1, length))


def _pack(values) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


def _reductions(columns, lo, hi, numpy: bool) -> bytes:
    """The slice's spread as bytes, on one backend."""
    columns = [as_column(col) for col in columns]
    try:
        set_numpy(numpy)
        return _pack(spread_slice(columns, lo, hi))
    finally:
        set_numpy(None)


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy backend not installed")
@settings(max_examples=150)
@example(case=([[0.0], [-0.0]], 0, 1))
@example(case=([[-0.0], [0.0]], 0, 1))
@example(case=([[-0.0, 1.0], [0.0, -0.0], [-0.0, 0.0]], 0, 2))
@given(case=column_slices())
def test_backends_byte_identical(case):
    columns, lo, hi = case
    assert _reductions(columns, lo, hi, numpy=False) \
        == _reductions(columns, lo, hi, numpy=True)


@pytest.mark.parametrize("numpy", [
    False,
    pytest.param(True, marks=pytest.mark.skipif(
        not HAVE_NUMPY, reason="numpy backend not installed")),
])
@pytest.mark.parametrize("columns", [
    [[0.0], [-0.0]], [[-0.0], [0.0]], [[-0.0], [-0.0]],
    [[-0.0], [0.0], [-0.0]],
])
def test_signed_zero_results_are_positive_zero(columns, numpy):
    """Ties between ``+0.0`` and ``-0.0`` come out as ``+0.0`` on either
    backend, whichever operand each one's min/max keeps."""
    positive_zero = _pack([0.0])
    assert _reductions(columns, 0, 1, numpy) == positive_zero


@pytest.mark.parametrize("numpy", [
    False,
    pytest.param(True, marks=pytest.mark.skipif(
        not HAVE_NUMPY, reason="numpy backend not installed")),
])
def test_canonical_zero_leaves_other_values_alone(numpy):
    columns = [[-0.0, 2.5, -1e-300], [-3.0, -0.0, 5e-324]]
    assert _reductions(columns, 0, 3, numpy) == _pack(
        [3.0, 2.5, 5e-324 + 1e-300])


# ---------------------------------------------------------------------------
# OnlineMeasures vs the post-hoc pipeline
# ---------------------------------------------------------------------------


class _FakeClock:
    """Pure-function-of-time clock with a fixed adjustment history."""

    def __init__(self, offset, rate, adjustments):
        self.offset = offset
        self.rate = rate
        self.adjustments = adjustments

    def read(self, tau):
        return self.offset + self.rate * tau


def _pack_series(series):
    flat = [x for pair in series for x in pair]
    return struct.pack(f"<{len(flat)}d", *flat)


def _assert_stream_matches_posthoc(stream, grid, rows, clocks, corruptions,
                                   pi, n, tolerance, warmup):
    """Every streamed measure equals the post-hoc one over ``rows`` (the
    readings taken at each grid instant), on every columns backend."""
    for force_numpy in ((False, True) if HAVE_NUMPY else (False,)):
        set_numpy(force_numpy)
        try:
            samples = ClockSamples(times=list(grid),
                                   clocks={node: list(row)
                                           for node, row in rows.items()})
            index = GoodSetIndex(corruptions, pi, n)
            assert _pack_series(stream.deviations.series(warmup)) == \
                _pack_series(deviation_series(samples, corruptions, pi, n,
                                              warmup=warmup, index=index))
            assert stream.accuracy() == accuracy_report(
                samples, corruptions, clocks, pi, n, index=index)
            assert stream.recovery(tolerance, pi) == recovery_report(
                samples, corruptions, pi, n, tolerance, pi, index=index)
        finally:
            set_numpy(None)


@settings(max_examples=60, deadline=None)
@given(data=st.data(),
       corruptions=corruption_sets(allow_infinite=False),
       count=st.integers(2, 40),
       dt=st.floats(0.05, 2.0, allow_nan=False),
       pi=st.floats(0.1, 8.0, allow_nan=False),
       tolerance=st.floats(0.01, 5.0, allow_nan=False),
       warmup=st.floats(0.0, 30.0, allow_nan=False))
def test_streaming_matches_posthoc(data, corruptions, count, dt, pi,
                                   tolerance, warmup):
    """Every streamed measure is byte-identical to the post-hoc one."""
    clocks = {}
    for node in range(N_NODES):
        offset = data.draw(st.floats(-2.0, 2.0, allow_nan=False))
        rate = data.draw(st.floats(0.9, 1.1, allow_nan=False))
        adjustments = [(data.draw(times_strategy),
                        data.draw(st.floats(-1.0, 1.0, allow_nan=False)),
                        "adj")
                       for _ in range(data.draw(st.integers(0, 2)))]
        clocks[node] = _FakeClock(offset, rate, adjustments)

    grid = [i * dt for i in range(count)]
    stream = OnlineMeasures(clocks, corruptions, pi=pi, n=N_NODES,
                            recovery_tolerance=tolerance, recovery_settle=pi)
    for i, tau in enumerate(grid):
        stream.on_sample(tau, i)
    stream.finalize()

    rows = {node: [clock.read(tau) for tau in grid]
            for node, clock in clocks.items()}
    _assert_stream_matches_posthoc(stream, grid, rows, clocks, corruptions,
                                   pi, N_NODES, tolerance, warmup)


#: The at-scale variant: six clocks of every shape the segment mirror
#: distinguishes, hundreds of corruption intervals.
SCALE_NODES = 6
SCALE_HORIZON = 60.0


def _mixed_clocks(rng, grid):
    """One clock per shape: fixed, piecewise with a breakpoint exactly
    *on* a grid point, quantized, origin != 0 (fixed and piecewise), and
    a duck-typed clock without ``.hardware``."""
    rho = 0.1

    def rate():
        return rng.uniform(1.0 / (1.0 + rho), 1.0 + rho)

    on_grid = sorted(rng.sample(grid[1:], 3))
    return {
        0: LogicalClock(FixedRateClock(rho, rate=rate(),
                                       offset=rng.uniform(-1, 1)),
                        adj=rng.uniform(-1, 1)),
        1: LogicalClock(PiecewiseRateClock(
            rho, [(0.0, rate())] + [(t, rate()) for t in on_grid])),
        2: LogicalClock(QuantizedClock(
            PiecewiseRateClock(rho, [(0.0, rate()), (on_grid[1], rate())]),
            tick=0.003)),
        3: LogicalClock(FixedRateClock(rho, rate=rate(), offset=2.0,
                                       origin=-1.5)),
        4: LogicalClock(PiecewiseRateClock(
            rho, [(-2.0, rate()), (on_grid[0], rate()),
                  (on_grid[0] + 0.37, rate())], offset=-2.0)),
        5: _FakeClock(rng.uniform(-1, 1), rate(), []),
    }


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 20),
       count=st.integers(200, 320),
       samples=st.integers(60, 240),
       pi=st.floats(0.1, 4.0, allow_nan=False),
       tolerance=st.floats(0.01, 5.0, allow_nan=False))
def test_streaming_matches_posthoc_at_scale(seed, count, samples, pi,
                                            tolerance):
    """Same contract with >= 200 corruption intervals over mixed clock
    shapes, real logical clocks being adjusted while the run streams."""
    rng = random.Random(seed)
    dt = SCALE_HORIZON / samples
    grid = [i * dt for i in range(samples + 1)]
    clocks = _mixed_clocks(rng, grid)
    corruptions = []
    for _ in range(count):
        start = rng.uniform(0.0, SCALE_HORIZON)
        end = math.inf if rng.random() < 0.02 \
            else start + rng.uniform(0.0, 3.0)
        corruptions.append(CorruptionInterval(
            rng.randrange(SCALE_NODES), start, end))

    stream = OnlineMeasures(clocks, corruptions, pi=pi, n=SCALE_NODES,
                            recovery_tolerance=tolerance, recovery_settle=pi)
    rows = {node: [] for node in clocks}
    for i, tau in enumerate(grid):
        if rng.random() < 0.1:          # a Sync correction between samples
            clocks[rng.randrange(5)].adjust(tau, rng.uniform(-0.5, 0.5))
        stream.on_sample(tau, i)
        for node, clock in clocks.items():
            rows[node].append(clock.read(tau))
    stream.finalize()
    _assert_stream_matches_posthoc(stream, grid, rows, clocks, corruptions,
                                   pi, SCALE_NODES, tolerance, warmup=0.0)


# ---------------------------------------------------------------------------
# RunRecord parity: stream on/off, numpy on/off
# ---------------------------------------------------------------------------


def _record_json(record):
    return json.dumps(dataclasses.asdict(record), sort_keys=True)


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2 ** 16),
       scenario=st.sampled_from(["benign", "mobile-byzantine", "recovery"]))
def test_runrecord_parity(seed, scenario):
    """A campaign record is byte-identical with streaming on or off, and
    (when numpy is present) with either reduction backend."""
    config = {
        "params": {"n": 4, "f": 1, "delta": 0.005, "rho": 5e-4, "pi": 2.0},
        "scenario": scenario,
        "duration": 6.0,
        "seed": seed,
    }
    reference = _record_json(execute_run(0, config))
    assert _record_json(execute_run(0, config, stream_measures=True)) == reference
    if HAVE_NUMPY:
        try:
            set_numpy(False)
            python_backend = _record_json(execute_run(0, config))
            python_stream = _record_json(
                execute_run(0, config, stream_measures=True))
            set_numpy(True)
            numpy_backend = _record_json(execute_run(0, config))
        finally:
            set_numpy(None)
        assert python_backend == reference
        assert python_stream == reference
        assert numpy_backend == reference
