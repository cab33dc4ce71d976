"""Deterministic edge cases of the streaming measures.

:class:`~repro.metrics.streaming.OnlineMeasures` promises reports
byte-identical to the post-hoc path.  The Hypothesis suite
(``test_property_engine.py``) covers the bulk of the input space; the
cases here pin the places where the event-driven hot path could differ
and random inputs only land by luck: a sample sitting exactly on the
``1e-12`` tolerance of a stretch endpoint, several thresholds maturing
on one sample, a recovery scan whose node re-enters the good set
before it confirms or whose candidates keep failing late,
never-released and overlapping corruptions, empty and singleton good
sets, and a decreasing sample time.

Clocks here are :class:`_BumpClock`\\ s — ``tau`` plus a large bump at
chosen instants — so *which* sample a capture took is unmistakable in
the report, not hidden in the last bits of a smooth clock.
"""

from __future__ import annotations

import math
import struct

import pytest

from repro.errors import MeasurementError
from repro.metrics.measures import (
    accuracy_report,
    deviation_series,
    recovery_report,
)
from repro.metrics import columns
from repro.metrics.columns import HAVE_NUMPY, set_numpy
from repro.metrics.sampler import (
    ClockSamples,
    CorruptionInterval,
    GoodSetIndex,
    WindowCursor,
)
from repro.metrics.streaming import OnlineMeasures

EPS = 1e-12


class _BumpClock:
    """Reads ``tau + bumps.get(tau, 0)``: a pure function of real time."""

    def __init__(self, bumps=None, offset=0.0):
        self.bumps = dict(bumps or {})
        self.offset = offset
        self.adjustments = []

    def read(self, tau):
        return self.offset + tau + self.bumps.get(tau, 0.0)


def _pack(series):
    flat = [x for pair in series for x in pair]
    return struct.pack(f"<{len(flat)}d", *flat)


def stream_and_posthoc(clocks, corruptions, grid, pi, tolerance=0.5,
                       settle=None):
    """Feed ``grid`` to a stream; return it with the post-hoc inputs."""
    n = len(clocks)
    stream = OnlineMeasures(clocks, corruptions, pi=pi, n=n,
                            recovery_tolerance=tolerance,
                            recovery_settle=settle)
    for i, tau in enumerate(grid):
        stream.on_sample(tau, i)
    stream.finalize()
    samples = ClockSamples(
        times=list(grid),
        clocks={node: [clock.read(tau) for tau in grid]
                for node, clock in clocks.items()})
    return stream, samples, GoodSetIndex(corruptions, pi, n)


def assert_matches_posthoc(clocks, corruptions, grid, pi, tolerance=0.5,
                           settle=None):
    """Every streamed report equals the post-hoc one; returns the stream."""
    n = len(clocks)
    stream, samples, index = stream_and_posthoc(clocks, corruptions, grid,
                                                pi, tolerance, settle)
    assert _pack(stream.deviations.series()) == _pack(
        deviation_series(samples, corruptions, pi, n, index=index))
    assert stream.accuracy() == accuracy_report(
        samples, corruptions, clocks, pi, n, index=index)
    assert stream.recovery() == recovery_report(
        samples, corruptions, pi, n, tolerance, settle, index=index)
    return stream


def below(x):
    return math.nextafter(x, -math.inf)


def above(x):
    return math.nextafter(x, math.inf)


# ---------------------------------------------------------------------------
# Stretch-endpoint captures on the 1e-12 tolerance
# ---------------------------------------------------------------------------

#: Node 0 is corrupted over [1, 2]; with PI = 1 its good stretches are
#: [0, 1] (clipped by the break-in at t2 = 1) and [3, horizon] (t1 = 3).
EDGE_CORRUPTION = [CorruptionInterval(0, 1.0, 2.0)]


@pytest.mark.parametrize("captured, rejected", [
    (3.0 - EPS, below(3.0 - EPS)),      # first sample with tau >= t1 - eps
    (3.0 + EPS, below(3.0 - EPS)),      # ... wherever it lies past that
])
def test_start_capture_on_the_tolerance(captured, rejected):
    grid = [0.0, 0.25, 0.5, 1.0, 2.0, 2.5, rejected, captured, 4.0, 5.0]
    for bumped in (captured, rejected):
        clocks = {0: _BumpClock({bumped: 0.25}), 1: _BumpClock()}
        report = assert_matches_posthoc(clocks, EDGE_CORRUPTION, grid,
                                        pi=1.0).accuracy()
        # Only a bump on the captured sample reaches the drift figure.
        assert (report.implied_drift > 0.01) == (bumped == captured)


@pytest.mark.parametrize("captured, rejected", [
    (1.0 + EPS, above(1.0 + EPS)),      # last sample with tau <= t2 + eps
    (1.0 - EPS, above(1.0 + EPS)),      # ... wherever it lies before that
])
def test_end_capture_on_the_tolerance(captured, rejected):
    grid = [0.0, 0.25, 0.5, captured, rejected, 2.0, 3.0, 4.0, 5.0]
    for bumped in (captured, rejected):
        clocks = {0: _BumpClock({bumped: 0.25}), 1: _BumpClock()}
        report = assert_matches_posthoc(clocks, EDGE_CORRUPTION, grid,
                                        pi=1.0).accuracy()
        assert (report.implied_drift > 0.01) == (bumped == captured)


def test_two_nodes_thresholds_mature_on_one_sample():
    """End thresholds 1.0/1.2 both mature at sample 1.3 (capturing 0.9);
    start thresholds 3.0/3.1 both mature at sample 3.3."""
    corruptions = [CorruptionInterval(0, 1.0, 2.0),
                   CorruptionInterval(1, 1.2, 2.1)]
    grid = [0.0, 0.2, 0.4, 0.9, 1.3, 2.0, 2.9, 3.3, 4.0, 5.0, 6.0]
    for node, bumped in ((0, 0.9), (1, 0.9), (0, 3.3), (1, 3.3)):
        clocks = {peer: _BumpClock() for peer in range(3)}
        clocks[node] = _BumpClock({bumped: 0.25})
        report = assert_matches_posthoc(clocks, corruptions, grid,
                                        pi=1.0).accuracy()
        assert report.stretches == 5
        assert report.implied_drift > 0.01, (node, bumped)


def test_first_sample_after_a_break_in_has_no_end_capture():
    """No sample at or before the stretch end: both paths refuse."""
    corruptions = [CorruptionInterval(0, 0.5, 1.5)]
    grid = [0.6, 0.7, 1.0, 2.0, 3.0, 4.0]
    clocks = {0: _BumpClock(), 1: _BumpClock()}
    stream, samples, index = stream_and_posthoc(clocks, corruptions, grid,
                                                pi=1.0)
    with pytest.raises(MeasurementError, match="no sample at or before"):
        accuracy_report(samples, corruptions, clocks, 1.0, 2, index=index)
    with pytest.raises(MeasurementError, match="no sample at or before"):
        stream.accuracy()


# ---------------------------------------------------------------------------
# The recovery scan
# ---------------------------------------------------------------------------


def test_tracker_node_reenters_good_set_before_confirming():
    """With settle > PI the released node is back in the good set while
    its tracker is still open; the range it is measured against must
    keep excluding the node itself."""
    corruptions = [CorruptionInterval(0, 1.0, 2.0)]
    grid = [0.5 * i for i in range(21)]                 # 0 .. 10
    # Node 0 is 5 off until 4.0 — that is one full second *inside* the
    # good set (it re-enters just after 3.0).  Measured against a range
    # that included itself it would look recovered from the release on.
    lost = {tau: 5.0 for tau in grid if tau < 4.0}
    clocks = {0: _BumpClock(lost), 1: _BumpClock(), 2: _BumpClock()}
    stream = assert_matches_posthoc(clocks, corruptions, grid, pi=1.0,
                                    tolerance=0.5, settle=3.0)
    (event,) = stream.recovery().events
    assert event.released_at == 2.0
    assert event.initial_distance == 5.0
    assert event.rejoined_at == 4.0


@pytest.mark.parametrize("use_numpy", [
    pytest.param(True, marks=pytest.mark.skipif(not HAVE_NUMPY,
                                                reason="numpy not installed")),
    False,
])
def test_posthoc_recovery_is_one_pass(monkeypatch, use_numpy):
    """A clock that stays in tolerance for k samples and leaves it for one,
    over and over, with k just under the settle window: every candidate
    fails, yet the post-hoc scan looks each sample's good set up at most
    once (re-walking each candidate's window would cost ~k/2 per sample)."""
    k, dt, settle = 9, 0.1, 1.0                     # window: 11 samples
    corruptions = [CorruptionInterval(1, 1.0, 2.0)]
    grid = [dt * i for i in range(125)]             # 0 .. 12.4
    after = [tau for tau in grid if tau >= 2.0 - EPS]
    lost = {tau: 50.0 for i, tau in enumerate(after) if i % (k + 1) == k}
    clocks = {0: _BumpClock(), 1: _BumpClock(lost), 2: _BumpClock()}
    monkeypatch.setattr(columns, "_FORCED", None)
    set_numpy(use_numpy)
    stream, samples, index = stream_and_posthoc(clocks, corruptions, grid,
                                                pi=1.0, tolerance=0.5,
                                                settle=settle)

    lookups = []
    for owner, name in ((GoodSetIndex, "good_at"),
                        (WindowCursor, "included_at")):
        def spy(self, tau, _real=getattr(owner, name)):
            lookups.append(tau)
            return _real(self, tau)
        monkeypatch.setattr(owner, name, spy)
    report = recovery_report(samples, corruptions, 1.0, 3, 0.5, settle,
                             index=index)
    monkeypatch.undo()

    assert len(lookups) <= len(after)
    assert min(lookups) >= 2.0 - EPS
    assert report == stream.recovery()
    # Only the truncated window after the last violation is stable.
    (event,) = report.events
    assert event.rejoined_at == after[after.index(max(lost)) + 1] < grid[-1]


def test_never_released_corruption_has_no_tracker_and_no_event():
    corruptions = [CorruptionInterval(0, 1.0, math.inf),
                   CorruptionInterval(1, 1.5, 2.5)]
    grid = [0.25 * i for i in range(33)]                # 0 .. 8
    clocks = {node: _BumpClock(offset=0.01 * node) for node in range(4)}
    stream = assert_matches_posthoc(clocks, corruptions, grid, pi=1.0)
    assert [event.node for event in stream.recovery().events] == [1]
    # Node 0 never has a second stretch, node 1 has two.
    assert stream.accuracy().stretches == 1 + 2 + 1 + 1


def test_overlapping_corruptions_of_one_node():
    """Nested and chained occupations of node 0: three releases, two of
    them while another occupation still holds the node."""
    corruptions = [CorruptionInterval(0, 1.0, 3.0),
                   CorruptionInterval(0, 2.0, 2.5),
                   CorruptionInterval(0, 2.8, 4.0)]
    grid = [0.25 * i for i in range(41)]                # 0 .. 10
    lost = {tau: 3.0 for tau in grid if 1.0 <= tau < 4.5}
    clocks = {0: _BumpClock(lost), 1: _BumpClock(), 2: _BumpClock()}
    stream = assert_matches_posthoc(clocks, corruptions, grid, pi=1.0)
    events = stream.recovery().events
    assert [event.released_at for event in events] == [3.0, 2.5, 4.0]
    assert {event.rejoined_at for event in events} == {4.5}


def test_singleton_and_empty_good_sets():
    """n = 2: with one node out the good set is a singleton (no
    deviation sample, but a recovery range of one value); with both out
    it is empty (a release then has nothing to measure against)."""
    corruptions = [CorruptionInterval(0, 1.0, 2.0),     # singleton {1}
                   CorruptionInterval(0, 5.0, 6.0),     # ... then both
                   CorruptionInterval(1, 5.5, 8.0)]     # out: empty at 6.0
    grid = [0.25 * i for i in range(49)]                # 0 .. 12
    lost = {tau: 2.0 for tau in grid if 1.0 <= tau < 2.5}
    clocks = {0: _BumpClock(lost), 1: _BumpClock()}
    stream = assert_matches_posthoc(clocks, corruptions, grid, pi=1.0)
    series = stream.deviations.series()
    assert all(not 1.0 <= tau <= 3.0 for tau, _ in series)
    assert all(not 5.0 <= tau <= 9.0 for tau, _ in series)
    by_release = {event.released_at: event
                  for event in stream.recovery().events}
    # 6.0's good range is empty (skipped); 2.0 and 8.0 are measured
    # against the one other node.
    assert sorted(by_release) == [2.0, 8.0]
    assert by_release[2.0].initial_distance == 2.0
    assert by_release[2.0].rejoined_at == 2.5


def test_no_corruptions_and_no_samples():
    clocks = {0: _BumpClock(), 1: _BumpClock(offset=0.5)}
    stream = assert_matches_posthoc(clocks, [], [0.0, 1.0, 2.0], pi=1.0)
    assert stream.deviations.max() == 0.5
    empty = OnlineMeasures(clocks, [], pi=1.0, n=2, recovery_tolerance=0.5)
    empty.finalize()
    assert empty.deviations.series() == []
    assert empty.recovery().events == []
    with pytest.raises(MeasurementError):
        empty.accuracy()


def test_run_result_reads_the_one_deviation_series():
    """Streamed or post hoc, RunResult's four deviation read-outs are
    views of one DeviationSeries: the stream's own, or one measured once
    from the recorded samples."""
    from repro.metrics.measures import DeviationSeries
    from repro.runner.builders import default_params, mobile_byzantine_scenario
    from repro.runner.experiment import run

    scenario = mobile_byzantine_scenario(default_params(n=4, f=1), duration=6.0,
                                         seed=3)
    streamed = run(scenario, stream_measures=True)
    posthoc = run(scenario)
    assert streamed.deviations() is streamed.stream.deviations
    assert posthoc.deviations() is posthoc.deviations()
    measured = DeviationSeries.measure(posthoc.samples, posthoc.corruptions,
                                       posthoc.params.pi, posthoc.params.n)
    for series in (streamed.deviations(), posthoc.deviations()):
        assert series.taus.tobytes() == measured.taus.tobytes()
        assert series.devs.tobytes() == measured.devs.tobytes()
    bound = scenario.params.bounds().max_deviation
    for warmup in (0.0, 2.0):
        assert (streamed.deviation_series(warmup), streamed.max_deviation(warmup),
                streamed.deviation_percentiles(warmup),
                streamed.envelope_occupancy(warmup)) == (
            measured.series(warmup), measured.max(warmup),
            measured.percentiles(warmup), measured.occupancy(bound, warmup))


# ---------------------------------------------------------------------------
# Sample-time monotonicity
# ---------------------------------------------------------------------------


def test_decreasing_tau_is_rejected_and_harmless():
    corruptions = [CorruptionInterval(0, 1.0, 2.0)]
    grid = [0.5 * i for i in range(13)]
    clocks = {0: _BumpClock({4.0: 0.25}), 1: _BumpClock(), 2: _BumpClock()}
    reference = assert_matches_posthoc(clocks, corruptions, grid, pi=1.0)

    stream = OnlineMeasures(clocks, corruptions, pi=1.0, n=3,
                            recovery_tolerance=0.5)
    for i, tau in enumerate(grid):
        stream.on_sample(tau, i)
        if i == 5:
            with pytest.raises(MeasurementError, match="must not decrease"):
                stream.on_sample(below(tau), i)
            with pytest.raises(MeasurementError, match="must not decrease"):
                stream.on_sample(0.0, i)
    stream.finalize()
    # The rejected calls left no trace.
    assert stream.deviations.series() == reference.deviations.series()
    assert stream.accuracy() == reference.accuracy()
    assert stream.recovery() == reference.recovery()
