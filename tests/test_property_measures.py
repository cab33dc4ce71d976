"""Property-based tests for the measurement pipeline.

The measures feed every experimental claim, so their own invariants get
hypothesis coverage: good-set membership vs corruption windows, the
deviation measure's relation to raw samples, and stretch construction.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.measures import deviation_series, good_stretches
from repro.metrics.sampler import ClockSamples, CorruptionInterval, good_set


times_strategy = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)


@st.composite
def corruption_sets(draw, n_nodes=5):
    count = draw(st.integers(0, 6))
    corruptions = []
    for _ in range(count):
        node = draw(st.integers(0, n_nodes - 1))
        start = draw(times_strategy)
        length = draw(st.floats(0.1, 10.0, allow_nan=False))
        corruptions.append(CorruptionInterval(node, start, start + length))
    return corruptions


@given(corruptions=corruption_sets(), tau=times_strategy,
       pi=st.floats(0.1, 10.0, allow_nan=False))
def test_good_set_definition(corruptions, tau, pi):
    """A node is good at tau iff no corruption touches [tau - PI, tau]
    (clipped at 0) — checked against the definition directly."""
    n = 5
    computed = good_set(corruptions, tau, pi, n)
    lo = max(0.0, tau - pi)
    for node in range(n):
        touched = any(c.node == node and c.start <= tau and c.end >= lo
                      for c in corruptions)
        assert (node not in computed) == touched


@given(corruptions=corruption_sets(), tau=times_strategy,
       pi_small=st.floats(0.1, 5.0, allow_nan=False),
       extra=st.floats(0.0, 5.0, allow_nan=False))
def test_good_set_monotone_in_pi(corruptions, tau, pi_small, extra):
    """A larger PI window can only shrink the good set."""
    n = 5
    large = good_set(corruptions, tau, pi_small + extra, n)
    small = good_set(corruptions, tau, pi_small, n)
    assert large <= small


@given(values=st.lists(st.floats(-100, 100, allow_nan=False), min_size=2,
                       max_size=8))
def test_deviation_is_span_without_faults(values):
    samples = ClockSamples(times=[0.0],
                           clocks={i: [v] for i, v in enumerate(values)})
    series = deviation_series(samples, [], pi=1.0, n=len(values))
    assert series[0][1] == max(values) - min(values)


@given(values=st.lists(st.floats(-100, 100, allow_nan=False), min_size=3,
                       max_size=8),
       excluded=st.integers(0, 2))
def test_deviation_ignores_faulty_nodes(values, excluded):
    """Excluding a node from the good set removes its influence."""
    n = len(values)
    samples = ClockSamples(times=[10.0],
                           clocks={i: [v] for i, v in enumerate(values)})
    corruption = [CorruptionInterval(excluded, 9.5, 10.5)]
    series = deviation_series(samples, corruption, pi=1.0, n=n)
    rest = [v for i, v in enumerate(values) if i != excluded]
    assert series[0][1] == max(rest) - min(rest)


@settings(max_examples=100)
@given(corruptions=corruption_sets(n_nodes=3),
       pi=st.floats(0.1, 5.0, allow_nan=False),
       horizon=st.floats(5.0, 50.0, allow_nan=False))
def test_good_stretches_are_actually_good(corruptions, pi, horizon):
    """Every point of a reported stretch satisfies Definition 3(ii)'s
    window requirement: the node is non-faulty during [t1 - PI, t2]."""
    for node, t1, t2 in good_stretches(corruptions, pi, 3, horizon):
        assert 0.0 <= t1 < t2 <= horizon
        window_lo = max(0.0, t1 - pi)
        for c in corruptions:
            if c.node == node:
                # Half-open boundary: a corruption ending exactly at
                # window_lo (or starting exactly at t2) is a
                # measure-zero touch, permitted by convention.  The 1e-9
                # tolerance absorbs float round-trip noise in
                # t1 = end + pi followed by window_lo = t1 - pi.
                strictly_overlaps = (c.start < t2 - 1e-9
                                     and c.end > window_lo + 1e-9)
                assert not strictly_overlaps, (node, t1, t2, c.start, c.end)


@settings(max_examples=100)
@given(corruptions=corruption_sets(n_nodes=3),
       pi=st.floats(0.1, 5.0, allow_nan=False),
       horizon=st.floats(5.0, 50.0, allow_nan=False))
def test_good_stretches_are_maximal_on_the_right(corruptions, pi, horizon):
    """A stretch ends only at the horizon or at the next corruption."""
    for node, t1, t2 in good_stretches(corruptions, pi, 3, horizon):
        if t2 < horizon:
            assert any(c.node == node and abs(c.start - t2) < 1e-9
                       for c in corruptions)


@settings(max_examples=200)
@given(corruptions=corruption_sets(n_nodes=3),
       never_released=st.lists(st.tuples(st.integers(0, 2), times_strategy),
                               max_size=2),
       pi=st.floats(0.1, 5.0, allow_nan=False),
       horizon=st.floats(0.0, 120.0, allow_nan=False))
def test_finite_stretches_are_clipped_endless_ones(corruptions, never_released,
                                                   pi, horizon):
    """The streaming path captures stretch endpoints at the starts and
    finite ends of the stretches of an *endless* run, before it knows
    its horizon.  That is only sound if every horizon's stretches are
    those, end clipped to the horizon, and no others."""
    corruptions = corruptions + [CorruptionInterval(node, start, math.inf)
                                 for node, start in never_released]
    endless = good_stretches(corruptions, pi, 3, math.inf)
    clipped = [(node, t1, min(t2, horizon)) for node, t1, t2 in endless
               if t1 < min(t2, horizon)]
    assert good_stretches(corruptions, pi, 3, horizon) == clipped
