"""Unit tests for the Appendix A envelope calculus."""

from __future__ import annotations

import math

import pytest

from repro.core.envelope import Envelope, average, envelope_of_biases, lemma7_shrunk_width
from repro.errors import MeasurementError


def test_interval_at_anchor():
    env = Envelope(tau0=10.0, lo=-1.0, hi=2.0, rho=0.1)
    assert env.interval_at(10.0) == (-1.0, 2.0)


def test_interval_widens_with_drift():
    env = Envelope(tau0=0.0, lo=-1.0, hi=1.0, rho=0.5)
    assert env.interval_at(2.0) == (-2.0, 2.0)


def test_evaluation_before_anchor_rejected():
    env = Envelope(tau0=5.0, lo=0.0, hi=1.0, rho=0.0)
    with pytest.raises(MeasurementError):
        env.interval_at(4.0)


def test_inverted_bounds_rejected():
    with pytest.raises(MeasurementError):
        Envelope(tau0=0.0, lo=1.0, hi=0.0, rho=0.0)


def test_negative_rho_rejected():
    with pytest.raises(MeasurementError):
        Envelope(tau0=0.0, lo=0.0, hi=1.0, rho=-0.1)


def test_infinite_sides_allowed():
    env = Envelope(tau0=0.0, lo=-math.inf, hi=0.0, rho=0.1)
    assert env.contains(5.0, -1e12)
    assert not env.contains(5.0, 10.0)


def test_contains_and_distances():
    env = Envelope(tau0=0.0, lo=0.0, hi=1.0, rho=0.0)
    assert env.contains(3.0, 0.5)
    assert env.distance_above(3.0, 1.5) == pytest.approx(0.5)
    assert env.distance_below(3.0, -0.25) == pytest.approx(0.25)
    assert env.distance_outside(3.0, 0.5) == 0.0
    assert env.distance_outside(3.0, 2.0) == pytest.approx(1.0)


def test_contains_with_slack():
    env = Envelope(tau0=0.0, lo=0.0, hi=1.0, rho=0.0)
    assert env.contains(0.0, 1.05, slack=0.1)
    assert not env.contains(0.0, 1.2, slack=0.1)


def test_widened_extends_both_sides():
    env = Envelope(tau0=0.0, lo=0.0, hi=1.0, rho=0.2)
    wide = env.widened(0.5)
    assert wide.interval_at(0.0) == (-0.5, 1.5)
    assert wide.rho == env.rho


def test_widened_negative_rejected():
    with pytest.raises(MeasurementError):
        Envelope(tau0=0.0, lo=0.0, hi=1.0, rho=0.0).widened(-0.1)


def test_rebased_preserves_region():
    env = Envelope(tau0=0.0, lo=0.0, hi=1.0, rho=0.1)
    rebased = env.rebased(5.0)
    for tau in (5.0, 7.5, 20.0):
        assert rebased.interval_at(tau)[0] == pytest.approx(env.interval_at(tau)[0])
        assert rebased.interval_at(tau)[1] == pytest.approx(env.interval_at(tau)[1])


def test_containment_of_envelopes():
    outer = Envelope(tau0=0.0, lo=-2.0, hi=2.0, rho=0.1)
    inner = Envelope(tau0=0.0, lo=-1.0, hi=1.0, rho=0.1)
    assert outer.contains_envelope(inner)
    assert not inner.contains_envelope(outer)


def test_containment_fails_for_faster_widening():
    slow = Envelope(tau0=0.0, lo=-2.0, hi=2.0, rho=0.1)
    fast = Envelope(tau0=0.0, lo=-1.0, hi=1.0, rho=0.5)
    assert not slow.contains_envelope(fast)


def test_average_is_endpointwise_mean():
    e1 = Envelope(tau0=0.0, lo=0.0, hi=2.0, rho=0.1)
    e2 = Envelope(tau0=0.0, lo=-2.0, hi=0.0, rho=0.1)
    avg = average(e1, e2)
    assert avg.interval_at(0.0) == (-1.0, 1.0)


def test_average_membership_lemma():
    """If beta1 in E1 and beta2 in E2 then (beta1+beta2)/2 in avg(E1,E2)
    — the Appendix A averaging fact."""
    e1 = Envelope(tau0=0.0, lo=0.0, hi=2.0, rho=0.1)
    e2 = Envelope(tau0=0.0, lo=-3.0, hi=-1.0, rho=0.1)
    avg = average(e1, e2)
    tau = 4.0
    for b1 in (0.0, 1.0, 2.0, 2.4):
        for b2 in (-3.4, -2.0, -1.0):
            if e1.contains(tau, b1) and e2.contains(tau, b2):
                assert avg.contains(tau, (b1 + b2) / 2.0)


def test_average_requires_matching_anchor_and_rho():
    e1 = Envelope(tau0=0.0, lo=0.0, hi=1.0, rho=0.1)
    e2 = Envelope(tau0=1.0, lo=0.0, hi=1.0, rho=0.1)
    with pytest.raises(MeasurementError):
        average(e1, e2)


def test_envelope_of_biases():
    env = envelope_of_biases(2.0, [0.5, -0.25, 0.1], rho=0.1)
    assert env.tau0 == 2.0
    assert env.lo == -0.25
    assert env.hi == 0.5


def test_envelope_of_biases_empty_rejected():
    with pytest.raises(MeasurementError):
        envelope_of_biases(0.0, [], rho=0.1)


def test_lemma7_shrunk_width_formula():
    assert lemma7_shrunk_width(d_half_width=8.0, epsilon=0.5) == pytest.approx(15.0)


def test_lemma7_shrink_is_real_shrink_above_floor():
    """7D/4 + 2e < 2D exactly when D > 8e — the lemma's D > 8e side
    condition."""
    eps = 0.5
    above = 8 * eps * 1.01
    below = 8 * eps * 0.99
    assert lemma7_shrunk_width(above, eps) < 2 * above
    assert lemma7_shrunk_width(below, eps) > 2 * below
