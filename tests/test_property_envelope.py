"""Property-based tests for the Appendix A envelope algebra."""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.core.envelope import Envelope, average, envelope_of_biases

rhos = st.floats(min_value=0.0, max_value=0.5, allow_nan=False)
values = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
widths = st.floats(min_value=0.0, max_value=1e3, allow_nan=False)
offsets = st.floats(min_value=0.0, max_value=1e3, allow_nan=False)


@st.composite
def envelopes(draw, tau0=None, rho=None):
    t0 = draw(st.floats(0.0, 100.0, allow_nan=False)) if tau0 is None else tau0
    r = draw(rhos) if rho is None else rho
    lo = draw(values)
    width = draw(widths)
    return Envelope(tau0=t0, lo=lo, hi=lo + width, rho=r)


@given(env=envelopes(), dt=offsets)
def test_width_grows_linearly(env, dt):
    low, high = env.interval_at(env.tau0 + dt)
    width = (env.hi - env.lo) + 2 * env.rho * dt
    assert high - low == width or abs(high - low - width) < 1e-9


@given(env=envelopes(), dt=offsets, beta=values)
def test_membership_is_monotone_in_time(env, dt, beta):
    """Once a bias value is inside the envelope at its anchor, it stays
    inside at all later times (envelopes only widen)."""
    if env.contains(env.tau0, beta):
        assert env.contains(env.tau0 + dt, beta)


@given(env=envelopes(), c=widths, dt=offsets, beta=values)
def test_widened_contains_original(env, c, dt, beta):
    if env.contains(env.tau0 + dt, beta):
        assert env.widened(c).contains(env.tau0 + dt, beta)


@given(env=envelopes(), dt1=offsets, dt2=offsets)
def test_rebased_region_identical(env, dt1, dt2):
    rebased = env.rebased(env.tau0 + dt1)
    tau = env.tau0 + dt1 + dt2
    a0, b0 = env.interval_at(tau)
    a1, b1 = rebased.interval_at(tau)
    assert abs(a0 - a1) < 1e-6 and abs(b0 - b1) < 1e-6


@given(data=st.data(), rho=rhos, tau0=st.floats(0.0, 10.0, allow_nan=False),
       dt=offsets)
def test_average_membership(data, rho, tau0, dt):
    """beta1 in E1 and beta2 in E2 => (beta1+beta2)/2 in avg(E1, E2)."""
    e1 = data.draw(envelopes(tau0=tau0, rho=rho))
    e2 = data.draw(envelopes(tau0=tau0, rho=rho))
    tau = tau0 + dt
    lo1, hi1 = e1.interval_at(tau)
    lo2, hi2 = e2.interval_at(tau)
    beta1 = data.draw(st.floats(lo1, hi1, allow_nan=False)) if hi1 > lo1 else lo1
    beta2 = data.draw(st.floats(lo2, hi2, allow_nan=False)) if hi2 > lo2 else lo2
    avg = average(e1, e2)
    assert avg.contains(tau, (beta1 + beta2) / 2.0, slack=1e-9)


@given(biases=st.lists(values, min_size=1, max_size=20),
       tau0=st.floats(0.0, 10.0), rho=rhos, dt=offsets)
def test_envelope_of_biases_contains_all(biases, tau0, rho, dt):
    env = envelope_of_biases(tau0, biases, rho)
    for beta in biases:
        assert env.contains(tau0 + dt, beta)


@given(env=envelopes(), beta=values, dt=offsets)
def test_distance_zero_iff_inside(env, beta, dt):
    tau = env.tau0 + dt
    inside = env.contains(tau, beta)
    assert (env.distance_outside(tau, beta) == 0.0) == inside


@given(env=envelopes(), c=widths)
def test_widened_contains_envelope(env, c):
    assert env.widened(c).contains_envelope(env, slack=1e-9)
