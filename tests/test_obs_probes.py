"""Tests for the live Theorem 5 envelope probes."""

from __future__ import annotations

import dataclasses

import pytest

from repro.adversary.mobile import single_burst_plan
from repro.adversary.strategies import LiarStrategy
from repro.clocks.hardware import FixedRateClock
from repro.clocks.logical import LogicalClock
from repro.metrics.sampler import CorruptionInterval, good_set
from repro.obs import EventBus, FlightRecorder, Theorem5Probe
from repro.obs.probes import violations_from_events
from repro.runner.builders import (
    benign_scenario,
    default_params,
    mobile_byzantine_scenario,
)
from repro.runner.experiment import run


def make_clocks(n, rate=1.0):
    return {node: LogicalClock(FixedRateClock(rho=5e-4, rate=rate))
            for node in range(n)}


@pytest.fixture
def params():
    return default_params(n=4, f=1, pi=2.0)


class TestGoodSetTracking:
    def test_matches_offline_good_set(self, params):
        """Online tracking agrees with the offline Definition 3 helper."""
        probe = Theorem5Probe(params, make_clocks(params.n))
        bus = EventBus(clock=lambda: now[0])
        bus.subscribe(probe.on_event)
        now = [3.0]
        bus.publish("adv.break_in", node=2, strategy="liar")
        now = [5.0]
        bus.publish("adv.release", node=2, strategy="liar")
        intervals = [CorruptionInterval(2, 3.0, 5.0)]
        for tau in (5.5, 6.9, 7.0, 7.1, 10.0):
            expected = good_set(intervals, tau, params.pi, params.n)
            assert probe.good_set(tau) == expected, tau

    def test_controlled_node_is_bad_immediately(self, params):
        probe = Theorem5Probe(params, make_clocks(params.n))
        bus = EventBus()
        bus.subscribe(probe.on_event)
        bus.publish("adv.break_in", node=1, strategy="silent")
        assert 1 not in probe.good_set(100.0)


class TestDeviationProbe:
    def test_clean_clocks_never_fire(self, params):
        probe = Theorem5Probe(params, make_clocks(params.n))
        for i in range(50):
            probe.on_sample(i * 0.1)
        assert probe.ok and probe.violations == []

    def test_fires_once_and_rearms(self, params):
        clocks = make_clocks(params.n)
        probe = Theorem5Probe(params, clocks)
        probe.on_sample(0.0)
        # Push node 0 far from the rest, hold, then bring it back.
        clocks[0].adjust(0.5, 1.0)
        probe.on_sample(1.0)
        probe.on_sample(2.0)
        clocks[0].adjust(2.5, -1.0)
        probe.on_sample(3.0)
        clocks[0].adjust(3.5, 1.0)
        probe.on_sample(4.0)
        deviations = [v for v in probe.violations if v.probe == "deviation"]
        # Edge-triggered: one alert per excursion, not per sample.
        assert len(deviations) == 2
        assert deviations[0].time == 1.0
        assert deviations[0].node is None
        assert deviations[0].measured == pytest.approx(1.0, rel=1e-6)

    def test_warmup_suppresses_checks(self, params):
        clocks = make_clocks(params.n)
        probe = Theorem5Probe(params, clocks, warmup=5.0)
        clocks[0].adjust(0.1, 1.0)
        probe.on_sample(1.0)
        assert probe.ok
        probe.on_sample(6.0)
        assert not probe.ok


class TestAccuracyProbes:
    def test_discontinuity_fires_on_oversized_correction(self, params):
        clocks = make_clocks(params.n)
        probe = Theorem5Probe(params, clocks)
        probe.on_sample(0.0)
        big = 10 * probe.discontinuity_bound
        clocks[1].adjust(0.5, big)
        probe.on_sample(1.0)
        kinds = {v.probe for v in probe.violations}
        assert "discontinuity" in kinds
        discontinuity = next(v for v in probe.violations
                             if v.probe == "discontinuity")
        assert discontinuity.node == 1
        assert discontinuity.measured == pytest.approx(big)

    def test_small_corrections_stay_within_envelope(self, params):
        clocks = make_clocks(params.n)
        probe = Theorem5Probe(params, clocks)
        probe.on_sample(0.0)
        clocks[2].adjust(0.5, probe.discontinuity_bound * 0.5)
        probe.on_sample(1.0)
        assert probe.ok

    def test_drift_fires_on_silent_jump(self, params):
        """A bias change with no recorded adjustment breaks the envelope."""
        clocks = make_clocks(params.n)
        probe = Theorem5Probe(params, clocks)
        probe.on_sample(0.0)
        clocks[3].adj += 0.5  # hijack without an adjustment record
        probe.on_sample(1.0)
        assert [v.probe for v in probe.violations
                if v.node == 3] == ["drift"]

    def test_node_rejoining_good_set_needs_fresh_anchor(self, params):
        """No envelope check on the first good sample after a break-in."""
        clocks = make_clocks(params.n)
        probe = Theorem5Probe(params, clocks)
        bus = EventBus(clock=lambda: 0.5)
        bus.subscribe(probe.on_event)
        probe.on_sample(0.0)
        bus.publish("adv.break_in", node=0, strategy="random-clock")
        clocks[0].adj += 100.0  # adversary scrambles the clock
        bus.publish("adv.release", node=0, strategy="random-clock")
        # After release + PI the node is good again; its first good
        # sample only anchors the envelope, so the scramble while bad
        # cannot be (mis)attributed to drift.
        tau = 0.5 + params.pi + 1.0
        probe.on_sample(tau)
        assert all(v.node != 0 for v in probe.violations)


class TestEndToEnd:
    def test_default_adversarial_run_is_clean(self):
        recorder = FlightRecorder()
        run(mobile_byzantine_scenario(duration=20.0, seed=1),
            recorder=recorder)
        assert recorder.violations == []

    def test_scripted_break_in_fires_before_run_end(self):
        """An over-powerful adversary (f-limit bypassed) trips the probes
        mid-run, before the post-hoc verdict would see anything."""
        params = default_params(n=4, f=1, pi=2.0)

        def plan(scenario, clocks):
            return single_burst_plan(
                nodes=[2, 3], start=5.0, dwell=8.0,
                strategy_factory=lambda node, ep: LiarStrategy(offset=500.0))

        scenario = benign_scenario(params, duration=20.0, seed=3)
        scenario = dataclasses.replace(scenario, plan_builder=plan,
                                       enforce_f_limit=False,
                                       name="scripted-break-in")
        recorder = FlightRecorder()
        run(scenario, recorder=recorder)
        assert not recorder.probe.ok
        first = recorder.probe.violations[0]
        assert first.probe == "deviation"
        assert 5.0 <= first.time < scenario.duration
        # The stream carries the violations for offline analysis.
        replayed = violations_from_events(recorder.events)
        assert [v.probe for v in replayed] \
            == [v.probe for v in recorder.violations]
        assert replayed[0].time == first.time
