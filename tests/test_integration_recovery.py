"""Integration tests: the recovery requirement and Claim 8(iii).

A processor the adversary leaves must rejoin the good set within a
bounded time, with its distance to the good range (at least) halving
per analysis interval — with *no* fault or recovery detection anywhere.
"""

from __future__ import annotations

import math

import pytest

from repro.adversary.mobile import PlannedCorruption, single_burst_plan
from repro.adversary.strategies import (
    NearBoundaryResetStrategy,
    RandomClockStrategy,
    SilentStrategy,
)
from repro.core.analysis import halving_holds, recovery_trajectory
from repro.runner.builders import (
    default_params,
    mobile_byzantine_scenario,
    recovery_scenario,
    warmup_for,
)
from repro.runner.experiment import run


def fast_params(n=4, f=1):
    return default_params(n=n, f=f)


class TestBasicRecovery:
    def test_way_off_victim_recovers(self):
        params = fast_params()
        result = run(recovery_scenario(params, duration=8.0, seed=1))
        report = result.recovery()
        assert report.events
        assert report.all_recovered

    def test_recovery_within_theoretical_intervals(self):
        """Claim 8 predicts rejoin within ~log2(WayOff / C) intervals of
        T; allow a small constant factor for measurement granularity."""
        params = fast_params()
        result = run(recovery_scenario(params, duration=8.0, seed=1))
        report = result.recovery()
        bound_intervals = params.bounds().recovery_intervals
        limit = (bound_intervals + 2) * params.t_interval
        assert report.max_recovery_time <= limit

    def test_recovery_faster_than_pi(self):
        """The design goal: recovered before the adversary can strike
        the next group (recovery time < PI)."""
        params = fast_params()
        result = run(recovery_scenario(params, duration=8.0, seed=2))
        assert result.recovery().max_recovery_time < params.pi

    def test_both_directions_recover(self):
        """Victims displaced up AND down both return."""
        params = default_params(n=7, f=2)
        result = run(recovery_scenario(params, duration=10.0, seed=3,
                                       victims=[0, 1]))
        report = result.recovery()
        assert len(report.events) == 2
        assert report.all_recovered


class TestNearBoundaryRecovery:
    """The hard case the paper calls out: a clock left 'just a bit'
    outside the permitted range, where detection-based schemes fail."""

    @pytest.mark.parametrize("factor", [0.9, 1.01, 1.5])
    def test_recovers_from_near_boundary(self, factor):
        params = fast_params()
        result = run(recovery_scenario(params, duration=8.0, seed=4,
                                       displacement=factor * params.way_off))
        assert result.recovery().all_recovered


class TestGeometricConvergence:
    def test_distance_halves_per_interval(self):
        """Lemma 7(iii): per interval T, the victim's distance to the
        good range at least halves (plus the bound's residue)."""
        params = fast_params()
        displacement = 8.0 * params.way_off
        result = run(recovery_scenario(params, duration=10.0, seed=5,
                                       displacement=displacement))
        event = result.recovery().events[0]
        trajectory = recovery_trajectory(result.samples, result.corruptions,
                                         params, event.node, event.released_at,
                                         intervals=10)
        assert trajectory[0].distance > 0
        assert halving_holds(trajectory, slack=params.bounds().max_deviation)

    def test_far_clock_eventually_within_deviation(self):
        params = fast_params()
        result = run(recovery_scenario(params, duration=10.0, seed=6,
                                       displacement=50.0 * params.way_off))
        event = result.recovery().events[0]
        trajectory = recovery_trajectory(result.samples, result.corruptions,
                                         params, event.node, event.released_at)
        assert trajectory[-1].distance <= params.bounds().max_deviation


class TestUnboundedTotalFaults:
    def test_every_node_corrupted_repeatedly_system_survives(self):
        """The headline property: over a long run the adversary corrupts
        every processor (some more than once) and the good set still
        meets Theorem 5(i) throughout."""
        params = fast_params()
        result = run(mobile_byzantine_scenario(params, duration=30.0, seed=7))
        corrupted_nodes = {c.node for c in result.corruptions}
        assert corrupted_nodes == set(range(params.n))
        assert len(result.corruptions) > params.n  # re-corruption happened
        assert result.max_deviation(warmup_for(params)) <= params.bounds().max_deviation

    def test_all_released_nodes_recover(self):
        params = fast_params()
        result = run(mobile_byzantine_scenario(params, duration=30.0, seed=8))
        report = result.recovery()
        assert report.events
        assert report.all_recovered


class TestSilentFaultRecovery:
    def test_crashed_node_rejoins_seamlessly(self):
        """A silent (napping) fault leaves the clock intact; rejoining
        costs nothing. Checks the protocol doesn't punish absence."""
        params = fast_params()

        def plan(scenario, clocks):
            return single_burst_plan([0], start=1.0, dwell=1.0,
                                     strategy_factory=lambda n, e: SilentStrategy())

        scenario = recovery_scenario(params, duration=6.0, seed=9)
        scenario.plan_builder = plan
        result = run(scenario)
        report = result.recovery()
        assert report.all_recovered
        assert report.max_recovery_time <= params.t_interval


class TestNoRecoveryDetectionNeeded:
    def test_victim_receives_no_signal(self):
        """Structural check: recovery happens although no message or
        flag ever tells the victim it was corrupted — the only inputs
        are ordinary pongs."""
        params = fast_params()
        result = run(recovery_scenario(params, duration=8.0, seed=10,
                                       record_messages=True))
        kinds = {m.kind for m in result.messages}
        assert kinds <= {"Ping", "Pong"}
        assert result.recovery().all_recovered
