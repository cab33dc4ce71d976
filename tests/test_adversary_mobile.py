"""Unit tests for the mobile adversary: plans, audit, seize/release."""

from __future__ import annotations

import math

import pytest

from repro.adversary.base import ByzantineStrategy
from repro.adversary.mobile import (
    MobileAdversary,
    PlannedCorruption,
    audit_f_limited,
    rotating_plan,
    round_robin_plan,
    single_burst_plan,
)
from repro.adversary.strategies import SilentStrategy
from repro.clocks.hardware import FixedRateClock
from repro.clocks.logical import LogicalClock
from repro.errors import AdversaryError
from repro.net.links import FixedDelay
from repro.net.network import Network
from repro.net.topology import full_mesh
from repro.obs.bus import EventBus
from repro.runtime.process import Process
from repro.sim.runtime import SimRuntime


def corruption(node, start, end):
    return PlannedCorruption(node=node, start=start, end=end, strategy=SilentStrategy())


class TestAudit:
    def test_empty_plan_passes(self):
        audit_f_limited([], f=1, pi=1.0)

    def test_single_corruption_passes(self):
        audit_f_limited([corruption(0, 0.0, 5.0)], f=1, pi=1.0)

    def test_simultaneous_f_passes(self):
        plan = [corruption(0, 0.0, 5.0), corruption(1, 0.0, 5.0)]
        audit_f_limited(plan, f=2, pi=1.0)

    def test_simultaneous_f_plus_one_fails(self):
        plan = [corruption(i, 0.0, 5.0) for i in range(3)]
        with pytest.raises(AdversaryError, match="not 2-limited"):
            audit_f_limited(plan, f=2, pi=1.0)

    def test_hop_without_pi_gap_fails(self):
        """Leaving node 0 and immediately corrupting node 1: a window
        covering the boundary sees both."""
        plan = [corruption(0, 0.0, 1.0), corruption(1, 1.5, 2.5)]
        with pytest.raises(AdversaryError):
            audit_f_limited(plan, f=1, pi=1.0)

    def test_hop_with_pi_gap_passes(self):
        plan = [corruption(0, 0.0, 1.0), corruption(1, 2.01, 3.0)]
        audit_f_limited(plan, f=1, pi=1.0)

    def test_touching_windows_count_conservatively(self):
        """Exactly PI separation is borderline; the closed-interval
        reading rejects it."""
        plan = [corruption(0, 0.0, 1.0), corruption(1, 2.0, 3.0)]
        with pytest.raises(AdversaryError):
            audit_f_limited(plan, f=1, pi=1.0)

    def test_same_node_counted_once(self):
        """Re-corrupting the same node does not double-count."""
        plan = [corruption(0, 0.0, 1.0), corruption(0, 1.2, 2.0)]
        audit_f_limited(plan, f=1, pi=1.0)

    def test_unbounded_total_faults_allowed(self):
        """The whole point: dozens of corruptions over time are fine as
        long as each PI window sees at most f."""
        plan = []
        t = 0.0
        for i in range(50):
            plan.append(corruption(i % 5, t, t + 0.5))
            t += 0.5 + 1.0 + 0.01
        audit_f_limited(plan, f=1, pi=1.0)

    def test_bad_pi_rejected(self):
        with pytest.raises(AdversaryError):
            audit_f_limited([], f=1, pi=0.0)

    def test_empty_interval_rejected(self):
        with pytest.raises(AdversaryError):
            corruption(0, 1.0, 1.0)


class TestPlanGenerators:
    def test_rotating_plan_is_f_limited(self):
        plan = rotating_plan(n=7, f=2, pi=1.0, duration=30.0,
                             strategy_factory=lambda n, e: SilentStrategy())
        audit_f_limited(plan, f=2, pi=1.0)

    def test_rotating_plan_covers_all_nodes(self):
        plan = rotating_plan(n=7, f=2, pi=1.0, duration=30.0,
                             strategy_factory=lambda n, e: SilentStrategy())
        assert {c.node for c in plan} == set(range(7))

    def test_rotating_plan_episode_size(self):
        plan = rotating_plan(n=7, f=3, pi=1.0, duration=5.0,
                             strategy_factory=lambda n, e: SilentStrategy())
        starts = sorted({c.start for c in plan})
        for s in starts:
            assert sum(1 for c in plan if c.start == s) == 3

    def test_round_robin_is_1_limited(self):
        plan = round_robin_plan(n=4, pi=1.0, duration=20.0,
                                strategy_factory=lambda n, e: SilentStrategy())
        audit_f_limited(plan, f=1, pi=1.0)
        assert all(
            len({c.node for c in plan if c.start == s}) == 1
            for s in {c.start for c in plan}
        )

    def test_single_burst(self):
        plan = single_burst_plan([1, 3], start=2.0, dwell=0.5,
                                 strategy_factory=lambda n, e: SilentStrategy())
        assert [(c.node, c.start, c.end) for c in plan] == [(1, 2.0, 2.5), (3, 2.0, 2.5)]

    def test_rotating_plan_rejects_bad_dwell(self):
        with pytest.raises(AdversaryError):
            rotating_plan(n=4, f=1, pi=1.0, duration=5.0,
                          strategy_factory=lambda n, e: SilentStrategy(), dwell=0.0)


class RecordingStrategy(ByzantineStrategy):
    name = "recording"

    def __init__(self):
        self.events = []

    def on_break_in(self, process, rng):
        self.events.append(("in", process.real_now()))

    def on_message(self, process, message, rng):
        self.events.append(("msg", message.payload))

    def on_leave(self, process, rng):
        self.events.append(("out", process.real_now()))


class Victim(Process):
    def __init__(self, node_id, sim, network):
        super().__init__(SimRuntime(node_id, sim, network,
                                    LogicalClock(FixedRateClock(rho=0.0))))
        self.inbox = []

    def on_message(self, message):
        self.inbox.append(message.payload)


class TestMobileAdversaryExecution:
    def build(self, sim, n=3):
        network = Network(sim, full_mesh(n), FixedDelay(delta=0.01, value=0.004))
        victims = [Victim(i, sim, network) for i in range(n)]
        for v in victims:
            network.bind(v)
        return network, victims

    def test_break_in_and_release_lifecycle(self, sim):
        network, victims = self.build(sim)
        strategy = RecordingStrategy()
        plan = [PlannedCorruption(node=1, start=1.0, end=2.0, strategy=strategy)]
        MobileAdversary(sim, network, plan, f=1, pi=0.5).install()
        sim.schedule(1.5, lambda: network.send(0, 1, "to-adversary"))
        sim.schedule(2.5, lambda: network.send(0, 1, "to-recovered"))
        sim.run()
        assert strategy.events == [("in", 1.0), ("msg", "to-adversary"), ("out", 2.0)]
        assert victims[1].inbox == ["to-recovered"]

    def test_audit_enforced_at_construction(self, sim):
        network, _ = self.build(sim)
        plan = [corruption(0, 0.0, 1.0), corruption(1, 0.0, 1.0)]
        with pytest.raises(AdversaryError):
            MobileAdversary(sim, network, plan, f=1, pi=0.5)

    def test_enforce_false_bypasses_audit(self, sim):
        network, _ = self.build(sim)
        plan = [corruption(0, 0.0, 1.0), corruption(1, 0.0, 1.0)]
        MobileAdversary(sim, network, plan, f=1, pi=0.5, enforce=False)

    def test_trace_records_actions(self, sim):
        """Break-ins and releases are published on the bus, stamped with
        the simulator time, naming the strategy."""
        network, _ = self.build(sim)
        bus = EventBus(clock=lambda: sim.now)
        events = []
        bus.subscribe(events.append)
        plan = [PlannedCorruption(node=2, start=0.5, end=1.0, strategy=SilentStrategy())]
        adversary = MobileAdversary(sim, network, plan, f=1, pi=0.5)
        adversary.obs = bus
        adversary.install()
        sim.run()
        assert [(e.kind, e.node, e.time, e.data["strategy"]) for e in events] == [
            ("adv.break_in", 2, 0.5, "silent"), ("adv.release", 2, 1.0, "silent")]

    def test_never_released_corruption(self, sim):
        network, victims = self.build(sim)
        plan = [PlannedCorruption(node=0, start=0.5, end=math.inf,
                                  strategy=SilentStrategy())]
        adversary = MobileAdversary(sim, network, plan, f=1, pi=0.5)
        adversary.install()
        sim.schedule(1.0, lambda: network.send(1, 0, "x"))
        sim.run()
        assert victims[0].inbox == []
        assert victims[0].controlled

    def test_corruption_intervals_exported(self, sim):
        network, _ = self.build(sim)
        plan = [PlannedCorruption(node=1, start=0.1, end=0.9, strategy=SilentStrategy())]
        adversary = MobileAdversary(sim, network, plan, f=1, pi=0.5)
        intervals = adversary.corruption_intervals()
        assert len(intervals) == 1
        assert (intervals[0].node, intervals[0].start, intervals[0].end) == (1, 0.1, 0.9)
