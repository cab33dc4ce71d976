"""Unit tests for the simulation engine."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator


def test_schedule_and_run_advances_time(sim):
    fired = []
    sim.schedule(2.5, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [2.5]
    assert sim.now == 2.5


def test_schedule_at_absolute_time(sim):
    fired = []
    sim.schedule_at(4.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [4.0]


def test_negative_delay_rejected(sim):
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_at_past_rejected(sim):
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_run_until_stops_before_later_events(sim):
    fired = []
    sim.schedule(1.0, lambda: fired.append(1.0))
    sim.schedule(5.0, lambda: fired.append(5.0))
    sim.run(until=2.0)
    assert fired == [1.0]
    assert sim.now == 2.0  # clock advanced to the horizon


def test_run_until_then_resume(sim):
    fired = []
    sim.schedule(1.0, lambda: fired.append(1.0))
    sim.schedule(5.0, lambda: fired.append(5.0))
    sim.run(until=2.0)
    sim.run()
    assert fired == [1.0, 5.0]


def test_events_scheduled_during_run_are_executed(sim):
    fired = []

    def chain():
        fired.append(sim.now)
        if len(fired) < 3:
            sim.schedule(1.0, chain)

    sim.schedule(1.0, chain)
    sim.run()
    assert fired == [1.0, 2.0, 3.0]


def test_max_events_limit(sim):
    for i in range(10):
        sim.schedule(float(i + 1), lambda: None)
    executed = sim.run(max_events=4)
    assert executed == 4
    assert sim.pending_events == 6


def test_stop_terminates_run(sim):
    fired = []
    sim.schedule(1.0, lambda: (fired.append(1), sim.stop()))
    sim.schedule(2.0, lambda: fired.append(2))
    sim.run()
    assert fired == [1]
    assert sim.pending_events == 1


def test_cancel_scheduled_event(sim):
    fired = []
    handle = sim.schedule(1.0, lambda: fired.append(1))
    sim.cancel(handle)
    sim.run()
    assert fired == []


def test_step_executes_one_event(sim):
    fired = []
    sim.schedule(1.0, lambda: fired.append("a"))
    sim.schedule(2.0, lambda: fired.append("b"))
    assert sim.step() is True
    assert fired == ["a"]
    assert sim.step() is True
    assert sim.step() is False


def test_events_processed_counter(sim):
    for i in range(5):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.events_processed == 5


def test_run_is_not_reentrant(sim):
    def reenter():
        sim.run()

    sim.schedule(1.0, reenter)
    with pytest.raises(SimulationError):
        sim.run()


def test_step_drain_after_handle_cancel(sim):
    """Handle-cancelling a scheduled event then draining with step() must
    not raise: the live count stays honest (seed code overcounted and
    step() hit SimulationError('pop() from an empty event queue'))."""
    handle = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    handle.cancel()
    while sim.step():
        pass
    assert sim.pending_events == 0


def test_run_until_with_max_events_no_time_jump(sim):
    """max_events exit must leave ``now`` at the last executed event, not
    jump to the ``until`` horizon past still-pending events."""
    fired = []
    for t in (1.0, 2.0, 3.0):
        sim.schedule(t, lambda t=t: fired.append(t))
    sim.run(until=10.0, max_events=1)
    assert fired == [1.0]
    assert sim.now == 1.0
    # Resume: the remaining events run at their own times, monotonically.
    executed = sim.run(until=10.0)
    assert executed == 2
    assert fired == [1.0, 2.0, 3.0]
    assert sim.now == 10.0  # horizon reached only after the real drain


def test_stop_with_until_leaves_now_at_last_event(sim):
    sim.schedule(1.0, sim.stop)
    sim.schedule(5.0, lambda: None)
    sim.run(until=10.0)
    assert sim.now == 1.0
    sim.run(until=10.0)
    assert sim.now == 10.0


def test_resumed_run_never_regresses_time(sim):
    """Observed event times must be non-decreasing across run() calls."""
    seen = []
    for t in (1.0, 2.0, 3.0, 4.0):
        sim.schedule(t, lambda: seen.append(sim.now))
    sim.run(until=8.0, max_events=2)
    sim.run(until=8.0)
    assert seen == sorted(seen) == [1.0, 2.0, 3.0, 4.0]


def test_run_until_empty_queue_advances_to_horizon(sim):
    sim.run(until=3.0)
    assert sim.now == 3.0


def test_cancel_via_handle_matches_queue_cancel(sim):
    fired = []
    handle = sim.schedule(1.0, lambda: fired.append(1))
    handle.cancel()
    sim.cancel(handle)  # double-cancel across both routes: no-op
    sim.run()
    assert fired == []
    assert sim.pending_events == 0


def test_perf_counters_surface(sim):
    for i in range(5):
        sim.schedule(float(i + 1), lambda: None)
    victim = sim.schedule(6.0, lambda: None)
    victim.cancel()
    sim.run()
    perf = sim.perf_counters()
    assert perf.events_processed == 5
    assert perf.events_pushed == 6
    assert perf.events_cancelled == 1
    assert perf.cancelled_ratio == pytest.approx(1 / 6)
    assert perf.heap_high_water == 6
    assert perf.pending_events == 0
    assert perf.run_wall_time > 0.0
    assert perf.events_per_second > 0.0


def test_perf_counters_before_any_run(sim):
    perf = sim.perf_counters()
    assert perf.events_processed == 0
    assert perf.cancelled_ratio == 0.0
    assert perf.events_per_second == 0.0



# -- the asyncio loop surface (time/call_at) the rt path runs on --------


def test_call_at_in_the_past_fires_at_now(sim):
    sim.run(until=1.0)
    fired = []
    sim.call_at(0.2, lambda: fired.append(sim.now))
    with pytest.raises(SimulationError):
        sim.schedule_at(0.2, lambda: None)
    sim.run(until=1.5)
    assert fired == [1.0]  # past-due calls fire "now", never rewind
    assert sim.now == 1.5


def test_call_at_and_schedule_at_ties_run_in_insertion_order(sim):
    order = []
    sim.call_at(0.5, lambda: order.append("call_at"))
    sim.schedule_at(0.5, lambda: order.append("schedule_at"))
    sim.call_at(0.5, lambda: order.append("call_at again"))
    sim.run()
    assert order == ["call_at", "schedule_at", "call_at again"]


def test_time_starts_at_zero(sim):
    assert sim.time() == 0.0 == sim.now


def test_time_is_now_inside_a_callback(sim):
    seen = []
    sim.call_at(0.75, lambda: seen.append((sim.time(), sim.now)))
    sim.run(until=1.0)
    assert seen == [(0.75, 0.75)]
    assert sim.time() == 1.0


def test_cancelled_call_at_does_not_run(sim):
    fired = []
    keep = sim.call_at(1.0, lambda: fired.append("keep"))
    drop = sim.call_at(2.0, lambda: fired.append("drop"))
    drop.cancel()
    assert drop.cancelled and not keep.cancelled
    assert sim.run(until=3.0) == 1
    assert fired == ["keep"]


def test_pending_events_counts_live_call_at(sim):
    keep = sim.call_at(1.0, lambda: None)
    drop = sim.call_at(2.0, lambda: None)
    drop.cancel()
    assert sim.pending_events == 1
    assert keep.time == 1.0
    sim.run(until=3.0)
    assert sim.pending_events == 0

def test_determinism_same_seed_same_stream():
    a = Simulator(seed=42)
    b = Simulator(seed=42)
    sa = a.rngs.stream("x")
    sb = b.rngs.stream("x")
    assert [sa.random() for _ in range(5)] == [sb.random() for _ in range(5)]


def test_different_streams_are_independent():
    sim = Simulator(seed=42)
    first = [sim.rngs.stream("a").random() for _ in range(3)]
    second = [sim.rngs.stream("b").random() for _ in range(3)]
    assert first != second


# ----------------------------------------------------------------------
# Mixed heap entries: cancellable events beside posted deliveries
# ----------------------------------------------------------------------


def test_delivery_and_timer_at_one_time_fire_in_push_order(sim):
    fired = []
    sim.schedule_at(1.0, lambda: fired.append("timer-1"))
    sim.post(1.0, fired.append, "delivery")
    sim.schedule_at(1.0, lambda: fired.append("timer-2"))
    sim.post(1.0, fired.append, "delivery-2")
    assert sim.run() == 4
    assert fired == ["timer-1", "delivery", "timer-2", "delivery-2"]


def test_cancelled_timer_at_the_head_yields_to_a_delivery(sim):
    fired = []
    timer = sim.schedule_at(0.5, lambda: fired.append("timer"))
    sim.post(1.0, fired.append, "delivery")
    timer.cancel()
    assert sim.step() is True
    assert fired == ["delivery"] and sim.now == 1.0
    assert sim.pending_events == 0
    assert sim.step() is False


def test_delivery_exactly_at_the_horizon_fires(sim):
    fired = []
    sim.post(2.0, fired.append, "at")
    sim.post(2.5, fired.append, "after")
    assert sim.run(until=2.0) == 1
    assert fired == ["at"] and sim.now == 2.0
    assert sim.pending_events == 1


def test_stop_from_inside_a_delivery(sim):
    fired = []
    sim.post(1.0, lambda _: sim.stop(), None)
    sim.post(2.0, fired.append, "later")
    assert sim.run(until=5.0) == 1
    assert sim.now == 1.0 and fired == []
    assert sim.run() == 1 and fired == ["later"]


def test_max_events_counts_deliveries_posted_from_deliveries(sim):
    hops = []

    def relay(hop: int) -> None:
        hops.append(hop)
        sim.post(sim.now + 1.0, relay, hop + 1)

    sim.post(0.5, relay, 0)
    assert sim.run(max_events=3) == 3
    assert hops == [0, 1, 2] and sim.now == 2.5
    assert sim.pending_events == 1


def test_perf_counters_count_deliveries(sim):
    timers = [sim.schedule_at(float(i), lambda: None) for i in (1, 2)]
    for t in (1.5, 2.5, 3.5):
        sim.post(t, lambda _: None, None)
    timers[0].cancel()
    perf = sim.perf_counters()
    assert perf.events_pushed == 5
    assert perf.pending_events == sim.pending_events == 4
    assert perf.events_cancelled == 1
    assert perf.cancelled_ratio == pytest.approx(0.2)
    assert perf.heap_high_water == 5
    assert sim.run() == 4
    perf = sim.perf_counters()
    assert perf.events_processed == 4 and perf.pending_events == 0


def test_a_scenario_run_builds_no_event_per_message(monkeypatch):
    """Timers, samples and adversary moves are cancellable ``Event``s;
    every message delivery is a posted heap entry with no ``Event``."""
    from repro.runner.builders import default_params, mobile_byzantine_scenario
    from repro.runner.experiment import run
    from repro.runtime.messages import Message
    from repro.sim.events import Event

    tags, posted = [], []
    init, post = Event.__init__, Simulator.post

    def counting_init(self, time, seq, callback, tag, owner):
        tags.append(tag)
        init(self, time, seq, callback, tag, owner)

    def counting_post(self, time, fn, arg):
        if fn is not None:  # None marks a cancellable Event's entry
            posted.append(arg)
        post(self, time, fn, arg)

    monkeypatch.setattr(Event, "__init__", counting_init)
    monkeypatch.setattr(Simulator, "post", counting_post)
    result = run(mobile_byzantine_scenario(default_params(n=4, f=1),
                                           duration=12.0, seed=5))
    assert result.messages_delivered > len(tags) / 2
    assert len(posted) >= result.messages_delivered
    assert all(type(message) is Message for message in posted)
    assert len(tags) + len(posted) == result.perf.events_pushed
    assert not any(tag.startswith("deliver") for tag in tags)
    assert {tag.rpartition(":")[2] for tag in tags if tag.startswith("n")} >= {
        "sync-alarm", "sync-deadline"}
    assert "sample" in tags
    assert any(tag.startswith("break-in:") for tag in tags)
