"""Unit tests for the simulator's event heap: order, cancellation, counts.

The engine has one pop path, :meth:`Simulator.run` (``step`` is
``run(max_events=1)``), so every case drives it.
"""

from __future__ import annotations


def test_pop_returns_events_in_time_order(sim):
    fired = []
    sim.schedule_at(3.0, lambda: fired.append("c"))
    sim.schedule_at(1.0, lambda: fired.append("a"))
    sim.schedule_at(2.0, lambda: fired.append("b"))
    assert sim.run() == 3
    assert fired == ["a", "b", "c"]


def test_ties_broken_by_insertion_order(sim):
    fired = []
    for label in ("first", "second", "third"):
        sim.schedule_at(5.0, lambda lab=label: fired.append(lab))
    sim.run()
    assert fired == ["first", "second", "third"]


def test_cancelled_events_are_skipped(sim):
    fired = []
    keep = sim.schedule_at(1.0, lambda: fired.append("keep"))
    drop = sim.schedule_at(0.5, lambda: fired.append("drop"))
    sim.cancel(drop)
    assert sim.step() is True
    assert fired == ["keep"]
    assert keep.fired and not drop.fired


def test_cancel_is_idempotent(sim):
    event = sim.schedule_at(1.0, lambda: None)
    sim.cancel(event)
    sim.cancel(event)
    assert sim.pending_events == 0


def test_len_counts_live_events_only(sim):
    e1 = sim.schedule_at(1.0, lambda: None)
    sim.schedule_at(2.0, lambda: None)
    assert sim.pending_events == 2
    sim.cancel(e1)
    assert sim.pending_events == 1


def test_peek_time_skips_cancelled(sim):
    """A cancelled head does not hold a bounded run back, nor fire."""
    early = sim.schedule_at(1.0, lambda: None)
    seen = []
    sim.schedule_at(2.0, lambda: seen.append(sim.now))
    sim.cancel(early)
    assert sim.run(until=1.5) == 0 and sim.now == 1.5
    assert sim.run(until=2.0) == 1 and seen == [2.0]


def test_run_on_empty_heap_executes_nothing(sim):
    assert sim.run() == 0
    assert sim.now == 0.0


def test_step_on_empty_heap_returns_false(sim):
    assert sim.step() is False
    assert sim.events_processed == 0


def test_step_with_only_cancelled_events_returns_false(sim):
    event = sim.schedule_at(1.0, lambda: None)
    sim.cancel(event)
    assert sim.step() is False
    assert sim.now == 0.0


def test_bool_reflects_liveness(sim):
    assert not sim.pending_events
    event = sim.schedule_at(1.0, lambda: None)
    assert sim.pending_events
    sim.cancel(event)
    assert not sim.pending_events


def test_event_tags_preserved(sim):
    event = sim.schedule_at(1.0, lambda: None, tag="hello")
    assert event.tag == "hello"


def test_handle_cancel_keeps_len_honest(sim):
    """Cancelling via the Event handle (not Simulator.cancel) must update
    the live count — the SyncProcess deadline-cancel path."""
    handle = sim.schedule_at(1.0, lambda: None)
    sim.schedule_at(2.0, lambda: None)
    handle.cancel()
    assert sim.pending_events == 1
    assert sim.step() is True and sim.now == 2.0
    assert sim.pending_events == 0


def test_handle_cancel_is_idempotent(sim):
    event = sim.schedule_at(1.0, lambda: None)
    event.cancel()
    event.cancel()
    sim.cancel(event)
    assert sim.pending_events == 0


def test_cancel_after_fire_is_noop(sim):
    """Cancelling a handle that already fired must not corrupt the count."""
    first = sim.schedule_at(1.0, lambda: None)
    sim.schedule_at(2.0, lambda: None)
    assert sim.step() is True
    assert first.fired
    sim.cancel(first)
    first.cancel()
    assert not first.cancelled
    assert sim.pending_events == 1
    assert sim.step() is True and sim.now == 2.0


def test_len_across_push_pop_cancel_sequences(sim):
    a = sim.schedule_at(1.0, lambda: None)
    b = sim.schedule_at(2.0, lambda: None)
    c = sim.schedule_at(3.0, lambda: None)
    assert sim.pending_events == 3
    b.cancel()                       # handle-cancel
    assert sim.pending_events == 2
    b.cancel()                       # double-cancel: no-op
    assert sim.pending_events == 2
    assert sim.step() is True and a.fired
    assert sim.pending_events == 1
    a.cancel()                       # cancel-after-fire: no-op
    sim.cancel(a)
    assert sim.pending_events == 1
    sim.cancel(c)                    # simulator-cancel
    assert sim.pending_events == 0
    c.cancel()                       # double-cancel across both routes
    assert sim.pending_events == 0
    assert sim.step() is False


def test_pop_due_respects_bound(sim):
    fired = []
    sim.schedule_at(1.0, lambda: fired.append("early"))
    sim.schedule_at(5.0, lambda: fired.append("late"))
    assert sim.run(until=2.0) == 1
    assert sim.run(until=2.0) == 0
    assert sim.pending_events == 1  # the bounded miss must not consume it
    assert sim.run() == 1
    assert fired == ["early", "late"]


def test_pop_due_skips_cancelled(sim):
    fired = []
    early = sim.schedule_at(1.0, lambda: fired.append("early"))
    sim.schedule_at(2.0, lambda: fired.append("keep"))
    early.cancel()
    assert sim.run(until=10.0) == 1
    assert fired == ["keep"]


def test_queue_perf_counters(sim):
    events = [sim.schedule_at(float(i), lambda: None) for i in range(4)]
    perf = sim.perf_counters()
    assert perf.events_pushed == 4
    assert perf.heap_high_water == 4
    events[0].cancel()
    sim.step()
    perf = sim.perf_counters()
    assert perf.events_cancelled == 1
    assert perf.events_processed == 1
    assert perf.pending_events == 2


def test_interleaved_push_pop_keeps_order(sim):
    fired = []
    sim.schedule_at(10.0, lambda: fired.append("late"))
    sim.step()
    sim.schedule_at(15.0, lambda: fired.append("mid"))
    sim.schedule_at(12.0, lambda: fired.append("early"))
    sim.run()
    assert fired == ["late", "early", "mid"]
