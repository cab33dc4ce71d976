"""Unit tests for the trace recorder."""

from __future__ import annotations

from repro.core.sync import SyncRecord
from repro.metrics.trace import TraceRecorder


def sync_record(node=0, round_no=1, real_time=1.0, own_discarded=False):
    return SyncRecord(node_id=node, round_no=round_no, real_time=real_time,
                      local_before=real_time, correction=0.0, m=0.0, big_m=0.0,
                      own_discarded=own_discarded, replies=3)


def test_messages_recorded_only_when_enabled():
    from repro.runner.builders import benign_scenario, default_params
    from repro.runner.experiment import run

    params = default_params(n=4, f=1)
    off = run(benign_scenario(params, duration=2.0, seed=1))
    assert off.trace.messages == []
    on = run(benign_scenario(params, duration=2.0, seed=1,
                             record_messages=True))
    assert len(on.trace.messages) == on.messages_delivered
    assert {m.kind for m in on.trace.messages} == {"Ping", "Pong"}


def test_sync_records_accumulate():
    trace = TraceRecorder()
    trace.on_sync(sync_record(node=0, real_time=1.0))
    trace.on_sync(sync_record(node=1, real_time=2.0))
    assert len(trace.syncs) == 2


def test_discarded_own_clock_filter():
    trace = TraceRecorder()
    trace.on_sync(sync_record(own_discarded=False))
    trace.on_sync(sync_record(own_discarded=True))
    assert len(trace.discarded_own_clock()) == 1


def test_corruption_actions_recorded():
    trace = TraceRecorder()
    trace.on_corruption(3, 1.0, "break_in", "silent")
    trace.on_corruption(3, 2.0, "release", "silent")
    assert [(r.node, r.time, r.action, r.strategy) for r in trace.corruptions] == [
        (3, 1.0, "break_in", "silent"),
        (3, 2.0, "release", "silent"),
    ]


def test_live_run_syncs_are_time_ordered():
    from repro.runner.builders import default_params, mobile_byzantine_scenario
    from repro.runner.experiment import run

    params = default_params(n=4, f=1)
    result = run(mobile_byzantine_scenario(params, duration=8.0, seed=4))
    trace = result.trace
    assert [r.real_time for r in trace.syncs] \
        == sorted(r.real_time for r in trace.syncs)
