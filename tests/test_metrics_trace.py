"""The run's history on :class:`~repro.runner.experiment.RunResult`.

Sync executions (``syncs``), delivered messages (``messages``, only
under ``record_messages``) and the adversary's break-ins and releases
(``adv.*`` bus events) are each kept in one place.
"""

from __future__ import annotations

from repro.runner.builders import (
    benign_scenario,
    default_params,
    mobile_byzantine_scenario,
    recovery_scenario,
)
from repro.runner.experiment import run


def test_messages_recorded_only_when_enabled():
    params = default_params(n=4, f=1)
    off = run(benign_scenario(params, duration=2.0, seed=1))
    assert off.messages == []
    on = run(benign_scenario(params, duration=2.0, seed=1,
                             record_messages=True))
    assert len(on.messages) == on.messages_delivered
    assert {m.kind for m in on.messages} == {"Ping", "Pong"}


def test_sync_records_accumulate():
    """``syncs`` is every process's ``sync_records``, merged in time
    order: the same records, none lost or doubled."""
    result = run(mobile_byzantine_scenario(default_params(n=4, f=1),
                                           duration=8.0, seed=4))
    per_node = [record for process in result.processes.values()
                for record in process.sync_records]
    assert len(result.syncs) == len(per_node) > 0
    assert sorted(map(id, result.syncs)) == sorted(map(id, per_node))


def test_discarded_own_clock_filter():
    """The WayOff branch fires for the scrambled victim after release."""
    params = default_params(n=4, f=1)
    result = run(recovery_scenario(params, duration=8.0, seed=4))
    discards = [r for r in result.syncs if r.own_discarded]
    assert [r.node_id for r in discards] == [0]
    assert discards[0].real_time > result.corruptions[0].end


def test_corruption_actions_recorded():
    from repro.obs import FlightRecorder

    recorder = FlightRecorder()
    result = run(recovery_scenario(default_params(n=4, f=1), duration=8.0,
                                   seed=4), recorder=recorder)
    actions = [(e.kind, e.node, e.time) for e in recorder.events
               if e.kind.startswith("adv.")]
    (interval,) = result.corruptions
    assert actions == [("adv.break_in", interval.node, interval.start),
                       ("adv.release", interval.node, interval.end)]


def test_live_run_syncs_are_time_ordered():
    params = default_params(n=4, f=1)
    result = run(mobile_byzantine_scenario(params, duration=8.0, seed=4))
    assert [r.real_time for r in result.syncs] \
        == sorted(r.real_time for r in result.syncs)
