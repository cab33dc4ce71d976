"""Integration tests for the flight recorder and stream determinism."""

from __future__ import annotations

import json

import pytest

from repro.obs import FlightRecorder, ObsConfig, summarize_events
from repro.obs.bus import read_events_jsonl
from repro.runner.builders import benign_scenario, default_params, \
    mobile_byzantine_scenario
from repro.runner.experiment import run


def record_run(scenario, config=None):
    recorder = FlightRecorder(config)
    result = run(scenario, recorder=recorder)
    return recorder, result


class TestRecorderIntegration:
    def test_full_stack_on_adversarial_run(self):
        recorder, result = record_run(
            mobile_byzantine_scenario(duration=10.0, seed=1))
        kinds = {event.kind for event in recorder.events}
        assert {"run.start", "sync.begin", "est.ping", "est.pong",
                "sync.complete", "adv.break_in", "adv.release",
                "metrics.snapshot", "engine.run_end", "run.end"} <= kinds
        assert recorder.spans
        assert recorder.metrics.counter("syncs_completed", 0).value > 0
        assert result.obs is recorder

    def test_stream_brackets_run(self):
        recorder, _ = record_run(benign_scenario(duration=5.0, seed=2))
        assert recorder.events[0].kind == "run.start"
        assert recorder.events[-1].kind == "run.end"
        params = recorder.events[0].data
        assert params["n"] == 7 and "max_deviation_bound" in params

    def test_event_times_are_monotone(self):
        recorder, _ = record_run(benign_scenario(duration=5.0, seed=2))
        times = [event.time for event in recorder.events]
        assert times == sorted(times)
        seqs = [event.seq for event in recorder.events]
        assert seqs == list(range(len(seqs)))

    def test_recorder_does_not_perturb_the_run(self):
        """Observability is write-only: the simulation schedule, samples,
        and verdict are identical with and without a recorder."""
        scenario = mobile_byzantine_scenario(duration=10.0, seed=5)
        _, observed = record_run(mobile_byzantine_scenario(duration=10.0,
                                                           seed=5))
        plain = run(scenario)
        assert observed.events_processed == plain.events_processed
        assert observed.messages_delivered == plain.messages_delivered
        assert observed.samples.times == plain.samples.times
        assert observed.samples.clocks == plain.samples.clocks
        assert [r.correction for r in observed.syncs] \
            == [r.correction for r in plain.syncs]

    def test_identical_seeds_byte_identical_streams(self, tmp_path):
        first, _ = record_run(mobile_byzantine_scenario(duration=10.0, seed=7))
        second, _ = record_run(mobile_byzantine_scenario(duration=10.0, seed=7))
        assert first.events_jsonl() == second.events_jsonl()
        path_a, path_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        first.write_jsonl(path_a)
        second.write_jsonl(path_b)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_different_seeds_differ(self):
        first, _ = record_run(mobile_byzantine_scenario(duration=10.0, seed=7))
        second, _ = record_run(mobile_byzantine_scenario(duration=10.0, seed=8))
        assert first.events_jsonl() != second.events_jsonl()

    def test_finalize_is_idempotent(self):
        recorder, result = record_run(benign_scenario(duration=5.0, seed=2))
        before = len(recorder.events)
        recorder.finalize(result.processes[0].runtime.sim)
        assert len(recorder.events) == before


class TestObsConfig:
    def test_messages_off_by_default(self):
        recorder, _ = record_run(benign_scenario(duration=5.0, seed=2))
        assert not any(e.kind.startswith("net.") for e in recorder.events)

    def test_messages_opt_in(self):
        recorder, result = record_run(
            benign_scenario(duration=5.0, seed=2),
            ObsConfig(messages=True))
        delivered = [e for e in recorder.events if e.kind == "net.deliver"]
        assert len(delivered) == result.messages_delivered

    def test_subsystems_disable_cleanly(self):
        recorder, _ = record_run(
            benign_scenario(duration=5.0, seed=2),
            ObsConfig(spans=False, metrics=False, probes=False))
        assert recorder.spans == []
        assert recorder.violations == []
        assert recorder.metrics.snapshot()["counters"] == {}
        # The raw event stream still flows.
        assert any(e.kind == "sync.complete" for e in recorder.events)

    def test_monitors_opt_in_publish_alerts(self):
        import dataclasses

        from repro.adversary.mobile import single_burst_plan
        from repro.adversary.strategies import LiarStrategy

        params = default_params(n=4, f=1, pi=2.0)

        def plan(scenario, clocks):
            return single_burst_plan(
                nodes=[2, 3], start=5.0, dwell=8.0,
                strategy_factory=lambda node, ep: LiarStrategy(offset=500.0))

        scenario = benign_scenario(params, duration=20.0, seed=3)
        scenario = dataclasses.replace(scenario, plan_builder=plan,
                                       enforce_f_limit=False,
                                       name="monitored-break-in")
        recorder, _ = record_run(scenario, ObsConfig(monitors=True))
        alerts = [e for e in recorder.events if e.kind == "monitor.alert"]
        assert alerts  # the steered corrections are far over the bound
        assert recorder.metrics.counter("monitor_alerts").value == len(alerts)


class TestRoundtrip:
    def test_written_stream_summarizes(self, tmp_path):
        recorder, _ = record_run(mobile_byzantine_scenario(duration=10.0,
                                                           seed=1))
        path = tmp_path / "run.jsonl"
        recorder.write_jsonl(path)
        events = read_events_jsonl(path)
        assert events == recorder.events
        from repro.obs.summary import kind_counts

        summary = summarize_events(events)
        assert summary.violations == []
        assert kind_counts(events)["sync.complete"] \
            == sum(1 for e in recorder.events if e.kind == "sync.complete")

    def test_chrome_trace_export(self, tmp_path):
        recorder, _ = record_run(benign_scenario(duration=5.0, seed=2))
        path = tmp_path / "trace.json"
        recorder.write_chrome_trace(path)
        document = json.loads(path.read_text())
        assert document["traceEvents"]
        tids = {event["tid"] for event in document["traceEvents"]}
        assert tids == set(range(7))
