"""Unit tests for the experiment runner: determinism, sweeps, wiring."""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import AdversaryError
from repro.runner.builders import (
    benign_scenario,
    default_params,
    mobile_byzantine_scenario,
    recovery_scenario,
)
from repro.runner.campaign import Campaign
from repro.runner.experiment import run, summarize
from repro.runner.scenario import extremal_clocks, perfect_clocks


def fast_params(n=4, f=1):
    return default_params(n=n, f=f)


class TestDeterminism:
    def test_same_seed_bitwise_identical(self):
        a = run(benign_scenario(fast_params(), duration=2.0, seed=11))
        b = run(benign_scenario(fast_params(), duration=2.0, seed=11))
        assert a.samples.times == b.samples.times
        assert a.samples.clocks == b.samples.clocks
        assert a.events_processed == b.events_processed

    def test_different_seeds_differ(self):
        a = run(benign_scenario(fast_params(), duration=2.0, seed=1))
        b = run(benign_scenario(fast_params(), duration=2.0, seed=2))
        assert a.samples.clocks != b.samples.clocks

    def test_adversarial_run_deterministic(self):
        a = run(mobile_byzantine_scenario(fast_params(), duration=6.0, seed=5))
        b = run(mobile_byzantine_scenario(fast_params(), duration=6.0, seed=5))
        assert a.samples.clocks == b.samples.clocks
        assert [(c.node, c.start, c.end) for c in a.corruptions] == \
               [(c.node, c.start, c.end) for c in b.corruptions]


class TestWiring:
    def test_all_nodes_have_processes_and_clocks(self):
        result = run(benign_scenario(fast_params(), duration=1.0))
        assert set(result.processes) == set(range(4))
        assert set(result.clocks) == set(range(4))

    def test_initial_offsets_applied(self):
        scenario = benign_scenario(fast_params(), duration=1.0,
                                   initial_offsets=[0.0, 0.1, 0.2, 0.3])
        result = run(scenario)
        assert result.samples.clocks[3][0] == pytest.approx(0.3, abs=0.01)

    def test_initial_offset_spread_sampled(self):
        scenario = benign_scenario(fast_params(), duration=1.0,
                                   initial_offset_spread=0.01)
        result = run(scenario)
        first = [result.samples.clocks[i][0] for i in range(4)]
        assert max(first) - min(first) > 0.0
        assert all(abs(v) <= 0.005 for v in first)

    def test_sample_grid_spacing(self):
        params = fast_params()
        scenario = benign_scenario(params, duration=1.0, sample_interval=0.25)
        result = run(scenario)
        assert result.samples.times == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])

    def test_trace_collects_syncs_from_all_nodes(self):
        result = run(benign_scenario(fast_params(), duration=2.0))
        assert {r.node_id for r in result.syncs} == set(range(4))

    def test_corruption_trace_matches_plan(self):
        from repro.obs import FlightRecorder

        recorder = FlightRecorder()
        result = run(mobile_byzantine_scenario(fast_params(), duration=6.0, seed=3),
                     recorder=recorder)
        break_ins = [(e.node, e.time) for e in recorder.events
                     if e.kind == "adv.break_in"]
        assert break_ins == [(c.node, c.start) for c in result.corruptions]

    def test_f_limit_enforced_by_default(self):
        params = fast_params()

        def bad_plan(scenario, clocks):
            from repro.adversary.mobile import PlannedCorruption
            from repro.adversary.strategies import SilentStrategy
            return [PlannedCorruption(node=i, start=0.5, end=1.0,
                                      strategy=SilentStrategy())
                    for i in range(2)]  # 2 > f=1

        scenario = benign_scenario(params, duration=2.0)
        scenario = dataclasses.replace(scenario, plan_builder=bad_plan)
        with pytest.raises(AdversaryError):
            run(scenario)

    def test_stagger_phases_off_gives_lockstep(self):
        result = run(benign_scenario(fast_params(), duration=1.0,
                                     stagger_phases=False))
        firsts = sorted(r.real_time for r in result.syncs
                        if r.round_no == 1)
        assert max(firsts) - min(firsts) < 2 * result.params.max_wait

    def test_clock_factories(self):
        for factory in (perfect_clocks, extremal_clocks):
            result = run(benign_scenario(fast_params(), duration=1.0,
                                         clock_factory=factory))
            assert result.samples.clocks


class TestSweepsAndHelpers:
    def test_sweep_replaces_fields(self):
        base = benign_scenario(fast_params(), duration=1.0)
        records = Campaign.sweep(
            base, [{"seed": 1}, {"seed": 2}, {"duration": 2.0}]).run().records
        assert len(records) == 3
        assert [r.seed for r in records[:2]] == [1, 2]
        assert records[2].duration == 2.0
        assert all(r.error is None for r in records)

    def test_replicate_runs_per_seed(self):
        base = benign_scenario(fast_params(), duration=1.0)
        records = Campaign.replicate(base, seeds=[1, 2, 3]).run().records
        assert [r.seed for r in records] == [1, 2, 3]

    def test_summarize(self):
        assert summarize([1.0, 2.0, 3.0]) == (1.0, 2.0, 3.0)


class TestRunResultMeasures:
    def test_verdict_integrates_measures(self):
        result = run(benign_scenario(fast_params(), duration=3.0, seed=1))
        verdict = result.verdict(warmup=1.0)
        assert verdict.all_ok

    def test_recovery_default_tolerance_is_bound(self):
        result = run(recovery_scenario(fast_params(), duration=4.0, seed=1))
        report = result.recovery()
        assert report.tolerance == pytest.approx(result.params.bounds().max_deviation)
