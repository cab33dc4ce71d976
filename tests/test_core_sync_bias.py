"""Equivalence of the Figure 1 and Figure 2 formulations, by simulation.

The paper asserts Figure 2 is "just an alternative view of the real
protocol".  We run both implementations under identical seeds (hence
identical clocks, delays, adversary actions) and require the correction
sequences and clock trajectories to coincide up to float associativity
(the two formulations order the same additions differently, so exact
bit equality is not expected; 1e-9 absolute agreement is).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.sync_bias import BiasSyncProcess, make_bias_sync
from repro.runner.builders import (
    benign_scenario,
    default_params,
    mobile_byzantine_scenario,
    recovery_scenario,
    warmup_for,
)
from repro.runner.experiment import run


def fast_params(n=4, f=1):
    return default_params(n=n, f=f)


def run_pair(scenario_builder, **kwargs):
    fig1 = run(scenario_builder(**kwargs))
    fig2_scenario = scenario_builder(**kwargs)
    fig2_scenario = dataclasses.replace(fig2_scenario, protocol=make_bias_sync)
    fig2 = run(fig2_scenario)
    return fig1, fig2


def corrections_of(result, node):
    return [(r.round_no, r.correction) for r in result.processes[node].sync_records]


class TestEquivalence:
    def test_benign_trajectories_coincide(self):
        fig1, fig2 = run_pair(benign_scenario, params=fast_params(),
                              duration=4.0, seed=5,
                              initial_offset_spread=0.05)
        for node in range(4):
            c1 = corrections_of(fig1, node)
            c2 = corrections_of(fig2, node)
            assert len(c1) == len(c2)
            for (r1, v1), (r2, v2) in zip(c1, c2):
                assert r1 == r2
                assert v1 == pytest.approx(v2, abs=1e-9)

    def test_clock_samples_coincide(self):
        fig1, fig2 = run_pair(benign_scenario, params=fast_params(),
                              duration=4.0, seed=6)
        assert fig1.samples.times == fig2.samples.times
        for node in range(4):
            for a, b in zip(fig1.samples.clocks[node], fig2.samples.clocks[node]):
                assert a == pytest.approx(b, abs=1e-9)

    def test_byzantine_trajectories_coincide(self):
        fig1, fig2 = run_pair(mobile_byzantine_scenario, params=fast_params(),
                              duration=8.0, seed=7)
        assert [(c.node, c.start) for c in fig1.corruptions] == \
               [(c.node, c.start) for c in fig2.corruptions]
        for node in range(4):
            for (r1, v1), (r2, v2) in zip(corrections_of(fig1, node),
                                          corrections_of(fig2, node)):
                assert (r1, pytest.approx(v2, abs=1e-9)) == (r2, v1)

    def test_way_off_branch_coincides(self):
        """The recovery jump (line 12) must fire at the same round with
        the same magnitude in both formulations."""
        fig1, fig2 = run_pair(recovery_scenario, params=fast_params(),
                              duration=5.0, seed=8)
        jumps1 = [(r.node_id, r.round_no) for r in fig1.syncs
                  if r.own_discarded]
        jumps2 = [(r.node_id, r.round_no) for r in fig2.syncs
                  if r.own_discarded]
        assert jumps1 == jumps2
        assert jumps1, "the recovery scenario should exercise the branch"


class TestBiasProcessAlone:
    def test_meets_theorem5(self):
        params = fast_params()
        scenario = mobile_byzantine_scenario(params, duration=10.0, seed=9)
        scenario = dataclasses.replace(scenario, protocol=make_bias_sync)
        result = run(scenario)
        verdict = result.verdict(warmup_for(params))
        assert verdict.all_ok
        assert result.recovery().all_recovered

    def test_records_relative_frame_statistics(self):
        """SyncRecord.m / .big_m are stored in Figure 1's relative frame
        for cross-implementation comparability."""
        params = fast_params()
        scenario = benign_scenario(params, duration=2.0, seed=10)
        scenario = dataclasses.replace(scenario, protocol=make_bias_sync)
        result = run(scenario)
        for record in result.syncs:
            assert abs(record.m) < 1.0  # relative, not an absolute bias
