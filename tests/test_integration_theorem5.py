"""Integration tests: Theorem 5 guarantees hold end-to-end.

Each test runs a full simulation (clocks, network, protocol, adversary)
and checks the measured quantities against the Theorem 5 bounds.  These
are the paper's headline claims.
"""

from __future__ import annotations

import pytest

from repro.core.analysis import envelope_trajectory, verify_bias_formulation
from repro.net.links import AsymmetricDelay, JitteredDelay
from repro.runner.builders import (
    benign_scenario,
    default_params,
    mobile_byzantine_scenario,
    split_world_scenario,
    warmup_for,
)
from repro.runner.experiment import run
from repro.runner.scenario import extremal_clocks, perfect_clocks


def fast_params(n=4, f=1):
    return default_params(n=n, f=f)


class TestSynchronization:
    """Theorem 5(i): max deviation of good processors <= bound."""

    def test_benign_wander(self):
        params = fast_params()
        result = run(benign_scenario(params, duration=6.0, seed=1))
        assert result.max_deviation(warmup_for(params)) <= params.bounds().max_deviation

    def test_benign_extremal_drift(self):
        """Worst-case clocks eq. (2) allows, sustained forever."""
        params = fast_params()
        result = run(benign_scenario(params, duration=6.0, seed=1,
                                     clock_factory=extremal_clocks))
        assert result.max_deviation(warmup_for(params)) <= params.bounds().max_deviation

    def test_mobile_byzantine_n7_f2(self):
        params = default_params(n=7, f=2)
        result = run(mobile_byzantine_scenario(params, duration=15.0, seed=2))
        assert result.max_deviation(warmup_for(params)) <= params.bounds().max_deviation

    def test_mobile_byzantine_minimum_network(self):
        params = fast_params()  # n = 4 = 3f + 1 exactly
        result = run(mobile_byzantine_scenario(params, duration=15.0, seed=3))
        assert result.max_deviation(warmup_for(params)) <= params.bounds().max_deviation

    def test_split_world_attack_bounded(self):
        """Even an omniscient spreading adversary stays within the bound."""
        params = fast_params()
        result = run(split_world_scenario(params, duration=12.0, seed=4))
        assert result.max_deviation(warmup_for(params)) <= params.bounds().max_deviation

    def test_asymmetric_delays_bounded(self):
        """Maximally biased (but bounded) delays: estimates are skewed
        by delta/2 each, which the epsilon term absorbs."""
        params = fast_params()
        result = run(benign_scenario(params, duration=6.0, seed=5,
                                     delay_model=AsymmetricDelay(params.delta)))
        assert result.max_deviation(warmup_for(params)) <= params.bounds().max_deviation

    def test_jittered_delays_bounded(self):
        params = fast_params()
        result = run(benign_scenario(params, duration=6.0, seed=6,
                                     delay_model=JitteredDelay(params.delta)))
        assert result.max_deviation(warmup_for(params)) <= params.bounds().max_deviation


class TestAccuracy:
    """Theorem 5(ii): logical drift and discontinuity bounds."""

    def test_benign_accuracy(self):
        params = fast_params()
        result = run(benign_scenario(params, duration=8.0, seed=1))
        verdict = result.verdict(warmup_for(params))
        assert verdict.drift_ok and verdict.discontinuity_ok

    def test_mobile_byzantine_accuracy(self):
        params = default_params(n=7, f=2)
        result = run(mobile_byzantine_scenario(params, duration=15.0, seed=2))
        verdict = result.verdict(warmup_for(params))
        assert verdict.drift_ok, (verdict.measured_drift, verdict.bounds.logical_drift)
        assert verdict.discontinuity_ok

    def test_logical_drift_close_to_hardware_drift(self):
        """The Section 4.1 remark: with K reasonably large, the logical
        drift bound is rho plus a tiny additive term."""
        params = default_params(n=4, f=1, pi=8.0, target_k=30)
        bounds = params.bounds()
        assert bounds.logical_drift <= params.rho * 1.01


class TestFullVerdict:
    def test_all_guarantees_simultaneously(self):
        params = default_params(n=7, f=2)
        for seed in (1, 2, 3):
            result = run(mobile_byzantine_scenario(params, duration=15.0, seed=seed))
            verdict = result.verdict(warmup_for(params))
            assert verdict.all_ok, (seed, verdict)

    def test_perfect_clocks_nearly_exact(self):
        """With rho = 0 analytically (perfect rates), deviation is pure
        estimation noise, far below the bound."""
        params = fast_params()
        result = run(benign_scenario(params, duration=5.0, seed=9,
                                     clock_factory=perfect_clocks))
        assert result.max_deviation(warmup_for(params)) <= 4 * params.epsilon


class TestEnvelopeBehaviour:
    """Lemma 7 on real runs: envelopes never expand beyond allowance."""

    def test_envelope_steps_hold_under_byzantine(self):
        params = default_params(n=7, f=2)
        result = run(mobile_byzantine_scenario(params, duration=15.0, seed=2))
        steps = envelope_trajectory(result.samples, result.corruptions, params,
                                    start=warmup_for(params),
                                    floor_slack=2.0 * params.epsilon)
        assert steps
        violations = [s for s in steps if not s.holds]
        assert not violations, violations[:3]

    def test_bias_formulation_consistency(self):
        """Figure 1 vs Figure 2: every sync record's clock-space update
        is the bias-space update shifted by tau."""
        params = fast_params()
        result = run(benign_scenario(params, duration=4.0, seed=1))
        checked = verify_bias_formulation(result.samples, result.syncs)
        assert checked > 0
