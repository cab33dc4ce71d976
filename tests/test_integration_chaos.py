"""Combined-chaos integration: everything at once, guarantees intact.

One long scenario stacking every stressor the repository models —
rotating Byzantine corruption with the full strategy mix, 5% random
message loss, scheduled link outages, heavy one-sided delay jitter,
wandering clocks, staggered sync phases — and asserts the Theorem 5
verdict plus universal recovery.  The chaos run is the closest thing to
a production environment the simulator can express.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.net.links import JitteredDelay
from repro.runner.builders import (
    default_params,
    mobile_byzantine_scenario,
    warmup_for,
)
from repro.runner.experiment import run


@pytest.fixture(scope="module")
def chaos_result():
    params = default_params(n=7, f=2)
    scenario = mobile_byzantine_scenario(
        params, duration=30.0, seed=77,
        delay_model=JitteredDelay(params.delta, base=0.1 * params.delta,
                                  jitter_mean=0.4 * params.delta),
        loss_rate=0.05,
    )

    # Layer scheduled link outages on top via a wrapping factory.
    from repro.protocols.base import protocol_factory
    inner = protocol_factory("sync")
    armed = []

    def factory(runtime, params_, start_phase):
        if not armed:
            for k, (u, v) in enumerate(((0, 1), (2, 3), (4, 5), (1, 6))):
                start = 3.0 + 6.0 * k
                runtime.network.schedule_outage(u, v, start=start, end=start + 1.0)
            armed.append(True)
        return inner(runtime, params_, start_phase)

    return run(dataclasses.replace(scenario, protocol=factory))


class TestChaos:
    def test_theorem5_verdict(self, chaos_result):
        params = chaos_result.params
        verdict = chaos_result.verdict(warmup=warmup_for(params))
        assert verdict.all_ok, verdict

    def test_every_victim_recovers(self, chaos_result):
        report = chaos_result.recovery()
        assert len(report.events) >= 10
        assert report.all_recovered
        assert report.max_recovery_time < chaos_result.params.pi

    def test_all_nodes_were_corrupted(self, chaos_result):
        assert {c.node for c in chaos_result.corruptions} \
            == set(range(chaos_result.params.n))

    def test_loss_actually_happened(self, chaos_result):
        """The chaos must be real: messages were dropped, syncs saw
        timeouts, yet the bound held."""
        starved = [r for r in chaos_result.syncs
                   if r.replies < chaos_result.params.n - 1]
        assert starved, "expected some syncs with missing replies"

    def test_tail_deviation_far_below_bound(self, chaos_result):
        """Typical-case quality: even under chaos the p95 deviation is
        a small fraction of the worst-case bound."""
        params = chaos_result.params
        pct = chaos_result.deviation_percentiles(warmup=warmup_for(params))
        assert pct[95.0] <= 0.2 * params.bounds().max_deviation
