"""Unit tests for clock sampling and good-set tracking."""

from __future__ import annotations

import pytest

from repro.clocks.hardware import FixedRateClock
from repro.clocks.logical import LogicalClock
from repro.errors import MeasurementError
from repro.metrics.sampler import (
    ClockSampler,
    ClockSamples,
    CorruptionInterval,
    faulty_at,
    good_set,
)


class TestCorruptionInterval:
    def test_overlap_semantics(self):
        c = CorruptionInterval(node=0, start=1.0, end=2.0)
        assert c.overlaps(0.0, 1.0)      # touch at start
        assert c.overlaps(2.0, 3.0)      # touch at end
        assert c.overlaps(1.5, 1.6)      # inside
        assert c.overlaps(0.0, 5.0)      # contains
        assert not c.overlaps(2.1, 3.0)
        assert not c.overlaps(0.0, 0.9)


class TestGoodSet:
    corruptions = [
        CorruptionInterval(0, 1.0, 2.0),
        CorruptionInterval(1, 5.0, 6.0),
    ]

    def test_all_good_before_faults(self):
        # Window is [max(0, -0.5), 0.5] = [0, 0.5]; node 0's corruption
        # only starts at 1.0, so everyone is still good.
        assert good_set(self.corruptions, tau=0.5, pi=1.0, n=3) == {0, 1, 2}

    def test_node_excluded_while_faulty(self):
        assert 0 not in good_set(self.corruptions, tau=1.5, pi=1.0, n=3)

    def test_node_excluded_during_pi_after_release(self):
        """Definition 3: the window [tau - PI, tau] must be clean."""
        assert 0 not in good_set(self.corruptions, tau=2.9, pi=1.0, n=3)
        assert 0 in good_set(self.corruptions, tau=3.1, pi=1.0, n=3)

    def test_window_clipped_at_zero(self):
        assert good_set([], tau=0.1, pi=10.0, n=2) == {0, 1}

    def test_faulty_at_instant(self):
        assert faulty_at(self.corruptions, 1.5) == {0}
        assert faulty_at(self.corruptions, 3.0) == set()
        assert faulty_at(self.corruptions, 5.0) == {1}


class TestClockSamples:
    def make(self):
        samples = ClockSamples(times=[0.0, 1.0, 2.0],
                               clocks={0: [0.0, 1.1, 2.2], 1: [0.5, 1.5, 2.5]})
        return samples

    def test_bias(self):
        samples = self.make()
        assert samples.bias(0, 1) == pytest.approx(0.1)
        assert samples.bias(1, 0) == pytest.approx(0.5)

    def test_index_at_or_after(self):
        samples = self.make()
        assert samples.index_at_or_after(0.0) == 0
        assert samples.index_at_or_after(0.5) == 1
        assert samples.index_at_or_after(2.0) == 2
        with pytest.raises(MeasurementError):
            samples.index_at_or_after(2.5)

    def test_index_at_or_before(self):
        samples = self.make()
        assert samples.index_at_or_before(0.0) == 0
        assert samples.index_at_or_before(1.5) == 1
        assert samples.index_at_or_before(99.0) == 2
        with pytest.raises(MeasurementError):
            samples.index_at_or_before(-0.5)

    def test_len_and_n(self):
        samples = self.make()
        assert len(samples) == 3
        assert samples.n == 2


class TestClockSampler:
    def test_samples_on_grid(self, sim):
        clocks = {0: LogicalClock(FixedRateClock(rho=0.1, rate=1.1))}
        sampler = ClockSampler(sim, clocks, interval=0.5)
        sampler.start(until=2.0)
        sim.run()
        assert list(sampler.samples.times) == [0.0, 0.5, 1.0, 1.5, 2.0]
        assert sampler.samples.clocks[0][2] == pytest.approx(1.1)

    def test_bad_interval_rejected(self, sim):
        with pytest.raises(MeasurementError):
            ClockSampler(sim, {}, interval=0.0)

    def test_samples_reflect_adjustments(self, sim):
        clock = LogicalClock(FixedRateClock(rho=0.0))
        sampler = ClockSampler(sim, {0: clock}, interval=1.0)
        sampler.start(until=3.0)
        sim.schedule(1.5, lambda: clock.adjust(1.5, 10.0))
        sim.run()
        assert sampler.samples.clocks[0][1] == pytest.approx(1.0)
        assert sampler.samples.clocks[0][2] == pytest.approx(12.0)
