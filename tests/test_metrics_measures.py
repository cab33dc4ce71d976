"""Unit tests for deviation / accuracy / recovery measures."""

from __future__ import annotations

import math

import pytest

from repro.clocks.hardware import FixedRateClock
from repro.clocks.logical import LogicalClock
from repro.errors import MeasurementError
from repro.metrics.measures import (
    accuracy_report,
    DeviationSeries,
    deviation_series,
    good_stretches,
    recovery_report,
    stretch_accuracy,
)
from repro.metrics.sampler import ClockSamples, CorruptionInterval, GoodSetIndex


def grid_samples(times, per_node_values):
    return ClockSamples(times=list(times),
                        clocks={n: list(v) for n, v in per_node_values.items()})


class TestDeviation:
    def test_constant_gap_measured(self):
        samples = grid_samples([0.0, 1.0], {0: [0.0, 1.0], 1: [0.3, 1.3], 2: [0.1, 1.1]})
        series = deviation_series(samples, [], pi=1.0, n=3)
        assert series == [(0.0, pytest.approx(0.3)), (1.0, pytest.approx(0.3))]

    def test_faulty_node_excluded(self):
        samples = grid_samples([0.0, 1.0], {0: [0.0, 1.0], 1: [99.0, 99.0], 2: [0.1, 1.1]})
        corruption = [CorruptionInterval(1, 0.0, 5.0)]
        assert DeviationSeries.measure(samples, corruption, pi=1.0, n=3).max() == pytest.approx(0.1)

    def test_warmup_skips_early_samples(self):
        samples = grid_samples([0.0, 1.0], {0: [5.0, 1.0], 1: [0.0, 1.0]})
        assert DeviationSeries.measure(samples, [], pi=1.0, n=2).max(warmup=0.5) == pytest.approx(0.0)

    def test_warmup_keeps_the_sample_at_warmup(self):
        samples = grid_samples([0.0, 1.0, 2.0], {0: [0.0, 1.0, 2.0],
                                                 1: [0.5, 1.25, 2.0]})
        series = DeviationSeries.measure(samples, [], pi=1.0, n=2)
        assert series.series(1.0) == [(1.0, 0.25), (2.0, 0.0)]
        assert series.max(1.0) == 0.25
        assert series.percentiles(1.0, (50.0, 100.0)) == {50.0: 0.0, 100.0: 0.25}
        assert series.occupancy(0.0, 1.0) == 0.5

    def test_occupancy_bound_is_inclusive_with_slack(self):
        samples = grid_samples([0.0, 1.0, 2.0], {0: [0.0, 1.0, 2.0],
                                                 1: [0.5, 1.25, 2.75]})
        series = DeviationSeries.measure(samples, [], pi=1.0, n=2)
        assert series.occupancy(0.5) == 2 / 3           # 0.5 and 0.25 inside
        assert series.occupancy(0.5 - 1e-13) == 2 / 3   # within the slack
        assert series.occupancy(0.5 - 1e-9) == 1 / 3
        assert math.isnan(series.occupancy(1.0, warmup=3.0))

    def test_small_good_set_skipped(self):
        samples = grid_samples([0.0], {0: [0.0], 1: [1.0]})
        corr = [CorruptionInterval(0, 0.0, 1.0)]
        assert deviation_series(samples, corr, pi=1.0, n=2) == []

    def test_empty_after_warmup_raises(self):
        samples = grid_samples([0.0], {0: [0.0], 1: [0.0]})
        with pytest.raises(MeasurementError):
            DeviationSeries.measure(samples, [], pi=1.0, n=2).max(warmup=5.0)


class TestGoodStretches:
    def test_no_faults_whole_run(self):
        stretches = good_stretches([], pi=1.0, n=2, horizon=10.0)
        assert stretches == [(0, 0.0, 10.0), (1, 0.0, 10.0)]

    def test_stretch_starts_pi_after_release(self):
        corr = [CorruptionInterval(0, 2.0, 3.0)]
        stretches = good_stretches(corr, pi=1.0, n=1, horizon=10.0)
        assert stretches == [(0, 0.0, 2.0), (0, 4.0, 10.0)]

    def test_short_gap_yields_no_stretch(self):
        corr = [CorruptionInterval(0, 2.0, 3.0), CorruptionInterval(0, 3.5, 4.0)]
        stretches = good_stretches(corr, pi=1.0, n=1, horizon=10.0)
        # The [3.0, 3.5] gap is shorter than PI: no stretch inside it.
        assert (0, 0.0, 2.0) in stretches
        assert (0, 5.0, 10.0) in stretches
        assert len(stretches) == 2


class TestAccuracy:
    def test_perfect_clock_zero_drift(self):
        times = [float(i) for i in range(6)]
        samples = grid_samples(times, {0: times})
        clocks = {0: LogicalClock(FixedRateClock(rho=0.0))}
        report = accuracy_report(samples, [], clocks, pi=1.0, n=1)
        assert report.implied_drift == pytest.approx(0.0)
        assert report.max_discontinuity == 0.0

    def test_drifting_clock_measured(self):
        times = [float(i) for i in range(6)]
        samples = grid_samples(times, {0: [t * 1.01 for t in times]})
        clocks = {0: LogicalClock(FixedRateClock(rho=0.02, rate=1.01))}
        report = accuracy_report(samples, [], clocks, pi=1.0, n=1)
        assert report.implied_drift == pytest.approx(0.01, rel=0.05)

    def test_good_adjustment_counts_as_discontinuity(self):
        times = [0.0, 1.0, 2.0]
        samples = grid_samples(times, {0: [0.0, 1.0, 2.0]})
        clock = LogicalClock(FixedRateClock(rho=0.0))
        clock.adjust(1.0, 0.25)
        report = accuracy_report(samples, [], {0: clock}, pi=1.0, n=1)
        assert report.max_discontinuity == pytest.approx(0.25)

    def test_adjustment_during_recovery_window_excluded(self):
        """Corrections within PI of a corruption are outside the
        Definition 3(ii) guarantee and must not count."""
        times = [0.0, 1.0, 2.0, 3.0, 4.0]
        samples = grid_samples(times, {0: times})
        clock = LogicalClock(FixedRateClock(rho=0.0))
        clock.adjust(2.1, 500.0)  # huge recovery jump just after release
        corr = [CorruptionInterval(0, 1.5, 2.0)]
        report = accuracy_report(samples, corr, {0: clock}, pi=1.0, n=1)
        assert report.max_discontinuity == 0.0

    def test_no_samples_rejected(self):
        with pytest.raises(MeasurementError):
            accuracy_report(ClockSamples(), [], {}, pi=1.0, n=0)


class TestStretchAccuracy:
    """The eq. (3) kernel both paths call, fed a hand-made endpoint lookup."""

    def kernel(self, endpoints, corruptions=(), clocks=None, spacing=1.0,
               min_span=0.0):
        index = GoodSetIndex(list(corruptions), 1.0, 1)
        return stretch_accuracy(clocks or {}, list(corruptions), 1.0, 1,
                                index, 10.0, spacing, min_span, endpoints)

    def test_drift_from_the_looked_up_endpoints(self):
        asked = []

        def endpoints(node, t1, t2):
            asked.append((node, t1, t2))
            return (0.5, 0.0), (9.5, 9.18)      # advance 9.18 over span 9

        report = self.kernel(endpoints)
        assert asked == [(0, 0.0, 10.0)]
        assert report.stretches == 1
        assert report.max_discontinuity == 0.0
        assert report.implied_drift == 9.18 / 9.0 - 1.0

    def test_alpha_only_counts_non_faulty_corrections(self):
        clock = LogicalClock(FixedRateClock(rho=0.0))
        clock.adjust(1.0, -0.25)                # inside the corruption
        clock.adjust(6.0, 0.125)                # PI after the release
        report = self.kernel(lambda node, t1, t2: ((t1, t1), (t2, t2 + 0.3)),
                             corruptions=[CorruptionInterval(0, 0.5, 2.0)],
                             clocks={0: clock})
        assert report.max_discontinuity == 0.125
        assert report.stretches == 1            # [3, 10]; [0, 0.5] too short
        # eq. (3) grants the stretch alpha of its advance.
        assert report.implied_drift == (10.3 - 3.0 - 0.125) / 7.0 - 1.0

    def test_short_stretches_are_not_looked_up(self):
        def endpoints(node, t1, t2):
            raise AssertionError("looked up a stretch below the floor")

        for spacing, min_span in ((5.5, 0.0), (0.0, 10.5)):
            report = self.kernel(endpoints, spacing=spacing, min_span=min_span)
            assert report.stretches == 0 and report.implied_drift == 0.0

    def test_stretch_of_exactly_the_floor_is_measured(self):
        def endpoints(node, t1, t2):
            return (t1, t1), (t2, t2)

        for spacing, min_span in ((5.0, 0.0), (0.0, 10.0)):
            report = self.kernel(endpoints, spacing=spacing, min_span=min_span)
            assert report.stretches == 1

    def test_lookup_refusal_propagates(self):
        def endpoints(node, t1, t2):
            raise MeasurementError("no sample at or before tau=10.0")

        with pytest.raises(MeasurementError, match="no sample at or before"):
            self.kernel(endpoints)

    def test_degenerate_span_is_skipped(self):
        report = self.kernel(lambda node, t1, t2: ((4.0, 4.0), (4.0, 4.0)))
        assert report.stretches == 0


class TestRecovery:
    def make_run(self, recovered_values):
        """Node 1 is corrupted during [1, 2]; node 0 and 2 are good and
        track real time. recovered_values gives node 1's clock at the
        sample times after release."""
        times = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        good = times
        samples = grid_samples(times, {
            0: good,
            1: [0.0, 0.0] + recovered_values,
            2: good,
        })
        corr = [CorruptionInterval(1, 1.0, 2.0)]
        return samples, corr

    def test_immediate_recovery(self):
        samples, corr = self.make_run([2.0, 3.0, 4.0, 5.0])
        report = recovery_report(samples, corr, pi=1.0, n=3, tolerance=0.1, settle=1.0)
        assert len(report.events) == 1
        event = report.events[0]
        assert event.rejoined_at == pytest.approx(2.0)
        assert event.recovery_time == pytest.approx(0.0)
        assert report.all_recovered

    def test_delayed_recovery(self):
        samples, corr = self.make_run([50.0, 50.0, 4.0, 5.0])
        report = recovery_report(samples, corr, pi=1.0, n=3, tolerance=0.1, settle=1.0)
        assert report.events[0].rejoined_at == pytest.approx(4.0)
        assert report.events[0].recovery_time == pytest.approx(2.0)
        assert report.events[0].initial_distance == pytest.approx(48.0)

    def test_never_recovers(self):
        samples, corr = self.make_run([50.0, 50.0, 50.0, 50.0])
        report = recovery_report(samples, corr, pi=1.0, n=3, tolerance=0.1, settle=1.0)
        assert not report.all_recovered
        assert math.isinf(report.max_recovery_time)

    def test_unstable_rejoin_not_counted(self):
        """Dipping into the good range then leaving again does not count
        as recovered at the dip."""
        samples, corr = self.make_run([3.0, 50.0, 4.0, 5.0])
        report = recovery_report(samples, corr, pi=1.0, n=3, tolerance=0.1, settle=1.0)
        assert report.events[0].rejoined_at == pytest.approx(4.0)

    def test_violation_on_the_window_closing_sample_fails_the_candidate(self):
        """The settle window is closed: a violation at exactly
        ``candidate + settle`` still counts against the candidate."""
        samples, corr = self.make_run([2.0, 50.0, 4.0, 5.0])
        report = recovery_report(samples, corr, pi=1.0, n=3, tolerance=0.1, settle=1.0)
        assert report.events[0].rejoined_at == 4.0

    def test_confirmation_precedes_the_confirming_samples_violation(self):
        """The first sample past the window confirms the candidate even
        when that sample itself is a violation; later ones change nothing."""
        samples, corr = self.make_run([2.0, 3.0, 50.0, 50.0])
        report = recovery_report(samples, corr, pi=1.0, n=3, tolerance=0.1, settle=1.0)
        assert report.events[0].rejoined_at == 2.0

    @pytest.mark.parametrize("offset", [-0.5, 0.5])
    def test_exactly_at_tolerance_is_within(self, offset):
        samples, corr = self.make_run([tau + offset for tau in (2.0, 3.0, 4.0, 5.0)])
        report = recovery_report(samples, corr, pi=1.0, n=3, tolerance=0.5, settle=1.0)
        assert report.events[0].rejoined_at == 2.0

    def test_initial_distance_is_zero_inside_the_range(self):
        times = [0.0, 1.0, 2.0, 3.0]
        samples = grid_samples(times, {0: times, 1: [t + 0.5 for t in times],
                                       2: [t + 1.0 for t in times]})
        corr = [CorruptionInterval(1, 1.0, 2.0)]
        (event,) = recovery_report(samples, corr, pi=1.0, n=3, tolerance=0.1).events
        assert event.initial_distance == 0.0

    def test_release_at_the_last_sample_not_measured(self):
        samples, _ = self.make_run([2.0, 3.0, 4.0, 5.0])
        corr = [CorruptionInterval(1, 1.0, 5.0)]
        report = recovery_report(samples, corr, pi=1.0, n=3, tolerance=0.1, settle=1.0)
        assert report.events == []

    def test_unreleased_corruption_not_measured(self):
        times = [0.0, 1.0, 2.0]
        samples = grid_samples(times, {0: times, 1: times})
        corr = [CorruptionInterval(1, 1.0, math.inf)]
        report = recovery_report(samples, corr, pi=1.0, n=2, tolerance=0.1)
        assert report.events == []


class TestPercentiles:
    def test_percentiles_of_known_series(self):
        times = [float(i) for i in range(10)]
        # node 1 is `i * 0.01` ahead at sample i: deviations 0.00..0.09.
        samples = grid_samples(times, {
            0: times,
            1: [t + 0.01 * i for i, t in enumerate(times)],
        })
        result = DeviationSeries.measure(samples, [], pi=1.0, n=2).percentiles(
            percentiles=(50.0, 100.0))
        assert result[100.0] == pytest.approx(0.09)
        assert result[50.0] == pytest.approx(0.04)

    def test_bad_percentile_rejected(self):
        samples = grid_samples([0.0], {0: [0.0], 1: [0.0]})
        with pytest.raises(MeasurementError):
            DeviationSeries.measure(samples, [], pi=1.0, n=2).percentiles(
                percentiles=(0.0,))

    def test_max_percentile_equals_max_deviation(self):
        from repro.runner.builders import benign_scenario, default_params
        from repro.runner.experiment import run
        result = run(benign_scenario(default_params(n=4, f=1), duration=3.0,
                                     seed=2))
        pct = result.deviation_percentiles(warmup=1.0)
        assert pct[100.0] == pytest.approx(result.max_deviation(warmup=1.0))
        assert pct[50.0] <= pct[95.0] <= pct[100.0]
