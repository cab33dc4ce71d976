"""Streaming measures: Definition 3 reports computed during the run.

:class:`OnlineMeasures` rides :class:`~repro.metrics.sampler.ClockSampler`'s
``on_sample`` hook (like the flight recorder's probes) and accumulates
everything the campaign's :class:`~repro.runner.campaign.RunRecord`
needs — the deviation series, accuracy stretch endpoints, recovery
scan, envelope occupancy — while the simulation runs.
Combined with ``ClockSampler(record=False)``, a worker keeps O(n +
samples) state (one float pair per retained deviation sample) instead
of the full O(samples x n) trace, and ships a summary, not columns.

**Exactness contract**: every report is byte-identical to the post-hoc
path over recorded samples.  This works because clock reads are pure
functions of real time *at the moment of the read* (the sampler's grid
event), corruption intervals are known before the run (plan-based
adversary), and the two post-hoc sample lookups have online mirrors:

* ``index_at_or_after(t)`` == capture at the first sample with
  ``tau >= t - 1e-12``;
* ``index_at_or_before(t)`` == rolling capture at the last sample with
  ``tau <= t + 1e-12``.

The read-outs themselves are not mirrored but shared: the deviation
series is a :class:`~repro.metrics.measures.DeviationSeries`, the
accuracy report comes from
:func:`~repro.metrics.measures.stretch_accuracy` fed the captures
above, and the recovery report from the
:class:`~repro.metrics.measures.RecoveryScan` this hook feeds.  The
property suite and ``tools/check_determinism.py --stream`` enforce the
contract end to end.

**Cost model**: a grid point costs what it must and nothing that grows
with the run's history — one read per clock (through the shared
:class:`~repro.clocks.mirror.ClockMirror`), one min/max over the good
set, two comparisons against the heads of the capture queues, and one
against the recovery scan's ``due``, which only a sample some release
needs passes (between its release and its confirmation).  DESIGN.md §8
has the argument that this event-driven form preserves the two mirrors
above.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

from repro.clocks.mirror import ClockMirror
from repro.errors import MeasurementError
from repro.metrics.measures import (
    AccuracyReport,
    DeviationSeries,
    RecoveryReport,
    RecoveryScan,
    good_stretches,
    stretch_accuracy,
)
from repro.metrics.sampler import CorruptionInterval, GoodSetIndex

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.clocks.logical import LogicalClock

#: Grid-matching tolerance, identical to ClockSamples.index_at_or_*.
_EPS = 1e-12


class OnlineMeasures:
    """Accumulates every RunRecord measure from the sampling hook.

    Wire :meth:`on_sample` into :class:`~repro.metrics.sampler.ClockSampler`
    (``on_sample=``), run the simulation, call :meth:`finalize`, then
    read :attr:`deviations` (the same
    :class:`~repro.metrics.measures.DeviationSeries` the post-hoc path
    measures), :meth:`accuracy` and :meth:`recovery`.  Reports are
    byte-identical to the post-hoc path (see the module docstring for
    why).

    The recovery scan needs its thresholds *during* the run, so
    ``recovery_tolerance``/``recovery_settle`` are fixed at
    construction; :meth:`recovery` rejects other values.

    Args:
        clocks: Logical clocks by node, one for every node in
            ``range(n)`` (read at each grid point).
        corruptions: The run's audited corruption intervals (known
            upfront for plan-based adversaries).
        pi: The adversary period ``PI``.
        n: Total number of processors.
        recovery_tolerance: Distance-to-good-range threshold for the
            recovery report (typically the Theorem 5 deviation bound).
        recovery_settle: Recovery stability window; default ``pi``.
    """

    def __init__(self, clocks: dict[int, "LogicalClock"],
                 corruptions: Sequence[CorruptionInterval], pi: float, n: int,
                 recovery_tolerance: float,
                 recovery_settle: float | None = None) -> None:
        self.clocks = dict(clocks)
        self.corruptions = list(corruptions)
        self.pi = float(pi)
        self.n = int(n)
        self.recovery_tolerance = float(recovery_tolerance)
        self.recovery_settle = float(recovery_settle) if recovery_settle is not None else float(pi)
        self.index = GoodSetIndex(self.corruptions, self.pi, self.n)
        self._cursor = self.index.cursor()
        self._mirror = ClockMirror([self.clocks[node] for node in range(self.n)])
        #: The deviation series, appended to on every sample.
        self.deviations = DeviationSeries()
        self._count = 0
        self._tau0 = 0.0            # times[0] and times[1] (grid spacing)
        self._tau1 = 0.0
        self._last_tau = -math.inf
        self._last_vals: list[float] = []
        # Accuracy stretch-endpoint captures: the starts ``t1`` and the
        # finite ends ``t2`` of the good stretches of an endless run —
        # every stretch a finite horizon leaves is one of those, clipped.
        # Each kind is one (threshold, node) queue for all nodes, sorted
        # descending and popped from the end; ``_next_*`` is the head's
        # comparison value (inf once drained), so a sample on which
        # nothing matures pays two comparisons.
        stretches = good_stretches(self.corruptions, self.pi, self.n, math.inf)
        self._start_queue = sorted({(t1, node) for node, t1, _ in stretches},
                                   reverse=True)
        self._end_queue = sorted({(t2, node) for node, _, t2 in stretches
                                  if t2 < math.inf}, reverse=True)
        self._next_start = (self._start_queue[-1][0] - _EPS
                            if self._start_queue else math.inf)
        self._next_end = (self._end_queue[-1][0] + _EPS
                          if self._end_queue else math.inf)
        self._start_caps: dict[tuple[int, float], tuple[float, float]] = {}
        self._end_caps: dict[tuple[int, float], tuple[float, float]] = {}
        self._recovery = RecoveryScan(self.corruptions, self.recovery_tolerance,
                                      self.recovery_settle)
        self._finalized = False

    # ------------------------------------------------------------------
    # The sampling hook
    # ------------------------------------------------------------------

    def on_sample(self, tau: float, index: int) -> None:
        """Observe one grid point.

        Raises:
            MeasurementError: When ``tau`` is smaller than the previous
                call's — every queue here only moves forward, so a
                decreasing ``tau`` would corrupt all later reports.
        """
        if tau < self._last_tau:
            raise MeasurementError(
                f"on_sample times must not decrease: {tau} after "
                f"{self._last_tau}")
        vals = self._mirror.read_all(tau)
        if self._count == 0:
            self._tau0 = tau
        elif self._count == 1:
            self._tau1 = tau
        # Freeze matured last-at-or-before captures with the *previous*
        # sample (the last one satisfying tau <= t2 + eps); before the
        # first sample there is none, as index_at_or_before would say.
        if tau > self._next_end:
            self._mature_ends(tau)
        # First-at-or-after captures trigger on the current sample.
        if tau >= self._next_start:
            self._mature_starts(tau, vals)

        good = self._cursor.included_at(tau)
        bounds = None
        if len(good) >= 2:
            gvals = [vals[node] for node in good]
            bounds = (min(gvals), max(gvals))
            series = self.deviations
            series.taus.append(tau)
            series.devs.append(bounds[1] - bounds[0])

        if tau >= self._recovery.due:
            self._recovery.observe(tau, vals, good, bounds)

        self._last_tau = tau
        self._last_vals = vals
        self._count += 1

    def _mature_ends(self, tau: float) -> None:
        queue = self._end_queue
        while queue and tau > queue[-1][0] + _EPS:
            threshold, node = queue.pop()
            if self._count:
                self._end_caps[(node, threshold)] = (self._last_tau,
                                                     self._last_vals[node])
        self._next_end = queue[-1][0] + _EPS if queue else math.inf

    def _mature_starts(self, tau: float, vals: list[float]) -> None:
        queue = self._start_queue
        while queue and tau >= queue[-1][0] - _EPS:
            threshold, node = queue.pop()
            self._start_caps[(node, threshold)] = (tau, vals[node])
        self._next_start = queue[-1][0] - _EPS if queue else math.inf

    def finalize(self) -> None:
        """Close out end-of-run state; required before querying measures."""
        if self._finalized:
            return
        # Unmatured end-captures: every remaining threshold satisfies
        # t2 + eps >= last tau, so the final sample is the capture.
        if self._count:
            for threshold, node in self._end_queue:
                self._end_caps[(node, threshold)] = (self._last_tau,
                                                     self._last_vals[node])
        self._end_queue.clear()
        self._finalized = True

    def _require_finalized(self) -> None:
        if not self._finalized:
            raise MeasurementError(
                "OnlineMeasures.finalize() must run before querying measures")

    # ------------------------------------------------------------------
    # The measure surface (RunResult answers from it)
    # ------------------------------------------------------------------

    def _endpoints(self, node: int, t1: float, t2: float):
        """The captured readings of one stretch (``stretch_accuracy``'s lookup)."""
        if t2 >= self._last_tau:
            end = (self._last_tau, self._last_vals[node])
        else:
            end = self._end_caps.get((node, t2))
            if end is None:
                raise MeasurementError(
                    f"no sample at or before tau={t2}; run starts at "
                    f"{self._tau0}")
        return self._start_caps[(node, t1)], end

    def accuracy(self, min_span: float = 0.0) -> AccuracyReport:
        """Measured drift/discontinuity over good stretches."""
        self._require_finalized()
        if not self._count:
            raise MeasurementError("cannot measure accuracy with no samples")
        spacing = self._tau1 - self._tau0 if self._count > 1 else 0.0
        return stretch_accuracy(self.clocks, self.corruptions, self.pi, self.n,
                                self.index, self._last_tau, spacing, min_span,
                                self._endpoints)

    def recovery(self, tolerance: float | None = None,
                 settle: float | None = None) -> RecoveryReport:
        """Recovery report accumulated online.

        Raises:
            MeasurementError: When asked for a tolerance/settle other
                than the ones the state machines ran with.
        """
        self._require_finalized()
        if tolerance is not None and tolerance != self.recovery_tolerance:
            raise MeasurementError(
                f"streamed recovery was measured with tolerance="
                f"{self.recovery_tolerance}, cannot answer for {tolerance}")
        if settle is not None and settle != self.recovery_settle:
            raise MeasurementError(
                f"streamed recovery was measured with settle="
                f"{self.recovery_settle}, cannot answer for {settle}")
        return self._recovery.report(self._last_tau if self._count else 0.0)
