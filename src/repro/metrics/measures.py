"""Measurements matching the paper's Definition 3 requirements.

Three families of measures, one per requirement:

* **Synchronization** — :class:`DeviationSeries`: the maximum clock
  difference over the Definition 3 good set, per sample, read out as a
  series, its maximum (checked against Theorem 5(i)), percentiles and
  envelope occupancy.
* **Accuracy** — :func:`accuracy_report`: measured logical drift and
  discontinuity over good stretches (checked against Theorem 5(ii)).
* **Recovery** — :func:`recovery_report`: for every adversary release,
  how long until the victim's clock re-enters (and stays in) the good
  range (checked against Claim 8(iii)'s geometric convergence), found
  by one candidate/confirm pass of :class:`RecoveryScan`.

All measures run on a :class:`~repro.metrics.sampler.GoodSetIndex`
(piecewise-constant good sets, O(log C) lookups) and the columnar
reductions of :mod:`repro.metrics.columns`; every function accepts a
prebuilt index via the ``index`` keyword so one sweep serves the whole
report.  Results are bit-identical to evaluating the Definition 3
predicates per sample over row-oriented lists — the property suite
enforces this.

The streaming path (:class:`~repro.metrics.streaming.OnlineMeasures`)
differs from this one only in how it *collects* its inputs: it fills a
:class:`DeviationSeries` sample by sample, hands
:func:`stretch_accuracy` — the one Definition 3(ii) read-out — its own
stretch-endpoint lookup, and feeds :class:`RecoveryScan` — the one
recovery scan — from its sampling hook instead of from a walk over
recorded samples.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from repro.errors import MeasurementError
from repro.metrics.columns import new_column, spread_slice
from repro.metrics.sampler import ClockSamples, CorruptionInterval, GoodSetIndex

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.clocks.logical import LogicalClock


# ----------------------------------------------------------------------
# Synchronization (Definition 3 i)
# ----------------------------------------------------------------------

class DeviationSeries:
    """The good-set deviation series of one run and its read-outs.

    ``devs[i]`` is the clock spread over the good set at sample time
    ``taus[i]`` (samples with fewer than two good nodes are absent).  A
    deviation does not depend on where a warmup cuts the series, so each
    read-out is a bisected suffix of the one series, whether it was
    measured post hoc (:meth:`measure`) or appended to during the run.
    """

    __slots__ = ("taus", "devs")

    def __init__(self) -> None:
        self.taus = new_column()
        self.devs = new_column()

    @classmethod
    def measure(cls, samples: ClockSamples,
                corruptions: Sequence[CorruptionInterval], pi: float, n: int,
                *, index: GoodSetIndex | None = None) -> "DeviationSeries":
        """The series over recorded samples.

        Reduces each constant run of the good-set index in one batch
        instead of re-deriving the good set per sample.

        Args:
            samples: Grid samples of every clock.
            corruptions: Audited corruption intervals.
            pi: The adversary period ``PI`` (defines the good set window).
            n: Total number of processors.
            index: Prebuilt :class:`GoodSetIndex` for these corruptions
                (built on the fly when omitted).
        """
        if index is None:
            index = GoodSetIndex(corruptions, pi, n)
        series = cls()
        times = samples.times
        for lo, hi, good in index.runs(times):
            if len(good) < 2:
                continue
            series.taus.extend(times[lo:hi])
            series.devs.extend(spread_slice(
                [samples.clocks[node] for node in good], lo, hi))
        return series

    def _devs_after(self, warmup: float):
        return self.devs[bisect.bisect_left(self.taus, warmup):]

    def series(self, warmup: float = 0.0) -> list[tuple[float, float]]:
        """``(tau, deviation)`` per sample after ``warmup``."""
        lo = bisect.bisect_left(self.taus, warmup)
        return list(zip(self.taus[lo:], self.devs[lo:]))

    def max(self, warmup: float = 0.0) -> float:
        """Maximum deviation after ``warmup`` (Theorem 5(i) subject)."""
        devs = self._devs_after(warmup)
        if not devs:
            raise MeasurementError("no samples with a non-trivial good set after warmup")
        return max(devs)

    def percentiles(self, warmup: float = 0.0,
                    percentiles: Sequence[float] = (50.0, 95.0, 99.0, 100.0),
                    ) -> dict[float, float]:
        """Nearest-rank percentiles of the deviations after ``warmup``.

        The paper's bounds are worst-case; practical protocols are judged
        on typical behaviour too ("practical protocols ... may provide
        better results in typical cases", Section 5), so the median and
        tails go beside the max that Theorem 5(i) bounds.

        Raises:
            MeasurementError: On an empty series or a percentile
                outside ``(0, 100]``.
        """
        ordered = sorted(self._devs_after(warmup))
        if not ordered:
            raise MeasurementError("no deviation samples after warmup")
        result: dict[float, float] = {}
        for p in percentiles:
            if not (0.0 < p <= 100.0):
                raise MeasurementError(f"percentile must be in (0, 100], got {p}")
            rank = max(0, math.ceil(p / 100.0 * len(ordered)) - 1)
            result[p] = ordered[rank]
        return result

    def occupancy(self, bound: float, warmup: float = 0.0) -> float:
        """Fraction of deviations after ``warmup`` within ``bound + 1e-12``.

        The Theorem 5(i) *envelope occupancy* (1.0 for a clean run; the
        verdict only reports whether the max stayed inside), ``nan`` on
        an empty series.
        """
        devs = self._devs_after(warmup)
        if not devs:
            return math.nan
        return sum(1 for dev in devs if dev <= bound + 1e-12) / len(devs)


def deviation_series(samples: ClockSamples, corruptions: Sequence[CorruptionInterval],
                     pi: float, n: int, warmup: float = 0.0, *,
                     index: GoodSetIndex | None = None) -> list[tuple[float, float]]:
    """Per-sample maximum clock deviation over the good set after ``warmup``.

    Shorthand for ``DeviationSeries.measure(...).series(warmup)``.
    """
    return DeviationSeries.measure(samples, corruptions, pi, n,
                                   index=index).series(warmup)


# ----------------------------------------------------------------------
# Accuracy (Definition 3 ii)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class AccuracyReport:
    """Measured accuracy of good processors (Theorem 5(ii) subject).

    Attributes:
        max_discontinuity: Largest single clock correction applied by a
            processor while non-faulty.
        implied_drift: Smallest ``rho~`` making eq. (3) hold over every
            measured good stretch, given ``alpha = max_discontinuity``.
        stretches: Number of (node, good-stretch) pairs measured.
    """

    max_discontinuity: float
    implied_drift: float
    stretches: int


def good_stretches(corruptions: Sequence[CorruptionInterval], pi: float, n: int,
                   horizon: float) -> list[tuple[int, float, float]]:
    """Maximal stretches ``(node, t1, t2)`` where Definition 3(ii) applies.

    A stretch requires the node to be non-faulty during
    ``[t1 - PI, t2]``; stretches are clipped to ``[0, horizon]`` and the
    window requirement is clipped at time 0 like :func:`good_set`.

    Boundary convention: a stretch may start at exactly
    ``release + PI``, where the half-open reading of "non-faulty during"
    applies — the corruption *ends* at the instant the window begins, a
    measure-zero touch that cannot affect any clock reading.  (This is
    one instant more permissive than :func:`good_set`'s closed-interval
    reading, and strictly conservative for the accuracy measurement
    since recovery completes well within PI.)
    """
    stretches: list[tuple[int, float, float]] = []
    for node in range(n):
        bad = sorted((c.start, c.end) for c in corruptions if c.node == node)
        # Quiet gaps between corruption intervals (plus the run's edges).
        quiet: list[tuple[float, float]] = []
        cursor = 0.0
        for start, end in bad:
            if start > cursor:
                quiet.append((cursor, min(start, horizon)))
            cursor = max(cursor, end)
        if cursor < horizon:
            quiet.append((cursor, horizon))
        for lo, hi in quiet:
            t1 = lo + pi if lo > 0.0 else 0.0  # need [t1 - PI, t2] non-faulty
            if t1 < hi:
                stretches.append((node, t1, hi))
    return stretches


def stretch_accuracy(clocks: Mapping[int, "LogicalClock"],
                     corruptions: Sequence[CorruptionInterval], pi: float,
                     n: int, index: GoodSetIndex, horizon: float,
                     spacing: float, min_span: float,
                     endpoints: Callable[[int, float, float], tuple]
                     ) -> AccuracyReport:
    """The Definition 3(ii) read-out shared by both measurement paths.

    ``alpha`` (discontinuity) is taken as the largest adjustment a node
    applied while not faulty.  Given that ``alpha``, the implied drift is
    the smallest ``rho~`` for which eq. (3) holds across each measured
    stretch's endpoints.

    Args:
        clocks: Logical clocks (for their adjustment histories).
        corruptions: Audited corruption intervals.
        pi: Adversary period.
        n: Number of processors.
        index: The :class:`GoodSetIndex` for these corruptions.
        horizon: Time of the last sample (stretches are clipped to it).
        spacing: Grid spacing ``times[1] - times[0]`` (``0.0`` with one
            sample); a stretch must span two of it to be measured.
        min_span: Ignore stretches shorter than this (drift estimates
            over tiny spans are dominated by the discontinuity term).
        endpoints: ``endpoints(node, t1, t2)`` gives the ``(tau,
            clock value)`` of ``node`` at the first sample at or after
            ``t1`` and at the last at or before ``t2`` (within
            ``1e-12``), or raises :class:`MeasurementError`.
    """
    alpha = 0.0
    for node, clock in clocks.items():
        for tau, delta, _ in clock.adjustments:
            # Definition 3(ii) covers a correction at time tau only if
            # the node was non-faulty throughout [tau - PI, tau]; both
            # adversary resets and post-release recovery jumps fall
            # outside the guarantee.
            if node not in index.good_at(tau):
                continue
            alpha = max(alpha, abs(delta))

    floor = max(min_span, 2 * spacing)
    implied = 0.0
    measured = 0
    for node, t1, t2 in good_stretches(corruptions, pi, n, horizon):
        if t2 - t1 < floor:
            continue
        (tau1, value1), (tau2, value2) = endpoints(node, t1, t2)
        if tau2 <= tau1:
            continue
        span = tau2 - tau1
        advance = value2 - value1
        measured += 1
        # eq. (3): advance <= span * (1 + rho~) + alpha
        #          advance >= span / (1 + rho~) - alpha
        up = (advance - alpha) / span - 1.0
        down = span / (advance + alpha) - 1.0 if advance + alpha > 0 else math.inf
        implied = max(implied, up, down, 0.0)

    return AccuracyReport(max_discontinuity=alpha, implied_drift=implied, stretches=measured)


def accuracy_report(samples: ClockSamples, corruptions: Sequence[CorruptionInterval],
                    clocks: dict[int, "LogicalClock"], pi: float, n: int,
                    min_span: float = 0.0, *,
                    index: GoodSetIndex | None = None) -> AccuracyReport:
    """Measure discontinuity and implied logical drift over good stretches.

    :func:`stretch_accuracy` over recorded samples.

    Args:
        samples: Grid samples.
        corruptions: Audited corruption intervals.
        clocks: Logical clocks (for their adjustment histories).
        pi: Adversary period.
        n: Number of processors.
        min_span: Ignore stretches shorter than this.
        index: Prebuilt :class:`GoodSetIndex` for these corruptions.
    """
    times = samples.times
    if not times:
        raise MeasurementError("cannot measure accuracy with no samples")
    if index is None:
        index = GoodSetIndex(corruptions, pi, n)

    def endpoints(node: int, t1: float, t2: float):
        # The end sample must not cross into the next corruption (the
        # break-in may scramble the clock at exactly t2); at t2 ==
        # horizon this is the last sample.
        i1 = samples.index_at_or_after(t1)
        i2 = samples.index_at_or_before(t2)
        values = samples.clocks[node]
        return (times[i1], values[i1]), (times[i2], values[i2])

    spacing = times[1] - times[0] if len(times) > 1 else 0.0
    return stretch_accuracy(clocks, corruptions, pi, n, index, times[-1],
                            spacing, min_span, endpoints)


# ----------------------------------------------------------------------
# Recovery (the paper's third requirement)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RecoveryEvent:
    """Recovery measurement for one adversary release.

    Attributes:
        node: The released processor.
        released_at: Real time the adversary left.
        rejoined_at: First sample time after release at which the node's
            clock is within ``tolerance`` of the good range and remains
            so for the rest of the observation window (``inf`` if never).
        initial_distance: Clock distance to the good range at release.
    """

    node: int
    released_at: float
    rejoined_at: float
    initial_distance: float

    @property
    def recovery_time(self) -> float:
        """Elapsed real time from release to stable rejoin."""
        return self.rejoined_at - self.released_at


@dataclass(frozen=True)
class RecoveryReport:
    """All recovery events of a run.

    Attributes:
        events: One entry per adversary release observed in-sample.
        tolerance: Distance-to-good-range threshold used.
    """

    events: list[RecoveryEvent] = field(default_factory=list)
    tolerance: float = 0.0

    @property
    def max_recovery_time(self) -> float:
        """Worst recovery time (``inf`` when some node never rejoined)."""
        if not self.events:
            return 0.0
        return max(event.recovery_time for event in self.events)

    @property
    def all_recovered(self) -> bool:
        """Whether every released node stably rejoined."""
        return all(math.isfinite(event.recovery_time) for event in self.events)


class RecoveryScan:
    """The recovery measure's one scan, fed sample by sample.

    A release's scan starts at the first sample with ``tau >= end -
    1e-12`` (skipped when the good range is empty there) and keeps a
    *candidate*: the first sample since the last violation.  The
    candidate is confirmed as ``rejoined_at`` by the first sample past
    ``candidate + settle`` — checked *before* that sample's own
    violation test, since it lies outside the candidate's window — or
    by the end of the run.  That is the earliest sample whose whole
    settle window stays within ``tolerance`` of the good range, found in
    one pass.

    The good range a node is measured against leaves the node itself
    out: once PI has passed since its release it formally re-enters the
    good set, and a still-lost clock would otherwise widen the very
    range it is measured against.  Samples whose range is then empty
    are vacuously fine.

    Feed :meth:`observe` every sample with ``tau >= due`` (``-inf``
    while a release is unresolved, the next release's start threshold
    otherwise, ``inf`` once none is left); read the result with
    :meth:`report`.

    Args:
        corruptions: Audited corruption intervals (finite ends only are
            measured).
        tolerance: Maximum distance from the good range that counts as
            recovered.
        settle: Stability window.
    """

    __slots__ = ("corruptions", "tolerance", "settle", "due", "_waiting",
                 "_active", "_started")

    def __init__(self, corruptions: Sequence[CorruptionInterval],
                 tolerance: float, settle: float) -> None:
        self.corruptions = tuple(corruptions)
        self.tolerance = tolerance
        self.settle = settle
        # Finite releases by descending end, popped from the end.
        self._waiting = sorted(
            ((c.end, k) for k, c in enumerate(self.corruptions)
             if math.isfinite(c.end)), reverse=True)
        # One [node, initial distance, candidate] per started release, by
        # corruption position: the distance stays None for a skipped
        # release, the candidate is inf while there is none (so it is
        # also the report's rejoined_at); ``_active`` holds the
        # unresolved ones.
        self._started: dict[int, list] = {}
        self._active: list[list] = []
        self._schedule()

    def _schedule(self) -> None:
        waiting = self._waiting
        # The start threshold is ClockSamples.index_at_or_after's.
        self.due = (-math.inf if self._active else
                    waiting[-1][0] - 1e-12 if waiting else math.inf)

    def observe(self, tau: float, row: Sequence[float], good: frozenset[int],
                bounds: tuple[float, float] | None = None) -> None:
        """Feed one sample at or after :attr:`due`.

        Args:
            tau: The sample time.
            row: Every node's clock reading at ``tau``, indexed by node.
            good: The Definition 3 good set at ``tau``.
            bounds: ``row``'s range over ``good`` when the caller has it
                (reused for nodes outside ``good``).
        """
        waiting = self._waiting
        while waiting and tau >= waiting[-1][0] - 1e-12:
            k = waiting.pop()[1]
            self._started[k] = state = [self.corruptions[k].node, None, math.inf]
            self._active.append(state)
        settle, tolerance = self.settle, self.tolerance
        unresolved = []
        for state in self._active:
            node, initial, candidate = state
            if tau > candidate + settle:
                continue                # confirmed
            if bounds is None or node in good:
                others = [row[peer] for peer in good if peer != node]
                own = (min(others), max(others)) if others else None
            else:
                own = bounds
            value = row[node]
            if initial is None:
                if own is None:
                    continue            # nothing to measure against: skipped
                state[1] = max(0.0, max(own[0] - value, value - own[1]))
            if own is not None and (value < own[0] - tolerance
                                    or value > own[1] + tolerance):
                state[2] = math.inf
            elif candidate == math.inf:
                state[2] = tau
            unresolved.append(state)
        self._active = unresolved
        self._schedule()

    def report(self, horizon: float) -> RecoveryReport:
        """The events of every release before ``horizon`` (the last sample).

        An unconfirmed candidate's truncated window counts as stable.
        """
        events = []
        for k, corruption in enumerate(self.corruptions):
            state = self._started.get(k)
            if state is None or state[1] is None or corruption.end >= horizon:
                continue
            events.append(RecoveryEvent(
                node=corruption.node,
                released_at=corruption.end,
                rejoined_at=state[2],
                initial_distance=state[1],
            ))
        return RecoveryReport(events=events, tolerance=self.tolerance)


def recovery_report(samples: ClockSamples, corruptions: Sequence[CorruptionInterval],
                    pi: float, n: int, tolerance: float,
                    settle: float | None = None, *,
                    index: GoodSetIndex | None = None) -> RecoveryReport:
    """Measure the recovery time of every released processor.

    A node counts as rejoined at the first sample after its release
    where its clock is within ``tolerance`` of the good range and stays
    within it for the following ``settle`` seconds (default ``PI``), or
    to the end of the run if less remains.  :class:`RecoveryScan` over
    the recorded samples from the first release on, one good-set lookup
    per sample that some unresolved release needs.

    Args:
        samples: Grid samples.
        corruptions: Audited corruption intervals (finite ends only are
            measured).
        pi: Adversary period.
        n: Number of processors.
        tolerance: Maximum distance from the good range that counts as
            recovered; typically the Theorem 5 deviation bound.
        settle: Stability window; default ``pi``.
        index: Prebuilt :class:`GoodSetIndex` for these corruptions.
    """
    if index is None:
        index = GoodSetIndex(corruptions, pi, n)
    scan = RecoveryScan(corruptions, tolerance, pi if settle is None else settle)
    times = samples.times
    columns = [samples.clocks[node] for node in range(n)]
    cursor = index.cursor()
    i = 0
    while scan.due < math.inf:
        i = bisect.bisect_left(times, scan.due, i)
        if i == len(times):
            break
        scan.observe(times[i], [column[i] for column in columns],
                     cursor.included_at(times[i]))
        i += 1
    return scan.report(times[-1] if times else 0.0)
