"""Clock sampling, good-set tracking, and the good-set index.

Theorem 5's guarantees quantify over the *good set* of Definition 3:
at time ``tau`` the synchronization bound applies to processors that
were non-faulty throughout ``[tau - PI, tau]``.  The sampler records
every processor's clock on a real-time grid; :func:`good_set` computes
the Definition 3 set from the audited corruption intervals.

Two implementations of the same semantics live here:

* :func:`good_set` / :func:`faulty_at` — the O(corruptions) reference
  predicates, evaluated per query.  Simple, obviously correct, and the
  oracle the property suite compares against.
* :class:`GoodSetIndex` — a one-pass sweep over corruption-interval
  endpoints yielding *piecewise-constant* good sets: point lookups cost
  O(log C), and batch iteration over a sample grid
  (:meth:`WindowIndex.runs`) is O(1) amortized per sample.  The index
  is **bit-exact** against the reference predicates for every float
  ``tau``: piece boundaries are located by bisection over the float
  ordinals of the reference predicate itself, so no algebraic
  rearrangement (with its own rounding) is ever trusted.

:class:`ClockSamples` stores every trace as a flat ``array('d')``
column (see :mod:`repro.metrics.columns`), which halves memory against
boxed-float lists and gives the measures a buffer numpy can reduce
zero-copy.
"""

from __future__ import annotations

import bisect
import math
import struct
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from repro.clocks.mirror import ClockMirror
from repro.errors import MeasurementError
from repro.metrics.columns import as_column, new_column

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from array import array

    from repro.clocks.logical import LogicalClock
    from repro.sim.engine import Simulator


@dataclass(frozen=True)
class CorruptionInterval:
    """One adversary occupation of one node.

    Attributes:
        node: The corrupted processor.
        start: Real time of break-in (non-negative).
        end: Real time of release (``inf`` if never released).
    """

    node: int
    start: float
    end: float

    def overlaps(self, lo: float, hi: float) -> bool:
        """Whether this corruption intersects the window ``[lo, hi]``."""
        return self.start <= hi and self.end >= lo


def good_set(corruptions: Sequence[CorruptionInterval], tau: float, pi: float,
             n: int) -> set[int]:
    """Definition 3's good set: nodes non-faulty during ``[tau - PI, tau]``.

    Windows are clipped at time 0 (nothing was faulty before the run).
    This is the O(corruptions) reference predicate; batch consumers use
    :class:`GoodSetIndex`, which matches it bit-for-bit.
    """
    window_lo = max(0.0, tau - pi)
    bad = {c.node for c in corruptions if c.overlaps(window_lo, tau)}
    return set(range(n)) - bad


def faulty_at(corruptions: Sequence[CorruptionInterval], tau: float) -> set[int]:
    """Nodes controlled by the adversary at the instant ``tau``."""
    return {c.node for c in corruptions if c.start <= tau <= c.end}


# ----------------------------------------------------------------------
# Exact float-boundary search
# ----------------------------------------------------------------------
#
# A corruption [s, e] excludes a node from the window query at anchor
# ``t`` exactly when  s <= fl(t + after)  and  e >= max(0, fl(t - before)).
# Both conditions are monotone in ``t``, so each corruption excludes the
# node on one closed interval of anchors [L, U].  Because the conditions
# are evaluated in floating point, L and U are *not* simply ``s - after``
# and ``e + before``: they are the exact flip points of the predicates,
# which we find by bisection over float ordinals (total order on the
# finite doubles).  This is what makes the index bit-exact against the
# reference predicates.

_TOP = struct.unpack("<q", struct.pack("<d", math.inf))[0]


def _float_ordinal(x: float) -> int:
    """Map a float to an integer preserving numeric order (ties: +/-0)."""
    u = struct.unpack("<Q", struct.pack("<d", x))[0]
    return u if u < 1 << 63 else (1 << 63) - u


def _ordinal_float(o: int) -> float:
    """Inverse of :func:`_float_ordinal`."""
    u = o if o >= 0 else (1 << 63) - o
    return struct.unpack("<d", struct.pack("<Q", u))[0]


def _largest_true(pred: Callable[[float], bool], guess: float) -> float | None:
    """Largest float where a monotone true-below predicate holds.

    ``pred`` must be True on ``(-inf, U]`` and False above ``U`` for
    some threshold ``U``; returns ``U`` (``inf`` when never false,
    ``None`` when never true).  ``guess`` seeds the bracket and only
    affects speed, not the result.
    """
    lo = hi = _float_ordinal(guess)
    step = 1
    if pred(_ordinal_float(lo)):
        while True:
            hi = min(lo + step, _TOP)
            if not pred(_ordinal_float(hi)):
                break
            if hi == _TOP:
                return math.inf
            lo = hi
            step <<= 1
    else:
        while True:
            lo = max(hi - step, -_TOP)
            if pred(_ordinal_float(lo)):
                break
            if lo == -_TOP:
                return None
            hi = lo
            step <<= 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pred(_ordinal_float(mid)):
            lo = mid
        else:
            hi = mid
    return _ordinal_float(lo)


def _smallest_true(pred: Callable[[float], bool], guess: float) -> float | None:
    """Smallest float where a monotone true-above predicate holds.

    Mirror of :func:`_largest_true` for predicates that are False below
    some threshold ``L`` and True on ``[L, inf)``.
    """
    lo = hi = _float_ordinal(guess)
    step = 1
    if pred(_ordinal_float(hi)):
        while True:
            lo = max(hi - step, -_TOP)
            if not pred(_ordinal_float(lo)):
                break
            if lo == -_TOP:
                return -math.inf
            hi = lo
            step <<= 1
    else:
        while True:
            hi = min(lo + step, _TOP)
            if pred(_ordinal_float(hi)):
                break
            if hi == _TOP:
                return None
            lo = hi
            step <<= 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pred(_ordinal_float(mid)):
            hi = mid
        else:
            lo = mid
    return _ordinal_float(hi)


def _exclusion_span(corruption: CorruptionInterval, before: float,
                    after: float) -> tuple[float, float] | None:
    """Closed anchor interval on which ``corruption`` excludes its node.

    The anchor query window is ``[max(0, t - before), t + after]``; the
    span bounds are the exact floating-point flip points of the two
    overlap conditions (see module comment above).
    """
    s, e = corruption.start, corruption.end

    def cond_start(t: float) -> bool:
        return s <= t + after

    def cond_end(t: float) -> bool:
        return e >= max(0.0, t - before)

    lower = _smallest_true(cond_start, s - after if math.isfinite(s - after) else 0.0)
    if lower is None:
        return None
    if math.isinf(e) and e > 0:
        upper: float | None = math.inf
    else:
        upper = _largest_true(cond_end, e + before if math.isfinite(e + before) else 0.0)
    if upper is None or lower > upper:
        return None
    return lower, upper


# ----------------------------------------------------------------------
# Piecewise-constant window index
# ----------------------------------------------------------------------

class WindowIndex:
    """Piecewise-constant node sets for a sliding-window overlap query.

    Precomputes, in one endpoint sweep, the answer to "which nodes have
    a corruption overlapping ``[max(0, t - before), t + after]``" for
    *every* anchor ``t``: the timeline decomposes into at most
    ``2C + 1`` pieces (open gaps between boundaries and the boundary
    points themselves) on which the answer is constant.

    Lookups (:meth:`excluded_at` / :meth:`included_at`) cost O(log C);
    iterating a sorted sample grid (:meth:`runs` / :meth:`cursor`) costs
    O(1) amortized per sample.  Results are bit-exact against evaluating
    the overlap predicate per query.

    Args:
        corruptions: Audited corruption intervals.
        n: Total number of nodes (the universe).
        before: Window extension into the past (e.g. ``PI``).
        after: Window extension into the future (0 for Definition 3).
    """

    def __init__(self, corruptions: Iterable[CorruptionInterval], n: int,
                 before: float, after: float = 0.0) -> None:
        self.n = n
        self.before = float(before)
        self.after = float(after)
        self._all = frozenset(range(n))
        per_node: dict[int, list[tuple[float, float]]] = {}
        for corruption in corruptions:
            span = _exclusion_span(corruption, self.before, self.after)
            if span is not None:
                per_node.setdefault(corruption.node, []).append(span)

        starts: dict[float, list[int]] = {}
        ends: dict[float, list[int]] = {}
        boundary_set: set[float] = set()
        for node, spans in per_node.items():
            spans.sort()
            merged: list[list[float]] = []
            for lo, hi in spans:
                if merged and lo <= merged[-1][1]:
                    merged[-1][1] = max(merged[-1][1], hi)
                else:
                    merged.append([lo, hi])
            for lo, hi in merged:
                starts.setdefault(lo, []).append(node)
                boundary_set.add(lo)
                if math.isfinite(hi):
                    ends.setdefault(hi, []).append(node)
                    boundary_set.add(hi)

        self._bounds: list[float] = sorted(boundary_set)
        excluded: list[frozenset[int]] = []
        current: set[int] = set()
        for b in self._bounds:
            excluded.append(frozenset(current))          # open gap before b
            current.update(starts.get(b, ()))
            excluded.append(frozenset(current))          # the point b itself
            current.difference_update(ends.get(b, ()))
        excluded.append(frozenset(current))              # gap after the last bound
        self._excluded = excluded
        self._included = [self._all - piece for piece in excluded]

    # -- point lookups -------------------------------------------------

    def _piece(self, tau: float) -> int:
        i = bisect.bisect_left(self._bounds, tau)
        if i < len(self._bounds) and self._bounds[i] == tau:
            return 2 * i + 1
        return 2 * i

    def excluded_at(self, tau: float) -> frozenset[int]:
        """Nodes with a corruption overlapping the window anchored at ``tau``."""
        return self._excluded[self._piece(tau)]

    def included_at(self, tau: float) -> frozenset[int]:
        """Complement of :meth:`excluded_at` within ``range(n)``."""
        return self._included[self._piece(tau)]

    @property
    def boundaries(self) -> list[float]:
        """The piece boundaries, ascending (read-only copy)."""
        return list(self._bounds)

    # -- batch iteration -----------------------------------------------

    def runs(self, times: Sequence[float], start: int = 0,
             stop: int | None = None) -> Iterator[tuple[int, int, frozenset[int]]]:
        """Maximal runs of equal included sets over a sorted time grid.

        Yields ``(lo, hi, included)`` with ``lo < hi`` covering
        ``times[start:stop]`` without gaps: every sample index belongs
        to exactly one run.  Cost is O(runs * log samples) — O(1)
        amortized per sample for any realistic grid.

        Args:
            times: Ascending sample times.
            start: First sample index to cover.
            stop: One past the last index (default: ``len(times)``).
        """
        n_samples = len(times) if stop is None else stop
        bounds = self._bounds
        i = start
        run_lo = start
        run_set: frozenset[int] | None = None
        while i < n_samples:
            piece = self._piece(times[i])
            half, point = divmod(piece, 2)
            if point:
                j = bisect.bisect_right(times, bounds[half], i, n_samples)
            elif half < len(bounds):
                j = bisect.bisect_left(times, bounds[half], i, n_samples)
            else:
                j = n_samples
            included = self._included[piece]
            if run_set is None:
                run_set = included
            elif included != run_set:
                yield run_lo, i, run_set
                run_lo, run_set = i, included
            i = j
        if run_set is not None and run_lo < n_samples:
            yield run_lo, n_samples, run_set

    def cursor(self) -> "WindowCursor":
        """An O(1)-amortized lookup cursor for non-decreasing queries."""
        return WindowCursor(self)


class WindowCursor:
    """Streaming lookup into a :class:`WindowIndex`.

    For a *non-decreasing* sequence of query times (a live sampling
    grid), :meth:`included_at` walks the piece list forward instead of
    bisecting, making the whole pass O(samples + pieces); a query that
    stays inside the current open gap costs one comparison.
    """

    def __init__(self, index: WindowIndex) -> None:
        self._index = index
        self._pos = 0
        self._current = index._included[0]
        # Exclusive end of the current open gap; -inf while the cursor
        # sits on a boundary point (the next query must re-walk).
        self._gap_end = -math.inf

    def included_at(self, tau: float) -> frozenset[int]:
        """Included set at ``tau``; ``tau`` must not decrease across calls."""
        if tau < self._gap_end:
            return self._current
        bounds = self._index._bounds
        pos = self._pos
        while True:
            half, point = divmod(pos, 2)
            if point:
                if tau <= bounds[half]:
                    break
            elif half >= len(bounds) or tau < bounds[half]:
                break
            pos += 1
        self._pos = pos
        if point:
            self._gap_end = -math.inf
        else:
            self._gap_end = bounds[half] if half < len(bounds) else math.inf
        self._current = self._index._included[pos]
        return self._current


class GoodSetIndex(WindowIndex):
    """Definition 3 good sets, indexed for O(log C) lookup.

    One endpoint sweep turns the audited corruption intervals into
    piecewise-constant good sets: a corruption ``[s, e]`` of node ``p``
    keeps ``p`` out of the good set for every ``tau`` with
    ``s <= tau`` and ``e >= max(0, tau - PI)`` — a single closed
    ``tau``-interval whose float-exact bounds the sweep precomputes.

    Guaranteed bit-identical to :func:`good_set` for every float ``tau``
    (the property suite enforces this against random corruption sets).

    Args:
        corruptions: Audited corruption intervals.
        pi: The adversary period ``PI`` (Definition 3 window length).
        n: Total number of processors.
    """

    def __init__(self, corruptions: Sequence[CorruptionInterval], pi: float,
                 n: int) -> None:
        super().__init__(corruptions, n, before=pi, after=0.0)
        self.pi = float(pi)
        self._corruptions = tuple(corruptions)

    @property
    def corruptions(self) -> tuple[CorruptionInterval, ...]:
        """The corruption intervals this index was built from."""
        return self._corruptions

    def good_at(self, tau: float) -> frozenset[int]:
        """The good set at ``tau`` (shared frozenset; do not mutate)."""
        return self.included_at(tau)

    def good_set(self, tau: float) -> set[int]:
        """A fresh mutable copy of the good set at ``tau``."""
        return set(self.included_at(tau))


# ----------------------------------------------------------------------
# Columnar samples
# ----------------------------------------------------------------------

@dataclass
class ClockSamples:
    """Clock readings of every node on a shared real-time grid.

    Storage is columnar: ``times`` and every per-node trace are flat
    ``array('d')`` columns (list/tuple inputs are converted on
    construction).  Indexing semantics are unchanged from the historic
    list-of-floats layout; bulk reductions go through
    :mod:`repro.metrics.columns`, which picks the numpy fast path when
    available and guarantees byte-identical results either way.

    Attributes:
        times: Strictly increasing sample times (float column).
        clocks: ``clocks[node][i]`` is ``C_node(times[i])`` (float
            columns).
    """

    times: "array" = field(default_factory=new_column)
    clocks: dict[int, "array"] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.times = as_column(self.times)
        self.clocks = {node: as_column(vals) for node, vals in self.clocks.items()}

    @property
    def n(self) -> int:
        """Number of sampled nodes."""
        return len(self.clocks)

    def __len__(self) -> int:
        return len(self.times)

    def column(self, node: int) -> "array":
        """The raw float column of one node's trace (no copy)."""
        return self.clocks[node]

    def bias(self, node: int, index: int) -> float:
        """Bias ``B_node = C_node - tau`` at sample ``index``."""
        return self.clocks[node][index] - self.times[index]

    def index_at_or_after(self, tau: float) -> int:
        """Index of the first sample at or after ``tau``.

        Raises:
            MeasurementError: If ``tau`` is past the last sample.
        """
        i = bisect.bisect_left(self.times, tau - 1e-12)
        if i >= len(self.times):
            raise MeasurementError(
                f"no sample at or after tau={tau}; run ends at {self.times[-1] if self.times else None}"
            )
        return i

    def index_at_or_before(self, tau: float) -> int:
        """Index of the last sample at or before ``tau``.

        Raises:
            MeasurementError: If ``tau`` precedes the first sample.
        """
        i = bisect.bisect_right(self.times, tau + 1e-12) - 1
        if i < 0:
            raise MeasurementError(
                f"no sample at or before tau={tau}; run starts at {self.times[0] if self.times else None}"
            )
        return i


class ClockSampler:
    """Schedules periodic clock sampling on a simulator.

    Args:
        sim: The simulator whose real time drives the grid.
        clocks: Logical clocks by node id.
        interval: Grid spacing in real time.
        on_sample: Optional callback invoked as ``on_sample(tau, index)``
            after each grid point is recorded.  This is how the flight
            recorder's live probes observe the run without adding any
            simulator events of their own (the schedule — and hence the
            run — is identical with or without observers).
        record: When False, grid events still fire (and drive
            ``on_sample``) but no trace is stored — streaming consumers
            (:class:`~repro.metrics.streaming.OnlineMeasures`) compute
            their measures from the callback, dropping the
            O(samples x n) trace memory entirely.

    Attributes:
        samples: The accumulating :class:`ClockSamples` (stays empty
            when ``record=False``).
    """

    def __init__(self, sim: "Simulator", clocks: dict[int, "LogicalClock"],
                 interval: float,
                 on_sample: Callable[[float, int], None] | None = None,
                 record: bool = True) -> None:
        if interval <= 0:
            raise MeasurementError(f"sampling interval must be positive, got {interval}")
        self.sim = sim
        self.clocks = clocks
        self.interval = float(interval)
        self.on_sample = on_sample
        self.record = bool(record)
        self.samples = ClockSamples(times=new_column(),
                                    clocks={node: new_column() for node in clocks})
        self._count = 0
        # _sample runs on every grid point and the node set is fixed:
        # the column appends are bound once, and the row of readings
        # comes from the shared segment mirror (bit-identical to
        # clock.read, see repro.clocks.mirror) instead of n read calls.
        self._appends = [self.samples.clocks[node].append for node in clocks]
        self._mirror = ClockMirror(list(clocks.values())) if self.record else None

    def start(self, until: float) -> None:
        """Schedule sampling events on the grid ``0, dt, 2dt, ... <= until``."""
        t = 0.0
        while t <= until + 1e-12:
            self.sim.schedule_at(t, self._sample, tag="sample")
            t += self.interval

    def _sample(self) -> None:
        tau = self.sim.now
        if self.record:
            times = self.samples.times
            times.append(tau)
            for append, value in zip(self._appends,
                                     self._mirror.read_all(tau)):
                append(value)
            index = len(times) - 1
        else:
            index = self._count
        self._count += 1
        if self.on_sample is not None:
            self.on_sample(tau, index)
