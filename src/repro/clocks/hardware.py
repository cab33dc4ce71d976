"""Hardware-clock models (the paper's ``H_p``).

Definition 1 of the paper models each processor's hardware clock as a
smooth, monotonically increasing function of real time, with drift
bounded by ``rho`` (eq. 2):

    (t2 - t1) / (1 + rho)  <=  H(t2) - H(t1)  <=  (t2 - t1) * (1 + rho)

All clock models here are piecewise-linear in real time with per-segment
rates confined to ``[1/(1+rho), 1+rho]``, which satisfies eq. (2) for
every pair of times (each segment does, and the bound composes over
concatenation).  Piecewise-linear clocks are exactly invertible, which
the simulator needs to schedule events at *local* clock targets.

Three concrete models are provided:

* :class:`FixedRateClock` — a constant rate, the classic drift model.
* :class:`PiecewiseRateClock` — an explicit rate schedule, used to model
  adversarially chosen drift (the worst case of eq. 2) and temperature
  steps.
* random-walk "wander" clocks are built by feeding
  :func:`repro.clocks.drift.wander_schedule` into
  :class:`PiecewiseRateClock`.
"""

from __future__ import annotations

import bisect
import math
from typing import Sequence

from repro.errors import ClockError

#: ``(starts, h_at_start, rates)`` of :meth:`HardwareClock.linear_segments`.
LinearSegments = tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...]]


class HardwareClock:
    """Abstract hardware clock: a monotone map from real to local time.

    Subclasses must implement :meth:`read`, :meth:`real_time_at`, and
    :meth:`rate_at`.  ``origin`` is the earliest real time at which the
    clock is defined (simulations start at 0).
    """

    def __init__(self, rho: float, origin: float = 0.0) -> None:
        if rho < 0:
            raise ClockError(f"drift bound rho must be non-negative, got {rho}")
        self.rho = float(rho)
        self.origin = float(origin)

    # -- required interface -------------------------------------------------

    def read(self, tau: float) -> float:
        """Hardware time ``H(tau)`` at real time ``tau``."""
        raise NotImplementedError

    def real_time_at(self, h: float) -> float:
        """Inverse map: the real time at which the clock reads ``h``."""
        raise NotImplementedError

    def rate_at(self, tau: float) -> float:
        """Instantaneous rate ``dH/dtau`` at real time ``tau``."""
        raise NotImplementedError

    def linear_segments(self) -> LinearSegments | None:
        """The clock as linear pieces ``(starts, h_at_start, rates)``.

        A clock that returns a triple promises that for every ``tau``
        in piece ``k`` (``starts[k] <= tau < starts[k + 1]``; the last
        piece extends to infinity and the first also covers the
        ``1e-12`` of slack before the origin) :meth:`read` evaluates
        exactly ``h_at_start[k] + (tau - starts[k]) * rates[k]`` — the
        same float expression, so a consumer that mirrors the current
        piece (:class:`~repro.clocks.mirror.ClockMirror`) reproduces
        every reading bit for bit.  ``None`` (the default) means the
        clock has no such form and must be read through :meth:`read`.
        """
        return None

    # -- derived helpers -----------------------------------------------------

    def real_time_after(self, tau: float, local_duration: float) -> float:
        """Real time at which ``local_duration`` units of clock have elapsed.

        This is the primitive behind local timers: "wake me after
        ``SyncInt`` units of my own clock, starting now".
        """
        if local_duration < 0:
            raise ClockError(f"local_duration must be non-negative, got {local_duration}")
        return self.real_time_at(self.read(tau) + local_duration)

    def min_rate(self) -> float:
        """Smallest rate permitted by the drift bound."""
        return 1.0 / (1.0 + self.rho)

    def max_rate(self) -> float:
        """Largest rate permitted by the drift bound."""
        return 1.0 + self.rho

    def _check_rate(self, rate: float) -> float:
        lo, hi = self.min_rate(), self.max_rate()
        # Allow a hair of float slack so rates computed as 1/(1+rho) pass.
        slack = 1e-12 * max(1.0, hi)
        if not (lo - slack <= rate <= hi + slack):
            raise ClockError(
                f"rate {rate} outside drift envelope [{lo}, {hi}] for rho={self.rho}"
            )
        return float(rate)

    def _check_domain(self, tau: float) -> None:
        if tau < self.origin - 1e-12:
            raise ClockError(f"clock read at tau={tau} before origin {self.origin}")


class FixedRateClock(HardwareClock):
    """A clock that runs at a constant rate relative to real time.

    Args:
        rho: Drift bound; ``rate`` must lie in ``[1/(1+rho), 1+rho]``.
        rate: Constant rate ``dH/dtau``.
        offset: Hardware reading at ``origin`` (``H(origin)``).
        origin: Real time at which the clock starts.
    """

    def __init__(self, rho: float, rate: float = 1.0, offset: float = 0.0,
                 origin: float = 0.0) -> None:
        super().__init__(rho, origin)
        self.rate = self._check_rate(rate)
        self.offset = float(offset)

    def read(self, tau: float) -> float:
        self._check_domain(tau)
        return self.offset + (tau - self.origin) * self.rate

    def real_time_at(self, h: float) -> float:
        if h < self.offset - 1e-12:
            raise ClockError(f"hardware value {h} precedes clock start value {self.offset}")
        return self.origin + (h - self.offset) / self.rate

    def rate_at(self, tau: float) -> float:
        self._check_domain(tau)
        return self.rate

    def linear_segments(self) -> LinearSegments:
        return (self.origin,), (self.offset,), (self.rate,)


class PiecewiseRateClock(HardwareClock):
    """A clock whose rate changes at given real-time breakpoints.

    The schedule is a sequence of ``(start_tau, rate)`` pairs, sorted by
    ``start_tau``; the final rate extends to infinity.  Between
    breakpoints the clock is linear, so both directions of the time map
    are exact.

    Args:
        rho: Drift bound; every rate must lie in ``[1/(1+rho), 1+rho]``.
        schedule: Non-empty ``(start_tau, rate)`` pairs; the first
            ``start_tau`` defines the clock's origin.
        offset: Hardware reading at the origin.
    """

    def __init__(self, rho: float, schedule: Sequence[tuple[float, float]],
                 offset: float = 0.0) -> None:
        if not schedule:
            raise ClockError("PiecewiseRateClock requires a non-empty schedule")
        starts = [float(s) for s, _ in schedule]
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ClockError("schedule start times must be strictly increasing")
        super().__init__(rho, origin=starts[0])
        self._starts = starts
        self._rates = [self._check_rate(r) for _, r in schedule]
        self.offset = float(offset)
        # Cumulative hardware time at each breakpoint.
        self._h_at_start = [self.offset]
        for i in range(1, len(starts)):
            span = starts[i] - starts[i - 1]
            self._h_at_start.append(self._h_at_start[-1] + span * self._rates[i - 1])
        # Last segment served: simulation reads are near-monotone in tau,
        # so the hint usually hits and skips the bisect entirely.  Pure
        # cache — resolved segments (and thus readings) are unchanged.
        self._seg_hint = 0

    def _segment_for_tau(self, tau: float) -> int:
        starts = self._starts
        i = self._seg_hint
        if starts[i] <= tau:
            j = i + 1
            if j == len(starts) or tau < starts[j]:
                return i
        i = bisect.bisect_right(starts, tau) - 1
        if i < 0:
            i = 0
        self._seg_hint = i
        return i

    def read(self, tau: float) -> float:
        # Hot path: domain check and segment lookup are inlined (the
        # helper-based equivalent costs two extra calls per read, and a
        # simulation reads clocks on every message and sample).
        starts = self._starts
        i = self._seg_hint
        if starts[i] <= tau:
            j = i + 1
            if j != len(starts) and tau >= starts[j]:
                i = bisect.bisect_right(starts, tau, j) - 1
                self._seg_hint = i
        else:
            if tau < starts[0] - 1e-12:
                raise ClockError(f"clock read at tau={tau} before origin {self.origin}")
            i = bisect.bisect_right(starts, tau, 0, i) - 1
            if i < 0:
                i = 0
            self._seg_hint = i
        return self._h_at_start[i] + (tau - starts[i]) * self._rates[i]

    def real_time_at(self, h: float) -> float:
        if h < self.offset - 1e-12:
            raise ClockError(f"hardware value {h} precedes clock start value {self.offset}")
        i = max(0, bisect.bisect_right(self._h_at_start, h) - 1)
        return self._starts[i] + (h - self._h_at_start[i]) / self._rates[i]

    def rate_at(self, tau: float) -> float:
        self._check_domain(tau)
        return self._rates[self._segment_for_tau(tau)]

    def linear_segments(self) -> LinearSegments:
        return (tuple(self._starts), tuple(self._h_at_start),
                tuple(self._rates))

    @property
    def breakpoints(self) -> list[float]:
        """Real times at which the rate changes (read-only copy)."""
        return list(self._starts)


class QuantizedClock(HardwareClock):
    """Reading-granularity wrapper: a clock that ticks in steps.

    Real hardware clocks are read at a finite granularity (a register
    incremented every ``tick`` time units).  The paper's model assumes
    smooth clocks; quantization is an implementation artifact that
    effectively adds up to ``tick`` to the reading error, and the
    ablation bench measures exactly that.  The wrapper quantizes
    *readings* (``read`` returns multiples of ``tick``); inverse
    queries and rates defer to the underlying continuous clock, which
    keeps local-duration timers exact (a real system's timer interrupt
    also runs off the raw oscillator, not the quantized register).

    Note: a quantized reading is a step function, so the eq. (2) lower
    bound holds only up to an additive ``tick`` — the model deviation
    documented in DESIGN.md and absorbed by enlarging ``epsilon``.

    Args:
        inner: The underlying smooth clock.
        tick: Reading granularity (must be positive).
    """

    def __init__(self, inner: HardwareClock, tick: float) -> None:
        if tick <= 0:
            raise ClockError(f"tick must be positive, got {tick}")
        super().__init__(inner.rho, inner.origin)
        self.inner = inner
        self.tick = float(tick)

    def read(self, tau: float) -> float:
        return math.floor(self.inner.read(tau) / self.tick) * self.tick

    def real_time_at(self, h: float) -> float:
        """Earliest real time at which the quantized reading reaches ``h``."""
        return self.inner.real_time_at(h)

    def real_time_after(self, tau: float, local_duration: float) -> float:
        # Timers run off the raw oscillator: exact, not quantized.
        return self.inner.real_time_after(tau, local_duration)

    def rate_at(self, tau: float) -> float:
        return self.inner.rate_at(tau)
