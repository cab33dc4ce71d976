"""The clock-segment mirror: inline reads of piecewise-linear clocks.

Every hot loop of the repository reads logical clocks at non-decreasing
real times — the sampling grid (:class:`~repro.metrics.sampler.ClockSampler`,
:class:`~repro.metrics.streaming.OnlineMeasures`) and the batch
engine's event loop (:func:`repro.sim.vector.simulate_run`).  Between
two rate breakpoints a clock is one linear piece, so the read
``C(tau) = H(tau) + adj`` is the flat expression
``h + (tau - start) * rate + adj`` and needs no method call.

:class:`ClockMirror` keeps that current piece of every clock in four
flat columns and re-anchors a clock only when ``tau`` crosses one of
its breakpoints.  The pieces come from the public
:meth:`~repro.clocks.hardware.HardwareClock.linear_segments` accessor,
whose contract is that :meth:`~repro.clocks.hardware.HardwareClock.read`
evaluates the *same float expression* — so a mirrored read is
bit-identical to ``clock.read(tau)``, by construction rather than by
test.  A clock with no linear form (quantized, custom, or a duck-typed
object that only has ``read``) is served by its own ``read`` on every
call.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Any, Sequence

_INF = math.inf
_NEG_INF = -math.inf


class ClockMirror:
    """Current linear piece of each logical clock, in flat columns.

    Reads must come at **non-decreasing** ``tau`` per clock: the fast
    path only checks the upper end of the cached piece.  A consumer
    that inlines the read evaluates, for clock ``i``::

        if tau < mirror.next[i]:
            value = mirror.h[i] + (tau - mirror.s[i]) * mirror.r[i] + adj_i
        else:
            value = mirror.read_slow(i, tau)

    where ``adj_i`` is the clock's current ``adj``.  The column lists
    keep their identity for the mirror's lifetime (re-anchoring writes
    in place), so they can be bound to local names once.

    Args:
        clocks: Logical clocks (anything with ``read(tau)``; the linear
            fast path additionally needs ``adj`` and a ``hardware``
            whose ``linear_segments()`` returns a triple).

    Attributes:
        h: Hardware value at the start of each clock's cached piece.
        s: Real time at which the cached piece starts.
        r: Rate of the cached piece.
        next: Real time at which the cached piece ends (``inf`` for the
            last piece; ``-inf`` while the clock is not anchored or has
            no linear form, which routes every read to
            :meth:`read_slow`).
    """

    def __init__(self, clocks: Sequence[Any]) -> None:
        self.clocks = list(clocks)
        count = len(self.clocks)
        self.h = [0.0] * count
        self.s = [0.0] * count
        self.r = [1.0] * count
        self.next = [_NEG_INF] * count
        self._reads = [clock.read for clock in self.clocks]
        self._segments = []
        for clock in self.clocks:
            accessor = getattr(getattr(clock, "hardware", None),
                               "linear_segments", None)
            self._segments.append(accessor() if accessor is not None else None)
        self._any_linear = any(seg is not None for seg in self._segments)
        # Every clock's cached piece covers [.., _all_until): one
        # comparison admits the whole row to the fast path.  Pieces only
        # ever advance, so a stale (smaller) value is merely conservative.
        self._all_until = _NEG_INF

    def read_slow(self, i: int, tau: float) -> float:
        """Read clock ``i`` through its own ``read`` and re-anchor it.

        The real ``read`` keeps its domain check and serves clocks with
        no linear form; a linear clock's columns then move to the piece
        containing ``tau``.
        """
        value = self._reads[i](tau)
        segments = self._segments[i]
        if segments is not None:
            starts, h_at_start, rates = segments
            k = bisect_right(starts, tau) - 1
            if k < 0:
                k = 0
            self.h[i] = h_at_start[k]
            self.s[i] = starts[k]
            self.r[i] = rates[k]
            self.next[i] = starts[k + 1] if k + 1 < len(starts) else _INF
        return value

    def read_all(self, tau: float) -> list[float]:
        """Every clock's value at ``tau``, in construction order."""
        if tau < self._all_until:
            return [h + (tau - s) * r + clock.adj for h, s, r, clock
                    in zip(self.h, self.s, self.r, self.clocks)]
        if not self._any_linear:
            # Nothing to mirror (all duck-typed/quantized): skip the
            # per-clock piece test, worth ~25% of a streamed sample.
            return [read(tau) for read in self._reads]
        h, s, r, nxt, clocks = self.h, self.s, self.r, self.next, self.clocks
        read_slow = self.read_slow
        values = [h[i] + (tau - s[i]) * r[i] + clocks[i].adj
                  if tau < nxt[i] else read_slow(i, tau)
                  for i in range(len(nxt))]
        self._all_until = min(nxt)
        return values
