"""Convergence functions (Figure 1, lines 6-12).

A convergence function maps a processor's clock estimates to a signed
correction to apply to its own clock.  All corrections are expressed in
the *relative* frame of Figure 1: ``0`` is the processor's own clock,
an estimate ``d_q`` is "peer ``q`` is ``d_q`` ahead of me".

:class:`PaperConvergence` is the paper's contribution.  The remaining
functions are comparison baselines:

* :class:`ClampedConvergence` — any convergence function with the
  per-sync correction magnitude capped, isolating the Fetzer-Cristian
  [9] "minimal correction" design goal that the paper argues is
  incompatible with recovery (Section 1.1).
* :class:`TrimmedMeanConvergence` — discard the ``f`` lowest and ``f``
  highest estimates and average the rest; the classic fault-tolerant
  average of Lamport/Melliar-Smith-style algorithms.
* :class:`MeanConvergence` — unprotected averaging (NTP-flavoured);
  trivially hijacked by a Byzantine peer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.core.estimation import ClockEstimate
from repro.errors import ParameterError


def kth_smallest(values: list[float], k: int) -> float:
    """The ``k+1``-st smallest value (0-indexed ``k``-th order statistic)."""
    if not (0 <= k < len(values)):
        raise ParameterError(f"order statistic {k} out of range for {len(values)} values")
    return sorted(values)[k]


def kth_largest(values: list[float], k: int) -> float:
    """The ``k+1``-st largest value."""
    if not (0 <= k < len(values)):
        raise ParameterError(f"order statistic {k} out of range for {len(values)} values")
    return sorted(values, reverse=True)[k]


def paper_order_statistics(estimates: list[ClockEstimate], f: int) -> tuple[float, float]:
    """Return Figure 1's ``(m, M)`` order statistics for ``estimates``.

    ``m`` is the ``f+1``-st smallest overestimate, ``M`` the ``f+1``-st
    largest underestimate.  Exposed separately so traces and analysis
    tools can record the statistics for any convergence function.
    """
    m = kth_smallest([e.overestimate for e in estimates], f)
    big_m = kth_largest([e.underestimate for e in estimates], f)
    return m, big_m


@dataclass(frozen=True)
class CorrectionDecision:
    """A convergence function's full verdict for one Sync execution.

    Produced by :meth:`ConvergenceFunction.decide` so that the trace
    record of *which Figure 1 branch fired* comes from the same
    computation as the applied correction — the two cannot silently
    diverge.

    Attributes:
        correction: Signed amount to add to the clock's ``adj``.
        m: Figure 1's low statistic (``f+1``-st smallest overestimate);
            ``nan`` when the function has no applicable order statistics.
        big_m: Figure 1's high statistic (``f+1``-st largest
            underestimate); ``nan`` when not applicable.
        own_discarded: True when the WayOff branch fired and the
            processor ignored its own clock.  Always False for
            baselines that have no such branch.
    """

    correction: float
    m: float
    big_m: float
    own_discarded: bool


def decide_arrays(overestimates: Sequence[float], underestimates: Sequence[float],
                  f: int, way_off: float) -> CorrectionDecision:
    """Figure 1 lines 6-12 on raw overestimate/underestimate views.

    The scalar decision kernel shared by :class:`PaperConvergence` (which
    builds the views from :class:`ClockEstimate` objects) and the batch
    engine in :mod:`repro.sim.vector` (which keeps per-peer estimates in
    flat struct-of-arrays state and passes slices directly).  Keeping one
    kernel guarantees the backends cannot diverge.

    Args:
        overestimates: One ``d_q + a_q`` per estimate (``+inf`` for a
            timed-out peer).
        underestimates: One ``d_q - a_q`` per estimate (``-inf`` for a
            timed-out peer), in any order — only the multiset matters.
        f: Fault bound used by order-statistic selection.
        way_off: The Figure 1 credibility threshold.
    """
    if len(overestimates) < 2 * f + 1:
        raise ParameterError(
            f"need at least 2f+1={2 * f + 1} estimates to tolerate f={f}; "
            f"got {len(overestimates)}"
        )
    m = kth_smallest(list(overestimates), f)
    big_m = kth_largest(list(underestimates), f)
    if not (math.isfinite(m) and math.isfinite(big_m)):
        # More than f peers timed out (or a NaN slipped past the
        # estimation layer's sanitizer — NaN fails isfinite too);
        # no safe correction exists.  Defense in depth behind the
        # message validation in EstimationSession.on_pong.
        return CorrectionDecision(0.0, m, big_m, own_discarded=False)
    if m >= -way_off and big_m <= way_off:
        # Own clock credible: extend [m, M] to include 0 and average.
        return CorrectionDecision((min(m, 0.0) + max(big_m, 0.0)) / 2.0,
                                  m, big_m, own_discarded=False)
    # WayOff branch: the own clock is discarded outright.
    return CorrectionDecision((m + big_m) / 2.0, m, big_m, own_discarded=True)


class ConvergenceFunction:
    """Maps estimates to a clock correction (relative frame)."""

    name = "abstract"

    def decide(self, estimates: list[ClockEstimate], f: int, way_off: float
               ) -> CorrectionDecision:
        """Compute the correction together with its trace metadata.

        The default wraps :meth:`correction` and reports the Figure 1
        order statistics for the trace (``nan`` when they do not exist
        for this estimate set); functions with a WayOff branch override
        this to report the branch actually taken.
        """
        correction = self.correction(estimates, f, way_off)
        try:
            m, big_m = paper_order_statistics(estimates, f)
        except ParameterError:
            m = big_m = math.nan
        return CorrectionDecision(correction=correction, m=m, big_m=big_m,
                                  own_discarded=False)

    def correction(self, estimates: list[ClockEstimate], f: int, way_off: float) -> float:
        """Compute the correction to add to the local clock.

        Args:
            estimates: One per consulted processor (self included when
                the protocol is configured that way).
            f: Fault bound used by order-statistic selection.
            way_off: The Figure 1 threshold (ignored by baselines that
                have no such concept).

        Returns:
            A finite correction, or ``0.0`` when the estimates are too
            degenerate to act on (e.g. more than ``f`` timeouts leave the
            order statistics infinite).
        """
        raise NotImplementedError


class PaperConvergence(ConvergenceFunction):
    """The Sync convergence function of Figure 1.

    Per peer, form the overestimate ``d_q + a_q`` and underestimate
    ``d_q - a_q``.  Let ``m`` be the ``f+1``-st smallest overestimate
    and ``M`` the ``f+1``-st largest underestimate.  With at most ``f``
    faulty peers, the interval ``[m, M]`` is guaranteed to intersect the
    range of good clocks.  Then:

    * if ``m >= -WayOff`` and ``M <= WayOff`` (own clock credible), move
      to ``(min(m, 0) + max(M, 0)) / 2`` — i.e. average the interval
      after extending it to include our own clock at ``0``;
    * otherwise our own clock is hopeless: jump to ``(m + M) / 2``.

    The *unconditional* halving toward ``[m, M]`` in the second branch
    is the design choice that makes recovery fast (Section 1.1's
    contrast with [9]).
    """

    name = "paper"

    def decide(self, estimates: list[ClockEstimate], f: int, way_off: float
               ) -> CorrectionDecision:
        """Figure 1 lines 6-12, reporting the branch actually taken."""
        return decide_arrays([e.overestimate for e in estimates],
                             [e.underestimate for e in estimates],
                             f, way_off)

    def correction(self, estimates: list[ClockEstimate], f: int, way_off: float) -> float:
        return self.decide(estimates, f, way_off).correction


class ClampedConvergence(ConvergenceFunction):
    """Wrap another convergence function, capping |correction|.

    Models the Fetzer-Cristian [9] goal of minimizing the per-sync clock
    change.  A recovering processor whose clock is ``X`` away needs
    ``X / max_step`` syncs to return — and if the good clocks drift away
    faster than ``max_step`` per sync allows it to catch up, it *never*
    recovers.  Experiment E5 demonstrates both regimes.
    """

    name = "clamped"

    def __init__(self, inner: ConvergenceFunction, max_step: float) -> None:
        if max_step <= 0:
            raise ParameterError(f"max_step must be positive, got {max_step}")
        self.inner = inner
        self.max_step = float(max_step)
        self.name = f"clamped({inner.name}, {max_step:g})"

    def decide(self, estimates: list[ClockEstimate], f: int, way_off: float
               ) -> CorrectionDecision:
        """Clamp the inner correction, preserving its branch report."""
        inner = self.inner.decide(estimates, f, way_off)
        clamped = max(-self.max_step, min(self.max_step, inner.correction))
        return CorrectionDecision(clamped, inner.m, inner.big_m, inner.own_discarded)

    def correction(self, estimates: list[ClockEstimate], f: int, way_off: float) -> float:
        return self.decide(estimates, f, way_off).correction


class TrimmedMeanConvergence(ConvergenceFunction):
    """Discard the ``f`` lowest and ``f`` highest distances, average the rest.

    Timeout estimates (``a = inf``) are pushed to the extremes by
    sorting on the midpoint ``d``; with at most ``f`` of them they are
    trimmed away.  Unlike :class:`PaperConvergence` this function has no
    notion of discarding the *own* clock, so a way-off processor only
    converges at the averaged rate.
    """

    name = "trimmed-mean"

    def correction(self, estimates: list[ClockEstimate], f: int, way_off: float) -> float:
        if len(estimates) <= 2 * f:
            raise ParameterError(
                f"need more than 2f={2 * f} estimates to trim; got {len(estimates)}"
            )
        distances = sorted(e.distance if not e.timed_out else math.inf for e in estimates)
        kept = distances[f: len(distances) - f] if f > 0 else distances
        finite = [d for d in kept if math.isfinite(d)]
        if not finite:
            return 0.0
        return sum(finite) / len(finite)


class MeanConvergence(ConvergenceFunction):
    """Plain average of all finite distance estimates — no protection.

    The NTP-flavoured baseline: a single Byzantine peer reporting an
    enormous offset drags the correction arbitrarily.  Exists to show
    what the order-statistic selection is buying.
    """

    name = "mean"

    def correction(self, estimates: list[ClockEstimate], f: int, way_off: float) -> float:
        finite = [e.distance for e in estimates if not e.timed_out]
        if not finite:
            return 0.0
        return sum(finite) / len(finite)


class MidpointConvergence(ConvergenceFunction):
    """Fault-tolerant midpoint: mean of the ``f+1``-st smallest and largest
    distances (the Welch-Lynch style reduction, without the paper's
    own-clock handling or error-bound widening)."""

    name = "ft-midpoint"

    def correction(self, estimates: list[ClockEstimate], f: int, way_off: float) -> float:
        if len(estimates) < 2 * f + 1:
            raise ParameterError(
                f"need at least 2f+1={2 * f + 1} estimates; got {len(estimates)}"
            )
        # Timeouts behave like the paper's (0, inf) estimates: they are
        # pushed to +inf on the low-side statistic and -inf on the
        # high-side one, so up to f of them are discarded by selection.
        low = kth_smallest([math.inf if e.timed_out else e.distance for e in estimates], f)
        high = kth_largest([-math.inf if e.timed_out else e.distance for e in estimates], f)
        if not (math.isfinite(low) and math.isfinite(high)):
            return 0.0
        return (low + high) / 2.0


class EgocentricMeanConvergence(ConvergenceFunction):
    """Interactive convergence (CNV) of Lamport and Melliar-Smith [19].

    The classic fault-tolerant average: read every clock, replace any
    reading farther than ``threshold`` from the own clock by the own
    clock's value (0 in the relative frame), and average everything.
    With ``n >= 3f+1`` and a threshold at the synchronization bound,
    the f Byzantine readings move the mean by at most
    ``f * threshold / n`` — bounded, but looser than the order-statistic
    selection, and with no own-clock-discard rule it recovers a way-off
    processor only at the averaged rate (like the trimmed mean).

    Args:
        threshold: The egocentric plausibility radius; readings beyond
            it are replaced by the own clock.  Defaults to ``way_off``
            at call time when constructed with ``None``.
    """

    name = "egocentric-mean"

    def __init__(self, threshold: float | None = None) -> None:
        self.threshold = threshold

    def correction(self, estimates: list[ClockEstimate], f: int, way_off: float) -> float:
        if len(estimates) < 3 * f + 1:
            raise ParameterError(
                f"interactive convergence needs n >= 3f+1={3 * f + 1} "
                f"readings; got {len(estimates)}"
            )
        radius = self.threshold if self.threshold is not None else way_off
        replaced = [
            e.distance if (not e.timed_out and abs(e.distance) <= radius) else 0.0
            for e in estimates
        ]
        return sum(replaced) / len(replaced)
