"""Envelope calculus of Appendix A.

The proof of Theorem 5 works in the ``(tau, beta)``-plane: real time on
one axis, clock bias ``B_p(tau) = C_p(tau) - tau`` on the other.  An
*envelope* (Definition 6) is the region a drift-bounded bias can reach
from a starting interval::

    Env{tau0, [a, b]} = { (tau, beta) : tau >= tau0,
                          a - rho*(tau - tau0) <= beta <= b + rho*(tau - tau0) }

This module implements the envelope operations the proof uses —
evaluation at a time, widening by a constant (``E + c``), averaging of
two envelopes, and containment — plus the membership predicates ("bias
in / not above / not below E during an interval").  The analysis tools
(:mod:`repro.core.analysis`) fit envelopes to simulation traces to check
Lemma 7 empirically, and the property-based tests exercise the algebra
(e.g. that averaging two biases stays in the averaged envelope).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import MeasurementError


@dataclass(frozen=True)
class Envelope:
    """``Env{tau0, [lo, hi]}`` with drift slope ``rho`` (Definition 6).

    Attributes:
        tau0: Anchor real time.
        lo: Lower bias bound at ``tau0`` (may be ``-inf``).
        hi: Upper bias bound at ``tau0`` (may be ``+inf``).
        rho: Drift rate at which the region widens after ``tau0``.
    """

    tau0: float
    lo: float
    hi: float
    rho: float

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise MeasurementError(f"envelope requires lo <= hi, got [{self.lo}, {self.hi}]")
        if self.rho < 0:
            raise MeasurementError(f"envelope rho must be non-negative, got {self.rho}")

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def interval_at(self, tau: float) -> tuple[float, float]:
        """``E(tau)``: the bias interval at real time ``tau >= tau0``."""
        if tau < self.tau0:
            raise MeasurementError(
                f"envelope evaluated at tau={tau} before its anchor {self.tau0}"
            )
        spread = self.rho * (tau - self.tau0)
        return (self.lo - spread, self.hi + spread)

    def contains(self, tau: float, beta: float, slack: float = 0.0) -> bool:
        """Whether bias ``beta`` lies in ``E(tau)`` (within ``slack``)."""
        low, high = self.interval_at(tau)
        return low - slack <= beta <= high + slack

    def distance_above(self, tau: float, beta: float) -> float:
        """How far ``beta`` is above ``E(tau)`` (0 if not above)."""
        _, high = self.interval_at(tau)
        return max(0.0, beta - high)

    def distance_below(self, tau: float, beta: float) -> float:
        """How far ``beta`` is below ``E(tau)`` (0 if not below)."""
        low, _ = self.interval_at(tau)
        return max(0.0, low - beta)

    def distance_outside(self, tau: float, beta: float) -> float:
        """Distance from ``beta`` to ``E(tau)`` (0 inside)."""
        return max(self.distance_above(tau, beta), self.distance_below(tau, beta))

    # ------------------------------------------------------------------
    # Algebra (Appendix A notations)
    # ------------------------------------------------------------------

    def widened(self, c: float) -> "Envelope":
        """``E + c``: extend both sides by a non-negative constant."""
        if c < 0:
            raise MeasurementError(f"widening constant must be non-negative, got {c}")
        return Envelope(self.tau0, self.lo - c, self.hi + c, self.rho)

    def rebased(self, tau: float) -> "Envelope":
        """The same region re-anchored at a later time ``tau``."""
        low, high = self.interval_at(tau)
        return Envelope(tau, low, high, self.rho)

    def contains_envelope(self, other: "Envelope", slack: float = 0.0) -> bool:
        """Whether ``other ⊆ self`` for all ``tau >= other.tau0``.

        With equal ``rho`` this reduces to interval containment at
        ``max(tau0, other.tau0)``.
        """
        if other.rho > self.rho:
            return False
        anchor = max(self.tau0, other.tau0)
        s_low, s_high = self.interval_at(anchor)
        o_low, o_high = other.interval_at(anchor)
        return s_low - slack <= o_low and o_high <= s_high + slack


def average(e1: Envelope, e2: Envelope) -> Envelope:
    """``avg(E, E')`` of Appendix A: endpoint-wise mean of two envelopes.

    If at some time one bias is in ``E`` and another in ``E'``, their
    average is in ``avg(E, E')`` — the lemma the convergence analysis
    leans on.  Both envelopes must share anchor and drift rate.
    """
    if e1.tau0 != e2.tau0 or e1.rho != e2.rho:
        raise MeasurementError(
            "averaged envelopes must share anchor and rho; got "
            f"(tau0={e1.tau0}, rho={e1.rho}) and (tau0={e2.tau0}, rho={e2.rho})"
        )
    return Envelope(e1.tau0, (e1.lo + e2.lo) / 2.0, (e1.hi + e2.hi) / 2.0, e1.rho)


def envelope_of_biases(tau0: float, biases: list[float], rho: float) -> Envelope:
    """Smallest envelope anchored at ``tau0`` containing all ``biases``."""
    if not biases:
        raise MeasurementError("cannot build an envelope from zero biases")
    return Envelope(tau0, min(biases), max(biases), rho)


def lemma7_shrunk_width(d_half_width: float, epsilon: float) -> float:
    """Lemma 7(ii): an envelope of width ``2D`` shrinks to ``7D/4 + 2e``.

    Args:
        d_half_width: The ``D`` of Lemma 7 (half the starting width).
        epsilon: Reading-error bound.

    Returns:
        The guaranteed end-of-interval width ``7D/4 + 2*epsilon``.
    """
    return 7.0 * d_half_width / 4.0 + 2.0 * epsilon
