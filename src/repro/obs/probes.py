"""Live Theorem 5 envelope probes: invariant checking *during* the run.

The post-hoc verdict (:func:`repro.core.analysis.theorem5_verdict`)
only reports violations after the run ends.  :class:`Theorem5Probe`
performs the same measured-vs-bound comparison online, on the clock
sampling grid, and publishes a ``probe.violation`` event the moment a
bound is first exceeded — turning "the run failed" from a verdict-time
surprise into a timestamped flight-recorder event.

Three probes, mirroring the theorem's clauses:

* **deviation** — max pairwise difference of good-set logical clocks
  against the Theorem 5(i) bound ``16e + 18pT + 4C``;
* **drift** — each good node's bias must stay inside the Appendix A
  :class:`~repro.core.envelope.Envelope` anchored at its previous
  sample (slope ``rho~``), widened by the discontinuity allowance per
  correction applied in the step (eq. (3) per sampling step);
* **discontinuity** — each correction applied while good must not
  exceed the Theorem 5(ii) ``alpha`` bound.

The good set is tracked online from ``adv.break_in`` / ``adv.release``
events with Definition 3 semantics (non-faulty throughout
``[tau - PI, tau]``), so the probe never peeks at the adversary's
future plan.  Probes are advisory: they read clocks and bus events,
publish events, and decide nothing — the protocol cannot observe them.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.envelope import Envelope

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.clocks.logical import LogicalClock
    from repro.core.params import ProtocolParams
    from repro.obs.bus import EventBus, ObsEvent


@dataclass(frozen=True)
class ProbeViolation:
    """One live bound violation.

    Attributes:
        probe: ``"deviation"``, ``"drift"``, or ``"discontinuity"``.
        time: Real time of the violating sample.
        node: The offending node (``None`` for the pairwise deviation
            probe, which concerns the whole good set).
        measured: The measured quantity.
        bound: The Theorem 5 bound it exceeded.
    """

    probe: str
    time: float
    node: int | None
    measured: float
    bound: float


class Theorem5Probe:
    """Online checker of the Theorem 5 accuracy/agreement envelopes.

    Wire :meth:`on_event` as a bus subscriber (corruption tracking) and
    :meth:`on_sample` into the clock sampler's hook.  Violations are
    edge-triggered per probe kind: the deviation probe re-arms once the
    deviation drops back under the bound, the per-node probes fire on
    every violating step (each step is a fresh envelope).

    Args:
        params: Protocol parameterization (bounds, ``PI``).
        clocks: Logical clocks by node (read-only access).
        bus: Event bus to publish ``probe.violation`` events into.
        warmup: Skip checks before this real time (initial convergence,
            same convention as the post-hoc verdict).
        slack: Absolute tolerance added to every bound before flagging.

    Attributes:
        violations: Every violation observed, in order.
    """

    def __init__(self, params: "ProtocolParams", clocks: dict[int, "LogicalClock"],
                 bus: "EventBus | None" = None, warmup: float = 0.0,
                 slack: float = 1e-9) -> None:
        bounds = params.bounds()
        self.params = params
        self.clocks = clocks
        self.bus = bus
        self.warmup = float(warmup)
        self.slack = float(slack)
        self.deviation_bound = bounds.max_deviation
        self.drift_bound = bounds.logical_drift
        self.discontinuity_bound = bounds.discontinuity
        self.violations: list[ProbeViolation] = []
        self._controlled: set[int] = set()
        self._last_release: dict[int, float] = {}
        # Incremental good set: membership changes only at break-ins
        # (immediate removal) and at `release + PI` elapsing (re-entry),
        # so on_sample maintains it with a heap of pending re-entries
        # instead of re-deriving Definition 3 per node per sample.
        self._good: set[int] = set(clocks)
        self._pending: list[tuple[float, int]] = []
        self._deviation_violating = False
        # Per-node (tau, bias, len(adjustments)) at the previous sample
        # where the node was good; None while not good.
        self._prev: dict[int, tuple[float, float, int] | None] = {
            node: None for node in clocks
        }

    # ------------------------------------------------------------------
    # Corruption tracking (bus subscriber)
    # ------------------------------------------------------------------

    def on_event(self, event: "ObsEvent") -> None:
        """Track the faulty set from adversary events."""
        if event.kind == "adv.break_in":
            self._controlled.add(event.node)
            self._good.discard(event.node)
            self._prev[event.node] = None
        elif event.kind == "adv.release":
            self._controlled.discard(event.node)
            self._last_release[event.node] = event.time
            heapq.heappush(self._pending, (event.time, event.node))

    def good_set(self, tau: float) -> set[int]:
        """Definition 3's good set at ``tau``, from observed events only.

        A node is good iff it is not currently controlled and its last
        release (if any) precedes ``tau - PI`` strictly — matching the
        closed-interval window convention of
        :func:`repro.metrics.sampler.good_set`.
        """
        pi = self.params.pi
        good = set()
        for node in self.clocks:
            if node in self._controlled:
                continue
            release = self._last_release.get(node)
            if release is not None and release >= tau - pi:
                continue
            good.add(node)
        return good

    def _advance_good(self, tau: float) -> set[int]:
        """The incremental good set at ``tau`` (``tau`` non-decreasing).

        Pops matured releases (``release < tau - PI``) off the pending
        heap and re-admits their nodes; a stale entry (the node was
        re-released or is controlled again) is detected and dropped.
        Matches :meth:`good_set` exactly for the sampler's
        non-decreasing grid.
        """
        pending = self._pending
        cutoff = tau - self.params.pi
        while pending and pending[0][0] < cutoff:
            release, node = heapq.heappop(pending)
            if self._last_release.get(node) == release and node not in self._controlled:
                self._good.add(node)
        return self._good

    def on_sample(self, tau: float) -> None:
        """Run every probe against the clocks at sample time ``tau``."""
        good = self._advance_good(tau)
        biases = {node: self.clocks[node].read(tau) - tau for node in good}
        if tau >= self.warmup:
            self._check_deviation(tau, biases)
            self._check_accuracy(tau, biases)
        # Update per-node state for the next step (also during warmup,
        # so the first post-warmup step has an anchor).
        for node in self.clocks:
            if node in good:
                self._prev[node] = (tau, biases[node],
                                    len(self.clocks[node].adjustments))
            else:
                self._prev[node] = None

    def _emit(self, probe: str, tau: float, node: int | None,
              measured: float, bound: float) -> None:
        violation = ProbeViolation(probe=probe, time=tau, node=node,
                                   measured=measured, bound=bound)
        self.violations.append(violation)
        if self.bus is not None:
            self.bus.publish("probe.violation", node=node, probe=probe,
                             measured=measured, bound=bound)

    def _check_deviation(self, tau: float, biases: dict[int, float]) -> None:
        """Theorem 5(i): pairwise good-set deviation vs its bound."""
        if len(biases) < 2:
            self._deviation_violating = False
            return
        deviation = max(biases.values()) - min(biases.values())
        if deviation > self.deviation_bound + self.slack:
            if not self._deviation_violating:
                self._emit("deviation", tau, None, deviation, self.deviation_bound)
            self._deviation_violating = True
        else:
            self._deviation_violating = False

    def _check_accuracy(self, tau: float, biases: dict[int, float]) -> None:
        """Theorem 5(ii): per-node drift envelope and discontinuity."""
        for node, bias in biases.items():
            prev = self._prev.get(node)
            if prev is None:
                continue
            prev_tau, prev_bias, prev_adj = prev
            if tau <= prev_tau:
                continue
            adjustments = self.clocks[node].adjustments
            new_adj = adjustments[prev_adj:]
            for adj_tau, delta, _ in new_adj:
                if abs(delta) > self.discontinuity_bound + self.slack:
                    self._emit("discontinuity", tau, node, abs(delta),
                               self.discontinuity_bound)
            allowance = self.discontinuity_bound * len(new_adj)
            envelope = Envelope(prev_tau, prev_bias, prev_bias,
                                self.drift_bound)
            if allowance > 0.0:
                envelope = envelope.widened(allowance)
            if not envelope.contains(tau, bias, slack=self.slack):
                measured = envelope.distance_outside(tau, bias)
                self._emit("drift", tau, node, measured, 0.0)

    # ------------------------------------------------------------------

    @property
    def ok(self) -> bool:
        """True while no probe has fired."""
        return not self.violations


def violations_from_events(events) -> list[ProbeViolation]:
    """Rebuild :class:`ProbeViolation` records from a recorded stream."""
    out = []
    for event in events:
        if event.kind == "probe.violation":
            out.append(ProbeViolation(
                probe=event.data.get("probe", "?"), time=event.time,
                node=event.node, measured=event.data.get("measured", math.nan),
                bound=event.data.get("bound", math.nan)))
    return out
