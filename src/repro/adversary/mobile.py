"""The mobile adversary: f-limited corruption scheduling (Definition 2).

A corruption *plan* is a list of :class:`PlannedCorruption` entries —
who gets broken into, when, for how long, running which Byzantine
strategy.  :func:`audit_f_limited` verifies Definition 2 exactly: over
every window ``[tau, tau + PI]`` at most ``f`` distinct processors are
controlled at some point of the window.  The audit runs at installation
time so no experiment can accidentally exceed the model (and the E7
resilience experiment *deliberately* bypasses it via ``enforce=False``).

:class:`MobileAdversary` executes a plan against a running simulation:
at each break-in it seizes the victim's process (killing its timers and
routing its traffic to the strategy), and at each release it lets the
strategy take its parting shot before the protocol's recovery logic
restarts.

Plan generators cover the standard workloads:

* :func:`rotating_plan` — the canonical proactive-security threat: the
  adversary owns ``f`` processors at a time and hops groups forever,
  eventually corrupting *every* processor (unbounded total faults).
* :func:`single_burst_plan` — one corruption episode, for focused
  recovery measurements.
* :func:`round_robin_plan` — one node at a time, maximum hop rate.
* :func:`random_plan` — randomized victims/dwells/gaps, f-limited by
  construction; the fuzzing workload.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from repro.adversary.base import ByzantineStrategy
from repro.errors import AdversaryError
from repro.metrics.sampler import CorruptionInterval

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.network import Network
    from repro.sim.engine import Simulator


@dataclass(frozen=True)
class PlannedCorruption:
    """One scheduled occupation of one node.

    Attributes:
        node: Victim processor.
        start: Break-in real time.
        end: Release real time (``math.inf`` = never released).
        strategy: Behaviour while controlled.
    """

    node: int
    start: float
    end: float
    strategy: ByzantineStrategy

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise AdversaryError(
                f"corruption of node {self.node} has empty interval "
                f"[{self.start}, {self.end}]"
            )

    def interval(self) -> CorruptionInterval:
        """The metrics-facing (node, start, end) record."""
        return CorruptionInterval(self.node, self.start, self.end)


def audit_f_limited(plan: Sequence[PlannedCorruption], f: int, pi: float) -> None:
    """Verify Definition 2: at most ``f`` nodes controlled per PI-window.

    A node counts toward window ``[tau, tau + PI]`` iff one of its
    corruption intervals intersects it, i.e. iff
    ``tau in [start - PI, end]``.  Per node we union those inflated
    intervals, then sweep all nodes' unions counting overlap.

    Raises:
        AdversaryError: Naming a witness time where the count exceeds
            ``f``.
    """
    if pi <= 0:
        raise AdversaryError(f"PI must be positive, got {pi}")
    per_node: dict[int, list[tuple[float, float]]] = {}
    for corruption in plan:
        inflated = (corruption.start - pi, corruption.end)
        per_node.setdefault(corruption.node, []).append(inflated)

    events: list[tuple[float, int]] = []
    for intervals in per_node.values():
        intervals.sort()
        merged: list[tuple[float, float]] = []
        for lo, hi in intervals:
            if merged and lo <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        for lo, hi in merged:
            events.append((lo, +1))
            events.append((hi, -1))

    # Closed intervals: at equal times, +1 before -1 so touching
    # intervals count as simultaneous (the conservative reading).
    events.sort(key=lambda item: (item[0], -item[1]))
    active = 0
    for time, delta in events:
        active += delta
        if active > f:
            raise AdversaryError(
                f"plan is not {f}-limited: window starting at tau={time:.6g} "
                f"touches {active} corrupted processors (PI={pi})"
            )


class MobileAdversary:
    """Executes a corruption plan against a running simulation.

    Args:
        sim: The simulator.
        network: Used to look up victim processes.
        plan: The corruption schedule.
        f: Fault bound for the Definition 2 audit.
        pi: Time period for the audit.
        enforce: When True (default), audit the plan at install time;
            E7 sets False to study over-powerful adversaries.

    Attributes:
        plan: The (immutable) corruption schedule.
        obs: Observability event bus, or ``None`` (the default) when no
            flight recorder is attached.
    """

    def __init__(self, sim: "Simulator", network: "Network",
                 plan: Sequence[PlannedCorruption], f: int, pi: float,
                 enforce: bool = True) -> None:
        self.sim = sim
        self.network = network
        self.plan = list(plan)
        self.f = f
        self.pi = pi
        self.obs = None
        if enforce:
            audit_f_limited(self.plan, f, pi)
        self._rng = sim.rngs.stream("adversary")
        self._active: dict[int, ByzantineStrategy] = {}

    # ------------------------------------------------------------------

    def install(self) -> None:
        """Schedule every break-in and release on the simulator."""
        for corruption in self.plan:
            self.sim.schedule_at(
                corruption.start,
                lambda c=corruption: self._break_in(c),
                tag=f"break-in:n{corruption.node}",
            )
            if math.isfinite(corruption.end):
                self.sim.schedule_at(
                    corruption.end,
                    lambda c=corruption: self._leave(c),
                    tag=f"leave:n{corruption.node}",
                )

    def corruption_intervals(self) -> list[CorruptionInterval]:
        """The plan as metrics-facing intervals (for good-set tracking)."""
        return [c.interval() for c in self.plan]

    # ------------------------------------------------------------------

    def _break_in(self, corruption: PlannedCorruption) -> None:
        node = corruption.node
        if node in self._active:
            raise AdversaryError(f"node {node} is already controlled at break-in")
        process = self.network.process_for(node)
        strategy = corruption.strategy
        self._active[node] = strategy
        if self.obs is not None:
            # Published before the seize so probes mark the node bad
            # before the strategy scrambles its clock.
            self.obs.publish("adv.break_in", node=node, strategy=strategy.name)
        process.seize(_StrategyShim(strategy, self._rng))
        strategy.on_break_in(process, self._rng)

    def _leave(self, corruption: PlannedCorruption) -> None:
        node = corruption.node
        strategy = self._active.pop(node, None)
        if strategy is None:
            raise AdversaryError(f"release of node {node} that is not controlled")
        process = self.network.process_for(node)
        strategy.on_leave(process, self._rng)
        process.release()
        if self.obs is not None:
            # Published after the release: the parting shot in on_leave
            # still happens while the node counts as controlled.
            self.obs.publish("adv.release", node=node, strategy=strategy.name)


class _StrategyShim:
    """Adapter giving :class:`~repro.runtime.process.Process.deliver` the
    controller interface (``on_message(process, message)``) while
    injecting the adversary's random stream."""

    def __init__(self, strategy: ByzantineStrategy, rng: random.Random) -> None:
        self.strategy = strategy
        self.rng = rng

    def on_message(self, process, message) -> None:
        self.strategy.on_message(process, message, self.rng)


# ----------------------------------------------------------------------
# Plan generators
# ----------------------------------------------------------------------

StrategyFactory = Callable[[int, int], ByzantineStrategy]
"""Maps ``(node, episode_index)`` to a fresh strategy instance."""


def rotating_plan(n: int, f: int, pi: float, duration: float,
                  strategy_factory: StrategyFactory, dwell: float | None = None,
                  margin: float | None = None,
                  first_start: float = 0.0) -> list[PlannedCorruption]:
    """Corrupt ``f`` nodes at a time, rotating through all ``n`` forever.

    Episode ``i`` controls nodes ``{(i*f + j) % n}`` during
    ``[s_i, s_i + dwell]`` with ``s_{i+1} = s_i + dwell + PI + margin``:
    consecutive episodes are separated by more than ``PI``, so no
    PI-window touches two episodes and the plan is exactly f-limited.
    Over a long run every node is corrupted unboundedly often — the
    workload previous non-recovering protocols cannot survive.

    Args:
        n: Number of processors.
        f: Nodes controlled per episode.
        pi: Adversary period.
        duration: Generate episodes starting before this time.
        strategy_factory: Builds the strategy for each (node, episode).
        dwell: Occupation length per episode; defaults to ``pi``.
        margin: Extra separation beyond ``PI``; defaults to ``pi / 100``.
        first_start: Start time of episode 0.
    """
    if dwell is None:
        dwell = pi
    if margin is None:
        margin = pi / 100.0
    if dwell <= 0 or margin <= 0:
        raise AdversaryError(f"dwell and margin must be positive, got {dwell}, {margin}")
    plan: list[PlannedCorruption] = []
    episode = 0
    start = first_start
    while start < duration:
        for j in range(f):
            node = (episode * f + j) % n
            plan.append(PlannedCorruption(
                node=node, start=start, end=start + dwell,
                strategy=strategy_factory(node, episode),
            ))
        episode += 1
        start += dwell + pi + margin
    return plan


def single_burst_plan(nodes: Sequence[int], start: float, dwell: float,
                      strategy_factory: StrategyFactory) -> list[PlannedCorruption]:
    """One simultaneous corruption episode on ``nodes``."""
    return [
        PlannedCorruption(node=node, start=start, end=start + dwell,
                          strategy=strategy_factory(node, 0))
        for node in nodes
    ]


def round_robin_plan(n: int, pi: float, duration: float,
                     strategy_factory: StrategyFactory, dwell: float | None = None,
                     margin: float | None = None) -> list[PlannedCorruption]:
    """One node at a time, hopping as fast as Definition 2 allows."""
    return rotating_plan(n=n, f=1, pi=pi, duration=duration,
                         strategy_factory=strategy_factory, dwell=dwell,
                         margin=margin)


def random_plan(n: int, f: int, pi: float, duration: float,
                strategy_factory: StrategyFactory, rng: random.Random,
                intensity: float = 0.7) -> list[PlannedCorruption]:
    """A randomized f-limited plan (for fuzzing and soak tests).

    Episodes have random victim subsets (size 1..f), random dwells, and
    random inter-episode gaps of at least ``PI`` plus jitter — so every
    generated plan passes :func:`audit_f_limited` by construction,
    which the property tests verify against the brute-force checker.

    Args:
        n: Number of processors.
        f: Fault bound.
        pi: Adversary period.
        duration: Generate episodes starting before this time.
        strategy_factory: Builds each victim's strategy.
        rng: Randomness source (deterministic per stream).
        intensity: Scales dwell lengths (0 = instant visits, 1 = dwells
            up to a full period).
    """
    if not (0.0 < intensity <= 1.0):
        raise AdversaryError(f"intensity must be in (0, 1], got {intensity}")
    plan: list[PlannedCorruption] = []
    start = rng.uniform(0.0, pi)
    episode = 0
    while start < duration:
        group_size = rng.randint(1, f)
        victims = rng.sample(range(n), group_size)
        dwell = rng.uniform(0.1, 1.0) * intensity * pi
        for node in victims:
            plan.append(PlannedCorruption(
                node=node, start=start, end=start + dwell,
                strategy=strategy_factory(node, episode)))
        episode += 1
        start += dwell + pi * (1.0 + rng.uniform(0.05, 0.5))
    return plan
