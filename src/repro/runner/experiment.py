"""Run scenarios and collect results.

:func:`run` is the package's main entry point: it wires a
:class:`~repro.runner.scenario.Scenario` into a simulator — topology,
delay model, clocks, protocol processes, adversary, sampler — executes
it, and returns a :class:`RunResult` exposing the Definition 3 measures
and the Theorem 5 verdict.

Orchestration (sweeps, replication, parallel fan-out, caching) lives in
:mod:`repro.runner.campaign`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import repro.protocols  # noqa: F401  -- importing registers the protocol factories
from repro.adversary.mobile import MobileAdversary
from repro.clocks.logical import LogicalClock
from repro.core.analysis import Theorem5Verdict, theorem5_verdict
from repro.core.params import ProtocolParams
from repro.metrics.measures import (
    AccuracyReport,
    DeviationSeries,
    RecoveryReport,
    accuracy_report,
    recovery_report,
)
from repro.metrics.sampler import (
    ClockSampler,
    ClockSamples,
    CorruptionInterval,
    GoodSetIndex,
)
from repro.metrics.streaming import OnlineMeasures
from repro.net.network import Network
from repro.protocols.base import protocol_factory
from repro.runner.scenario import Scenario
from repro.runtime.process import Process
from repro.sim.engine import EnginePerfCounters, Simulator
from repro.sim.runtime import SimRuntime

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.sync import SyncRecord
    from repro.obs.recorder import FlightRecorder
    from repro.runtime.messages import Message


@dataclass(frozen=True)
class MessageRecord:
    """Compact record of a delivered message (``record_messages`` only).

    Attributes:
        sender: Authenticated sender.
        recipient: Addressee.
        kind: Payload class name (``Ping``, ``Pong``, ...).
        sent_at: Transmission real time.
        delivered_at: Delivery real time.
    """

    sender: int
    recipient: int
    kind: str
    sent_at: float
    delivered_at: float


@dataclass
class RunResult:
    """Everything observable from one simulation run.

    Attributes:
        scenario: The input scenario.
        params: Shortcut to ``scenario.params``.
        samples: Grid clock samples.
        corruptions: Audited corruption intervals that occurred.
        syncs: Every completed Sync execution, all nodes, in time order
            (listeners fire at non-decreasing simulator event times).
        clocks: Logical clocks by node (with adjustment histories).
        processes: Protocol processes by node.
        messages: Delivered messages, kept only when the scenario sets
            ``record_messages`` (long runs deliver millions).
        events_processed: Simulator event count (performance metric).
        messages_delivered: Network delivery count.
        perf: Engine performance counters (events/sec, heap high-water
            mark, cancelled-event ratio) for the run's simulator.
        obs: The :class:`~repro.obs.recorder.FlightRecorder` that
            observed the run, or ``None`` when none was passed to
            :func:`run`.
        stream: The :class:`~repro.metrics.streaming.OnlineMeasures`
            that observed the run when ``stream_measures=True``; every
            measure method then answers from it (byte-identically)
            instead of from ``samples``, which stays empty.
    """

    scenario: Scenario
    params: ProtocolParams
    samples: ClockSamples
    corruptions: list[CorruptionInterval]
    syncs: list[SyncRecord]
    clocks: dict[int, LogicalClock]
    processes: dict[int, Process] = field(repr=False, default_factory=dict)
    messages: list[MessageRecord] = field(repr=False, default_factory=list)
    events_processed: int = 0
    messages_delivered: int = 0
    perf: EnginePerfCounters | None = None
    obs: "FlightRecorder | None" = field(repr=False, default=None)
    stream: OnlineMeasures | None = field(repr=False, default=None)
    _good_index: GoodSetIndex | None = field(repr=False, default=None, compare=False)
    _deviations: DeviationSeries | None = field(repr=False, default=None, compare=False)

    # -- measures ----------------------------------------------------------

    def good_index(self) -> GoodSetIndex:
        """The run's good-set index (built once, shared by all measures)."""
        if self._good_index is None:
            self._good_index = GoodSetIndex(self.corruptions, self.params.pi,
                                            self.params.n)
        return self._good_index

    def deviations(self) -> DeviationSeries:
        """The good-set deviation series, streamed or measured once.

        Every deviation read-out below is a view of it.
        """
        if self._deviations is None:
            self._deviations = (
                self.stream.deviations if self.stream is not None
                else DeviationSeries.measure(self.samples, self.corruptions,
                                             self.params.pi, self.params.n,
                                             index=self.good_index()))
        return self._deviations

    def deviation_series(self, warmup: float = 0.0) -> list[tuple[float, float]]:
        """Good-set deviation per sample (Definition 3(i) subject)."""
        return self.deviations().series(warmup)

    def max_deviation(self, warmup: float = 0.0) -> float:
        """Maximum good-set deviation after ``warmup``."""
        return self.deviations().max(warmup)

    def deviation_percentiles(self, warmup: float = 0.0,
                              percentiles=(50.0, 95.0, 99.0, 100.0)
                              ) -> dict[float, float]:
        """Median/tail percentiles of the good-set deviation series."""
        return self.deviations().percentiles(warmup, percentiles)

    def envelope_occupancy(self, warmup: float = 0.0) -> float:
        """Fraction of post-warmup samples inside the Theorem 5 envelope."""
        return self.deviations().occupancy(self.params.bounds().max_deviation,
                                           warmup)

    def accuracy(self, min_span: float = 0.0) -> AccuracyReport:
        """Measured drift and discontinuity (Definition 3(ii) subject)."""
        if self.stream is not None:
            return self.stream.accuracy(min_span)
        return accuracy_report(self.samples, self.corruptions, self.clocks,
                               self.params.pi, self.params.n, min_span,
                               index=self.good_index())

    def recovery(self, tolerance: float | None = None,
                 settle: float | None = None) -> RecoveryReport:
        """Recovery times for every adversary release.

        ``tolerance`` defaults to the Theorem 5 deviation bound — a node
        counts as recovered when it is within the guarantee of the good
        range.
        """
        if tolerance is None:
            tolerance = self.params.bounds().max_deviation
        if self.stream is not None:
            return self.stream.recovery(tolerance, settle)
        return recovery_report(self.samples, self.corruptions, self.params.pi,
                               self.params.n, tolerance, settle,
                               index=self.good_index())

    def verdict(self, warmup: float = 0.0) -> Theorem5Verdict:
        """Theorem 5 measured-vs-bound comparison for this run."""
        return theorem5_verdict(self.params, self.max_deviation(warmup), self.accuracy())


def run(scenario: Scenario, recorder: "FlightRecorder | None" = None,
        stream_measures: bool = False) -> RunResult:
    """Execute one scenario to completion.

    Deterministic: identical scenarios (including seed) produce
    identical results.  An optional flight ``recorder`` observes the run
    (event stream, spans, metrics, live Theorem 5 probes) without
    changing it: observability publishes from existing events only, so
    the schedule — and therefore every sample, sync, and verdict — is
    identical with and without a recorder.

    With ``stream_measures=True`` the Definition 3 measures are
    accumulated *during* the run by an
    :class:`~repro.metrics.streaming.OnlineMeasures` riding the sampling
    hook, and no clock trace is recorded: the result's ``samples`` stay
    empty while every measure method answers byte-identically from the
    stream.  Neither mode changes the event schedule, so traces and
    engine counters are unaffected.
    """
    params = scenario.params
    sim = Simulator(seed=scenario.seed)
    network = Network(sim, scenario.resolved_topology(),
                      scenario.resolved_delay_model(),
                      loss_rate=scenario.loss_rate)
    syncs: list[SyncRecord] = []
    messages: list[MessageRecord] = []
    if scenario.record_messages:
        def record_message(message: Message) -> None:
            messages.append(MessageRecord(
                message.sender, message.recipient,
                type(message.payload).__name__,
                message.sent_at, message.delivered_at))

        network.add_tap(record_message)

    # Clocks: hardware from the factory, initial offsets via adj.
    clocks: dict[int, LogicalClock] = {}
    clock_factory = scenario.resolved_clock_factory()
    offsets_rng = sim.rngs.stream("initial-offsets")
    for node in range(params.n):
        hardware = clock_factory(
            node, params, sim.rngs.stream(f"clock:{node}"), scenario.duration
        )
        clocks[node] = LogicalClock(hardware, adj=scenario.initial_offset_for(node, offsets_rng))

    # Protocol processes.
    factory = (protocol_factory(scenario.protocol)
               if isinstance(scenario.protocol, str) else scenario.protocol)
    phase_rng = sim.rngs.stream("phases")
    processes: dict[int, Process] = {}
    for node in range(params.n):
        phase = phase_rng.uniform(0.0, params.sync_interval) if scenario.stagger_phases else 0.0
        runtime = SimRuntime(node, sim, network, clocks[node])
        process = factory(runtime, params, phase)
        runtime.bind(process)
        processes[node] = process
        if hasattr(process, "sync_listeners"):
            process.sync_listeners.append(syncs.append)

    # Adversary.
    corruptions: list[CorruptionInterval] = []
    adversary: MobileAdversary | None = None
    if scenario.plan_builder is not None:
        plan = list(scenario.plan_builder(scenario, clocks))
        adversary = MobileAdversary(
            sim, network, plan, f=params.f, pi=params.pi,
            enforce=scenario.enforce_f_limit,
        )
        adversary.install()
        corruptions = adversary.corruption_intervals()

    # Observability (advisory; attached before any event runs).
    if recorder is not None:
        recorder.attach(sim, network, processes, clocks, params,
                        adversary=adversary)

    # Measurement streaming (advisory, like the recorder: reads clocks
    # from within the sampler's own grid events, adds none of its own).
    stream: OnlineMeasures | None = None
    if stream_measures:
        stream = OnlineMeasures(
            clocks, corruptions, pi=params.pi, n=params.n,
            recovery_tolerance=params.bounds().max_deviation,
            recovery_settle=params.pi,
        )

    # Sampling.
    hooks = [hook for hook in (
        recorder.on_sample if recorder is not None else None,
        stream.on_sample if stream is not None else None,
    ) if hook is not None]
    if not hooks:
        on_sample = None
    elif len(hooks) == 1:
        on_sample = hooks[0]
    else:
        def on_sample(tau: float, sample_index: int,
                      _hooks=tuple(hooks)) -> None:
            for hook in _hooks:
                hook(tau, sample_index)
    sampler = ClockSampler(
        sim, clocks, scenario.resolved_sample_interval(),
        on_sample=on_sample,
        record=not stream_measures,
    )
    sampler.start(scenario.duration)

    for process in processes.values():
        process.start()

    sim.run(until=scenario.duration)

    if recorder is not None:
        recorder.finalize(sim)
    if stream is not None:
        stream.finalize()

    return RunResult(
        scenario=scenario,
        params=params,
        samples=sampler.samples,
        corruptions=corruptions,
        syncs=syncs,
        clocks=clocks,
        processes=processes,
        messages=messages,
        events_processed=sim.events_processed,
        messages_delivered=network.messages_delivered,
        perf=sim.perf_counters(),
        obs=recorder,
        stream=stream,
    )


def summarize(values: Sequence[float]) -> tuple[float, float, float]:
    """``(min, mean, max)`` of a non-empty value sequence."""
    return (min(values), sum(values) / len(values), max(values))
