"""The flight recorder: the one obs stack, for simulated and live runs.

:class:`FlightRecorder` owns (or joins) the run's
:class:`~repro.obs.bus.EventBus` and, per its :class:`ObsConfig`, a
:class:`~repro.obs.spans.SpanTracer`, a
:class:`~repro.obs.metricsreg.MetricsCollector`, a
:class:`~repro.obs.probes.Theorem5Probe` and advisory health monitors.
``attach()`` points every simulator publisher (engine, network,
protocol processes, adversary) at the bus; a live cluster attaches
through the :class:`~repro.obs.live.LiveTelemetry` adapter instead.
The runner calls ``on_sample`` from the clock-sampling grid (probes and
queue-depth sampling piggyback on existing sampling events, so enabling
observability never adds, removes, or reorders simulator events) and
``finalize()`` after the run.

The recorder is strictly **advisory**: it subscribes and publishes but
nothing in :mod:`repro.core`, :mod:`repro.protocols`, or
:mod:`repro.service` ever reads recorder state — the paper's
no-fault-detection property is preserved by construction.

Usage::

    from repro import mobile_byzantine_scenario, run
    from repro.obs import FlightRecorder

    recorder = FlightRecorder()
    result = run(mobile_byzantine_scenario(duration=20.0, seed=1),
                 recorder=recorder)
    recorder.write_jsonl("out.jsonl")          # replayable event stream
    recorder.write_chrome_trace("trace.json")  # about://tracing format
    print(recorder.metrics.snapshot())
    assert not recorder.violations
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.obs.bus import EventBus, ObsEvent, events_to_jsonl
from repro.obs.metricsreg import MetricsCollector, MetricsRegistry
from repro.obs.probes import ProbeViolation, Theorem5Probe
from repro.obs.spans import Span, SpanTracer, write_chrome_trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.adversary.mobile import MobileAdversary
    from repro.clocks.logical import LogicalClock
    from repro.core.params import ProtocolParams
    from repro.net.network import Network
    from repro.runtime.process import Process
    from repro.sim.engine import Simulator


@dataclass
class ObsConfig:
    """Which recorder subsystems to enable.

    Attributes:
        spans: Build the Sync/estimation span tree live.
        metrics: Maintain the per-node metrics registry.
        probes: Run the live Theorem 5 envelope probes.
        messages: Publish per-delivery ``net.deliver``/``net.drop``
            events (voluminous; off by default).  Simulator only: it
            taps the :class:`~repro.net.network.Network`, which a live
            cluster does not have.
        monitors: Attach an advisory
            :class:`~repro.service.monitor.SyncHealthMonitor` to every
            process that has ``sync_listeners``; its alerts are
            published as ``monitor.alert`` events.
        probe_warmup: Real-time warmup before the probes start checking
            (initial convergence; same convention as the verdict).
    """

    spans: bool = True
    metrics: bool = True
    probes: bool = True
    messages: bool = False
    monitors: bool = False
    probe_warmup: float = 0.0


class FlightRecorder:
    """Unified observability for one run, simulated or live.

    Args:
        config: Subsystem selection; defaults to spans + metrics +
            probes with message events off.
        bus: An existing event bus to record (a live cluster's); a
            fresh one is created when omitted.

    Attributes:
        config: The active configuration.
        bus: The run's event bus.
        events: Every event published, in order.
        tracer: Span tracer (``None`` when spans are disabled).
        collector: Metrics collector (``None`` when metrics disabled).
        probe: Theorem 5 probe (``None`` until attached or disabled).
    """

    def __init__(self, config: ObsConfig | None = None,
                 bus: EventBus | None = None) -> None:
        self.config = config if config is not None else ObsConfig()
        self.bus = bus if bus is not None else EventBus()
        self.events: list[ObsEvent] = []
        self.bus.subscribe(self.events.append)
        self.tracer: SpanTracer | None = SpanTracer() if self.config.spans else None
        if self.tracer is not None:
            self.bus.subscribe(self.tracer.on_event)
        self.collector: MetricsCollector | None = (
            MetricsCollector() if self.config.metrics else None)
        if self.collector is not None:
            self.bus.subscribe(self.collector.on_event)
        self.probe: Theorem5Probe | None = None
        self._sim: "Simulator | None" = None
        self._finalized = False

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def attach(self, sim: "Simulator", network: "Network",
               processes: dict[int, "Process"],
               clocks: dict[int, "LogicalClock"],
               params: "ProtocolParams",
               adversary: "MobileAdversary | None" = None) -> None:
        """Point every publisher at the bus and start the probes.

        Called by :func:`repro.runner.experiment.run` before the
        simulation starts; idempotence is not required (one recorder
        serves exactly one run).
        """
        self._sim = sim
        self.bus.set_clock(lambda: sim.now)
        sim.obs = self.bus
        if self.config.messages:
            network.obs = self.bus
        if adversary is not None:
            adversary.obs = self.bus
        self._attach_processes(processes, clocks, params)

    def _attach_processes(self, processes: dict[int, Any],
                          clocks: dict[int, Any],
                          params: "ProtocolParams") -> None:
        """The substrate-independent half of attaching: processes
        publish, the probe and monitors start per the config, and the
        ``run.start`` header goes out."""
        for process in processes.values():
            process.obs = self.bus
        if self.config.probes:
            self.probe = Theorem5Probe(params, clocks, bus=self.bus,
                                       warmup=self.config.probe_warmup)
            self.bus.subscribe(self.probe.on_event)
        if self.config.monitors:
            from repro.service.monitor import SyncHealthMonitor

            for node, process in processes.items():
                listeners = getattr(process, "sync_listeners", None)
                if listeners is None:
                    continue
                monitor = SyncHealthMonitor(params, node)
                monitor.obs = self.bus
                listeners.append(monitor.on_sync)
        bounds = params.bounds()
        self.bus.publish(
            "run.start",
            n=params.n, f=params.f, delta=params.delta, rho=params.rho,
            pi=params.pi, sync_interval=params.sync_interval,
            max_wait=params.max_wait, way_off=params.way_off,
            max_deviation_bound=bounds.max_deviation,
            logical_drift_bound=bounds.logical_drift,
            discontinuity_bound=bounds.discontinuity,
            probe_warmup=self.config.probe_warmup,
        )

    def on_sample(self, tau: float, index: int = 0) -> None:
        """Clock-sampler hook: drive probes and queue-depth sampling.

        Runs inside existing sampling events, so observability adds no
        events of its own to the simulation schedule.  ``index`` is the
        sampler's grid index, which the hook does not need.
        """
        if self.collector is not None and self._sim is not None:
            self.collector.sample_queue_depth(self._sim.pending_events)
        if self.probe is not None:
            self.probe.on_sample(tau)

    def finalize(self, sim: "Simulator | None" = None) -> None:
        """Emit the end-of-run snapshot events (idempotent).

        ``sim`` adds the simulator's perf counters to ``run.end``; a
        live cluster passes none.
        """
        if self._finalized:
            return
        self._finalized = True
        if self.collector is not None:
            self.bus.publish("metrics.snapshot",
                             snapshot=self.collector.registry.snapshot())
        perf: dict[str, int] = {}
        if sim is not None:
            counters = sim.perf_counters()
            # Only the deterministic counters: wall time and events/sec
            # would break byte-identical streams across identical-seed runs.
            perf = dict(events_processed=counters.events_processed,
                        events_pushed=counters.events_pushed,
                        events_cancelled=counters.events_cancelled,
                        heap_high_water=counters.heap_high_water,
                        pending_events=counters.pending_events)
        self.bus.publish("run.end", **perf, violations=len(self.violations))

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    @property
    def metrics(self) -> MetricsRegistry:
        """The metrics registry (empty when metrics are disabled)."""
        if self.collector is None:
            return MetricsRegistry()
        return self.collector.registry

    @property
    def spans(self) -> list[Span]:
        """The span tree (empty when spans are disabled)."""
        return self.tracer.spans if self.tracer is not None else []

    @property
    def violations(self) -> list[ProbeViolation]:
        """Probe violations (empty when probes are disabled)."""
        return self.probe.violations if self.probe is not None else []

    def events_jsonl(self) -> str:
        """The full event stream as canonical JSONL text."""
        return events_to_jsonl(self.events)

    def write_jsonl(self, path: str | pathlib.Path) -> None:
        """Write the event stream to ``path`` as JSONL (``repro trace``
        replays a simulated and a live stream alike)."""
        pathlib.Path(path).write_text(self.events_jsonl())

    def write_chrome_trace(self, path: str | pathlib.Path) -> None:
        """Write the span tree to ``path`` in Chrome trace_event format."""
        write_chrome_trace(self.spans, path)
