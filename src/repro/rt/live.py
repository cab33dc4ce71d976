"""Live deployment: run the paper's Sync on a real event loop.

This module is the ``repro live`` engine.  It spawns ``n``
:class:`~repro.rt.runtime.AsyncioRuntime` nodes — each with its own
drift-and-offset hardware-clock model layered over the wall clock —
wires them through a UDP (or in-memory loopback) transport, runs the
*unmodified* :class:`~repro.core.sync.SyncProcess` for a wall-clock
duration, and streams Theorem5Probe-style deviation telemetry through
the standard :class:`~repro.obs.bus.EventBus`:

* ``live.deviation`` — per node per sample: clock reading and signed
  deviation from the cluster median;
* ``live.spread`` — per sample: the max-minus-min cluster spread, the
  live analogue of Definition 3's pairwise deviation.

The same wiring runs on a :class:`~repro.sim.engine.Simulator` via
:func:`build_cluster` + ``sim.run(until=...)`` — that path is what the
rt tests and ``tools/check_determinism.py`` drive deterministically.
:func:`run_processes` runs one node of the cluster per OS process
(``repro live --processes``): each child is an ordinary ``repro live
--node-index i`` run hosting its node on a fixed UDP port from a shared
epoch, and :func:`replay_samples` rebuilds every node's clock from the
children's ``sync.complete`` events to read them all at one ``tau``.
Both entry points return the same :class:`LiveReport`: the deviations
and spread of every clock read at one instant, each ``sample_interval``
and once more at the end of the run.

:func:`run_live` finishes by fronting each node with a
:class:`~repro.service.timeservice.SecureTimeService`, so the service
stack of PR 3 finally answers ``now()`` from a clock that ticks in real
time.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable

from repro.clocks.hardware import FixedRateClock
from repro.clocks.logical import LogicalClock
from repro.core.params import ProtocolParams
from repro.core.sync import SyncProcess
from repro.errors import ConfigurationError
from repro.obs.bus import EventBus
from repro.rt.runtime import AsyncioRuntime
from repro.rt.transport import LoopbackTransport, Transport, UdpTransport
from repro.service.timeservice import SecureTimeService

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.bus import ObsEvent
    from repro.obs.live import ClusterIntrospection, LiveTelemetry
    from repro.obs.recorder import ObsConfig
    from repro.service.query import TimeQueryServer


def _sample(clocks: dict[int, LogicalClock], tau: float,
            series: dict[int, list[tuple[float, float]]],
            spread: list[tuple[float, float]]
            ) -> tuple[dict[int, float], dict[int, float]]:
    """Read every clock at one ``tau``: append each node's deviation
    from the median reading to ``series`` and the ``max - min`` spread
    to ``spread``.  Returns the readings and the deviations by node."""
    readings = {node: clock.read(tau) for node, clock in clocks.items()}
    ordered = sorted(readings.values())
    mid = len(ordered) // 2
    median = (ordered[mid] if len(ordered) % 2
              else 0.5 * (ordered[mid - 1] + ordered[mid]))
    deviations = {node: value - median for node, value in readings.items()}
    for node, deviation in deviations.items():
        series.setdefault(node, []).append((tau, deviation))
    spread.append((tau, ordered[-1] - ordered[0]))
    return readings, deviations


def default_live_params(n: int = 4, f: int = 1, delta: float = 0.02,
                        rho: float = 1e-4, pi: float = 2.0) -> ProtocolParams:
    """Parameters sized for localhost: ``delta`` far above real RTTs
    yet small enough that ``PI`` fits the Section 4 ``K >= 5`` windows."""
    return ProtocolParams.derive(n=n, f=f, delta=delta, rho=rho, pi=pi)


def make_live_clocks(params: ProtocolParams, seed: int
                     ) -> dict[int, LogicalClock]:
    """Deterministic per-node clock models over the wall clock.

    Each node gets a :class:`~repro.clocks.hardware.FixedRateClock` with
    a seed-derived rate inside the drift bound and a seed-derived
    initial offset, so a live cluster starts visibly disagreeing and
    must *converge* — the demo is Sync doing real work, not clocks that
    agree by construction.  Offsets are uniform over half the Theorem 5
    deviation bound.
    """
    rng = random.Random(seed)
    offset_spread = 0.5 * params.bounds().max_deviation
    clocks = {}
    for node in range(params.n):
        rate = 1.0 + rng.uniform(-0.5, 0.5) * params.rho
        offset = rng.uniform(0.0, offset_spread)
        clocks[node] = LogicalClock(FixedRateClock(rho=params.rho, rate=rate),
                                    adj=offset)
    return clocks


@dataclass
class LiveCluster:
    """One wired-up live cluster (runtimes, processes, telemetry).

    Built by :func:`build_cluster`; drive it with a real loop
    (:func:`run_live`) or the simulator (``loop.run(until=...)``).

    Attributes:
        params: Protocol parameterization.
        loop: The event loop (real asyncio or the simulator).
        epoch: Loop time corresponding to ``tau = 0``.
        clocks: Logical clocks by node.
        runtimes: The per-node runtimes.
        processes: The per-node ``SyncProcess`` instances.
        transports: Per-node transports (one shared entry under
            loopback).
        bus: The observability event bus telemetry publishes into.
        series: Per-node ``(tau, deviation-from-median)`` samples.
        spread: Cluster ``(tau, max - min)`` samples.
        telemetry: The cluster's
            :class:`~repro.obs.live.LiveTelemetry`, or ``None`` when
            the cluster runs uninstrumented (the default — the sampler
            still records ``series``/``spread``, but no registry, span
            tracer, wall-clock probe, or event capture is attached).
        metrics_server: The admin scrape endpoint after
            :meth:`serve_metrics` (``None`` otherwise).
    """

    params: ProtocolParams
    loop: Any
    epoch: float
    clocks: dict[int, LogicalClock]
    runtimes: dict[int, AsyncioRuntime]
    processes: dict[int, SyncProcess]
    transports: dict[int, Transport]
    bus: EventBus
    series: dict[int, list[tuple[float, float]]] = field(default_factory=dict)
    spread: list[tuple[float, float]] = field(default_factory=list)
    query_servers: dict[int, "TimeQueryServer"] = field(default_factory=dict)
    telemetry: "LiveTelemetry | None" = None
    metrics_server: Any = None
    _sampler: Any = None

    def now(self) -> float:
        """Cluster tau: loop time rebased to the epoch."""
        return self.loop.time() - self.epoch

    # -- telemetry ------------------------------------------------------

    def sample_once(self) -> float:
        """Read every clock, publish telemetry, record series; returns
        the cluster spread at this instant."""
        tau = self.now()
        readings, deviations = _sample(self.clocks, tau, self.series,
                                       self.spread)
        for node, deviation in deviations.items():
            self.bus.publish("live.deviation", node=node,
                             clock=readings[node], deviation=deviation)
        spread = self.spread[-1][1]
        self.bus.publish("live.spread", spread=spread,
                         bound=self.params.bounds().max_deviation)
        if self.telemetry is not None:
            self.telemetry.on_sample(tau, spread=spread)
        return spread

    def start(self, sample_interval: float = 0.1) -> None:
        """Start every process and the periodic telemetry sampler."""
        for process in self.processes.values():
            process.start()

        def tick() -> None:
            self.sample_once()
            self._sampler = self.loop.call_at(
                self.loop.time() + sample_interval, tick)

        self._sampler = self.loop.call_at(self.loop.time() + sample_interval,
                                          tick)

    def stop(self) -> None:
        """Cancel timers, close sockets, finalize telemetry (idempotent)."""
        if self._sampler is not None:
            self._sampler.cancel()
            self._sampler = None
        for process in self.processes.values():
            process.cancel_all_timers()
        for server in self.query_servers.values():
            server.close()
        if self.metrics_server is not None:
            self.metrics_server.close()
            self.metrics_server = None
        for transport in self.transports.values():
            close = getattr(transport, "close", None)
            if close is not None:
                close()
        if self.telemetry is not None:
            self.telemetry.finalize()

    # -- service front --------------------------------------------------

    def time_service(self, node: int) -> SecureTimeService:
        """A :class:`SecureTimeService` fronting ``node``'s live clock."""
        return SecureTimeService(self.processes[node], self.params)

    def introspection(self) -> "ClusterIntrospection":
        """The cluster's stats/health view (works without telemetry)."""
        from repro.obs.live import ClusterIntrospection

        return ClusterIntrospection(self, self.telemetry)

    async def serve_queries(self, node: int, host: str = "127.0.0.1",
                            port: int = 0) -> "TimeQueryServer":
        """Open a client-facing :class:`TimeQueryServer` for ``node``.

        The server answers ``now`` / ``validate_timestamp`` / ``epoch``
        queries at estimation cost from the node's live clock, plus the
        ``stats`` / ``health`` admin ops from the cluster introspection
        view; when telemetry is attached, query service times feed the
        node's ``query_latency_seconds`` histogram.  Closed by
        :meth:`stop`.
        """
        from repro.service.query import TimeQueryServer

        introspection = self.introspection()
        server = TimeQueryServer(self.time_service(node), node_id=node,
                                 metrics=introspection.registry,
                                 introspection=introspection)
        await server.start(host=host, port=port)
        self.query_servers[node] = server
        return server

    async def serve_metrics(self, host: str = "127.0.0.1",
                            port: int = 0) -> tuple[str, int]:
        """Open the admin scrape endpoint; returns ``(host, port)``.

        Serves Prometheus text exposition at ``/metrics`` (rendered
        fresh from the registry snapshot on every scrape) and the JSON
        introspection documents at ``/health`` / ``/stats``.  Closed by
        :meth:`stop`.
        """
        from repro.obs.expo import MetricsHttpServer, render_prometheus

        intro = self.introspection()
        server = MetricsHttpServer(
            lambda: render_prometheus(intro.metrics_snapshot()),
            intro.health, intro.stats)
        address = await server.start(host=host, port=port)
        self.metrics_server = server
        return address


def build_cluster(params: ProtocolParams, loop: Any, seed: int = 0,
                  transport: str = "loopback", bus: EventBus | None = None,
                  epoch: float | None = None,
                  telemetry: "bool | ObsConfig" = False,
                  hosted: Iterable[int] | None = None) -> LiveCluster:
    """Wire clocks, runtimes, transports, and Sync processes.

    With ``transport="loopback"`` the cluster is complete on return.
    With ``transport="udp"`` the per-node transports still need
    ``await transport.start()`` + ``set_peers`` —
    :func:`run_live` does that; tests use loopback.

    The loopback delay is ``params.delta / 2`` (the simulator's
    ``FixedDelay`` default, keeping conformance runs aligned), and node
    ``i`` starts at phase ``i * sync_interval / n`` so first Syncs don't
    collide.

    Args:
        telemetry: ``False`` (default) leaves the cluster
            uninstrumented — processes never publish protocol events
            and no registry or probe exists, the zero-overhead
            configuration.  ``True`` attaches a
            :class:`~repro.obs.live.LiveTelemetry` with the default
            :class:`~repro.obs.recorder.ObsConfig` (spans + metrics +
            wall-clock Theorem 5 probe); pass an ``ObsConfig`` to
            select subsystems.
        hosted: The nodes this loop runs (default: all ``params.n``);
            the others are peers reached over the transport.
    """
    if transport not in ("loopback", "udp"):
        raise ConfigurationError(f"unknown transport {transport!r}")
    epoch = loop.time() if epoch is None else float(epoch)
    bus = bus if bus is not None else EventBus()

    def now() -> float:
        return loop.time() - epoch

    bus.set_clock(now)
    nodes = range(params.n) if hosted is None else sorted(hosted)
    if transport == "loopback" and len(nodes) < params.n:
        raise ConfigurationError("a loopback hub reaches only the nodes "
                                 "this loop hosts; host a subset over udp")
    all_clocks = make_live_clocks(params, seed)
    clocks = {node: all_clocks[node] for node in nodes}

    transports: dict[int, Transport] = {}
    if transport == "loopback":
        hub = LoopbackTransport(loop, delay=params.delta / 2.0, now=now)
        for node in nodes:
            transports[node] = hub
    else:
        for node in nodes:
            transports[node] = UdpTransport(node, now)

    runtimes: dict[int, AsyncioRuntime] = {}
    processes: dict[int, SyncProcess] = {}
    for node in nodes:
        runtime = AsyncioRuntime(node, clocks[node], transports[node], loop,
                                 epoch=epoch, obs=bus)
        process = SyncProcess(runtime, params,
                              start_phase=node * params.sync_interval / params.n)
        runtime.bind(process)
        runtimes[node] = runtime
        processes[node] = process

    cluster = LiveCluster(params=params, loop=loop, epoch=epoch, clocks=clocks,
                          runtimes=runtimes, processes=processes,
                          transports=transports, bus=bus)
    if telemetry:
        from repro.obs.live import LiveTelemetry
        from repro.obs.recorder import ObsConfig

        config = telemetry if isinstance(telemetry, ObsConfig) else None
        cluster.telemetry = LiveTelemetry(config, bus=bus)
        cluster.telemetry.attach(cluster)
    return cluster


@dataclass
class LiveReport:
    """Outcome of one :func:`run_live` or :func:`run_processes`
    deployment.

    Attributes:
        params: The parameterization the cluster ran.
        transport: ``"udp"`` or ``"loopback"``.
        duration: Requested wall-clock duration (seconds).
        series: Per-node ``(tau, deviation-from-median)`` samples.
        spread: Cluster ``(tau, spread)`` samples.
        rounds: Completed Sync rounds per node.
        bound: The Theorem 5 deviation bound for ``params``.
        events_published: Total obs-bus events emitted (for
            :func:`run_processes`, the events of every child's trace).
        service_readings: One final ``SecureTimeService.now()`` per node
            (for :func:`run_processes`, each rebuilt clock read at the
            last instant of ``spread``).
        query_ports: Query-server port per node (``--serve`` runs only).
        queries_answered: Queries answered per node (``--serve`` only).
        queries_failed: ``ok=False`` replies per node (``--serve`` only).
        queries_malformed: Undecodable query datagrams per node
            (``--serve`` only).
        transport_counters: Per-node transport counters (sent,
            delivered, and the three drop classes) at shutdown; node
            keys are stringified, ``"_"`` for a shared loopback hub.
        telemetry: Whether the run carried a live telemetry plane.
        probe_violations: Wall-clock Theorem 5 probe violations
            (``None`` when telemetry was off).
        metrics_port: The admin scrape port (``None`` when not serving
            metrics).
        metrics_snapshot: Final registry snapshot (``None`` when
            telemetry was off).
        events: Every obs event the telemetry plane recorded, in order
            (empty when telemetry was off) — the ``--trace`` stream.
        failed_nodes: The nodes whose child process exited non-zero,
            was killed or left no readable trace (always empty in
            process); any entry makes the run unbounded.
    """

    params: ProtocolParams
    transport: str
    duration: float
    series: dict[int, list[tuple[float, float]]]
    spread: list[tuple[float, float]]
    rounds: dict[int, int]
    bound: float
    events_published: int
    service_readings: dict[int, float]
    query_ports: dict[int, int] = field(default_factory=dict)
    queries_answered: dict[int, int] = field(default_factory=dict)
    queries_failed: dict[int, int] = field(default_factory=dict)
    queries_malformed: dict[int, int] = field(default_factory=dict)
    transport_counters: dict[str, dict[str, int]] = field(default_factory=dict)
    telemetry: bool = False
    probe_violations: int | None = None
    metrics_port: int | None = None
    metrics_snapshot: dict | None = None
    events: list["ObsEvent"] = field(default_factory=list)
    failed_nodes: list[int] = field(default_factory=list)

    def bounded(self) -> bool:
        """The live acceptance criterion: no failed node, and
        :func:`repro.obs.live.spread_bounded` over the spread series."""
        from repro.obs.live import spread_bounded

        return not self.failed_nodes and spread_bounded(self.spread,
                                                        self.bound)

    def max_spread(self) -> float:
        """Largest observed cluster spread."""
        return max((s for _, s in self.spread), default=0.0)

    def final_spread(self) -> float:
        """Cluster spread at the last sample."""
        return self.spread[-1][1] if self.spread else 0.0

    def to_dict(self) -> dict:
        """JSON-able summary (the ``repro live --json`` document).

        Per-node deviation series are summarized away (they can run to
        thousands of points); the spread series is kept — it is what
        ``bounded`` is judged on.
        """
        return {
            "params": {"n": self.params.n, "f": self.params.f,
                       "delta": self.params.delta, "rho": self.params.rho,
                       "pi": self.params.pi},
            "transport": self.transport,
            "duration": self.duration,
            "bound": self.bound,
            "bounded": self.bounded(),
            "max_spread": self.max_spread(),
            "final_spread": self.final_spread(),
            "samples": len(self.spread),
            "spread": [[tau, s] for tau, s in self.spread],
            "rounds": {str(n): r for n, r in self.rounds.items()},
            "events_published": self.events_published,
            "service_readings": {str(n): v
                                 for n, v in self.service_readings.items()},
            "query_ports": {str(n): p for n, p in self.query_ports.items()},
            "queries_answered": {str(n): v
                                 for n, v in self.queries_answered.items()},
            "queries_failed": {str(n): v
                               for n, v in self.queries_failed.items()},
            "queries_malformed": {str(n): v
                                  for n, v in self.queries_malformed.items()},
            "transport_counters": self.transport_counters,
            "telemetry": self.telemetry,
            "probe_violations": self.probe_violations,
            "metrics_port": self.metrics_port,
            "failed_nodes": self.failed_nodes,
        }


def run_live(nodes: int = 4, f: int = 1, duration: float = 2.0,
             delta: float = 0.02, rho: float = 1e-4, pi: float = 2.0,
             transport: str = "udp", sample_interval: float = 0.1,
             seed: int = 0, serve_base_port: int | None = None,
             telemetry: "bool | ObsConfig" = False,
             metrics_port: int | None = None,
             node_index: int | None = None,
             base_port: int | None = None,
             epoch: float | None = None) -> LiveReport:
    """Deploy a live Sync cluster and run it for ``duration`` seconds.

    Blocking entry point (wraps ``asyncio.run``): spawns ``nodes``
    asyncio runtimes on localhost — real UDP sockets by default — runs
    the paper's Sync protocol on wall-clock timers, and returns the
    telemetry report.  With ``serve_base_port``
    each node additionally answers client time queries on UDP port
    ``serve_base_port + node`` (see :mod:`repro.service.query`).
    ``telemetry`` attaches the live telemetry plane (see
    :func:`build_cluster`); its events come back as
    :attr:`LiveReport.events`.  ``metrics_port`` (0 = ephemeral)
    additionally serves the Prometheus/health/stats admin endpoint
    while the cluster runs.

    ``node_index`` hosts only that node of the ``nodes``-node cluster
    (one process of ``repro live --processes``).  ``base_port`` binds
    node ``i``'s Sync socket to ``base_port + i`` and expects every
    peer ``j`` at ``base_port + j`` (default: ephemeral ports).
    ``epoch`` is the loop time (``time.monotonic()``) of ``tau = 0``,
    at which the cluster starts (default: now).
    """
    params = default_live_params(n=nodes, f=f, delta=delta, rho=rho, pi=pi)

    async def run() -> LiveReport:
        loop = asyncio.get_running_loop()
        cluster = build_cluster(params, loop, seed=seed, transport=transport,
                                epoch=epoch, telemetry=telemetry,
                                hosted=None if node_index is None
                                else (node_index,))
        metrics_address: tuple[str, int] | None = None
        try:
            if transport == "udp":
                addresses: dict[int, tuple[str, int]] = (
                    {} if base_port is None else
                    {node: ("127.0.0.1", base_port + node)
                     for node in range(params.n)})
                for node, udp in cluster.transports.items():
                    addresses[node] = await udp.start(
                        port=0 if base_port is None else base_port + node)
                for udp in cluster.transports.values():
                    udp.set_peers(addresses)
            if serve_base_port is not None:
                for node in cluster.processes:
                    await cluster.serve_queries(node, port=(
                        0 if serve_base_port == 0 else serve_base_port + node))
            if metrics_port is not None:
                metrics_address = await cluster.serve_metrics(
                    port=metrics_port)
            # Processes of one cluster share the epoch (CLOCK_MONOTONIC
            # is system-wide, so tau is comparable across them).
            await asyncio.sleep(max(0.0, cluster.epoch - loop.time()))
            cluster.start(sample_interval=sample_interval)
            await asyncio.sleep(duration)
            cluster.sample_once()  # a final post-convergence sample
            services = {node: cluster.time_service(node).now()
                        for node in cluster.processes}
            transport_counters = cluster.introspection().transport_counters()
        finally:
            cluster.stop()
        plane, servers = cluster.telemetry, cluster.query_servers
        return LiveReport(
            params=params,
            transport=transport,
            duration=duration,
            series=cluster.series,
            spread=cluster.spread,
            rounds={node: proc.rounds_completed
                    for node, proc in cluster.processes.items()},
            bound=params.bounds().max_deviation,
            events_published=cluster.bus.events_published,
            service_readings=services,
            query_ports={node: server.address[1]
                         for node, server in servers.items()},
            queries_answered={node: server.queries_answered
                              for node, server in servers.items()},
            queries_failed={node: server.queries_failed
                            for node, server in servers.items()},
            queries_malformed={node: server.malformed_dropped
                               for node, server in servers.items()},
            transport_counters=transport_counters,
            telemetry=plane is not None,
            probe_violations=(len(plane.violations)
                              if plane is not None else None),
            metrics_port=metrics_address[1] if metrics_address else None,
            metrics_snapshot=(plane.metrics.snapshot() if plane is not None
                              and plane.collector is not None else None),
            events=plane.events if plane is not None else [],
        )

    return asyncio.run(run())


def run_processes(nodes: int = 4, f: int = 1, duration: float = 2.0,
                  delta: float = 0.02, rho: float = 1e-4, pi: float = 2.0,
                  sample_interval: float = 0.1, seed: int = 0,
                  base_port: int = 19200) -> LiveReport:
    """Run a live cluster with one OS process per node; same report as
    :func:`run_live`.

    Spawns one ``repro live --node-index i`` child per node over UDP
    (node ``i`` on ``base_port + i``, every child starting at one shared
    ``CLOCK_MONOTONIC`` epoch, each tracing to its own file) and reaps
    them; if a child outlives its ``duration + 30`` s wait, it and every
    other child still running are killed and reaped.  The traces are
    then replayed by :func:`replay_samples` onto
    :func:`make_live_clocks`, read at every ``k * sample_interval`` up
    to ``duration`` and at ``duration`` itself, like the in-process
    sampler's final sample.  The report's ``rounds`` count each child's
    ``sync.complete`` events, ``transport_counters[str(i)]`` is child
    ``i``'s last ``metrics.snapshot``, ``probe_violations`` counts the
    traces' ``probe.violation`` events and ``failed_nodes`` names every
    child that exited non-zero, was killed or left no readable trace.
    """
    import os
    import subprocess
    import sys
    import tempfile
    import time

    from repro.obs.bus import read_events_jsonl
    from repro.obs.live import TRANSPORT_COUNTERS
    from repro.obs.probes import violations_from_events

    params = default_live_params(n=nodes, f=f, delta=delta, rho=rho, pi=pi)
    epoch = time.monotonic() + 1.0  # give every child time to bind first
    streams: list[list["ObsEvent"]] = []
    with tempfile.TemporaryDirectory() as scratch:
        traces = [os.path.join(scratch, f"node{node}.jsonl")
                  for node in range(nodes)]
        children = [subprocess.Popen(
            [sys.executable, "-m", "repro", "live",
             "--node-index", str(node), "--nodes", str(nodes),
             "--f", str(f), "--duration", str(duration),
             "--delta", str(delta), "--rho", str(rho),
             "--pi", str(pi), "--base-port", str(base_port),
             "--epoch", repr(epoch), "--seed", str(seed),
             "--sample-interval", str(sample_interval),
             "--trace", trace], stdout=subprocess.DEVNULL)
            for node, trace in enumerate(traces)]
        for child in children:
            try:
                child.communicate(timeout=duration + 30.0)
            except subprocess.TimeoutExpired:
                for running in children:
                    if running.poll() is None:
                        running.kill()
                        running.wait()
                break
        failed = {node for node, child in enumerate(children)
                  if child.poll() != 0}
        for node, trace in enumerate(traces):
            try:
                streams.append(read_events_jsonl(trace))
            except (OSError, ValueError, KeyError):
                streams.append([])  # missing, or cut off by a kill
                failed.add(node)
    events = [event for stream in streams for event in stream]
    # Every k * sample_interval up to the duration (rounded first, so
    # 0.3 / 0.1 counts 3 instants, not 2), then the duration itself.
    instants = int(round(duration / sample_interval, 9))
    taus = [k * sample_interval for k in range(1, instants + 1)]
    if not taus or abs(taus[-1] - duration) > 1e-9:
        taus.append(duration)
    clocks = make_live_clocks(params, seed)
    series, spread = replay_samples(clocks, events, taus)
    transport_counters: dict[str, dict[str, int]] = {}
    for node, stream in enumerate(streams):
        snapshots = [event.data["snapshot"]["counters"] for event in stream
                     if event.kind == "metrics.snapshot"]
        last = snapshots[-1] if snapshots else {}
        transport_counters[str(node)] = {
            name: int(last[name][str(node)]) for name, _ in TRANSPORT_COUNTERS
            if str(node) in last.get(name, {})}
    return LiveReport(
        params=params, transport="udp", duration=duration,
        series=series, spread=spread,
        rounds={node: sum(event.kind == "sync.complete" for event in stream)
                for node, stream in enumerate(streams)},
        bound=params.bounds().max_deviation, events_published=len(events),
        service_readings={node: clock.read(spread[-1][0])
                          for node, clock in clocks.items()},
        transport_counters=transport_counters, telemetry=True,
        probe_violations=len(violations_from_events(events)),
        failed_nodes=sorted(failed))


def replay_samples(clocks: dict[int, LogicalClock],
                   events: Iterable["ObsEvent"], taus: Iterable[float]
                   ) -> tuple[dict[int, list[tuple[float, float]]],
                              list[tuple[float, float]]]:
    """Per-node deviations and cluster spread at common ``tau``, over
    clocks rebuilt from a trace.

    ``clocks`` start as :func:`make_live_clocks` builds them (hardware
    model and initial ``adj``).  Every ``sync.complete`` event in
    ``events`` is applied, in time order, as
    ``clocks[node].adjust(time, correction)``, so on return each clock's
    ``adjustments`` log is its node's correction history.  At each of
    the ascending ``taus``, after the corrections stamped at or before
    it, every clock is read at that same ``tau`` exactly as
    :meth:`LiveCluster.sample_once` reads them: the returned
    ``(series, spread)`` pair is what a cluster keeps, Theorem 5(i)'s
    precision for nodes that never shared a sampler.
    """
    syncs = sorted((event for event in events
                    if event.kind == "sync.complete"),
                   key=lambda event: event.time)
    series: dict[int, list[tuple[float, float]]] = {}
    spread: list[tuple[float, float]] = []
    applied = 0
    for tau in taus:
        while applied < len(syncs) and syncs[applied].time <= tau:
            event = syncs[applied]
            clocks[event.node].adjust(event.time, event.data["correction"])
            applied += 1
        _sample(clocks, tau, series, spread)
    return series, spread
