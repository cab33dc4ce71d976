"""Cross-runtime conformance: Sync decides identically on both substrates.

The runtime seam's correctness contract: the *same* protocol class run
on :class:`repro.sim.runtime.SimRuntime` (discrete-event simulator) and
on :class:`repro.rt.runtime.AsyncioRuntime` with loopback transport
must produce the same sequence of Figure 1 correction decisions per
node — same rounds, same ``m``/``M`` statistics, same corrections, bit
for bit.  Both runtimes run on one :class:`~repro.sim.engine.Simulator`
(the rt side through its asyncio-shaped ``time()``/``call_at()``), so
callbacks share one ``(fire_time, insertion_seq)`` order and only the
runtime seam can differ: any divergence is a seam bug, not noise.

Property-tested over seeds: each seed derives per-node rates, offsets,
and start phases, so one passing seed is an anecdote but a sweep is
evidence.
"""

from __future__ import annotations

import pytest

from repro.clocks.hardware import FixedRateClock
from repro.clocks.logical import LogicalClock
from repro.core.params import ProtocolParams
from repro.core.sync import SyncProcess
from repro.net.links import FixedDelay
from repro.net.network import Network
from repro.net.topology import full_mesh
from repro.rt.runtime import AsyncioRuntime
from repro.rt.transport import LoopbackTransport
from repro.sim.engine import Simulator
from repro.sim.runtime import SimRuntime

import random

DURATION = 3.0


def make_params(n=4, f=1) -> ProtocolParams:
    return ProtocolParams.derive(n=n, f=f, delta=0.01, rho=5e-4, pi=2.0)


def seed_derived_cluster(params: ProtocolParams, seed: int):
    """Per-node (rate, offset, phase) drawn deterministically from seed."""
    rng = random.Random(seed)
    nodes = []
    for node in range(params.n):
        nodes.append((
            1.0 + rng.uniform(-0.5, 0.5) * params.rho,       # hardware rate
            rng.uniform(0.0, 0.1),                           # initial offset
            rng.uniform(0.0, params.sync_interval),          # start phase
        ))
    return nodes


def decisions(process: SyncProcess):
    """The Figure 1 decision sequence a conformance check compares."""
    return [(r.round_no, r.correction, r.m, r.big_m, r.own_discarded,
             r.replies) for r in process.sync_records]


def run_on_sim(params: ProtocolParams, cluster, crashed=()) -> dict:
    sim = Simulator(seed=0)
    network = Network(sim, full_mesh(params.n),
                      FixedDelay(params.delta, value=params.delta / 2.0))
    processes = {}
    for node, (rate, offset, phase) in enumerate(cluster):
        clock = LogicalClock(FixedRateClock(rho=params.rho, rate=rate),
                             adj=offset)
        process = SyncProcess(SimRuntime(node, sim, network, clock), params,
                              start_phase=phase)
        network.bind(process)
        processes[node] = process
    for node, process in processes.items():
        if node not in crashed:
            process.start()
    sim.run(until=DURATION)
    return processes


def run_on_rt(params: ProtocolParams, cluster, crashed=(),
              instrument=False) -> dict:
    loop = Simulator(seed=0)
    transport = LoopbackTransport(loop, delay=params.delta / 2.0)
    processes = {}
    bus = None
    if instrument:
        # Full telemetry on the rt substrate: events flowing into a
        # metrics collector must not perturb a single decision.
        from repro.obs import EventBus, MetricsCollector

        bus = EventBus()
        bus.set_clock(loop.time)
        MetricsCollector(bus)
    for node, (rate, offset, phase) in enumerate(cluster):
        clock = LogicalClock(FixedRateClock(rho=params.rho, rate=rate),
                             adj=offset)
        runtime = AsyncioRuntime(node, clock, transport, loop, epoch=0.0,
                                 obs=bus)
        process = SyncProcess(runtime, params, start_phase=phase)
        if bus is not None:
            process.obs = bus
        runtime.bind(process)
        processes[node] = process
    for node, process in processes.items():
        if node not in crashed:
            process.start()
    loop.run(until=DURATION)
    return processes


@pytest.mark.parametrize("seed", range(8))
def test_same_correction_decisions_per_node(seed):
    """Property: every node's full decision sequence matches exactly."""
    params = make_params()
    cluster = seed_derived_cluster(params, seed)
    on_sim = run_on_sim(params, cluster)
    on_rt = run_on_rt(params, cluster)
    for node in range(params.n):
        assert decisions(on_sim[node]) == decisions(on_rt[node]), (
            f"node {node} diverged between runtimes (seed {seed})")
        # Both made progress: the comparison is not vacuous.
        assert on_sim[node].rounds_completed >= 3


@pytest.mark.parametrize("seed", (0, 3))
def test_final_clocks_match(seed):
    """Stronger: the resulting logical clocks agree at the horizon."""
    params = make_params()
    cluster = seed_derived_cluster(params, seed)
    on_sim = run_on_sim(params, cluster)
    on_rt = run_on_rt(params, cluster)
    for node in range(params.n):
        assert (on_sim[node].clock.read(DURATION)
                == on_rt[node].clock.read(DURATION))


@pytest.mark.parametrize("seed", (0, 5))
def test_telemetry_is_write_only_on_rt(seed):
    """Full telemetry on the rt substrate changes no decision and no
    final clock — float-exact, so the live path's instrumented and
    uninstrumented deployments remain the same protocol execution."""
    params = make_params()
    cluster = seed_derived_cluster(params, seed)
    plain = run_on_rt(params, cluster)
    instrumented = run_on_rt(params, cluster, instrument=True)
    for node in range(params.n):
        assert decisions(plain[node]) == decisions(instrumented[node])
        assert (plain[node].clock.read(DURATION)
                == instrumented[node].clock.read(DURATION))
    # And the instrumented rt run still conforms to the simulator.
    on_sim = run_on_sim(params, cluster)
    for node in range(params.n):
        assert decisions(on_sim[node]) == decisions(instrumented[node])


def test_larger_cluster_with_crashed_node():
    """n=7/f=2 with one never-started node (silent crash): the decision
    sequences still match, including the timeout-shaped statistics."""
    params = ProtocolParams.derive(n=7, f=2, delta=0.01, rho=5e-4, pi=2.0)
    cluster = seed_derived_cluster(params, 42)
    sim_procs = run_on_sim(params, cluster, crashed={6})
    rt_procs = run_on_rt(params, cluster, crashed={6})
    for node in range(params.n - 1):
        assert decisions(sim_procs[node]) == decisions(rt_procs[node])
    # The crashed node ran no Sync rounds of its own (it still answers
    # pings — responding is passive, the Section 3.3 no-rounds property).
    assert sim_procs[6].rounds_completed == 0
    assert rt_procs[6].rounds_completed == 0
