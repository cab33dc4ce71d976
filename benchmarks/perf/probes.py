"""Direct-call micro-probes: one layer's public function in a loop.

Each probe draws its inputs from the workload it belongs to and reports
the median over ``REPS`` repetitions of (loop time / calls), so a single
scheduler hiccup cannot move it.
"""

from __future__ import annotations

import random
from time import perf_counter_ns
from typing import Any, Callable

from harness import gc_paused, median

REPS = 5


def per_call_ns(fn: Callable[[], Any], calls: int) -> float:
    """Median ns per ``fn()`` over ``REPS`` loops of ``calls`` calls."""
    samples = []
    with gc_paused():
        for _ in range(REPS):
            start = perf_counter_ns()
            for _ in range(calls):
                fn()
            samples.append((perf_counter_ns() - start) / calls)
    return median(samples)


def per_item_ns(fn: Callable[[], Any], items: int) -> float:
    """Median ns per item over ``REPS`` calls of a ``fn`` that handles
    ``items`` items itself."""
    return per_call_ns(fn, 1) / items


# ----------------------------------------------------------------------
# sim.engine / sim.runtime
# ----------------------------------------------------------------------

_CHAIN = 10_000


def engine_probes() -> dict[str, float]:
    """10k chained timers: bare ``Simulator`` vs the ``SimRuntime`` seam."""
    from repro.clocks.hardware import FixedRateClock
    from repro.clocks.logical import LogicalClock
    from repro.net.links import FixedDelay
    from repro.net.network import Network
    from repro.net.topology import full_mesh
    from repro.sim.engine import Simulator
    from repro.sim.runtime import SimRuntime

    def chain_raw() -> None:
        sim = Simulator(seed=0)
        remaining = [_CHAIN]

        def tick() -> None:
            remaining[0] -= 1
            if remaining[0] > 0:
                sim.schedule(0.001, tick)

        sim.schedule(0.001, tick)
        sim.run()

    def chain_runtime() -> None:
        sim = Simulator(seed=0)
        network = Network(sim, full_mesh(2),
                          FixedDelay(delta=0.01, value=0.001))
        runtime = SimRuntime(0, sim, network,
                             LogicalClock(FixedRateClock(rho=0.0)))
        remaining = [_CHAIN]

        def tick() -> None:
            remaining[0] -= 1
            if remaining[0] > 0:
                runtime.set_local_timer(0.001, tick)

        runtime.set_local_timer(0.001, tick)
        sim.run()

    return {"sim.engine.chain_ns": per_item_ns(chain_raw, _CHAIN),
            "sim.runtime.timer_ns": per_item_ns(chain_runtime, _CHAIN)}


# ----------------------------------------------------------------------
# net.links / clocks, on the scalar workload's own models
# ----------------------------------------------------------------------


def scalar_input_probes(config: dict[str, Any]) -> dict[str, float]:
    """Delay draws and clock reads on the models ``config`` resolves to."""
    from repro.clocks.logical import LogicalClock
    from repro.runner.config import scenario_from_config

    scenario = scenario_from_config(config)
    params = scenario.params
    rng = random.Random(scenario.seed)
    delay_model = scenario.resolved_delay_model()
    hardware = scenario.resolved_clock_factory()(
        0, params, random.Random(scenario.seed), scenario.duration)
    clock = LogicalClock(hardware, adj=0.0)
    taus = [rng.uniform(0.0, scenario.duration * 0.9) for _ in range(1000)]
    step = params.sync_interval

    def draws() -> None:
        sample = delay_model.sample
        for _ in range(1000):
            sample(0, 1, rng)

    def reads() -> None:
        read = clock.read
        for tau in taus:
            read(tau)

    def inversions() -> None:
        after = hardware.real_time_after
        for tau in taus:
            after(tau, step)

    return {"net.links.draw_ns": per_call_ns(draws, 20) / 1000,
            "clocks.read_ns": per_call_ns(reads, 20) / 1000,
            "clocks.invert_ns": per_call_ns(inversions, 20) / 1000}


# ----------------------------------------------------------------------
# core.convergence
# ----------------------------------------------------------------------


def decide_probes(way_off: float, widths: tuple[int, ...]
                  ) -> dict[str, float]:
    """``decide_arrays`` at the estimate widths the workload uses."""
    from repro.core.convergence import decide_arrays

    rng = random.Random(0)
    out = {}
    for width in widths:
        f = (width - 1) // 3
        distances = [rng.uniform(-0.004, 0.004) for _ in range(width)]
        over = [d + 0.002 for d in distances]
        under = [d - 0.002 for d in distances]
        out[f"core.convergence.decide_ns.w{width}"] = per_call_ns(
            lambda: decide_arrays(over, under, f, way_off), 5000)
    return out


# ----------------------------------------------------------------------
# runner.scenario
# ----------------------------------------------------------------------


def config_round_trip_us(config: dict[str, Any]) -> float:
    """``Scenario.from_config`` + ``to_config`` of a declarative config."""
    from repro.runner.scenario import Scenario

    return per_call_ns(
        lambda: Scenario.from_config(config).to_config(), 500) / 1e3


# ----------------------------------------------------------------------
# rt.codec / service.query
# ----------------------------------------------------------------------


def codec_probes() -> dict[str, float]:
    """Binary encode/decode over query, reply, Ping and Pong; the legacy
    JSON decode of the same mix; the query+reply datagram size."""
    from repro.rt.codec import decode_datagram, encode_datagram
    from repro.runtime.messages import Ping, Pong
    from repro.service.query import OP_NOW, TimeQuery, TimeReply

    payloads = [TimeQuery(op=OP_NOW, qid=12345),
                TimeReply(qid=12345, ok=True, value=1234.5678, node=0),
                Ping(nonce=987654321, round_no=42),
                Pong(nonce=987654321, clock_value=1234.5678)]
    binary = [encode_datagram(-1, 0, p, 12.5) for p in payloads]
    legacy = [encode_datagram(-1, 0, p, 12.5, wire="json")
              for p in payloads]

    def encode() -> None:
        for payload in payloads:
            encode_datagram(-1, 0, payload, 12.5)

    def decode() -> None:
        for data in binary:
            decode_datagram(data)

    def decode_json() -> None:
        for data in legacy:
            decode_datagram(data)

    each = len(payloads)
    return {"rt.codec.encode_ns": per_call_ns(encode, 5000) / each,
            "rt.codec.decode_ns": per_call_ns(decode, 5000) / each,
            "rt.codec.decode_json_ns": per_call_ns(decode_json, 2000) / each,
            "rt.codec.datagram_bytes": (len(binary[0]) + len(binary[1]))
            / 2.0}


def answer_ns(nodes: int, f: int, delta: float) -> float:
    """``answer_query`` against a loopback cluster's service: the
    server's work per query with no socket and no event loop."""
    import asyncio

    from repro.rt.live import build_cluster, default_live_params
    from repro.service.query import OP_NOW, TimeQuery, answer_query

    loop = asyncio.new_event_loop()
    try:
        cluster = build_cluster(default_live_params(n=nodes, f=f,
                                                    delta=delta),
                                loop, seed=0, transport="loopback")
        service = cluster.time_service(0)
        query = TimeQuery(op=OP_NOW, qid=0)
        return per_call_ns(lambda: answer_query(service, query), 20000)
    finally:
        loop.close()
