"""Substrate microbenchmarks: simulator and network throughput.

Not a paper experiment — these keep the simulator's performance visible
so that regressions in the substrate (which every experiment's wall
time depends on) are caught.  Run with normal pytest-benchmark
statistics (many rounds), unlike the one-shot experiment benches.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import time

from _util import emit

from repro.adversary.plans import PlanSpec, StrategySpec
from repro.clocks.hardware import FixedRateClock
from repro.clocks.logical import LogicalClock
from repro.metrics.columns import backend_name
from repro.metrics.report import table
from repro.net.links import FixedDelay
from repro.net.network import Network
from repro.net.topology import full_mesh
from repro.runner.builders import benign_scenario, default_params, mobile_byzantine_scenario
from repro.runner.campaign import run_config
from repro.runner.experiment import run
from repro.runner.scenario import Scenario
from repro.runner.vector import vector_spec
from repro.runtime import Process
from repro.sim.engine import Simulator
from repro.sim.runtime import SimRuntime
from repro.sim.vector import simulate_run


def test_event_throughput(benchmark):
    """Schedule-and-run 10k chained timer events."""

    def chain_events():
        sim = Simulator(seed=0)
        remaining = [10_000]

        def tick():
            remaining[0] -= 1
            if remaining[0] > 0:
                sim.schedule(0.001, tick)

        sim.schedule(0.001, tick)
        sim.run()
        return sim.events_processed

    events = benchmark(chain_events)
    assert events == 10_000


def test_runtime_dispatch_overhead(benchmark):
    """Cost of the NodeRuntime seam: 10k chained timers scheduled through
    ``SimRuntime.set_local_timer`` versus raw ``sim.schedule``.

    The strict regression bar lives in tools/bench_gate.py, which holds
    the end-to-end events/sec figure (now dispatched entirely through
    ``SimRuntime``) within 5% of the direct-dispatch PR 4 baseline.
    This microbench isolates the seam itself so a future regression is
    attributable, and asserts only a generous sanity ratio.
    """

    def chain_raw():
        sim = Simulator(seed=0)
        remaining = [10_000]

        def tick():
            remaining[0] -= 1
            if remaining[0] > 0:
                sim.schedule(0.001, tick)

        sim.schedule(0.001, tick)
        sim.run()
        return sim.events_processed

    def chain_runtime():
        sim = Simulator(seed=0)
        network = Network(sim, full_mesh(2), FixedDelay(delta=0.01, value=0.001))
        runtime = SimRuntime(0, sim, network,
                             LogicalClock(FixedRateClock(rho=0.0)))
        remaining = [10_000]

        def tick():
            remaining[0] -= 1
            if remaining[0] > 0:
                runtime.set_local_timer(0.001, tick)

        runtime.set_local_timer(0.001, tick)
        sim.run()
        return sim.events_processed

    import time

    def sample(fn):
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    raw_s = sample(chain_raw)
    seam_s = benchmark(chain_runtime)
    # benchmark() returns the function's result; re-time for the table.
    seam_best = sample(chain_runtime)
    ratio = seam_best / raw_s if raw_s > 0 else float("inf")
    emit("runtime_dispatch", table(
        ["raw_s", "seam_s", "ratio"],
        [[raw_s, seam_best, ratio]],
        title="SimRuntime timer dispatch vs raw sim.schedule (10k events)",
        precision=4,
    ))
    # Sanity only: the seam adds one tag format + handle allocation per
    # timer.  Anything past 2x means an accidental hot-path regression.
    assert ratio < 2.0


class _Echo(Process):
    def on_message(self, message):
        if message.payload < 20:
            self.send(message.sender, message.payload + 1)


def test_message_roundtrip_throughput(benchmark):
    """Ping-pong bursts across a 10-node mesh."""

    def run_mesh():
        sim = Simulator(seed=0)
        network = Network(sim, full_mesh(10), FixedDelay(delta=0.01, value=0.001))
        for i in range(10):
            network.bind(_Echo(SimRuntime(i, sim, network,
                                          LogicalClock(FixedRateClock(rho=0.0)))))
        for i in range(10):
            for j in range(10):
                if i != j:
                    network.send(i, j, 0)
        sim.run()
        return network.messages_delivered

    delivered = benchmark(run_mesh)
    assert delivered > 900


def test_full_scenario_wall_time(benchmark):
    """End-to-end cost of a standard benign run (n=7, 5 simulated s)."""

    def scenario_run():
        result = run(benign_scenario(default_params(), duration=5.0, seed=1))
        return result.events_processed

    events = benchmark.pedantic(scenario_run, rounds=3, iterations=1)
    assert events > 1000


def test_engine_throughput_e1_workload(benchmark):
    """Events/sec on the E1 headline workload, from the engine's own
    perf counters (the number the hot-path work is judged by)."""

    def e1_run():
        params = default_params(n=7, f=2, delta=0.005, pi=4.0)
        result = run(mobile_byzantine_scenario(params, duration=16.0, seed=1))
        return result.perf

    perf = benchmark.pedantic(e1_run, rounds=3, iterations=1)
    emit("engine_throughput", table(
        ["events", "wall_s", "events_per_sec", "heap_high_water", "cancelled_ratio"],
        [[perf.events_processed, perf.run_wall_time, perf.events_per_second,
          perf.heap_high_water, perf.cancelled_ratio]],
        title="Engine throughput on the E1 workload (n=7, f=2, 16 simulated s)",
        precision=4,
    ))
    assert perf.events_processed > 1000
    assert perf.events_per_second > 0.0


# --------------------------------------------------------------------------
# Mega-sim batch mode: the vector backend against the scalar reference.


def mega_scenario(n: int, seed: int, duration_intervals: float) -> Scenario:
    """The mega-sim campaign workload: full mesh, rotating silent faults.

    Full mesh keeps every node in every round's estimation exchange (the
    densest event schedule per simulated second), the rotating silent
    plan exercises the crash/recovery masking on both backends, and the
    lossless links keep the scalar comparator honest — loss barely
    changes scalar wall time but adds a draw per delivery to the vector
    hot loop, so a lossy workload would flatter the speedup's
    denominator.
    """
    params = default_params(n=n, f=2, delta=0.002, rho=1e-3, pi=1.0,
                            target_k=8)
    return Scenario(
        params=params,
        duration=duration_intervals * params.sync_interval,
        seed=seed,
        plan_builder=PlanSpec(kind="rotating",
                              strategy=StrategySpec(name="silent")),
        initial_offset_spread=0.0005,
        sample_interval=params.sync_interval / 4.0,
        name=f"mega-n{n}-seed{seed}",
    )


def _record_bytes(record) -> str:
    return json.dumps(dataclasses.asdict(record), sort_keys=True,
                      default=repr)


def measure_mega_sim(n: int = 64, batch_seeds: int = 256,
                     duration_intervals: float = 8.0,
                     scalar_seeds: int = 2) -> dict:
    """Vector-batch throughput vs the scalar engine, same workload.

    Both figures are *effective* events/sec — engine-reported events
    divided by wall time including per-run setup (stream derivation,
    clock construction), measured in the same process.  The scalar legs
    run before and after the batch and the better pass is kept, so a
    mid-measurement machine-speed shift cannot manufacture a speedup.
    The ratio, not the absolute rates, is the machine-portable figure.

    Also replays seed 0 through both backends via the campaign executor
    and compares the full ``RunRecord`` JSON — ``record_parity`` is 1.0
    only when the records are byte-identical.
    """
    scenarios = [mega_scenario(n, seed, duration_intervals)
                 for seed in range(batch_seeds)]

    config = scenarios[0].to_config()
    scalar_record = run_config(config, warmup_intervals=1.0,
                               stream_measures=True, backend="scalar")
    vector_record = run_config(config, warmup_intervals=1.0,
                               stream_measures=True, backend="vector")
    parity = float(_record_bytes(scalar_record)
                   == _record_bytes(vector_record))

    def scalar_pass() -> tuple[int, float]:
        events = 0
        start = time.perf_counter()
        for scenario in scenarios[:scalar_seeds]:
            events += run(scenario, stream_measures=True).events_processed
        return events, time.perf_counter() - start

    scalar_events, wall_before = scalar_pass()

    specs = [vector_spec(scenario, stream_measures=True)
             for scenario in scenarios]
    # The vector loop's allocations are balanced (every event tuple
    # pushed is popped and dropped), so cyclic-gc passes find nothing
    # and only cost time: suspend collection for the batch.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    try:
        batch_events = sum(simulate_run(spec).events_processed
                           for spec in specs)
    finally:
        batch_wall = time.perf_counter() - start
        if gc_was_enabled:
            gc.enable()

    _, wall_after = scalar_pass()
    scalar_eps = scalar_events / min(wall_before, wall_after)
    vector_eps = batch_events / batch_wall if batch_wall > 0.0 else 0.0

    return {
        "n": n,
        "batch_seeds": batch_seeds,
        "duration_intervals": duration_intervals,
        "batch_events": batch_events,
        "batch_wall_s": batch_wall,
        "scalar_events_per_sec": scalar_eps,
        "vector_events_per_sec": vector_eps,
        "speedup": vector_eps / scalar_eps if scalar_eps > 0.0 else 0.0,
        "record_parity": parity,
        "columns_backend": backend_name(),
    }


def mega_table(metrics: dict) -> str:
    return table(
        ["n", "seeds", "events", "scalar_ev_s", "vector_ev_s", "speedup",
         "parity"],
        [[metrics["n"], metrics["batch_seeds"], metrics["batch_events"],
          metrics["scalar_events_per_sec"], metrics["vector_events_per_sec"],
          metrics["speedup"], metrics["record_parity"]]],
        title=(f"Mega-sim batch throughput "
               f"({metrics['columns_backend']} columns backend)"),
        precision=2,
    )


def test_mega_sim_batch_smoke(benchmark):
    """Small-batch smoke of the gate-grade measurement (full scale runs
    under ``tools/bench_gate.py``, which records the ``mega_sim``
    section of ``BENCH_PR4.json``)."""

    metrics = benchmark.pedantic(
        lambda: measure_mega_sim(n=16, batch_seeds=8,
                                 duration_intervals=3.0, scalar_seeds=1),
        rounds=1, iterations=1)
    emit("mega_sim_smoke", mega_table(metrics))
    assert metrics["record_parity"] == 1.0
    assert metrics["batch_events"] > 1000
    # The real bar lives in bench_gate.py LIMITS; here only sanity.
    assert metrics["speedup"] > 1.0
