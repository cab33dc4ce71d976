"""Timer-handle cancellation semantics, uniform across every runtime.

The :class:`~repro.runtime.api.TimerHandle` contract (the PR 1
queue-honest rules, now promoted to the runtime seam):

* cancelling a pending timer prevents its callback;
* cancelling a timer that already fired is a **no-op** (and leaves
  ``cancelled`` False);
* cancelling twice is a no-op;
* ``cancelled`` is True iff ``cancel()`` ran while the timer was
  pending; ``fired`` is True once the callback ran.

Verified against all three runtimes through one shared harness:
``SimRuntime`` (simulator events), ``AsyncioRuntime`` on the
simulator's asyncio-shaped loop surface, and ``AsyncioRuntime`` over a *real* asyncio event
loop — the latter matters because asyncio's own ``TimerHandle`` does
NOT satisfy the contract (its ``cancel()`` after firing still reports
cancelled), so :class:`~repro.rt.runtime.RtTimerHandle` must mask it.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.clocks.hardware import FixedRateClock
from repro.clocks.logical import LogicalClock
from repro.net.links import FixedDelay
from repro.net.network import Network
from repro.net.topology import full_mesh
from repro.rt.runtime import AsyncioRuntime
from repro.rt.transport import LoopbackTransport
from repro.sim.engine import Simulator
from repro.sim.runtime import SimRuntime


class SimHarness:
    """SimRuntime + a relative-advance driver."""

    name = "sim"

    def __init__(self):
        self.sim = Simulator(seed=0)
        network = Network(self.sim, full_mesh(2), FixedDelay(delta=0.01))
        self.runtime = SimRuntime(0, self.sim, network,
                                  LogicalClock(FixedRateClock(rho=1e-4)))

    def advance(self, duration: float) -> None:
        self.sim.run(until=self.sim.now + duration)

    def close(self) -> None:
        pass


class VirtualHarness:
    """AsyncioRuntime on the simulator (deterministic virtual time)."""

    name = "virtual"

    def __init__(self):
        self.loop = Simulator(seed=0)
        transport = LoopbackTransport(self.loop, delay=0.001)
        self.runtime = AsyncioRuntime(0, LogicalClock(FixedRateClock(rho=1e-4)),
                                      transport, self.loop, epoch=0.0)

    def advance(self, duration: float) -> None:
        self.loop.run(until=self.loop.time() + duration)

    def close(self) -> None:
        pass


class AsyncioHarness:
    """AsyncioRuntime on a real event loop, driven in small steps."""

    name = "asyncio"

    def __init__(self):
        self.loop = asyncio.new_event_loop()
        transport = LoopbackTransport(self.loop, delay=0.001)
        self.runtime = AsyncioRuntime(0, LogicalClock(FixedRateClock(rho=1e-4)),
                                      transport, self.loop)

    def advance(self, duration: float) -> None:
        self.loop.run_until_complete(asyncio.sleep(duration))

    def close(self) -> None:
        self.loop.close()


@pytest.fixture(params=[SimHarness, VirtualHarness, AsyncioHarness],
                ids=lambda cls: cls.name)
def harness(request):
    h = request.param()
    yield h
    h.close()


# Real-asyncio steps need headroom over the 0.01s timer durations; the
# deterministic runtimes advance exactly.
STEP = 0.05
TIMER = 0.01


def test_timer_fires(harness):
    fired = []
    harness.runtime.set_local_timer(TIMER, lambda: fired.append(1))
    harness.advance(STEP)
    assert fired == [1]


def test_cancel_before_fire_suppresses_callback(harness):
    fired = []
    timer = harness.runtime.set_local_timer(TIMER, lambda: fired.append(1))
    timer.cancel()
    assert timer.cancelled
    harness.advance(STEP)
    assert fired == []


def test_cancel_after_fire_is_noop(harness):
    fired = []
    timer = harness.runtime.set_local_timer(TIMER, lambda: fired.append(1))
    harness.advance(STEP)
    assert fired == [1]
    timer.cancel()  # must not raise, must not report cancelled
    assert not timer.cancelled
    harness.advance(STEP)
    assert fired == [1]


def test_double_cancel_is_noop(harness):
    fired = []
    timer = harness.runtime.set_local_timer(TIMER, lambda: fired.append(1))
    timer.cancel()
    timer.cancel()
    assert timer.cancelled
    harness.advance(STEP)
    assert fired == []


def test_cancelled_false_while_pending_and_after_fire(harness):
    timer = harness.runtime.set_local_timer(TIMER, lambda: None)
    assert not timer.cancelled
    harness.advance(STEP)
    assert not timer.cancelled


def test_fired_is_set_once_the_callback_ran(harness):
    timer = harness.runtime.set_local_timer(TIMER, lambda: None)
    dropped = harness.runtime.set_local_timer(TIMER, lambda: None)
    dropped.cancel()
    assert not timer.fired and not dropped.fired
    harness.advance(STEP)
    assert timer.fired and not timer.cancelled
    assert not dropped.fired and dropped.cancelled


def test_timers_are_local_clock_durations(harness):
    """A fast hardware clock fires local-duration timers early in real
    time — on every runtime (the Definition 1 timer mechanism)."""
    fast = LogicalClock(FixedRateClock(rho=0.2, rate=1.2))
    runtime = harness.runtime
    original = runtime.clock
    runtime.clock = fast
    try:
        fired = []
        runtime.set_local_timer(0.12, lambda: fired.append(1))
        # 0.12 local units at rate 1.2 = 0.1 real seconds.
        if harness.name == "asyncio":
            harness.advance(0.2)
        else:
            harness.advance(0.099)
            assert fired == []
            harness.advance(0.002)
        assert fired == [1]
    finally:
        runtime.clock = original


def _benign_sim_timer_counts(duration: float) -> list[int]:
    from repro.runner.builders import benign_scenario, default_params
    from repro.runner.experiment import run

    result = run(benign_scenario(default_params(n=4, f=1),
                                 duration=duration, seed=3))
    return [len(process._timers) for process in result.processes.values()]


def _benign_live_timer_counts(duration: float) -> list[int]:
    from repro.rt.live import build_cluster, default_live_params

    loop = Simulator(seed=0)
    cluster = build_cluster(default_live_params(n=4, f=1), loop, seed=3)
    cluster.start(sample_interval=1.0)
    loop.run(until=duration)
    counts = [len(process._timers) for process in cluster.processes.values()]
    cluster.stop()  # cancels (and forgets) every timer
    return counts


@pytest.mark.parametrize("timer_counts", [_benign_sim_timer_counts,
                                          _benign_live_timer_counts],
                         ids=["sim", "virtual"])
def test_a_process_keeps_only_pending_timers(timer_counts):
    """Fired handles leave ``Process._timers`` at the next compaction,
    so the list stays near its 64-handle threshold however long the
    run; keeping them made every later ``set_local_timer`` rescan the
    whole history (over 500 handles per node at 100 s)."""
    counts = timer_counts(100.0)
    assert len(counts) == 4
    assert max(counts) <= 66
