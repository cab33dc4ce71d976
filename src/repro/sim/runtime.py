"""The simulator-backed :class:`~repro.runtime.api.NodeRuntime`.

:class:`SimRuntime` adapts one node's view of the discrete-event engine
— :class:`~repro.sim.engine.Simulator` for time and timers,
:class:`~repro.net.network.Network` for messaging — onto the runtime
seam that :mod:`repro.core` and :mod:`repro.protocols` program against.

The adapter is deliberately *transparent*: timer fire times, event
tags, network send order, and RNG draws are identical to the pre-seam
engine, so every record, trace, and benchmark stays byte-identical
(``tools/check_determinism.py`` enforces this).  The indirection is the
refactor's correctness contract, and its cost is gated below 5% on the
E1 events/sec figure by ``tools/bench_gate.py``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.runtime.api import MessageHandler, NodeRuntime, TimerHandle
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.clocks.logical import LogicalClock
    from repro.net.network import Network
    from repro.sim.engine import Simulator


class LocalTimer(TimerHandle):
    """Handle for a pending local-clock timer in the simulator.

    Wraps the underlying simulator :class:`Event` so the owner can cancel
    it without knowing about real-time scheduling.
    """

    __slots__ = ("event", "tag")

    def __init__(self, event: Event, tag: str):
        self.event = event
        self.tag = tag

    def cancel(self) -> None:
        """Cancel the timer if it has not fired yet.

        Safe to call twice or after the timer fired: the underlying
        event's cancellation is queue-honest (see
        :mod:`repro.sim.events`), so the simulator's live-event count
        stays exact either way.
        """
        self.event.cancel()

    @property
    def cancelled(self) -> bool:
        return self.event.cancelled

    @property
    def fired(self) -> bool:
        return self.event.fired


class SimRuntime(NodeRuntime):
    """One node's runtime over the discrete-event simulator.

    Args:
        node_id: The node this runtime serves.
        sim: The owning simulator (time source and timer scheduler).
        network: Message fabric used for sends and neighbor lookup.
        clock: The node's logical clock.
    """

    __slots__ = ("node_id", "sim", "network", "clock", "obs")

    def __init__(self, node_id: int, sim: "Simulator", network: "Network",
                 clock: "LogicalClock") -> None:
        self.node_id = node_id
        self.sim = sim
        self.network = network
        self.clock = clock
        self.obs = None

    # -- time ---------------------------------------------------------------

    def real_now(self) -> float:
        """Current simulated real time (``tau``)."""
        return self.sim.now

    def local_now(self) -> float:
        """Current reading of this node's logical clock.

        ``LogicalClock.read`` inlined (``H(now) + adj``) to keep the hot
        path at one frame over the hardware read: clock reads happen on
        every message and sample.
        """
        clock = self.clock
        return clock.hardware.read(self.sim.now) + clock.adj

    # -- timers -------------------------------------------------------------

    def set_local_timer(self, duration: float, callback: Callable[[], None],
                        tag: str = "timer") -> LocalTimer:
        """Arm a timer after ``duration`` of local clock (Definition 1).

        The fire time is resolved through the hardware clock exactly as
        the pre-seam engine did, and the event tag keeps the
        ``n<node>:<tag>`` shape traces rely on.
        """
        fire_at = self.clock.hardware.real_time_after(self.sim.now, duration)
        event = self.sim.schedule_at(fire_at, callback,
                                     tag=f"n{self.node_id}:{tag}")
        return LocalTimer(event, tag)

    # -- messaging ----------------------------------------------------------

    def send(self, recipient: int, payload: object) -> None:
        """Send ``payload`` to ``recipient`` over the simulated network."""
        self.network.send(self.node_id, recipient, payload)

    def broadcast(self, payload: object) -> None:
        """Send ``payload`` to every neighbor (network iteration order)."""
        self.network.broadcast(self.node_id, payload)

    def neighbors(self) -> list[int]:
        """Sorted neighbor list from the network topology."""
        return self.network.topology.neighbors(self.node_id)

    def bind(self, handler: MessageHandler) -> None:
        """Attach ``handler`` as this node's message recipient."""
        self.network.bind(handler)
