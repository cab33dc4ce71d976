"""Process abstraction shared by protocol implementations and adversaries.

A :class:`Process` is the unit of behaviour attached to a network node:
it receives messages (:meth:`Process.on_message`) and owns local-clock
timers.  Timers are expressed in *local clock duration* — "call me after
``SyncInt`` units of my own clock" — which the owning
:class:`~repro.runtime.api.NodeRuntime` converts to a physical fire time
through the node's hardware clock.  That conversion is exactly the
mechanism the paper relies on when it says a processor performs a
``Sync`` "every SyncInt time units" of local time.

The class is runtime-agnostic: the same process object runs under the
discrete-event simulator (:class:`repro.sim.runtime.SimRuntime`) and
under real asyncio timers (:class:`repro.rt.AsyncioRuntime`).  It also
implements the corruption hand-off used by the mobile adversary: while
a node is controlled, incoming messages and timers are routed to the
controlling strategy instead of the protocol logic, and on release
:meth:`Process.on_recover` re-initializes the protocol loop (the
paper's "alarm ... recovered after a break-in") while deliberately
*keeping* whatever clock adjustment the adversary left behind.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.runtime.api import NodeRuntime, TimerHandle

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.clocks.logical import LogicalClock
    from repro.runtime.messages import Message


class Process:
    """Base class for per-node behaviour (protocols, adversary shells).

    Subclasses override :meth:`start`, :meth:`on_message`, and timer
    callbacks they register via :meth:`set_local_timer`.

    Args:
        runtime: The execution surface this process runs on — timers,
            messaging, and the node's logical clock.

    Attributes:
        runtime: The owning :class:`~repro.runtime.api.NodeRuntime`.
        node_id: Integer identity of the node this process runs on.
        controlled: Whether the adversary currently controls this node.
        obs: Observability event bus, or ``None`` (the default) when no
            flight recorder is attached; protocol logic never reads it.
        send: ``send(recipient, payload)`` over authenticated links —
            the runtime's own ``send``, bound once.
        local_now: ``local_now()``, the current reading of this node's
            logical clock — the runtime's own ``local_now``, bound once.
    """

    def __init__(self, runtime: NodeRuntime) -> None:
        self.runtime = runtime
        self.node_id = runtime.node_id
        # Every message calls these; binding the runtime's methods here
        # saves one Python frame per call over delegating methods.
        self.send = runtime.send
        self.local_now = runtime.local_now
        self.controlled = False
        self.obs = None
        self._controller: Any | None = None
        self._timers: list[TimerHandle] = []

    @property
    def clock(self) -> "LogicalClock":
        """The node's logical clock (hardware + adjustment)."""
        return self.runtime.clock

    # ------------------------------------------------------------------
    # Behaviour hooks (overridden by protocol subclasses)
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Called once at runtime start to kick off the protocol."""

    def on_message(self, message: "Message") -> None:
        """Handle a delivered message (good-state behaviour)."""

    def on_recover(self) -> None:
        """Called when the adversary releases this node.

        The default restarts the protocol loop via :meth:`start`, after
        dropping any timers the adversary may have left armed.  Clock
        state (``adj``) is *not* touched: recovery of the clock value is
        the protocol's job, per the paper.
        """
        self.cancel_all_timers()
        self.start()

    # ------------------------------------------------------------------
    # Messaging / timers (thin delegation to the runtime)
    # ------------------------------------------------------------------

    def broadcast(self, payload: Any) -> None:
        """Send ``payload`` to every neighbor of this node."""
        self.runtime.broadcast(payload)

    def neighbors(self) -> list[int]:
        """The peers this node may exchange messages with."""
        return self.runtime.neighbors()

    def real_now(self) -> float:
        """The runtime's physical time (trace/history stamping only)."""
        return self.runtime.real_now()

    def adjust_clock(self, delta: float) -> None:
        """Add ``delta`` to the clock's adjustment variable."""
        self.runtime.adjust_clock(delta)

    def set_clock_value(self, target: float) -> None:
        """Set the clock to read ``target`` now (resync jump)."""
        self.runtime.set_clock_value(target)

    def set_local_timer(self, duration: float, callback: Callable[[], None],
                        tag: str = "timer") -> TimerHandle:
        """Arm a timer that fires after ``duration`` units of *local* clock.

        The callback is wrapped so that adversary control suppresses it
        (a controlled node performs no protocol activity).
        """
        timer = self.runtime.set_local_timer(duration, self._timer_shim(callback),
                                             tag=tag)
        self._timers.append(timer)
        if len(self._timers) > 64:
            self._timers = [t for t in self._timers if not (t.fired or t.cancelled)]
        return timer

    def _timer_shim(self, callback: Callable[[], None]) -> Callable[[], None]:
        """Wrap a timer callback so adversary control suppresses it."""

        def fire() -> None:
            if self.controlled:
                return  # the adversary killed protocol activity on this node
            callback()

        return fire

    def cancel_all_timers(self) -> None:
        """Cancel every pending timer owned by this process."""
        for timer in self._timers:
            timer.cancel()
        self._timers.clear()

    # ------------------------------------------------------------------
    # Adversary hand-off (called by repro.adversary.mobile)
    # ------------------------------------------------------------------

    def seize(self, controller: Any) -> None:
        """Transfer control of this node to ``controller`` (break-in)."""
        self.controlled = True
        self._controller = controller
        self.cancel_all_timers()

    def release(self) -> None:
        """Return control of this node to the protocol (adversary leaves)."""
        self.controlled = False
        self._controller = None
        self.on_recover()

    def deliver(self, message: "Message") -> None:
        """Entry point used by the transport to hand a message to this node."""
        if self.controlled and self._controller is not None:
            self._controller.on_message(self, message)
        else:
            self.on_message(message)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "controlled" if self.controlled else "ok"
        return f"{type(self).__name__}(node={self.node_id}, {state})"
