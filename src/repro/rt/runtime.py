"""The real-time runtime: protocol code on asyncio timers and transports.

:class:`AsyncioRuntime` is the deployment-side twin of
:class:`repro.sim.runtime.SimRuntime`.  It implements the same
:class:`~repro.runtime.api.NodeRuntime` seam, so the *identical*
protocol classes — :class:`~repro.core.sync.SyncProcess` and every
``repro.protocols`` implementation — run unmodified over real timers
and real sockets:

* ``real_now()`` is the event loop's clock, rebased to an epoch so
  ``tau`` starts near zero (hardware-clock models expect a small
  origin-anchored domain);
* ``set_local_timer`` converts a *local clock* duration to an absolute
  fire time through the node's hardware clock — exactly the formula
  ``SimRuntime`` uses — and arms ``loop.call_at``;
* ``send`` hands the payload to a :mod:`repro.rt.transport`.

The ``loop`` may be a real asyncio event loop (wall-clock deployment)
or a :class:`~repro.sim.engine.Simulator` (deterministic virtual time);
both expose ``time()`` and ``call_at()``.

Timer cancellation follows the queue-honest contract of
:mod:`repro.runtime.api` uniformly: asyncio's own handles would report
``cancelled() == True`` after a cancel-after-fire, so
:class:`RtTimerHandle` tracks the fired state itself and makes
cancel-after-fire and double-cancel no-ops, byte-for-byte matching
``SimRuntime``'s :class:`~repro.sim.runtime.LocalTimer` semantics
(verified by ``tests/test_runtime_timers.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.runtime.api import MessageHandler, NodeRuntime, TimerHandle

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.clocks.logical import LogicalClock
    from repro.rt.transport import Transport


class RtTimerHandle(TimerHandle):
    """Timer token over an asyncio handle (or a simulator event).

    Keeps its own ``fired`` flag because asyncio's ``TimerHandle``
    cannot distinguish "cancelled while pending" from "cancelled after
    the callback ran" — and the runtime contract requires the latter to
    be a no-op that leaves ``cancelled`` False.

    Attributes:
        tag: Diagnostic label of the timer.
    """

    __slots__ = ("tag", "_handle", "_fired", "_cancelled")

    def __init__(self, tag: str) -> None:
        self.tag = tag
        self._handle: Any = None
        self._fired = False
        self._cancelled = False

    def cancel(self) -> None:
        """Cancel if still pending; after firing (or twice) a no-op."""
        if self._fired or self._cancelled:
            return
        self._cancelled = True
        if self._handle is not None:
            self._handle.cancel()

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def fired(self) -> bool:
        return self._fired


class AsyncioRuntime(NodeRuntime):
    """A protocol node running on an event loop and a transport.

    Args:
        node_id: Integer identity of this node.
        clock: The node's logical clock; its hardware model maps loop
            time (rebased by ``epoch``) to hardware time, so a
            :class:`~repro.clocks.hardware.FixedRateClock` deployed here
            simply ticks with the wall.
        transport: Message fabric (:class:`~repro.rt.transport.LoopbackTransport`
            or :class:`~repro.rt.transport.UdpTransport`).
        loop: Real asyncio loop or :class:`~repro.sim.engine.Simulator`.
        epoch: Loop time treated as ``tau = 0``; defaults to the loop's
            current time at construction.  All runtimes of one cluster
            must share an epoch or their ``tau`` scales diverge.
        obs: Optional observability event bus (advisory only).
    """

    __slots__ = ("node_id", "clock", "obs", "transport", "loop", "epoch")

    def __init__(self, node_id: int, clock: "LogicalClock",
                 transport: "Transport", loop: Any,
                 epoch: float | None = None, obs: Any | None = None) -> None:
        self.node_id = node_id
        self.clock = clock
        self.obs = obs
        self.transport = transport
        self.loop = loop
        self.epoch = loop.time() if epoch is None else float(epoch)

    # -- time ---------------------------------------------------------------

    def real_now(self) -> float:
        """Loop time rebased to the cluster epoch (the deployment tau)."""
        return self.loop.time() - self.epoch

    # -- timers -------------------------------------------------------------

    def set_local_timer(self, duration: float, callback: Callable[[], None],
                        tag: str = "timer") -> TimerHandle:
        """Arm ``callback`` after ``duration`` of *local* clock.

        The local duration is mapped to an absolute real fire time via
        the hardware clock (same formula as ``SimRuntime``), then onto
        ``loop.call_at`` in loop-time coordinates.
        """
        fire_at = self.clock.hardware.real_time_after(self.real_now(), duration)
        handle = RtTimerHandle(tag)

        def fire() -> None:
            handle._fired = True
            callback()

        handle._handle = self.loop.call_at(self.epoch + fire_at, fire)
        return handle

    # -- messaging ----------------------------------------------------------

    def send(self, recipient: int, payload: Any) -> None:
        self.transport.send(self.node_id, recipient, payload)

    def neighbors(self) -> list[int]:
        return self.transport.neighbors(self.node_id)

    def bind(self, handler: MessageHandler) -> None:
        self.transport.bind(self.node_id, handler)
