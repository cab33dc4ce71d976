"""The abstract runtime interface protocols program against.

:class:`NodeRuntime` captures the execution model of Section 2: each
processor owns a drift-bounded local clock (Definition 1), can arm
timers measured in *local clock duration* (the mechanism behind "every
``SyncInt`` time units"), and exchanges authenticated point-to-point
messages with its neighbors, delivered within ``delta`` (Section 2.2).
Nothing else — no global time, no scheduler handle, no network
internals — is visible to protocol code.

:class:`TimerHandle` is the cancellation token returned by
:meth:`NodeRuntime.set_local_timer`.  Cancellation follows the
queue-honest contract of :mod:`repro.sim.events` uniformly across every
runtime implementation:

* cancelling a pending timer prevents its callback from running;
* cancelling a timer that already fired is a no-op;
* cancelling twice is a no-op;
* ``cancelled`` is True iff :meth:`TimerHandle.cancel` was called while
  the timer was still pending; ``fired`` is True once the callback ran.
  A handle with neither flag set is pending.

These rules are verified for every runtime by
``tests/test_runtime_timers.py``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Callable, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.clocks.logical import LogicalClock
    from repro.runtime.messages import Message


@runtime_checkable
class MessageHandler(Protocol):
    """Anything a runtime can deliver inbound messages to.

    :class:`repro.runtime.process.Process` is the canonical
    implementation; its :meth:`~repro.runtime.process.Process.deliver`
    routes to protocol logic or to a controlling adversary strategy.
    """

    node_id: int

    def deliver(self, message: "Message") -> None:
        """Accept one inbound message from the runtime."""
        ...


class TimerHandle(ABC):
    """Cancellation token for a pending local-clock timer."""

    __slots__ = ()

    @abstractmethod
    def cancel(self) -> None:
        """Cancel the timer if it has not fired yet.

        Safe to call twice or after the timer fired — both are no-ops,
        matching the queue-honest event contract the simulator
        established (see :mod:`repro.sim.events`).
        """

    @property
    @abstractmethod
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` was called before the timer fired."""

    @property
    @abstractmethod
    def fired(self) -> bool:
        """Whether the timer's callback already ran."""


class NodeRuntime(ABC):
    """The complete execution surface available to one protocol node.

    Attributes:
        node_id: Integer identity of the node this runtime serves.
        clock: The node's logical clock (hardware + adjustment) — the
            paper's ``C_p = H_p + adj_p``.
        obs: Observability event bus, or ``None`` (the default) when no
            flight recorder is attached.  Advisory only: protocol
            decisions never read it.
    """

    node_id: int
    clock: "LogicalClock"
    obs: Any | None

    # -- time ---------------------------------------------------------------

    @abstractmethod
    def real_now(self) -> float:
        """The runtime's physical time ``tau`` (simulated or wall).

        For trace records and clock-history stamping only: a protocol
        decision that *branches* on this value is outside the paper's
        model (processors cannot read real time) and will not port
        between runtimes.
        """

    def local_now(self) -> float:
        """Current reading of this node's logical clock."""
        return self.clock.read(self.real_now())

    # -- timers -------------------------------------------------------------

    @abstractmethod
    def set_local_timer(self, duration: float, callback: Callable[[], None],
                        tag: str = "timer") -> TimerHandle:
        """Arm a timer firing after ``duration`` units of *local* clock.

        The duration is measured on the hardware clock: adjustments to
        ``adj`` shift the clock value but not elapsed local time,
        matching Definition 1 where ``adj`` is constant between resets.
        """

    # -- messaging ----------------------------------------------------------

    @abstractmethod
    def send(self, recipient: int, payload: Any) -> None:
        """Send ``payload`` to ``recipient`` over authenticated links."""

    def broadcast(self, payload: Any) -> None:
        """Send ``payload`` to every neighbor of this node."""
        for peer in self.neighbors():
            self.send(peer, payload)

    @abstractmethod
    def neighbors(self) -> list[int]:
        """The peers this node may exchange messages with (fresh list)."""

    @abstractmethod
    def bind(self, handler: MessageHandler) -> None:
        """Attach ``handler`` as the recipient of inbound messages."""

    # -- clock operations ---------------------------------------------------

    def adjust_clock(self, delta: float) -> None:
        """Add ``delta`` to the adjustment variable (the protocol's move)."""
        self.clock.adjust(self.real_now(), delta)

    def set_clock_value(self, target: float) -> None:
        """Set ``adj`` so the clock reads ``target`` now (resync jump)."""
        self.clock.set_value(self.real_now(), target)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(node={self.node_id})"
