"""Event primitives for the discrete-event simulator.

The :class:`~repro.sim.engine.Simulator` keeps one heap of 4-tuples
ordered by ``(time, seq)``; ``seq`` is one counter shared by every
entry, so execution order is fully deterministic for a given schedule
of calls and the rest of a tuple is never compared.  An entry has one
of two shapes:

* ``(time, seq, None, event)`` — a cancellable :class:`Event` (timers,
  samplers, adversary moves, ``call_at``), pushed by
  :meth:`~repro.sim.engine.Simulator.schedule_at` and friends;
* ``(time, seq, fn, arg)`` — the uncancellable call ``fn(arg)`` with no
  :class:`Event` object, pushed by
  :meth:`~repro.sim.engine.Simulator.post`.  Every message delivery
  takes this shape: it is never cancelled (a link that fails in flight
  drops the message at delivery time), so it needs no handle.

Cancellation is **queue-honest**: every event knows its owning
simulator, so cancelling — through :meth:`Event.cancel` or
:meth:`~repro.sim.engine.Simulator.cancel` — is a single contract with
one accounting path.  The rules:

* Cancelling a pending event immediately decrements the simulator's
  live count (``pending_events`` never overcounts); the heap entry is
  discarded lazily when it reaches the head.
* Cancelling an event that already fired is a no-op (a fired event
  cannot be un-executed, and the count must not go negative).
* Cancelling twice is a no-op.

This is how local-clock timers are retargeted when a hardware clock's
rate changes, and how the adversary kills a victim's pending alarms on
break-in.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator


class Event:
    """A scheduled callback at a simulated real time.

    Instances are created by :class:`repro.sim.engine.Simulator`, not
    directly by user code.

    Attributes:
        time: Simulated real time at which the callback fires.
        seq: Tie-break sequence number; unique per simulator, increasing.
        callback: Zero-argument callable invoked when the event fires.
        tag: Free-form label used in traces and debugging output.
    """

    __slots__ = ("time", "seq", "callback", "tag", "_cancelled", "_fired", "_owner")

    def __init__(self, time: float, seq: int, callback: Callable[[], None],
                 tag: str, owner: "Simulator"):
        self.time = float(time)
        self.seq = seq
        self.callback = callback
        self.tag = tag
        self._cancelled = False
        self._fired = False
        self._owner = owner

    def cancel(self) -> None:
        """Mark this event dead and update its simulator's live count.

        No-op when the event already fired or was already cancelled, so
        the owner's accounting can never go negative.
        """
        if self._cancelled or self._fired:
            return
        self._cancelled = True
        self._owner._note_cancel()

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` was called before the event fired."""
        return self._cancelled

    @property
    def fired(self) -> bool:
        """Whether this event was already popped for execution."""
        return self._fired

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self._cancelled:
            state = "cancelled"
        elif self._fired:
            state = "fired"
        else:
            state = "pending"
        return f"Event(t={self.time:.6f}, seq={self.seq}, tag={self.tag!r}, {state})"
