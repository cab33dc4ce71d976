"""Run-trace recording: messages, corruptions, and sync executions.

The trace recorder is a passive observer fed by the protocol processes'
sync listeners, the adversary and (only when a scenario asks for
per-message records) the network tap.  It exists for three consumers:

* post-hoc debugging of a surprising run;
* the Figure 1 / Figure 2 consistency checks in
  :mod:`repro.core.analysis` (which need the full sync history);
* the examples, which print human-readable timelines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.sync import SyncRecord


@dataclass(frozen=True)
class MessageRecord:
    """Compact record of a delivered message.

    Attributes:
        sender: Authenticated sender.
        recipient: Addressee.
        kind: Payload class name (``Ping``, ``Pong``, ...).
        sent_at: Transmission real time.
        delivered_at: Delivery real time.
    """

    sender: int
    recipient: int
    kind: str
    sent_at: float
    delivered_at: float


@dataclass(frozen=True)
class CorruptionRecord:
    """A break-in or release performed by the adversary.

    Attributes:
        node: The affected processor.
        time: Real time of the action.
        action: ``"break_in"`` or ``"release"``.
        strategy: Name of the Byzantine strategy involved.
    """

    node: int
    time: float
    action: str
    strategy: str


@dataclass
class TraceRecorder:
    """Accumulates the observable history of one run in append-only lists.

    Attributes:
        messages: Delivered messages (filled by the runner's network
            tap only when the scenario sets ``record_messages``; long
            runs deliver millions of messages).
        syncs: Every completed Sync execution, all nodes, time-ordered
            by construction — listeners fire at simulator event times,
            which are non-decreasing, so append order is time order.
        corruptions: Break-in/release actions.
    """

    messages: list[MessageRecord] = field(default_factory=list)
    syncs: list["SyncRecord"] = field(default_factory=list)
    corruptions: list[CorruptionRecord] = field(default_factory=list)

    # -- wiring hooks ------------------------------------------------------

    def on_sync(self, record: "SyncRecord") -> None:
        """Sync-listener callback."""
        self.syncs.append(record)

    def on_corruption(self, node: int, time: float, action: str, strategy: str) -> None:
        """Adversary action callback."""
        self.corruptions.append(CorruptionRecord(node, time, action, strategy))

    # -- queries -----------------------------------------------------------

    def discarded_own_clock(self) -> list["SyncRecord"]:
        """Sync records where the WayOff branch fired (recovery jumps)."""
        return [r for r in self.syncs if r.own_discarded]
