"""Message types shared by every runtime's transport.

The paper assumes *reliable authenticated links*: if a good processor
``q`` receives a message from ``p``, then ``p`` (or an adversary
controlling ``p`` at some point in the last ``delta``) really sent it.
Every runtime enforces this structurally — :class:`Message` carries the
true sender identity stamped by the transport (the simulated network or
an rt transport), and only the process bound to a node (or its
controlling strategy) can send as that node.

These types live in :mod:`repro.runtime` rather than :mod:`repro.net`
because they are part of the protocol/engine seam: protocol code may
depend on them, transport code constructs them.

:class:`Message` is an immutable ``NamedTuple``: a simulation builds
one per delivery, and :class:`~repro.net.network.Network` builds it
with ``tuple.__new__`` in one C call, about a quarter of a frozen
dataclass's ``__init__``.  The payloads :class:`Ping` and :class:`Pong`
stay frozen dataclasses, because :mod:`repro.rt.codec` derives their
wire layout from ``dataclasses.fields``/``asdict``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, NamedTuple


class Message(NamedTuple):
    """An authenticated, delivered network message.

    Attributes:
        sender: Node that sent the message (authenticated identity).
        recipient: Node the message was addressed to.
        payload: Protocol-specific content (see the payload dataclasses
            in :mod:`repro.core.sync` and :mod:`repro.protocols`).
        sent_at: Runtime real time of transmission.
        delivered_at: Runtime real time of delivery.
        msg_id: Unique id assigned by the transport, for traces.
    """

    sender: int
    recipient: int
    payload: Any
    sent_at: float
    delivered_at: float
    msg_id: int


@dataclass(frozen=True, slots=True)
class Ping:
    """Clock-estimation request (Section 3.1).

    Attributes:
        nonce: Correlates the reply with this request; also prevents a
            stale reply from a previous estimation round being accepted
            (the paper notes replay of *old* messages is otherwise not
            fully ruled out by the link model).
        round_no: The requestor's local Sync round counter, trace-only.
    """

    nonce: int
    round_no: int = 0


@dataclass(frozen=True, slots=True)
class Pong:
    """Clock-estimation reply: the responder's *current* clock.

    The responder always answers with its live clock value — the "no
    rounds" property of Section 3.3.

    Attributes:
        nonce: Echo of the request nonce.
        clock_value: Responder's logical clock at reply time (``C``).
    """

    nonce: int
    clock_value: float


@dataclass(frozen=True)
class AppPayload:
    """Generic application payload for examples and workload traffic.

    Attributes:
        kind: Application-defined tag.
        body: Arbitrary content.
    """

    kind: str
    body: Any = field(default=None)
