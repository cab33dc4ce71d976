"""Real-time transports for protocol payloads.

Two transports implement the paper's link model (authenticated
point-to-point channels, delivery within ``delta``) for the rt path:

* :class:`LoopbackTransport` — an in-memory hub for N nodes sharing one
  event loop.  Delivery is a ``call_at`` with a configurable fixed
  delay, so on a :class:`~repro.sim.engine.Simulator` it reproduces
  the simulator's ``FixedDelay`` network exactly — the substrate of
  the cross-runtime conformance tests.
* :class:`UdpTransport` — one UDP socket per node on localhost, binary
  datagrams (see :mod:`repro.rt.codec`), for genuine multi-node (and
  multi-process) deployment.  Sender identity is carried in the
  datagram and trusted, standing in for the authenticated links the
  paper assumes ("we assume ... a can identify the sender of every
  message it receives"); a production deployment would MAC each
  datagram under a pairwise key.

Every UDP socket of the package — this transport's, and the time
service's server and client (:mod:`repro.service.query`) — is a
:class:`UdpEndpoint`: a non-blocking socket read straight off the
selector loop, up to :data:`DRAIN_LIMIT` datagrams per wakeup.

The wire codec itself lives in :mod:`repro.rt.codec`.
"""

from __future__ import annotations

import asyncio
import socket
from abc import ABC, abstractmethod
from typing import Any, Callable

from repro.errors import ConfigurationError
from repro.rt.codec import (
    CodecVersionError,
    TransportError,
    decode_datagram,
    encode_datagram,
)
from repro.runtime.api import MessageHandler
from repro.runtime.messages import Message

__all__ = [
    "DRAIN_LIMIT",
    "LoopbackTransport",
    "Transport",
    "UdpEndpoint",
    "UdpOwner",
    "UdpTransport",
]

#: Most datagrams one readiness wakeup reads before yielding to the
#: loop: a fairness cap, so Sync timers still run well inside ``delta``
#: under a query flood.  Readiness is level-triggered, so what a capped
#: drain leaves in the socket is read on the next loop turn.
DRAIN_LIMIT = 64

#: ``recvfrom`` buffer size: the largest UDP payload, so nothing is cut.
_RECV_SIZE = 65536


class Transport(ABC):
    """Message fabric interface consumed by
    :class:`~repro.rt.runtime.AsyncioRuntime`."""

    @abstractmethod
    def send(self, sender: int, recipient: int, payload: Any) -> None:
        """Transmit ``payload``; delivery is asynchronous."""

    @abstractmethod
    def bind(self, node_id: int, handler: MessageHandler) -> None:
        """Attach the inbound-message handler for ``node_id``."""

    @abstractmethod
    def neighbors(self, node_id: int) -> list[int]:
        """Peers ``node_id`` may exchange messages with (fresh list)."""


class LoopbackTransport(Transport):
    """In-memory full-mesh transport for nodes sharing one event loop.

    Args:
        loop: Real asyncio loop or the simulator (needs ``time()``
            and ``call_at()``).
        delay: Fixed one-way delivery delay in seconds.  Constant on
            purpose: on the simulator this makes the transport a
            faithful twin of the simulator's ``FixedDelay`` network.
        now: Callable returning the cluster tau used to stamp
            ``sent_at`` / ``delivered_at``; defaults to ``loop.time``.

    Attributes:
        messages_sent: Total messages accepted for delivery.
        messages_delivered: Total messages handed to handlers.
    """

    def __init__(self, loop: Any, delay: float = 0.001,
                 now: Callable[[], float] | None = None) -> None:
        if delay < 0:
            raise ConfigurationError(f"delay must be >= 0, got {delay}")
        self.loop = loop
        self.delay = float(delay)
        self._now = now if now is not None else loop.time
        self._handlers: dict[int, MessageHandler] = {}
        self._msg_id = 0
        self.messages_sent = 0
        self.messages_delivered = 0

    def bind(self, node_id: int, handler: MessageHandler) -> None:
        self._handlers[node_id] = handler

    def neighbors(self, node_id: int) -> list[int]:
        return [node for node in self._handlers if node != node_id]

    def send(self, sender: int, recipient: int, payload: Any) -> None:
        sent_at = self._now()
        self.messages_sent += 1
        self._msg_id += 1
        msg_id = self._msg_id
        delivered_at = sent_at + self.delay

        def deliver() -> None:
            handler = self._handlers.get(recipient)
            if handler is None:
                return  # recipient gone: datagram silently dropped
            self.messages_delivered += 1
            handler.deliver(Message(sender=sender, recipient=recipient,
                                    payload=payload, sent_at=sent_at,
                                    delivered_at=delivered_at, msg_id=msg_id))

        self.loop.call_at(self.loop.time() + self.delay, deliver)


class UdpEndpoint:
    """One non-blocking UDP socket on the running selector loop, drained
    up to :data:`DRAIN_LIMIT` datagrams per wakeup; refusals are counted
    in ``owner.send_dropped``, never raised.

    Each readiness wakeup calls ``recvfrom`` until it would block (at
    most :data:`DRAIN_LIMIT` times) and hands every ``(data, addr)`` in
    arrival order to ``owner._on_datagram``, so a burst costs one loop
    turn instead of one per datagram.  Sends go straight to the socket.
    An ``OSError`` on either side (a full buffer, an ICMP
    port-unreachable reported on a later call) is counted and never
    raised or buffered: UDP may lose datagrams, and the protocol already
    tolerates loss.

    Args:
        owner: Object with ``_on_datagram(data, addr)`` and an int
            ``send_dropped`` attribute.
        local_addr: ``(host, port)`` to bind (port 0 picks one).
        remote_addr: ``(host, port)`` to connect to; :meth:`send` then
            needs no address.

    Attributes:
        address: The bound ``(host, port)``.
    """

    def __init__(self, owner: Any, local_addr: tuple[str, int] | None = None,
                 remote_addr: tuple[str, int] | None = None) -> None:
        self._loop = asyncio.get_running_loop()
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            sock.setblocking(False)
            if local_addr is not None:
                sock.bind(local_addr)
            if remote_addr is not None:
                sock.connect(remote_addr)
            self._loop.add_reader(sock.fileno(), self._read_ready)
        except BaseException:
            sock.close()
            raise
        self._sock: socket.socket | None = sock
        self._owner = owner
        self.address: tuple[str, int] = sock.getsockname()[:2]

    def _read_ready(self) -> None:
        sock, deliver = self._sock, self._owner._on_datagram
        for _ in range(DRAIN_LIMIT):
            try:
                data, addr = sock.recvfrom(_RECV_SIZE)
            except BlockingIOError:
                return
            except OSError:
                # Level-triggered: datagrams behind the error wake the
                # reader again on the next loop turn.
                self._owner.send_dropped += 1
                return
            deliver(data, addr)

    def sendto(self, data: bytes, addr: tuple[str, int]) -> None:
        """Send one datagram to ``addr``; a refusal is counted."""
        try:
            self._sock.sendto(data, addr)
        except OSError:
            self._owner.send_dropped += 1

    def send(self, data: bytes) -> None:
        """Send one datagram to the connected peer; a refusal is counted."""
        try:
            self._sock.send(data)
        except OSError:
            self._owner.send_dropped += 1

    def close(self) -> None:
        """Unregister and close the socket (idempotent)."""
        sock, self._sock = self._sock, None
        if sock is not None:
            self._loop.remove_reader(sock.fileno())
            sock.close()


class UdpOwner:
    """The lifecycle :class:`UdpTransport` and the time service's query
    server share: one bound :class:`UdpEndpoint`, which reports its
    refusals into this object's ``send_dropped``.

    Attributes:
        address: ``(host, port)`` after :meth:`start`.
        send_dropped: Datagrams the socket refused (see
            :class:`UdpEndpoint`).
    """

    _endpoint: UdpEndpoint | None = None
    address: tuple[str, int] | None = None
    send_dropped = 0

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Bind the UDP socket; returns the actual ``(host, port)``."""
        self._endpoint = UdpEndpoint(self, local_addr=(host, port))
        self.address = self._endpoint.address
        return self.address

    def close(self) -> None:
        """Close the socket (idempotent)."""
        if self._endpoint is not None:
            self._endpoint.close()
            self._endpoint = None


class UdpTransport(UdpOwner, Transport):
    """One node's UDP endpoint on localhost.

    Unlike :class:`LoopbackTransport` (a shared hub), each node owns a
    ``UdpTransport``; peers are wired up with :meth:`set_peers` after
    every endpoint has bound its socket and learned its port.

    Args:
        node_id: The owning node.
        now: Callable returning the cluster tau for message stamps.

    Attributes:
        messages_sent: Datagrams sent to known peers.
        messages_delivered: Datagrams decoded and handed to the handler.
        malformed_dropped: Datagrams that failed to decode (corruption).
        misrouted_dropped: Well-formed datagrams addressed to a
            different node (a routing/config error, not corruption).
        version_dropped: Datagrams with an unsupported wire version
            (deployment skew: a peer is running a newer codec).
    """

    def __init__(self, node_id: int, now: Callable[[], float]) -> None:
        self.node_id = node_id
        self._now = now
        self._handler: MessageHandler | None = None
        self._peers: dict[int, tuple[str, int]] = {}
        self._msg_id = 0
        self.messages_sent = 0
        self.messages_delivered = 0
        self.malformed_dropped = 0
        self.misrouted_dropped = 0
        self.version_dropped = 0

    def set_peers(self, peers: dict[int, tuple[str, int]]) -> None:
        """Install the node-id to address map (excluding this node)."""
        self._peers = {node: addr for node, addr in peers.items()
                       if node != self.node_id}

    def bind(self, node_id: int, handler: MessageHandler) -> None:
        if node_id != self.node_id:
            raise ConfigurationError(
                f"UdpTransport for node {self.node_id} cannot bind node {node_id}")
        self._handler = handler

    def neighbors(self, node_id: int) -> list[int]:
        return sorted(self._peers)

    def send(self, sender: int, recipient: int, payload: Any) -> None:
        if sender != self.node_id:
            raise ConfigurationError(
                f"UdpTransport for node {self.node_id} cannot send as {sender}")
        if self._endpoint is None:
            raise TransportError("transport not started")
        addr = self._peers.get(recipient)
        if addr is None:
            return  # unknown peer: dropped, like a dead link
        self.messages_sent += 1
        self._endpoint.sendto(encode_datagram(sender, recipient, payload,
                                              self._now()), addr)

    def _on_datagram(self, data: bytes, addr: tuple | None = None) -> None:
        if self._handler is None:
            return
        try:
            sender, recipient, payload, sent_at = decode_datagram(data)
        except CodecVersionError:
            self.version_dropped += 1
            return
        except TransportError:
            self.malformed_dropped += 1
            return
        if recipient != self.node_id:
            self.misrouted_dropped += 1
            return
        self._msg_id += 1
        self.messages_delivered += 1
        self._handler.deliver(Message(sender=sender, recipient=recipient,
                                      payload=payload, sent_at=sent_at,
                                      delivered_at=self._now(),
                                      msg_id=self._msg_id))


# repro.service.query registers the query payloads; it subclasses
# UdpOwner, so it is imported once this module is complete (see the end
# of repro.rt.codec).
import repro.service.query  # noqa: E402,F401  (registers tq/tr/ar)
