"""Client-facing clock query protocol: the paper's Section 1 service.

The applications that motivate the paper — time-stamping, expiring
payments and bids, Kerberos-style freshness — are *clients* of a
synchronized node, not participants in Sync.  This module gives them a
wire protocol:

* :class:`TimeQueryServer` fronts one live node's
  :class:`~repro.service.timeservice.SecureTimeService` on its own UDP
  endpoint, answering :class:`TimeQuery` requests — ``now``,
  ``validate_timestamp``, ``epoch`` — at *estimation cost*: each answer
  is one logical-clock read plus Theorem 5 bound arithmetic, never a
  Sync round.  Query load therefore scales independently of protocol
  traffic (the Section 3.3 "no rounds" property doing application work).
* :class:`TimeQueryClient` is a small asyncio client.  Requests carry a
  client-chosen ``qid``; replies are matched by it, so any number of
  queries may be in flight on one socket (the load benchmark drives
  tens of thousands).

Queries and replies are ordinary codec payloads (struct-packed binary,
legacy JSON accepted — :mod:`repro.rt.codec`), framed exactly like
cluster datagrams with the client in the sender slot (clients use
negative ids so they can never collide with a node id).  The reply's
``sent_at`` stamp is the serving node's *logical clock* at answer time,
so a client gets a server clock reading with every reply for free.

The transport-free core is :func:`answer_query`: the UDP server is a
thin shell around it, and the loopback-vs-UDP conformance tests hold
the two paths to identical answers.
"""

from __future__ import annotations

import asyncio
import itertools
import struct
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ReproError
from repro.rt.codec import (
    TransportError,
    decode_datagram,
    encode_datagram,
    register_payload,
)
from repro.rt.transport import UdpEndpoint, UdpOwner
from repro.service.timeservice import SecureTimeService, Timestamp

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.live import ClusterIntrospection
    from repro.obs.metricsreg import MetricsRegistry

#: Query operations (the ``op`` field of :class:`TimeQuery`).
OP_NOW = "now"
OP_VALIDATE = "validate"
OP_EPOCH = "epoch"
#: Admin introspection operations: answered with an :class:`AdminReply`
#: carrying the cluster's stats/health document (see
#: :class:`repro.obs.live.ClusterIntrospection`); require the server to
#: be wired with an introspection object, else they fail ``ok=False``.
OP_STATS = "stats"
OP_HEALTH = "health"

#: Sender id used by clients when none is given: outside the node-id
#: space (node ids are >= 0), so a reply can never be mistaken for
#: cluster traffic.
DEFAULT_CLIENT_ID = -1


class QueryError(ReproError):
    """A time query failed (server-side error reply, or timeout)."""


@dataclass(frozen=True)
class TimeQuery:
    """One client request against a node's secure time service.

    Attributes:
        op: ``"now"``, ``"validate"``, ``"epoch"``, or an admin op
            (``"stats"`` / ``"health"``).
        qid: Client-chosen correlation id echoed in the reply.
        ts_value: For ``validate``: the timestamp's clock value.
        ts_issuer: For ``validate``: the issuing node id.
        max_age: For ``validate``: the freshness window.
        epoch_length: For ``epoch``: the epoch length.
    """

    op: str
    qid: int
    ts_value: float = 0.0
    ts_issuer: int = 0
    max_age: float = 0.0
    epoch_length: float = 0.0


@dataclass(frozen=True)
class TimeReply:
    """A node's answer to one :class:`TimeQuery`.

    Attributes:
        qid: Echo of the request's correlation id.
        ok: False iff the query itself failed (unknown op, invalid
            arguments).  A ``validate`` verdict of "stale" is still
            ``ok=True`` — the *query* succeeded.
        value: ``now`` -> clock value; ``validate`` -> 1.0/0.0 verdict;
            ``epoch`` -> the epoch number.
        node: The answering node id.
        error: Human-readable reason when ``ok`` is False.
    """

    qid: int
    ok: bool
    value: float = 0.0
    node: int = -1
    error: str = ""


@dataclass(frozen=True)
class AdminReply:
    """A node's answer to a ``stats`` / ``health`` introspection query.

    Travels as a generic (key-prefixed JSON) codec body on both wires:
    introspection documents are nested dicts of unpredictable shape, so
    a struct packer would buy nothing on this cold path.

    Attributes:
        qid: Echo of the request's correlation id.
        ok: False iff the query failed (introspection not enabled).
        node: The answering node id.
        kind: ``"stats"`` or ``"health"``.
        payload: The introspection document (empty when ``ok`` is
            False).
        error: Human-readable reason when ``ok`` is False.
    """

    qid: int
    ok: bool
    node: int = -1
    kind: str = ""
    payload: dict = field(default_factory=dict)
    error: str = ""


# ---------------------------------------------------------------------------
# Binary packers (registered alongside ping/pong in the codec registry)
# ---------------------------------------------------------------------------

_OP_CODES = {OP_NOW: 1, OP_VALIDATE: 2, OP_EPOCH: 3, OP_STATS: 4,
             OP_HEALTH: 5}
_OP_NAMES = {code: op for op, code in _OP_CODES.items()}

_QUERY = struct.Struct("!Bqdidd")
_REPLY = struct.Struct("!qBdi")


def _pack_query(payload: TimeQuery) -> bytes:
    code = _OP_CODES.get(payload.op)
    if code is None:
        # An unknown op still travels (the server answers ok=False with
        # a reason); code 0 marks "op not in this codec's table".
        code = 0
    return _QUERY.pack(code, payload.qid, payload.ts_value,
                       payload.ts_issuer, payload.max_age,
                       payload.epoch_length)


def _unpack_query(body: bytes) -> TimeQuery:
    code, qid, ts_value, ts_issuer, max_age, epoch_length = _QUERY.unpack(body)
    return TimeQuery(op=_OP_NAMES.get(code, f"op#{code}"), qid=qid,
                     ts_value=ts_value, ts_issuer=ts_issuer,
                     max_age=max_age, epoch_length=epoch_length)


def _pack_reply(payload: TimeReply) -> bytes:
    return (_REPLY.pack(payload.qid, 1 if payload.ok else 0, payload.value,
                        payload.node)
            + payload.error.encode("utf-8"))


def _unpack_reply(body: bytes) -> TimeReply:
    qid, ok, value, node = _REPLY.unpack_from(body)
    return TimeReply(qid=qid, ok=bool(ok), value=value, node=node,
                     error=body[_REPLY.size:].decode("utf-8"))


register_payload("tq", TimeQuery, tag=16, pack=_pack_query,
                 unpack=_unpack_query)
register_payload("tr", TimeReply, tag=17, pack=_pack_reply,
                 unpack=_unpack_reply)
register_payload("ar", AdminReply)


# ---------------------------------------------------------------------------
# Transport-free dispatch (the conformance anchor)
# ---------------------------------------------------------------------------


def answer_query(service: SecureTimeService, query: TimeQuery,
                 node_id: int | None = None,
                 introspection: "ClusterIntrospection | None" = None
                 ) -> TimeReply | AdminReply:
    """Answer one query against a service — the whole server semantics.

    Every time-query path costs one clock read plus bound arithmetic
    (estimation cost); errors become ``ok=False`` replies, never
    exceptions, so a misbehaving client cannot take the server down.
    The admin ops (``stats`` / ``health``) return an :class:`AdminReply`
    rendered from ``introspection`` — or an ``ok=False`` one when the
    server was not wired for introspection.
    """
    node = service.process.node_id if node_id is None else node_id
    if query.op in (OP_STATS, OP_HEALTH):
        if introspection is None:
            return AdminReply(qid=query.qid, ok=False, node=node,
                              kind=query.op,
                              error="introspection not enabled")
        try:
            payload = (introspection.stats() if query.op == OP_STATS
                       else introspection.health())
            return AdminReply(qid=query.qid, ok=True, node=node,
                              kind=query.op, payload=payload)
        except ReproError as exc:
            return AdminReply(qid=query.qid, ok=False, node=node,
                              kind=query.op, error=str(exc))
    try:
        if query.op == OP_NOW:
            return TimeReply(qid=query.qid, ok=True, value=service.now(),
                             node=node)
        if query.op == OP_VALIDATE:
            fresh = service.validate_timestamp(
                Timestamp(value=query.ts_value, issuer=query.ts_issuer),
                query.max_age)
            return TimeReply(qid=query.qid, ok=True,
                             value=1.0 if fresh else 0.0, node=node)
        if query.op == OP_EPOCH:
            return TimeReply(qid=query.qid, ok=True,
                             value=float(service.epoch(query.epoch_length)),
                             node=node)
        return TimeReply(qid=query.qid, ok=False, node=node,
                         error=f"unknown query op {query.op!r}")
    except ReproError as exc:
        return TimeReply(qid=query.qid, ok=False, node=node, error=str(exc))


# ---------------------------------------------------------------------------
# UDP server
# ---------------------------------------------------------------------------


class TimeQueryServer(UdpOwner):
    """A live node's public time endpoint.

    Args:
        service: The node's :class:`SecureTimeService` (fronting its
            live, Sync-corrected clock).
        node_id: Identity stamped into replies; defaults to the
            service's node.
        metrics: Optional :class:`~repro.obs.metricsreg.MetricsRegistry`
            — when given, every answered query records its service time
            into the node's ``query_latency_seconds`` log-bucketed
            histogram.  ``None`` (the default) keeps the query path
            free of any telemetry work, the PR 2 attribute-guard
            contract.
        introspection: Optional
            :class:`~repro.obs.live.ClusterIntrospection` enabling the
            ``stats`` / ``health`` admin ops.

    Attributes:
        queries_answered: Total replies sent (including error replies).
        queries_failed: Replies with ``ok=False``.
        malformed_dropped: Datagrams that were not decodable queries.
    """

    def __init__(self, service: SecureTimeService, node_id: int | None = None,
                 metrics: "MetricsRegistry | None" = None,
                 introspection: "ClusterIntrospection | None" = None) -> None:
        self.service = service
        self.node_id = (service.process.node_id if node_id is None
                        else int(node_id))
        self.introspection = introspection
        self._latency = (metrics.latency_histogram("query_latency_seconds",
                                                   self.node_id)
                         if metrics is not None else None)
        self.queries_answered = 0
        self.queries_failed = 0
        self.malformed_dropped = 0

    def _on_datagram(self, data: bytes, addr: tuple) -> None:
        try:
            sender, _recipient, payload, _sent_at = decode_datagram(data)
        except TransportError:
            self.malformed_dropped += 1
            return
        if not isinstance(payload, TimeQuery):
            self.malformed_dropped += 1
            return
        started = time.perf_counter() if self._latency is not None else 0.0
        reply = answer_query(self.service, payload, node_id=self.node_id,
                             introspection=self.introspection)
        self.queries_answered += 1
        if not reply.ok:
            self.queries_failed += 1
        self._endpoint.sendto(
            encode_datagram(self.node_id, sender, reply, self.service.now()),
            addr)
        if self._latency is not None:
            self._latency.observe(time.perf_counter() - started)


# ---------------------------------------------------------------------------
# asyncio client
# ---------------------------------------------------------------------------


class TimeQueryClient:
    """Asyncio client for a :class:`TimeQueryServer`.

    Any number of requests may be outstanding at once (replies match on
    ``qid``), which is what the load benchmark leans on; the convenience
    coroutines (:meth:`now`, :meth:`validate_timestamp`, :meth:`epoch`)
    are one-shot request/reply.

    Args:
        host: Server host.
        port: Server port.
        client_id: Sender id stamped into requests; negative by
            convention (outside the node-id space).
        timeout: Per-request reply timeout in seconds.

    Attributes:
        replies_unmatched: Replies whose qid had no waiter (late
            arrivals after a timeout).
        send_dropped: Queries the socket refused, e.g. no server
            listening (see :class:`~repro.rt.transport.UdpEndpoint`).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 client_id: int = DEFAULT_CLIENT_ID, timeout: float = 1.0) -> None:
        self.host = host
        self.port = int(port)
        self.client_id = int(client_id)
        self.timeout = float(timeout)
        self._endpoint: UdpEndpoint | None = None
        self._qids = itertools.count(1)
        self._pending: dict[int, asyncio.Future] = {}
        self.replies_unmatched = 0
        self.send_dropped = 0

    async def connect(self) -> None:
        """Open the client socket (connected to the server address)."""
        self._endpoint = UdpEndpoint(self, remote_addr=(self.host, self.port))

    def close(self) -> None:
        """Close the socket and fail any outstanding requests."""
        if self._endpoint is not None:
            self._endpoint.close()
            self._endpoint = None
        for future in self._pending.values():
            if not future.done():
                future.set_exception(QueryError("client closed"))
        self._pending.clear()

    def _on_datagram(self, data: bytes, addr: tuple) -> None:
        try:
            _sender, _recipient, payload, sent_at = decode_datagram(data)
        except TransportError:
            self.replies_unmatched += 1
            return
        if not isinstance(payload, (TimeReply, AdminReply)):
            self.replies_unmatched += 1
            return
        future = self._pending.pop(payload.qid, None)
        if future is None or future.done():
            self.replies_unmatched += 1
            return
        future.set_result((payload, sent_at))

    # -- raw pipelined interface ---------------------------------------

    def submit(self, op: str, **fields) -> asyncio.Future:
        """Send one query without waiting.

        Returns a future resolving to ``(TimeReply, server_clock)``
        where ``server_clock`` is the reply's ``sent_at`` stamp (the
        serving node's logical clock).  The caller owns timeout policy.
        The query's ``qid`` is exposed as ``future.qid``.
        """
        if self._endpoint is None:
            raise TransportError("client not connected")
        qid = next(self._qids)
        query = TimeQuery(op=op, qid=qid, **fields)
        future = asyncio.get_running_loop().create_future()
        future.qid = qid
        self._pending[qid] = future
        self._endpoint.send(
            encode_datagram(self.client_id, -1, query, 0.0))
        return future

    async def request(self, op: str, **fields) -> tuple[TimeReply, float]:
        """Send one query and await its reply.

        Raises:
            QueryError: On timeout or an ``ok=False`` reply.
        """
        future = self.submit(op, **fields)
        qid = future.qid
        try:
            reply, server_clock = await asyncio.wait_for(future, self.timeout)
        except asyncio.TimeoutError:
            self._pending.pop(qid, None)
            raise QueryError(
                f"query {op!r} timed out after {self.timeout}s") from None
        if not reply.ok:
            raise QueryError(f"query {op!r} failed: {reply.error}")
        return reply, server_clock

    # -- convenience coroutines ----------------------------------------

    async def now(self) -> float:
        """The serving node's logical clock."""
        reply, _ = await self.request(OP_NOW)
        return reply.value

    async def validate_timestamp(self, value: float, issuer: int,
                                 max_age: float) -> bool:
        """Kerberos-style freshness verdict on a peer-issued timestamp."""
        reply, _ = await self.request(OP_VALIDATE, ts_value=value,
                                      ts_issuer=issuer, max_age=max_age)
        return reply.value == 1.0

    async def epoch(self, length: float) -> int:
        """The serving node's proactive-security epoch number."""
        reply, _ = await self.request(OP_EPOCH, epoch_length=length)
        return int(reply.value)

    async def stats(self) -> dict:
        """The serving node's full introspection document.

        Raises:
            QueryError: Timeout, or introspection not enabled.
        """
        reply, _ = await self.request(OP_STATS)
        return reply.payload

    async def health(self) -> dict:
        """The serving node's live Theorem 5 health document.

        Raises:
            QueryError: Timeout, or introspection not enabled.
        """
        reply, _ = await self.request(OP_HEALTH)
        return reply.payload
