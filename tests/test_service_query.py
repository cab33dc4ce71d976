"""Query-protocol tests: answer semantics, UDP round trips, conformance.

:func:`answer_query` is the transport-free core; the UDP server is a
shell around it.  The conformance tests here hold the two paths to
identical answers on the same deterministic service, which is what
licenses benchmarking the wire path and trusting the semantics tests.
"""

from __future__ import annotations

import asyncio
import socket
from types import SimpleNamespace

import pytest

from repro.errors import ReproError
from repro.rt.codec import (
    MAGIC,
    decode_datagram,
    encode_datagram,
    encode_datagram_json,
)
from repro.rt.transport import DRAIN_LIMIT
from repro.service.query import (
    OP_EPOCH,
    OP_HEALTH,
    OP_NOW,
    OP_STATS,
    OP_VALIDATE,
    AdminReply,
    QueryError,
    TimeQuery,
    TimeQueryClient,
    TimeQueryServer,
    TimeReply,
    answer_query,
)


class FakeTimeService:
    """Deterministic SecureTimeService stand-in.

    ``now()`` advances by a fixed step per read so replies are
    reproducible; validation and epochs follow the real service's
    contract (``ReproError`` for an impossible epoch length).
    """

    def __init__(self, start: float = 100.0, step: float = 0.25,
                 node_id: int = 0) -> None:
        self.process = SimpleNamespace(node_id=node_id)
        self._clock = start
        self._step = step

    def now(self) -> float:
        self._clock += self._step
        return self._clock

    def validate_timestamp(self, ts, max_age: float) -> bool:
        return ts.value >= self._clock - max_age

    def epoch(self, length: float) -> int:
        if length <= 0:
            raise ReproError(f"epoch length must be positive, got {length}")
        return int(self._clock // length)


class TestAnswerQuery:
    def test_now_reads_the_clock(self):
        service = FakeTimeService(start=100.0, step=0.25)
        reply = answer_query(service, TimeQuery(op=OP_NOW, qid=7))
        assert reply == TimeReply(qid=7, ok=True, value=100.25, node=0)

    def test_validate_fresh_and_stale(self):
        service = FakeTimeService(start=100.0, step=0.0)
        fresh = answer_query(service, TimeQuery(
            op=OP_VALIDATE, qid=1, ts_value=99.9, ts_issuer=2, max_age=1.0))
        stale = answer_query(service, TimeQuery(
            op=OP_VALIDATE, qid=2, ts_value=90.0, ts_issuer=2, max_age=1.0))
        assert (fresh.ok, fresh.value) == (True, 1.0)
        assert (stale.ok, stale.value) == (True, 0.0)

    def test_epoch_number(self):
        service = FakeTimeService(start=100.0, step=0.0)
        reply = answer_query(service, TimeQuery(op=OP_EPOCH, qid=3,
                                                epoch_length=30.0))
        assert reply.ok and reply.value == 3.0

    def test_unknown_op_is_error_reply_not_exception(self):
        reply = answer_query(FakeTimeService(),
                             TimeQuery(op="explode", qid=4))
        assert not reply.ok
        assert "explode" in reply.error

    def test_service_error_is_error_reply_not_exception(self):
        reply = answer_query(FakeTimeService(), TimeQuery(
            op=OP_EPOCH, qid=5, epoch_length=-1.0))
        assert not reply.ok
        assert "epoch length" in reply.error

    def test_node_id_override(self):
        reply = answer_query(FakeTimeService(node_id=0),
                             TimeQuery(op=OP_NOW, qid=6), node_id=3)
        assert reply.node == 3


class FakeIntrospection:
    """ClusterIntrospection stand-in with canned documents."""

    def stats(self):
        return {"health": {"bounded": True}, "queries": {"0": {}}}

    def health(self):
        return {"bounded": True, "spread": 0.001}


class TestAdminOps:
    def test_stats_and_health_render_introspection(self):
        intro = FakeIntrospection()
        stats = answer_query(FakeTimeService(), TimeQuery(op=OP_STATS, qid=1),
                             introspection=intro)
        health = answer_query(FakeTimeService(),
                              TimeQuery(op=OP_HEALTH, qid=2),
                              introspection=intro)
        assert isinstance(stats, AdminReply) and stats.ok
        assert stats.kind == OP_STATS
        assert stats.payload == intro.stats()
        assert health.ok and health.payload == intro.health()

    def test_disabled_introspection_fails_cleanly(self):
        reply = answer_query(FakeTimeService(), TimeQuery(op=OP_STATS, qid=3))
        assert isinstance(reply, AdminReply)
        assert not reply.ok
        assert reply.error == "introspection not enabled"
        assert reply.payload == {}

    def test_introspection_error_is_error_reply_not_exception(self):
        class Exploding:
            def health(self):
                raise ReproError("sampler gone")

        reply = answer_query(FakeTimeService(),
                             TimeQuery(op=OP_HEALTH, qid=4),
                             introspection=Exploding())
        assert not reply.ok
        assert "sampler gone" in reply.error

    @pytest.mark.parametrize("wire", ("binary", "json"))
    def test_admin_reply_round_trips_both_wires(self, wire):
        reply = AdminReply(qid=9, ok=True, node=2, kind=OP_HEALTH,
                           payload={"bounded": True, "rounds": {"0": 3}})
        datagram = encode_datagram(2, -1, reply, 10.5, wire=wire)
        sender, recipient, decoded, sent_at = decode_datagram(datagram)
        assert (sender, recipient, sent_at) == (2, -1, 10.5)
        assert decoded == reply  # dict payload survives the generic body


async def _serve(service):
    server = TimeQueryServer(service)
    await server.start()
    return server


class TestUdpRoundTrip:
    def run(self, coro):
        return asyncio.run(coro)

    def test_now_over_real_sockets_carries_server_clock(self):
        async def scenario():
            server = await _serve(FakeTimeService(start=100.0, step=0.25))
            client = TimeQueryClient(port=server.address[1])
            try:
                await client.connect()
                reply, server_clock = await asyncio.wait_for(
                    client.submit(OP_NOW), timeout=2.0)
                return reply, server_clock, server.queries_answered
            finally:
                client.close()
                server.close()

        reply, server_clock, answered = self.run(scenario())
        assert reply.ok and reply.value == 100.25
        # The reply datagram is stamped with a second clock read.
        assert server_clock == 100.5
        assert answered == 1

    def test_convenience_coroutines(self):
        async def scenario():
            server = await _serve(FakeTimeService(start=100.0, step=0.0))
            client = TimeQueryClient(port=server.address[1])
            try:
                await client.connect()
                now = await client.now()
                fresh = await client.validate_timestamp(99.9, issuer=1,
                                                        max_age=1.0)
                epoch = await client.epoch(30.0)
                return now, fresh, epoch
            finally:
                client.close()
                server.close()

        now, fresh, epoch = self.run(scenario())
        assert now == 100.0
        assert fresh is True
        assert epoch == 3

    def test_error_reply_raises_query_error(self):
        async def scenario():
            server = await _serve(FakeTimeService())
            client = TimeQueryClient(port=server.address[1])
            try:
                await client.connect()
                with pytest.raises(QueryError):
                    await client.epoch(-5.0)
                return server.queries_failed
            finally:
                client.close()
                server.close()

        assert self.run(scenario()) == 1

    def test_timeout_raises_query_error(self):
        async def scenario():
            # A bound-but-mute socket: bind a server, then close it so
            # nothing answers.
            server = await _serve(FakeTimeService())
            port = server.address[1]
            server.close()
            client = TimeQueryClient(port=port, timeout=0.05)
            try:
                await client.connect()
                with pytest.raises(QueryError):
                    await client.request(OP_NOW)
            finally:
                client.close()

        self.run(scenario())

    def test_malformed_query_counted_not_answered(self):
        async def scenario():
            server = await _serve(FakeTimeService())
            server._on_datagram(b"garbage", ("127.0.0.1", 9))
            # A well-formed datagram that is not a TimeQuery is equally
            # not a query.
            from repro.runtime.messages import Ping
            server._on_datagram(
                encode_datagram(-1, 0, Ping(nonce=1), 0.0),
                ("127.0.0.1", 9))
            counters = (server.malformed_dropped, server.queries_answered)
            server.close()
            return counters

        assert self.run(scenario()) == (2, 0)

    def test_json_client_interoperates_with_binary_server(self):
        # Decode sniffs the leader byte, so a legacy JSON datagram is
        # still answered; the reply is binary, the only outbound form.
        query = encode_datagram_json(-7, -1, TimeQuery(op=OP_NOW, qid=5), 0.0)

        async def scenario():
            server = await _serve(FakeTimeService(start=100.0, step=0.0))
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as peer:
                peer.setblocking(False)
                peer.sendto(query, server.address)
                for _ in range(200):
                    try:
                        data = peer.recv(4096)
                        break
                    except BlockingIOError:
                        await asyncio.sleep(0.005)
            server.close()
            return data

        data = self.run(scenario())
        assert data[0] == MAGIC
        _sender, recipient, reply, _sent_at = decode_datagram(data)
        assert (recipient, reply.qid, reply.ok, reply.value) == (-7, 5, True, 100.0)

    def test_rejects_unknown_wire(self):
        # Outbound datagrams are binary: there is no wire option to set.
        with pytest.raises(TypeError):
            TimeQueryClient(wire="json")
        with pytest.raises(TypeError):
            TimeQueryServer(FakeTimeService(), wire="json")


class TestConformance:
    def test_udp_path_matches_direct_dispatch(self):
        """The wire adds framing, not semantics: every op answered over
        UDP equals the direct ``answer_query`` answer on an identical
        service."""
        queries = [
            TimeQuery(op=OP_NOW, qid=1),
            TimeQuery(op=OP_VALIDATE, qid=2, ts_value=99.9, ts_issuer=1,
                      max_age=1.0),
            TimeQuery(op=OP_EPOCH, qid=3, epoch_length=30.0),
            TimeQuery(op="bogus", qid=4),
            TimeQuery(op=OP_EPOCH, qid=5, epoch_length=-1.0),
        ]
        # step=0: the UDP server reads the clock twice per query (the
        # answer plus the reply's sent_at stamp), so only a constant
        # clock makes the two paths comparable query-by-query.
        direct = [answer_query(FakeTimeService(start=100.0, step=0.0), q)
                  for q in queries]

        async def scenario():
            server = await _serve(FakeTimeService(start=100.0, step=0.0))
            client = TimeQueryClient(port=server.address[1])
            try:
                await client.connect()
                replies = []
                for query in queries:
                    future = client.submit(
                        query.op, ts_value=query.ts_value,
                        ts_issuer=query.ts_issuer, max_age=query.max_age,
                        epoch_length=query.epoch_length)
                    reply, _ = await asyncio.wait_for(future, timeout=2.0)
                    replies.append(reply)
                return replies
            finally:
                client.close()
                server.close()

        over_udp = asyncio.run(scenario())
        # qids are client-assigned and the binary wire renders an op it
        # cannot name as its unknown-op marker, so verdicts must match
        # everywhere but error *text* only where the wire knows the op.
        strip = lambda r: (r.ok, r.value, r.node)
        assert [strip(r) for r in over_udp] == [strip(r) for r in direct]
        assert over_udp[4].error == direct[4].error
        assert not over_udp[3].ok and "unknown query op" in over_udp[3].error


class TestAdminOverUdp:
    def test_stats_and_health_coroutines(self):
        async def scenario():
            server = TimeQueryServer(FakeTimeService(),
                                     introspection=FakeIntrospection())
            await server.start()
            client = TimeQueryClient(port=server.address[1])
            try:
                await client.connect()
                return await client.stats(), await client.health()
            finally:
                client.close()
                server.close()

        stats, health = asyncio.run(scenario())
        assert stats == FakeIntrospection().stats()
        assert health == FakeIntrospection().health()

    def test_disabled_introspection_raises_query_error(self):
        async def scenario():
            server = await _serve(FakeTimeService())
            client = TimeQueryClient(port=server.address[1])
            try:
                await client.connect()
                with pytest.raises(QueryError, match="introspection"):
                    await client.health()
                return server.queries_answered, server.queries_failed
            finally:
                client.close()
                server.close()

        assert asyncio.run(scenario()) == (1, 1)


class TestTelemetryOnQueryPath:
    def make_server(self, metrics):
        service = FakeTimeService(start=100.0, step=0.0)
        server = TimeQueryServer(service, metrics=metrics)
        sent = []
        server._endpoint = SimpleNamespace(
            sendto=lambda data, addr=None: sent.append(data))
        return server, sent

    def drive(self, server):
        queries = [
            TimeQuery(op=OP_NOW, qid=1),
            TimeQuery(op=OP_VALIDATE, qid=2, ts_value=99.9, ts_issuer=1,
                      max_age=1.0),
            TimeQuery(op=OP_EPOCH, qid=3, epoch_length=30.0),
        ]
        for query in queries:
            server._on_datagram(encode_datagram(-1, 0, query, 0.0),
                                ("127.0.0.1", 9))
        return len(queries)

    def test_latency_histogram_observes_each_query(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        server, _ = self.make_server(registry)
        count = self.drive(server)
        hist = registry.latency_histogram("query_latency_seconds",
                                          server.node_id)
        assert hist.count == count
        assert hist.min > 0.0

    def test_metrics_do_not_change_reply_bytes(self):
        """The wire-byte guard: instrumenting the server changes nothing
        a client can see — identical reply datagrams, byte for byte."""
        from repro.obs import MetricsRegistry

        plain_server, plain_sent = self.make_server(None)
        self.drive(plain_server)
        metered_server, metered_sent = self.make_server(MetricsRegistry())
        self.drive(metered_server)
        assert plain_sent == metered_sent
        assert plain_sent  # the comparison is not vacuous


class TestDrainAndRefusals:
    """The query sockets drain per wakeup and count what they refuse."""

    def test_burst_beyond_drain_limit_is_answered_in_full(self):
        count = 3 * DRAIN_LIMIT

        async def scenario():
            server = await _serve(FakeTimeService(start=100.0, step=0.0))
            server._endpoint._sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 20)
            client = TimeQueryClient(port=server.address[1], timeout=2.0)
            try:
                await client.connect()
                client._endpoint._sock.setsockopt(
                    socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 20)
                # Every query is queued before the server's loop runs.
                futures = [client.submit(OP_NOW) for _ in range(count)]
                replies = await asyncio.wait_for(asyncio.gather(*futures),
                                                 timeout=5.0)
                return ([reply.qid for reply, _ in replies],
                        server.queries_answered, client.replies_unmatched)
            finally:
                client.close()
                server.close()

        qids, answered, unmatched = asyncio.run(scenario())
        assert qids == list(range(1, count + 1))
        assert (answered, unmatched) == (count, 0)

    def test_mixed_burst_counts_junk_and_answers_queries(self):
        from repro.runtime.messages import Ping

        skewed = bytearray(encode_datagram(-1, 0, TimeQuery(op=OP_NOW, qid=0),
                                           0.0))
        skewed[1] = 9  # a wire version from the future
        junk = [b"garbage", encode_datagram(-1, 0, Ping(nonce=1), 0.0),
                bytes(skewed)]

        async def scenario():
            server = await _serve(FakeTimeService())
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as peer:
                peer.setblocking(False)
                for qid in range(1, 7):
                    peer.sendto(encode_datagram(
                        -1, 0, TimeQuery(op=OP_NOW, qid=qid), 0.0),
                        server.address)
                    peer.sendto(junk[qid % 3], server.address)
                replies = []
                for _ in range(200):
                    try:
                        replies.append(decode_datagram(peer.recv(4096))[2])
                    except BlockingIOError:
                        if len(replies) == 6:
                            break
                        await asyncio.sleep(0.005)
            server.close()
            return ([r.qid for r in replies], server.queries_answered,
                    server.malformed_dropped)

        assert asyncio.run(scenario()) == (list(range(1, 7)), 6, 6)

    def test_refused_reply_is_counted_not_raised(self):
        def refuse(*_args):
            raise BlockingIOError("send buffer full")

        async def scenario():
            server = await _serve(FakeTimeService())
            real = server._endpoint._sock
            server._endpoint._sock = SimpleNamespace(sendto=refuse)
            server._on_datagram(
                encode_datagram(-1, 0, TimeQuery(op=OP_NOW, qid=1), 0.0),
                ("127.0.0.1", 9))
            server._endpoint._sock = real
            server.close()
            return server.queries_answered, server.send_dropped

        assert asyncio.run(scenario()) == (1, 1)

    def test_query_to_closed_port_is_counted_not_raised(self):
        # ICMP port-unreachable comes back on the connected socket as
        # ECONNREFUSED from a later recv or send: counted, never raised.
        async def scenario():
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as probe:
                probe.bind(("127.0.0.1", 0))
                port = probe.getsockname()[1]
            client = TimeQueryClient(port=port)
            await client.connect()
            futures = []
            for _ in range(3):
                futures.append(client.submit(OP_NOW))
                await asyncio.sleep(0.02)
            client.close()
            assert all(isinstance(f.exception(), QueryError) for f in futures)
            return client.send_dropped

        assert asyncio.run(scenario()) >= 1
