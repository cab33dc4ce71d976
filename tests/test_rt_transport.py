"""Wire codec and transport tests for the rt path."""

from __future__ import annotations

import asyncio
import dataclasses
import os
import pathlib
import socket
import subprocess
import sys
import textwrap
from types import SimpleNamespace

import pytest

from repro.errors import ConfigurationError
from repro.runtime.messages import AppPayload, Message, Ping, Pong
from repro.rt.codec import (
    TransportError,
    decode_datagram,
    decode_payload,
    encode_datagram,
    encode_payload,
    register_payload,
)
from repro.rt.transport import (
    DRAIN_LIMIT,
    LoopbackTransport,
    UdpEndpoint,
    UdpTransport,
)
from repro.service.query import TimeQuery
from repro.sim.engine import Simulator


class Inbox:
    """Minimal MessageHandler: records deliveries."""

    def __init__(self, node_id):
        self.node_id = node_id
        self.received = []

    def deliver(self, message):
        self.received.append(message)


class TestCodec:
    def test_ping_roundtrip(self):
        ping = Ping(nonce=42, round_no=7)
        assert decode_payload(encode_payload(ping)) == ping

    def test_pong_roundtrip(self):
        pong = Pong(nonce=9, clock_value=123.456789)
        assert decode_payload(encode_payload(pong)) == pong

    def test_app_payload_roundtrip(self):
        payload = AppPayload(kind="audit", body={"x": [1, 2, 3]})
        assert decode_payload(encode_payload(payload)) == payload

    def test_datagram_roundtrip_preserves_floats(self):
        sender, recipient, payload, sent_at = decode_datagram(
            encode_datagram(3, 5, Pong(nonce=1, clock_value=0.1 + 0.2), 1.75))
        assert (sender, recipient, sent_at) == (3, 5, 1.75)
        assert payload.clock_value == 0.1 + 0.2  # exact, not approximate

    def test_unregistered_payload_rejected(self):
        @dataclasses.dataclass(frozen=True)
        class Unknown:
            x: int

        with pytest.raises(TransportError):
            encode_payload(Unknown(x=1))

    def test_unknown_wire_key_rejected(self):
        with pytest.raises(TransportError):
            decode_payload({"k": "nope"})

    def test_malformed_datagram_rejected(self):
        with pytest.raises(TransportError):
            decode_datagram(b"not json at all")

    def test_register_payload_extends_codec(self):
        @dataclasses.dataclass(frozen=True)
        class Heartbeat:
            beat: int

        register_payload("test-heartbeat", Heartbeat)
        assert decode_payload(encode_payload(Heartbeat(beat=3))) == Heartbeat(beat=3)

    def test_register_conflicting_key_rejected(self):
        @dataclasses.dataclass(frozen=True)
        class Impostor:
            nonce: int

        with pytest.raises(ConfigurationError):
            register_payload("ping", Impostor)

    def test_missing_required_field_raises_transport_error(self):
        # A wire dict naming a known payload but missing one of its
        # required fields used to escape as a bare TypeError from the
        # dataclass constructor; corrupt input must stay TransportError
        # so the transport's malformed counter catches it.
        with pytest.raises(TransportError):
            decode_payload({"k": "pong", "nonce": 1})


class TestLoopback:
    def test_delivery_after_fixed_delay(self):
        loop = Simulator(seed=0)
        hub = LoopbackTransport(loop, delay=0.25)
        a, b = Inbox(0), Inbox(1)
        hub.bind(0, a)
        hub.bind(1, b)
        hub.send(0, 1, Ping(nonce=1))
        loop.run(until=0.2)
        assert b.received == []
        loop.run(until=0.3)
        assert len(b.received) == 1
        message = b.received[0]
        assert message.sender == 0 and message.recipient == 1
        assert message.sent_at == 0.0
        assert message.delivered_at == 0.25

    def test_neighbors_excludes_self(self):
        loop = Simulator(seed=0)
        hub = LoopbackTransport(loop, delay=0.01)
        for node in range(3):
            hub.bind(node, Inbox(node))
        assert sorted(hub.neighbors(1)) == [0, 2]

    def test_send_to_unbound_node_is_dropped(self):
        loop = Simulator(seed=0)
        hub = LoopbackTransport(loop, delay=0.01)
        hub.bind(0, Inbox(0))
        hub.send(0, 99, Ping(nonce=1))
        loop.run(until=1.0)
        assert hub.messages_delivered == 0

    def test_fifo_per_link(self):
        loop = Simulator(seed=0)
        hub = LoopbackTransport(loop, delay=0.1)
        receiver = Inbox(1)
        hub.bind(0, Inbox(0))
        hub.bind(1, receiver)
        for nonce in range(5):
            hub.send(0, 1, Ping(nonce=nonce))
        loop.run(until=1.0)
        assert [m.payload.nonce for m in receiver.received] == list(range(5))


class TestUdp:
    def run_pair(self, coro):
        return asyncio.run(coro)

    def test_roundtrip_over_real_sockets(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            epoch = loop.time()
            now = lambda: loop.time() - epoch
            a, b = UdpTransport(0, now), UdpTransport(1, now)
            addr_a = await a.start()
            addr_b = await b.start()
            peers = {0: addr_a, 1: addr_b}
            a.set_peers(peers)
            b.set_peers(peers)
            inbox = Inbox(1)
            b.bind(1, inbox)
            a.send(0, 1, Pong(nonce=5, clock_value=1.25))
            for _ in range(100):
                if inbox.received:
                    break
                await asyncio.sleep(0.01)
            a.close()
            b.close()
            return inbox.received

        received = self.run_pair(scenario())
        assert len(received) == 1
        message = received[0]
        assert message.payload == Pong(nonce=5, clock_value=1.25)
        assert message.sender == 0
        assert message.delivered_at >= message.sent_at >= 0.0

    def test_malformed_datagrams_counted_and_dropped(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            transport = UdpTransport(0, loop.time)
            await transport.start()
            transport.bind(0, Inbox(0))
            transport._on_datagram(b"garbage")
            dropped = transport.malformed_dropped
            transport.close()
            return dropped

        assert self.run_pair(scenario()) == 1

    def test_misrouted_datagram_counted_separately(self):
        # A well-formed datagram for another node is a routing problem,
        # not corruption: it must land in misrouted_dropped, leaving
        # malformed_dropped for genuinely broken input.
        async def scenario():
            loop = asyncio.get_running_loop()
            transport = UdpTransport(0, loop.time)
            await transport.start()
            transport.bind(0, Inbox(0))
            transport._on_datagram(
                encode_datagram(5, 7, Ping(nonce=1), 0.0))
            counters = (transport.misrouted_dropped,
                        transport.malformed_dropped)
            transport.close()
            return counters

        assert self.run_pair(scenario()) == (1, 0)

    def test_future_wire_version_counted_separately(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            transport = UdpTransport(0, loop.time)
            await transport.start()
            transport.bind(0, Inbox(0))
            datagram = bytearray(encode_datagram(1, 0, Ping(nonce=1), 0.0))
            datagram[1] = 9  # a wire version from the future
            transport._on_datagram(bytes(datagram))
            counters = (transport.version_dropped,
                        transport.malformed_dropped)
            transport.close()
            return counters

        assert self.run_pair(scenario()) == (1, 0)

    def test_send_as_other_node_rejected(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            transport = UdpTransport(0, loop.time)
            await transport.start()
            try:
                with pytest.raises(ConfigurationError):
                    transport.send(1, 0, Ping(nonce=1))
                with pytest.raises(ConfigurationError):
                    transport.bind(1, Inbox(1))
            finally:
                transport.close()

        self.run_pair(scenario())


async def _wait_for(predicate, attempts: int = 200) -> None:
    for _ in range(attempts):
        if predicate():
            return
        await asyncio.sleep(0.005)


class Sink:
    """Minimal UdpEndpoint owner: records datagrams in arrival order."""

    def __init__(self):
        self.datagrams = []
        self.send_dropped = 0

    def _on_datagram(self, data, addr):
        self.datagrams.append(data)


class TestUdpEndpoint:
    """One socket drained per wakeup; refusals counted, never raised."""

    def test_burst_beyond_drain_limit_is_delivered_in_order(self):
        # Queued before the loop runs: the capped drain leaves the
        # tail in the socket, and level-triggered readiness wakes the
        # reader again until nothing is stranded.
        count = 3 * DRAIN_LIMIT

        async def scenario():
            loop = asyncio.get_running_loop()
            transport = UdpTransport(0, loop.time)
            address = await transport.start()
            transport._endpoint._sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 20)
            inbox = Inbox(0)
            transport.bind(0, inbox)
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as peer:
                for nonce in range(count):
                    peer.sendto(encode_datagram(1, 0, Ping(nonce=nonce), 0.0),
                                address)
                await _wait_for(lambda: len(inbox.received) >= count)
            transport.close()
            return [m.payload.nonce for m in inbox.received]

        assert asyncio.run(scenario()) == list(range(count))

    def test_mixed_burst_lands_in_each_counter(self):
        skewed = bytearray(encode_datagram(1, 0, Ping(nonce=0), 0.0))
        skewed[1] = 9  # a wire version from the future
        burst = [b"garbage", encode_datagram(1, 7, Ping(nonce=0), 0.0),
                 bytes(skewed)]

        async def scenario():
            loop = asyncio.get_running_loop()
            transport = UdpTransport(0, loop.time)
            address = await transport.start()
            inbox = Inbox(0)
            transport.bind(0, inbox)
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as peer:
                for nonce in range(1, 9):
                    peer.sendto(encode_datagram(1, 0, Ping(nonce=nonce), 0.0),
                                address)
                    peer.sendto(burst[nonce % 3], address)
                await _wait_for(lambda: transport.messages_delivered >= 8
                                and transport.version_dropped >= 3)
            transport.close()
            return (transport.messages_delivered, transport.malformed_dropped,
                    transport.misrouted_dropped, transport.version_dropped)

        assert asyncio.run(scenario()) == (8, 2, 3, 3)

    def test_close_unregisters_reader_and_is_idempotent(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            endpoint = UdpEndpoint(Sink(), local_addr=("127.0.0.1", 0))
            fd = endpoint._sock.fileno()
            endpoint.close()
            endpoint.close()
            return loop.remove_reader(fd)

        assert asyncio.run(scenario()) is False

    def test_refused_send_is_counted_not_raised(self):
        def refuse(*_args):
            raise BlockingIOError("send buffer full")

        async def scenario():
            loop = asyncio.get_running_loop()
            transport = UdpTransport(0, loop.time)
            await transport.start()
            transport.set_peers({1: ("127.0.0.1", 9)})
            real = transport._endpoint._sock
            transport._endpoint._sock = SimpleNamespace(sendto=refuse)
            transport.send(0, 1, Ping(nonce=1))
            transport._endpoint._sock = real
            transport.close()
            return transport.messages_sent, transport.send_dropped

        assert asyncio.run(scenario()) == (1, 1)


@pytest.mark.parametrize("entry", ["repro.rt.codec", "repro.rt.transport",
                                   "repro.rt.live"])
def test_query_payloads_registered_by_any_rt_entry(entry):
    """Whatever rt module a fresh interpreter imports first, the codec
    registry holds the query payloads, so a time query addressed to
    another node reaches a cluster transport as misrouted, not
    malformed."""
    datagram = encode_datagram(-1, 5, TimeQuery(op="now", qid=1), 0.0)
    script = textwrap.dedent(f"""
        import importlib, sys
        importlib.import_module({entry!r})
        keys = sorted(sys.modules["repro.rt.codec"].registered_payloads())
        from repro.rt.transport import UdpTransport
        transport = UdpTransport(0, lambda: 0.0)
        transport.bind(0, object())
        transport._on_datagram(bytes.fromhex({datagram.hex()!r}))
        print(keys, transport.misrouted_dropped, transport.malformed_dropped)
    """)
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run([sys.executable, "-c", script],
                            env={**os.environ, "PYTHONPATH": str(src)},
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == [
        "['app',", "'ar',", "'ping',", "'pong',", "'tq',", "'tr']", "1", "0"]
