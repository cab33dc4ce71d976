"""Real-time deployment path: the same protocols on asyncio.

The packages below :mod:`repro.runtime` split along the seam the paper
itself draws between the algorithm (Figure 1, defined against local
clocks, timers, and bounded-delay links) and the execution substrate.
:mod:`repro.sim` provides the analysis substrate; this package provides
the deployment one:

* :mod:`repro.rt.runtime` — :class:`AsyncioRuntime`, mapping local-clock
  timers onto ``loop.call_at`` and messages onto a transport;
* :mod:`repro.rt.codec` — the versioned binary wire codec (legacy JSON
  accepted on decode for rolling upgrades);
* :mod:`repro.rt.transport` — in-memory loopback and UDP transports
  over the codec;
* :mod:`repro.rt.live` — cluster wiring and the ``repro live`` engine.

The deterministic loop is the simulator: :class:`repro.sim.engine.Simulator`
offers the asyncio ``time()``/``call_at()`` surface this package uses,
so tests drive the rt path in virtual time.  The loop stays duck-typed;
nothing here imports :mod:`repro.sim`.
"""

from repro import _lazy

__all__ = [
    "GENERIC_TAG",
    "MAGIC",
    "WIRE_VERSION",
    "CodecVersionError",
    "PayloadSpec",
    "encode_datagram_binary",
    "encode_datagram_json",
    "pack_payload",
    "registered_payloads",
    "unpack_payload",
    "AsyncioRuntime",
    "RtTimerHandle",
    "LiveCluster",
    "LiveReport",
    "build_cluster",
    "default_live_params",
    "make_live_clocks",
    "run_live",
    "LoopbackTransport",
    "Transport",
    "TransportError",
    "UdpTransport",
    "decode_datagram",
    "decode_payload",
    "encode_datagram",
    "encode_payload",
    "register_payload",
]

__getattr__, __dir__ = _lazy.exports(__name__, {
    "repro.rt.codec": (
        "GENERIC_TAG", "MAGIC", "WIRE_VERSION", "CodecVersionError",
        "PayloadSpec", "TransportError", "decode_datagram", "decode_payload",
        "encode_datagram", "encode_datagram_binary", "encode_datagram_json",
        "encode_payload", "pack_payload", "register_payload",
        "registered_payloads", "unpack_payload",
    ),
    "repro.rt.live": (
        "LiveCluster", "LiveReport", "build_cluster", "default_live_params",
        "make_live_clocks", "run_live",
    ),
    "repro.rt.runtime": (
        "AsyncioRuntime", "RtTimerHandle",
    ),
    "repro.rt.transport": (
        "LoopbackTransport", "Transport", "UdpTransport",
    ),
})
