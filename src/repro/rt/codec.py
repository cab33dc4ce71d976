"""Versioned binary wire codec for rt datagrams.

PR 5 shipped JSON datagrams — easy to debug, expensive to parse, and
~4x larger than the data they carry.  This module replaces them with a
compact struct-packed format while keeping the JSON form decodable, so
a cluster can roll from JSON nodes to binary nodes one process at a
time (the "rolling compatibility" rule below).

Binary layout (wire version 1), all integers big-endian::

    offset  size  field
    ------  ----  --------------------------------------------------
    0       1     magic 0xC7 (never 0x7B = "{", so JSON sniffs clean)
    1       1     wire version (currently 1)
    2       1     payload tag (0 = generic, else registry-assigned)
    3       4     sender node id    (int32)
    7       4     recipient node id (int32)
    11      8     sent_at           (float64)
    19      ...   payload body (per-type, see below)

Payload bodies are produced by per-type packers attached to the
:func:`register_payload` registry.  The built-in protocol payloads —
:class:`~repro.runtime.messages.Ping`, :class:`~repro.runtime.messages.Pong`,
:class:`~repro.service.query.TimeQuery` / ``TimeReply`` (registered by
:mod:`repro.service.query`) — pack to fixed ``struct`` records;
:class:`~repro.runtime.messages.AppPayload` and any
deployment-registered dataclass without a custom packer fall back to
the *generic* body (tag 0)::

    offset  size  field
    0       1     key length K
    1       K     registry key (UTF-8)
    1+K     ...   JSON object of the dataclass fields

so extending the codec stays a one-line ``register_payload(key, cls)``
call — a binary packer is an optimization, never a requirement.

Versioning rules:

* The version byte is bumped only for layout changes a version-1
  decoder cannot parse.  Decoders accept exactly one *older* form for
  rolling upgrades: version 1 decoders accept the PR 5 JSON datagram
  (treated as "wire version 0"); a future version 2 decoder would
  accept version 1 and drop JSON.
* A datagram with the magic byte but a different version raises
  :class:`CodecVersionError` — a distinct exception so transports can
  count version mismatches (a deployment skew signal) separately from
  corruption.
* Floats travel as IEEE-754 doubles in both forms (JSON via Python's
  shortest-repr round-trip), so a value decodes bit-exactly no matter
  which wire carried it — the cross-version conformance tests rely on
  this.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass, fields, is_dataclass
from typing import Any, Callable

from repro.errors import ConfigurationError, ReproError
from repro.runtime.messages import AppPayload, Ping, Pong


class TransportError(ReproError):
    """A transport was used before setup or received a malformed datagram."""


class CodecVersionError(TransportError):
    """A datagram carried a wire version this codec does not speak."""


#: First byte of every binary datagram.  Deliberately not ``0x7B``
#: (``"{"``): the decoder sniffs the leader byte to tell binary frames
#: from legacy JSON datagrams.
MAGIC = 0xC7

#: Current binary wire version.
WIRE_VERSION = 1

#: Payload tag of the generic (key-prefixed JSON) body.
GENERIC_TAG = 0

_HEADER = struct.Struct("!BBBiid")
_JSON_LEADER = ord("{")


# ---------------------------------------------------------------------------
# Payload registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PayloadSpec:
    """One registered payload type and its wire representations.

    Attributes:
        key: Type tag carried in JSON datagrams and generic bodies.
        cls: The dataclass being transported.
        tag: Binary payload tag, or None for generic-body encoding.
        pack: ``payload -> body bytes`` (None for generic encoding).
        unpack: ``body bytes -> payload`` (None for generic encoding).
    """

    key: str
    cls: type
    tag: int | None = None
    pack: Callable[[Any], bytes] | None = None
    unpack: Callable[[bytes], Any] | None = None


_BY_KEY: dict[str, PayloadSpec] = {}
_BY_CLS: dict[type, PayloadSpec] = {}
_BY_TAG: dict[int, PayloadSpec] = {}


def register_payload(key: str, cls: type, *, tag: int | None = None,
                     pack: Callable[[Any], bytes] | None = None,
                     unpack: Callable[[bytes], Any] | None = None) -> None:
    """Register a dataclass payload type under a wire ``key``.

    Args:
        key: Short type tag; carried verbatim in JSON datagrams and in
            generic binary bodies, so it must fit in 255 UTF-8 bytes.
        cls: A dataclass whose fields are JSON-serializable.
        tag: Optional binary payload tag (1-255).  Must be given
            together with ``pack``/``unpack``; without it the type uses
            the generic key-prefixed JSON body.
        pack: Serializer ``payload -> body bytes`` for the binary wire.
        unpack: Deserializer ``body bytes -> payload``.
    """
    if not is_dataclass(cls):
        raise ConfigurationError(f"payload type {cls!r} must be a dataclass")
    if len(key.encode("utf-8")) > 255:
        raise ConfigurationError(f"wire key {key!r} exceeds 255 bytes")
    if (tag is None) != (pack is None) or (pack is None) != (unpack is None):
        raise ConfigurationError(
            "tag, pack and unpack must be given together (or none of them)")
    if tag is not None and not (1 <= tag <= 255):
        raise ConfigurationError(f"binary tag must be in 1..255, got {tag}")
    existing = _BY_KEY.get(key)
    if existing is not None and existing.cls is not cls:
        raise ConfigurationError(
            f"wire key {key!r} already registered for {existing.cls!r}")
    if tag is not None:
        tagged = _BY_TAG.get(tag)
        if tagged is not None and tagged.cls is not cls:
            raise ConfigurationError(
                f"binary tag {tag} already registered for {tagged.cls!r}")
    spec = PayloadSpec(key=key, cls=cls, tag=tag, pack=pack, unpack=unpack)
    _BY_KEY[key] = spec
    _BY_CLS[cls] = spec
    if tag is not None:
        _BY_TAG[tag] = spec


def registered_payloads() -> dict[str, type]:
    """Snapshot of the registry: wire key to payload class."""
    return {key: spec.cls for key, spec in _BY_KEY.items()}


def _spec_for(payload: Any) -> PayloadSpec:
    spec = _BY_CLS.get(type(payload))
    if spec is None:
        raise TransportError(
            f"payload type {type(payload).__name__} is not wire-registered; "
            f"call repro.rt.codec.register_payload first")
    return spec


def _construct(spec: PayloadSpec, wire: dict[str, Any]) -> Any:
    """Build the payload, turning missing required fields into the
    documented :class:`TransportError` (not a bare ``TypeError``)."""
    names = {f.name for f in fields(spec.cls)}
    kwargs = {name: value for name, value in wire.items() if name in names}
    try:
        return spec.cls(**kwargs)
    except TypeError as exc:
        raise TransportError(
            f"payload {spec.key!r} is missing required fields: {exc}") from exc


# ---------------------------------------------------------------------------
# JSON payload form (wire version 0, kept decodable)
# ---------------------------------------------------------------------------


def encode_payload(payload: Any) -> dict[str, Any]:
    """Encode a registered payload to its JSON-able wire dict."""
    spec = _spec_for(payload)
    wire = asdict(payload)
    wire["k"] = spec.key
    return wire


def decode_payload(wire: dict[str, Any]) -> Any:
    """Decode a wire dict produced by :func:`encode_payload`.

    Raises:
        TransportError: Unknown key, or required fields missing.
    """
    key = wire.get("k")
    spec = _BY_KEY.get(key)
    if spec is None:
        raise TransportError(f"unknown wire payload key {key!r}")
    return _construct(spec, wire)


# ---------------------------------------------------------------------------
# Binary payload bodies
# ---------------------------------------------------------------------------


def pack_payload(payload: Any) -> tuple[int, bytes]:
    """Binary-encode a registered payload; returns ``(tag, body)``."""
    spec = _spec_for(payload)
    if spec.pack is not None:
        return spec.tag, spec.pack(payload)
    key = spec.key.encode("utf-8")
    body = json.dumps(asdict(payload), sort_keys=True,
                      separators=(",", ":")).encode()
    return GENERIC_TAG, bytes((len(key),)) + key + body


def unpack_payload(tag: int, body: bytes) -> Any:
    """Decode a binary payload body produced by :func:`pack_payload`.

    Raises:
        TransportError: Unknown tag/key, truncated or corrupt body.
    """
    if tag == GENERIC_TAG:
        if not body:
            raise TransportError("generic payload body is empty")
        key_len = body[0]
        if len(body) < 1 + key_len:
            raise TransportError("generic payload key is truncated")
        try:
            key = body[1:1 + key_len].decode("utf-8")
            wire = json.loads(body[1 + key_len:].decode())
        except (ValueError, UnicodeDecodeError) as exc:
            raise TransportError(f"corrupt generic payload body: {exc}") from exc
        if not isinstance(wire, dict):
            raise TransportError("generic payload body is not a JSON object")
        spec = _BY_KEY.get(key)
        if spec is None:
            raise TransportError(f"unknown wire payload key {key!r}")
        return _construct(spec, wire)
    spec = _BY_TAG.get(tag)
    if spec is None:
        raise TransportError(f"unknown binary payload tag {tag}")
    try:
        return spec.unpack(body)
    except (struct.error, ValueError, UnicodeDecodeError) as exc:
        raise TransportError(
            f"corrupt {spec.key!r} payload body: {exc}") from exc


# ---------------------------------------------------------------------------
# Datagram framing
# ---------------------------------------------------------------------------


def encode_datagram_binary(sender: int, recipient: int, payload: Any,
                           sent_at: float) -> bytes:
    """Serialize one message to a version-1 binary datagram."""
    tag, body = pack_payload(payload)
    return _HEADER.pack(MAGIC, WIRE_VERSION, tag, sender, recipient,
                        sent_at) + body


def encode_datagram_json(sender: int, recipient: int, payload: Any,
                         sent_at: float) -> bytes:
    """Serialize one message to the legacy (version-0) JSON datagram."""
    return json.dumps(
        {"s": sender, "r": recipient, "t": sent_at,
         "p": encode_payload(payload)},
        sort_keys=True, separators=(",", ":")).encode()


def encode_datagram(sender: int, recipient: int, payload: Any,
                    sent_at: float, wire: str = "binary") -> bytes:
    """Serialize one message for the wire (``"binary"`` or ``"json"``)."""
    if wire == "binary":
        return encode_datagram_binary(sender, recipient, payload, sent_at)
    if wire == "json":
        return encode_datagram_json(sender, recipient, payload, sent_at)
    raise ConfigurationError(f"unknown wire format {wire!r}")


def decode_datagram(data: bytes) -> tuple[int, int, Any, float]:
    """Parse a datagram back to ``(sender, recipient, payload, sent_at)``.

    Accepts the current binary form *and* the legacy JSON form (rolling
    compatibility: a binary node keeps understanding JSON peers for one
    version).

    Raises:
        CodecVersionError: Binary magic with an unsupported version.
        TransportError: Anything else that fails to parse.
    """
    if not data:
        raise TransportError("empty datagram")
    leader = data[0]
    if leader == MAGIC:
        if len(data) < 2:
            raise TransportError("truncated datagram: no version byte")
        version = data[1]
        if version != WIRE_VERSION:
            raise CodecVersionError(
                f"unsupported wire version {version} "
                f"(this codec speaks {WIRE_VERSION} and legacy JSON)")
        if len(data) < _HEADER.size:
            raise TransportError(
                f"truncated datagram: {len(data)} bytes < "
                f"{_HEADER.size}-byte header")
        _, _, tag, sender, recipient, sent_at = _HEADER.unpack_from(data)
        return (sender, recipient, unpack_payload(tag, data[_HEADER.size:]),
                sent_at)
    if leader == _JSON_LEADER:
        try:
            raw = json.loads(data.decode())
            return (int(raw["s"]), int(raw["r"]), decode_payload(raw["p"]),
                    float(raw["t"]))
        except (ValueError, KeyError, TypeError) as exc:
            raise TransportError(f"malformed datagram: {exc}") from exc
    raise TransportError(
        f"unrecognized datagram leader byte {leader:#04x} "
        f"(expected {MAGIC:#04x} or JSON)")


# ---------------------------------------------------------------------------
# Built-in packers (the hot protocol payloads)
# ---------------------------------------------------------------------------

_PING = struct.Struct("!qq")
_PONG = struct.Struct("!qd")


def _pack_ping(payload: Ping) -> bytes:
    return _PING.pack(payload.nonce, payload.round_no)


def _unpack_ping(body: bytes) -> Ping:
    nonce, round_no = _PING.unpack(body)
    return Ping(nonce=nonce, round_no=round_no)


def _pack_pong(payload: Pong) -> bytes:
    return _PONG.pack(payload.nonce, payload.clock_value)


def _unpack_pong(body: bytes) -> Pong:
    nonce, clock_value = _PONG.unpack(body)
    return Pong(nonce=nonce, clock_value=clock_value)


register_payload("ping", Ping, tag=1, pack=_pack_ping, unpack=_unpack_ping)
register_payload("pong", Pong, tag=2, pack=_pack_pong, unpack=_unpack_pong)
register_payload("app", AppPayload)

# The client query payloads (tq/tr/ar) are registered by
# repro.service.query, which the transport imports at its end.
# Importing the transport here keeps the registry complete for whoever
# imports the codec, so a stray query datagram reaching a cluster
# transport is counted misrouted, never malformed.
import repro.rt.transport  # noqa: E402,F401  (registers tq/tr/ar)
