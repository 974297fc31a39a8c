"""The versioned binary wire protocol spoken between server and client.

Every message is one *frame*: an 11-byte header followed by a payload.

====== ======= =====================================================
offset size    field
====== ======= =====================================================
0      4       magic ``b"XSRV"``
4      1       protocol version (currently :data:`WIRE_VERSION`)
5      1       frame type (one of the ``T_*`` constants)
6      1       flags (reserved; must be zero in version 1)
7      4       payload length, unsigned big-endian
====== ======= =====================================================

Frame types and payloads (``§4d`` of DESIGN.md carries the same table):

=================== ==== =============================================
frame               id   payload
=================== ==== =============================================
``HELLO``           1    JSON ``{"client": str}``
``WELCOME``         2    JSON ``{"server", "protocol", "max_frame_bytes"}``
``ATTEST``          3    session id (length-prefixed UTF-8)
``ATTEST_OK``       4    JSON attestation verdict + channel public key
``SESSION``         5    session id + raw handshake hello bytes
``SESSION_OK``      6    raw key-confirmation tag
``SEARCH``          7    session id + one sealed request record
``SEARCH_BATCH``    8    count-prefixed list of (session id, record);
                         the server accepts one session per batch
``REPLY``           9    count-prefixed list of sealed reply records
``REPLY_DEGRADED``  10   as ``REPLY``; served while the server drains
``ERROR``           11   JSON ``{"error", "message", "retryable"}``
``BUSY``            12   JSON ``{"retry_after": seconds}``; sent only
                         at connect, before ``WELCOME`` (then
                         ``GOODBYE``), never in reply to a request
``PING``            13   opaque (echoed back)
``PONG``            14   opaque (the echo)
``GOODBYE``         15   JSON ``{"reason": str}``
=================== ==== =============================================

``REPLY_DEGRADED`` deliberately does *not* mean "the enclave served
stale results" — that bit lives inside the AEAD-sealed reply record
(:class:`repro.core.protocol.SearchResponse`) precisely so the host
cannot observe it.  On the wire it is a *server lifecycle* signal: the
reply is valid but the connection is draining, so reconnect elsewhere.

Every decoder validates exhaustively and raises
:class:`~repro.errors.ProtocolError` on malformed input — never an
``IndexError``/``struct.error``/``KeyError`` — which is what lets the
server treat any codec exception as "reject the frame, keep running".
Payload bytes (records, handshake material) are ciphertext produced by
the AEAD channel; the codec moves them opaquely and never parses them.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

from repro import errors as _errors
from repro.errors import ProtocolError, ReproError, TransientError
from repro.sgx.attestation import AttestationVerdict, Quote
from repro.sgx.measurement import Measurement

MAGIC = b"XSRV"
WIRE_VERSION = 1

_HEADER = struct.Struct(">4sBBBI")
HEADER_BYTES = _HEADER.size  # 11

# Frame types.  The ids are a public contract (tests/public_surface.json
# pins them): renumbering breaks deployed peers, so new frames only append.
T_HELLO = 1
T_WELCOME = 2
T_ATTEST = 3
T_ATTEST_OK = 4
T_SESSION = 5
T_SESSION_OK = 6
T_SEARCH = 7
T_SEARCH_BATCH = 8
T_REPLY = 9
T_REPLY_DEGRADED = 10
T_ERROR = 11
T_BUSY = 12
T_PING = 13
T_PONG = 14
T_GOODBYE = 15

FRAME_TYPES = {
    T_HELLO: "HELLO",
    T_WELCOME: "WELCOME",
    T_ATTEST: "ATTEST",
    T_ATTEST_OK: "ATTEST_OK",
    T_SESSION: "SESSION",
    T_SESSION_OK: "SESSION_OK",
    T_SEARCH: "SEARCH",
    T_SEARCH_BATCH: "SEARCH_BATCH",
    T_REPLY: "REPLY",
    T_REPLY_DEGRADED: "REPLY_DEGRADED",
    T_ERROR: "ERROR",
    T_BUSY: "BUSY",
    T_PING: "PING",
    T_PONG: "PONG",
    T_GOODBYE: "GOODBYE",
}

#: Hard ceiling on any frame's payload.  A peer announcing work larger
#: than this is hostile or broken; the frame is rejected before its
#: payload is read, so a 4 GiB length field cannot balloon memory.
MAX_FRAME_BYTES = 1 << 20

#: Tighter per-type caps for frames whose legitimate payloads are small
#: (control traffic).  Everything else falls back to the frame ceiling.
_TYPE_CAPS = {
    T_HELLO: 4096,
    T_WELCOME: 4096,
    T_ATTEST: 4096,
    T_ATTEST_OK: 1 << 16,
    T_SESSION: 1 << 16,
    T_SESSION_OK: 4096,
    T_ERROR: 1 << 13,
    T_BUSY: 1024,
    T_PING: 1024,
    T_PONG: 1024,
    T_GOODBYE: 1024,
}

_MAX_BATCH_ITEMS = 4096


def frame_name(ftype: int) -> str:
    """Human name of a frame type (``"type-39"`` for unknown ids)."""
    return FRAME_TYPES.get(ftype, f"type-{ftype}")


def payload_cap(ftype: int, max_frame_bytes: int = MAX_FRAME_BYTES) -> int:
    return min(_TYPE_CAPS.get(ftype, max_frame_bytes), max_frame_bytes)


@dataclass(frozen=True)
class Frame:
    """One decoded frame: its type and opaque payload."""

    ftype: int
    payload: bytes

    @property
    def name(self) -> str:
        return frame_name(self.ftype)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Frame({self.name}, {len(self.payload)} bytes)"


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def encode_frame(ftype: int, payload: bytes = b"", *,
                 max_frame_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """Serialise one frame (header + payload) to bytes."""
    if ftype not in FRAME_TYPES:
        raise ProtocolError(f"cannot encode unknown frame type {ftype}")
    payload = bytes(payload)
    cap = payload_cap(ftype, max_frame_bytes)
    if len(payload) > cap:
        raise ProtocolError(
            f"{frame_name(ftype)} payload of {len(payload)} bytes "
            f"exceeds the {cap}-byte cap"
        )
    header = _HEADER.pack(MAGIC, WIRE_VERSION, ftype, 0, len(payload))
    return header + payload


def decode_header(header: bytes, *,
                  max_frame_bytes: int = MAX_FRAME_BYTES) -> tuple:
    """Validate an 11-byte header; returns ``(ftype, payload_length)``."""
    if len(header) != HEADER_BYTES:
        raise ProtocolError(
            f"frame header is {len(header)} bytes, expected {HEADER_BYTES}"
        )
    magic, version, ftype, flags, length = _HEADER.unpack(header)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic {magic!r} (not an XSRV stream)")
    if version != WIRE_VERSION:
        raise ProtocolError(
            f"unsupported wire version {version} "
            f"(this endpoint speaks {WIRE_VERSION})"
        )
    if ftype not in FRAME_TYPES:
        raise ProtocolError(f"unknown frame type {ftype}")
    if flags != 0:
        raise ProtocolError(
            f"reserved flags byte is 0x{flags:02x}, must be zero in "
            f"version {WIRE_VERSION}"
        )
    cap = payload_cap(ftype, max_frame_bytes)
    if length > cap:
        raise ProtocolError(
            f"{frame_name(ftype)} frame announces {length} payload "
            f"bytes, over the {cap}-byte cap"
        )
    return ftype, length


def recv_exact(sock, count: int):
    """Read exactly ``count`` bytes from a socket, or ``None`` on EOF.

    EOF part-way through still returns ``None``: the peer is gone and
    there is nobody left to complain to about the truncation.
    """
    chunks = []
    remaining = count
    while remaining > 0:
        chunk = sock.recv(min(remaining, 65536))
        if not chunk:
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(sock, *, max_frame_bytes: int = MAX_FRAME_BYTES):
    """Blocking read of one frame from a socket.

    Returns ``None`` on EOF, raises :class:`~repro.errors.ProtocolError`
    on malformed framing; socket timeouts and OS errors propagate to
    the caller (who owns the connection's fate).
    """
    header = recv_exact(sock, HEADER_BYTES)
    if header is None:
        return None
    ftype, length = decode_header(header, max_frame_bytes=max_frame_bytes)
    if length == 0:
        return Frame(ftype, b"")
    payload = recv_exact(sock, length)
    if payload is None:
        return None
    return Frame(ftype, payload)


# ----------------------------------------------------------------------
# Payload packing primitives
# ----------------------------------------------------------------------
def _pack_str(text: str) -> bytes:
    raw = text.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise ProtocolError("string field exceeds 65535 bytes")
    return struct.pack(">H", len(raw)) + raw


def _take(payload: bytes, offset: int, count: int) -> tuple:
    end = offset + count
    if end > len(payload):
        raise ProtocolError("payload truncated mid-field")
    return payload[offset:end], end


def _unpack_str(payload: bytes, offset: int) -> tuple:
    raw, offset = _take(payload, offset, 2)
    (length,) = struct.unpack(">H", raw)
    raw, offset = _take(payload, offset, length)
    try:
        return raw.decode("utf-8"), offset
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"string field is not UTF-8: {exc}") from None


def _pack_blob(blob: bytes) -> bytes:
    return struct.pack(">I", len(blob)) + bytes(blob)


def _unpack_blob(payload: bytes, offset: int) -> tuple:
    raw, offset = _take(payload, offset, 4)
    (length,) = struct.unpack(">I", raw)
    blob, offset = _take(payload, offset, length)
    return bytes(blob), offset


def _exhausted(payload: bytes, offset: int) -> None:
    if offset != len(payload):
        raise ProtocolError(
            f"{len(payload) - offset} trailing byte(s) after payload"
        )


def _json_payload(payload: bytes, *, frame: str) -> dict:
    try:
        decoded = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"{frame} payload is not valid JSON: "
                            f"{type(exc).__name__}") from None
    if not isinstance(decoded, dict):
        raise ProtocolError(f"{frame} payload must be a JSON object")
    return decoded


def _hex_field(obj: dict, key: str, *, frame: str) -> bytes:
    value = obj.get(key)
    if not isinstance(value, str):
        raise ProtocolError(f"{frame} payload is missing field {key!r}")
    try:
        return bytes.fromhex(value)
    except ValueError:
        raise ProtocolError(f"{frame} field {key!r} is not hex") from None


# ----------------------------------------------------------------------
# Typed payloads
# ----------------------------------------------------------------------
def encode_hello(client_name: str = "xsearch-remote") -> bytes:
    return json.dumps({"client": str(client_name)}).encode("utf-8")


def decode_hello(payload: bytes) -> str:
    obj = _json_payload(payload, frame="HELLO")
    client = obj.get("client", "")
    if not isinstance(client, str):
        raise ProtocolError("HELLO client name must be a string")
    return client


def encode_welcome(*, server_name: str,
                   max_frame_bytes: int = MAX_FRAME_BYTES) -> bytes:
    return json.dumps({
        "server": str(server_name),
        "protocol": WIRE_VERSION,
        "max_frame_bytes": int(max_frame_bytes),
    }).encode("utf-8")


def decode_welcome(payload: bytes) -> dict:
    obj = _json_payload(payload, frame="WELCOME")
    if obj.get("protocol") != WIRE_VERSION:
        raise ProtocolError(
            f"server speaks wire version {obj.get('protocol')!r}, "
            f"this client speaks {WIRE_VERSION}"
        )
    if not isinstance(obj.get("max_frame_bytes"), int):
        raise ProtocolError("WELCOME max_frame_bytes must be an integer")
    return obj


def encode_attest(session_id: str) -> bytes:
    return _pack_str(session_id)


def decode_attest(payload: bytes) -> str:
    session_id, offset = _unpack_str(payload, 0)
    _exhausted(payload, offset)
    if not session_id:
        raise ProtocolError("ATTEST session id is empty")
    return session_id


def encode_attest_ok(verdict: AttestationVerdict,
                     channel_public: bytes) -> bytes:
    quote = verdict.quote
    return json.dumps({
        "quote": {
            "platform_id": quote.platform_id.hex(),
            "measurement": quote.measurement.digest.hex(),
            "report_data": quote.report_data.hex(),
            "signature": quote.signature.hex(),
        },
        "status": verdict.status,
        "report_bytes": verdict.report_bytes.hex(),
        "signature": verdict.signature.hex(),
        "channel_public": bytes(channel_public).hex(),
    }).encode("utf-8")


def decode_attest_ok(payload: bytes) -> tuple:
    """Returns ``(AttestationVerdict, channel_public_bytes)``."""
    obj = _json_payload(payload, frame="ATTEST_OK")
    quote_obj = obj.get("quote")
    if not isinstance(quote_obj, dict):
        raise ProtocolError("ATTEST_OK payload is missing the quote")
    measurement = _hex_field(quote_obj, "measurement", frame="ATTEST_OK")
    if len(measurement) != 32:
        raise ProtocolError("ATTEST_OK measurement must be 32 bytes")
    status = obj.get("status")
    if not isinstance(status, str):
        raise ProtocolError("ATTEST_OK status must be a string")
    quote = Quote(
        platform_id=_hex_field(quote_obj, "platform_id", frame="ATTEST_OK"),
        measurement=Measurement(measurement),
        report_data=_hex_field(quote_obj, "report_data", frame="ATTEST_OK"),
        signature=_hex_field(quote_obj, "signature", frame="ATTEST_OK"),
    )
    verdict = AttestationVerdict(
        quote=quote,
        status=status,
        report_bytes=_hex_field(obj, "report_bytes", frame="ATTEST_OK"),
        signature=_hex_field(obj, "signature", frame="ATTEST_OK"),
    )
    return verdict, _hex_field(obj, "channel_public", frame="ATTEST_OK")


def encode_session(session_id: str, client_hello: bytes) -> bytes:
    return _pack_str(session_id) + _pack_blob(client_hello)


def decode_session(payload: bytes) -> tuple:
    session_id, offset = _unpack_str(payload, 0)
    hello, offset = _unpack_blob(payload, offset)
    _exhausted(payload, offset)
    if not session_id:
        raise ProtocolError("SESSION session id is empty")
    return session_id, hello


def encode_search(session_id: str, record: bytes) -> bytes:
    return _pack_str(session_id) + bytes(record)


def decode_search(payload: bytes) -> tuple:
    session_id, offset = _unpack_str(payload, 0)
    if not session_id:
        raise ProtocolError("SEARCH session id is empty")
    return session_id, bytes(payload[offset:])


def encode_search_batch(batch) -> bytes:
    items = list(batch)
    if not items:
        raise ProtocolError("SEARCH_BATCH must carry at least one record")
    if len(items) > _MAX_BATCH_ITEMS:
        raise ProtocolError(
            f"SEARCH_BATCH of {len(items)} records exceeds the "
            f"{_MAX_BATCH_ITEMS}-record cap"
        )
    parts = [struct.pack(">H", len(items))]
    for session_id, record in items:
        parts.append(_pack_str(session_id))
        parts.append(_pack_blob(record))
    return b"".join(parts)


def decode_search_batch(payload: bytes) -> list:
    raw, offset = _take(payload, 0, 2)
    (count,) = struct.unpack(">H", raw)
    if count == 0:
        raise ProtocolError("SEARCH_BATCH must carry at least one record")
    items = []
    for _ in range(count):
        session_id, offset = _unpack_str(payload, offset)
        if not session_id:
            raise ProtocolError("SEARCH_BATCH session id is empty")
        record, offset = _unpack_blob(payload, offset)
        items.append((session_id, record))
    _exhausted(payload, offset)
    return items


def encode_reply(records) -> bytes:
    items = [bytes(record) for record in records]
    if len(items) > _MAX_BATCH_ITEMS:
        raise ProtocolError(
            f"REPLY of {len(items)} records exceeds the "
            f"{_MAX_BATCH_ITEMS}-record cap"
        )
    parts = [struct.pack(">H", len(items))]
    for record in items:
        parts.append(_pack_blob(record))
    return b"".join(parts)


def decode_reply(payload: bytes) -> list:
    raw, offset = _take(payload, 0, 2)
    (count,) = struct.unpack(">H", raw)
    records = []
    for _ in range(count):
        record, offset = _unpack_blob(payload, offset)
        records.append(record)
    _exhausted(payload, offset)
    return records


def encode_confirmation(confirmation: bytes) -> bytes:
    return bytes(confirmation)


def encode_busy(retry_after: float) -> bytes:
    return json.dumps({"retry_after": float(retry_after)}).encode("utf-8")


def decode_busy(payload: bytes) -> float:
    obj = _json_payload(payload, frame="BUSY")
    retry_after = obj.get("retry_after")
    if not isinstance(retry_after, (int, float)) or retry_after < 0:
        raise ProtocolError("BUSY retry_after must be a number >= 0")
    return float(retry_after)


def encode_goodbye(reason: str) -> bytes:
    return json.dumps({"reason": str(reason)}).encode("utf-8")


def decode_goodbye(payload: bytes) -> str:
    obj = _json_payload(payload, frame="GOODBYE")
    reason = obj.get("reason", "")
    if not isinstance(reason, str):
        raise ProtocolError("GOODBYE reason must be a string")
    return reason


# ----------------------------------------------------------------------
# Typed errors over the wire
# ----------------------------------------------------------------------
#: Every concrete ``repro.errors`` type, by name: the vocabulary both
#: endpoints agree on for the ERROR frame.
_ERROR_TYPES = {
    name: value
    for name, value in vars(_errors).items()
    if isinstance(value, type) and issubclass(value, ReproError)
}


def encode_error(exc: BaseException) -> bytes:
    """Serialise an exception as a typed, boundary-safe ERROR payload.

    ``scrub`` renders the message (the declassifier the taint rules
    recognise); the type *name* is the interoperable part — the peer
    rebuilds the closest local type.
    """
    if isinstance(exc, ReproError):
        name = type(exc).__name__
        retryable = bool(exc.retryable)
    else:
        # Never leak internal exception detail for non-taxonomy errors:
        # the peer only learns that the request failed server-side.
        name = "ProtocolError"
        retryable = False
        exc = ProtocolError("internal server error")
    text = _errors.scrub(exc)
    message = text.split(": ", 1)[1] if ": " in text else text
    return json.dumps({
        "error": name,
        "message": message,
        "retryable": retryable,
    }).encode("utf-8")


def decode_error(payload: bytes) -> ReproError:
    """Rebuild the typed exception an ERROR frame describes."""
    obj = _json_payload(payload, frame="ERROR")
    name = obj.get("error")
    message = obj.get("message", "")
    retryable = bool(obj.get("retryable", False))
    if not isinstance(name, str) or not isinstance(message, str):
        raise ProtocolError("ERROR payload must carry string error/message")
    cls = _ERROR_TYPES.get(name)
    if cls is not None:
        try:
            return cls(message)
        except TypeError:
            # Constructor wants structured arguments we don't have
            # (e.g. RetryExhaustedError); fall through to a generic.
            pass
    generic = TransientError if retryable else ReproError
    return generic(f"{name}: {message}")
