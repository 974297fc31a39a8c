"""The frame codec: round-trips, validation, incremental reading."""

from __future__ import annotations

import struct

import pytest

from repro import errors
from repro.errors import (
    AttestationError,
    EnclaveLostError,
    ProtocolError,
    ReproError,
    ServerBusyError,
    SessionLostError,
    TransientError,
)
from repro.netserve import wire

from _helpers import ChunkedSocket


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def test_frame_round_trip():
    data = wire.encode_frame(wire.T_SEARCH, b"payload bytes")
    ftype, length = wire.decode_header(data[:wire.HEADER_BYTES])
    assert ftype == wire.T_SEARCH
    assert length == len(b"payload bytes")
    assert data[wire.HEADER_BYTES:] == b"payload bytes"


def test_empty_payload_frame():
    data = wire.encode_frame(wire.T_PING)
    assert len(data) == wire.HEADER_BYTES
    assert wire.decode_header(data) == (wire.T_PING, 0)


def test_encode_rejects_unknown_type_and_oversize():
    with pytest.raises(ProtocolError):
        wire.encode_frame(99, b"")
    with pytest.raises(ProtocolError):
        wire.encode_frame(wire.T_PING, b"x" * 2048)  # over the PING cap
    with pytest.raises(ProtocolError):
        wire.encode_frame(wire.T_REPLY, b"x" * (wire.MAX_FRAME_BYTES + 1))


@pytest.mark.parametrize("mutate, note", [
    (lambda h: b"NOPE" + h[4:], "bad magic"),
    (lambda h: h[:4] + b"\x7f" + h[5:], "bad version"),
    (lambda h: h[:5] + b"\x63" + h[6:], "unknown type"),
    (lambda h: h[:6] + b"\x01" + h[7:], "reserved flags set"),
    (lambda h: h[:7] + struct.pack(">I", wire.MAX_FRAME_BYTES + 1),
     "length over cap"),
    (lambda h: h[:-1], "truncated header"),
])
def test_decode_header_rejects_malformed(mutate, note):
    good = wire.encode_frame(wire.T_REPLY, b"abc")[:wire.HEADER_BYTES]
    with pytest.raises(ProtocolError):
        wire.decode_header(mutate(good))


def test_per_type_caps_are_tighter_than_frame_ceiling():
    assert wire.payload_cap(wire.T_PING) == 1024
    assert wire.payload_cap(wire.T_SEARCH) == wire.MAX_FRAME_BYTES
    # A smaller negotiated ceiling wins over the per-type cap.
    assert wire.payload_cap(wire.T_SEARCH, 4096) == 4096
    header = wire._HEADER.pack(
        wire.MAGIC, wire.WIRE_VERSION, wire.T_PING, 0, 4096
    )
    with pytest.raises(ProtocolError):
        wire.decode_header(header)


def read_all(sock) -> list:
    frames = []
    while (frame := wire.read_frame(sock)) is not None:
        frames.append(frame)
    return frames


def test_frame_reader_incremental():
    stream = (wire.encode_frame(wire.T_PING, b"a")
              + wire.encode_frame(wire.T_PONG, b"bb"))
    sock = ChunkedSocket(stream, max_chunk=1)  # one byte at a time
    frames = read_all(sock)
    assert [(f.ftype, f.payload) for f in frames] == [
        (wire.T_PING, b"a"), (wire.T_PONG, b"bb"),
    ]
    assert sock.pending_bytes == 0


def test_frame_reader_multiple_frames_in_one_feed():
    stream = b"".join(
        wire.encode_frame(wire.T_PING, bytes([i])) for i in range(5)
    )
    frames = read_all(ChunkedSocket(stream, max_chunk=len(stream)))
    assert [f.payload for f in frames] == [bytes([i]) for i in range(5)]


def test_frame_reader_truncated_stream_is_eof():
    stream = wire.encode_frame(wire.T_PING, b"abcd")
    assert wire.read_frame(ChunkedSocket(stream[:5])) is None
    assert wire.read_frame(ChunkedSocket(stream[:-1])) is None


def test_frame_reader_poisons_on_bad_header():
    """A corrupt header raises at once; the reader never scans ahead to
    resynchronise on the valid frame behind it (the server drops the
    connection instead)."""
    valid = wire.encode_frame(wire.T_PING, b"")
    sock = ChunkedSocket(b"GARBAGEGARB" + valid)
    with pytest.raises(ProtocolError):
        wire.read_frame(sock)
    assert sock.pending_bytes == len(valid)


# ----------------------------------------------------------------------
# Typed payload codecs
# ----------------------------------------------------------------------
def test_hello_welcome_round_trip():
    assert wire.decode_hello(wire.encode_hello("someone")) == "someone"
    info = wire.decode_welcome(wire.encode_welcome(server_name="srv"))
    assert info["server"] == "srv"
    assert info["protocol"] == wire.WIRE_VERSION


def test_welcome_rejects_version_mismatch():
    payload = b'{"server": "s", "protocol": 99, "max_frame_bytes": 1024}'
    with pytest.raises(ProtocolError):
        wire.decode_welcome(payload)


def test_attest_round_trip():
    assert wire.decode_attest(wire.encode_attest("sid-1")) == "sid-1"
    with pytest.raises(ProtocolError):
        wire.decode_attest(wire.encode_attest(""))
    with pytest.raises(ProtocolError):
        wire.decode_attest(wire.encode_attest("sid-1") + b"trailing")


def test_session_round_trip():
    payload = wire.encode_session("sid-2", b"\x00\x01hello")
    assert wire.decode_session(payload) == ("sid-2", b"\x00\x01hello")


def test_search_round_trip():
    payload = wire.encode_search("sid-3", b"sealed-record")
    assert wire.decode_search(payload) == ("sid-3", b"sealed-record")


def test_search_batch_round_trip():
    items = [("sid-a", b"r1"), ("sid-b", b"r2"), ("sid-a", b"r3")]
    assert wire.decode_search_batch(wire.encode_search_batch(items)) == items


def test_search_batch_rejects_empty_and_truncated():
    with pytest.raises(ProtocolError):
        wire.encode_search_batch([])
    payload = wire.encode_search_batch([("sid", b"record")])
    with pytest.raises(ProtocolError):
        wire.decode_search_batch(payload[:-1])
    with pytest.raises(ProtocolError):
        wire.decode_search_batch(payload + b"extra")


def test_reply_round_trip():
    records = [b"r1", b"", b"r3"]
    assert wire.decode_reply(wire.encode_reply(records)) == records
    assert wire.decode_reply(wire.encode_reply([])) == []


def test_busy_round_trip():
    assert wire.decode_busy(wire.encode_busy(0.25)) == 0.25
    with pytest.raises(ProtocolError):
        wire.decode_busy(b'{"retry_after": -1}')
    with pytest.raises(ProtocolError):
        wire.decode_busy(b'{"retry_after": "soon"}')


def test_goodbye_round_trip():
    assert wire.decode_goodbye(wire.encode_goodbye("drain")) == "drain"
    with pytest.raises(ProtocolError):
        wire.decode_goodbye(b"not json")


def test_attest_ok_round_trip(served):
    deployment, _server = served
    verdict, public = deployment.frontend.attestation_evidence(
        "wire-attest-ok")
    payload = wire.encode_attest_ok(verdict, public)
    decoded_verdict, decoded_public = wire.decode_attest_ok(payload)
    assert decoded_public == bytes(public)
    assert decoded_verdict.status == verdict.status
    assert decoded_verdict.quote.measurement == verdict.quote.measurement
    assert decoded_verdict.signature == verdict.signature


def test_attest_ok_rejects_wrong_measurement_width():
    payload = (b'{"quote": {"platform_id": "00", "measurement": "aabb", '
               b'"report_data": "00", "signature": "00"}, '
               b'"status": "OK", "report_bytes": "00", "signature": "00", '
               b'"channel_public": "00"}')
    with pytest.raises(ProtocolError):
        wire.decode_attest_ok(payload)


# ----------------------------------------------------------------------
# Typed errors
# ----------------------------------------------------------------------
def test_error_round_trip_preserves_type():
    for exc in (AttestationError("verdict mismatch"),
                ProtocolError("bad frame"),
                EnclaveLostError("it fell over"),
                SessionLostError("no such session"),
                ServerBusyError("full")):
        rebuilt = wire.decode_error(wire.encode_error(exc))
        assert type(rebuilt) is type(exc)
        assert rebuilt.retryable == exc.retryable


def test_error_never_leaks_non_taxonomy_detail():
    payload = wire.encode_error(ValueError("secret internal detail"))
    rebuilt = wire.decode_error(payload)
    assert isinstance(rebuilt, ProtocolError)
    assert "secret" not in str(rebuilt)


def test_error_unknown_name_degrades_to_generic():
    rebuilt = wire.decode_error(
        b'{"error": "FutureError", "message": "m", "retryable": true}'
    )
    assert isinstance(rebuilt, TransientError)
    assert "FutureError" in str(rebuilt)
    rebuilt = wire.decode_error(
        b'{"error": "FutureError", "message": "m", "retryable": false}'
    )
    assert type(rebuilt) is ReproError


def test_error_structured_constructor_falls_back():
    exc = errors.RetryExhaustedError(3, ProtocolError("x"))
    rebuilt = wire.decode_error(wire.encode_error(exc))
    assert isinstance(rebuilt, ReproError)
    assert "RetryExhaustedError" in str(rebuilt) or isinstance(
        rebuilt, errors.RetryExhaustedError
    )


def test_error_vocabulary_covers_the_taxonomy():
    assert "ConnectionLostError" in wire._ERROR_TYPES
    assert "ServerBusyError" in wire._ERROR_TYPES
    assert "AuthenticationError" in wire._ERROR_TYPES
