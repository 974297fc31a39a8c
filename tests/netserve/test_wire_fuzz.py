"""Protocol robustness: seeded malformed-frame fuzzing.

Two layers, same seeded corpus:

* codec level — every mutation either decodes or raises
  :class:`~repro.errors.ProtocolError`; never ``struct.error`` /
  ``IndexError`` / ``KeyError`` / ``UnicodeDecodeError``.
* server level — a live server fed the same garbage answers with a
  typed ``ERROR`` frame or closes the connection cleanly; it never
  crashes, never hangs, and still serves a well-behaved client
  afterwards.
"""

from __future__ import annotations

import random
import socket
import struct

import pytest

from repro.errors import ProtocolError
from repro.netserve import wire

from _helpers import ChunkedSocket, make_client, raw_connect

SEED = 20260808
#: Total malformed inputs across the suite (the issue floor is 200).
N_HEADER_CASES = 120
N_PAYLOAD_CASES = 160
N_SOCKET_CASES = 60


def _valid_frames(rng):
    """A pool of well-formed frames to mutate."""
    frames = [
        wire.encode_frame(wire.T_HELLO, wire.encode_hello("fuzz")),
        wire.encode_frame(wire.T_PING, rng.randbytes(8)),
        wire.encode_frame(wire.T_ATTEST, wire.encode_attest("sid-f")),
        wire.encode_frame(
            wire.T_SESSION, wire.encode_session("sid-f", rng.randbytes(40))
        ),
        wire.encode_frame(
            wire.T_SEARCH, wire.encode_search("sid-f", rng.randbytes(64))
        ),
        wire.encode_frame(
            wire.T_SEARCH_BATCH,
            wire.encode_search_batch(
                [("sid-f", rng.randbytes(16)) for _ in range(3)]
            ),
        ),
        wire.encode_frame(wire.T_GOODBYE, wire.encode_goodbye("fuzz")),
    ]
    return frames


def _mutate(rng, blob: bytes) -> bytes:
    """One seeded mutation of a byte string."""
    blob = bytearray(blob)
    choice = rng.randrange(6)
    if choice == 0 and blob:  # truncate
        del blob[rng.randrange(len(blob)):]
    elif choice == 1:  # bit flip
        if blob:
            index = rng.randrange(len(blob))
            blob[index] ^= 1 << rng.randrange(8)
    elif choice == 2:  # corrupt the header length field
        if len(blob) >= wire.HEADER_BYTES:
            blob[7:11] = struct.pack(">I", rng.randrange(1 << 32))
    elif choice == 3:  # wrong magic / version / type / flags byte
        if len(blob) >= wire.HEADER_BYTES:
            index = rng.randrange(7)
            blob[index] = rng.randrange(256)
    elif choice == 4:  # splice random garbage into the payload
        insert = rng.randbytes(rng.randrange(1, 32))
        index = rng.randrange(len(blob) + 1)
        blob[index:index] = insert
    else:  # pure noise
        blob = bytearray(rng.randbytes(rng.randrange(1, 128)))
    return bytes(blob)


def _malformed_corpus(rng, count):
    pool = _valid_frames(rng)
    corpus = []
    while len(corpus) < count:
        blob = _mutate(rng, rng.choice(pool))
        if rng.random() < 0.3:  # stack mutations for deeper damage
            blob = _mutate(rng, blob)
        corpus.append(blob)
    return corpus


# ----------------------------------------------------------------------
# Codec level
# ----------------------------------------------------------------------
def test_fuzz_frame_reader_total():
    """Every mutation, read by ``read_frame`` in short random chunks,
    decodes or raises ProtocolError — nothing else."""
    rng = random.Random(SEED)
    rejected = 0
    for case, blob in enumerate(_malformed_corpus(rng, N_HEADER_CASES)):
        sock = ChunkedSocket(blob, max_chunk=1 + case % 16, seed=case)
        try:
            while wire.read_frame(sock) is not None:
                pass
        except ProtocolError:
            rejected += 1
    assert rejected > N_HEADER_CASES // 4  # the corpus does real damage


def test_fuzz_payload_decoders_total():
    """Typed decoders are total functions over arbitrary bytes."""
    rng = random.Random(SEED + 1)
    decoders = (
        wire.decode_hello, wire.decode_welcome, wire.decode_attest,
        wire.decode_attest_ok, wire.decode_session, wire.decode_search,
        wire.decode_search_batch, wire.decode_reply, wire.decode_busy,
        wire.decode_goodbye, wire.decode_error,
    )
    rejections = 0
    for _ in range(N_PAYLOAD_CASES):
        blob = rng.randbytes(rng.randrange(0, 96))
        for decode in decoders:
            try:
                decode(blob)
            except ProtocolError:
                rejections += 1
    assert rejections > 0


# ----------------------------------------------------------------------
# Server level
# ----------------------------------------------------------------------
def _drain_until_close(sock):
    """Read server frames until it closes; fail the test on a hang."""
    sock.settimeout(5.0)
    frames = []
    while True:
        try:
            frame = wire.read_frame(sock)
        except (ProtocolError, OSError):
            break
        if frame is None:
            break
        frames.append(frame)
        if len(frames) > 16:  # a confused server babbling, not serving
            pytest.fail("server kept streaming frames at a fuzzer")
    return frames


def test_fuzz_live_server_survives_framing_garbage(served):
    """Header-level garbage: the server rejects and closes, every time."""
    _deployment, server = served
    rng = random.Random(SEED + 2)
    for blob in _malformed_corpus(rng, N_SOCKET_CASES):
        with raw_connect(server) as sock:
            try:
                sock.sendall(blob)
                sock.shutdown(socket.SHUT_WR)
            except OSError:
                continue  # server already slammed the door; that's a pass
            frames = _drain_until_close(sock)
            for frame in frames:
                assert frame.ftype in (wire.T_ERROR, wire.T_GOODBYE,
                                       wire.T_WELCOME, wire.T_PONG)


def test_fuzz_live_server_payload_garbage_keeps_connection(served):
    """Well-framed garbage payloads: typed ERROR, connection survives."""
    _deployment, server = served
    rng = random.Random(SEED + 3)
    with raw_connect(server) as sock:
        sock.settimeout(5.0)
        errors_seen = 0
        for _ in range(140):
            ftype = rng.choice((wire.T_ATTEST, wire.T_SESSION,
                                wire.T_SEARCH, wire.T_SEARCH_BATCH,
                                wire.T_HELLO, wire.T_WELCOME,
                                wire.T_REPLY, wire.T_ERROR, wire.T_BUSY))
            payload = rng.randbytes(rng.randrange(0, 64))
            cap = wire.payload_cap(ftype)
            sock.sendall(wire.encode_frame(ftype, payload[:cap]))
            frame = wire.read_frame(sock)
            assert frame is not None, "server dropped a well-framed client"
            if frame.ftype == wire.T_ERROR:
                errors_seen += 1
                rebuilt = wire.decode_error(frame.payload)
                assert isinstance(rebuilt, Exception)
        assert errors_seen > 100
        # The same connection still answers honest traffic.
        sock.sendall(wire.encode_frame(wire.T_PING, b"still-there"))
        frame = wire.read_frame(sock)
        assert frame.ftype == wire.T_PONG
        assert frame.payload == b"still-there"


def test_server_serves_honest_client_after_fuzzing(served):
    deployment, server = served
    client = make_client(deployment, server, user_id="post-fuzz")
    try:
        results = client.search("cheap hotel rome", limit=3)
        assert results
    finally:
        client.close()
