"""Server lifecycle edges: binding, idle kick, shedding, drain."""

from __future__ import annotations

import socket
import threading

import pytest

from _helpers import make_client, make_deployment, raw_connect
from repro.core.retry import RetryPolicy
from repro.errors import ProtocolError, RetryExhaustedError, ServerBusyError
from repro.net.clock import VirtualClock
from repro.netserve import wire
from repro.netserve.server import XSearchServer
from repro.obs import MetricsRegistry


class GatedEngine:
    """An engine whose exchanges park until the test opens the gate."""

    def __init__(self, engine):
        self._engine = engine
        self.gate = threading.Event()
        self.gate.set()
        self.entered = threading.Event()

    def _pause(self):
        self.entered.set()
        assert self.gate.wait(timeout=10), "engine gate never opened"

    def search(self, query, limit):
        self._pause()
        return self._engine.search(query, limit)

    def search_or(self, subqueries, limit):
        self._pause()
        return self._engine.search_or(subqueries, limit)

    def __getattr__(self, name):
        return getattr(self._engine, name)


def _hello(sock):
    sock.sendall(wire.encode_frame(wire.T_HELLO, wire.encode_hello("raw")))
    return wire.read_frame(sock)


# ----------------------------------------------------------------------
# Binding and the basic handshake
# ----------------------------------------------------------------------
def test_port_zero_binds_ephemeral(served):
    _deployment, server = served
    host, port = server.address
    assert host == "127.0.0.1"
    assert port != 0


def test_address_before_start_raises():
    with make_deployment() as deployment:
        server = XSearchServer(deployment)
        with pytest.raises(ProtocolError):
            server.address
        # Closing an unstarted server is a no-op, and it cannot then start.
        server.close()
        with pytest.raises(ProtocolError):
            server.start()


def test_hello_welcome_and_ping(served):
    _deployment, server = served
    with raw_connect(server) as sock:
        sock.settimeout(5.0)
        frame = _hello(sock)
        assert frame.ftype == wire.T_WELCOME
        info = wire.decode_welcome(frame.payload)
        assert info["max_frame_bytes"] == server.max_frame_bytes
        sock.sendall(wire.encode_frame(wire.T_PING, b"echo me"))
        frame = wire.read_frame(sock)
        assert (frame.ftype, frame.payload) == (wire.T_PONG, b"echo me")


def test_server_only_frame_from_client_is_rejected(served):
    _deployment, server = served
    with raw_connect(server) as sock:
        sock.settimeout(5.0)
        sock.sendall(wire.encode_frame(wire.T_REPLY, wire.encode_reply([])))
        frame = wire.read_frame(sock)
        assert frame.ftype == wire.T_ERROR
        assert isinstance(wire.decode_error(frame.payload), ProtocolError)
        # Protocol-level complaint, but the connection survives.
        sock.sendall(wire.encode_frame(wire.T_PING, b"x"))
        assert wire.read_frame(sock).ftype == wire.T_PONG


def test_search_batch_naming_two_sessions_is_rejected(served):
    """A SEARCH_BATCH must name one session: routing follows it, and a
    replica does not know another replica's sessions.  The batch is
    refused with a typed error before anything crosses."""
    deployment, server = served
    clients = [make_client(deployment, server, session_id=sid)
               for sid in ("mixed-a", "mixed-b")]
    for client in clients:
        assert client.search("hotel rome", limit=3) is not None

    def request_ecalls():
        counts = deployment.proxy.enclave.boundary_snapshot().ecall_counts
        return counts.get("request_many", 0)

    before = request_ecalls()
    with raw_connect(server) as sock:
        sock.settimeout(5.0)
        assert _hello(sock).ftype == wire.T_WELCOME
        batch = [("mixed-a", b"\x00" * 40), ("mixed-b", b"\x01" * 40)]
        sock.sendall(wire.encode_frame(
            wire.T_SEARCH_BATCH, wire.encode_search_batch(batch)))
        frame = wire.read_frame(sock)
        assert frame.ftype == wire.T_ERROR
        assert isinstance(wire.decode_error(frame.payload), ProtocolError)
        # The connection survives the refusal.
        sock.sendall(wire.encode_frame(wire.T_PING, b"x"))
        assert wire.read_frame(sock).ftype == wire.T_PONG
    assert request_ecalls() == before
    for client in clients:
        assert client.search("diabetes symptoms", limit=3) is not None
        client.close()


def test_malformed_framing_gets_error_then_goodbye(served):
    _deployment, server = served
    with raw_connect(server) as sock:
        sock.settimeout(5.0)
        sock.sendall(b"GARBAGEGARB")  # 11 bytes of not-a-header
        frame = wire.read_frame(sock)
        assert frame.ftype == wire.T_ERROR
        frame = wire.read_frame(sock)
        assert frame.ftype == wire.T_GOODBYE
        assert wire.decode_goodbye(frame.payload) == "protocol"
        assert wire.read_frame(sock) is None  # clean close


# ----------------------------------------------------------------------
# Idle timeout
# ----------------------------------------------------------------------
def test_idle_connection_is_dismissed():
    with make_deployment() as deployment:
        with XSearchServer(deployment, idle_timeout=0.2) as server:
            with raw_connect(server) as sock:
                sock.settimeout(5.0)
                assert _hello(sock).ftype == wire.T_WELCOME
                frame = wire.read_frame(sock)  # sit idle; server kicks us
                assert frame.ftype == wire.T_GOODBYE
                assert wire.decode_goodbye(frame.payload) == "idle"
                assert wire.read_frame(sock) is None


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
def test_connection_cap_sheds_with_busy():
    registry = MetricsRegistry()
    with make_deployment() as deployment:
        with XSearchServer(deployment, max_connections=1,
                           idle_timeout=None, retry_after=0.125,
                           registry=registry) as server:
            with raw_connect(server) as first:
                first.settimeout(5.0)
                assert _hello(first).ftype == wire.T_WELCOME
                with raw_connect(server) as second:
                    second.settimeout(5.0)
                    frame = wire.read_frame(second)
                    assert frame.ftype == wire.T_BUSY
                    assert wire.decode_busy(frame.payload) == 0.125
                    frame = wire.read_frame(second)
                    assert frame.ftype == wire.T_GOODBYE
                    assert wire.decode_goodbye(frame.payload) == "busy"
                    assert wire.read_frame(second) is None
                # The admitted connection is unharmed.
                first.sendall(wire.encode_frame(wire.T_PING, b"ok"))
                assert wire.read_frame(first).ftype == wire.T_PONG
            assert registry.counter("server.sheds").value >= 1


def test_reconnect_after_busy_honours_retry_after_on_virtual_clock():
    """A BUSY at connect time costs one attempt of the broker's retry
    policy, and the wait before the next attempt honours the server's
    hint — driven on a virtual clock, so no real sleeping happens."""
    registry = MetricsRegistry()
    with make_deployment() as deployment:
        with XSearchServer(deployment, max_connections=1,
                           idle_timeout=None, retry_after=0.25,
                           registry=registry) as server:
            hog = raw_connect(server)
            hog.settimeout(5.0)
            assert _hello(hog).ftype == wire.T_WELCOME
            clock = VirtualClock()
            with pytest.raises(RetryExhaustedError) as info:
                make_client(deployment, server, user_id="patient",
                            clock=clock,
                            retry_policy=RetryPolicy(max_attempts=3))
            # Three attempts, each rebuffed once; the two between-attempt
            # waits honour the server's hint.
            assert clock.sleeps == [0.25, 0.25]
            assert registry.counter("server.sheds").value == 3
            cause = info.value.last_cause
            assert isinstance(cause, ServerBusyError)
            assert cause.retry_after == 0.25
            # The hog leaves; once the server has let it go, the same
            # dance ends in admission.
            hog.close()
            assert _poll(lambda: registry.gauge(
                "server.active_connections").value == 0)
            client = make_client(deployment, server, user_id="patient",
                                 clock=clock)
            assert client.search("cheap hotel rome", limit=3)
            client.close()
            assert clock.sleeps == [0.25, 0.25]


def _poll(predicate, *, steps=1000, tick=0.005) -> bool:
    """Whether ``predicate`` holds within ``steps`` ticks."""
    pause = threading.Event()
    for _ in range(steps):
        if predicate():
            return True
        pause.wait(tick)
    return predicate()


# ----------------------------------------------------------------------
# Graceful drain
# ----------------------------------------------------------------------
def test_drain_finishes_inflight_and_flags_reply(small_engine):
    engine = GatedEngine(small_engine)
    with make_deployment(engine=engine) as deployment:
        server = XSearchServer(deployment, idle_timeout=None).start()
        client = make_client(deployment, server, user_id="drained")
        result_box = {}

        def do_search():
            result_box["results"] = client.search("cheap hotel rome")

        engine.gate.clear()
        worker = threading.Thread(target=do_search, daemon=True)
        worker.start()
        assert engine.entered.wait(timeout=10)
        closer = threading.Thread(target=server.close, daemon=True)
        closer.start()
        engine.gate.set()
        worker.join(timeout=10)
        closer.join(timeout=10)
        assert not worker.is_alive() and not closer.is_alive()
        # The in-flight request completed — degraded-flagged on the
        # wire, but a full, valid reply to the caller.
        assert result_box["results"]
        assert client.transport.drain_notices == 1
        # The listener is gone: new connections are refused outright.
        with pytest.raises(OSError):
            socket.create_connection(server.address, timeout=1.0)
        client.close()


def test_server_close_is_idempotent_and_concurrent():
    with make_deployment() as deployment:
        server = XSearchServer(deployment, idle_timeout=None).start()
        closers = [threading.Thread(target=server.close, daemon=True)
                   for _ in range(3)]
        for thread in closers:
            thread.start()
        for thread in closers:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in closers)
        server.close()  # and once more, after the fact
