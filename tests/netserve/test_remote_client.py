"""RemoteClient end-to-end: same answers, same errors, over the wire."""

from __future__ import annotations

import socket
import threading

import pytest

from _helpers import make_client, make_deployment
from repro.errors import (
    AuthenticationError,
    ConnectionLostError,
    ProtocolError,
    ReproError,
)
from repro.netserve import wire
from repro.netserve.client import RemoteTransport
from repro.netserve.server import XSearchServer


def test_search_end_to_end(remote):
    results = remote.search("cheap hotel rome", limit=5)
    assert results
    assert remote.queries_sent == 1
    assert remote.last_degraded is False


def test_remote_matches_in_process_results(served):
    deployment, server = served
    local = deployment.client(user_id="local-twin")
    over_wire = make_client(deployment, server, user_id="remote-twin")
    try:
        query = "nba standings tonight"
        assert over_wire.search(query, limit=5) == local.search(
            query, limit=5
        )
    finally:
        over_wire.close()


def test_search_batch_end_to_end(remote):
    queries = ["cheap hotel rome", "nfl playoffs", "diabetes symptoms"]
    batches = remote.search_batch(queries, limit=3)
    assert len(batches) == len(queries)
    assert all(isinstance(results, list) for results in batches)


def test_empty_query_rejected_client_side(remote):
    with pytest.raises(ProtocolError):
        remote.search("   ")


def test_ping_round_trips(remote):
    assert remote.ping(b"are you there") == b"are you there"


def test_server_side_error_is_rebuilt_typed(served, remote):
    """A garbage record reaches the enclave, fails authentication, and
    the typed error crosses the wire intact — connection kept."""
    remote.search("cheap hotel rome")  # establish the session
    frontend = remote.broker._proxy
    with pytest.raises(ReproError) as info:
        frontend.request(remote.broker._session_id, b"not an AEAD record")
    assert isinstance(info.value, (AuthenticationError, ProtocolError))
    # The client-held channel desynchronised nothing (the record never
    # decrypted), and the TCP connection survived the typed error.
    assert remote.ping(b"alive") == b"alive"


def test_evicted_remote_session_heals_over_the_wire():
    """The enclave's typed session loss crosses the wire intact, so a
    remote broker heals an evicted session like a local one."""
    with make_deployment(proxy_options={"max_sessions": 2}) as deployment:
        with XSearchServer(deployment, idle_timeout=None) as server:
            evicted = make_client(deployment, server, user_id="evicted")
            try:
                assert evicted.search("cheap hotel rome", limit=3)
                deployment.client(user_id="newer-1")
                deployment.client(user_id="newer-2")
                assert evicted.search("cheap hotel rome", limit=3)
                assert evicted.broker.reconnects == 1
            finally:
                evicted.close()


def test_transport_counts_are_observable(remote):
    remote.search("cheap hotel rome")
    assert remote.transport.server_info["protocol"] == wire.WIRE_VERSION
    assert remote.transport.busy_rebuffs == 0
    assert remote.transport.drain_notices == 0
    assert remote.broker.reconnects == 0


def test_context_manager_closes(served):
    deployment, server = served
    with make_client(deployment, server, user_id="ctx") as client:
        assert client.search("cheap hotel rome", limit=2)
    # Closed: the next call transparently reconnects rather than failing.
    assert client.search("nfl playoffs", limit=2)
    client.close()


# ----------------------------------------------------------------------
# BUSY is a connect-time frame: in reply to a request it is a protocol
# violation, and the request is never re-sent
# ----------------------------------------------------------------------
class BusyOnFirstSearch:
    """A raw-socket server: it welcomes every connection, answers the
    first SEARCH it ever sees with BUSY and every later one with a
    one-record REPLY, and records each connection's frame types."""

    def __init__(self):
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.address = self._listener.getsockname()[:2]
        self.connections = []
        self._busy_sent = False
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while True:
            try:
                sock, _peer = self._listener.accept()
            except OSError:
                return
            frames = []
            self.connections.append(frames)
            with sock:
                self._converse(sock, frames)

    def _converse(self, sock, frames):
        while True:
            frame = wire.read_frame(sock)
            if frame is None:
                return
            frames.append(frame.name)
            if frame.ftype == wire.T_HELLO:
                sock.sendall(wire.encode_frame(
                    wire.T_WELCOME,
                    wire.encode_welcome(server_name="busy-on-search")))
            elif frame.ftype == wire.T_SEARCH and not self._busy_sent:
                self._busy_sent = True
                sock.sendall(wire.encode_frame(
                    wire.T_BUSY, wire.encode_busy(0.25)))
            elif frame.ftype == wire.T_SEARCH:
                sock.sendall(wire.encode_frame(
                    wire.T_REPLY, wire.encode_reply([b"sealed"])))

    def close(self):
        self._listener.close()
        self._thread.join(timeout=10)


def test_busy_reply_to_a_search_drops_the_connection_without_resending():
    server = BusyOnFirstSearch()
    transport = RemoteTransport(server.address)
    search = wire.encode_search("session-1", b"record")
    try:
        with pytest.raises(ConnectionLostError):
            transport.call(wire.T_SEARCH, search, expect=wire.T_REPLY)
        # One SEARCH on the wire and no rebuff count.
        assert transport.busy_rebuffs == 0
        # The next call heals onto a fresh connection.
        frame = transport.call(wire.T_SEARCH, search, expect=wire.T_REPLY)
        assert wire.decode_reply(frame.payload) == [b"sealed"]
    finally:
        transport.close()
        server.close()
    assert server.connections == [["HELLO", "SEARCH"],
                                  ["HELLO", "SEARCH", "GOODBYE"]]
