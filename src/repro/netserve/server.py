"""The TCP front-end: ``XSearchServer`` serves a deployment over sockets.

The untrusted cloud node of the paper, finally reachable the way the
paper deploys it: clients connect over TCP, speak the
:mod:`repro.netserve.wire` protocol, and every sealed record is handed
to the wrapped :class:`~repro.core.deployment.XSearchDeployment`'s
frontend, its :class:`~repro.core.cluster.XSearchCluster`, which routes
the record's session to the scheduler of the replica it is pinned to.
The server is *host-placed* code: it touches session ids, ciphertext
records and frame sizes, never plaintext (its spans record exactly
that, and the trace oracle proves it).

Threading model: one accept thread plus one reader thread per
connection, mirroring the thread-per-TCS shape of a real SGX host
process.  A connection's reader thread makes its requests' crossings
itself, so a connection has at most one request in flight and the
server admits work in one place: a connection cap at accept time,
which turns an over-capacity connection away with a ``BUSY`` frame
carrying a retry-after hint, then a ``GOODBYE``, before any
``WELCOME``.  The scheduler behind the frontend bounds the crossings
in flight (``max_workers``).  ``close()`` drains: the
listener stops, in-flight requests finish (their replies flagged
``REPLY_DEGRADED`` so clients know to reconnect elsewhere), and every
connection is dismissed with a ``GOODBYE``.

Socket-level fault injection consults the shared
:class:`~repro.faults.plan.FaultPlan` at three sites —
``server.accept`` (refuse), ``server.frame.recv`` (drop/timeout) and
``server.frame.send`` (drop/garble/slowloris) — so the client-side
retry and heal machinery is exercised over real connections.
"""

from __future__ import annotations

import socket
import threading

from repro.errors import ProtocolError, ReproError
from repro.faults.plan import (
    KIND_DROP,
    KIND_GARBLE,
    KIND_REFUSE,
    KIND_SLOWLORIS,
    KIND_TIMEOUT,
    SITE_SERVER_ACCEPT,
    SITE_SERVER_RECV,
    SITE_SERVER_SEND,
    decide,
)
from repro.net.clock import SystemClock
from repro.netserve import wire
from repro.obs.tracing import PLACEMENT_HOST, event, span

DEFAULT_HOST = "127.0.0.1"
DEFAULT_BACKLOG = 32
DEFAULT_MAX_CONNECTIONS = 64
DEFAULT_IDLE_TIMEOUT = 30.0
DEFAULT_RETRY_AFTER = 0.05
#: Seconds the accept loop waits per poll for a stop signal.
_ACCEPT_POLL = 0.05
#: Per-byte trickle delay of an injected slowloris send.
_SLOWLORIS_DELAY = 0.001

_STATE_NEW = "new"
_STATE_RUNNING = "running"
_STATE_DRAINING = "draining"
_STATE_CLOSED = "closed"

#: Dispatchable request frames (everything else is connection control).
_DISPATCH_FRAMES = frozenset({wire.T_SEARCH, wire.T_SEARCH_BATCH})


class _Connection:
    """One accepted client connection and its reader thread."""

    def __init__(self, server: "XSearchServer", sock: socket.socket,
                 conn_id: int):
        self._server = server
        self._sock = sock
        self.conn_id = conn_id
        self._draining = threading.Event()
        self.thread = threading.Thread(
            target=self._serve,
            name=f"xsearch-server-conn-{conn_id}",
            daemon=True,
        )

    def start(self) -> None:
        self.thread.start()

    def drain(self) -> None:
        """Ask the reader to finish up: wakes an idle ``recv`` via
        ``SHUT_RD`` without disturbing a reply in flight."""
        self._draining.set()
        try:
            self._sock.shutdown(socket.SHUT_RD)
        except OSError:
            pass  # already gone

    def join(self) -> None:
        if self.thread.is_alive():
            self.thread.join()

    # ------------------------------------------------------------------
    def _serve(self) -> None:
        server = self._server
        goodbye_reason = None
        try:
            self._sock.settimeout(server.idle_timeout)
            while True:
                try:
                    frame = wire.read_frame(
                        self._sock,
                        max_frame_bytes=server.max_frame_bytes,
                    )
                except (TimeoutError, socket.timeout):
                    goodbye_reason = "idle"
                    break
                except ProtocolError as exc:
                    server._count("server.protocol_errors")
                    self._send_frame(wire.T_ERROR, wire.encode_error(exc))
                    goodbye_reason = "protocol"
                    break
                except OSError:
                    break
                if frame is None:
                    if self._draining.is_set():
                        goodbye_reason = "drain"
                    break
                fault = decide(server.fault_plan, SITE_SERVER_RECV)
                if fault is not None and fault.kind in (KIND_DROP,
                                                        KIND_TIMEOUT):
                    server._count("server.faults")
                    break
                done = self._handle(frame)
                if done:
                    break
                if self._draining.is_set():
                    goodbye_reason = "drain"
                    break
        except Exception:  # xlint: disable=taxonomy
            # A reader thread must never take the server down; the
            # connection is sacrificed, the server keeps serving.
            server._count("server.errors")
        finally:
            if goodbye_reason is not None:
                self._send_frame(
                    wire.T_GOODBYE, wire.encode_goodbye(goodbye_reason),
                    faultable=False,
                )
                event(server.recorder, "server.goodbye",
                      reason=goodbye_reason)
            try:
                self._sock.close()
            except OSError:
                pass
            server._forget(self)

    def _handle(self, frame: wire.Frame) -> bool:
        """Dispatch one frame; returns True when the connection is done."""
        server = self._server
        server._count("server.frames")
        if server.registry is not None:
            server.registry.histogram("server.frame_bytes").record(
                len(frame.payload)
            )
        try:
            response = self._respond(frame)
        except ReproError as exc:
            response = (wire.T_ERROR, wire.encode_error(exc))
        except Exception as exc:  # noqa: BLE001  # xlint: disable=taxonomy
            server._count("server.errors")
            response = (wire.T_ERROR, wire.encode_error(exc))
        if response is None:
            return True  # client said goodbye
        ftype, payload = response
        sent = self._send_frame(ftype, payload)
        return not sent

    def _respond(self, frame: wire.Frame):
        """Compute the response frame for one request frame."""
        server = self._server
        ftype = frame.ftype
        if ftype == wire.T_HELLO:
            wire.decode_hello(frame.payload)
            return wire.T_WELCOME, wire.encode_welcome(
                server_name=server.name,
                max_frame_bytes=server.max_frame_bytes,
            )
        if ftype == wire.T_PING:
            return wire.T_PONG, frame.payload
        if ftype == wire.T_GOODBYE:
            wire.decode_goodbye(frame.payload)
            return None
        if ftype == wire.T_ATTEST:
            session_id = wire.decode_attest(frame.payload)
            verdict, public = server._frontend.attestation_evidence(
                session_id)
            return wire.T_ATTEST_OK, wire.encode_attest_ok(verdict, public)
        if ftype == wire.T_SESSION:
            session_id, hello = wire.decode_session(frame.payload)
            confirmation = server._frontend.begin_session(session_id, hello)
            return (wire.T_SESSION_OK,
                    wire.encode_confirmation(confirmation))
        if ftype in _DISPATCH_FRAMES:
            return self._dispatch(frame)
        # Frames only a server sends (WELCOME, REPLY, ...) are
        # out-of-order from a client.
        raise ProtocolError(
            f"unexpected {frame.name} frame from a client"
        )

    def _dispatch(self, frame: wire.Frame):
        server = self._server
        with span(server.recorder, "server.dispatch",
                  placement=PLACEMENT_HOST,
                  frame=frame.name,
                  request_bytes=len(frame.payload)):
            if frame.ftype == wire.T_SEARCH:
                session_id, record = wire.decode_search(frame.payload)
                replies = [server._frontend.request(session_id, record)]
            else:
                batch = wire.decode_search_batch(frame.payload)
                replies = list(server._frontend.request_batch(batch))
        reply_type = (wire.T_REPLY_DEGRADED if self._reply_degraded()
                      else wire.T_REPLY)
        return reply_type, wire.encode_reply(replies)

    def _reply_degraded(self) -> bool:
        """Whether replies should carry the draining lifecycle flag."""
        return self._draining.is_set() or self._server._is_draining()

    def _send_frame(self, ftype: int, payload: bytes, *,
                    faultable: bool = True) -> bool:
        """Encode and send; returns False when the connection is dead."""
        server = self._server
        try:
            data = wire.encode_frame(
                ftype, payload, max_frame_bytes=server.max_frame_bytes
            )
        except ProtocolError:
            server._count("server.errors")
            return False
        if faultable:
            fault = decide(server.fault_plan, SITE_SERVER_SEND)
            if fault is not None:
                server._count("server.faults")
                if fault.kind == KIND_DROP:
                    return False
                if fault.kind == KIND_GARBLE:
                    # Corrupt the frame header: the peer loses framing
                    # for the whole stream (payload corruption is the
                    # AEAD layer's problem; this models wire damage).
                    corrupted = bytearray(data)
                    corrupted[2] ^= 0xFF
                    data = bytes(corrupted)
                elif fault.kind == KIND_SLOWLORIS:
                    return self._send_slowly(data)
        try:
            self._sock.sendall(data)
            return True
        except OSError:
            return False

    def _send_slowly(self, data: bytes) -> bool:
        clock = self._server.clock
        for index in range(0, len(data), 1):
            try:
                self._sock.sendall(data[index:index + 1])
            except OSError:
                return False
            clock.sleep(_SLOWLORIS_DELAY)
        return True


class XSearchServer:
    """Threaded TCP server exposing a deployment over the wire protocol.

    ``deployment`` is any object whose ``frontend`` answers the
    broker's four session-naming calls (and optionally carrying
    ``recorder`` / ``registry`` hooks) — in practice an
    :class:`~repro.core.deployment.XSearchDeployment`, whose frontend
    is its cluster for every replica count.  Each frame makes one
    frontend call.  The server does
    not own the deployment: ``close()`` drains the network layer only.

    Bind to ``port=0`` (the default) for an ephemeral port and read the
    actual one back from :attr:`address` — how every test and benchmark
    avoids port-conflict flakes.
    """

    def __init__(self, deployment, *, host: str = DEFAULT_HOST,
                 port: int = 0,
                 max_connections: int = DEFAULT_MAX_CONNECTIONS,
                 idle_timeout: float = DEFAULT_IDLE_TIMEOUT,
                 retry_after: float = DEFAULT_RETRY_AFTER,
                 max_frame_bytes: int = wire.MAX_FRAME_BYTES,
                 backlog: int = DEFAULT_BACKLOG,
                 fault_plan=None, clock=None,
                 recorder=None, registry=None,
                 name: str = "xsearch-netserve"):
        if max_connections < 1:
            raise ValueError("max_connections must be >= 1")
        if idle_timeout is not None and idle_timeout <= 0:
            raise ValueError("idle_timeout must be positive (or None)")
        self._frontend = deployment.frontend
        self._host = host
        self._port = port
        self.max_connections = max_connections
        self.idle_timeout = idle_timeout
        self.retry_after = retry_after
        self.max_frame_bytes = max_frame_bytes
        self._backlog = backlog
        self.fault_plan = fault_plan
        self.clock = clock if clock is not None else SystemClock()
        self.recorder = (recorder if recorder is not None
                         else getattr(deployment, "recorder", None))
        self.registry = (registry if registry is not None
                         else getattr(deployment, "registry", None))
        self.name = name
        self._listener = None
        self._accept_thread = None
        self._address = None
        self._conn_ids = 0
        self._state_lock = threading.Lock()
        # Guarded by _state_lock:
        self._state = _STATE_NEW
        self._connections = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "XSearchServer":
        """Bind, listen and start accepting; returns ``self``."""
        with self._state_lock:
            if self._state != _STATE_NEW:
                raise ProtocolError(
                    f"server cannot start from state {self._state!r}"
                )
            self._state = _STATE_RUNNING
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self._host, self._port))
            listener.listen(self._backlog)
            listener.settimeout(_ACCEPT_POLL)
        except OSError:
            listener.close()
            with self._state_lock:
                self._state = _STATE_CLOSED
            raise
        self._listener = listener
        self._address = listener.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="xsearch-server-accept",
            daemon=True,
        )
        self._accept_thread.start()
        event(self.recorder, "server.start", port=self._address[1])
        return self

    @property
    def address(self) -> tuple:
        """``(host, port)`` actually bound — the ephemeral port answer."""
        if self._address is None:
            raise ProtocolError("server is not started")
        return self._address

    def close(self) -> None:
        """Graceful drain: stop accepting, finish in-flight requests,
        dismiss every connection with a GOODBYE.  Idempotent and safe
        to call from several threads at once — every caller joins the
        worker threads before returning."""
        with self._state_lock:
            if self._state == _STATE_NEW:
                self._state = _STATE_CLOSED
                return
            if self._state == _STATE_RUNNING:
                self._state = _STATE_DRAINING
                event(self.recorder, "server.drain")
            connections = tuple(self._connections)
        if self._accept_thread is not None:
            if self._accept_thread is not threading.current_thread():
                self._accept_thread.join()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        for connection in connections:
            connection.drain()
        for connection in connections:
            connection.join()
        with self._state_lock:
            self._state = _STATE_CLOSED

    def __enter__(self) -> "XSearchServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Accepting
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while True:
            with self._state_lock:
                if self._state != _STATE_RUNNING:
                    return
            try:
                sock, _peer = self._listener.accept()
            except (TimeoutError, socket.timeout):
                continue
            except OSError:
                return
            fault = decide(self.fault_plan, SITE_SERVER_ACCEPT)
            if fault is not None and fault.kind == KIND_REFUSE:
                self._count("server.faults")
                self._hang_up(sock)
                continue
            connection = None
            shed_reason = None
            with self._state_lock:
                if self._state != _STATE_RUNNING:
                    shed_reason = "draining"
                elif len(self._connections) >= self.max_connections:
                    shed_reason = "connections"
                else:
                    self._conn_ids += 1
                    connection = _Connection(self, sock, self._conn_ids)
                    self._connections.add(connection)
            if connection is None:
                self._shed(shed_reason)
                self._refuse_busy(sock)
                continue
            self._count("server.accepts")
            self._set_active_gauge()
            event(self.recorder, "server.accept",
                  connection=connection.conn_id)
            connection.start()

    def _refuse_busy(self, sock: socket.socket) -> None:
        """Turn an over-capacity connection away with BUSY + GOODBYE."""
        try:
            sock.sendall(
                wire.encode_frame(wire.T_BUSY,
                                  wire.encode_busy(self.retry_after))
                + wire.encode_frame(wire.T_GOODBYE,
                                    wire.encode_goodbye("busy"))
            )
        except OSError:
            pass
        self._hang_up(sock)

    @staticmethod
    def _hang_up(sock: socket.socket) -> None:
        try:
            sock.close()
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Dispatch plumbing (called from connection threads)
    # ------------------------------------------------------------------
    def _is_draining(self) -> bool:
        with self._state_lock:
            return self._state != _STATE_RUNNING

    def _forget(self, connection: _Connection) -> None:
        with self._state_lock:
            self._connections.discard(connection)
        self._set_active_gauge()

    def _shed(self, reason: str) -> None:
        self._count("server.sheds")
        event(self.recorder, "server.shed", reason=reason)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def _count(self, metric: str, value: int = 1) -> None:
        if self.registry is not None:
            self.registry.counter(metric).inc(value)

    def _set_active_gauge(self) -> None:
        if self.registry is not None:
            with self._state_lock:
                active = len(self._connections)
            self.registry.gauge("server.active_connections").set(active)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        with self._state_lock:
            state = self._state
            active = len(self._connections)
        where = self._address if self._address else (self._host, self._port)
        return (f"XSearchServer({where[0]}:{where[1]}, state={state}, "
                f"connections={active})")
