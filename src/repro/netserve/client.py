"""The remote client: the attested broker over a socket transport.

Three layers, outermost first:

* :class:`RemoteClient` — what an end user holds: the familiar
  ``search`` / ``search_batch`` facade of
  :class:`~repro.core.client.XSearchClient`, built on a real
  :class:`~repro.core.broker.Broker`.  All the protection — remote
  attestation against the expected measurement, the DH handshake, the
  AEAD tunnel — happens *client-side*, exactly as in-process; the
  server relays sealed records it cannot read.
* :class:`RemoteFrontend` — the broker's view of the far end.  It
  exposes ``for_session``, so the broker treats the server like a
  cluster router and re-binds its per-session channel on every heal;
  the session id travels in each frame and the server routes it to
  the pinned replica.
* :class:`RemoteTransport` — one TCP connection speaking
  :mod:`repro.netserve.wire`.  It maps transport trouble onto the
  ``repro.errors`` taxonomy: connection loss, stream corruption and
  server GOODBYEs become :class:`~repro.errors.ConnectionLostError`
  (a transient the broker heals by re-attesting over a fresh
  connection); ``BUSY`` frames are honoured by re-sending the
  *identical* ciphertext after the server's retry-after hint — safe
  because a shed request was never dispatched, so no channel nonce
  advanced — and only after ``busy_retries`` rebuffs surface as
  :class:`~repro.errors.ServerBusyError`.  Typed ``ERROR`` frames are
  rebuilt into their original exception class.

Retry-after waits run on the injectable clock, so tests drive the
busy/reconnect dance on a :class:`~repro.net.clock.VirtualClock`
without sleeping.
"""

from __future__ import annotations

import socket
import threading

from repro.core.broker import DEFAULT_LIMIT, Broker
from repro.core.client import XSearchClient
from repro.core.retry import RetryPolicy
from repro.errors import (
    ConnectionLostError,
    ProtocolError,
    ServerBusyError,
    scrub,
)
from repro.net.clock import SystemClock
from repro.netserve import wire
from repro.obs.tracing import PLACEMENT_CLIENT, event, span

DEFAULT_IO_TIMEOUT = 10.0
DEFAULT_BUSY_RETRIES = 4


class RemoteTransport:
    """One client-side TCP connection with busy-retry and reconnect.

    Thread-safe around a single socket: calls serialise on an internal
    lock (the broker above is a per-user object, not a thread pool).
    A dead connection is re-established lazily on the next call, so
    the broker's heal path — which simply issues fresh attestation
    calls — transparently lands on a new connection.
    """

    def __init__(self, address, *, clock=None,
                 io_timeout: float = DEFAULT_IO_TIMEOUT,
                 busy_retries: int = DEFAULT_BUSY_RETRIES,
                 max_frame_bytes: int = wire.MAX_FRAME_BYTES,
                 client_name: str = "xsearch-remote",
                 recorder=None, registry=None):
        host, port = address
        self._address = (host, int(port))
        self._clock = clock if clock is not None else SystemClock()
        self._io_timeout = io_timeout
        self._busy_retries = busy_retries
        self._max_frame_bytes = max_frame_bytes
        self._client_name = client_name
        self._recorder = recorder
        self._registry = registry
        self._io_lock = threading.Lock()
        # Guarded by _io_lock:
        self._sock = None
        self._server_info = None
        self.reconnects = 0
        self.busy_rebuffs = 0
        self.drain_notices = 0

    @property
    def address(self) -> tuple:
        return self._address

    @property
    def server_info(self):
        """The last WELCOME payload (``None`` before the first connect)."""
        with self._io_lock:
            return self._server_info

    # ------------------------------------------------------------------
    # Connection management (callers hold _io_lock)
    # ------------------------------------------------------------------
    def _connect_locked(self) -> None:
        last_retry_after = 0.0
        for attempt in range(self._busy_retries + 1):
            try:
                sock = socket.create_connection(
                    self._address, timeout=self._io_timeout
                )
            except OSError as exc:
                raise ConnectionLostError(
                    "could not reach the server: " + scrub(exc)
                ) from None
            frame = self._exchange_on(
                sock, wire.T_HELLO, wire.encode_hello(self._client_name)
            )
            if frame.ftype == wire.T_WELCOME:
                self._server_info = wire.decode_welcome(frame.payload)
                self._sock = sock
                if attempt > 0:
                    self.reconnects += 1
                event(self._recorder, "client.connected",
                      port=self._address[1])
                return
            self._close_socket(sock)
            if frame.ftype == wire.T_BUSY:
                last_retry_after = wire.decode_busy(frame.payload)
                self.busy_rebuffs += 1
                self._count("client.busy_rebuffs")
                if attempt < self._busy_retries:
                    self._clock.sleep(last_retry_after)
                continue
            if frame.ftype == wire.T_ERROR:
                raise wire.decode_error(frame.payload)
            raise ConnectionLostError(
                f"server answered HELLO with {frame.name}"
            )
        raise ServerBusyError(
            f"server still at capacity after "
            f"{self._busy_retries + 1} connection attempts",
            retry_after=last_retry_after,
        )

    def _exchange_on(self, sock, ftype: int, payload: bytes) -> wire.Frame:
        """One send/recv round trip on a specific socket."""
        try:
            sock.sendall(wire.encode_frame(
                ftype, payload, max_frame_bytes=self._max_frame_bytes
            ))
            frame = wire.read_frame(
                sock, max_frame_bytes=self._max_frame_bytes
            )
        except ProtocolError as exc:
            self._close_socket(sock)
            raise ConnectionLostError(
                "wire stream corrupted: " + scrub(exc)
            ) from None
        except OSError as exc:
            self._close_socket(sock)
            raise ConnectionLostError(
                "connection failed mid-call: " + scrub(exc)
            ) from None
        if frame is None:
            self._close_socket(sock)
            raise ConnectionLostError("server closed the connection")
        return frame

    def _teardown_locked(self) -> None:
        if self._sock is not None:
            self._close_socket(self._sock)
            self._sock = None

    @staticmethod
    def _close_socket(sock) -> None:
        try:
            sock.close()
        except OSError:
            pass

    # ------------------------------------------------------------------
    # The call surface
    # ------------------------------------------------------------------
    def call(self, ftype: int, payload: bytes, *, expect: int) -> wire.Frame:
        """One request/response exchange, with busy-retry and typed
        error mapping.  Returns the ``expect``-typed frame (or a
        ``REPLY_DEGRADED`` standing in for an expected ``REPLY``)."""
        with self._io_lock:
            last_retry_after = 0.0
            for attempt in range(self._busy_retries + 1):
                if self._sock is None:
                    self._connect_locked()
                with span(self._recorder, "client.call",
                          placement=PLACEMENT_CLIENT,
                          frame=wire.frame_name(ftype),
                          request_bytes=len(payload)):
                    try:
                        frame = self._exchange_on(
                            self._sock, ftype, payload
                        )
                    except ConnectionLostError:
                        self._sock = None
                        raise
                if frame.ftype == wire.T_BUSY:
                    # The server never dispatched the record, so the
                    # channel nonces did not advance: re-sending the
                    # identical bytes after the hint is safe.
                    last_retry_after = wire.decode_busy(frame.payload)
                    self.busy_rebuffs += 1
                    self._count("client.busy_rebuffs")
                    if attempt < self._busy_retries:
                        self._clock.sleep(last_retry_after)
                    continue
                if frame.ftype == wire.T_ERROR:
                    raise wire.decode_error(frame.payload)
                if frame.ftype == wire.T_GOODBYE:
                    reason = wire.decode_goodbye(frame.payload)
                    self._teardown_locked()
                    raise ConnectionLostError(
                        f"server dismissed the connection ({reason})"
                    )
                if (frame.ftype == wire.T_REPLY_DEGRADED
                        and expect == wire.T_REPLY):
                    # Lifecycle signal: the reply is good, the server
                    # is draining.  Drop the connection so the next
                    # call reconnects (to a healthier home).
                    self.drain_notices += 1
                    self._count("client.drain_notices")
                    self._teardown_locked()
                    return frame
                if frame.ftype != expect:
                    self._teardown_locked()
                    raise ConnectionLostError(
                        f"expected {wire.frame_name(expect)}, server "
                        f"sent {frame.name}"
                    )
                return frame
            raise ServerBusyError(
                f"request shed {self._busy_retries + 1} times by "
                f"admission control",
                retry_after=last_retry_after,
            )

    def ping(self, payload: bytes = b"") -> bytes:
        return self.call(wire.T_PING, payload, expect=wire.T_PONG).payload

    def close(self) -> None:
        """Say GOODBYE (best effort) and drop the connection."""
        with self._io_lock:
            if self._sock is not None:
                try:
                    self._sock.sendall(wire.encode_frame(
                        wire.T_GOODBYE, wire.encode_goodbye("client")
                    ))
                except OSError:
                    pass
            self._teardown_locked()

    def _count(self, metric: str) -> None:
        if self._registry is not None:
            self._registry.counter(metric).inc()


class _RemoteChannel:
    """Per-session view of the server, shaped like a cluster's
    ``_SessionChannel`` — which is why the broker can treat the
    :class:`RemoteFrontend` exactly like a router."""

    def __init__(self, transport: RemoteTransport, session_id: str):
        self._transport = transport
        self._session_id = session_id
        self._channel_public = None

    @property
    def session_id(self) -> str:
        return self._session_id

    def attestation_evidence(self):
        frame = self._transport.call(
            wire.T_ATTEST, wire.encode_attest(self._session_id),
            expect=wire.T_ATTEST_OK,
        )
        verdict, public = wire.decode_attest_ok(frame.payload)
        self._channel_public = public
        return verdict

    def channel_public(self) -> bytes:
        if self._channel_public is None:
            self.attestation_evidence()
        return self._channel_public

    def begin_session(self, session_id: str, client_hello: bytes) -> bytes:
        frame = self._transport.call(
            wire.T_SESSION,
            wire.encode_session(session_id, client_hello),
            expect=wire.T_SESSION_OK,
        )
        return frame.payload

    def request(self, session_id: str, record: bytes) -> bytes:
        frame = self._transport.call(
            wire.T_SEARCH, wire.encode_search(session_id, record),
            expect=wire.T_REPLY,
        )
        replies = wire.decode_reply(frame.payload)
        if len(replies) != 1:
            raise ConnectionLostError(
                f"server answered one request with {len(replies)} replies"
            )
        return replies[0]

    def request_batch(self, batch) -> tuple:
        items = list(batch)
        frame = self._transport.call(
            wire.T_SEARCH_BATCH, wire.encode_search_batch(items),
            expect=wire.T_REPLY,
        )
        replies = wire.decode_reply(frame.payload)
        if len(replies) != len(items):
            raise ConnectionLostError(
                f"server answered a {len(items)}-record batch with "
                f"{len(replies)} replies"
            )
        return tuple(replies)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"_RemoteChannel(session={self._session_id!r}, "
                f"server={self._transport.address})")


class RemoteFrontend:
    """What the broker binds to: a router-shaped facade over the wire."""

    def __init__(self, transport: RemoteTransport):
        self.transport = transport

    def for_session(self, session_id: str) -> _RemoteChannel:
        return _RemoteChannel(self.transport, session_id)


class RemoteClient:
    """An attested X-Search client reaching the proxy over TCP.

    The trust anchors — the attestation service's public key and the
    expected enclave measurement — arrive out of band, exactly as the
    paper prescribes: the network can forward frames but can never
    vouch for the enclave.
    """

    def __init__(self, address, *, service_public_key,
                 expected_measurement,
                 user_id: str = "remote-user", session_id: str = None,
                 retry_policy: RetryPolicy = None,
                 clock=None, session_ids=None,
                 io_timeout: float = DEFAULT_IO_TIMEOUT,
                 busy_retries: int = DEFAULT_BUSY_RETRIES,
                 recorder=None, registry=None,
                 connect: bool = True):
        self._transport = RemoteTransport(
            address, clock=clock, io_timeout=io_timeout,
            busy_retries=busy_retries,
            client_name=f"xsearch-remote/{user_id}",
            recorder=recorder, registry=registry,
        )
        self._frontend = RemoteFrontend(self._transport)
        self._broker = Broker(
            self._frontend,
            service_public_key=service_public_key,
            expected_measurement=expected_measurement,
            session_id=session_id,
            retry_policy=retry_policy,
            clock=clock,
            session_ids=session_ids,
            recorder=recorder,
            registry=registry,
        )
        self._client = XSearchClient(self._broker, user_id=user_id)
        if connect:
            self._broker.connect()

    @property
    def broker(self) -> Broker:
        return self._broker

    @property
    def transport(self) -> RemoteTransport:
        return self._transport

    @property
    def user_id(self) -> str:
        return self._client.user_id

    @property
    def queries_sent(self) -> int:
        return self._client.queries_sent

    @property
    def last_degraded(self) -> bool:
        """Whether the enclave served the last response from its
        degraded cache — read from *inside* the sealed reply, not from
        the wire (the wire's ``REPLY_DEGRADED`` is a drain signal)."""
        return self._client.last_degraded

    def search(self, query: str, *, limit: int = DEFAULT_LIMIT,
               timeout: float = None,
               retry_policy: RetryPolicy = None) -> list:
        return self._client.search(query, limit=limit, timeout=timeout,
                                   retry_policy=retry_policy)

    def search_batch(self, queries, *, limit: int = DEFAULT_LIMIT,
                     timeout: float = None,
                     retry_policy: RetryPolicy = None) -> list:
        return self._client.search_batch(queries, limit=limit,
                                         timeout=timeout,
                                         retry_policy=retry_policy)

    def ping(self, payload: bytes = b"") -> bytes:
        return self._transport.ping(payload)

    def close(self) -> None:
        self._transport.close()

    def __enter__(self) -> "RemoteClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RemoteClient(user={self.user_id!r}, "
                f"server={self._transport.address})")
