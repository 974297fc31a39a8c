"""Host-side socket services: the untrusted half of the ocall interface.

The paper's enclave interface (§5.3.3) exposes four ocalls —
``sock_connect``, ``send``, ``recv`` and ``close`` — through which the
trusted code talks to the search engine.  :class:`EngineGateway` implements
those four calls over an in-process HTTP-like transport in front of the
search-engine substrate.  Because this code is *untrusted*, everything it
sees (the obfuscated query, the result page) is by construction visible to
the adversary; tests rely on that boundary.
"""

from __future__ import annotations

import json
import urllib.parse
from dataclasses import dataclass

from repro.crypto.https import TlsServer, decode_frames, encode_frame
from repro.errors import EngineUnavailableError, NetworkError, scrub
from repro.faults.plan import (
    KIND_BUG,
    KIND_DROP,
    KIND_GARBLE,
    KIND_REFUSE,
    KIND_TIMEOUT,
    SITE_ENGINE_CONNECT,
    SITE_ENGINE_RECV,
    SITE_ENGINE_SEND,
)
from repro.obs.tracing import event
from repro.search.documents import SearchResult
from repro.sgx.runtime import OcallTable

ENGINE_HOST = "engine.example.com"
ENGINE_PORT = 80
ENGINE_TLS_PORT = 443
_OR_SEPARATOR = " OR "


@dataclass
class TlsServerConfig:
    """The engine's HTTPS identity: certificate + private key."""

    certificate: object
    key: object


class _Connection:
    """One keep-alive connection from the enclave.

    The response side is a ``bytearray`` plus a read offset: ``recv``
    copies out only the chunk it returns (O(chunk)) instead of rewriting
    the whole remaining tail on every call (O(buffered)), and the buffer
    is recycled once fully drained.
    """

    __slots__ = ("request_buffer", "response_buffer", "response_offset",
                 "closed", "tls")

    def __init__(self, tls: TlsServer = None):
        self.request_buffer = b""
        self.response_buffer = bytearray()
        self.response_offset = 0
        self.closed = False
        self.tls = tls

    def push_response(self, data: bytes) -> None:
        self.response_buffer += data

    def pop_response(self, maxlen: int) -> bytes:
        start = self.response_offset
        end = min(start + maxlen, len(self.response_buffer))
        chunk = bytes(self.response_buffer[start:end])
        self.response_offset = end
        if self.response_offset >= len(self.response_buffer):
            # Fully drained: recycle the buffer instead of deleting the
            # consumed prefix byte by byte.
            del self.response_buffer[:]
            self.response_offset = 0
        return chunk


class EngineGateway:
    """Serves the enclave's four socket ocalls against a search engine.

    ``source`` is the network identity the search engine attributes the
    traffic to — the proxy's public address, *not* any user's.  When the
    wrapped engine is a :class:`~repro.search.tracking.TrackingSearchEngine`
    the requests are logged under that identity, which is exactly what the
    honest-but-curious adversary of §3 observes.
    """

    def __init__(self, engine, *, source: str = "xsearch-proxy.cloud",
                 tls_config: TlsServerConfig = None, fault_plan=None,
                 recorder=None):
        import threading

        self._engine = engine
        self._source = source
        self._tls_config = tls_config
        self._connections = {}
        self._next_fd = 3  # after stdin/stdout/stderr, cosmetically
        # The proxy serves sessions from multiple threads (paper §4.1);
        # the descriptor table is the shared host-side state.
        self._fd_lock = threading.Lock()
        # Fault-injection plane (repro.faults); None = no faults and a
        # single identity check per ocall.
        self.fault_plan = fault_plan
        # Tracing plane (repro.obs); the gateway is host code, so it only
        # ever records *sizes* — the request text it handles is exactly
        # what the §3 adversary sees, but the trace-privacy rule keeps
        # payloads out of host spans regardless.
        self.recorder = recorder

    def reset_connections(self) -> None:
        """Drop every open descriptor (host cleanup after an enclave
        loss: the dead enclave's pooled sockets are closed by the OS)."""
        with self._fd_lock:
            for connection in self._connections.values():
                connection.closed = True
            self._connections.clear()

    def open_connections(self) -> int:
        """How many engine connections are currently open host-side."""
        with self._fd_lock:
            return sum(
                1 for connection in self._connections.values()
                if not connection.closed
            )

    # ------------------------------------------------------------------
    # Ocall registration
    # ------------------------------------------------------------------
    def register(self, table: OcallTable) -> None:
        table.register("sock_connect", self.sock_connect)
        table.register("send", self.send)
        table.register("recv", self.recv)
        table.register("close", self.close)

    def ocall_table(self) -> OcallTable:
        table = OcallTable()
        self.register(table)
        return table

    # ------------------------------------------------------------------
    # The four ocalls
    # ------------------------------------------------------------------
    def sock_connect(self, host: str, port: int) -> int:
        """DNS lookup + TCP connect; returns a socket file descriptor."""
        fault = self._fault(SITE_ENGINE_CONNECT)
        if fault is not None:
            raise EngineUnavailableError(
                f"injected {fault.kind}: cannot connect to {host}:{port}"
            )
        if host != ENGINE_HOST or port not in (ENGINE_PORT, ENGINE_TLS_PORT):
            raise NetworkError(f"connection refused: {host}:{port}")
        tls = None
        if port == ENGINE_TLS_PORT:
            if self._tls_config is None:
                raise NetworkError("engine does not serve HTTPS")
            tls = TlsServer(self._tls_config.certificate,
                            self._tls_config.key)
        with self._fd_lock:
            fd = self._next_fd
            self._next_fd += 1
            self._connections[fd] = _Connection(tls=tls)
        return fd

    def send(self, fd: int, data: bytes) -> int:
        connection = self._connection(fd)
        fault = self._fault(SITE_ENGINE_SEND)
        if fault is not None:
            if fault.kind == KIND_DROP:
                # The peer reset the connection: the descriptor is dead.
                self._teardown(fd, connection)
                raise EngineUnavailableError(
                    "injected drop: engine reset the connection mid-send"
                )
            if fault.kind == KIND_BUG:
                # A bug, not an outage: untyped, and its message quotes
                # the query the way a careless engine's would.  Only
                # the exception's type may leave the enclave.
                request_line = bytes(data).split(b"\r\n", 1)[0]
                raise RuntimeError(
                    "injected bug while serving "
                    + urllib.parse.unquote_plus(request_line.decode("latin-1"))
                )
            raise EngineUnavailableError(
                f"injected {fault.kind}: send to the engine failed"
            )
        connection.request_buffer += bytes(data)
        if connection.tls is not None:
            self._pump_tls(connection)
        else:
            # HTTP/1.1 keep-alive: the connection persists across requests
            # and pipelined requests are all answered in arrival order.
            while b"\r\n\r\n" in connection.request_buffer:
                request, _, rest = connection.request_buffer.partition(
                    b"\r\n\r\n"
                )
                connection.request_buffer = rest
                connection.push_response(self._handle_request(request))
        return len(data)

    def _pump_tls(self, connection: _Connection) -> None:
        """Process complete TLS frames: handshake first, then records."""
        frames, connection.request_buffer = decode_frames(
            connection.request_buffer
        )
        for frame in frames:
            if not connection.tls.is_established:
                server_hello = connection.tls.process_client_hello(frame)
                connection.push_response(encode_frame(server_hello))
                continue
            http_request = connection.tls.decrypt(frame)
            request, _, _ = http_request.partition(b"\r\n\r\n")
            response = self._handle_request(request)
            connection.push_response(
                encode_frame(connection.tls.encrypt(response))
            )

    def recv(self, fd: int, maxlen: int) -> bytes:
        connection = self._connection(fd)
        fault = self._fault(SITE_ENGINE_RECV)
        if fault is not None:
            if fault.kind == KIND_GARBLE:
                # Deliver a corrupted chunk: framing/TLS/JSON parsing in
                # the enclave must reject it, never trust it.
                chunk = connection.pop_response(maxlen)
                if not chunk:
                    chunk = b"\xff\x00GARBLED\x00\xff"
                return bytes(b ^ 0xA5 for b in chunk)
            if fault.kind == KIND_DROP:
                self._teardown(fd, connection)
                raise EngineUnavailableError(
                    "injected drop: engine closed the connection mid-recv"
                )
            raise EngineUnavailableError(
                f"injected {fault.kind}: recv from the engine failed"
            )
        return connection.pop_response(maxlen)

    def close(self, fd: int) -> None:
        with self._fd_lock:
            connection = self._connections.pop(fd, None)
        if connection is None:
            raise NetworkError(f"close on unknown socket {fd}")
        connection.closed = True

    # ------------------------------------------------------------------
    # HTTP front end of the search engine
    # ------------------------------------------------------------------
    def _handle_request(self, request: bytes) -> bytes:
        try:
            request_line = request.split(b"\r\n", 1)[0].decode("ascii")
            method, path, _version = request_line.split(" ", 2)
        except (UnicodeDecodeError, ValueError) as exc:
            return _http_error(400, "malformed request: " + scrub(exc))
        if method != "GET":
            return _http_error(405, "only GET is supported")
        parsed = urllib.parse.urlparse(path)
        if parsed.path != "/search":
            # Deliberately not echoing the requested path: on a mistyped
            # path it still carries the full query string, and error
            # bodies are logged/serialized host-side (xtaint XT001).
            return _http_error(404, "no such path")
        params = urllib.parse.parse_qs(parsed.query)
        query = params.get("q", [""])[0]
        if not query:
            return _http_error(400, "missing query parameter q")
        try:
            limit = int(params.get("limit", ["20"])[0])
        except ValueError:
            return _http_error(400, "invalid limit")

        subqueries = [s for s in query.split(_OR_SEPARATOR) if s.strip()]
        event(self.recorder, "engine.request",
              request_bytes=len(request), subquery_count=len(subqueries))
        results = self._execute(subqueries, limit)
        body = json.dumps(
            [
                {
                    "rank": r.rank,
                    "url": r.url,
                    "title": r.title,
                    "snippet": r.snippet,
                    "score": r.score,
                }
                for r in results
            ]
        ).encode("utf-8")
        return _http_response(200, body)

    def _execute(self, subqueries, limit):
        # A tracking engine logs the request under the proxy's identity —
        # the engine cannot see past the proxy.  A substrate that fails
        # at the OS level (a real socket backend would) surfaces as the
        # typed transient error, never as a raw OSError leaking through
        # the ocall interface into enclave code.
        try:
            if hasattr(self._engine, "search_or_from"):
                return self._engine.search_or_from(
                    self._source, subqueries, limit
                )
            return self._engine.search_or(subqueries, limit)
        except (ConnectionError, OSError) as exc:
            raise EngineUnavailableError(
                "search engine unreachable: " + scrub(exc)
            ) from exc

    def _fault(self, site: str):
        """Consult the fault plan at one ocall site (None = no fault)."""
        if self.fault_plan is None:
            return None
        return self.fault_plan.decide(site)

    def _teardown(self, fd: int, connection: _Connection) -> None:
        """Forcibly close a descriptor from the engine side."""
        connection.closed = True
        with self._fd_lock:
            self._connections.pop(fd, None)

    def _connection(self, fd: int) -> _Connection:
        # The lookup must hold the descriptor-table lock: a concurrent
        # close() mutates the dict, and an unsynchronised read could see a
        # connection another thread is tearing down.
        with self._fd_lock:
            connection = self._connections.get(fd)
        if connection is None or connection.closed:
            raise NetworkError(f"operation on unknown socket {fd}")
        return connection


def parse_results_body(body: bytes) -> list:
    """Decode the engine's JSON result page (used inside the enclave).

    The engine is untrusted: any structural surprise — not just broken
    JSON — must fail closed as a :class:`~repro.errors.NetworkError`.
    """
    try:
        entries = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise NetworkError("engine returned a malformed result page") from exc
    if not isinstance(entries, list):
        raise NetworkError("engine result page is not a list")
    results = []
    for entry in entries:
        try:
            results.append(
                SearchResult(
                    rank=int(entry["rank"]),
                    url=str(entry["url"]),
                    title=str(entry["title"]),
                    snippet=str(entry["snippet"]),
                    score=float(entry["score"]),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise NetworkError(
                f"engine result entry is malformed: {entry!r}"
            ) from exc
    return results


def _http_response(status: int, body: bytes) -> bytes:
    reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
              405: "Method Not Allowed", 500: "Internal Server Error"}
    header = (
        f"HTTP/1.1 {status} {reason.get(status, 'Unknown')}\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Content-Type: application/json\r\n"
        "\r\n"
    ).encode("ascii")
    return header + body


def _http_error(status: int, message: str) -> bytes:
    return _http_response(status, json.dumps({"error": message}).encode())


def split_http_response(raw, *, partial_ok: bool = False):
    """Parse the first HTTP response in ``raw``.

    Returns ``(status, body, consumed)`` where ``consumed`` is the number
    of bytes the response occupied — on a keep-alive connection the caller
    keeps ``raw[consumed:]`` (the start of the next pipelined response)
    buffered for later.

    Framing relies on ``Content-Length`` (our engine always sends it).
    On a keep-alive stream a response without it has no end, so it is
    rejected as garbage rather than taking the rest of the buffer.

    With ``partial_ok=True`` an incomplete response returns
    ``(None, b"", 0)`` instead of raising, so a reader pumping a socket
    can distinguish "need more bytes" from "the peer sent garbage".
    """
    raw = bytes(raw)
    head, sep, rest = raw.partition(b"\r\n\r\n")
    if not sep:
        if partial_ok:
            return None, b"", 0
        raise NetworkError("truncated HTTP response")
    status_line = head.split(b"\r\n", 1)[0].decode("ascii", "replace")
    try:
        status = int(status_line.split(" ")[1])
    except (IndexError, ValueError) as exc:
        raise NetworkError(f"bad status line {status_line!r}") from exc
    content_length = None
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            try:
                content_length = int(value.strip())
            except ValueError as exc:
                raise NetworkError("bad Content-Length header") from exc
            if content_length < 0:
                # A negative length is garbage, not incompleteness: under
                # ``partial_ok`` it would silently mis-frame the stream
                # (``rest[:-1]`` truncates the body and the negative
                # ``consumed`` under-advances the keep-alive buffer).
                raise NetworkError("negative Content-Length header")
    if content_length is None:
        raise NetworkError("HTTP response without Content-Length")
    if len(rest) < content_length:
        if partial_ok:
            return None, b"", 0
        raise NetworkError("truncated HTTP body")
    consumed = len(head) + len(sep) + content_length
    return status, rest[:content_length], consumed
