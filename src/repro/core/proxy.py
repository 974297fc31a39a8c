"""The X-Search proxy: trusted enclave code and its untrusted host.

:class:`XSearchEnclaveCode` is the code whose measurement clients attest.
It exposes the ecall interface of the paper (§5.3.3): ``init`` for setup
and one data-path ecall, ``request_many``, for provisioning encrypted
records into the enclave.  The paper's ``request`` is a batch of one:
every record crosses through ``request_many``, which carries N
``(session_id, record)`` pairs through one enclave transition and
answers each with ``("ok", reply)`` or ``("err", error)``.  The session
is the unit of failure: a failed record fails every record of its
session in that call and seals none of their replies, and never affects
another session.  The enclave reaches the search engine exclusively
through the ``sock_connect`` / ``send`` / ``recv`` / ``close`` ocalls.

Per request (Figure 2): decrypt the query inside the enclave → obfuscate
with k random past queries (Algorithm 1) → store the query in the history
→ send one ``q1 OR … OR q_{k+1}`` query to the engine → filter the results
(Algorithm 2) → strip analytics redirections → encrypt and return.

Because mode transitions dominate the in-enclave compute, the enclave
has one way to reach the engine: a pool of keep-alive sockets (and, under
HTTPS, established TLS channels) reused across requests with
reconnect-on-failure, so steady state pays ``send`` + ``recv`` per search
instead of the paper's connect/send/recv/recv/close sequence.  Engine
pages are not cached: the OR-query carries freshly drawn fakes, so at
k ≥ 1 it never repeats.

:class:`XSearchProxyHost` is the untrusted service wrapper running on the
public cloud node: it loads the enclave, obtains attestation quotes from
the platform's quoting enclave and shuttles opaque ciphertext between
clients and the enclave.  Nothing in the host ever holds a plaintext
query.

Fault tolerance (the availability layer):

* the engine leg runs under a :class:`~repro.core.retry.RetryPolicy`,
  and each exchange is exactly one of its attempts — a transport-level
  failure (drop, timeout, garbled frame, stale pooled socket) disposes
  its connection and is retried on another one before anything is
  surfaced;
* when every retry is spent, a *degraded mode* serves the last filtered
  results for the same user query from an in-enclave cache instead of
  failing (responses are flagged ``degraded``);
* the host periodically checkpoints the history as a sealed blob
  (``checkpoint_history``) and, when the enclave is lost mid-flight
  (:class:`~repro.errors.EnclaveLostError`), automatically respawns one
  with the same measurement and replays the last checkpoint into its
  empty history (``absorb_sealed_history``) — clients re-attest and
  re-handshake, then carry on;
* the enclave is the one place that answers "no such session": a record
  whose session was evicted from the bounded session table, died with a
  previous enclave or was re-pinned off a failed replica fails with
  :class:`~repro.errors.SessionLostError`, which the broker heals the
  same way.  The host keeps no session bookkeeping of its own.

All of it is exercised by the seeded fault-injection plane in
:mod:`repro.faults`; with no plan installed none of the machinery adds a
single boundary crossing.
"""

from __future__ import annotations

import random
import secrets
import threading
import urllib.parse
from collections import deque

from repro.core.filtering import filter_results
from repro.core.gateway import (
    ENGINE_HOST,
    ENGINE_PORT,
    ENGINE_TLS_PORT,
    EngineGateway,
    TlsServerConfig,
    parse_results_body,
    split_http_response,
)
from repro.crypto.https import TlsClient, decode_frames, encode_frame
from repro.core.history import QueryHistory
from repro.core.obfuscation import obfuscate_query
from repro.core.persistence import open_snapshot, seal_snapshot
from repro.core.protocol import (
    Ack,
    IngestRequest,
    SearchRequest,
    SearchResponse,
    decode_any_request,
)
from repro.core.result_cache import ResultCache
from repro.core.retry import DEFAULT_ENGINE_RETRY, RetryPolicy, call_with_retry
from repro.crypto.channel import HandshakeResponder
from repro.errors import (
    CryptoError,
    EnclaveError,
    EnclaveLostError,
    EngineUnavailableError,
    NetworkError,
    ProtocolError,
    ReproError,
    RetryExhaustedError,
    SessionLostError,
    TransientError,
    scrub,
)
from repro.faults.plan import KIND_TRANSIENT, SITE_ATTESTATION
from repro.obs.tracing import PLACEMENT_ENCLAVE, event, span
from repro.sim import hooks
from repro.sgx.attestation import (
    AttestationService,
    QuotingEnclave,
    report_data_for_key,
)
from repro.sgx.epc import EnclavePageCache
from repro.sgx.runtime import Enclave, ecall

DEFAULT_K = 3
DEFAULT_HISTORY_CAPACITY = 100_000
DEFAULT_MAX_SESSIONS = 10_000
# Keep-alive connections the enclave holds on to; matches the TCS count
# so every crossing in flight can have a warm socket.
DEFAULT_POOL_CAPACITY = 8
_RECV_CHUNK = 1 << 16
# Metered EPC footprint per session: two 32-byte channel keys, counters
# and table slots.
_SESSION_BYTES = 200
# Degraded-mode cache: last filtered results per original user query,
# served when the engine stays unreachable after every retry.
DEFAULT_DEGRADED_CACHE_BYTES = 2 * 1024 * 1024
# Host-side checkpoint cadence: seal the history every N served records
# (only when a sealing platform is attached).
DEFAULT_CHECKPOINT_INTERVAL = 64


def _record_error(exc: Exception) -> ReproError:
    """A record's failure as a typed error.  An untyped exception's
    message may quote plaintext, so only its type name leaves."""
    if isinstance(exc, ReproError):
        return exc
    return EnclaveError(
        "record failed inside the enclave: " + scrub(type(exc).__name__)
    )


def unwrap_entries(entries) -> tuple:
    """The replies of ``request_many`` entries, or raise the first error.

    The one spelling of a ticket's outcome: the proxy's own ``request``
    and ``request_batch`` and the scheduler's tickets all end here."""
    for status, item in entries:
        if status == "err":
            raise item
    return tuple(item for _status, item in entries)


class _EngineConnection:
    """A persistent enclave→engine connection (socket fd + TLS channel).

    ``buffer`` accumulates received bytes that belong to the *next*
    response (keep-alive leaves pipelined trailing data in place);
    ``frames`` queues decoded-but-unconsumed TLS frames.
    """

    __slots__ = ("fd", "tls", "buffer", "frames")

    def __init__(self, fd: int, tls=None):
        self.fd = fd
        self.tls = tls
        self.buffer = bytearray()
        self.frames = deque()


class _Staged:
    """One search or ingest record on its way through ``request_many``:
    the session's channel endpoint, the decoded search and its
    obfuscation (``None`` for an ingest), and the encoded reply."""

    __slots__ = ("endpoint", "request", "obfuscated", "reply")

    def __init__(self, endpoint, request=None, obfuscated=None,
                 reply=None):
        self.endpoint = endpoint
        self.request = request
        self.obfuscated = obfuscated
        self.reply = reply


class XSearchEnclaveCode:
    """The trusted X-Search proxy logic (everything inside the TEE)."""

    def __init__(self, memory, ocalls):
        self.memory = memory
        self.ocalls = ocalls
        self._configured = False
        self._responder = None
        self._history = None
        self._sessions = {}
        self._session_lock = threading.Lock()
        self._k = DEFAULT_K
        self._rng = None
        self._sealer = None
        self._recorder = None
        self._engine_ca_key = None
        self._pool = []
        self._pool_lock = threading.Lock()
        self._degraded = None
        self._retry_policy = DEFAULT_ENGINE_RETRY
        self._perf_lock = threading.Lock()
        self._perf = {
            "pool_connects": 0,
            "pool_reuses": 0,
            "pool_disposals": 0,
            "tls_handshakes": 0,
            "engine_requests": 0,
            "engine_retries": 0,
            "engine_failures": 0,
            "degraded_hits": 0,
        }

    def _bump(self, name: str) -> None:
        with self._perf_lock:
            self._perf[name] += 1

    def attach_sealer(self, sealer) -> None:
        """Runtime hook (EGETKEY analogue): receives the sealing facility
        bound to this enclave's own measurement."""
        self._sealer = sealer

    def attach_recorder(self, recorder) -> None:
        """Runtime hook: the trace recorder shared with the host.

        Enclave-placed spans may carry plaintext attributes (the host
        never reads span contents in the model — placement tags are what
        the :class:`~repro.obs.checker.TraceChecker` privacy oracle keys
        on); host-placed spans must stay payload-free.
        """
        self._recorder = recorder

    # ------------------------------------------------------------------
    # ecall: init(parameters)
    # ------------------------------------------------------------------
    @ecall
    def init(self, *, k: int = DEFAULT_K,
             history_capacity: int = DEFAULT_HISTORY_CAPACITY,
             max_sessions: int = DEFAULT_MAX_SESSIONS,
             rng_seed: int = None, engine_ca_key=None,
             retry_policy: RetryPolicy = None,
             degraded_cache_bytes: int = DEFAULT_DEGRADED_CACHE_BYTES
             ) -> None:
        """Setup options for X-Search (paper's ``init`` ecall).

        When ``engine_ca_key`` (an :class:`~repro.crypto.rsa.RsaPublicKey`)
        is provided, the enclave talks HTTPS to the search engine —
        footnote 2 of the paper — authenticating the engine against this
        pinned CA before sending the obfuscated query.  Engine sockets
        (and established TLS channels) are kept alive across requests,
        up to ``DEFAULT_POOL_CAPACITY`` idle ones.

        ``retry_policy`` governs the engine leg: transient transport
        failures are retried on fresh connections up to
        ``retry_policy.max_attempts`` times before the request is either
        served from the degraded cache or failed.
        ``degraded_cache_bytes`` sizes the in-enclave cache of last-known
        filtered results per original query (0 disables degraded mode);
        its memory is charged to the EPC model.
        """
        if self._configured:
            raise EnclaveError("enclave already initialised")
        if k < 0:
            raise EnclaveError("k cannot be negative")
        if max_sessions <= 0:
            raise EnclaveError("max_sessions must be positive")
        if degraded_cache_bytes < 0:
            raise EnclaveError("degraded_cache_bytes cannot be negative")
        self._k = k
        self._max_sessions = max_sessions
        self._history = QueryHistory(history_capacity,
                                     enclave_memory=self.memory)
        self._responder = HandshakeResponder()
        seed = rng_seed if rng_seed is not None else secrets.randbits(64)
        self._rng = random.Random(seed)
        self._engine_ca_key = engine_ca_key
        if degraded_cache_bytes:
            self._degraded = ResultCache(
                degraded_cache_bytes,
                enclave_memory=self.memory,
                memory_key="xsearch.degraded_cache",
            )
        if retry_policy is not None:
            self._retry_policy = retry_policy
        self._configured = True

    # ------------------------------------------------------------------
    # ecalls: session establishment
    # ------------------------------------------------------------------
    @ecall
    def channel_public(self) -> bytes:
        """The enclave's channel public value, bound into the quote."""
        self._require_configured()
        return self._responder.public_bytes()

    @ecall
    def report_data(self) -> bytes:
        """EREPORT data: binds the channel key to this enclave's identity.

        Called by the quoting enclave, never trusted from the host — a host
        that swaps the channel key it shows clients cannot make the quote
        match (see the man-in-the-middle failure-injection test).
        """
        self._require_configured()
        return report_data_for_key(self._responder.public_bytes())

    @ecall
    def accept_session(self, session_id: str, client_hello: bytes) -> bytes:
        """Finish the key exchange for one client session.

        Returns a key-confirmation tag over the freshly derived channel
        keys: the client verifies it before trusting the session, so a
        handshake spliced across two enclaves (fetching one enclave's
        public value, completing the session on its respawned or
        failed-over successor) is detected at connect time instead of
        wedging the session with mismatched keys on its first record.

        The session table lives in EPC, so it is bounded: past
        ``max_sessions`` the least recently used sessions are evicted
        (their next record fails with
        :class:`~repro.errors.SessionLostError`, and their clients
        re-attest and re-handshake) — a flood of handshakes cannot
        exhaust enclave memory, nor evict a session that is in use.
        """
        self._require_configured()
        endpoint = self._responder.finish(client_hello)
        with self._session_lock:
            if session_id in self._sessions:
                raise EnclaveError(f"session {session_id!r} already exists")
            self._sessions[session_id] = endpoint
            while len(self._sessions) > self._max_sessions:
                least_recent = next(iter(self._sessions))
                del self._sessions[least_recent]
            self.memory.store(
                "xsearch.sessions",
                None,
                nbytes=_SESSION_BYTES * len(self._sessions),
            )
        return endpoint.confirmation(session_id.encode("utf-8"))

    # ------------------------------------------------------------------
    # ecall: request_many — the paper's request(sock, buff, len), batched
    # ------------------------------------------------------------------
    @ecall
    def request_many(self, batch) -> tuple:
        """Provision N encrypted records into the enclave and serve them
        in one transition; the paper's ``request`` is a batch of one.

        ``batch`` is a sequence of ``(session_id, record)`` pairs, each
        record opaque AEAD ciphertext until opened here.  Returns one
        ``("ok", reply)`` or ``("err", error)`` entry per record, in
        order.

        The session is the unit of failure: if any record of a session
        fails, every record of that session in this call gets the
        session's first error and none of its replies is sealed; other
        sessions are never affected.  Channel counters stay in step
        either way.  Every record is opened, even after its session
        failed, so receive counters advance past the whole batch the
        client sealed; a failed session seals no reply, so its send
        counter does not move.  An untyped exception becomes the
        record's :class:`EnclaveError`, naming only its type.

        One pipeline serves every call, all on the thread that made the
        ecall: an enclave starts no threads, so concurrency comes only
        from several host threads each holding a TCS.  Each record is
        staged in batch order: open, decode, then ingest or obfuscate
        (the steps that touch channel counters, the history and the
        shared enclave RNG).  The engine legs then run in batch order,
        and the replies are sealed in batch order.
        """
        self._require_configured()
        batch = list(batch)
        errors = {}                         # session id -> first error
        staged = []
        for session_id, record in batch:
            try:
                staged.append(
                    self._stage(session_id, record, session_id in errors))
            except Exception as exc:  # xlint: disable=taxonomy
                errors.setdefault(session_id, _record_error(exc))
                staged.append(None)
        for (session_id, _record), entry in zip(batch, staged):
            if session_id in errors or entry.request is None:
                continue        # failed session, or an ingest's Ack
            try:
                entry.reply = self._engine_leg(entry)
            except Exception as exc:  # xlint: disable=taxonomy
                errors.setdefault(session_id, _record_error(exc))
        return tuple(
            ("err", errors[session_id]) if session_id in errors
            else ("ok", entry.endpoint.encrypt(entry.reply))
            for (session_id, _record), entry in zip(batch, staged)
        )

    def _stage(self, session_id: str, record: bytes, failed: bool):
        """Open one record and run its order-sensitive steps.

        A record of a session that already failed in this call is only
        opened, to advance the receive counter, and returns ``None``.
        """
        endpoint = self._session(session_id)
        plaintext = endpoint.decrypt(record)
        if failed:
            return None
        message = decode_any_request(plaintext)
        if isinstance(message, SearchRequest):
            return _Staged(endpoint, message, self._obfuscate(message))
        if isinstance(message, IngestRequest):
            self._history.extend(message.queries)
            return _Staged(endpoint,
                           reply=Ack(len(message.queries)).encode())
        raise ProtocolError("unhandled message type")  # pragma: no cover

    def _engine_leg(self, staged: _Staged) -> bytes:
        """One search's engine and filtering leg, encoded (thread-safe)."""
        return self._complete_search(staged.request,
                                     staged.obfuscated).encode()

    @ecall
    def perf_stats(self) -> dict:
        """Hot-path observability counters (pool, engine traffic).

        Everything reported here describes events the host can already
        observe on its side of the boundary (connects, requests) —
        exposing the counters leaks nothing beyond the §3 adversary's
        view.
        """
        self._require_configured()
        with self._perf_lock:
            stats = dict(self._perf)
        # Constant zeros: perfbench/harness.py still reads these keys.
        stats.update(cache_hits=0, cache_misses=0, singleflight_hits=0)
        return stats

    # ------------------------------------------------------------------
    # ecalls: sealed history persistence (extension; see core.persistence)
    # ------------------------------------------------------------------
    @ecall
    def absorb_sealed_history(self, blob: bytes) -> int:
        """Append a sealed history snapshot to the live table.

        The one import path for a sealed snapshot: a respawned enclave
        replays its predecessor's last checkpoint (its own history is
        empty, so appending rebuilds the same table), and the cluster's
        failover path merges a dead replica's checkpoint into a survivor
        (the window evicts the oldest entries as usual).  Unsealing
        requires the same measurement on the same platform, so a replica
        of a *different* build cannot feed us history; the snapshot's
        window size must match the attested configuration.  Returns the
        number of entries appended.
        """
        self._require_configured()
        self._require_sealer()
        capacity, entries = open_snapshot(self._sealer, blob)
        if capacity != self._history.capacity:
            raise EnclaveError(
                "sealed snapshot was taken with a different history "
                "capacity than this enclave's attested configuration"
            )
        self._history.extend(entries)
        return len(entries)

    @ecall
    def checkpoint_history(self) -> tuple:
        """Export the history as a sealed blob, with its size.

        Only an enclave with this exact measurement on this platform can
        unseal the blob, so the host gains nothing from holding it; the
        entry count lets recovery verify the replay was complete.
        Returns ``(sealed_blob, entry_count)``.
        """
        self._require_configured()
        self._require_sealer()
        return seal_snapshot(self._sealer, self._history), len(self._history)

    @ecall
    def history_integrity(self) -> dict:
        """Sizes-only consistency audit of the in-enclave tables.

        The simulation's invariant oracles call this after every run to
        prove no interleaving tore the history or degraded-cache
        accounting.
        Everything reported is byte counts and entry counts — data the
        host could already derive from the EPC metering it performs —
        so exposing the audit leaks nothing beyond the §3 adversary's
        existing view.
        """
        self._require_configured()
        report = {"history": self._history.integrity_report()}
        if self._degraded is not None:
            report["degraded_cache"] = self._degraded.integrity_report()
        report["consistent"] = all(
            section["consistent"] for name, section in report.items()
            if name != "consistent"
        )
        return report

    @ecall
    def shutdown(self) -> int:
        """Graceful teardown: close every pooled engine connection.

        Idempotent; returns the number of connections closed.  The host
        calls this from :meth:`XSearchProxyHost.close` before destroying
        the enclave so the engine side does not see abandoned sockets.
        """
        if not self._configured:
            return 0
        with self._pool_lock:
            connections, self._pool = self._pool, []
        for connection in connections:
            self._dispose_connection(connection)
        return len(connections)

    def _require_sealer(self) -> None:
        if self._sealer is None:
            raise EnclaveError(
                "no sealing platform available to this enclave"
            )

    # ------------------------------------------------------------------
    # Trusted request pipeline
    # ------------------------------------------------------------------
    def _obfuscate(self, request: SearchRequest):
        """Algorithm 1: plaintext query → k+1 aggregated queries.

        Kept separate from :meth:`_complete_search` so the batched
        pipeline stages every record (drawing from the shared enclave
        RNG and appending to the history) before any engine leg runs.
        """
        recorder = self._recorder
        with span(recorder, "enclave.obfuscation",
                  placement=PLACEMENT_ENCLAVE,
                  query=request.query, k=self._k):
            return obfuscate_query(
                request.query, self._history, self._k, self._rng
            )

    def _complete_search(self, request: SearchRequest,
                         obfuscated) -> SearchResponse:
        """The engine + filtering leg of one search (thread-safe)."""
        recorder = self._recorder
        degraded_key = f"{request.limit}\x00{request.query}"
        try:
            with span(recorder, "enclave.engine",
                      placement=PLACEMENT_ENCLAVE,
                      **{"retry.max_attempts":
                         self._retry_policy.max_attempts}):
                raw_results = self._query_engine(
                    obfuscated.as_or_query(), request.limit
                )
        except (TransientError, RetryExhaustedError) as exc:
            # Every retry spent and the engine is still unreachable: serve
            # the last filtered results we produced for this exact query,
            # flagged as degraded.  The cache holds only *filtered* result
            # sets, so nothing about the fake queries leaks through it.
            if self._degraded is not None:
                stale = self._degraded.get(degraded_key)
                if stale is not None:
                    self._bump("degraded_hits")
                    event(recorder, "degraded.hit")
                    return SearchResponse(results=tuple(stale), degraded=True)
            self._bump("engine_failures")
            raise EngineUnavailableError(
                "engine unreachable and no degraded result cached for "
                "this query: " + scrub(exc, request.query)
            ) from exc
        with span(recorder, "enclave.filtering",
                  placement=PLACEMENT_ENCLAVE) as filter_span:
            filtered = filter_results(
                obfuscated.original,
                obfuscated.fake_queries,
                raw_results,
                strip_tracking=True,
            )
            results = tuple(filtered[:request.limit])
            filter_span.set(result_count=len(results))
        if self._degraded is not None:
            self._degraded.put(degraded_key, results)
        return SearchResponse(results=results)

    def _query_engine(self, or_query: str, limit: int) -> list:
        """Talk HTTP(S) to the search engine through the socket ocalls."""
        encoded = urllib.parse.quote_plus(or_query)
        http_request = (
            f"GET /search?q={encoded}&limit={limit} HTTP/1.1\r\n"
            f"Host: {ENGINE_HOST}\r\n"
            "Connection: keep-alive\r\n"
            "\r\n"
        ).encode("ascii")
        self._bump("engine_requests")
        status, body = call_with_retry(
            lambda: self._exchange_once(http_request),
            policy=self._retry_policy,
            on_retry=self._on_engine_retry,
        )
        if status != 200:
            raise NetworkError(f"search engine returned HTTP {status}")
        return parse_results_body(body)

    def _on_engine_retry(self, attempt: int, exc: Exception) -> None:
        self._bump("engine_retries")
        event(self._recorder, "retry", attempt=attempt,
              error=type(exc).__name__)

    # ------------------------------------------------------------------
    # Engine exchange over pooled persistent connections
    # ------------------------------------------------------------------
    def _exchange_once(self, http_request: bytes):
        """One request/response against the engine on one pooled (or
        freshly opened) connection; returns ``(status, body)``.

        This is one attempt of the engine leg's retry policy and never
        retries by itself: a stale pooled socket (engine restart,
        host-side close) costs one visible attempt.  A failed exchange
        closes its descriptor before the error leaves.

        Anything that means "the bytes did not make it" — a refused or
        dropped connection, a timeout, a garbled frame — becomes a
        retryable :class:`~repro.errors.EngineUnavailableError`.  Two
        things deliberately do NOT qualify: an HTTP error status or
        malformed result body (the engine answered; retrying will not
        change its mind — they surface from :meth:`_query_engine`), and
        any :class:`~repro.errors.CryptoError` (a failed certificate
        chain or AEAD tag fails *closed* — retrying a crypto failure
        would hand an active adversary a free oracle).
        """
        try:
            connection = self._checkout_connection()
            try:
                if connection.tls is not None:
                    result = self._exchange_on_tls(connection, http_request)
                else:
                    result = self._exchange_on_plain(connection, http_request)
            except Exception:
                # Stale, dropped, tampered or buggy: the descriptor is
                # closed before the error leaves, whatever its type.
                self._dispose_connection(connection)
                raise
            self._checkin_connection(connection)
            return result
        except (TransientError, CryptoError):
            raise
        except NetworkError as exc:
            raise EngineUnavailableError(
                "engine exchange failed: " + scrub(exc)
            ) from exc
        except (ConnectionError, OSError) as exc:
            raise EngineUnavailableError(
                "engine socket failed: " + scrub(exc)
            ) from exc

    def _exchange_on_plain(self, connection: _EngineConnection,
                           http_request: bytes):
        self.ocalls.send(connection.fd, http_request)
        while True:
            status, body, consumed = split_http_response(
                connection.buffer, partial_ok=True
            )
            if status is not None:
                # Keep-alive: leave any pipelined trailing bytes buffered.
                del connection.buffer[:consumed]
                return status, body
            chunk = self.ocalls.recv(connection.fd, _RECV_CHUNK)
            if not chunk:
                raise NetworkError("engine closed the connection mid-response")
            connection.buffer += chunk

    def _exchange_on_tls(self, connection: _EngineConnection,
                         http_request: bytes):
        record = encode_frame(connection.tls.encrypt(http_request))
        self.ocalls.send(connection.fd, record)
        raw = connection.tls.decrypt(self._read_frame(connection))
        status, body, _ = split_http_response(raw)
        return status, body

    def _read_frame(self, connection: _EngineConnection) -> bytes:
        """The next complete TLS frame from a persistent connection."""
        while not connection.frames:
            chunk = self.ocalls.recv(connection.fd, _RECV_CHUNK)
            if not chunk:
                raise NetworkError("engine closed the TLS connection")
            connection.buffer += chunk
            frames, remainder = decode_frames(connection.buffer)
            connection.buffer = bytearray(remainder)
            connection.frames.extend(frames)
        return connection.frames.popleft()

    def _checkout_connection(self) -> _EngineConnection:
        with self._pool_lock:
            if self._pool:
                connection = self._pool.pop()
                self._bump("pool_reuses")
                return connection
        connection = self._open_connection()
        self._bump("pool_connects")
        return connection

    def _checkin_connection(self, connection: _EngineConnection) -> None:
        with self._pool_lock:
            if len(self._pool) < DEFAULT_POOL_CAPACITY:
                self._pool.append(connection)
                return
        self._dispose_connection(connection)

    def _dispose_connection(self, connection: _EngineConnection) -> None:
        self._bump("pool_disposals")
        try:
            self.ocalls.close(connection.fd)
        except NetworkError:
            pass  # already dead on the host side

    def _open_connection(self) -> _EngineConnection:
        """Connect (and, over HTTPS, complete the TLS handshake) once; the
        channel is then reused for every request that checks it out."""
        if self._engine_ca_key is None:
            fd = self.ocalls.sock_connect(ENGINE_HOST, ENGINE_PORT)
            return _EngineConnection(fd)
        client = TlsClient(self._engine_ca_key, ENGINE_HOST)
        fd = self.ocalls.sock_connect(ENGINE_HOST, ENGINE_TLS_PORT)
        connection = _EngineConnection(fd, tls=client)
        try:
            self.ocalls.send(fd, encode_frame(client.client_hello()))
            client.process_server_hello(self._read_frame(connection))
        except Exception:
            self._dispose_connection(connection)
            raise
        self._bump("tls_handshakes")
        return connection

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _require_configured(self) -> None:
        if not self._configured:
            raise EnclaveError("init ecall has not been issued")

    def _session(self, session_id: str):
        with self._session_lock:
            endpoint = self._sessions.pop(session_id, None)
            if endpoint is not None:
                # Back to the end: the table evicts from the front.
                self._sessions[session_id] = endpoint
        if endpoint is None:
            raise SessionLostError(
                f"no session {session_id!r} in this enclave; re-attest "
                f"to establish a new one")
        return endpoint


class XSearchProxyHost:
    """The untrusted proxy service on the cloud node.

    Owns the enclave and the platform's quoting enclave, serves attestation
    evidence to clients, and relays opaque records.  ``history_capacity``
    and ``k`` are part of the enclave's attested configuration: changing
    them changes the measurement clients expect.

    The host is also the enclave's *supervisor*: when an ecall dies with
    :class:`~repro.errors.EnclaveLostError` it respawns a fresh enclave
    from the same code and config (so the measurement is identical),
    replays the most recent sealed history checkpoint into it, and
    resets the engine connection pool's host side.  The in-flight request
    still fails — its session keys died with the enclave — but the next
    attestation a client performs finds a live, restored proxy.  The
    dead enclave's other sessions need no host bookkeeping: their next
    record reaches the respawned enclave, which holds no such session
    and fails it with :class:`~repro.errors.SessionLostError`.
    """

    def __init__(self, engine, *, k: int = DEFAULT_K,
                 history_capacity: int = DEFAULT_HISTORY_CAPACITY,
                 max_sessions: int = DEFAULT_MAX_SESSIONS,
                 quoting_enclave: QuotingEnclave = None,
                 attestation_service: AttestationService = None,
                 rng_seed: int = None,
                 epc: EnclavePageCache = None,
                 sealing_platform=None,
                 engine_ca_key=None,
                 engine_tls_config: TlsServerConfig = None,
                 retry_policy: RetryPolicy = None,
                 degraded_cache_bytes: int = DEFAULT_DEGRADED_CACHE_BYTES,
                 fault_plan=None,
                 checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL,
                 recorder=None, registry=None,
                 source: str = "xsearch-proxy.cloud"):
        self._recorder = recorder
        self._registry = registry
        self.gateway = EngineGateway(
            engine, source=source, tls_config=engine_tls_config,
            fault_plan=fault_plan, recorder=recorder,
        )
        https_flag = 1 if engine_ca_key is not None else 0
        # The performance knobs are part of the attested configuration:
        # a proxy that silently resizes the degraded cache has a
        # different measurement.
        self._config = (
            f"k={k};x={history_capacity};https={https_flag};"
            f"dc={degraded_cache_bytes}".encode("ascii")
        )
        self._fault_plan = fault_plan
        self._sealing_platform = sealing_platform
        self._epc_usable = epc.usable_bytes if epc is not None else None
        self._first_epc = epc
        self._init_kwargs = dict(
            k=k, history_capacity=history_capacity,
            max_sessions=max_sessions,
            rng_seed=rng_seed, engine_ca_key=engine_ca_key,
            retry_policy=retry_policy,
            degraded_cache_bytes=degraded_cache_bytes,
        )
        if checkpoint_interval is not None and checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be positive or None")
        self._checkpoint_interval = checkpoint_interval
        self._checkpoint_lock = threading.Lock()
        self._requests_since_checkpoint = 0
        self._history_checkpoint = None
        # Held across a respawn, whose history restore has simulation
        # step points: under the simulation a waiter must yield, not
        # block natively.
        self._enclave_lock = hooks.SimAwareLock("proxy.enclave")
        self._closed = False
        self.respawn_count = 0
        self.checkpoint_count = 0
        self.checkpoint_failures = 0
        self.last_checkpoint_entries = None
        self.last_restore_count = None
        self.last_restore_expected = None
        self.enclave = self._spawn_enclave()
        self.k = k
        self.history_capacity = history_capacity
        self._quoting_enclave = quoting_enclave
        self._attestation_service = attestation_service

    # ------------------------------------------------------------------
    # Enclave supervision: spawn, respawn-on-loss, checkpointing
    # ------------------------------------------------------------------
    def _spawn_enclave(self) -> Enclave:
        # The first enclave uses whatever EPC the caller handed in (so
        # shared-EPC metering experiments keep working); a respawn gets a
        # fresh EPC of the same size — the dead enclave's pages are gone.
        if self.respawn_count == 0:
            epc = self._first_epc
        elif self._epc_usable is not None:
            epc = EnclavePageCache(self._epc_usable)
        else:
            epc = None
        enclave = Enclave(
            XSearchEnclaveCode,
            config=self._config,
            ocalls=self.gateway.ocall_table(),
            epc=epc,
            sealing_platform=self._sealing_platform,
            fault_plan=self._fault_plan,
            recorder=self._recorder,
            registry=self._registry,
        )
        enclave.initialize()
        enclave.call("init", **self._init_kwargs)
        return enclave

    def _respawn_locked(self) -> None:
        """Replace a lost enclave; caller holds ``_enclave_lock``."""
        # Pooled sockets belonged to the dead enclave: drop their host
        # side so the respawned pool starts clean.
        self.gateway.reset_connections()
        self.respawn_count += 1
        self.last_restore_count = None
        self.last_restore_expected = None
        event(self._recorder, "enclave.respawn",
              respawn_count=self.respawn_count)
        if self._registry is not None:
            self._registry.counter("proxy.respawns").inc()
        self.enclave = self._spawn_enclave()
        with self._checkpoint_lock:
            checkpoint = self._history_checkpoint
        if checkpoint is not None:
            blob, entries = checkpoint
            self.last_restore_expected = entries
            self.last_restore_count = self.enclave.call(
                "absorb_sealed_history", blob
            )
            event(self._recorder, "checkpoint.restore",
                  entries=self.last_restore_count)

    def _call(self, name: str, *args, **kwargs):
        """Issue an ecall, respawning the enclave first if it is dead.

        A loss *during* the call still fails that call (the enclave that
        held the session keys is gone), but the replacement is spawned
        before the error surfaces, so the very next attestation succeeds.
        """
        enclave = self._live_enclave()
        try:
            return enclave.call(name, *args, **kwargs)
        except EnclaveLostError:
            with self._enclave_lock:
                if not self._closed and not self.enclave.is_initialized:
                    self._respawn_locked()
            raise

    def _live_enclave(self) -> Enclave:
        """The current enclave, respawned first if it has died."""
        with self._enclave_lock:
            if self._closed:
                # A closed host means its enclave (and every session key
                # inside it) is gone — a *loss*, not a hard protocol
                # error: clients re-attest elsewhere, and the cluster
                # counts the loss toward failover.
                raise EnclaveLostError("proxy host is closed")
            if not self.enclave.is_initialized:
                self._respawn_locked()
            return self.enclave

    def _publish_checkpoint(self, blob: bytes, entries: int) -> None:
        """Keep a sealed checkpoint as the one a respawn replays."""
        with self._checkpoint_lock:
            self._history_checkpoint = (blob, entries)
        self.checkpoint_count += 1
        self.last_checkpoint_entries = entries

    def checkpoint_now(self) -> int:
        """Seal the current history and keep the blob for recovery.

        Returns the number of history entries captured.
        """
        blob, entries = self._call("checkpoint_history")
        # Step point deliberately *between* the ecall and publishing the
        # blob: the simulation explores a failover racing an in-flight
        # checkpoint.  Never inside _checkpoint_lock — the holder of a
        # native lock must not yield.
        hooks.step("proxy.checkpoint", entries=entries)
        self._publish_checkpoint(blob, entries)
        event(self._recorder, "checkpoint", entries=entries)
        if self._registry is not None:
            self._registry.counter("proxy.checkpoints").inc()
        return entries

    def _after_requests(self, count: int) -> None:
        """Periodic checkpointing, driven by served-request volume."""
        if self._checkpoint_interval is None or self._sealing_platform is None:
            return
        hooks.step("proxy.maintenance", count=count)
        with self._checkpoint_lock:
            self._requests_since_checkpoint += count
            due = (self._requests_since_checkpoint
                   >= self._checkpoint_interval)
            if due:
                self._requests_since_checkpoint = 0
        if due:
            try:
                self.checkpoint_now()
            except ReproError:
                # Background maintenance must not fail the request that
                # happened to trigger it; the old checkpoint stays valid.
                self.checkpoint_failures += 1

    def close(self) -> None:
        """Tear the proxy down: drain the pool, destroy the enclave.

        Idempotent.  Takes a final history checkpoint first when sealing
        is available, so a later host can absorb it.
        """
        with self._enclave_lock:
            if self._closed:
                return
            self._closed = True
            enclave = self.enclave
        if enclave.is_initialized:
            if self._sealing_platform is not None:
                try:
                    self._publish_checkpoint(
                        *enclave.call("checkpoint_history"))
                except ReproError:
                    self.checkpoint_failures += 1
            try:
                enclave.call("shutdown")
            except ReproError:
                pass  # best-effort: the sockets die with the host anyway
            enclave.destroy()

    @property
    def history_checkpoint(self):
        """The latest sealed checkpoint blob, or ``None`` (opaque to us)."""
        with self._checkpoint_lock:
            checkpoint = self._history_checkpoint
        if checkpoint is None:
            return None
        return checkpoint[0]

    # ------------------------------------------------------------------
    # Attestation plumbing (host-mediated, as in SGX)
    # ------------------------------------------------------------------
    @property
    def measurement(self):
        with self._enclave_lock:
            return self.enclave.measurement

    def channel_public(self) -> bytes:
        return self._call("channel_public")

    def attestation_evidence(self, session_id: str) -> tuple:
        """Quote the enclave and have the attestation service verify it.

        Returns ``(verdict, channel_public)``: the signed verdict a
        client can check offline against the service's public key, and
        the channel public value the quote's report data binds, which
        keeps the host from splicing its own key into the tunnel.  Both
        come from one enclave instance, so an enclave lost in between
        raises :class:`~repro.errors.EnclaveLostError` instead of
        pairing one enclave's quote with its successor's key.  A host
        has one enclave, so ``session_id`` does not change the answer.
        """
        if self._quoting_enclave is None or self._attestation_service is None:
            raise EnclaveError(
                "proxy host has no attestation infrastructure configured"
            )
        if self._fault_plan is not None:
            fault = self._fault_plan.decide(SITE_ATTESTATION)
            if fault is not None and fault.kind == KIND_TRANSIENT:
                raise TransientError(
                    "injected attestation transient: quoting service "
                    "temporarily unavailable"
                )
        enclave = self._live_enclave()
        quote = self._quoting_enclave.quote_enclave(enclave)
        verdict = self._attestation_service.verify_quote(quote)
        return verdict, enclave.call("channel_public")

    # ------------------------------------------------------------------
    # Session relay (all payloads opaque to the host)
    # ------------------------------------------------------------------
    def begin_session(self, session_id: str, client_hello: bytes) -> bytes:
        return self._call("accept_session", session_id, client_hello)

    def request(self, session_id: str, record: bytes) -> bytes:
        """Relay one opaque record: a batch of one."""
        return unwrap_entries(self.request_many([(session_id, record)]))[0]

    def request_batch(self, batch) -> tuple:
        """Relay a ready-made batch and return its replies in order, or
        raise the first record's error.  One session's batch fails as
        one: a failed batch seals no reply, so its channel stays in
        step with the client."""
        return unwrap_entries(self.request_many(batch))

    def request_many(self, batch) -> tuple:
        """Relay N opaque ``(session_id, record)`` pairs in one ecall.

        The host cannot open the records; batching only changes how many
        enclave transitions the traffic costs.  Returns one
        ``("ok", reply)`` or ``("err", typed_error)`` entry per record
        (see :meth:`XSearchEnclaveCode.request_many`: the session is the
        unit of failure).  A record whose session the enclave does not
        hold (evicted, or died with a previous enclave) fails with
        :class:`~repro.errors.SessionLostError`, which the broker heals;
        the rest of the batch is still served.  An empty batch returns
        an empty tuple without entering the enclave at all."""
        batch = list(batch)
        if not batch:
            return ()
        if self._registry is not None:
            self._registry.counter("proxy.requests").inc(len(batch))
            self._registry.histogram(
                "proxy.request.batch_size"
            ).record(len(batch))
        entries = self._call("request_many", batch)
        self._after_requests(len(batch))
        return entries

    def perf_stats(self) -> dict:
        """The enclave's hot-path counters (pool/engine traffic)."""
        return self._call("perf_stats")

    def history_integrity(self) -> dict:
        """Sizes-only audit of the in-enclave accounting (sim oracle)."""
        return self._call("history_integrity")

    # ------------------------------------------------------------------
    # Sealed persistence (host stores opaque blobs only)
    # ------------------------------------------------------------------
    def absorb_history(self, blob: bytes) -> int:
        """Append a sealed checkpoint (this host's or a peer replica's)
        to the live history; the blob stays opaque to the host."""
        return self._call("absorb_sealed_history", blob)

    # -- context manager -------------------------------------------------
    def __enter__(self) -> "XSearchProxyHost":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
