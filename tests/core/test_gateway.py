"""The host-side socket ocalls and the engine's HTTP front end."""

import json

import pytest

from repro.core.gateway import (
    ENGINE_HOST,
    ENGINE_PORT,
    EngineGateway,
    parse_results_body,
    split_http_response,
)
from repro.errors import NetworkError


@pytest.fixture()
def gateway(tracking_engine):
    return EngineGateway(tracking_engine, source="test-proxy")


def http_get(path):
    return f"GET {path} HTTP/1.1\r\nHost: {ENGINE_HOST}\r\n\r\n".encode()


def exchange(gateway, request_bytes):
    fd = gateway.sock_connect(ENGINE_HOST, ENGINE_PORT)
    gateway.send(fd, request_bytes)
    raw = b""
    while True:
        chunk = gateway.recv(fd, 4096)
        if not chunk:
            break
        raw += chunk
    gateway.close(fd)
    status, body, _consumed = split_http_response(raw)
    return status, body


def test_search_request_roundtrip(gateway):
    status, body = exchange(gateway, http_get("/search?q=hotel+rome&limit=5"))
    assert status == 200
    results = parse_results_body(body)
    assert len(results) == 5
    assert results[0].title


def test_or_query_is_split_and_merged(gateway, tracking_engine):
    status, body = exchange(
        gateway, http_get("/search?q=hotel+rome+OR+diabetes&limit=5")
    )
    assert status == 200
    assert len(parse_results_body(body)) > 5
    assert tracking_engine.observations[-1].text == "hotel rome OR diabetes"


def test_requests_attributed_to_proxy_source(gateway, tracking_engine):
    exchange(gateway, http_get("/search?q=hotel&limit=3"))
    assert tracking_engine.observations[-1].source == "test-proxy"


def test_chunked_send_supported(gateway):
    request = http_get("/search?q=hotel&limit=3")
    fd = gateway.sock_connect(ENGINE_HOST, ENGINE_PORT)
    for i in range(0, len(request), 7):
        gateway.send(fd, request[i:i + 7])
    raw = b""
    while True:
        chunk = gateway.recv(fd, 64)
        if not chunk:
            break
        raw += chunk
    status, body, _ = split_http_response(raw)
    assert status == 200


def test_unknown_host_refused(gateway):
    with pytest.raises(NetworkError):
        gateway.sock_connect("evil.example.com", 80)
    with pytest.raises(NetworkError):
        gateway.sock_connect(ENGINE_HOST, 8080)


def test_unknown_fd_rejected(gateway):
    with pytest.raises(NetworkError):
        gateway.send(99, b"x")
    with pytest.raises(NetworkError):
        gateway.recv(99, 10)
    with pytest.raises(NetworkError):
        gateway.close(99)


def test_double_close_rejected(gateway):
    fd = gateway.sock_connect(ENGINE_HOST, ENGINE_PORT)
    gateway.close(fd)
    with pytest.raises(NetworkError):
        gateway.close(fd)


def test_404_for_unknown_path(gateway):
    status, body = exchange(gateway, http_get("/other"))
    assert status == 404


def test_400_for_missing_query(gateway):
    status, _ = exchange(gateway, http_get("/search?limit=5"))
    assert status == 400


def test_400_for_bad_limit(gateway):
    status, _ = exchange(gateway, http_get("/search?q=a&limit=ten"))
    assert status == 400


def test_405_for_post(gateway):
    status, _ = exchange(gateway, b"POST /search HTTP/1.1\r\n\r\n")
    assert status == 405


def test_split_http_response_errors():
    with pytest.raises(NetworkError):
        split_http_response(b"HTTP/1.1 200 OK\r\nContent-Length: 5")
    with pytest.raises(NetworkError):
        split_http_response(
            b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort"
        )
    with pytest.raises(NetworkError):
        split_http_response(b"garbage\r\n\r\n")
    with pytest.raises(NetworkError):
        split_http_response(b"HTTP/1.1 200 OK\r\nContent-Length: ten\r\n\r\n")


def test_parse_results_body_errors():
    with pytest.raises(NetworkError):
        parse_results_body(b"not json at all {")


# ---------------------------------------------------------------------------
# Keep-alive / pipelined response handling (split_http_response framing)
# ---------------------------------------------------------------------------

def http_response(body: bytes, status=b"200 OK") -> bytes:
    return (b"HTTP/1.1 " + status + b"\r\nContent-Length: "
            + str(len(body)).encode() + b"\r\n\r\n" + body)


def test_split_reports_consumed_length_and_leaves_trailing_bytes():
    first = http_response(b"alpha")
    second = http_response(b"beta-beta")
    buffer = first + second
    status, body, consumed = split_http_response(buffer)
    assert (status, body, consumed) == (200, b"alpha", len(first))
    status, body, consumed = split_http_response(buffer[consumed:])
    assert (status, body) == (200, b"beta-beta")
    assert consumed == len(second)


def test_split_partial_ok_signals_incomplete_instead_of_raising():
    complete = http_response(b"payload")
    for cut in (0, 10, len(complete) - 1):
        status, body, consumed = split_http_response(
            complete[:cut], partial_ok=True
        )
        assert (status, body, consumed) == (None, b"", 0)
    status, body, consumed = split_http_response(complete, partial_ok=True)
    assert (status, body, consumed) == (200, b"payload", len(complete))


def test_split_rejects_negative_content_length():
    """Regression: a negative Content-Length used to be accepted and
    silently mis-frame the stream (``rest[:-1]`` truncated the body and
    ``consumed`` under-advanced the keep-alive buffer).  It must fail
    closed — even under ``partial_ok``, because it is garbage, not an
    incomplete read."""
    raw = b"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\nabcdef"
    with pytest.raises(NetworkError):
        split_http_response(raw)
    with pytest.raises(NetworkError):
        split_http_response(raw, partial_ok=True)


def test_split_partial_ok_when_content_length_exceeds_bytes_received():
    """The partial-read boundary: the header may promise more body bytes
    than have arrived so far.  At *every* cut point — mid-header, at the
    header/body boundary, mid-body, one byte short — the splitter must
    report "need more bytes" rather than return a truncated body, and
    once the missing bytes arrive it must frame the response exactly."""
    complete = http_response(b"0123456789abcdef")
    header_end = complete.index(b"\r\n\r\n") + 4
    for cut in range(len(complete)):
        status, body, consumed = split_http_response(
            complete[:cut], partial_ok=True
        )
        assert (status, body, consumed) == (None, b"", 0), (
            f"cut={cut} (header ends at {header_end}) returned a frame "
            f"from an incomplete response"
        )
    status, body, consumed = split_http_response(complete, partial_ok=True)
    assert (status, body, consumed) == (200, b"0123456789abcdef",
                                        len(complete))


def test_keep_alive_reassembly_across_partial_reads(gateway):
    """Drive the enclave's read loop shape against the gateway: bytes
    arrive in tiny chunks, so ``split_http_response(partial_ok=True)``
    repeatedly reports incomplete until the promised Content-Length is
    buffered — then the framed body must match and trailing bytes of a
    pipelined second response must survive in the buffer."""
    fd = gateway.sock_connect(ENGINE_HOST, ENGINE_PORT)
    gateway.send(
        fd,
        http_get("/search?q=hotel&limit=2") + http_get("/search?q=rome&limit=3"),
    )
    buffer = bytearray()
    bodies = []
    incomplete_sightings = 0
    while len(bodies) < 2:
        status, body, consumed = split_http_response(buffer, partial_ok=True)
        if status is None:
            chunk = gateway.recv(fd, 7)  # deliberately tiny reads
            assert chunk, "engine closed mid-response"
            buffer += chunk
            incomplete_sightings += 1
            continue
        del buffer[:consumed]
        bodies.append((status, body))
    gateway.close(fd)
    assert incomplete_sightings > 2  # the partial path was actually hit
    assert [s for s, _ in bodies] == [200, 200]
    assert len(parse_results_body(bodies[0][1])) == 2
    assert len(parse_results_body(bodies[1][1])) == 3
    assert not buffer  # nothing dropped, nothing invented


@pytest.mark.parametrize("partial_ok", [False, True])
def test_split_without_content_length_is_rejected(partial_ok):
    """On a keep-alive stream a response without Content-Length has no
    end: it is garbage, not the rest of the buffer (nor "need more
    bytes")."""
    raw = b"HTTP/1.1 200 OK\r\n\r\nbody\r\nHTTP/1.1 200 OK\r\n"
    with pytest.raises(NetworkError, match="Content-Length"):
        split_http_response(raw, partial_ok=partial_ok)


def test_keep_alive_connection_serves_multiple_requests(gateway):
    """One fd, three sequential requests — no reconnect in between."""
    fd = gateway.sock_connect(ENGINE_HOST, ENGINE_PORT)
    for query in ("hotel", "rome", "hotel+rome"):
        gateway.send(fd, http_get(f"/search?q={query}&limit=3"))
        raw = b""
        while True:
            chunk = gateway.recv(fd, 4096)
            if not chunk:
                break
            raw += chunk
        status, body, _ = split_http_response(raw)
        assert status == 200
        assert parse_results_body(body)
    gateway.close(fd)


def test_pipelined_requests_answered_in_order(gateway):
    """Two requests in one send: both responses are buffered, in order."""
    fd = gateway.sock_connect(ENGINE_HOST, ENGINE_PORT)
    gateway.send(
        fd,
        http_get("/search?q=hotel&limit=2") + http_get("/search?q=rome&limit=4"),
    )
    raw = b""
    while True:
        chunk = gateway.recv(fd, 4096)
        if not chunk:
            break
        raw += chunk
    status, first, consumed = split_http_response(raw)
    assert status == 200
    assert len(parse_results_body(first)) == 2
    status, second, _ = split_http_response(raw[consumed:])
    assert status == 200
    assert len(parse_results_body(second)) == 4
    gateway.close(fd)


# ---------------------------------------------------------------------------
# Error paths
# ---------------------------------------------------------------------------

def test_tls_connect_without_tls_config_refused(gateway):
    from repro.core.gateway import ENGINE_TLS_PORT

    with pytest.raises(NetworkError):
        gateway.sock_connect(ENGINE_HOST, ENGINE_TLS_PORT)


def test_operations_on_closed_fd_rejected(gateway):
    fd = gateway.sock_connect(ENGINE_HOST, ENGINE_PORT)
    gateway.close(fd)
    with pytest.raises(NetworkError):
        gateway.send(fd, b"GET /search?q=a HTTP/1.1\r\n\r\n")
    with pytest.raises(NetworkError):
        gateway.recv(fd, 10)


def test_malformed_request_line_gets_400(gateway):
    status, _ = exchange(gateway, b"NOT-HTTP\r\n\r\n")
    assert status == 400


def test_non_utf8_request_line_gets_400(gateway):
    status, _ = exchange(gateway, b"\xff\xfe GARBAGE\r\n\r\n")
    assert status == 400


# ---------------------------------------------------------------------------
# Thread safety: send/recv racing close on the shared descriptor table
# ---------------------------------------------------------------------------

def test_concurrent_sessions_are_thread_safe(tracking_engine):
    """Regression test for the unlocked ``_connections`` lookup: many
    threads opening/using/closing fds concurrently while others churn the
    table must never corrupt it — every thread either completes its
    exchange or sees a clean NetworkError for a closed fd."""
    import threading

    gateway = EngineGateway(tracking_engine, source="race-proxy")
    errors = []
    completed = []

    def worker(worker_id):
        try:
            for i in range(25):
                fd = gateway.sock_connect(ENGINE_HOST, ENGINE_PORT)
                gateway.send(
                    fd, http_get(f"/search?q=worker{worker_id}-{i}&limit=2")
                )
                raw = b""
                while True:
                    chunk = gateway.recv(fd, 1024)
                    if not chunk:
                        break
                    raw += chunk
                status, body, _ = split_http_response(raw)
                assert status == 200
                gateway.close(fd)
            completed.append(worker_id)
        except Exception as exc:  # pragma: no cover - failure diagnostics
            errors.append((worker_id, exc))

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert len(completed) == 8
    assert not gateway._connections  # every fd was closed exactly once
