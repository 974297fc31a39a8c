"""Persistent engine connections: ocall accounting and failure recovery.

The enclave's one engine path keeps sockets (and established TLS
channels) alive across requests, so the steady state pays only
``send`` + ``recv`` per search instead of the paper's
``sock_connect``/``send``/``recv``/``recv``/``close`` sequence.
"""

import pytest

from repro.core.gateway import TlsServerConfig
from repro.core.protocol import SearchRequest, SearchResponse
from repro.core.proxy import XSearchProxyHost
from repro.crypto.channel import HandshakeInitiator
from repro.crypto.https import CertificateAuthority
from repro.crypto.rsa import RsaKeyPair
from repro.errors import EnclaveError
from repro.search.tracking import TrackingSearchEngine


def make_proxy(engine, **kwargs):
    kwargs.setdefault("k", 1)
    kwargs.setdefault("history_capacity", 1000)
    kwargs.setdefault("rng_seed", 21)
    return XSearchProxyHost(TrackingSearchEngine(engine), **kwargs)


def connect(proxy, session_id="pool-session"):
    initiator = HandshakeInitiator()
    proxy.begin_session(session_id, initiator.hello())
    return initiator.finish(proxy.channel_public())


def search(proxy, endpoint, query, session_id="pool-session"):
    record = endpoint.encrypt(SearchRequest(query, 10).encode())
    reply = proxy.request(session_id, record)
    return SearchResponse.decode(endpoint.decrypt(reply))


def test_steady_state_needs_only_send_and_recv(small_engine):
    proxy = make_proxy(small_engine)
    endpoint = connect(proxy)
    search(proxy, endpoint, "warmup query")  # pays the one-time connect

    before = proxy.enclave.boundary_snapshot()
    for i in range(5):
        search(proxy, endpoint, f"steady state query {i}")
    delta = proxy.enclave.boundary_snapshot() - before

    assert delta.ecalls == 5
    assert delta.ocall_counts == {"send": 5, "recv": 5}
    assert "sock_connect" not in delta.ocall_counts
    assert "close" not in delta.ocall_counts


def test_pool_reuses_a_single_connection(small_engine):
    proxy = make_proxy(small_engine)
    endpoint = connect(proxy)
    for i in range(8):
        search(proxy, endpoint, f"reuse probe {i}")
    stats = proxy.perf_stats()
    assert stats["pool_connects"] == 1
    assert stats["pool_reuses"] == 7
    # Exactly one live fd on the host: the pooled connection.
    assert len(proxy.gateway._connections) == 1


def test_pool_reconnects_after_host_side_close(small_engine):
    """Re-connect-on-failure: if the host kills the pooled socket, the
    next search transparently opens a fresh one.  The stale socket
    costs exactly one visible attempt of the engine retry policy."""
    proxy = make_proxy(small_engine)
    endpoint = connect(proxy)
    search(proxy, endpoint, "before the failure")

    for fd in list(proxy.gateway._connections):
        proxy.gateway.close(fd)

    response = search(proxy, endpoint, "after the failure")
    assert response.results is not None
    stats = proxy.perf_stats()
    assert stats["pool_connects"] == 2
    assert stats["pool_disposals"] == 1
    assert stats["engine_retries"] == 1
    assert len(proxy.gateway._engine.observations) == 2


# ---------------------------------------------------------------------------
# HTTPS: the TLS channel itself is pooled — one handshake, many requests
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def engine_pki():
    ca = CertificateAuthority(1024)
    key = RsaKeyPair(1024)
    certificate = ca.issue("engine.example.com", key.public)
    return ca, TlsServerConfig(certificate=certificate, key=key)


def test_https_channel_reused_across_requests(small_engine, engine_pki):
    ca, tls_config = engine_pki
    proxy = make_proxy(small_engine, engine_ca_key=ca.public_key,
                       engine_tls_config=tls_config)
    endpoint = connect(proxy)
    search(proxy, endpoint, "tls warmup")

    before = proxy.enclave.boundary_snapshot()
    search(proxy, endpoint, "tls reuse one")
    search(proxy, endpoint, "tls reuse two")
    delta = proxy.enclave.boundary_snapshot() - before

    assert delta.ocall_counts == {"send": 2, "recv": 2}
    stats = proxy.perf_stats()
    assert stats["tls_handshakes"] == 1
    assert stats["pool_connects"] == 1
    assert len(proxy.gateway._engine.observations) == 3


def test_pooled_http_and_https_results_agree(small_engine, engine_pki):
    """The two transports of the one pooled engine path answer the same
    query with the same URLs."""
    ca, tls_config = engine_pki
    plain = make_proxy(small_engine)
    tls = make_proxy(small_engine, engine_ca_key=ca.public_key,
                     engine_tls_config=tls_config)
    plain_results = search(plain, connect(plain), "cheap hotel rome")
    tls_results = search(tls, connect(tls), "cheap hotel rome")
    assert plain_results.results
    assert [r.url for r in plain_results.results] == \
        [r.url for r in tls_results.results]
    assert tls.perf_stats()["tls_handshakes"] == 1


class BuggyEngine:
    """An engine that raises an untyped error while ``broken`` is set."""

    def __init__(self, engine):
        self.engine = engine
        self.broken = False

    def search_or(self, subqueries, limit):
        if self.broken:
            raise RuntimeError("engine bug")
        return self.engine.search_or(subqueries, limit)


def test_untyped_exchange_failure_closes_its_connection(small_engine):
    """An untyped exception inside an engine exchange fails the request
    as a scrubbed EnclaveError, and its pooled connection is closed, not
    left checked out with its host-side descriptor open."""
    engine = BuggyEngine(small_engine)
    proxy = XSearchProxyHost(engine, k=1, history_capacity=1000,
                             rng_seed=21)
    endpoint = connect(proxy)
    search(proxy, endpoint, "warmup query")
    assert proxy.gateway.open_connections() == 1
    engine.broken = True
    for i in range(3):
        with pytest.raises(EnclaveError, match="RuntimeError"):
            search(proxy, endpoint, f"buggy engine query {i}")
    assert proxy.perf_stats()["pool_disposals"] == 3
    assert proxy.gateway.open_connections() == 0
    engine.broken = False
    assert search(proxy, endpoint, "hotel rome").results
    assert proxy.gateway.open_connections() == 1
    proxy.close()
