"""Persistent engine connections: ocall accounting and failure recovery.

The tentpole of the hot-path overhaul: the enclave keeps engine sockets
(and established TLS channels) alive across requests, so the steady
state pays only ``send`` + ``recv`` per search instead of the full
``sock_connect``/``send``/``recv``/``recv``/``close`` sequence.
"""

import pytest

from repro.core.gateway import TlsServerConfig
from repro.core.protocol import SearchRequest, SearchResponse
from repro.core.proxy import XSearchProxyHost
from repro.crypto.channel import HandshakeInitiator
from repro.crypto.https import CertificateAuthority
from repro.crypto.rsa import RsaKeyPair
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


def test_baseline_reconnects_per_request(small_engine):
    """pool_connections=False restores the paper-naive per-request path:
    connect + send + data recv + end-of-response recv + close."""
    proxy = make_proxy(small_engine, pool_connections=False)
    endpoint = connect(proxy)
    search(proxy, endpoint, "warmup query")

    before = proxy.enclave.boundary_snapshot()
    for i in range(5):
        search(proxy, endpoint, f"baseline query {i}")
    delta = proxy.enclave.boundary_snapshot() - before

    assert delta.ocall_counts["sock_connect"] == 5
    assert delta.ocall_counts["close"] == 5
    assert delta.ocall_counts["send"] == 5
    assert delta.ocall_counts["recv"] == 10  # data + empty terminator
    assert delta.ocalls == 25


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
    next search transparently opens a fresh one."""
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
    assert len(proxy.gateway._engine.observations) == 2


def test_pooled_and_baseline_results_agree(small_engine):
    pooled = make_proxy(small_engine)
    baseline = make_proxy(small_engine, pool_connections=False)
    pooled_results = search(pooled, connect(pooled), "cheap hotel rome")
    baseline_results = search(baseline, connect(baseline), "cheap hotel rome")
    assert [r.url for r in pooled_results.results] == \
        [r.url for r in baseline_results.results]


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


def test_https_baseline_handshakes_per_request(small_engine, engine_pki):
    ca, tls_config = engine_pki
    proxy = make_proxy(small_engine, engine_ca_key=ca.public_key,
                       engine_tls_config=tls_config,
                       pool_connections=False)
    endpoint = connect(proxy)
    search(proxy, endpoint, "tls baseline one")
    search(proxy, endpoint, "tls baseline two")
    assert proxy.perf_stats()["tls_handshakes"] == 2
