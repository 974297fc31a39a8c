"""The X-Search proxy: enclave pipeline and security boundaries."""

import pytest

from repro.core.broker import Broker
from repro.core.protocol import SearchRequest
from repro.core.proxy import XSearchProxyHost
from repro.crypto.channel import HandshakeInitiator
from repro.errors import EnclaveError
from repro.search.tracking import TrackingSearchEngine
from repro.sgx.attestation import AttestationService, QuotingEnclave


@pytest.fixture(scope="module")
def attestation():
    service = AttestationService(1024)
    quoting_enclave = QuotingEnclave(1024)
    service.provision_platform(quoting_enclave)
    return service, quoting_enclave


@pytest.fixture()
def proxy(small_engine, attestation):
    service, quoting_enclave = attestation
    return XSearchProxyHost(
        TrackingSearchEngine(small_engine),
        k=2,
        history_capacity=1000,
        quoting_enclave=quoting_enclave,
        attestation_service=service,
        rng_seed=5,
    )


def connect_session(proxy, session_id="session-1"):
    initiator = HandshakeInitiator()
    proxy.begin_session(session_id, initiator.hello())
    return initiator.finish(proxy.channel_public())


def test_end_to_end_request(proxy):
    endpoint = connect_session(proxy)
    record = endpoint.encrypt(SearchRequest("cheap hotel rome", 10).encode())
    reply = proxy.request("session-1", record)
    from repro.core.protocol import SearchResponse

    response = SearchResponse.decode(endpoint.decrypt(reply))
    assert response.results
    assert all("redirect?target=" not in r.url for r in response.results)


def test_unknown_session_rejected(proxy):
    with pytest.raises(EnclaveError):
        proxy.request("ghost", b"\x00" * 64)


def test_duplicate_session_rejected(proxy):
    connect_session(proxy, "dup")
    with pytest.raises(EnclaveError):
        connect_session(proxy, "dup")


def test_double_init_rejected(proxy):
    with pytest.raises(EnclaveError):
        proxy.enclave.call("init", k=1, history_capacity=10)


def test_negative_k_rejected(small_engine):
    with pytest.raises(EnclaveError):
        XSearchProxyHost(TrackingSearchEngine(small_engine), k=-1)


def test_history_grows_with_requests(proxy):
    endpoint = connect_session(proxy, "hist")
    occupancy_before = proxy.enclave.memory.occupancy_bytes
    for i in range(3):
        record = endpoint.encrypt(
            SearchRequest(f"unique probe {i}", 5).encode()
        )
        proxy.request("hist", record)
    assert proxy.enclave.memory.occupancy_bytes > occupancy_before


def test_attestation_config_required(small_engine):
    host = XSearchProxyHost(TrackingSearchEngine(small_engine), k=1)
    with pytest.raises(EnclaveError):
        host.attestation_evidence("no-infra")


def test_k_and_capacity_change_measurement(small_engine, attestation):
    service, quoting_enclave = attestation

    def make(k, capacity):
        return XSearchProxyHost(
            TrackingSearchEngine(small_engine), k=k,
            history_capacity=capacity,
        ).measurement

    assert make(1, 100) != make(2, 100)
    assert make(1, 100) != make(1, 200)
    assert make(1, 100) == make(1, 100)


# ---------------------------------------------------------------------------
# The security property of Figure 2: the host and the engine only ever see
# ciphertext or the (k+1)-way obfuscated query.
# ---------------------------------------------------------------------------

def warm(proxy, endpoint, session_id, count=10):
    from repro.core.protocol import IngestRequest

    record = endpoint.encrypt(
        IngestRequest(
            tuple(f"filler traffic {i}" for i in range(count))
        ).encode()
    )
    proxy.request(session_id, record)


def test_plaintext_query_never_crosses_boundary_alone(proxy):
    endpoint = connect_session(proxy, "sec")
    warm(proxy, endpoint, "sec")
    # Single token so URL encoding cannot disguise it at the boundary.
    secret = "myuniqueillness747"
    record = endpoint.encrypt(SearchRequest(secret, 10).encode())
    proxy.request("sec", record)

    seen_in_or_query = False
    for crossing in proxy.enclave.boundary_log:
        payload = crossing.payload
        if not payload or secret.encode() not in payload:
            continue
        # The only legitimate appearance: embedded in the OR query the
        # enclave sends out for search, flanked by k fakes.
        assert crossing.direction == "ocall"
        assert crossing.name == "send"
        assert payload.count(b"+OR+") >= proxy.k
        seen_in_or_query = True
    assert seen_in_or_query


def test_ecall_records_are_ciphertext(proxy):
    endpoint = connect_session(proxy, "sec2")
    secret = "another confidential query"
    record = endpoint.encrypt(SearchRequest(secret, 10).encode())
    proxy.request("sec2", record)
    ecall_payloads = [
        c.payload for c in proxy.enclave.boundary_log
        if c.direction == "ecall" and c.name == "request_many"
    ]
    assert ecall_payloads
    for payload in ecall_payloads:
        assert secret.encode() not in payload


def test_engine_sees_only_proxy_source_and_or_query(proxy):
    endpoint = connect_session(proxy, "sec3")
    warm(proxy, endpoint, "sec3")
    secret = "observable unique illness"
    record = endpoint.encrypt(SearchRequest(secret, 10).encode())
    proxy.request("sec3", record)
    tracking = proxy.gateway._engine
    observation = tracking.observations[-1]
    assert observation.source == "xsearch-proxy.cloud"
    assert secret in observation.text
    assert observation.text.count(" OR ") == proxy.k
