"""The ``request_batch`` ecall: N records, one enclave transition."""

import pytest

from repro.core.protocol import (
    Ack,
    IngestRequest,
    SearchRequest,
    SearchResponse,
)
from repro.core.proxy import XSearchProxyHost
from repro.crypto.channel import HandshakeInitiator
from repro.errors import EnclaveError
from repro.search.tracking import TrackingSearchEngine


@pytest.fixture()
def proxy(small_engine):
    return XSearchProxyHost(
        TrackingSearchEngine(small_engine), k=1, history_capacity=1000,
        rng_seed=13,
    )


def connect(proxy, session_id="batch-session"):
    initiator = HandshakeInitiator()
    proxy.begin_session(session_id, initiator.hello())
    return initiator.finish(proxy.channel_public())


def test_batch_serves_all_records_in_order(proxy):
    endpoint = connect(proxy)
    queries = [f"hotel rome {i}" for i in range(4)]
    batch = [
        ("batch-session",
         endpoint.encrypt(SearchRequest(query, 5).encode()))
        for query in queries
    ]
    replies = proxy.request_batch(batch)
    assert len(replies) == 4
    for reply in replies:
        response = SearchResponse.decode(endpoint.decrypt(reply))
        assert response.results is not None


def test_batch_pays_one_ecall_for_n_records(proxy):
    endpoint = connect(proxy)
    batch = [
        ("batch-session",
         endpoint.encrypt(SearchRequest(f"probe {i}", 5).encode()))
        for i in range(8)
    ]
    before = proxy.enclave.boundary_snapshot()
    proxy.request_batch(batch)
    delta = proxy.enclave.boundary_snapshot() - before
    assert delta.ecalls == 1
    assert delta.ecall_counts == {"request_batch": 1}

    # The same traffic as singles costs 8 ecalls.
    endpoint2 = connect(proxy, "single-session")
    before = proxy.enclave.boundary_snapshot()
    for i in range(8):
        record = endpoint2.encrypt(SearchRequest(f"single {i}", 5).encode())
        proxy.request("single-session", record)
    delta_singles = proxy.enclave.boundary_snapshot() - before
    assert delta_singles.ecalls == 8


def test_batch_mixes_ingest_and_search(proxy):
    endpoint = connect(proxy)
    batch = [
        ("batch-session", endpoint.encrypt(
            IngestRequest(("past one", "past two")).encode())),
        ("batch-session", endpoint.encrypt(
            SearchRequest("hotel rome", 5).encode())),
    ]
    ack_reply, search_reply = proxy.request_batch(batch)
    assert Ack.decode(endpoint.decrypt(ack_reply)).count == 2
    assert SearchResponse.decode(endpoint.decrypt(search_reply)) is not None


def test_empty_batch_returns_empty_tuple(proxy):
    assert proxy.request_batch([]) == ()


def test_batch_with_unknown_session_fails(proxy):
    endpoint = connect(proxy)
    batch = [
        ("ghost-session",
         endpoint.encrypt(SearchRequest("hotel", 5).encode())),
    ]
    with pytest.raises(EnclaveError):
        proxy.request_batch(batch)


def test_batch_records_stay_ciphertext_at_the_boundary(proxy):
    """The batched records cross the boundary as AEAD ciphertext: the
    plaintext query must not appear in the recorded ecall payload."""
    endpoint = connect(proxy)
    secret = "batchedsecretillness99"
    batch = [
        ("batch-session",
         endpoint.encrypt(SearchRequest(secret, 5).encode())),
    ]
    proxy.request_batch(batch)
    payloads = [
        record.payload for record in proxy.enclave.boundary_log
        if record.direction == "ecall" and record.name == "request_batch"
    ]
    assert payloads  # the record ciphertext was captured...
    for payload in payloads:
        assert secret.encode() not in payload  # ...and is not plaintext


def test_client_search_batch_end_to_end(deployment):
    """Through the full attested stack: client → broker → request_batch."""
    queries = ["cheap hotel rome", "diabetes symptoms", "nfl playoffs"]
    before = deployment.proxy.enclave.boundary_snapshot()
    batches = deployment.client.search_batch(queries, limit=5)
    delta = deployment.proxy.enclave.boundary_snapshot() - before
    assert len(batches) == 3
    assert delta.ecall_counts.get("request_batch") == 1
    for results in batches:
        assert isinstance(results, list)


def test_client_search_batch_rejects_blank_queries(deployment):
    from repro.errors import ProtocolError

    with pytest.raises(ProtocolError):
        deployment.client.search_batch(["ok", "  "])


def test_client_empty_batch_is_free(deployment):
    """``search_batch([])`` returns ``[]`` without paying a single ecall."""
    before = deployment.proxy.enclave.boundary_snapshot()
    assert deployment.client.search_batch([]) == []
    delta = deployment.proxy.enclave.boundary_snapshot() - before
    assert delta.ecalls == 0
    assert delta.ocalls == 0
