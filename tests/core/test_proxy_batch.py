"""The ``request_many`` ecall: N records, one enclave transition, and
the session as the unit of failure (``request_batch`` and ``request``
are host entry points over it)."""

import functools
import threading

import pytest

from repro.core.deployment import DeploymentConfig, XSearchDeployment
from repro.core.gateway import EngineGateway
from repro.core.protocol import (
    Ack,
    IngestRequest,
    SearchRequest,
    SearchResponse,
)
from repro.core.proxy import XSearchEnclaveCode, XSearchProxyHost
from repro.crypto.channel import HandshakeInitiator
from repro.errors import EnclaveError, EngineUnavailableError, ProtocolError
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
    assert delta.ecall_counts == {"request_many": 1}

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
        if record.direction == "ecall" and record.name == "request_many"
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
    assert delta.ecall_counts.get("request_many") == 1
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


FAILING_QUERY = "nfl playoffs"
SECRET = "secret plaintext nfl playoffs"


def fail_engine_leg(monkeypatch, error):
    """Make the engine leg of ``FAILING_QUERY`` raise ``error``."""
    complete_search = XSearchEnclaveCode._complete_search

    def engine_leg(self, request, obfuscated):
        if request.query == FAILING_QUERY:
            raise error
        return complete_search(self, request, obfuscated)

    monkeypatch.setattr(XSearchEnclaveCode, "_complete_search", engine_leg)


def search_records(endpoint, session_id, queries):
    return [(session_id, endpoint.encrypt(SearchRequest(query, 5).encode()))
            for query in queries]


def assert_next_record_served(proxy, endpoint, session_id="batch-session"):
    """The session's channel is still in step in both directions."""
    ((_, record),) = search_records(endpoint, session_id, ["hotel paris"])
    reply = proxy.request(session_id, record)
    assert SearchResponse.decode(endpoint.decrypt(reply)).results


@pytest.mark.parametrize("k", [1, 4])
def test_ready_made_batch_with_a_failing_leg_fails_as_one(
        small_engine, monkeypatch, k):
    """A one-session batch of three whose middle engine leg fails gets
    the session's error for every record and seals no reply; all three
    records were opened, so the session's next record is served."""
    fail_engine_leg(monkeypatch,
                    EngineUnavailableError("scripted engine failure"))
    proxy = XSearchProxyHost(small_engine, k=k, history_capacity=1000,
                             rng_seed=13)
    endpoint = connect(proxy)
    queries = ["hotel rome", FAILING_QUERY, "mortgage rates"]
    entries = proxy.request_many(
        search_records(endpoint, "batch-session", queries))
    assert [status for status, _ in entries] == ["err"] * 3
    assert len({id(error) for _, error in entries}) == 1
    assert isinstance(entries[0][1], EngineUnavailableError)
    assert_next_record_served(proxy, endpoint)

    with pytest.raises(EngineUnavailableError):
        proxy.request_batch(
            search_records(endpoint, "batch-session", queries))
    assert_next_record_served(proxy, endpoint)
    proxy.close()


@pytest.mark.parametrize("k", [1, 4])
def test_untyped_engine_error_on_the_direct_path_is_scrubbed(
        small_engine, monkeypatch, k):
    """An untyped exception in a lone request's engine leg surfaces as
    an EnclaveError naming only the exception type."""
    fail_engine_leg(monkeypatch, RuntimeError(SECRET))
    proxy = XSearchProxyHost(small_engine, k=k, history_capacity=1000,
                             rng_seed=13)
    endpoint = connect(proxy)
    ((_, record),) = search_records(endpoint, "batch-session",
                                    [FAILING_QUERY])
    with pytest.raises(EnclaveError) as caught:
        proxy.request("batch-session", record)
    assert "RuntimeError" in str(caught.value)
    assert SECRET not in str(caught.value)
    assert SECRET not in repr(caught.value)
    assert_next_record_served(proxy, endpoint)
    proxy.close()


@pytest.mark.parametrize("k", [1, 4])
def test_undecodable_record_fails_its_batch_and_every_record_is_opened(
        small_engine, k):
    """A record that decrypts but does not decode fails its session's
    batch; the records after it are still opened, so the session's
    receive counter matches the client's and its next record is
    served."""
    proxy = XSearchProxyHost(small_engine, k=k, history_capacity=1000,
                             rng_seed=13)
    endpoint = connect(proxy)
    batch = search_records(endpoint, "batch-session", ["hotel rome"])
    batch.append(("batch-session", endpoint.encrypt(b"not a request")))
    batch += search_records(endpoint, "batch-session", ["mortgage rates"])
    with pytest.raises(ProtocolError):
        proxy.request_batch(batch)
    assert_next_record_served(proxy, endpoint)
    proxy.close()


def test_engine_legs_run_on_the_thread_that_entered_the_ecall(
        small_engine, monkeypatch):
    """An enclave starts no threads: every engine leg of a batched
    crossing runs on the host thread that made the ``request_many``
    ecall, and no enclave-side thread exists."""
    entered, sent = [], []
    request_many = XSearchEnclaveCode.request_many
    send = EngineGateway.send

    @functools.wraps(request_many)
    def entering(self, batch):
        entered.append(threading.get_ident())
        return request_many(self, batch)

    def sending(self, fd, data):
        sent.append(threading.get_ident())
        return send(self, fd, data)

    monkeypatch.setattr(XSearchEnclaveCode, "request_many", entering)
    monkeypatch.setattr(EngineGateway, "send", sending)
    config = DeploymentConfig(seed=5, k=2, max_workers=2)
    with XSearchDeployment.create(config=config,
                                  engine=small_engine) as deployment:
        entered.clear()
        sent.clear()
        pages = deployment.client.search_batch(
            ["hotel rome", "diabetes symptoms", "nfl playoffs",
             "mortgage rates"], limit=3)
        assert len(pages) == 4
        assert entered and sent
        assert set(sent) <= set(entered)
        assert not [thread.name for thread in threading.enumerate()
                    if thread.name.startswith("xsearch-enclave-")]
