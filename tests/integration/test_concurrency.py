"""The multi-threaded proxy of §4.1: 'the query table is kept in memory
and shared among all threads'.

Several attested client sessions hammer one proxy from concurrent threads;
everything must stay consistent — no lost responses, no cross-session
plaintext, bounded history.
"""

import threading

import pytest

from repro.core.broker import Broker
from repro.core.proxy import XSearchProxyHost
from repro.search.tracking import TrackingSearchEngine
from repro.sgx.attestation import AttestationService, QuotingEnclave

N_CLIENTS = 6
QUERIES_PER_CLIENT = 15


@pytest.fixture()
def stack(small_engine):
    service = AttestationService(1024)
    quoting_enclave = QuotingEnclave(1024)
    service.provision_platform(quoting_enclave)
    proxy = XSearchProxyHost(
        TrackingSearchEngine(small_engine),
        k=2,
        history_capacity=200,
        quoting_enclave=quoting_enclave,
        attestation_service=service,
        rng_seed=2,
    )
    return service, proxy


def test_concurrent_sessions(stack):
    service, proxy = stack
    errors = []
    results_by_client = {}

    def client_worker(index):
        try:
            broker = Broker(
                proxy,
                service_public_key=service.public_key,
                expected_measurement=proxy.measurement,
                session_id=f"client-{index}",
            )
            broker.connect()
            collected = []
            for i in range(QUERIES_PER_CLIENT):
                results = broker.search(f"hotel rome probe {index} {i}", limit=5)
                collected.append(results)
            results_by_client[index] = collected
        except Exception as exc:  # pragma: no cover - must not happen
            errors.append((index, exc))

    threads = [
        threading.Thread(target=client_worker, args=(i,))
        for i in range(N_CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert not errors, errors
    # Every client got a response for every query.
    assert len(results_by_client) == N_CLIENTS
    for collected in results_by_client.values():
        assert len(collected) == QUERIES_PER_CLIENT

    tracking = proxy.gateway._engine
    # Exactly one engine request per search, all from the proxy identity.
    assert len(tracking.observations) == N_CLIENTS * QUERIES_PER_CLIENT
    assert tracking.observed_sources() == ["xsearch-proxy.cloud"]

    # The shared history stayed within its bound.
    history = proxy.enclave._instance._history
    assert len(history) <= 200


def test_concurrent_sessions_see_each_others_fakes(stack):
    """The privacy payoff of sharing the table: queries of one session
    appear as fakes in another's obfuscated queries."""
    service, proxy = stack
    markers = {f"sharedmarker{i}zz" for i in range(N_CLIENTS)}

    def client_worker(index):
        broker = Broker(
            proxy,
            service_public_key=service.public_key,
            expected_measurement=proxy.measurement,
            session_id=f"m-{index}",
        )
        broker.connect()
        broker.search(f"sharedmarker{index}zz", limit=5)
        for i in range(10):
            broker.search(f"followup {index} {i}", limit=5)

    threads = [
        threading.Thread(target=client_worker, args=(i,))
        for i in range(N_CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    tracking = proxy.gateway._engine
    cross_session = 0
    for observation in tracking.observations:
        subqueries = observation.text.split(" OR ")
        present = markers & set(subqueries)
        # A marker appearing in an observation whose real query belongs to
        # a different session proves table sharing.
        for marker in present:
            if not any(marker in s and "followup" not in s
                       for s in subqueries[:1]):
                pass
        if present and any("followup" in s for s in subqueries):
            cross_session += 1
    assert cross_session > 0
