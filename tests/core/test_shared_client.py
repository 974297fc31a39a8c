"""A client shared by threads: its broker serialises its own requests.

The channel's nonces are strict counters, so two threads that seal
records on one session must not let them reach the enclave out of
order.  Every search of every thread must end in a reply, in process
and over the wire.
"""

from __future__ import annotations

import threading
from collections import Counter

import pytest

from repro.core.deployment import DeploymentConfig, XSearchDeployment
from repro.errors import ReproError
from repro.netserve.client import RemoteClient
from repro.netserve.server import XSearchServer

QUERIES = ("cheap hotel rome", "nfl playoffs", "diabetes symptoms",
           "mortgage rates")
SEARCHES_PER_THREAD = 40


def hammer(client, threads: int, searches: int = SEARCHES_PER_THREAD):
    """Run ``searches`` searches on each of ``threads`` threads sharing
    ``client``; returns a Counter of outcomes ("reply" or error type)."""
    outcomes = Counter()
    outcomes_lock = threading.Lock()
    start = threading.Barrier(threads)

    def run(worker: int) -> None:
        start.wait()
        for index in range(searches):
            query = QUERIES[(worker + index) % len(QUERIES)]
            try:
                client.search(query, limit=3)
                outcome = "reply"
            except ReproError as exc:
                outcome = type(exc).__name__
            with outcomes_lock:
                outcomes[outcome] += 1

    workers = [threading.Thread(target=run, args=(worker,), daemon=True)
               for worker in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=120)
    assert not any(worker.is_alive() for worker in workers)
    return outcomes


@pytest.fixture(scope="module")
def deployment():
    with XSearchDeployment.create(
        config=DeploymentConfig(seed=7, k=2, max_workers=2)
    ) as deployment:
        yield deployment


@pytest.mark.parametrize("threads", [2, 4])
def test_threads_sharing_one_client_all_get_replies(deployment, threads):
    client = deployment.client(user_id=f"shared-{threads}")
    outcomes = hammer(client, threads)
    assert outcomes == Counter(reply=threads * SEARCHES_PER_THREAD)
    assert client.queries_sent == threads * SEARCHES_PER_THREAD


def test_threads_sharing_a_lazy_client_connect_once(deployment):
    client = deployment.client(user_id="shared-lazy", connect=False)
    outcomes = hammer(client, 4, searches=3)
    assert outcomes == Counter(reply=12)
    assert client._broker.reconnects == 0


@pytest.mark.parametrize("threads", [2, 4])
def test_threads_sharing_one_remote_client_all_get_replies(deployment,
                                                           threads):
    with XSearchServer(deployment, idle_timeout=None) as server:
        with RemoteClient(
            server.address,
            service_public_key=deployment.attestation_service.public_key,
            expected_measurement=deployment.proxy.measurement,
            user_id=f"remote-shared-{threads}",
        ) as client:
            outcomes = hammer(client, threads)
            assert outcomes == Counter(
                reply=threads * SEARCHES_PER_THREAD)
            assert client.broker.reconnects == 0
