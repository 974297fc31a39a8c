"""Bounded session table: handshake floods cannot exhaust the EPC."""

import pytest

from repro.core.deployment import DeploymentConfig, XSearchDeployment
from repro.core.proxy import XSearchProxyHost
from repro.crypto.channel import HandshakeInitiator
from repro.errors import EnclaveError, SessionLostError
from repro.search.tracking import TrackingSearchEngine


def make_proxy(small_engine, max_sessions):
    return XSearchProxyHost(
        TrackingSearchEngine(small_engine),
        k=1,
        history_capacity=100,
        max_sessions=max_sessions,
        rng_seed=1,
    )


def open_session(proxy, session_id):
    initiator = HandshakeInitiator()
    proxy.begin_session(session_id, initiator.hello())
    return initiator.finish(proxy.channel_public())


def test_session_table_bounded(small_engine):
    proxy = make_proxy(small_engine, max_sessions=5)
    for i in range(12):
        open_session(proxy, f"s{i}")
    sessions = proxy.enclave._instance._sessions
    assert len(sessions) == 5
    # The survivors are the most recent ones.
    assert set(sessions) == {f"s{i}" for i in range(7, 12)}


def test_evicted_session_rejected(small_engine):
    from repro.core.protocol import SearchRequest

    proxy = make_proxy(small_engine, max_sessions=2)
    first = open_session(proxy, "first")
    open_session(proxy, "second")
    open_session(proxy, "third")  # evicts "first"
    record = first.encrypt(SearchRequest("hotel", 5).encode())
    with pytest.raises(SessionLostError):
        proxy.request("first", record)


def test_evicted_client_heals_onto_a_fresh_session():
    """An evicted session is a lost session: the client's broker
    re-attests under a new id and its next search is answered."""
    config = DeploymentConfig(seed=7, k=1, proxy_options={"max_sessions": 2})
    with XSearchDeployment.create(config=config) as deployment:
        evicted = deployment.client(user_id="evicted")
        assert evicted.search("cheap hotel rome", limit=3)
        deployment.client(user_id="newer-1")
        deployment.client(user_id="newer-2")  # evicts "evicted"
        assert evicted.search("cheap hotel rome", limit=3)
        assert evicted._broker.reconnects == 1


def test_eviction_spares_the_recently_used_session():
    """The table evicts the least recently used session, not the oldest
    handshake: a session in use survives a newer handshake, and the
    idle one goes."""
    config = DeploymentConfig(seed=7, k=1, connect=False,
                              proxy_options={"max_sessions": 2})
    with XSearchDeployment.create(config=config) as deployment:
        busy = deployment.client(user_id="busy")
        idle = deployment.client(user_id="idle")
        for _ in range(3):
            assert busy.search("cheap hotel rome", limit=3)
        deployment.client(user_id="newer")    # evicts "idle"
        assert busy.search("cheap hotel rome", limit=3)
        assert idle.search("cheap hotel rome", limit=3)
        assert busy._broker.reconnects == 0
        assert idle._broker.reconnects == 1


def test_surviving_sessions_unaffected_by_eviction(small_engine):
    from repro.core.protocol import SearchRequest, SearchResponse

    proxy = make_proxy(small_engine, max_sessions=2)
    open_session(proxy, "old")
    keeper = open_session(proxy, "keeper")
    open_session(proxy, "new")  # evicts "old"
    record = keeper.encrypt(SearchRequest("hotel rome", 5).encode())
    reply = proxy.request("keeper", record)
    response = SearchResponse.decode(keeper.decrypt(reply))
    assert response.results


def test_session_memory_metered(small_engine):
    proxy = make_proxy(small_engine, max_sessions=100)
    before = proxy.enclave.memory.occupancy_bytes
    for i in range(10):
        open_session(proxy, f"m{i}")
    assert proxy.enclave.memory.occupancy_bytes > before


def test_max_sessions_validated(small_engine):
    with pytest.raises(EnclaveError):
        make_proxy(small_engine, max_sessions=0)
