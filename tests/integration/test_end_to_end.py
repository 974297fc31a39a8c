"""End-to-end scenarios across the whole stack."""

import random

import pytest

from repro.baselines.direct import DirectClient
from repro.baselines.peas import PeasSystem
from repro.baselines.tor import TorNetwork
from repro.core.deployment import DeploymentConfig, XSearchDeployment
from repro.metrics.accuracy import precision_recall
from repro.search.tracking import TrackingSearchEngine


def test_full_session_lifecycle(deployment):
    """Figure 2's six steps, observed end to end."""
    deployment.warm_history([f"session warm {i}" for i in range(20)])
    before = len(deployment.tracking.observations)
    results = deployment.client.search("cheap hotel rome flight", limit=10)
    # 6) The user got relevant, cleaned results.
    assert results
    assert all("redirect?target=" not in r.url for r in results)
    # 4) Exactly one (obfuscated) query hit the engine.
    assert len(deployment.tracking.observations) == before + 1
    observation = deployment.tracking.observations[-1]
    assert observation.text.count(" OR ") == deployment.proxy.k
    # The proxy's identity, never the user's.
    assert observation.source == "xsearch-proxy.cloud"


def test_xsearch_accuracy_against_direct_results(deployment):
    """The filtered page largely matches what Direct would have returned."""
    deployment.warm_history(
        [f"warm noise {i} padding" for i in range(30)]
    )
    query = "diabetes symptoms treatment"
    direct = deployment.engine.search(query, 20)
    private = deployment.client.search(query, limit=20)
    precision, recall = precision_recall(direct, private)
    assert recall > 0.5
    assert precision > 0.5


def test_three_systems_side_by_side(small_engine):
    """Direct, Tor and X-Search on the same engine: what the engine learns."""
    tracking = TrackingSearchEngine(small_engine)
    query = "cheap hotel rome"

    DirectClient(tracking, user_id="alice").search(query, 5)
    direct_view = tracking.observations[-1]

    tor = TorNetwork(tracking, n_relays=5, n_exits=1, key_bits=1024)
    tor.client("alice", rng=random.Random(1)).search(query, 5)
    tor_view = tracking.observations[-1]

    deployment = XSearchDeployment.create(
        config=DeploymentConfig(k=2, seed=5, history_capacity=1000),
        engine=small_engine,
    )
    deployment.warm_history([f"warm {i} queries" for i in range(10)])
    deployment.client.search(query, limit=5)
    xsearch_view = deployment.tracking.observations[-1]

    # Direct: identity + query. Tor: query only. X-Search: neither.
    assert direct_view.source == "ip-alice" and direct_view.text == query
    assert tor_view.source.startswith("relay-") and tor_view.text == query
    assert xsearch_view.source == "xsearch-proxy.cloud"
    assert xsearch_view.text != query and query in xsearch_view.text


def test_peas_and_xsearch_results_comparable(small_engine, split_log):
    train, _ = split_log
    tracking = TrackingSearchEngine(small_engine)
    peas = PeasSystem.create(tracking, [q.text for q in train][:2000])
    peas_client = peas.client("bob", k=2, rng=random.Random(3))

    query = "cheap hotel rome"
    reference = small_engine.search(query, 20)
    peas_results = peas_client.search(query, 20)
    precision, recall = precision_recall(reference, peas_results)
    assert recall > 0.4


def test_history_is_shared_across_sessions(small_engine):
    """A query sent by one client can later serve as another's fake."""
    deployment = XSearchDeployment.create(
        config=DeploymentConfig(k=3, seed=21, history_capacity=1000),
        engine=small_engine,
    )
    tenant = deployment.client(session_id="cross-session")
    marker = "crosssessionmarker999"
    tenant.search(marker, limit=5)
    # The history holds only the marker (plus the probes as they stream),
    # so the marker must quickly appear as a fake in another session.
    hits = 0
    for i in range(25):
        deployment.client.search(f"probe {i} hotel", limit=5)
        observed = deployment.tracking.observations[-1].text
        if marker in observed and f"probe {i} hotel" in observed:
            hits += 1
    assert hits > 0
