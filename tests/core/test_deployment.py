"""The one-call deployment wiring (Figure 2 end to end)."""

from repro.core.deployment import XSearchDeployment


def test_deployment_searches(deployment):
    results = deployment.client.search("cheap hotel rome flight")
    assert results
    assert all(not r.url.startswith("http://engine.example.com") for r in results)


def test_engine_never_sees_user_identity(deployment):
    deployment.client.search("very identifiable medical query")
    assert deployment.tracking.observed_sources() == ["xsearch-proxy.cloud"]


def test_engine_sees_obfuscated_query(deployment):
    deployment.warm_history(
        [f"warm filler query {i}" for i in range(10)]
    )
    deployment.client.search("sensitive unique condition")
    observation = deployment.tracking.observations[-1]
    assert " OR " in observation.text
    assert "sensitive unique condition" in observation.text


def test_multiple_brokers_share_proxy(deployment):
    second = deployment.client(session_id="tenant-2")
    assert second.search("nba standings", limit=5)


def test_warm_history_counts(deployment):
    assert deployment.warm_history(["a b", "c d", "e f"]) == 3


def test_deployment_components_consistent(deployment):
    assert deployment.proxy.measurement == deployment.proxy.enclave.measurement
    assert deployment.broker.attested
