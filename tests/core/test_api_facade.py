"""The redesigned deployment/client API surface.

One facade: ``with XSearchDeployment.create(...) as deployment`` gives a
context-managed system whose ``client`` attribute is both the default
client and a factory for more (``deployment.client(user_id=...)``).
"""

import pytest

from repro.core.broker import Broker
from repro.core.client import XSearchClient
from repro.core.deployment import DeploymentConfig, XSearchDeployment
from repro.core.retry import RetryPolicy
from repro.netserve.client import RemoteClient


@pytest.fixture()
def deployment():
    with XSearchDeployment.create(
            config=DeploymentConfig(seed=21, k=2)) as deployment:
        yield deployment


# ----------------------------------------------------------------------
# Context management and teardown
# ----------------------------------------------------------------------
def test_context_manager_closes_the_proxy():
    with XSearchDeployment.create(
            config=DeploymentConfig(seed=21)) as deployment:
        deployment.client.search("inside the block", limit=5)
    from repro.errors import EnclaveError

    with pytest.raises(EnclaveError):
        deployment.proxy.perf_stats()


def test_close_drains_the_connection_pool():
    deployment = XSearchDeployment.create(config=DeploymentConfig(seed=21))
    deployment.client.search("warm the pool", limit=5)
    stats = deployment.proxy.perf_stats()
    assert stats["pool_connects"] >= 1
    assert stats["pool_disposals"] == 0
    deployment.close()
    # The pooled engine socket was closed host-side on shutdown.
    assert not deployment.proxy.gateway.open_connections()


# ----------------------------------------------------------------------
# The client facade
# ----------------------------------------------------------------------
def test_client_attribute_is_the_default_client(deployment):
    results = deployment.client.search("facade query", limit=5)
    assert isinstance(results, list)
    assert deployment.client.queries_sent == 1
    assert deployment.client.user_id == "local-user"


def test_client_is_callable_and_mints_new_sessions(deployment):
    alice = deployment.client(user_id="alice")
    bob = deployment.client(user_id="bob")
    assert isinstance(alice, XSearchClient)
    assert alice.user_id == "alice"
    assert alice._broker is not bob._broker
    assert alice._broker is not deployment.broker

    marker = "facade multi tenant marker"
    alice.search(marker, limit=5)
    assert alice.queries_sent == 1
    assert deployment.client.queries_sent == 0  # default client untouched

    # All sessions share one proxy (and so one obfuscation history).
    bob.search("second tenant query", limit=5)
    assert deployment.proxy.perf_stats()["engine_requests"] >= 2


def test_minted_client_can_defer_connection(deployment):
    lazy = deployment.client(user_id="lazy", connect=False)
    assert not lazy._broker.is_connected
    lazy.search("connects on demand", limit=5)
    assert lazy._broker.is_connected


# ----------------------------------------------------------------------
# Uniform keyword-only call surface
# ----------------------------------------------------------------------
def test_search_accepts_timeout_and_retry_policy(deployment):
    results = deployment.client.search(
        "uniform kwargs", limit=5, timeout=30.0,
        retry_policy=RetryPolicy(max_attempts=2),
    )
    assert isinstance(results, list)
    batches = deployment.client.search_batch(
        ["one query", "two query"], limit=5, timeout=30.0,
        retry_policy=RetryPolicy(max_attempts=2),
    )
    assert len(batches) == 2


@pytest.mark.parametrize("method", ["search", "search_batch"])
@pytest.mark.parametrize("cls", [XSearchClient, Broker, RemoteClient],
                         ids=lambda cls: cls.__name__)
def test_limit_is_keyword_only_going_forward(cls, method):
    # Arguments bind before the body runs, so no live instance is needed.
    with pytest.raises(TypeError):
        getattr(cls, method)(None, "query", 5)


# ----------------------------------------------------------------------
# Empty batches cost nothing
# ----------------------------------------------------------------------
def test_empty_batch_short_circuits_everywhere(deployment):
    before = deployment.proxy.enclave.boundary_snapshot()
    assert deployment.client.search_batch([]) == []
    assert deployment.broker.search_batch([]) == []
    assert deployment.proxy.request_batch([]) == ()
    delta = deployment.proxy.enclave.boundary_snapshot() - before
    assert delta.ecalls == 0
