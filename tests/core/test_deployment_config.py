"""The DeploymentConfig facade: ``create(config=...)`` is the one
spelling of a deployment's settings.
"""

from __future__ import annotations

import dataclasses
import warnings

import pytest

from repro.core import DeploymentConfig, XSearchDeployment
from repro.faults import FaultPlan


# ----------------------------------------------------------------------
# The value itself
# ----------------------------------------------------------------------
def test_config_is_frozen():
    config = DeploymentConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.k = 5


def test_config_validates_its_fields():
    with pytest.raises(ValueError):
        DeploymentConfig(k=0)
    with pytest.raises(ValueError):
        DeploymentConfig(history_capacity=0)
    with pytest.raises(ValueError):
        DeploymentConfig(replicas=0)
    with pytest.raises(ValueError):
        DeploymentConfig(max_workers=0)
    with pytest.raises(ValueError):
        DeploymentConfig(vnodes=0)
    with pytest.raises(ValueError):
        DeploymentConfig(failover_threshold=0)


def test_config_owns_copies_of_its_dicts():
    options = {"checkpoint_interval": 5}
    config = DeploymentConfig(proxy_options=options)
    options["checkpoint_interval"] = 99
    assert config.proxy_options["checkpoint_interval"] == 5


def test_replace_builds_a_new_value():
    base = DeploymentConfig(k=2, seed=7)
    grown = base.replace(replicas=4)
    assert grown.replicas == 4 and grown.k == 2 and grown.seed == 7
    assert base.replicas == 1  # untouched


def test_concurrent_property_tracks_max_workers():
    assert not DeploymentConfig().concurrent
    assert DeploymentConfig(max_workers=2).concurrent


# ----------------------------------------------------------------------
# create(config=...)
# ----------------------------------------------------------------------
def test_config_path_does_not_warn():
    config = DeploymentConfig(seed=11, k=3, connect=False)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with XSearchDeployment.create(config=config) as deployment:
            assert deployment.config == config
    assert not [w for w in caught
                if issubclass(w.category, DeprecationWarning)]


def test_proxy_passthroughs_ride_in_proxy_options():
    plan = FaultPlan(seed=0)
    config = DeploymentConfig(
        seed=11, k=2, connect=False,
        proxy_options={"fault_plan": plan, "checkpoint_interval": 5},
    )
    with XSearchDeployment.create(config=config) as deployment:
        assert deployment.proxy._fault_plan is plan
        assert deployment.proxy._checkpoint_interval == 5


# ----------------------------------------------------------------------
# Uniform cluster surface
# ----------------------------------------------------------------------
def test_single_replica_deployment_keeps_the_classic_frontend():
    config = DeploymentConfig(seed=11, k=2, connect=False)
    with XSearchDeployment.create(config=config) as deployment:
        assert deployment.cluster.size == 1
        # replicas=1 must stay byte-identical to previous releases: the
        # frontend is the proxy itself, not the router.
        assert deployment.frontend is deployment.proxy


def test_multi_replica_deployment_fronts_the_router():
    config = DeploymentConfig(seed=11, k=2, replicas=2, connect=False)
    with XSearchDeployment.create(config=config) as deployment:
        assert deployment.cluster.size == 2
        assert deployment.frontend is deployment.cluster.router
        assert deployment.proxy is deployment.cluster.replicas[0].proxy


def test_replicas_share_the_measurement_and_attestation_plane():
    config = DeploymentConfig(seed=11, k=2, replicas=3, connect=False)
    with XSearchDeployment.create(config=config) as deployment:
        measurements = {
            bytes(h.measurement.value)
            if hasattr(h.measurement, "value") else repr(h.measurement)
            for h in deployment.cluster.replicas
        }
        assert len(measurements) == 1
        client = deployment.client(user_id="any")
        assert client._broker.attested
