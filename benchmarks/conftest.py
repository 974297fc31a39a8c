"""Benchmark fixtures: shared CI-scale experiment state.

Each ``test_figN_*`` benchmark regenerates the corresponding figure of the
paper (at reduced scale, same methodology) and prints its series, so
``pytest benchmarks/ --benchmark-only -s`` doubles as the reproduction
harness.  Paper-scale runs go through ``xsearch-experiments all``.
"""

from __future__ import annotations

import pytest

from repro.core.deployment import DeploymentConfig, XSearchDeployment
from repro.experiments.context import ContextConfig, ExperimentContext


@pytest.fixture(scope="session")
def context():
    return ExperimentContext(ContextConfig.fast())


@pytest.fixture(scope="session")
def deployment():
    deployment = XSearchDeployment.create(config=DeploymentConfig(
        k=3, seed=17, history_capacity=50_000))
    deployment.warm_history(
        [f"warm background traffic {i} term{i % 97}" for i in range(500)]
    )
    return deployment
