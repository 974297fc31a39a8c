"""Shared fixtures: small-but-realistic instances of every substrate.

Session-scoped where construction is expensive (dataset, engine, RSA
attestation keys) — all consumers treat them as read-only or create their
own mutable views.
"""

from __future__ import annotations

import random

import pytest

from repro.core.deployment import DeploymentConfig, XSearchDeployment
from repro.datasets import AolStyleGenerator, GeneratorConfig, train_test_split
from repro.experiments.context import ContextConfig, ExperimentContext
from repro.search import CorpusConfig, SearchEngine, TrackingSearchEngine


@pytest.fixture(scope="session")
def small_log():
    """A compact query log: 60 users, deterministic."""
    config = GeneratorConfig(n_users=60, mean_queries_per_user=40.0)
    return AolStyleGenerator(config, seed=7).generate()


@pytest.fixture(scope="session")
def split_log(small_log):
    return train_test_split(small_log)


@pytest.fixture(scope="session")
def small_engine():
    """A compact search engine (fewer docs per topic for speed)."""
    return SearchEngine.with_synthetic_corpus(
        seed=3, config=CorpusConfig(docs_per_topic=40)
    )


@pytest.fixture()
def tracking_engine(small_engine):
    return TrackingSearchEngine(small_engine)


@pytest.fixture(scope="session")
def deployment():
    """A fully wired X-Search deployment (shared; treat as append-only)."""
    return XSearchDeployment.create(config=DeploymentConfig(
        k=2, seed=11, history_capacity=10_000))


@pytest.fixture(scope="session")
def fast_context():
    """Experiment context at CI scale."""
    return ExperimentContext(ContextConfig.fast())


@pytest.fixture()
def rng():
    return random.Random(1234)
