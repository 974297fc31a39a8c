"""Topic model and Zipf sampling."""

import random

import pytest

from repro.datasets.topics import (
    BACKGROUND_TERMS,
    MODIFIERS,
    TOPIC_TERMS,
    TopicModel,
    zipf_rank,
    zipf_sampler,
)
from repro.errors import DatasetError


def test_topic_inventory():
    assert len(TOPIC_TERMS) >= 25
    for topic, words in TOPIC_TERMS.items():
        assert len(words) >= 20, topic
        assert len(set(words)) == len(words), f"duplicates in {topic}"


def test_default_model_frozen_view():
    model = TopicModel.default()
    assert model.topics == tuple(sorted(TOPIC_TERMS))
    assert model.topic_terms("travel") == tuple(TOPIC_TERMS["travel"])


def test_unknown_topic_rejected():
    with pytest.raises(DatasetError):
        TopicModel.default().topic_terms("nonsense")


def test_sample_term_membership():
    model = TopicModel.default()
    rng = random.Random(3)
    for _ in range(50):
        assert model.sample_term("health", rng) in TOPIC_TERMS["health"]


def test_all_terms_superset():
    terms = TopicModel.default().all_terms()
    assert set(MODIFIERS) <= terms
    assert set(BACKGROUND_TERMS) <= terms
    assert "hotel" in terms


def test_zipf_rank_bounds():
    rng = random.Random(1)
    ranks = [zipf_rank(10, rng) for _ in range(500)]
    assert min(ranks) >= 0 and max(ranks) <= 9


def test_zipf_rank_skew():
    rng = random.Random(1)
    ranks = [zipf_rank(20, rng, s=1.5) for _ in range(2000)]
    low = sum(1 for r in ranks if r < 5)
    high = sum(1 for r in ranks if r >= 15)
    assert low > 2 * high  # front ranks dominate


def test_zipf_rank_empty_rejected():
    with pytest.raises(DatasetError):
        zipf_rank(0, random.Random(1))
    with pytest.raises(DatasetError):
        zipf_sampler(0)
