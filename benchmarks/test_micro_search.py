"""Micro-benchmarks of the search-engine substrate."""

import pytest

from repro.search import CorpusConfig, SearchEngine


@pytest.fixture(scope="module")
def engine():
    return SearchEngine.with_synthetic_corpus(seed=2)


def test_engine_single_query(benchmark, engine):
    results = benchmark(engine.search, "cheap hotel rome flight", 20)
    assert results


def test_engine_or_query_k3(benchmark, engine):
    results = benchmark(
        engine.search_or,
        ["cheap hotel rome", "diabetes symptoms", "nfl playoffs",
         "mortgage refinance"],
        20,
    )
    assert results


def test_engine_or_query_k7_limit3(benchmark, engine):
    """The engine's share of one k=7, limit=3 private search."""
    results = benchmark(
        engine.search_or,
        ["cheap hotel rome", "diabetes symptoms", "nfl playoffs",
         "mortgage rates", "flight deals", "weather forecast",
         "car insurance", "recipe chicken"],
        3,
    )
    assert results


def test_engine_build(benchmark):
    engine = benchmark.pedantic(
        SearchEngine.with_synthetic_corpus,
        kwargs={"seed": 5, "config": CorpusConfig(docs_per_topic=30)},
        rounds=1,
        iterations=1,
    )
    assert engine.n_documents > 0
