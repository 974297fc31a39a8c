"""Micro-benchmarks of the X-Search proxy pipeline.

The components the paper's §5.3.3 performance analysis cares about:
Algorithm 1 (obfuscation + history update), Algorithm 2 (filtering),
history operations against the EPC model, and one full end-to-end private
search through the attested deployment.
"""

import random

import pytest

from repro.core.filtering import filter_results
from repro.core.history import QueryHistory
from repro.core.obfuscation import obfuscate_query
from repro.search.engine import SearchEngine


@pytest.fixture(scope="module")
def warm_history():
    history = QueryHistory(200_000)
    history.extend(f"past query number {i} term{i % 53}" for i in range(100_000))
    return history


def test_obfuscate_query_k3(benchmark, warm_history):
    rng = random.Random(1)
    result = benchmark(
        obfuscate_query, "cheap hotel rome", warm_history, 3, rng
    )
    assert result.k == 3


def test_obfuscate_query_k7(benchmark, warm_history):
    rng = random.Random(2)
    benchmark(obfuscate_query, "cheap hotel rome", warm_history, 7, rng)


def test_history_add(benchmark):
    history = QueryHistory(1_000_000)
    counter = iter(range(100_000_000))

    def add():
        history.add(f"query {next(counter)}")

    benchmark(add)


def test_history_sample(benchmark, warm_history):
    rng = random.Random(3)
    benchmark(warm_history.sample, 7, rng)


@pytest.fixture(scope="module")
def merged_page(deployment):
    engine = deployment.engine
    return engine.search_or(
        ["cheap hotel rome", "diabetes symptoms", "nfl playoffs",
         "mortgage rates"],
        20,
    )


def test_filter_results_k3(benchmark, merged_page):
    kept = benchmark(
        filter_results,
        "cheap hotel rome",
        ["diabetes symptoms", "nfl playoffs", "mortgage rates"],
        merged_page,
    )
    assert kept


K7_SUBQUERIES = [
    "cheap hotel rome", "diabetes symptoms", "nfl playoffs",
    "mortgage rates", "flight deals", "weather forecast",
    "car insurance", "recipe chicken",
]


@pytest.fixture(scope="module")
def merged_page_k7(deployment):
    # What the proxy filters on a k=7, limit=3 search: 8 pages of 3.
    return deployment.engine.search_or(K7_SUBQUERIES, 3)


def test_filter_results_k7(benchmark, merged_page_k7):
    assert len(merged_page_k7) == 24
    kept = benchmark(
        filter_results, K7_SUBQUERIES[0], K7_SUBQUERIES[1:], merged_page_k7,
    )
    assert kept


def test_end_to_end_private_search(benchmark, deployment):
    """Full chain: client → broker (AEAD) → enclave → engine → filter →
    back.  This is the in-process cost of one Figure 2 round."""
    queries = iter(f"hotel rome probe {i}" for i in range(10_000_000))

    def search():
        return deployment.client.search(next(queries), limit=10)

    results = benchmark(search)
    assert results is not None


def test_enclave_transition_overhead(benchmark, deployment):
    """An ecall that does almost nothing: isolates the boundary cost of
    the runtime (dispatch + accounting), the analogue of the paper's
    mode-transition concern."""
    enclave = deployment.proxy.enclave

    benchmark(enclave.call, "channel_public")
