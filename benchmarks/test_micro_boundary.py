"""Boundary-crossing micro-benchmarks: what the hot-path overhaul buys.

Measured through the enclave's ``boundary_snapshot()`` API rather than
wall-clock time, because in the simulated runtime the interesting cost is
the number of mode transitions (§5.3.3): 8,000 cycles per ecall and
8,300 per ocall at 3.4 GHz dwarf the in-enclave compute.

Two effects, each benchmarked against its per-request baseline:

* connection pooling — steady-state searches pay ``send`` + ``recv``
  instead of ``sock_connect``/``send``/``recv``/``recv``/``close``;
* batched ecalls — N proxied records amortise one ecall transition.
"""

import pytest

from repro.core.protocol import SearchRequest, SearchResponse
from repro.core.proxy import XSearchProxyHost
from repro.crypto.channel import HandshakeInitiator
from repro.search import CorpusConfig, SearchEngine, TrackingSearchEngine

SESSION = "bench-session"
ROUNDS = 32


@pytest.fixture(scope="module")
def engine():
    return SearchEngine.with_synthetic_corpus(
        seed=5, config=CorpusConfig(docs_per_topic=40)
    )


def make_proxy(engine, **kwargs):
    kwargs.setdefault("k", 1)
    kwargs.setdefault("history_capacity", 10_000)
    kwargs.setdefault("rng_seed", 31)
    return XSearchProxyHost(TrackingSearchEngine(engine), **kwargs)


def connect(proxy):
    initiator = HandshakeInitiator()
    proxy.begin_session(SESSION, initiator.hello())
    return initiator.finish(proxy.channel_public())


def search(proxy, endpoint, query):
    record = endpoint.encrypt(SearchRequest(query, 10).encode())
    reply = proxy.request(SESSION, record)
    return SearchResponse.decode(endpoint.decrypt(reply))


def ocalls_per_search(proxy, endpoint, tag, rounds=ROUNDS):
    search(proxy, endpoint, f"{tag} warmup")  # one-time connect
    before = proxy.enclave.boundary_snapshot()
    for i in range(rounds):
        search(proxy, endpoint, f"{tag} probe {i}")
    delta = proxy.enclave.boundary_snapshot() - before
    return delta.ocalls / rounds, delta


def test_pooling_halves_ocalls_per_search(benchmark, engine):
    """The headline number: >= 2x fewer ocalls per search with the pool."""
    pooled = make_proxy(engine)
    baseline = make_proxy(engine, pool_connections=False)
    pooled_endpoint = connect(pooled)
    baseline_endpoint = connect(baseline)

    pooled_rate, pooled_delta = ocalls_per_search(
        pooled, pooled_endpoint, "pooled")
    baseline_rate, baseline_delta = ocalls_per_search(
        baseline, baseline_endpoint, "baseline")

    assert pooled_rate > 0
    assert baseline_rate >= 2 * pooled_rate
    assert pooled_delta.ocall_counts == {"send": ROUNDS, "recv": ROUNDS}
    assert "sock_connect" not in pooled_delta.ocall_counts

    queries = iter(f"pooled timing probe {i}" for i in range(10_000_000))
    benchmark(lambda: search(pooled, pooled_endpoint, next(queries)))
    print()
    print(f"ocalls/search: pooled={pooled_rate:.1f} "
          f"baseline={baseline_rate:.1f} "
          f"reduction={baseline_rate / pooled_rate:.1f}x")
    print(f"transition cycles saved/search: "
          f"{(baseline_delta.cycles - pooled_delta.cycles) / ROUNDS:,.0f}")


def test_batching_amortises_the_ecall(benchmark, engine):
    """One ``request_batch`` ecall carries N records: the per-search ecall
    count drops from 1 to 1/N."""
    proxy = make_proxy(engine)
    endpoint = connect(proxy)
    search(proxy, endpoint, "batch warmup")

    def batch_of(n, tag):
        return [
            (SESSION, endpoint.encrypt(SearchRequest(
                f"{tag} {i}", 10).encode()))
            for i in range(n)
        ]

    def run_batch(batch):
        # Decrypt every reply: the channel nonces are counters, so the
        # client must consume replies in order.
        return [endpoint.decrypt(reply)
                for reply in proxy.request_batch(batch)]

    before = proxy.enclave.boundary_snapshot()
    run_batch(batch_of(ROUNDS, "amortised"))
    delta = proxy.enclave.boundary_snapshot() - before
    assert delta.ecalls == 1
    assert delta.ecall_counts == {"request_batch": 1}

    before = proxy.enclave.boundary_snapshot()
    for i in range(ROUNDS):
        search(proxy, endpoint, f"unbatched {i}")
    singles = proxy.enclave.boundary_snapshot() - before
    assert singles.ecalls == ROUNDS

    counter = iter(range(10_000_000))
    benchmark(lambda: run_batch(batch_of(8, f"bench {next(counter)}")))
    print()
    print(f"ecalls for {ROUNDS} searches: batched={delta.ecalls} "
          f"singles={singles.ecalls}")
