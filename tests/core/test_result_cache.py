"""The in-enclave result cache: LRU semantics, EPC metering, and its one
user, the proxy's degraded mode.

The proxy keeps the last filtered results per original query (and
limit) so an engine outage can still be answered, flagged ``degraded``.
Its bytes are charged to the EPC model so Figure 6's memory pressure
applies to it like to the history table.  Engine pages are not cached:
every search reaches the engine while it is up.
"""

import pytest

from repro.core.proxy import XSearchProxyHost
from repro.core.protocol import SearchRequest, SearchResponse
from repro.core.result_cache import ResultCache
from repro.crypto.channel import HandshakeInitiator
from repro.errors import EnclaveError, EngineUnavailableError
from repro.faults import ENGINE_SITES, KIND_REFUSE, FaultPlan
from repro.search.tracking import TrackingSearchEngine
from repro.sgx.epc import EnclavePageCache
from repro.sgx.runtime import EnclaveMemory

DEGRADED_KEY = "xsearch.degraded_cache"


# ---------------------------------------------------------------------------
# Unit level: the LRU structure itself
# ---------------------------------------------------------------------------

def test_cache_put_get_roundtrip():
    cache = ResultCache(1024)
    cache.put("q1", ("r1", "r2"), nbytes=100)
    assert cache.get("q1") == ("r1", "r2")
    assert cache.get("missing") is None
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1


def test_cache_evicts_least_recently_used_first():
    cache = ResultCache(300)
    cache.put("a", "A", nbytes=100)
    cache.put("b", "B", nbytes=100)
    cache.put("c", "C", nbytes=100)
    assert cache.get("a") == "A"  # refresh a: b is now the LRU entry
    cache.put("d", "D", nbytes=100)  # over budget -> evict b
    assert "b" not in cache
    assert cache.get("a") == "A"
    assert cache.get("c") == "C"
    assert cache.get("d") == "D"
    assert cache.stats.evictions == 1
    assert cache.byte_size == 300


def test_cache_refresh_replaces_existing_entry_bytes():
    cache = ResultCache(1000)
    cache.put("k", "old", nbytes=400)
    cache.put("k", "new", nbytes=100)
    assert cache.get("k") == "new"
    assert cache.byte_size == 100
    assert len(cache) == 1


def test_oversized_entry_is_not_cached():
    cache = ResultCache(100)
    cache.put("huge", "x", nbytes=101)
    assert "huge" not in cache
    assert cache.byte_size == 0


def test_cache_rejects_nonpositive_budget():
    with pytest.raises(EnclaveError):
        ResultCache(0)


def test_cache_charges_enclave_memory():
    memory = EnclaveMemory(EnclavePageCache())
    cache = ResultCache(10_000, enclave_memory=memory, memory_key="cache")
    cache.put("a", "A", nbytes=3000)
    assert memory.occupancy_bytes == 3000
    cache.put("b", "B", nbytes=4000)
    assert memory.occupancy_bytes == 7000
    cache.put("c", "C", nbytes=5000)  # evicts "a"
    assert memory.occupancy_bytes == 9000
    assert cache.stats.evictions == 1


# ---------------------------------------------------------------------------
# Proxy integration: the degraded cache
# ---------------------------------------------------------------------------

def make_proxy(engine, **kwargs):
    kwargs.setdefault("k", 1)
    kwargs.setdefault("history_capacity", 1000)
    kwargs.setdefault("rng_seed", 9)
    return XSearchProxyHost(TrackingSearchEngine(engine), **kwargs)


def connect(proxy, session_id="cache-session"):
    initiator = HandshakeInitiator()
    proxy.begin_session(session_id, initiator.hello())
    return initiator.finish(proxy.channel_public())


def search(proxy, endpoint, query, session_id="cache-session", limit=10):
    record = endpoint.encrypt(SearchRequest(query, limit).encode())
    reply = proxy.request(session_id, record)
    return SearchResponse.decode(endpoint.decrypt(reply))


def block_engine(plan):
    for site in ENGINE_SITES:
        plan.block(site, KIND_REFUSE)


def test_repeated_query_reaches_the_engine_every_time(small_engine):
    proxy = make_proxy(small_engine)
    endpoint = connect(proxy)
    first = search(proxy, endpoint, "cheap hotel rome")
    second = search(proxy, endpoint, "cheap hotel rome")
    assert not second.degraded
    assert [r.url for r in second.results] == [r.url for r in first.results]
    assert proxy.perf_stats()["engine_requests"] == 2
    assert len(proxy.gateway._engine.observations) == 2


def test_distinct_queries_miss_the_cache(small_engine):
    plan = FaultPlan(seed=0)
    proxy = make_proxy(small_engine, fault_plan=plan)
    endpoint = connect(proxy)
    search(proxy, endpoint, "hotel rome")
    block_engine(plan)
    assert search(proxy, endpoint, "hotel rome").degraded
    with pytest.raises(EngineUnavailableError):
        search(proxy, endpoint, "hotel paris")


def test_different_limits_are_distinct_cache_entries(small_engine):
    plan = FaultPlan(seed=0)
    proxy = make_proxy(small_engine, fault_plan=plan)
    endpoint = connect(proxy)
    live = search(proxy, endpoint, "hotel rome", limit=5)
    block_engine(plan)
    stale = search(proxy, endpoint, "hotel rome", limit=5)
    assert stale.degraded
    assert stale.results == live.results
    with pytest.raises(EngineUnavailableError):
        search(proxy, endpoint, "hotel rome", limit=10)
    assert proxy.perf_stats()["degraded_hits"] == 1


def test_cache_disabled_always_hits_the_engine(small_engine):
    plan = FaultPlan(seed=0)
    proxy = make_proxy(small_engine, fault_plan=plan,
                       degraded_cache_bytes=0)
    endpoint = connect(proxy)
    search(proxy, endpoint, "cheap hotel rome")
    assert DEGRADED_KEY not in proxy.enclave.memory
    block_engine(plan)
    with pytest.raises(EngineUnavailableError):
        search(proxy, endpoint, "cheap hotel rome")
    assert proxy.perf_stats()["degraded_hits"] == 0


def test_cache_memory_is_charged_to_the_epc_model(small_engine):
    proxy = make_proxy(small_engine)
    endpoint = connect(proxy)
    memory = proxy.enclave.memory
    assert DEGRADED_KEY not in memory
    occupancy_before = memory.occupancy_bytes
    response = search(proxy, endpoint, "cheap hotel rome")
    assert response.results
    charged = memory.size_of(DEGRADED_KEY)
    # Metered deep: at least every string the cached page holds.
    assert charged >= sum(len(r.url) + len(r.title) + len(r.snippet)
                          for r in response.results)
    assert memory.occupancy_bytes > occupancy_before
    assert proxy.history_integrity()["degraded_cache"]["bytes"] == charged


def test_cache_evicts_under_its_byte_budget(small_engine):
    """A tiny budget forces LRU eviction while serving correctly."""
    budget = 8 * 1024
    proxy = make_proxy(small_engine, degraded_cache_bytes=budget)
    endpoint = connect(proxy)
    for i in range(40):
        assert search(proxy, endpoint, f"hotel rome {i}", limit=3).results
    report = proxy.history_integrity()["degraded_cache"]
    assert report["consistent"]
    assert 0 < report["entries"] < 40
    # The EPC charge shrank along with the evictions.
    assert proxy.enclave.memory.size_of(DEGRADED_KEY) <= budget


def test_cache_pages_swap_under_a_small_epc(small_engine):
    """Under a small EPC the cache competes for pages: filling it drives
    the paging machinery (EWB/ELDU events), observable in the EPC stats —
    exactly the Figure 6 pressure applied to the new allocation."""
    epc = EnclavePageCache(usable_bytes=2 * 4096)
    proxy = make_proxy(small_engine, epc=epc,
                       degraded_cache_bytes=32 * 1024)
    endpoint = connect(proxy)
    swaps_before = epc.stats.copy().swap_events
    for i in range(60):
        search(proxy, endpoint, f"crowded epc probe {i} term{i % 7}")
    assert DEGRADED_KEY in proxy.enclave.memory
    assert epc.stats.swap_events > swaps_before
    # Served correctly throughout the paging churn.
    assert proxy.perf_stats()["engine_requests"] == 60
