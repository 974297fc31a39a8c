"""Names, units and derivations of every metric the benchmark reports.

``END_TO_END`` is what a user of the proxy sees, measured with tracing
off; ``PER_LAYER`` comes from the traced run (see :mod:`ledger`).  Both
tables must match ``BENCHMARK.json``; ``selftest.py`` checks that every
name is emitted with its unit.
"""

from __future__ import annotations

import statistics

from repro.sgx.runtime import DEFAULT_CLOCK_HZ

import ledger as L

END_TO_END = {
    "tput_rps": "req/s",
    "p50_ms": "ms",
    "ingest_qps": "queries/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "setup.engine_s": "s",
    "setup.attest_s": "s",
    "setup.deploy_s": "s",
    "setup.sessions_s": "s",
    "setup.warm_s": "s",
    "client.self_ms": "ms",
    "client.heals": "count",
    "client.busy_retries": "count",
    "crypto.client_seal_ms": "ms",
    "crypto.client_open_ms": "ms",
    "crypto.enclave_open_ms": "ms",
    "crypto.enclave_seal_ms": "ms",
    "crypto.sealed_bytes": "bytes",
    "crypto.share": "fraction",
    "protocol.ms": "ms",
    "protocol.reply_bytes": "bytes",
    "wire.ms": "ms",
    "wire.bytes_per_req": "bytes",
    "transport.ms": "ms",
    "server.sheds": "count",
    "scheduler.wait_ms": "ms",
    "scheduler.records_per_ecall": "records",
    "scheduler.dedup_hits": "count",
    "sgx.ecall_ms": "ms",
    "sgx.ecalls_per_req": "count",
    "sgx.ocalls_per_req": "count",
    "sgx.modelled_us": "us",
    "proxy.self_ms": "ms",
    "obfuscation.ms": "ms",
    "history.add_ms": "ms",
    "history.sample_ms": "ms",
    "history.entries": "count",
    "gateway.ms": "ms",
    "gateway.parse_ms": "ms",
    "gateway.page_bytes": "bytes",
    "engine.ms": "ms",
    "engine.subqueries": "count",
    "engine.share": "fraction",
    "filtering.ms": "ms",
    "filtering.results_in": "count",
    "filtering.results_out": "count",
    "filtering.share": "fraction",
    "cache.hit_ratio": "fraction",
    "cache.singleflight_hits": "count",
    "gateway.pool_reuse_ratio": "fraction",
    "trace.coverage": "fraction",
    "trace.overhead": "fraction",
}

#: Acceptable ``trace.coverage``: below it the wrappers miss a layer
#: that burns CPU; above 1 the self-time bookkeeping double-counts.
COVERAGE_BOUNDS = (0.75, 1.0)


def setup_metrics(setups) -> dict:
    """Median of each set-up stage over the run's repeated set-ups."""
    return {
        f"setup.{stage}": statistics.median(s[stage] for s in setups)
        for stage in ("engine_s", "attest_s", "deploy_s", "sessions_s",
                      "warm_s")
    }


def layer_metrics(totals: dict, *, requests: int, searches: int,
                  process_cpu: float, counters: dict) -> dict:
    """Per-request layer metrics from merged ledger totals.

    ``requests`` counts every client call the traced phase completed
    (searches and ingest batches); per-search quantities divide by
    ``searches``.  ``counters`` holds the phase deltas read from the
    program's own counters (registry, boundary snapshot, perf_stats).
    Times are self wall times; shares are self CPU over the ledger's CPU.
    """
    def layer(name):
        return totals.get(name) or L.LayerTotals()

    def per_request_ms(value):
        return 1000.0 * value / requests

    def self_ms(name):
        return per_request_ms(layer(name).self_wall)

    ledger_cpu = sum(t.self_cpu for t in totals.values())

    def share(*names):
        return sum(layer(n).self_cpu for n in names) / ledger_cpu

    scheduler = layer(L.SCHEDULER)
    ecall = layer(L.ECALL)
    transport = layer(L.TRANSPORT)
    engine = layer(L.ENGINE)
    filtering = layer(L.FILTERING)
    lookups = counters["cache_hits"] + counters["cache_misses"]
    pool_checkouts = counters["pool_reuses"] + counters["pool_connects"]
    batches = counters["scheduler_batches"]
    transport_ms = 0.0
    if transport.extra["search_calls"]:
        transport_ms = per_request_ms(transport.extra["search_wall"]
                                      - scheduler.extra["wall"])
    wait_ms = 0.0
    if scheduler.extra["requests"]:
        wait_ms = 1000.0 * (scheduler.extra["wall"]
                            - ecall.extra["record_wall"]) \
            / scheduler.extra["requests"]
    return {
        "client.self_ms": self_ms(L.CLIENT),
        "client.heals": counters["heals"],
        "client.busy_retries": counters["busy_retries"],
        "crypto.client_seal_ms": self_ms(L.CRYPTO_CLIENT_SEAL),
        "crypto.client_open_ms": self_ms(L.CRYPTO_CLIENT_OPEN),
        "crypto.enclave_open_ms": self_ms(L.CRYPTO_ENCLAVE_OPEN),
        "crypto.enclave_seal_ms": self_ms(L.CRYPTO_ENCLAVE_SEAL),
        "crypto.sealed_bytes": sum(
            layer(n).extra["sealed_bytes"] for n in L.CRYPTO_LAYERS
        ) / requests,
        "crypto.share": share(*L.CRYPTO_LAYERS),
        "protocol.ms": self_ms(L.PROTOCOL),
        "protocol.reply_bytes": layer(L.PROTOCOL).extra["reply_bytes"]
        / searches,
        "wire.ms": self_ms(L.WIRE),
        "wire.bytes_per_req": layer(L.WIRE).extra["frame_bytes"] / requests,
        "transport.ms": transport_ms,
        "server.sheds": counters["server_sheds"],
        "scheduler.wait_ms": wait_ms,
        "scheduler.records_per_ecall": (
            counters["scheduler_submitted"] / batches if batches else 0.0),
        "scheduler.dedup_hits": counters["scheduler_dedup_hits"],
        "sgx.ecall_ms": per_request_ms(ecall.extra["request_wall"]),
        "sgx.ecalls_per_req": counters["ecalls"] / requests,
        "sgx.ocalls_per_req": counters["ocalls"] / requests,
        # Modelled, never measured: transition and EPC-swap cycles of the
        # SGX cost model, kept apart from every measured time.
        "sgx.modelled_us": 1e6 * counters["modelled_cycles"]
        / DEFAULT_CLOCK_HZ / requests,
        "proxy.self_ms": self_ms(L.ECALL),
        "obfuscation.ms": self_ms(L.OBFUSCATION),
        "history.add_ms": self_ms(L.HISTORY_ADD),
        "history.sample_ms": self_ms(L.HISTORY_SAMPLE),
        "history.entries": counters["history_entries"],
        "gateway.ms": self_ms(L.GATEWAY),
        "gateway.parse_ms": self_ms(L.PARSE),
        "gateway.page_bytes": layer(L.GATEWAY).extra["page_bytes"]
        / searches,
        "engine.ms": self_ms(L.ENGINE),
        "engine.subqueries": engine.extra["subqueries"] / searches,
        "engine.share": share(L.ENGINE),
        "filtering.ms": self_ms(L.FILTERING),
        "filtering.results_in": filtering.extra["results_in"] / searches,
        "filtering.results_out": filtering.extra["results_out"] / searches,
        "filtering.share": share(L.FILTERING),
        "cache.hit_ratio": (counters["cache_hits"] / lookups
                            if lookups else 0.0),
        "cache.singleflight_hits": counters["singleflight_hits"],
        "gateway.pool_reuse_ratio": (counters["pool_reuses"] / pool_checkouts
                                     if pool_checkouts else 0.0),
        "trace.coverage": ledger_cpu / process_cpu,
    }
