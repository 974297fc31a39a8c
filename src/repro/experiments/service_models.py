"""Per-system proxy service-time models for the performance figures.

Figure 5 measures the proxies *in isolation* (no live search engine), so
what matters is each system's per-request service cost and parallelism.
The constants below are calibrated to the saturation points the paper
reports on an i7-6700 (§6.3) and are derived from each system's mechanics:

* **X-Search** — on the pooled hot path a request costs one ecall
  (amortised over a ``request_many`` batch of records) plus two socket ocalls
  (``send`` + ``recv`` on a kept-alive engine connection); the
  per-request ``sock_connect``/``close`` pair and TLS handshake of the
  naive path are paid once per pooled connection, not per search.  That
  is ~18.6 k cycles of mode transitions ≈ 5.5 µs at 3.4 GHz (from the
  :mod:`repro.sgx.runtime` cost model) on top of AEAD decrypt/encrypt of
  a small record, Algorithm 1 sampling and Algorithm 2 filtering — a few
  hundred µs in the authors' C++ prototype.  With the engine's worker
  pool ("the proxy uses multiple threads", §4.1) this saturates around
  the paper's 25 k req/s with sub-second latency.  The per-request
  connect baseline (1 ecall + 5 ocalls ≈ 14.6 µs of transitions) is kept
  for the micro-benchmarks that measure the crossing reduction.
* **PEAS** — two proxy traversals with hybrid public-key crypto per
  request (the receiver relays, the issuer decrypts and re-encrypts):
  milliseconds per request, saturating around 1 k req/s as in the paper.
* **Tor** — three relays with per-hop AEAD plus scheduling overhead; the
  paper measured ~100 req/s at ~8.9 ms mean latency.

The *shape* conclusions (who saturates where, by what orders of
magnitude) come from the queueing dynamics, not from these constants
alone; the ablation benchmark varies them to show robustness.
"""

from __future__ import annotations

from repro.net.queueing import QueueingStation, ServiceTime
from repro.sgx.runtime import (
    DEFAULT_CLOCK_HZ,
    DEFAULT_ECALL_CYCLES,
    DEFAULT_OCALL_CYCLES,
)

# X-Search steady-state boundary crossings per request on the pooled
# data path: the one request ecall, ``request_many``, is amortised over
# a batch of records, and a kept-alive engine connection needs only
# send + recv (connect/close and the TLS handshake are per-connection,
# not per-request).  These are
# the counts the boundary micro-benchmark asserts via the CycleCounter
# snapshot API.
XSEARCH_POOLED_OCALLS_PER_REQUEST = 2   # send + recv, keep-alive socket
XSEARCH_BATCH_RECORDS = 4               # records per request_many ecall
_XSEARCH_TRANSITION_SECONDS = (
    DEFAULT_ECALL_CYCLES / XSEARCH_BATCH_RECORDS
    + XSEARCH_POOLED_OCALLS_PER_REQUEST * DEFAULT_OCALL_CYCLES
) / DEFAULT_CLOCK_HZ
# Baseline (pre-pooling) crossings: 1 ecall + 5 ocalls per request
# (connect, send, data recv, the empty recv that detects end-of-response,
# close) — kept so experiments can quantify the crossing reduction.
XSEARCH_BASELINE_OCALLS_PER_REQUEST = 5
XSEARCH_BASELINE_TRANSITION_SECONDS = (
    DEFAULT_ECALL_CYCLES
    + XSEARCH_BASELINE_OCALLS_PER_REQUEST * DEFAULT_OCALL_CYCLES
) / DEFAULT_CLOCK_HZ
# Crypto + obfuscation + filtering in native code, per request.
_XSEARCH_COMPUTE_SECONDS = 280e-6

XSEARCH_WORKERS = 8
PEAS_WORKERS = 4
TOR_WORKERS = 1

XSEARCH_SERVICE = ServiceTime(
    median_seconds=_XSEARCH_TRANSITION_SECONDS + _XSEARCH_COMPUTE_SECONDS,
    sigma=0.25,
)
PEAS_SERVICE = ServiceTime(median_seconds=3.2e-3, sigma=0.30)
TOR_SERVICE = ServiceTime(median_seconds=8.5e-3, sigma=0.35)

# Extension: the robust anonymous-communication systems of §2.1.1, whose
# throughput the paper reports as "orders of magnitude lower than Tor".
# RAC broadcasts every relayed message around its ring (×N messages);
# Dissent's DC-net derives O(N²) pads and needs N transmissions per round.
_RING_SIZE = 5
RAC_SERVICE = ServiceTime(
    median_seconds=TOR_SERVICE.median_seconds * _RING_SIZE, sigma=0.35
)
DISSENT_SERVICE = ServiceTime(
    median_seconds=TOR_SERVICE.median_seconds * _RING_SIZE * 2, sigma=0.40
)


def xsearch_station(seed: int = 0) -> QueueingStation:
    return QueueingStation(
        "X-Search", workers=XSEARCH_WORKERS, service=XSEARCH_SERVICE,
        seed=seed,
    )


def peas_station(seed: int = 0) -> QueueingStation:
    return QueueingStation(
        "PEAS", workers=PEAS_WORKERS, service=PEAS_SERVICE, seed=seed
    )


def tor_station(seed: int = 0) -> QueueingStation:
    return QueueingStation(
        "Tor", workers=TOR_WORKERS, service=TOR_SERVICE, seed=seed
    )


def rac_station(seed: int = 0) -> QueueingStation:
    return QueueingStation(
        "RAC", workers=TOR_WORKERS, service=RAC_SERVICE, seed=seed
    )


def dissent_station(seed: int = 0) -> QueueingStation:
    return QueueingStation(
        "Dissent", workers=TOR_WORKERS, service=DISSENT_SERVICE, seed=seed
    )


def xsearch_proxy_service_seconds() -> float:
    """Mean in-proxy time per request (used by the Figure 7 RTT model)."""
    return XSEARCH_SERVICE.approximate_mean
