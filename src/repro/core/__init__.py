"""The X-Search system: the paper's primary contribution.

* Algorithm 1 — :func:`~repro.core.obfuscation.obfuscate_query`;
* Algorithm 2 — :func:`~repro.core.filtering.filter_results`;
* the enclave-resident past-query table —
  :class:`~repro.core.history.QueryHistory`;
* the trusted proxy and its untrusted host —
  :class:`~repro.core.proxy.XSearchEnclaveCode` /
  :class:`~repro.core.proxy.XSearchProxyHost`;
* the attesting client-side broker — :class:`~repro.core.broker.Broker`;
* the caller-runs front end that coalesces queued requests into one
  ecall — :class:`~repro.core.scheduler.RequestScheduler`;
* the replica cluster every deployment runs (one replica by default),
  which consistent-hash-pins each session to one enclave replica —
  :class:`~repro.core.cluster.XSearchCluster`;
* one-call wiring — :class:`~repro.core.deployment.XSearchDeployment`
  configured by :class:`~repro.core.deployment.DeploymentConfig`;
* retry/backoff policies for the fault-tolerance layer —
  :class:`~repro.core.retry.RetryPolicy` /
  :func:`~repro.core.retry.call_with_retry`.
"""

from repro.core.broker import Broker
from repro.core.client import XSearchClient
from repro.core.cluster import (
    FAILOVER_THRESHOLD,
    VNODES,
    HashRing,
    ReplicaHandle,
    XSearchCluster,
)
from repro.core.deployment import DeploymentConfig, XSearchDeployment
from repro.core.filtering import ScoredResult, filter_results, score_result
from repro.core.gateway import EngineGateway
from repro.core.history import QueryHistory
from repro.core.obfuscation import ObfuscatedQuery, obfuscate_query
from repro.core.persistence import snapshot_history
from repro.core.protocol import (
    Ack,
    IngestRequest,
    SearchRequest,
    SearchResponse,
)
from repro.core.proxy import (
    DEFAULT_CHECKPOINT_INTERVAL,
    DEFAULT_DEGRADED_CACHE_BYTES,
    DEFAULT_HISTORY_CAPACITY,
    DEFAULT_K,
    XSearchEnclaveCode,
    XSearchProxyHost,
)
from repro.core.retry import (
    DEFAULT_BROKER_RETRY,
    DEFAULT_ENGINE_RETRY,
    NO_RETRY,
    RetryPolicy,
    call_with_retry,
)
from repro.core.scheduler import (
    DEFAULT_MAX_WORKERS,
    MAX_BATCH,
    RequestScheduler,
)

__all__ = [
    "QueryHistory",
    "obfuscate_query",
    "ObfuscatedQuery",
    "filter_results",
    "score_result",
    "ScoredResult",
    "SearchRequest",
    "SearchResponse",
    "IngestRequest",
    "Ack",
    "XSearchEnclaveCode",
    "XSearchProxyHost",
    "EngineGateway",
    "Broker",
    "XSearchClient",
    "XSearchDeployment",
    "DeploymentConfig",
    "XSearchCluster",
    "ReplicaHandle",
    "HashRing",
    "VNODES",
    "FAILOVER_THRESHOLD",
    "snapshot_history",
    "DEFAULT_K",
    "DEFAULT_HISTORY_CAPACITY",
    "RetryPolicy",
    "call_with_retry",
    "NO_RETRY",
    "DEFAULT_ENGINE_RETRY",
    "DEFAULT_BROKER_RETRY",
    "DEFAULT_CHECKPOINT_INTERVAL",
    "DEFAULT_DEGRADED_CACHE_BYTES",
    "RequestScheduler",
    "DEFAULT_MAX_WORKERS",
    "MAX_BATCH",
]
