"""Satellite stress test: the concurrent scheduler under injected
faults.

N worker threads × M client threads drive a real deployment while a
seeded :class:`FaultPlan` mixes engine outages with one enclave crash.
The invariant under test is *exactly-one-outcome*: every submitted
request terminates in exactly one of

* a reply (possibly served degraded — the broker flags it), or
* a typed :class:`ReproError`;

no request hangs, is double-answered, or disappears.  A second
invariant guards the privacy boundary of coalescing: identical
plaintext queries from *different* users must still cross the enclave
boundary as distinct records, in order.  A reply spliced into another
user's session, or a record reordered within its own, fails AEAD, so
no request may end in an authentication error.
"""

from __future__ import annotations

import threading

from repro.core.deployment import DeploymentConfig, XSearchDeployment
from repro.errors import ReproError
from repro.faults.plan import (
    KIND_CRASH,
    KIND_DROP,
    FaultPlan,
    SITE_ECALL,
    SITE_ENGINE_SEND,
)
from repro.obs import MetricsRegistry, NullRecorder

N_CLIENTS = 6
REQUESTS_PER_CLIENT = 8


def test_stress_every_request_has_exactly_one_outcome():
    plan = FaultPlan(seed=11)
    # Engine outage windows: two clusters of dropped sends, plus one
    # enclave crash mid-run (the broker heals and resubmits).
    plan.on(SITE_ENGINE_SEND, KIND_DROP, at=(5, 6, 7, 8, 21, 22, 23))
    plan.on(SITE_ECALL, KIND_CRASH, at=(30,))
    registry = MetricsRegistry()
    outcomes = []
    outcome_lock = threading.Lock()

    config = DeploymentConfig(seed=11, k=2, max_workers=4, max_batch=4,
                              proxy_options={"fault_plan": plan})
    with XSearchDeployment.create(
        config=config,
        recorder=NullRecorder(), registry=registry,
    ) as deployment:
        clients = [deployment.client(user_id=f"stress-{i}")
                   for i in range(N_CLIENTS)]

        def drive(index, client):
            for j in range(REQUESTS_PER_CLIENT):
                # Every client issues the SAME query text at step j:
                # identical plaintext across different crypto sessions.
                query = f"stress query step {j}"
                try:
                    client.search(query, limit=2)
                except ReproError as exc:
                    outcome = ("error", type(exc).__name__)
                else:
                    outcome = ("degraded" if client.last_degraded
                               else "reply", None)
                with outcome_lock:
                    outcomes.append((index, j, outcome))

        threads = [threading.Thread(target=drive, args=(i, client),
                                    name=f"stress-client-{i}")
                   for i, client in enumerate(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
        assert all(not thread.is_alive() for thread in threads), \
            "a client thread hung: some request never resolved"

        # Exactly one outcome per submitted request.
        assert len(outcomes) == N_CLIENTS * REQUESTS_PER_CLIENT
        seen = {(index, j) for index, j, _ in outcomes}
        assert len(seen) == N_CLIENTS * REQUESTS_PER_CLIENT

        kinds = {}
        for _, _, (kind, _) in outcomes:
            kinds[kind] = kinds.get(kind, 0) + 1
        # The fault plan guarantees the interesting mix actually
        # happened: plenty of clean replies, and every injected fault
        # either surfaced as a typed outcome (degraded reply / error)
        # or was healed transparently (enclave crash -> re-attest and
        # resubmit, which the heal counter records; since sessions that
        # die with their enclave now heal instead of wedging, a fully
        # clean outcome list is legitimate as long as heals happened).
        heals = registry.get("broker.heals")
        healed = heals.value if heals is not None else 0
        assert kinds.get("reply", 0) > 0
        assert (kinds.get("degraded", 0) + kinds.get("error", 0)
                + healed) > 0

        # Coalescing never splices or reorders crypto sessions: either
        # would surface as a counter-nonce AEAD failure.
        aead_failures = [
            outcome for _, _, outcome in outcomes
            if outcome in (("error", "AuthenticationError"),
                           ("error", "CryptoError"))
        ]
        assert not aead_failures

        # The scheduler really was exercised concurrently.
        batches = registry.get("scheduler.batches")
        assert batches is not None and batches.value > 0
