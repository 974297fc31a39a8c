"""Satellite stress test: the concurrent scheduler under injected
faults.

M client threads, crossing through N slots, drive a real deployment while a
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
no request may end in an authentication error.  The second run adds
an engine that raises an untyped ``RuntimeError`` the first time it
sees each of some chosen queries: each failure must end exactly one
request, as a typed error, and no batch-mate's channel may fall out of
step.
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
from repro.search.engine import SearchEngine

N_CLIENTS = 6
REQUESTS_PER_CLIENT = 8
SEED = 11
#: Queries the exploding engine fails on once each (every client
#: issues each).
POISON = frozenset({"stress query step 2", "stress query step 5"})


class ExplodingEngine:
    """An engine with a bug: the first OR query carrying each of
    ``poison`` (as the real query or as a fake) raises an untyped
    ``RuntimeError`` that quotes the sub-query."""

    def __init__(self, engine, poison):
        self._engine = engine
        self._armed = set(poison)
        self._lock = threading.Lock()
        self.explosions = 0

    def search_or(self, subqueries, limit):
        with self._lock:
            hit = self._armed.intersection(subqueries)
            self._armed -= hit
            self.explosions += bool(hit)
        if hit:
            raise RuntimeError("engine bug on " + min(hit))
        return self._engine.search_or(subqueries, limit)

    def __getattr__(self, name):
        return getattr(self._engine, name)


def run_stress(engine=None):
    """Drive the faulted concurrent deployment; returns the outcome of
    every request as ``(client, step, (kind, error type))`` and the
    deployment's registry."""
    plan = FaultPlan(seed=SEED)
    # Engine outage windows: two clusters of dropped sends, plus one
    # enclave crash mid-run (the broker heals and resubmits).
    plan.on(SITE_ENGINE_SEND, KIND_DROP, at=(5, 6, 7, 8, 21, 22, 23))
    plan.on(SITE_ECALL, KIND_CRASH, at=(30,))
    registry = MetricsRegistry()
    outcomes = []
    outcome_lock = threading.Lock()

    config = DeploymentConfig(seed=SEED, k=2, max_workers=4,
                              proxy_options={"fault_plan": plan})
    with XSearchDeployment.create(
        config=config, engine=engine,
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
    return outcomes, registry


def assert_exactly_one_outcome_and_no_aead_failure(outcomes):
    assert len(outcomes) == N_CLIENTS * REQUESTS_PER_CLIENT
    seen = {(index, j) for index, j, _ in outcomes}
    assert len(seen) == N_CLIENTS * REQUESTS_PER_CLIENT
    # Coalescing never splices or reorders crypto sessions, and a failed
    # batch-mate never leaves a channel out of step: any of these would
    # surface as a counter-nonce AEAD failure.
    aead_failures = [
        outcome for _, _, outcome in outcomes
        if outcome in (("error", "AuthenticationError"),
                       ("error", "CryptoError"))
    ]
    assert not aead_failures


def test_stress_every_request_has_exactly_one_outcome():
    outcomes, registry = run_stress()
    assert_exactly_one_outcome_and_no_aead_failure(outcomes)

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

    # The scheduler really was exercised concurrently.
    batches = registry.get("scheduler.batches")
    assert batches is not None and batches.value > 0


def test_stress_untyped_engine_failures_stay_isolated():
    engine = ExplodingEngine(SearchEngine.with_synthetic_corpus(seed=SEED),
                             POISON)
    outcomes, registry = run_stress(engine)
    assert_exactly_one_outcome_and_no_aead_failure(outcomes)

    # Every poisoned query was served, and each untyped failure ended
    # exactly one request, as the scrubbed EnclaveError: no batch-mate
    # that shared its ecall failed with it.
    assert engine.explosions == len(POISON)
    untyped = [outcome for _, _, outcome in outcomes
               if outcome == ("error", "EnclaveError")]
    assert len(untyped) == engine.explosions
    assert any(kind == "reply" for _, _, (kind, _) in outcomes)
    batches = registry.get("scheduler.batches")
    assert batches is not None and batches.value > 0
