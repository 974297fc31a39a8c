"""Seeded randomized stress: every request ends in exactly one outcome.

~200 operations (single searches and batches) run against a deployment
under a randomized-but-seeded :class:`~repro.faults.FaultPlan` injecting
engine failures, enclave crashes, EPC pressure and attestation
transients.  The :class:`~repro.obs.TraceChecker` then audits the full
trace record:

* every request trace ends in exactly one of *reply*, *degraded reply*
  or a typed error (``RetryExhaustedError`` / ``EngineUnavailableError``
  when every layer of tolerance is spent);
* no host-placed span ever carries a plaintext query;
* every ecall/ocall span is balanced and every retry respects its
  policy budget.
"""

import random

import pytest

from repro.core.deployment import DeploymentConfig, XSearchDeployment
from repro.errors import (
    EngineUnavailableError,
    ReproError,
    RetryExhaustedError,
)
from repro.faults import (
    ENGINE_SITES,
    FaultPlan,
    KIND_CRASH,
    KIND_DROP,
    KIND_PRESSURE,
    KIND_REFUSE,
    KIND_TIMEOUT,
    KIND_TRANSIENT,
    SITE_ATTESTATION,
    SITE_ECALL,
    SITE_EPC,
)
from repro.net.clock import VirtualClock
from repro.obs import (
    OUTCOME_DEGRADED,
    OUTCOME_ERROR,
    OUTCOME_REPLY,
    MetricsRegistry,
    TraceChecker,
    TraceRecorder,
    outcome_of,
)
from repro.obs.checker import REQUEST_ROOT_NAMES
from repro.sgx.sealing import SealingPlatform

TOTAL_OPS = 200
QUERIES = ("hotel rome", "diabetes treatment", "cheap flights",
           "severe headache", "tax attorney", "vacation greece")


def stress_plan(seed: int) -> FaultPlan:
    plan = FaultPlan(seed=seed)
    for site in ENGINE_SITES:
        plan.on(site, KIND_DROP, probability=0.02)
        plan.on(site, KIND_TIMEOUT, probability=0.01)
    plan.on(ENGINE_SITES[0], KIND_REFUSE, probability=0.01)
    plan.on(SITE_ECALL, KIND_CRASH, probability=0.01)
    plan.on(SITE_EPC, KIND_PRESSURE, probability=0.02)
    plan.on(SITE_ATTESTATION, KIND_TRANSIENT, probability=0.05)
    return plan


def stress_config(seed: int, plan: FaultPlan) -> DeploymentConfig:
    return DeploymentConfig(seed=seed, k=2, proxy_options={
        "fault_plan": plan, "sealing_platform": SealingPlatform(),
        "checkpoint_interval": 8})


@pytest.mark.parametrize("seed", [1, 20_17])
def test_stress_every_request_has_exactly_one_outcome(seed):
    rng = random.Random(seed)
    clock = VirtualClock()
    recorder = TraceRecorder(clock=clock)
    registry = MetricsRegistry()
    plan = stress_plan(seed)
    outcomes = {OUTCOME_REPLY: 0, OUTCOME_DEGRADED: 0, OUTCOME_ERROR: 0}
    issued = 0
    with XSearchDeployment.create(
        config=stress_config(seed, plan),
        recorder=recorder, registry=registry,
    ) as dep:
        while issued < TOTAL_OPS:
            use_batch = rng.random() < 0.3
            try:
                if use_batch:
                    batch = [rng.choice(QUERIES)
                             for _ in range(rng.randint(2, 4))]
                    replies = dep.client.search_batch(batch, limit=4)
                    assert len(replies) == len(batch)
                else:
                    dep.client.search(rng.choice(QUERIES), limit=4)
                outcome = (OUTCOME_DEGRADED if dep.broker.last_degraded
                           else OUTCOME_REPLY)
            except (RetryExhaustedError, EngineUnavailableError):
                # Every layer of tolerance spent: the typed failure IS
                # the third legal outcome.
                outcome = OUTCOME_ERROR
            except ReproError as exc:  # pragma: no cover - diagnostics
                pytest.fail(f"op {issued} leaked an untyped failure: "
                            f"{type(exc).__name__}: {exc}")
            outcomes[outcome] += 1
            issued += 1

    assert issued == TOTAL_OPS
    assert sum(outcomes.values()) == TOTAL_OPS
    # The plan must have actually bitten — a stress run where nothing
    # failed over proves nothing about the invariants under stress.
    assert plan.trace, "the fault plan never fired"
    assert outcomes[OUTCOME_REPLY] > 0

    traces = recorder.traces
    request_traces = [t for t in traces
                      if t.root.name in REQUEST_ROOT_NAMES]
    assert len(request_traces) == TOTAL_OPS

    # The oracle: balanced boundaries, no host plaintext, bounded
    # retries, flagged degradation, single outcomes — over every trace.
    TraceChecker(queries=QUERIES).assert_ok(traces)

    # The trace record agrees with what the client observed.
    traced = {OUTCOME_REPLY: 0, OUTCOME_DEGRADED: 0, OUTCOME_ERROR: 0}
    for trace in request_traces:
        traced[outcome_of(trace)] += 1
    assert traced == outcomes

    # Every errored root names a typed error — nothing vanished.
    for trace in request_traces:
        if outcome_of(trace) == OUTCOME_ERROR:
            assert trace.root.error in (
                "RetryExhaustedError", "EngineUnavailableError",
            ), trace.root.error

    # And the metrics plane kept coherent books.
    counters = registry.as_dict()["counters"]
    assert counters["proxy.requests"] >= TOTAL_OPS
    assert counters["sgx.boundary.ecalls"] == sum(
        v for k, v in counters.items() if k.startswith("sgx.ecall.")
    )
    assert counters["sgx.boundary.ocalls"] == sum(
        v for k, v in counters.items() if k.startswith("sgx.ocall.")
    )


def test_stress_is_deterministic_for_a_given_seed():
    """Same seed → identical normalized trace record (the property the
    golden test and any future bisection rely on)."""

    def run():
        rng = random.Random(7)
        recorder = TraceRecorder(clock=VirtualClock())
        plan = stress_plan(7)
        with XSearchDeployment.create(config=stress_config(7, plan),
                                      recorder=recorder) as dep:
            for _ in range(40):
                try:
                    dep.client.search(rng.choice(QUERIES), limit=3)
                except (RetryExhaustedError, EngineUnavailableError):
                    pass
        return [t.normalized() for t in recorder.traces]

    assert run() == run()
