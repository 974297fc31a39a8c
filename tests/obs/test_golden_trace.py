"""Golden-trace regression: the span tree of the pipeline is contract.

Two scenarios run against a checked-in golden file:

* ``e2e`` — one end-to-end private search through a freshly attested
  deployment;
* ``faulted`` — a search that hits an enclave kill: the host supervisor
  respawns and restores the sealed checkpoint, the broker heals
  (re-attests + re-handshakes) and the retry serves the reply.

Both run under the virtual clock and a seeded fault plan, and the
recorder's structural normal form (:meth:`repro.obs.tracing.Span.normalized`)
drops everything non-deterministic — so a mismatch means the *protocol
path changed*, not that timing wobbled.

Regenerate after an intentional pipeline change with::

    REGEN_GOLDEN_TRACES=1 PYTHONPATH=src python -m pytest tests/obs/test_golden_trace.py
"""

import json
import os

import pytest

from repro.core.deployment import DeploymentConfig, XSearchDeployment
from repro.faults import FaultPlan, KIND_CRASH, SITE_ECALL
from repro.net.clock import VirtualClock
from repro.obs import TraceChecker, TraceRecorder
from repro.sgx.sealing import SealingPlatform

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_traces.json")
_REGEN = os.environ.get("REGEN_GOLDEN_TRACES") == "1"


def normalized_traces(recorder):
    return [trace.normalized() for trace in recorder.traces]


def run_e2e_scenario():
    clock = VirtualClock()
    recorder = TraceRecorder(clock=clock)
    with XSearchDeployment.create(config=DeploymentConfig(seed=11, k=2),
                                  recorder=recorder) as dep:
        results = dep.client.search("hotel rome", limit=5)
        assert results
    TraceChecker(queries=("hotel rome",)).assert_ok(
        recorder.traces
    )
    return normalized_traces(recorder)


def faulted_config(plan):
    return DeploymentConfig(seed=11, k=2, proxy_options={
        "fault_plan": plan, "sealing_platform": SealingPlatform(),
        "checkpoint_interval": 1})


def run_faulted_scenario():
    clock = VirtualClock()
    recorder = TraceRecorder(clock=clock)
    plan = FaultPlan(seed=0)
    with XSearchDeployment.create(config=faulted_config(plan),
                                  recorder=recorder) as dep:
        dep.client.search("hotel rome", limit=5)  # checkpointed after
        plan.trigger(SITE_ECALL, KIND_CRASH)
        results = dep.client.search("diabetes treatment", limit=5)
        assert results
        assert dep.proxy.respawn_count == 1
        assert dep.broker.reconnects == 1
    TraceChecker(queries=("hotel rome", "diabetes treatment")).assert_ok(
        recorder.traces
    )
    return normalized_traces(recorder)


SCENARIOS = {
    "e2e": run_e2e_scenario,
    "faulted": run_faulted_scenario,
}


def load_golden():
    if not os.path.exists(GOLDEN_PATH):
        pytest.fail(
            f"golden file {GOLDEN_PATH} is missing; regenerate it with "
            "REGEN_GOLDEN_TRACES=1"
        )
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.skipif(not _REGEN, reason="set REGEN_GOLDEN_TRACES=1 to regen")
def test_regenerate_golden_traces():
    document = {name: scenario() for name, scenario in SCENARIOS.items()}
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")


@pytest.mark.skipif(_REGEN, reason="regenerating, not comparing")
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_trace_tree_matches_golden(name):
    golden = load_golden()
    actual = SCENARIOS[name]()
    assert actual == golden[name], (
        f"the {name!r} span tree diverged from the golden file — if the "
        f"pipeline change is intentional, regenerate with "
        f"REGEN_GOLDEN_TRACES=1"
    )


def test_faulted_scenario_records_the_recovery_story():
    """Independent of the golden bytes: the recovery events must appear,
    in causal order, on the healed request's root span."""
    clock = VirtualClock()
    recorder = TraceRecorder(clock=clock)
    plan = FaultPlan(seed=0)
    with XSearchDeployment.create(config=faulted_config(plan),
                                  recorder=recorder) as dep:
        dep.client.search("hotel rome", limit=5)
        plan.trigger(SITE_ECALL, KIND_CRASH)
        dep.client.search("diabetes treatment", limit=5)
    healed = [t for t in recorder.traces if t.root.name == "broker.search"][-1]
    event_names = [e.name for e in healed.root.events]
    for expected in ("enclave.respawn", "checkpoint.restore", "retry",
                     "broker.heal", "broker.attested"):
        assert expected in event_names, (expected, event_names)
    assert (event_names.index("enclave.respawn")
            < event_names.index("retry")
            < event_names.index("broker.attested"))
    # The first ecall attempt died: its span is errored but balanced.
    failed = [s for s in healed.walk()
              if s.name == "ecall.request" and s.status == "error"]
    assert failed and all(s.finished for s in failed)
    assert failed[0].error == "EnclaveLostError"
    assert healed.root.attributes["outcome"] == "reply"
