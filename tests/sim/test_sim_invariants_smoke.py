"""The PR-depth smoke sweep: hundreds of seeded worlds, zero violations.

Every run drives a full deployment (replica cluster, chaos schedule,
client traffic) through a fresh interleaving and checks *all* invariant
oracles — per-session FIFO (which also catches a reply merged across
users), exactly-one-outcome, sealed-history convergence, balanced spans,
in-enclave accounting.
Failures print the spec + digest, which is the reproduction recipe
(see docs/TESTING.md).
"""

from __future__ import annotations

import threading

from repro.core.cluster import XSearchCluster
from repro.sim import WorldSpec, run_sim
from repro.sim.explore import explore
from repro.sim.invariants import INVARIANTS

#: 100 seeds x 2 interleavings = 200 whole-cluster runs.
SEEDS = range(100)
INTERLEAVINGS = 2


def test_smoke_sweep_is_clean():
    base = WorldSpec(seed=0)  # chaos filled per-seed by explore()
    result = explore(base, seeds=SEEDS, interleavings=INTERLEAVINGS,
                     shrink_failures=False)
    assert result.runs >= 200
    assert result.ok, "\n".join(
        f"seed={f.spec.seed} il={f.spec.interleaving} "
        f"chaos={f.spec.chaos} digest={f.digest[:16]}: {f.violations}"
        for f in result.failures
    )


def test_every_oracle_is_wired():
    # The sweep is only as strong as its oracle list; pin the roster so
    # dropping one is a visible diff, not a silent coverage loss.
    assert sorted(INVARIANTS) == sorted([
        "exactly-one-outcome",
        "trace-oracles",
        "per-session-fifo",
        "session-pin-stability",
        "sealed-convergence",
        "history-integrity",
    ])


#: Worlds where a respawn, holding the proxy's enclave lock, yields at
#: the history restore's step points while another client's request
#: waits for that lock.  A natively blocking waiter hung the whole sweep.
RESPAWN_UNDER_CONTENTION = (
    WorldSpec(seed=31, interleaving=2,
              chaos=("checkpoint", "add", "kill", "crash")),
    WorldSpec(seed=178, interleaving=1,
              chaos=("kill", "checkpoint", "crash", "pressure")),
)


def test_a_respawn_that_yields_under_the_enclave_lock_completes():
    reports = []

    def sweep():
        reports.extend(run_sim(spec) for spec in RESPAWN_UNDER_CONTENTION)

    worker = threading.Thread(target=sweep, daemon=True)
    worker.start()
    worker.join(timeout=120.0)
    assert not worker.is_alive(), "a simulated world deadlocked"
    assert [report.violations for report in reports] == [[], []]


def test_an_untyped_engine_bug_ends_in_one_scrubbed_error():
    """The "bug" chaos action arms one engine send that raises a
    ``RuntimeError`` quoting the query.  The search it hits ends in
    exactly one typed outcome, every oracle holds, and the error the
    host relays names only the exception type."""
    report = run_sim(WorldSpec(seed=0, replicas=1, chaos=("bug",)))
    assert report.violations == []
    assert ("engine.send", "bug", 0) in report.trace.faults
    failed = [op for op in report.trace.ops if op[2] != "reply"]
    assert [outcome for _client, _op, outcome, _detail in failed] == [
        "error:EnclaveError"]
    detail = failed[0][3]
    assert "RuntimeError" in detail
    assert "sim query" not in detail


def test_sealed_convergence_counts_the_absorb_of_a_racing_failover():
    """A client's failover retires the second kill's victim first and
    replays its checkpoint after the chaos kill has returned: the
    checkpoint still converged, so no violation."""
    spec = WorldSpec(seed=280, interleaving=0,
                     chaos=("pressure", "add", "kill", "kill"))
    assert run_sim(spec).violations == []


def test_sealed_convergence_catches_a_skipped_replay(monkeypatch):
    monkeypatch.setattr(XSearchCluster, "_replay_checkpoint",
                        lambda self, handle: None)
    spec = WorldSpec(seed=9, chaos=("kill", "checkpoint", "outage",
                                    "advance"))
    assert [violation.split(":")[0]
            for violation in run_sim(spec).violations] == [
        "sealed-convergence"]
