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

from repro.sim import WorldSpec
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
