"""Invariant oracles checked after every simulated run.

Each oracle is a function ``fn(world) -> list[str]`` over the finished
:class:`~repro.sim.world.SimWorld`; an empty list means the invariant
held.  They restate the reproduction's cross-cutting claims as
machine-checkable properties:

* **exactly-one-outcome** — every client operation resolves to exactly
  one recorded outcome (reply, degraded or typed error): no request
  vanishes or double-resolves under any interleaving;
* **trace-oracles** — the existing :class:`~repro.obs.checker
  .TraceChecker` invariants (balanced ecall/ocall spans, no host-side
  plaintext, bounded retries, degraded-flagged, single-outcome) hold
  over every trace the run recorded;
* **per-session-fifo** — channel nonces are strict counters, so any
  reordering or cross-session splice of one session's records surfaces
  as an AEAD failure; a clean run therefore never sees an
  authentication error.  This also covers merging two users' requests
  into one reply: a reply sealed under another session's keys cannot
  pass AEAD;
* **session-pin-stability** — a session's replica pin never moves
  while its owner is healthy (live sessions cannot migrate: their
  channel endpoint is inside one enclave);
* **sealed-convergence** — a killed replica's sealed checkpoint is
  absorbed by at least one survivor (unless an injected enclave crash
  explains the miss), so inherited users keep warm histories;
* **history-integrity** — the in-enclave byte/counter accounting of
  history and the degraded cache recomputes consistently (the mutation
  gate's planted lock bug is caught exactly here).
"""

from __future__ import annotations

from repro.core.cluster import STATE_HEALTHY
from repro.faults.plan import KIND_CRASH
from repro.obs.checker import TraceChecker

__all__ = ["INVARIANTS", "check_all"]

#: Error types whose appearance means a session's record stream was
#: reordered or spliced (counter-nonce AEAD fails on any FIFO break).
_FIFO_BREAK_ERRORS = ("AuthenticationError", "CryptoError")


def exactly_one_outcome(world) -> list:
    violations = []
    expected = world.spec.clients * world.spec.ops_per_client
    seen = {}
    for client, op, outcome, _detail in world.trace.ops:
        seen[(client, op)] = seen.get((client, op), 0) + 1
    for key, count in sorted(seen.items()):
        if count != 1:
            violations.append(
                f"operation {key} resolved {count} times (expected 1)"
            )
    if len(world.trace.ops) != expected:
        violations.append(
            f"{len(world.trace.ops)} outcomes recorded for "
            f"{expected} submitted operations"
        )
    return violations


def trace_oracles(world) -> list:
    checker = TraceChecker(queries=tuple(world.queries))
    return [str(violation)
            for violation in checker.check(world.recorder.traces)]


def per_session_fifo(world) -> list:
    violations = []
    for client, op, outcome, detail in world.trace.ops:
        if any(outcome == f"error:{name}" for name in _FIFO_BREAK_ERRORS):
            violations.append(
                f"{client} {op}: {outcome} — a counter-nonce AEAD "
                f"failure means per-session FIFO was broken ({detail})"
            )
    return violations


def session_pin_stability(world) -> list:
    violations = []
    for session_id, old, new, old_state in world.pin_changes:
        if old_state == STATE_HEALTHY:
            violations.append(
                f"session {session_id!r} migrated {old} -> {new} while "
                f"{old} was still healthy"
            )
    return violations


def sealed_convergence(world) -> list:
    violations = []
    for kill in world.kill_log:
        if not kill["blob"] or kill["survivors"] == 0:
            continue
        if kill["absorbed"] > 0:
            continue
        # A survivor hit by an injected enclave crash may legitimately
        # fail its (best-effort) absorb; only an unexplained miss is a
        # convergence violation.
        crashed = any(
            fault.kind == KIND_CRASH
            for plan in world.plans.values()
            for fault in plan.trace
        )
        if not crashed:
            violations.append(
                f"kill of {kill['victim']} left a sealed checkpoint "
                f"that no survivor absorbed "
                f"({kill['survivors']} healthy survivor(s))"
            )
    return violations


def history_integrity(world) -> list:
    violations = []
    for replica_id, report in sorted(world.integrity.items()):
        if not report.get("consistent", False):
            violations.append(
                f"{replica_id}: in-enclave accounting inconsistent: "
                f"{report}"
            )
    return violations


#: name -> oracle, in reporting order.
INVARIANTS = {
    "exactly-one-outcome": exactly_one_outcome,
    "trace-oracles": trace_oracles,
    "per-session-fifo": per_session_fifo,
    "session-pin-stability": session_pin_stability,
    "sealed-convergence": sealed_convergence,
    "history-integrity": history_integrity,
}


def check_all(world) -> list:
    """Run every oracle; returns ``"<invariant>: <message>"`` strings."""
    violations = []
    for name, oracle in INVARIANTS.items():
        for message in oracle(world):
            violations.append(f"{name}: {message}")
    return violations
