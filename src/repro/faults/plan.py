"""The deterministic fault plan: what breaks, where, and when.

A :class:`FaultPlan` is a seedable schedule of induced failures that the
instrumented layers consult at well-known *sites* — one ``decide(site)``
call per potentially-faulty operation.  Sites are cheap string labels:

========================  ====================================================
site                      consulted by
========================  ====================================================
``engine.connect``        :meth:`repro.core.gateway.EngineGateway.sock_connect`
``engine.send``           :meth:`repro.core.gateway.EngineGateway.send`
``engine.recv``           :meth:`repro.core.gateway.EngineGateway.recv`
``enclave.ecall``         :meth:`repro.sgx.runtime.Enclave.call`
``enclave.epc``           :meth:`repro.sgx.runtime.Enclave.call` (pressure)
``attestation.quote``     :meth:`repro.core.proxy.XSearchProxyHost.attestation_evidence`
``server.accept``         :class:`repro.netserve.server.XSearchServer` (accept loop)
``server.frame.recv``     :class:`repro.netserve.server.XSearchServer` (per frame read)
``server.frame.send``     :class:`repro.netserve.server.XSearchServer` (per frame write)
========================  ====================================================

Determinism is the load-bearing property: a plan built from the same
seed and driven by the same per-site operation sequence produces the
*identical* trace of injected faults, regardless of how operations on
different sites interleave (each probabilistic rule draws from its own
RNG derived from ``(seed, site, rule index)``).  That is what makes an
availability run reproducible and lets tests assert exact fault traces.

Three trigger styles compose:

* ``at=(3, 9)`` — fire at explicit per-site operation indices;
* ``probability=0.05`` — fire stochastically (seeded), optionally capped
  with ``limit=N``;
* :meth:`FaultPlan.block` / :meth:`FaultPlan.unblock` — fire on *every*
  operation until released (outage windows), with
  :meth:`FaultPlan.trigger` as the one-shot special case.

A plan is inert until something consults it, and every instrumented
layer treats ``plan is None`` as a zero-cost no-op — with no plan
installed the system's boundary-crossing counts are bit-for-bit those of
the un-instrumented build.
"""

from __future__ import annotations

import itertools
import random
import threading
from dataclasses import dataclass, field

# The instrumented sites.  Free-form strings are accepted too (the plan
# is a generic facility), but these are the ones the stack consults.
SITE_ENGINE_CONNECT = "engine.connect"
SITE_ENGINE_SEND = "engine.send"
SITE_ENGINE_RECV = "engine.recv"
SITE_ECALL = "enclave.ecall"
SITE_EPC = "enclave.epc"
SITE_ATTESTATION = "attestation.quote"
SITE_SERVER_ACCEPT = "server.accept"
SITE_SERVER_RECV = "server.frame.recv"
SITE_SERVER_SEND = "server.frame.send"

ENGINE_SITES = (SITE_ENGINE_CONNECT, SITE_ENGINE_SEND, SITE_ENGINE_RECV)
SERVER_SITES = (SITE_SERVER_ACCEPT, SITE_SERVER_RECV, SITE_SERVER_SEND)

# Fault kinds understood by the wired-in layers.
KIND_REFUSE = "refuse"          # connect: connection refused
KIND_DROP = "drop"              # send/recv: peer closed mid-exchange
KIND_TIMEOUT = "timeout"        # send/recv: no answer within budget
KIND_GARBLE = "garble"          # recv: corrupted frame delivered
KIND_CRASH = "crash"            # ecall: enclave dies on entry
KIND_PRESSURE = "pressure"      # epc: spike swaps the working set out
KIND_TRANSIENT = "transient"    # attestation: quoting service hiccup
KIND_SLOWLORIS = "slowloris"    # server send: reply trickled byte-wise
KIND_BUG = "bug"                # engine send: untyped error quoting the query


@dataclass(frozen=True)
class InjectedFault:
    """One fault the plan actually fired (an entry of the trace)."""

    site: str
    kind: str
    operation: int  # per-site operation index at which it fired
    detail: str = ""


@dataclass
class _Rule:
    """One installed fault rule (internal)."""

    rule_id: int
    site: str
    kind: str
    at: frozenset = frozenset()
    probability: float = 0.0
    always: bool = False
    limit: int = None  # remaining firings; None = unbounded
    detail: str = ""
    rng: random.Random = None
    released: bool = False
    fired: int = field(default=0)

    def consider(self, operation: int):
        """Whether this rule fires at the given per-site operation.

        Probabilistic rules *always* draw — even when already released
        or exhausted — so the RNG stream consumed by one rule never
        depends on the plan's mutable state, keeping traces replayable.
        """
        draw = None
        if self.probability > 0.0:
            draw = self.rng.random()
        if self.released:
            return False
        if self.limit is not None and self.fired >= self.limit:
            return False
        if operation in self.at:
            return True
        if self.always:
            return True
        if draw is not None and draw < self.probability:
            return True
        return False


class FaultPlan:
    """A seeded, deterministic schedule of induced failures.

    Thread-safe: the proxy consults the plan from multiple TCS threads.
    All mutation (installing rules, opening/closing outages) and every
    ``decide`` run under one lock; per-site operation counters advance
    exactly once per consulted operation whether or not a fault fires.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._rules = {}          # site -> [_Rule] in installation order
        self._counters = {}       # site -> next operation index
        self._trace = []
        self._rule_ids = itertools.count()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Installing rules
    # ------------------------------------------------------------------
    def on(self, site: str, kind: str, *, at=(), probability: float = 0.0,
           limit: int = None, detail: str = "") -> "FaultPlan":
        """Install a scheduled or probabilistic rule; returns ``self``
        so plans read as chained declarations."""
        if probability < 0.0 or probability > 1.0:
            raise ValueError("fault probability must be within [0, 1]")
        if not at and probability == 0.0:
            raise ValueError(
                "rule needs a schedule: pass at=..., probability=..., or "
                "use block()/trigger() for unconditional faults"
            )
        with self._lock:
            self._install(site, kind, at=frozenset(at),
                          probability=probability, limit=limit,
                          detail=detail)
        return self

    def block(self, site: str, kind: str, detail: str = "") -> int:
        """Fault *every* operation at ``site`` until :meth:`unblock`.

        Returns a handle.  This is how outage windows are expressed: the
        caller opens the block when the outage starts and releases it
        when the engine "comes back".
        """
        with self._lock:
            rule = self._install(site, kind, always=True, detail=detail)
            return rule.rule_id

    def unblock(self, handle: int) -> None:
        """Release a :meth:`block` (unknown handles are ignored: closing
        an outage twice is not an error)."""
        with self._lock:
            for rules in self._rules.values():
                for rule in rules:
                    if rule.rule_id == handle:
                        rule.released = True

    def trigger(self, site: str, kind: str, detail: str = "") -> None:
        """One-shot: fault the *next* operation at ``site``."""
        with self._lock:
            self._install(site, kind, always=True, limit=1, detail=detail)

    def _install(self, site, kind, *, at=frozenset(), probability=0.0,
                 always=False, limit=None, detail="") -> _Rule:
        rule_id = next(self._rule_ids)
        rng = None
        if probability > 0.0:
            # Seeded per (plan seed, site, rule id): the stream a rule
            # consumes is independent of every other site and rule.
            rng = random.Random(f"{self.seed}:{site}:{rule_id}")
        rule = _Rule(rule_id=rule_id, site=site, kind=kind, at=at,
                     probability=probability, always=always, limit=limit,
                     detail=detail, rng=rng)
        self._rules.setdefault(site, []).append(rule)
        return rule

    # ------------------------------------------------------------------
    # Consultation (the instrumented layers call this)
    # ------------------------------------------------------------------
    def decide(self, site: str):
        """Advance the site's operation counter and return the fault to
        inject (an :class:`InjectedFault`), or ``None``.

        First installed rule wins when several would fire; every
        considered probabilistic rule still consumes its draw, so
        shadowed rules do not shift later decisions.
        """
        with self._lock:
            operation = self._counters.get(site, 0)
            self._counters[site] = operation + 1
            fired = None
            for rule in self._rules.get(site, ()):
                if rule.consider(operation) and fired is None:
                    rule.fired += 1
                    fired = InjectedFault(
                        site=site, kind=rule.kind, operation=operation,
                        detail=rule.detail,
                    )
            if fired is not None:
                self._trace.append(fired)
            return fired

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def trace(self) -> tuple:
        """Every fault injected so far, in firing order."""
        with self._lock:
            return tuple(self._trace)

    def operations(self, site: str) -> int:
        """How many operations have consulted ``site``."""
        with self._lock:
            return self._counters.get(site, 0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        with self._lock:
            rules = sum(len(r) for r in self._rules.values())
            return (f"FaultPlan(seed={self.seed}, rules={rules}, "
                    f"injected={len(self._trace)})")


def decide(plan, site: str):
    """``plan.decide(site)`` tolerant of ``plan is None``.

    The instrumented layers call this helper so the no-plan fast path is
    a single identity check — the default configuration stays fault-free
    and cost-free.
    """
    if plan is None:
        return None
    return plan.decide(site)
