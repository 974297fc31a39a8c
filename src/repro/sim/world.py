"""Whole-deployment simulation worlds: build, drive, audit.

:func:`run_sim` stands up a complete X-Search deployment (a cluster of
enclave replicas and per-client attested brokers), spawns client
and chaos tasks on a :class:`~repro.sim.scheduler.SimScheduler`, drives
the whole thing through one seeded interleaving, and evaluates every
:mod:`~repro.sim.invariants` oracle over what happened.  The result is
a :class:`SimReport` whose trace digest replays byte-identically for
the same :class:`WorldSpec`.

Determinism is engineered, not assumed — every nondeterminism source a
run can observe is pinned:

* scheduling: the :class:`SimScheduler` owns every task switch;
* time: a :class:`~repro.net.clock.VirtualClock` that records its hops;
* session ids: injected ``session_ids=`` factories mint ``sim-…`` names
  instead of ``secrets.token_hex``;
* enclave RNG: ``DeploymentConfig.seed`` seeds each replica's
  obfuscation stream;
* faults: seeded per-replica :class:`~repro.faults.plan.FaultPlan`\\ s.

DH/session-key entropy remains genuinely random but only influences key
*bytes*, never control flow, so it is excluded from the digest (see
:mod:`repro.sim.trace`).

One expensive piece — the RSA attestation root — is shared across runs
via :func:`shared_infrastructure`, which is what makes hundreds of
seeded runs per test session affordable.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field

from repro.core.broker import Broker
from repro.core.cluster import STATE_HEALTHY
from repro.core.deployment import DeploymentConfig, XSearchDeployment
from repro.errors import ReproError
from repro.faults.plan import (
    KIND_BUG,
    KIND_CRASH,
    KIND_DROP,
    KIND_PRESSURE,
    KIND_REFUSE,
    KIND_TIMEOUT,
    SITE_ECALL,
    SITE_ENGINE_CONNECT,
    SITE_ENGINE_RECV,
    SITE_ENGINE_SEND,
    SITE_EPC,
    FaultPlan,
)
from repro.net.clock import VirtualClock
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import TraceRecorder
from repro.search.engine import SearchEngine
from repro.sgx.attestation import AttestationService, QuotingEnclave
from repro.sgx.sealing import SealingPlatform
from repro.sim import hooks, invariants
from repro.sim.scheduler import SimScheduler
from repro.sim.trace import SimTrace

__all__ = [
    "WorldSpec",
    "SimWorld",
    "SimReport",
    "run_sim",
    "chaos_schedule",
    "shared_infrastructure",
    "CHAOS_ACTIONS",
]

#: Operation mix cycled per client: mostly single searches, with batch
#: and ingest traffic mixed in (roughly the 70/15/15 split of the
#: paper's workload model).
_OP_CYCLE = ("search", "search", "batch", "ingest")

#: Chaos vocabulary, with exploration weights.  "outage" is a toggle:
#: the first occurrence blacks the engine out, the next restores it.
#: "bug" arms one untyped engine error whose message quotes the query.
CHAOS_ACTIONS = {
    "kill": 2,
    "crash": 2,
    "outage": 2,
    "pressure": 2,
    "checkpoint": 2,
    "advance": 3,
    "add": 1,
    "bug": 1,
}

#: Crossing slots per replica in every world.  Two lets crossings
#: overlap inside one enclave, which is what the planted
#: ``history-unlocked`` bug needs to show; with one, crossings never
#: overlap and that mutation goes uncaught.
SIM_MAX_WORKERS = 2


@dataclass(frozen=True)
class WorldSpec:
    """Everything that defines one simulated world, as a frozen value.

    Two runs with equal specs produce equal trace digests.  ``chaos``
    is an ordered tuple of :data:`CHAOS_ACTIONS` names executed by the
    chaos task (use :func:`chaos_schedule` to derive one from the
    seed); ``mutation`` names a planted bug from
    :mod:`repro.sim.mutation` for sanity-gating the harness itself.
    """

    seed: int
    interleaving: int = 0
    replicas: int = 2
    clients: int = 2
    ops_per_client: int = 3
    k: int = 2
    history_capacity: int = 48
    checkpoint_interval: int = 4
    chaos: tuple = ()
    mutation: str = None
    max_steps: int = 20_000

    def __post_init__(self):
        if self.clients < 1 or self.ops_per_client < 1:
            raise ValueError("a world needs at least one client op")
        # Each sim task parks inside enclave step points while holding a
        # TCS slot; staying under the default TCS count (8) guarantees
        # the cooperative scheduler can always hand the token onward.
        if self.clients + 1 > 7:
            raise ValueError("at most 6 clients per world (TCS budget)")

    def replace(self, **changes) -> "WorldSpec":
        return dataclasses.replace(self, **changes)


def chaos_schedule(seed: int, actions: int = 4) -> tuple:
    """A deterministic chaos action tuple derived from ``seed``."""
    rng = random.Random(f"chaos:{seed}")
    names = sorted(CHAOS_ACTIONS)
    weights = [CHAOS_ACTIONS[name] for name in names]
    return tuple(rng.choices(names, weights=weights, k=actions))


# ----------------------------------------------------------------------
# Shared expensive infrastructure
# ----------------------------------------------------------------------
_SHARED = {}


def shared_infrastructure() -> dict:
    """One provisioned attestation root + synthetic engine, cached.

    RSA keygen dominates deployment construction; the attestation
    service and quoting enclave hold no per-run state, and the synthetic
    corpus is read-only at serving time, so sharing them across runs is
    safe and cuts per-run cost by an order of magnitude.
    """
    if not _SHARED:
        service = AttestationService(1024)
        quoting = QuotingEnclave(1024)
        service.provision_platform(quoting)
        _SHARED["attestation"] = (service, quoting)
        _SHARED["engine"] = SearchEngine.with_synthetic_corpus(seed=1234)
    return dict(_SHARED)


# ----------------------------------------------------------------------
# The world under test
# ----------------------------------------------------------------------
@dataclass
class SimWorld:
    """Mutable state shared between the sim tasks and the oracles."""

    spec: WorldSpec
    deployment: XSearchDeployment
    clock: VirtualClock
    recorder: TraceRecorder
    registry: MetricsRegistry
    trace: SimTrace
    plans: dict
    sim: SimScheduler
    brokers: list = field(default_factory=list)
    queries: list = field(default_factory=list)
    #: (session_id, old_pin, new_pin, old_pin_state) at change time.
    pin_changes: list = field(default_factory=list)
    last_pins: dict = field(default_factory=dict)
    #: One dict per kill: victim, blob?, survivors.
    kill_log: list = field(default_factory=list)
    #: replica_id -> history_integrity() report, post-run.
    integrity: dict = field(default_factory=dict)
    #: Open engine-outage block handles (plan, [handles]).
    outage: list = field(default_factory=list)

    @property
    def cluster(self):
        return self.deployment.cluster


@dataclass
class SimReport:
    """What one simulated run produced, digest and verdict included."""

    spec: WorldSpec
    digest: str
    violations: list
    schedule: list
    trace: SimTrace
    integrity: dict

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_artifact(self) -> dict:
        """JSON-serialisable record for failing-seed artifacts."""
        return {
            "spec": dataclasses.asdict(self.spec),
            "digest": self.digest,
            "violations": list(self.violations),
            "schedule": list(self.schedule),
            "trace": self.trace.summary(),
            "ops": list(self.trace.ops),
        }


# ----------------------------------------------------------------------
# Tasks
# ----------------------------------------------------------------------
def _session_factory(spec: WorldSpec, client: int):
    """Deterministic session-id mint: first call names the initial
    session, later calls name the broker's heal attempts."""
    state = {"n": 0}
    base = f"sim-{spec.seed}-{spec.interleaving}-c{client}"

    def mint() -> str:
        n = state["n"]
        state["n"] = n + 1
        return base if n == 0 else f"{base}.h{n}"

    return mint


def _observe_pin(world: SimWorld, broker: Broker) -> None:
    cluster = world.cluster
    session_id = broker._session_id
    pin = cluster.pinned(session_id)
    if pin is None:
        # A lost session's pin is dropped: nothing to observe.  The last
        # pin seen is kept, so a later re-pin elsewhere still counts.
        return
    previous = world.last_pins.get(session_id)
    if previous is not None and pin != previous:
        world.pin_changes.append(
            (session_id, previous, pin, cluster.state_of(previous))
        )
    world.last_pins[session_id] = pin


def _client_task(world: SimWorld, client: int):
    spec = world.spec
    broker = world.brokers[client]
    for index in range(spec.ops_per_client):
        hooks.step("client.op", client=client, op=index)
        kind = _OP_CYCLE[(client + index) % len(_OP_CYCLE)]
        stem = f"sim query c{client} i{index} s{spec.seed}"
        label = f"{kind}:{index}"
        try:
            if kind == "batch":
                broker.search_batch([f"{stem} ba", f"{stem} bb"], limit=3)
                outcome = ("degraded" if broker.last_degraded else "reply")
            elif kind == "ingest":
                broker.ingest((f"{stem} ia", f"{stem} ib"))
                outcome = "reply"
            else:
                broker.search(stem, limit=3)
                outcome = ("degraded" if broker.last_degraded else "reply")
            world.trace.record_op(f"client-{client}", label, outcome)
        except ReproError as exc:
            world.trace.record_op(
                f"client-{client}", label,
                f"error:{type(exc).__name__}", detail=exc,
            )
        _observe_pin(world, broker)


def _replica_index(replica_id: str) -> int:
    return int(replica_id.rsplit("-", 1)[1])


def _chaos_task(world: SimWorld):
    for index, action in enumerate(world.spec.chaos):
        hooks.step("chaos.pause", index=index, action=action)
        _run_chaos_action(world, action)
    _end_outage(world)


def _run_chaos_action(world: SimWorld, action: str) -> None:
    cluster = world.cluster
    healthy = sorted(cluster.healthy_ids())
    if action == "kill" and len(healthy) > 1:
        victim = healthy[-1]
        handle = cluster.replica(victim)
        try:
            cluster.kill_replica(victim)
        except ReproError:
            pass
        world.kill_log.append({
            "victim": victim,
            "blob": handle.proxy.history_checkpoint is not None,
            "survivors": len(cluster.healthy_ids()),
        })
    elif action == "crash" and healthy:
        index = _replica_index(healthy[-1])
        if index in world.plans:
            world.plans[index].trigger(SITE_ECALL, KIND_CRASH)
    elif action == "outage":
        if world.outage:
            _end_outage(world)
        elif healthy:
            index = _replica_index(healthy[0])
            if index in world.plans:
                plan = world.plans[index]
                world.outage.append((plan, [
                    plan.block(SITE_ENGINE_CONNECT, KIND_REFUSE),
                    plan.block(SITE_ENGINE_SEND, KIND_TIMEOUT),
                    plan.block(SITE_ENGINE_RECV, KIND_DROP),
                ]))
    elif action == "bug" and healthy:
        index = _replica_index(healthy[0])
        if index in world.plans:
            world.plans[index].trigger(SITE_ENGINE_SEND, KIND_BUG)
    elif action == "pressure" and healthy:
        index = _replica_index(healthy[0])
        if index in world.plans:
            world.plans[index].trigger(SITE_EPC, KIND_PRESSURE)
    elif action == "checkpoint" and healthy:
        handle = cluster.replica(healthy[0])
        try:
            handle.proxy.checkpoint_now()
        except ReproError:
            pass
    elif action == "advance":
        world.clock.advance(1.0)
    elif action == "add":
        try:
            cluster.add_replica()
        except ReproError:
            pass


def _end_outage(world: SimWorld) -> None:
    while world.outage:
        plan, handles = world.outage.pop()
        for handle in handles:
            plan.unblock(handle)


# ----------------------------------------------------------------------
# The run itself
# ----------------------------------------------------------------------
def run_sim(spec: WorldSpec, *, attestation=None, engine=None,
            schedule=()) -> SimReport:
    """Build, drive and audit one simulated world.

    ``schedule`` replays a previously recorded scheduling decision list
    (the report's ``schedule``); with the same spec this reproduces the
    identical run.  ``attestation``/``engine`` default to the shared
    cached infrastructure.
    """
    if attestation is None or engine is None:
        shared = shared_infrastructure()
        attestation = attestation or shared["attestation"]
        engine = engine or shared["engine"]

    trace = SimTrace(spec.seed, spec.interleaving)
    clock = VirtualClock(on_advance=trace.record_clock_hop)
    recorder = TraceRecorder(clock=clock)
    registry = MetricsRegistry()
    plans = {
        index: FaultPlan(seed=spec.seed * 101 + index)
        for index in range(spec.replicas)
    }
    config = DeploymentConfig(
        k=spec.k,
        history_capacity=spec.history_capacity,
        seed=spec.seed,
        replicas=spec.replicas,
        max_workers=SIM_MAX_WORKERS,
        replica_fault_plans=plans,
        # The default broker would mint a random session id and perturb
        # ring placement; the sim connects only its own brokers.
        connect=False,
        proxy_options={
            "checkpoint_interval": spec.checkpoint_interval,
            "sealing_platform": SealingPlatform(),
        },
    )
    deployment = XSearchDeployment.create(
        config=config, engine=engine,
        recorder=recorder, registry=registry, attestation=attestation,
    )
    sim = SimScheduler(
        spec.seed, spec.interleaving,
        schedule=schedule, max_steps=spec.max_steps,
    )
    world = SimWorld(
        spec=spec, deployment=deployment, clock=clock,
        recorder=recorder, registry=registry, trace=trace,
        plans=plans, sim=sim,
    )

    sim_error = None
    hooks.install(sim)
    try:
        # Setup happens on this (unmanaged) thread: step points no-op,
        # so attestation handshakes stay out of the recorded schedule.
        for client in range(spec.clients):
            broker = Broker(
                deployment.frontend,
                service_public_key=(
                    deployment.attestation_service.public_key),
                expected_measurement=deployment.proxy.measurement,
                session_ids=_session_factory(spec, client),
                clock=clock,
                recorder=recorder,
                registry=registry,
            )
            broker.connect()
            world.brokers.append(broker)
            _observe_pin(world, broker)
            for index in range(spec.ops_per_client):
                stem = f"sim query c{client} i{index} s{spec.seed}"
                world.queries.extend(
                    (stem, f"{stem} ba", f"{stem} bb",
                     f"{stem} ia", f"{stem} ib")
                )
        if spec.mutation is not None:
            from repro.sim.mutation import apply_mutation

            apply_mutation(deployment, spec.mutation)

        for client in range(spec.clients):
            sim.spawn(
                f"client-{client}",
                lambda c=client: _client_task(world, c),
            )
        if spec.chaos:
            sim.spawn("chaos", lambda: _chaos_task(world))
        try:
            sim.run()
        except ReproError as exc:
            sim_error = exc
    finally:
        hooks.uninstall(sim)
        _end_outage(world)

    # Post-run audit on the main thread (native locking again).  A
    # replica with a still-pending injected crash fails its audit ecall;
    # that is the fault plan speaking, not an integrity signal, so it is
    # skipped rather than reported.
    for handle in world.cluster.healthy_replicas():
        try:
            world.integrity[handle.replica_id] = (
                handle.proxy.history_integrity())
        except ReproError:
            pass
    deployment.close()

    trace.record_schedule(sim.schedule)
    trace.record_steps(sim.events)
    for index in sorted(plans):
        trace.record_faults(plans[index].trace)

    violations = invariants.check_all(world)
    if sim_error is not None:
        violations.append(
            f"sim-error: {type(sim_error).__name__}: {sim_error}"
        )
    return SimReport(
        spec=spec,
        digest=trace.digest(),
        violations=violations,
        schedule=list(sim.schedule),
        trace=trace,
        integrity=dict(world.integrity),
    )
