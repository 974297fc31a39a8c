"""The replica cluster: every deployment's frontend (extension).

The paper serves every client from one X-Search enclave; CYCLOSA runs
the same SGX proxy design on many enclave nodes.  Node count does not
change the design here: every deployment is an :class:`XSearchCluster`
of N ≥ 1 *independent* replicas (each its own
:class:`~repro.core.proxy.XSearchProxyHost`,
:class:`~repro.core.scheduler.RequestScheduler` and sealed history),
and the cluster consistent-hash-pins every broker session to one
replica.  A single replica is a cluster of one.  Brokers call the
cluster itself, naming their session in every call; a session is
pinned on its first routed call, its attestation.

Pinning is the privacy-preserving choice, not just the cheap one: a
session's past queries live in exactly one enclave's history, so the
fake-query quality and cache hits a user earns stay with them, and no
replica ever learns another replica's plaintext (each history is sealed
to the shared measurement, and checkpoints only cross *inside* sealed
blobs during failover).

Replica lifecycle: every replica attests with the same measurement (the
code and attested configuration are identical); the cluster feeds its
health view from the fault plane's typed errors —
:class:`~repro.errors.EnclaveLostError` from a replica counts against
it, and at :data:`FAILOVER_THRESHOLD` consecutive losses the replica is
retired, provided another healthy replica remains: it is pulled off the
hash ring, its pinned sessions re-routed to survivors, and its last
sealed checkpoint replayed (merged) into them so inherited users keep
warm obfuscation histories.  The last healthy replica is never retired
on losses — failover would have nowhere to re-pin its sessions, and its
host's respawn heals it; only :meth:`XSearchCluster.kill_replica` and
:meth:`XSearchCluster.remove_replica` retire it.  Brokers recover
through their normal heal path: a re-pinned session's next record
reaches the survivor's enclave, which holds no such session and fails
it with :class:`~repro.errors.SessionLostError`; the broker re-attests,
and the new session lands on a survivor.  A lost session is not
evidence against the replica that reports it, so the cluster never
counts one toward :data:`FAILOVER_THRESHOLD`.  A session lost either
way gives up its pin: its broker heals under a new id.

The cluster is host-side code and sees only what any untrusted cloud
front end sees: session ids, record sizes and timing (see
``docs/THREAT_MODEL.md`` on routing metadata).  It never touches
plaintext or channel keys — which is also why live sessions cannot
*migrate*: their tunnel endpoint is inside one replica's enclave, so
ring rebalance on add/remove only affects sessions not yet pinned.
"""

from __future__ import annotations

import bisect
import hashlib
import threading

from repro.errors import (
    EnclaveError,
    EnclaveLostError,
    ProtocolError,
    ReproError,
    SessionLostError,
)
from repro.obs.tracing import PLACEMENT_HOST, event, span
from repro.sim import hooks

#: Virtual nodes per replica on the hash ring: enough that adding a
#: replica steals a near-uniform 1/N share of the keyspace.
VNODES = 64
#: Consecutive typed losses before the cluster retires a replica.  The
#: proxy host self-heals one-off enclave crashes (respawn + checkpoint
#: restore), so a single loss is not yet evidence the *node* is gone.
FAILOVER_THRESHOLD = 2

STATE_HEALTHY = "healthy"
STATE_DEAD = "dead"


def _ring_point(value: str) -> int:
    """A deterministic 64-bit ring coordinate (sha256, not Python's
    salted ``hash``: the session→replica map must be stable across
    processes and seeds)."""
    digest = hashlib.sha256(value.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class HashRing:
    """A consistent-hash ring over replica ids, :data:`VNODES` points
    per member.

    Pure function of its member set: the same members always produce
    the same ring, and removing one member only re-routes the keys that
    member owned (adding one steals ~1/N of the keyspace).  Not
    thread-safe on its own — the :class:`XSearchCluster` guards it with
    its ring lock.
    """

    def __init__(self, members=()):
        self._points = []  # sorted [(point, member)]
        self._members = set()
        for member in members:
            self.add(member)

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, member) -> bool:
        return member in self._members

    def add(self, member: str) -> None:
        if member in self._members:
            raise ValueError(f"replica {member!r} is already on the ring")
        self._members.add(member)
        for vnode in range(VNODES):
            point = _ring_point(f"{member}#{vnode}")
            bisect.insort(self._points, (point, member))

    def remove(self, member: str) -> None:
        if member not in self._members:
            raise ValueError(f"replica {member!r} is not on the ring")
        self._members.discard(member)
        self._points = [
            entry for entry in self._points if entry[1] != member
        ]

    def route(self, key: str) -> str:
        """The member owning ``key``: first ring point at or after the
        key's coordinate, wrapping at the top."""
        if not self._points:
            raise EnclaveError(
                "hash ring is empty: the cluster has no healthy replicas"
            )
        index = bisect.bisect_left(self._points, (_ring_point(key),))
        if index == len(self._points):
            index = 0
        return self._points[index][1]


class ReplicaHandle:
    """One enclave replica: its proxy host and the scheduler in front.

    Deliberately dumb — health state lives in the cluster, under the
    cluster's locks.  Attestation and handshakes go to the proxy,
    requests to the scheduler.
    """

    __slots__ = ("replica_id", "index", "proxy", "scheduler")

    def __init__(self, replica_id: str, index: int, proxy, scheduler):
        self.replica_id = replica_id
        self.index = index
        self.proxy = proxy
        self.scheduler = scheduler

    @property
    def measurement(self):
        return self.proxy.measurement

    def close(self) -> None:
        """Stop the scheduler (draining), then the proxy (final
        checkpoint when sealing is on).  Idempotent."""
        self.scheduler.close()
        self.proxy.close()

    def __repr__(self) -> str:
        return f"<replica {self.replica_id}>"


class XSearchCluster:
    """N ≥ 1 independent enclave replicas behind one consistent-hash
    ring, with replica health tracking.

    Build it through :meth:`repro.core.deployment.XSearchDeployment.create`
    (``DeploymentConfig(replicas=N)``), which wires shared attestation,
    a shared sealing platform and per-replica fault plans; or construct
    it directly from pre-built :class:`ReplicaHandle`\\ s in tests.

    Brokers bind the cluster itself.  Each of its four calls —
    :meth:`attestation_evidence`, :meth:`begin_session`,
    :meth:`request` and :meth:`request_batch` — names its session and
    is routed to the replica that session is pinned to (after a
    failover, the survivor that inherited it).

    Two locks, acquired ring-before-health everywhere (and registered
    with xlint's ``LOCK_ORDER``): ``_ring_lock`` guards membership, the
    ring and the session pins; ``_health_lock`` guards the health
    states and consecutive-loss counters.  Dispatch itself runs
    lock-free — the cluster resolves the pin, releases, then calls the
    replica, so one slow replica cannot serialise the cluster.
    """

    def __init__(self, replicas, *, replica_factory=None, recorder=None,
                 registry=None):
        replicas = list(replicas)
        if not replicas:
            raise ValueError("a cluster needs at least one replica")
        self._recorder = recorder
        self._registry = registry
        self._replica_factory = replica_factory
        self._next_index = max(handle.index for handle in replicas) + 1
        self._ring_lock = threading.RLock()
        self._health_lock = threading.Lock()
        self._ring = HashRing()
        self._replicas = {}   # replica_id -> ReplicaHandle (dead kept)
        self._pins = {}       # session_id -> replica_id
        self._replayed = {}   # replica_id -> checkpoint blob replayed
        self._states = {}     # replica_id -> STATE_*
        self._losses = {}     # replica_id -> consecutive typed losses
        self.failovers = 0
        for handle in replicas:
            self._admit(handle)
        if registry is not None:
            registry.gauge("cluster.ring_size").set_function(
                lambda: self.ring_size)
            registry.gauge("cluster.replicas_healthy").set_function(
                lambda: len(self.healthy_ids()))
            registry.gauge("cluster.sessions_pinned").set_function(
                lambda: self.session_count)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def _admit(self, handle: ReplicaHandle) -> None:
        """Add a replica to the ring.  Rebalance only affects sessions
        not yet pinned: a live session's channel keys are inside its
        replica's enclave, so it cannot migrate."""
        with self._ring_lock:
            if handle.replica_id in self._replicas:
                raise ValueError(
                    f"replica {handle.replica_id!r} is already admitted"
                )
            self._replicas[handle.replica_id] = handle
            self._ring.add(handle.replica_id)
            with self._health_lock:
                self._states[handle.replica_id] = STATE_HEALTHY
                self._losses[handle.replica_id] = 0
        event(self._recorder, "cluster.admit", replica=handle.replica_id)

    def replica(self, replica_id: str) -> ReplicaHandle:
        with self._ring_lock:
            handle = self._replicas.get(replica_id)
        if handle is None:
            raise ValueError(f"unknown replica {replica_id!r}")
        return handle

    @property
    def replicas(self) -> tuple:
        """Every admitted replica (dead ones included), spawn order."""
        with self._ring_lock:
            handles = list(self._replicas.values())
        return tuple(sorted(handles, key=lambda handle: handle.index))

    @property
    def ring_size(self) -> int:
        with self._ring_lock:
            return len(self._ring)

    @property
    def session_count(self) -> int:
        with self._ring_lock:
            return len(self._pins)

    def healthy_ids(self) -> tuple:
        with self._health_lock:
            healthy = [replica_id for replica_id, state
                       in self._states.items() if state == STATE_HEALTHY]
        return tuple(sorted(healthy))

    def healthy_replicas(self) -> tuple:
        healthy = set(self.healthy_ids())
        return tuple(handle for handle in self.replicas
                     if handle.replica_id in healthy)

    def state_of(self, replica_id: str) -> str:
        with self._health_lock:
            return self._states.get(replica_id, STATE_DEAD)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def pinned(self, session_id: str):
        """The session's current pin, or ``None`` if never routed or
        lost."""
        with self._ring_lock:
            return self._pins.get(session_id)

    def sessions_on(self, replica_id: str) -> tuple:
        with self._ring_lock:
            pinned = [session_id for session_id, owner
                      in self._pins.items() if owner == replica_id]
        return tuple(sorted(pinned))

    def ring_map(self, session_ids) -> dict:
        """Pure preview: where the current ring would place each id
        (no pinning) — the stability/rebalance tests key on this."""
        with self._ring_lock:
            return {session_id: self._ring.route(session_id)
                    for session_id in session_ids}

    def _resolve_locked(self, session_id: str) -> ReplicaHandle:
        """Pin (or re-pin off a dead replica); caller holds the ring
        lock."""
        owner = self._pins.get(session_id)
        if owner is not None and self.state_of(owner) == STATE_HEALTHY:
            return self._replicas[owner]
        target = self._ring.route(session_id)
        self._pins[session_id] = target
        return self._replicas[target]

    # ------------------------------------------------------------------
    # The frontend brokers bind: every call names its session
    # ------------------------------------------------------------------
    def attestation_evidence(self, session_id: str) -> tuple:
        """``(verdict, channel_public)`` from the session's replica; the
        session's first routed call, so this is where it is pinned."""
        return self._dispatch(
            session_id, "attestation_evidence",
            lambda replica: replica.proxy.attestation_evidence(session_id))

    def begin_session(self, session_id: str, client_hello: bytes) -> bytes:
        return self._dispatch(
            session_id, "begin_session",
            lambda replica: replica.proxy.begin_session(session_id,
                                                        client_hello))

    def request(self, session_id: str, record: bytes) -> bytes:
        return self._dispatch(
            session_id, "request",
            lambda replica: replica.scheduler.request(session_id, record))

    def request_batch(self, batch) -> tuple:
        """One session's batch, through its replica's scheduler.  A
        batch naming several sessions is refused before anything
        crosses: routing follows one session, and a replica does not
        know another replica's sessions."""
        batch = list(batch)
        sessions = {session_id for session_id, _ in batch}
        if len(sessions) != 1:
            raise ProtocolError("a batch must name a single session")
        return self._dispatch(
            batch[0][0], "request_batch",
            lambda replica: replica.scheduler.request_batch(batch))

    # ------------------------------------------------------------------
    # Dispatch with health accounting
    # ------------------------------------------------------------------
    def _dispatch(self, session_id: str, name: str, call):
        """``call(replica)`` on the session's replica, pinning the
        session first if it has no live pin; ``name`` labels the step
        and the span."""
        with self._ring_lock:
            replica = self._resolve_locked(session_id)
        replica_id = replica.replica_id
        # Interleaving point before the replica call, outside every
        # cluster lock: the simulation reorders dispatches against
        # failovers and checkpoint replays here.
        hooks.step("cluster.dispatch", op=name, replica=replica_id)
        with span(self._recorder, f"cluster.{name}",
                  placement=PLACEMENT_HOST, replica=replica_id):
            try:
                result = call(replica)
            except SessionLostError:
                # The session is gone, not the replica.  Its keys are
                # gone too and its broker heals under a new id, so the
                # pin would never be used again.
                self._forget(session_id)
                raise
            except EnclaveLostError:
                self._note_loss(replica_id)
                self._forget(session_id)
                raise
            except EnclaveError as exc:
                if self.state_of(replica_id) == STATE_DEAD:
                    # A retired replica's "host is closed" must read as
                    # a loss: the broker heals, the new session routes
                    # to the survivor that inherited this user.
                    self._forget(session_id)
                    raise EnclaveLostError(
                        f"replica {replica_id} is retired; reconnect to "
                        f"be re-routed to a survivor"
                    ) from exc
                raise
            self._note_ok(replica_id)
            return result

    def _forget(self, session_id: str) -> None:
        with self._ring_lock:
            self._pins.pop(session_id, None)

    # ------------------------------------------------------------------
    # Health and failover
    # ------------------------------------------------------------------
    def _note_loss(self, replica_id: str) -> None:
        with self._health_lock:
            if self._states.get(replica_id) != STATE_HEALTHY:
                return
            self._losses[replica_id] = self._losses.get(replica_id, 0) + 1
            losses = self._losses[replica_id]
        event(self._recorder, "cluster.replica_loss",
              replica=replica_id, consecutive=losses)
        if self._registry is not None:
            self._registry.counter("cluster.replica_losses").inc()
        if losses >= FAILOVER_THRESHOLD:
            self._retire(replica_id, keep_last=True)

    def _note_ok(self, replica_id: str) -> None:
        with self._health_lock:
            if self._losses.get(replica_id):
                self._losses[replica_id] = 0

    def failover(self, replica_id: str) -> int:
        """Retire a replica: mark it dead, pull it off the ring, re-pin
        its sessions to survivors and replay its last sealed checkpoint
        into them.  Idempotent; returns the number of sessions moved.

        A call on a replica already retired moves nothing, but replays
        a checkpoint published since the last replay: a client's
        failover can race :meth:`kill_replica` and replay before the
        kill's final checkpoint exists."""
        return self._retire(replica_id, keep_last=False)

    def _retire(self, replica_id: str, *, keep_last: bool) -> int:
        """:meth:`failover`; with ``keep_last`` a no-op when no other
        healthy replica remains (the decision and the retirement share
        one locked section, so two replicas losing at once cannot
        retire each other)."""
        hooks.step("cluster.failover", replica=replica_id)
        with self._ring_lock:
            handle = self._replicas.get(replica_id)
            if handle is None:
                raise ValueError(f"unknown replica {replica_id!r}")
            with self._health_lock:
                retired = self._states.get(replica_id) == STATE_DEAD
                if keep_last and not retired and not any(
                        state == STATE_HEALTHY
                        for other, state in self._states.items()
                        if other != replica_id):
                    return 0
                self._states[replica_id] = STATE_DEAD
            if not retired:
                if replica_id in self._ring:
                    self._ring.remove(replica_id)
                moved = self._repin_locked(replica_id)
                survivors = len(self._ring)
        if retired:
            self._replay_checkpoint(handle)
            return 0
        self.failovers += 1
        event(self._recorder, "cluster.failover", replica=replica_id,
              sessions_moved=moved, survivors=survivors)
        if self._registry is not None:
            self._registry.counter("cluster.failovers").inc()
            if moved:
                self._registry.counter("cluster.repins").inc(moved)
        self._replay_checkpoint(handle)
        return moved

    def _repin_locked(self, replica_id: str) -> int:
        """Re-route the dead replica's sessions; caller holds the ring
        lock.  The survivor's enclave has never seen their handshakes,
        so their next record fails with ``SessionLostError`` and their
        brokers heal.  With the ring empty the pins are dropped — the
        next call raises "no healthy replicas" instead of routing into a
        void."""
        moved = 0
        for session_id, owner in sorted(self._pins.items()):
            if owner != replica_id:
                continue
            if len(self._ring) == 0:
                del self._pins[session_id]
            else:
                self._pins[session_id] = self._ring.route(session_id)
            moved += 1
        return moved

    def _replay_checkpoint(self, handle: ReplicaHandle) -> None:
        """Merge the dead replica's last sealed checkpoint into every
        survivor (its sessions were spread across all of them).  The
        blob is opaque to this host-side code: only an enclave with the
        shared measurement on the shared platform can open it."""
        blob = handle.proxy.history_checkpoint
        with self._ring_lock:
            if blob is None or self._replayed.get(handle.replica_id) is blob:
                return
            self._replayed[handle.replica_id] = blob
        for survivor in self.healthy_replicas():
            try:
                entries = survivor.proxy.absorb_history(blob)
            except ReproError:
                continue  # best-effort warm-up; the survivor serves cold
            # The sealed-convergence oracle keys on these step events:
            # a killed replica's checkpoint must reach some survivor.
            hooks.step("cluster.absorb", replica=survivor.replica_id,
                       source=handle.replica_id, entries=entries)
            event(self._recorder, "cluster.checkpoint_replay",
                  source=handle.replica_id,
                  replica=survivor.replica_id, entries=entries)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def kill_replica(self, replica_id: str) -> int:
        """The experiments' deterministic kill switch: close the
        replica's host (taking its final checkpoint when sealing is on)
        and fail it over.  Returns the number of sessions re-pinned."""
        handle = self.replica(replica_id)
        handle.close()
        moved = self.failover(replica_id)
        event(self._recorder, "cluster.kill", replica=replica_id,
              sessions_moved=moved)
        return moved

    def add_replica(self) -> ReplicaHandle:
        """Grow the cluster by one replica (hash-ring rebalance; only
        future sessions land on it — live pins are sticky)."""
        if self._replica_factory is None:
            raise EnclaveError(
                "this cluster was built without a replica factory; "
                "create it via XSearchDeployment to grow it at runtime"
            )
        index = self._next_index
        self._next_index += 1
        handle = self._replica_factory(index)
        self._admit(handle)
        return handle

    def remove_replica(self, replica_id: str) -> int:
        """Graceful drain: checkpoint, retire (re-pinning its sessions
        and replaying the fresh checkpoint into survivors), close."""
        handle = self.replica(replica_id)
        try:
            handle.proxy.checkpoint_now()
        except ReproError:
            pass  # no sealing configured: survivors inherit cold
        moved = self.failover(replica_id)
        handle.close()
        return moved

    def close(self) -> None:
        """Tear every replica down.  Idempotent."""
        for handle in self.replicas:
            handle.close()

    def __enter__(self) -> "XSearchCluster":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
