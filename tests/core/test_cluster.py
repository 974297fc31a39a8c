"""Multi-enclave cluster: consistent-hash routing, failover, lifecycle.

The claims under test, in the paper's terms: scale-out must not change
what any single enclave sees (a broker session lives on exactly one
replica, so one replica's history never mingles with another's), and a
replica loss must be survivable (the consistent-hash ring re-pins the
dead replica's sessions onto survivors, whose enclaves absorb its
sealed checkpoint, and the displaced brokers re-attest transparently).
"""

from __future__ import annotations

import sys
import threading
from types import SimpleNamespace

import pytest

from repro.core import (
    DeploymentConfig,
    HashRing,
    ReplicaHandle,
    RetryPolicy,
    XSearchCluster,
    XSearchDeployment,
)
from repro.core.cluster import _ring_point
from repro.errors import EnclaveError, ReproError
from repro.faults import KIND_CRASH, SITE_ECALL, FaultPlan
from repro.obs import TraceChecker, TraceRecorder
from repro.sim import hooks


def _ids_on(replica_id: str, count: int, members, *,
            prefix="sess") -> list:
    """Deterministic session ids that the ring pins to ``replica_id``."""
    ring = HashRing(members)
    out = []
    salt = 0
    while len(out) < count:
        candidate = f"{prefix}-{salt:05d}"
        salt += 1
        if ring.route(candidate) == replica_id:
            out.append(candidate)
    return out


# ----------------------------------------------------------------------
# The hash ring
# ----------------------------------------------------------------------
def test_ring_is_a_pure_function_of_the_member_set():
    keys = [f"key-{i}" for i in range(100)]
    one = HashRing(["a", "b", "c"])
    two = HashRing(["c", "a", "b"])  # insertion order differs
    assert [one.route(k) for k in keys] == [two.route(k) for k in keys]


def test_adding_a_member_only_steals_keys_for_the_newcomer():
    keys = [f"key-{i}" for i in range(200)]
    ring = HashRing(["a", "b", "c"])
    before = {k: ring.route(k) for k in keys}
    ring.add("d")
    after = {k: ring.route(k) for k in keys}
    moved = [k for k in keys if before[k] != after[k]]
    # Consistent hashing's defining property: every moved key moved TO
    # the new member — no key shuffles between surviving members.
    assert all(after[k] == "d" for k in moved)
    # And the newcomer takes roughly its fair share, never a landslide.
    assert 0 < len(moved) < len(keys) // 2


def test_removing_a_member_only_moves_its_own_keys():
    keys = [f"key-{i}" for i in range(200)]
    ring = HashRing(["a", "b", "c"])
    before = {k: ring.route(k) for k in keys}
    ring.remove("b")
    after = {k: ring.route(k) for k in keys}
    for key in keys:
        if before[key] != "b":
            assert after[key] == before[key]
        else:
            assert after[key] != "b"


def test_ring_rejects_duplicates_and_empty_routing():
    ring = HashRing(["a"])
    with pytest.raises(ValueError):
        ring.add("a")
    ring.remove("a")
    with pytest.raises(EnclaveError):
        ring.route("anything")


def test_ring_points_are_stable_64_bit_values():
    # The ring hash is part of the routing contract (a restarted cluster
    # must re-derive identical pins), so pin its construction.
    point = _ring_point("replica-0#0")
    assert 0 <= point < 2 ** 64
    assert point == _ring_point("replica-0#0")


# ----------------------------------------------------------------------
# Session routing
# ----------------------------------------------------------------------
def test_sessions_pin_stably_and_match_the_ring_preview():
    config = DeploymentConfig(seed=11, k=2, replicas=3, connect=False)
    with XSearchDeployment.create(config=config) as deployment:
        cluster = deployment.cluster
        ids = [f"pin-{i:03d}" for i in range(12)]
        preview = cluster.ring_map(ids)
        for session_id in ids:
            cluster.attestation_evidence(session_id)
            pin = cluster.pinned(session_id)
            assert pin == preview[session_id]
            # Re-resolving never migrates a live session.
            cluster.attestation_evidence(session_id)
            assert cluster.pinned(session_id) == pin


def test_requests_stay_on_the_pinned_replica():
    recorder = TraceRecorder()
    config = DeploymentConfig(seed=11, k=2, replicas=2)
    with XSearchDeployment.create(config=config,
                                  recorder=recorder) as deployment:
        members = [h.replica_id for h in deployment.cluster.replicas]
        ids = (_ids_on("replica-0", 2, members)
               + _ids_on("replica-1", 2, members))
        clients = [deployment.client(user_id=f"u{i}", session_id=sid)
                   for i, sid in enumerate(ids)]
        handles = {h.replica_id: h for h in deployment.cluster.replicas}
        before = {rid: h.proxy.enclave.boundary_snapshot().ecall_counts
                  .get("request_many", 0) for rid, h in handles.items()}
        for client in clients:
            client.search("museum train", limit=2)
            client.search("river cruise", limit=2)
        after = {rid: h.proxy.enclave.boundary_snapshot().ecall_counts
                 .get("request_many", 0) for rid, h in handles.items()}
        # Two sessions × two searches landed on each replica — and only
        # those: the boundary counters prove zero cross-replica traffic.
        assert after["replica-0"] - before["replica-0"] == 4
        assert after["replica-1"] - before["replica-1"] == 4
    # Every search trace touches exactly one replica.
    for trace in recorder.traces:
        if trace.root.name != "broker.search":
            continue
        replicas_touched = {
            span.attributes["replica"]
            for span in trace.walk()
            if span.name.startswith("cluster.")
            and "replica" in span.attributes
        }
        assert len(replicas_touched) <= 1


class _DestroyAtDispatch:
    """A step controller that destroys the dispatching replica's
    enclave at the ``nth`` ``cluster.dispatch`` step, standing in for a
    crash on another thread.  It manages no thread, so every thread
    runs natively."""

    def __init__(self, cluster, nth):
        self._cluster = cluster
        self._nth = nth
        self.ops = []
        self.destroyed = None

    def manages_current(self):
        return False

    def on_step(self, site, info):
        if site != "cluster.dispatch":
            return
        self.ops.append(info["op"])
        if len(self.ops) == self._nth:
            self.destroyed = info["replica"]
            self._cluster.replica(self.destroyed).proxy.enclave.destroy()


@pytest.mark.parametrize("replicas", [1, 2])
def test_an_enclave_lost_mid_connect_is_retried_not_refused(replicas):
    """The quote and the channel key it binds come from one enclave:
    a crash right after attestation costs one connect retry, never an
    attestation failure."""
    config = DeploymentConfig(seed=11, k=2, replicas=replicas,
                              connect=False)
    with XSearchDeployment.create(config=config) as deployment:
        members = [h.replica_id for h in deployment.cluster.replicas]
        ids = iter(_ids_on("replica-0", 2, members, prefix="race"))
        controller = _DestroyAtDispatch(deployment.cluster, 2)
        hooks.install(controller)
        try:
            client = deployment.client(user_id="race",
                                       session_ids=ids.__next__)
        finally:
            hooks.uninstall(controller)
        assert controller.destroyed == "replica-0"
        assert client._broker.is_connected
        assert controller.ops.count("attestation_evidence") <= 2
        assert isinstance(client.search("museum train", limit=2), list)


def test_router_batches_split_by_pin_and_merge_in_order():
    config = DeploymentConfig(seed=11, k=2, replicas=2, connect=False)
    with XSearchDeployment.create(config=config) as deployment:
        members = [h.replica_id for h in deployment.cluster.replicas]
        ids = (_ids_on("replica-0", 1, members, prefix="ba")
               + _ids_on("replica-1", 1, members, prefix="bb"))
        clients = [deployment.client(user_id=f"u{i}", session_id=sid)
                   for i, sid in enumerate(ids)]
        for client in clients:
            results = client.search_batch(
                ["museum train", "river cruise", "city hotel"], limit=2,
            )
            assert len(results) == 3


# ----------------------------------------------------------------------
# Failover
# ----------------------------------------------------------------------
def test_kill_replica_repins_and_brokers_heal_onto_survivors():
    recorder = TraceRecorder()
    config = DeploymentConfig(seed=11, k=2, replicas=2, connect=False)
    with XSearchDeployment.create(config=config,
                                  recorder=recorder) as deployment:
        members = [h.replica_id for h in deployment.cluster.replicas]
        victims = _ids_on("replica-1", 2, members, prefix="vic")
        keepers = _ids_on("replica-0", 2, members, prefix="keep")
        clients = {
            sid: deployment.client(user_id=sid, session_id=sid)
            for sid in victims + keepers
        }
        for client in clients.values():
            assert len(client.search("museum train", limit=2)) >= 0

        cluster = deployment.cluster
        # The deployment's default broker pins one randomly-named
        # session too; count exactly what sits on the victim before
        # the kill rather than assuming only our minted sessions.
        expected = len(cluster.sessions_on("replica-1"))
        assert expected >= len(victims)
        moved = deployment.cluster.kill_replica("replica-1")
        assert moved == expected
        assert cluster.healthy_ids() == ("replica-0",)
        assert cluster.state_of("replica-1") == "dead"

        # Every client — displaced or not — still gets exactly one
        # answer per request; the displaced ones healed exactly once.
        for client in clients.values():
            assert isinstance(client.search("river cruise", limit=2),
                              list)
        assert [clients[sid]._broker.reconnects for sid in victims] \
            == [1, 1]
        assert [clients[sid]._broker.reconnects for sid in keepers] \
            == [0, 0]
        # Healed sessions now live on the survivor.
        for sid, client in clients.items():
            assert cluster.pinned(client._broker._session_id) \
                == "replica-0"
        # A displaced session reaching the survivor is not evidence
        # against it.
        assert cluster._losses["replica-0"] == 0
    violations = TraceChecker().check_recorder(recorder)
    assert violations == []


def test_kill_replica_is_idempotent_and_replays_the_checkpoint():
    config = DeploymentConfig(seed=11, k=2, replicas=2, connect=False)
    with XSearchDeployment.create(config=config) as deployment:
        members = [h.replica_id for h in deployment.cluster.replicas]
        sid = _ids_on("replica-1", 1, members, prefix="ck")[0]
        client = deployment.client(user_id="ck", session_id=sid)
        client._broker.ingest(["venice hotels", "rome weather"])
        survivor = deployment.cluster.replica("replica-0")
        # checkpoint_now() reports how many history entries it sealed —
        # the enclave-side count, read without reaching past the ecall
        # surface (replicas>1 auto-provisions the sealing platform).
        entries_before = survivor.proxy.checkpoint_now()

        deployment.cluster.kill_replica("replica-1")
        assert deployment.cluster.failover("replica-1") == 0

        # The survivor absorbed the victim's sealed checkpoint, so the
        # ingested queries obfuscate future traffic from day one.
        entries_after = survivor.proxy.checkpoint_now()
        assert entries_after >= entries_before + 2


def test_a_kill_raced_by_a_failover_still_replays_its_final_checkpoint():
    """A client's failover can retire the victim before the kill's final
    checkpoint exists; the kill's own failover then replays it."""
    config = DeploymentConfig(seed=11, k=2, replicas=2, connect=False)
    with XSearchDeployment.create(config=config) as deployment:
        members = [h.replica_id for h in deployment.cluster.replicas]
        sid = _ids_on("replica-1", 1, members, prefix="race")[0]
        client = deployment.client(user_id="race", session_id=sid)
        client._broker.ingest(["venice hotels", "rome weather"])
        survivor = deployment.cluster.replica("replica-0")
        entries_before = survivor.proxy.checkpoint_now()
        victim = deployment.cluster.replica("replica-1")
        assert victim.proxy.history_checkpoint is None

        deployment.cluster.failover("replica-1")
        deployment.cluster.kill_replica("replica-1")

        entries_after = survivor.proxy.checkpoint_now()
        assert entries_after >= entries_before + 2


def test_replica_scoped_fault_plan_drives_automatic_failover():
    plan = FaultPlan(seed=0)
    config = DeploymentConfig(
        seed=11, k=2, replicas=2, connect=False,
        replica_fault_plans={1: plan},
    )
    policy = RetryPolicy(max_attempts=4, base_delay=0.0)
    with XSearchDeployment.create(config=config) as deployment:
        members = [h.replica_id for h in deployment.cluster.replicas]
        sids = _ids_on("replica-1", 2, members, prefix="fp")
        clients = [
            deployment.client(user_id=sid, session_id=sid,
                              retry_policy=policy)
            for sid in sids
        ]
        for client in clients:
            client.search("museum train", limit=2)

        # From here every ecall into replica-1 crashes its enclave; the
        # host respawns it but the losses count, and at the threshold
        # the cluster retires the replica and re-pins its sessions.
        plan.block(SITE_ECALL, KIND_CRASH)
        outcomes = []
        for _ in range(3):
            for client in clients:
                try:
                    client.search("river cruise", limit=2)
                except ReproError:
                    outcomes.append("error")
                else:
                    outcomes.append("ok")
        cluster = deployment.cluster
        assert cluster.state_of("replica-1") == "dead"
        assert cluster.healthy_ids() == ("replica-0",)
        # Once failed over, everyone is served by the survivor.
        for client in clients:
            assert isinstance(client.search("city hotel", limit=2), list)
            assert cluster.pinned(client._broker._session_id) \
                == "replica-0"
        assert "ok" in outcomes  # the cluster never went fully dark


def test_one_enclave_crash_never_retires_a_replica():
    """One crash costs the sessions on the crashed enclave, not the
    replica: a second session's first request after the respawn finds
    its session gone, and that is not a second loss."""
    plan = FaultPlan(seed=0)
    config = DeploymentConfig(
        seed=11, k=2, replicas=2, connect=False,
        replica_fault_plans={0: plan},
    )
    with XSearchDeployment.create(config=config) as deployment:
        members = [h.replica_id for h in deployment.cluster.replicas]
        first, second = (
            deployment.client(user_id=sid, session_id=sid)
            for sid in _ids_on("replica-0", 2, members, prefix="one")
        )
        first.search("museum train", limit=2)
        second.search("museum train", limit=2)

        plan.trigger(SITE_ECALL, KIND_CRASH)
        with pytest.raises(ReproError):
            first.search("river cruise", limit=2,
                         retry_policy=RetryPolicy(max_attempts=1))
        assert isinstance(second.search("river cruise", limit=2), list)

        cluster = deployment.cluster
        assert second._broker.reconnects == 1
        assert cluster.healthy_ids() == ("replica-0", "replica-1")
        assert cluster.failovers == 0


def test_the_last_healthy_replica_is_never_retired_on_losses():
    """With replica-1 killed, two consecutive crashes of replica-0 are
    two losses of the only replica left.  Retiring it would empty the
    ring for good; instead its host respawns it and the broker heals."""
    plan = FaultPlan(seed=0)
    config = DeploymentConfig(seed=11, k=2, replicas=2, connect=False,
                              replica_fault_plans={0: plan})
    with XSearchDeployment.create(config=config) as deployment:
        cluster = deployment.cluster
        client = deployment.client(user_id="last")
        assert isinstance(client.search("museum train", limit=2), list)
        cluster.kill_replica("replica-1")

        handle = plan.block(SITE_ECALL, KIND_CRASH)
        with pytest.raises(ReproError):
            client.search("river cruise", limit=2)
        plan.unblock(handle)

        assert isinstance(client.search("city hotel", limit=2), list)
        assert cluster.healthy_ids() == ("replica-0",)
        assert cluster.failovers == 1
        assert cluster.ring_size == 1


def test_a_cluster_of_one_is_never_emptied_by_enclave_losses():
    plan = FaultPlan(seed=0)
    config = DeploymentConfig(seed=11, k=2,
                              proxy_options={"fault_plan": plan})
    with XSearchDeployment.create(config=config) as deployment:
        handle = plan.block(SITE_ECALL, KIND_CRASH)
        with pytest.raises(ReproError):
            deployment.client.search("museum train", limit=2)
        plan.unblock(handle)
        assert isinstance(
            deployment.client.search("river cruise", limit=2), list)
        assert deployment.cluster.healthy_ids() == ("replica-0",)
        assert deployment.cluster.failovers == 0


def test_replicas_losing_at_once_never_retire_each_other():
    """Two replicas crossing the loss threshold together: the retire
    decision and the retirement share one locked section, so exactly
    one of them is retired and the ring never empties."""
    stub = SimpleNamespace(history_checkpoint=None)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(100):
            cluster = XSearchCluster([
                ReplicaHandle(f"replica-{index}", index, stub, None)
                for index in range(2)
            ])
            barrier = threading.Barrier(2, timeout=10)

            def lose_twice(replica_id, cluster=cluster, barrier=barrier):
                cluster._note_loss(replica_id)
                barrier.wait()
                cluster._note_loss(replica_id)

            threads = [threading.Thread(target=lose_twice, args=(replica_id,))
                       for replica_id in ("replica-0", "replica-1")]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
            assert len(cluster.healthy_ids()) == 1
            assert cluster.ring_size == 1
    finally:
        sys.setswitchinterval(interval)


def test_lost_sessions_give_up_their_pins():
    """A session lost with its enclave leaves no pin behind: its broker
    heals under a new id, so after three crashes the cluster still pins
    exactly the sessions the enclaves hold.  Each client heals under ids
    the ring pins to its first replica, so every crash of replica 0
    costs its two pinned clients their sessions (a random heal id could
    move both to replica 1, and the later crashes would never fire)."""
    plan = FaultPlan(seed=0)
    config = DeploymentConfig(seed=11, k=2, replicas=2,
                              replica_fault_plans={0: plan})
    with XSearchDeployment.create(config=config) as deployment:
        members = [h.replica_id for h in deployment.cluster.replicas]
        clients = [deployment.client] + [
            deployment.client(
                user_id=sid, session_id=sid,
                session_ids=iter(_ids_on(replica_id, 3, members,
                                         prefix=f"{sid}-heal")).__next__)
            for replica_id in members
            for sid in _ids_on(replica_id, 2, members, prefix="pin")
        ]
        cluster = deployment.cluster
        assert cluster.session_count == 5
        for _ in range(3):
            plan.trigger(SITE_ECALL, KIND_CRASH)
            for client in clients:
                assert isinstance(client.search("museum train", limit=2),
                                  list)
        live = sum(len(handle.proxy.enclave._instance._sessions)
                   for handle in deployment.cluster.replicas)
        assert sum(c._broker.reconnects for c in clients[1:]) >= 3
        assert cluster.session_count == live == 5
        assert cluster.failovers == 0


# ----------------------------------------------------------------------
# Elastic lifecycle
# ----------------------------------------------------------------------
def test_add_replica_rebalances_only_future_sessions():
    config = DeploymentConfig(seed=11, k=2, replicas=2, connect=False)
    with XSearchDeployment.create(config=config) as deployment:
        cluster = deployment.cluster
        ids = [f"grow-{i:03d}" for i in range(10)]
        for session_id in ids:
            cluster.attestation_evidence(session_id)
        pins_before = {sid: cluster.pinned(sid) for sid in ids}

        handle = deployment.cluster.add_replica()
        assert handle.replica_id == "replica-2"
        assert len(deployment.cluster.replicas) == 3
        # Live pins are sticky; only the un-pinned preview moves, and
        # the keys that move all belong to the newcomer.
        for session_id in ids:
            assert cluster.pinned(session_id) == pins_before[session_id]
        preview = cluster.ring_map(ids)
        moved = [sid for sid in ids
                 if preview[sid] != pins_before[sid]]
        assert all(preview[sid] == "replica-2" for sid in moved)
        # The new replica serves attested traffic immediately.
        fresh = _ids_on("replica-2", 1,
                        [h.replica_id
                         for h in deployment.cluster.replicas],
                        prefix="fresh")[0]
        client = deployment.client(user_id="fresh", session_id=fresh)
        assert isinstance(client.search("museum train", limit=2), list)


def test_remove_replica_drains_gracefully():
    config = DeploymentConfig(seed=11, k=2, replicas=2, connect=False)
    with XSearchDeployment.create(config=config) as deployment:
        members = [h.replica_id for h in deployment.cluster.replicas]
        sid = _ids_on("replica-1", 1, members, prefix="dr")[0]
        client = deployment.client(user_id="dr", session_id=sid)
        client.search("museum train", limit=2)
        moved = deployment.cluster.remove_replica("replica-1")
        # At least our session moved (the deployment's own default
        # broker pins one extra, randomly-named session that may ride
        # along).
        assert moved >= 1
        assert deployment.cluster.healthy_ids() == ("replica-0",)
        assert isinstance(client.search("river cruise", limit=2), list)


# ----------------------------------------------------------------------
# Frontend uniformity (the minted-client regression guard)
# ----------------------------------------------------------------------
def test_minted_clients_share_the_single_replica_frontend():
    # Regression guard: minted clients must go through
    # deployment.frontend — the cluster, which dispatches to the
    # replica's scheduler — never straight at a proxy (which would
    # bypass coalescing).
    config = DeploymentConfig(seed=11, k=2, max_workers=2)
    with XSearchDeployment.create(config=config) as deployment:
        assert deployment.frontend is deployment.cluster
        minted = deployment.client(user_id="aux")
        assert minted._broker._proxy is deployment.cluster
        assert deployment.cluster.pinned(
            minted._broker._session_id) == "replica-0"
        assert isinstance(minted.search("museum train", limit=2), list)


def test_minted_clients_route_through_the_cluster_router():
    config = DeploymentConfig(seed=11, k=2, replicas=2)
    with XSearchDeployment.create(config=config) as deployment:
        assert deployment.frontend is deployment.cluster
        minted = deployment.client(user_id="aux")
        assert minted._broker._proxy is deployment.cluster
        assert deployment.cluster.pinned(minted._broker._session_id) in {
            h.replica_id for h in deployment.cluster.replicas
        }
        assert isinstance(minted.search("museum train", limit=2), list)
