"""Lock fixtures for the concurrent path: the broker's exchange lock,
the scheduler's queue lock and the cycle counter's lock are registered
in LOCK_MAP — so xlint proves every guarded access — and their ranks
in LOCK_ORDER match the runtime nesting."""

from __future__ import annotations

from repro.analysis.checks.locks import LOCK_MAP, LOCK_ORDER


def test_scheduler_queue_lock_is_registered():
    scheduler_map = LOCK_MAP["repro.core.scheduler"]["RequestScheduler"]
    guarded = set(scheduler_map["_queue_lock"])
    assert guarded == {"_queue", "_active_sessions", "_in_flight",
                       "_closed"}


def test_cycle_counter_lock_is_registered():
    runtime_map = LOCK_MAP["repro.sgx.runtime"]["CycleCounter"]
    assert set(runtime_map["_lock"]) == {"_ecall_named", "_ocall_named"}


def test_lock_order_ranks_match_runtime_nesting():
    rank = {name: index for index, name in enumerate(LOCK_ORDER)}
    # The scheduler's queue lock is the outermost lock in the system:
    # a submitter holds it only around queue state and drops it before
    # its crossing reaches the proxy (and thus every inner lock), so it
    # must rank before the proxy's locks.
    assert rank["_queue_lock"] < rank["_enclave_lock"]
    # CycleCounter._lock nests inside the enclave's concurrency lock
    # (boundary accounting happens during a crossing).
    assert rank["_concurrency_lock"] < rank["_lock"]


def test_broker_exchange_lock_is_registered_outermost():
    broker_map = LOCK_MAP["repro.core.broker"]["Broker"]
    assert set(broker_map["_exchange_lock"]) == {"_endpoint", "_session_id",
                                                 "_proxy"}
    # Held from seal to open, so into the scheduler's queue lock (in
    # process) and the client transport's I/O lock (over the wire).
    assert LOCK_ORDER[0] == "_exchange_lock"
