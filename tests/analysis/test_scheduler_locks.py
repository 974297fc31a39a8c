"""Lock fixtures for the concurrent path: the scheduler's queue lock and
the cycle counter's lock are registered in LOCK_MAP — so xlint proves
every guarded access — and their ranks in LOCK_ORDER match the runtime
nesting."""

from __future__ import annotations

from repro.analysis.checks.locks import LOCK_MAP, LOCK_ORDER


def test_scheduler_queue_lock_is_registered():
    scheduler_map = LOCK_MAP["repro.core.scheduler"]["RequestScheduler"]
    guarded = set(scheduler_map["_queue_lock"])
    assert guarded == {"_queue", "_active_sessions", "_closed"}


def test_cycle_counter_lock_is_registered():
    runtime_map = LOCK_MAP["repro.sgx.runtime"]["CycleCounter"]
    assert set(runtime_map["_lock"]) == {"_ecall_named", "_ocall_named"}


def test_lock_order_ranks_match_runtime_nesting():
    rank = {name: index for index, name in enumerate(LOCK_ORDER)}
    # The scheduler's queue lock is the outermost lock in the system:
    # worker threads hold it only around queue state, but a submitter
    # can reach the proxy (and thus every inner lock) while a worker
    # holds queue work, so it must rank before the proxy's locks.
    assert rank["_queue_lock"] < rank["_enclave_lock"]
    # CycleCounter._lock nests inside the enclave's concurrency lock
    # (boundary accounting happens during a crossing).
    assert rank["_concurrency_lock"] < rank["_lock"]
