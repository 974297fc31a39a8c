"""TCS modelling: bounded thread concurrency inside an enclave.

Concurrency is observed with events and barriers, never wall-clock
sleeps: an ecall parks on a gate the test controls, so "N threads were
inside simultaneously" is a synchronisation fact, not a timing guess —
and the suite stays deterministic under the tests-scope xlint rule.
"""

import threading

import pytest

from repro.errors import EnclaveError, EnclaveLostError
from repro.sgx.runtime import Enclave, OcallTable, ecall


class GateEnclave:
    """An enclave whose ecalls park on test-controlled gates."""

    def __init__(self, memory, ocalls):
        self.memory = memory
        self.ocalls = ocalls
        self.lock = threading.Lock()
        self.inside = 0
        self.expected = 1
        self.full = threading.Event()     # `expected` callers are parked
        self.release = threading.Event()  # lets parked callers leave
        self.barrier = None

    @ecall
    def parked(self) -> int:
        with self.lock:
            self.inside += 1
            if self.inside >= self.expected:
                self.full.set()
        self.release.wait()
        with self.lock:
            self.inside -= 1
        return 1

    @ecall
    def rendezvous(self) -> int:
        # Only passes once every expected caller is inside at once.
        self.barrier.wait(timeout=30)
        return 1


def make(tcs_count):
    enclave = Enclave(GateEnclave, tcs_count=tcs_count)
    enclave.initialize()
    return enclave, enclave._instance


def run_threads(enclave, n_threads, method="parked"):
    threads = [
        threading.Thread(target=enclave.call, args=(method,))
        for _ in range(n_threads)
    ]
    for thread in threads:
        thread.start()
    return threads


def join_all(threads):
    for thread in threads:
        thread.join(timeout=30)
    assert all(not thread.is_alive() for thread in threads)


def test_concurrency_never_exceeds_tcs():
    enclave, gate = make(tcs_count=2)
    gate.expected = 2
    threads = run_threads(enclave, 6)
    # Both TCS slots fill while four callers queue at the boundary...
    assert gate.full.wait(timeout=30)
    gate.release.set()
    join_all(threads)
    assert enclave.max_threads_inside <= 2
    assert enclave.counter.ecalls == 6  # everyone eventually got in


def test_parallelism_up_to_tcs():
    enclave, gate = make(tcs_count=4)
    gate.barrier = threading.Barrier(4)
    # The barrier only opens when all four are inside simultaneously,
    # so completion *proves* genuine overlap up to the TCS count.
    join_all(run_threads(enclave, 4, method="rendezvous"))
    assert enclave.max_threads_inside == 4


def test_single_tcs_serialises():
    enclave, gate = make(tcs_count=1)
    gate.release.set()  # no parking: pure serialisation check
    join_all(run_threads(enclave, 3))
    assert enclave.max_threads_inside == 1
    # Excess callers blocked at the boundary and then got in — a full
    # TCS table queues, it does not fail.
    assert enclave.counter.ecalls == 3


class SignallingTcs:
    """Wraps the TCS semaphore; sets ``queued`` as a caller starts to
    wait for a slot, so a test knows it is past the liveness checks."""

    def __init__(self, inner):
        self.inner = inner
        self.queued = threading.Event()

    def __enter__(self):
        self.queued.set()
        return self.inner.__enter__()

    def __exit__(self, *exc_info):
        return self.inner.__exit__(*exc_info)


def call_capturing(enclave, method, outcomes):
    try:
        outcomes.append(enclave.call(method))
    except Exception as exc:  # the outcome under test
        outcomes.append(exc)


def test_ecall_queued_for_a_tcs_when_the_enclave_dies_is_lost():
    enclave, gate = make(tcs_count=1)
    held = run_threads(enclave, 1)  # occupies the only TCS
    assert gate.full.wait(timeout=30)
    tcs = SignallingTcs(enclave._tcs)
    enclave._tcs = tcs
    outcomes = []
    queued = threading.Thread(target=call_capturing,
                              args=(enclave, "parked", outcomes))
    queued.start()
    assert tcs.queued.wait(timeout=30)
    # A crash on another entry tears the enclave down while the second
    # caller waits at the boundary; then the held call leaves.
    enclave.destroy()
    gate.release.set()
    join_all(held + [queued])
    [outcome] = outcomes
    assert isinstance(outcome, EnclaveLostError), repr(outcome)
    assert enclave.counter.ecalls == 1  # the lost call never crossed


class DestroyedOnRead:
    """A ``_destroyed`` flag that reads False once, then destroys the
    enclave: the teardown lands between ``call``'s two liveness checks."""

    def __init__(self, enclave):
        self.enclave = enclave

    def __bool__(self):
        self.enclave.destroy()
        return False


def test_ecall_racing_teardown_past_the_destroyed_check_is_lost():
    enclave, gate = make(tcs_count=1)
    gate.release.set()
    enclave._destroyed = DestroyedOnRead(enclave)
    with pytest.raises(EnclaveLostError):
        enclave.call("parked")
    assert enclave.counter.ecalls == 0


def test_tcs_count_validated():
    with pytest.raises(EnclaveError):
        Enclave(GateEnclave, tcs_count=0)


def test_default_tcs_matches_service_model_workers():
    from repro.experiments.service_models import XSEARCH_WORKERS
    from repro.sgx.runtime import DEFAULT_TCS_COUNT

    assert DEFAULT_TCS_COUNT == XSEARCH_WORKERS
