"""Enclave runtime: lifecycle, ecall/ocall dispatch, isolation, costs."""

import pytest

from repro.errors import EnclaveError
from repro.search.documents import SearchResult
from repro.sgx.epc import EnclavePageCache
from repro.sgx.runtime import (
    BOUNDARY_LOG_CAPACITY,
    CostModel,
    Enclave,
    EnclaveMemory,
    OcallTable,
    ecall,
    estimate_size,
)


class CounterEnclave:
    """A minimal enclave used throughout these tests."""

    def __init__(self, memory, ocalls, start: int = 0):
        self.memory = memory
        self.ocalls = ocalls
        self.memory.store("count", start, nbytes=64)

    @ecall
    def increment(self, amount: int = 1) -> int:
        value = self.memory.load("count") + amount
        self.memory.store("count", value, nbytes=64)
        return value

    @ecall
    def echo_out(self, data: bytes) -> bytes:
        return self.ocalls.loopback(data)

    def internal_secret(self):  # deliberately NOT an ecall
        return "secret"


def make_enclave(**kwargs):
    table = OcallTable()
    table.register("loopback", lambda data: b"host:" + data)
    enclave = Enclave(CounterEnclave, ocalls=table, **kwargs)
    enclave.initialize(5)
    return enclave


def test_lifecycle_and_dispatch():
    enclave = make_enclave()
    assert enclave.is_initialized
    assert enclave.call("increment") == 6
    assert enclave.call("increment", 10) == 16


def test_ecall_before_init_rejected():
    enclave = Enclave(CounterEnclave)
    with pytest.raises(EnclaveError):
        enclave.call("increment")


def test_double_init_rejected():
    enclave = make_enclave()
    with pytest.raises(EnclaveError):
        enclave.initialize(1)


def test_destroyed_enclave_unusable():
    enclave = make_enclave()
    enclave.destroy()
    assert not enclave.is_initialized
    with pytest.raises(EnclaveError):
        enclave.call("increment")
    with pytest.raises(EnclaveError):
        enclave.initialize(0)


def test_non_exported_method_not_callable():
    enclave = make_enclave()
    with pytest.raises(EnclaveError):
        enclave.call("internal_secret")


def test_enclave_without_ecalls_rejected():
    class NoEntryPoints:
        def __init__(self, memory, ocalls):
            pass

    with pytest.raises(EnclaveError):
        Enclave(NoEntryPoints)


def test_ocall_dispatch_and_undefined_ocall():
    enclave = make_enclave()
    assert enclave.call("echo_out", b"ping") == b"host:ping"

    bare = Enclave(CounterEnclave)  # empty ocall table
    bare.initialize(0)
    with pytest.raises(EnclaveError):
        bare.call("echo_out", b"ping")


def test_ocall_registration_requires_callable():
    table = OcallTable()
    with pytest.raises(EnclaveError):
        table.register("bad", 42)


def test_transition_costs_charged():
    model = CostModel(ecall_cycles=1000, ocall_cycles=500)
    table = OcallTable()
    table.register("loopback", lambda data: data)
    enclave = Enclave(CounterEnclave, ocalls=table, cost_model=model)
    enclave.initialize(0)
    enclave.call("echo_out", b"x")  # 1 ecall + 1 ocall
    assert enclave.counter.ecalls == 1
    assert enclave.counter.ocalls == 1
    assert enclave.counter.cycles == 1500
    assert enclave.transition_seconds() == pytest.approx(1500 / model.clock_hz)


def test_boundary_log_captures_payloads():
    enclave = make_enclave()
    enclave.call("echo_out", b"visible-bytes")
    directions = [(r.direction, r.name) for r in enclave.boundary_log]
    assert ("ecall", "echo_out") in directions
    assert ("ocall", "loopback") in directions
    ocall_payloads = [r.payload for r in enclave.boundary_log
                      if r.direction == "ocall"]
    assert b"visible-bytes" in ocall_payloads


def test_boundary_log_captures_bytes_nested_in_sequences():
    """Batched ecalls cross the boundary as lists of (id, record) pairs;
    the record ciphertext must still be captured for the security tests."""
    enclave = make_enclave()
    enclave.call("increment", 1)  # no bytes
    enclave._on_boundary("ecall", "request_batch",
                         ([("s1", b"rec-one"), ("s2", b"rec-two")],))
    payloads = [r.payload for r in enclave.boundary_log
                if r.name == "request_batch"]
    assert payloads == [b"rec-onerec-two"]


def test_boundary_log_keeps_only_the_newest_crossings():
    enclave = make_enclave()
    total = BOUNDARY_LOG_CAPACITY + 37
    for index in range(total):
        enclave._on_boundary("ocall", "send", (b"%d" % index,))
    log = enclave.boundary_log
    assert isinstance(log, tuple)
    assert len(log) == BOUNDARY_LOG_CAPACITY
    assert [record.payload for record in log] == [
        b"%d" % index for index in range(total - BOUNDARY_LOG_CAPACITY, total)
    ]


# ---------------------------------------------------------------------------
# Per-name transition counts and the snapshot API
# ---------------------------------------------------------------------------

def test_counter_tracks_per_name_counts():
    enclave = make_enclave()
    enclave.call("echo_out", b"a")
    enclave.call("echo_out", b"b")
    enclave.call("increment", 1)
    assert enclave.counter.ecall_counts == {"echo_out": 2, "increment": 1}
    assert enclave.counter.ocall_counts == {"loopback": 2}


def test_boundary_snapshot_subtracts_to_deltas():
    enclave = make_enclave()
    enclave.call("echo_out", b"warmup")
    before = enclave.boundary_snapshot()
    enclave.call("echo_out", b"measured")
    enclave.call("increment", 2)
    delta = enclave.boundary_snapshot() - before
    assert delta.ecalls == 2
    assert delta.ocalls == 1
    assert delta.ecall_counts == {"echo_out": 1, "increment": 1}
    assert delta.ocall_counts == {"loopback": 1}
    assert delta.transitions == 3
    assert delta.cycles == (
        2 * enclave.cost_model.ecall_cycles + enclave.cost_model.ocall_cycles
    )


def test_snapshot_is_frozen_in_time():
    enclave = make_enclave()
    snap = enclave.boundary_snapshot()
    enclave.call("increment", 1)
    assert snap.ecalls == 0
    assert snap.ecall_counts == {}
    later = enclave.boundary_snapshot()
    assert later.ecalls == 1
    # Zero-delta names are omitted from subtracted snapshots.
    assert (later - later).ecall_counts == {}


def test_measurement_includes_config():
    a = make_enclave(config=b"k=3")
    b = make_enclave(config=b"k=4")
    assert a.measurement != b.measurement


# ---------------------------------------------------------------------------
# EnclaveMemory
# ---------------------------------------------------------------------------

def test_memory_store_load_delete():
    memory = EnclaveMemory(EnclavePageCache())
    memory.store("key", [1, 2, 3], nbytes=100)
    assert memory.load("key") == [1, 2, 3]
    assert "key" in memory
    assert memory.size_of("key") == 100
    memory.delete("key")
    assert "key" not in memory
    with pytest.raises(EnclaveError):
        memory.load("key")
    with pytest.raises(EnclaveError):
        memory.delete("key")


def test_memory_restore_resizes():
    epc = EnclavePageCache()
    memory = EnclaveMemory(epc)
    memory.store("k", "a", nbytes=10)
    memory.store("k", "bb", nbytes=2000)
    assert epc.occupancy_bytes == 2000


def test_memory_default_size_estimation():
    memory = EnclaveMemory(EnclavePageCache())
    memory.store("auto", {"a": [1, 2, 3], "b": "text"})
    assert memory.size_of("auto") > 0


def test_estimate_size_handles_cycles():
    cyclic = []
    cyclic.append(cyclic)
    assert estimate_size(cyclic) > 0


def test_estimate_size_grows_with_content():
    assert estimate_size(["x" * 1000]) > estimate_size(["x"])


def test_estimate_size_descends_into_dataclass_fields():
    result = SearchResult(rank=1, url="https://example.org/" + "u" * 200,
                          title="t" * 150, snippet="s" * 190, score=1.0)
    strings = len(result.url) + len(result.title) + len(result.snippet)
    assert estimate_size((result,)) >= strings
