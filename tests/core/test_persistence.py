"""Sealed history persistence across enclave restarts."""

import pytest

from repro.core.history import QueryHistory
from repro.core.persistence import (
    decode_snapshot,
    open_snapshot,
    seal_snapshot,
    snapshot_history,
)
from repro.core.proxy import XSearchProxyHost
from repro.errors import EnclaveError, SealingError
from repro.search.tracking import TrackingSearchEngine
from repro.sgx.measurement import measure_bytes
from repro.sgx.sealing import EnclaveSealer, SealingPlatform


def filled_history(n=20, capacity=100):
    history = QueryHistory(capacity)
    history.extend(f"query {i}" for i in range(n))
    return history


# ---------------------------------------------------------------------------
# Snapshot format
# ---------------------------------------------------------------------------

def test_snapshot_restore_roundtrip():
    history = filled_history()
    capacity, entries = decode_snapshot(snapshot_history(history))
    assert entries == history.snapshot()
    assert capacity == history.capacity


def test_restore_rejects_garbage():
    with pytest.raises(SealingError):
        decode_snapshot(b"not json")
    with pytest.raises(SealingError):
        decode_snapshot(b'{"v": 99}')
    with pytest.raises(SealingError):
        decode_snapshot(b'{"v": 1, "capacity": "x", "entries": []}')


# ---------------------------------------------------------------------------
# Sealed snapshots: bound to one measurement on one platform
# ---------------------------------------------------------------------------

M_GOOD = measure_bytes(b"good proxy build")
M_EVIL = measure_bytes(b"evil proxy build")


def test_store_save_load_roundtrip():
    platform = SealingPlatform()
    history = filled_history()
    blob = seal_snapshot(EnclaveSealer(platform, M_GOOD), history)
    capacity, entries = open_snapshot(EnclaveSealer(platform, M_GOOD), blob)
    assert (capacity, entries) == (history.capacity, history.snapshot())


def test_store_blob_is_opaque_ciphertext():
    blob = seal_snapshot(EnclaveSealer(SealingPlatform(), M_GOOD), filled_history())
    assert b"query 0" not in blob  # the host cannot read the history


def test_sealed_snapshot_wrong_measurement_fails():
    platform = SealingPlatform()
    blob = seal_snapshot(EnclaveSealer(platform, M_GOOD), filled_history())
    with pytest.raises(SealingError):
        open_snapshot(EnclaveSealer(platform, M_EVIL), blob)


# ---------------------------------------------------------------------------
# Full restart scenario through the proxy ecalls
# ---------------------------------------------------------------------------

def make_proxy(small_engine, platform, *, capacity=500, k=2):
    return XSearchProxyHost(
        TrackingSearchEngine(small_engine),
        k=k,
        history_capacity=capacity,
        rng_seed=1,
        sealing_platform=platform,
    )


def ingest_via_session(proxy, texts, session_id="warm"):
    from repro.core.protocol import IngestRequest
    from repro.crypto.channel import HandshakeInitiator

    initiator = HandshakeInitiator()
    proxy.begin_session(session_id, initiator.hello())
    endpoint = initiator.finish(proxy.channel_public())
    record = endpoint.encrypt(IngestRequest(tuple(texts)).encode())
    proxy.request(session_id, record)


def checkpoint_blob(proxy) -> bytes:
    proxy.checkpoint_now()
    return proxy.history_checkpoint


def test_proxy_restart_with_sealed_history(small_engine):
    platform = SealingPlatform()
    first = make_proxy(small_engine, platform)
    ingest_via_session(first, [f"persistent query {i}" for i in range(30)])
    assert first.checkpoint_now() == 30
    blob = first.history_checkpoint

    # "Restart": a brand-new enclave with the same code and configuration.
    second = make_proxy(small_engine, platform)
    assert second.measurement == first.measurement
    assert second.absorb_history(blob) == 30
    assert second.checkpoint_now() == 30


def test_restore_rejects_different_capacity(small_engine):
    platform = SealingPlatform()
    first = make_proxy(small_engine, platform, capacity=500)
    ingest_via_session(first, ["a b", "c d"])
    blob = checkpoint_blob(first)

    other = make_proxy(small_engine, platform, capacity=600)
    # Different capacity => different measurement => unseal fails already.
    with pytest.raises((SealingError, EnclaveError)):
        other.absorb_history(blob)


def test_restore_rejects_tampered_blob(small_engine):
    platform = SealingPlatform()
    proxy = make_proxy(small_engine, platform)
    ingest_via_session(proxy, ["a b"])
    blob = bytearray(checkpoint_blob(proxy))
    blob[-2] ^= 0x01
    with pytest.raises(SealingError):
        proxy.absorb_history(bytes(blob))


def test_restore_rejects_foreign_platform(small_engine):
    first = make_proxy(small_engine, SealingPlatform())
    ingest_via_session(first, ["a b"])
    blob = checkpoint_blob(first)

    other_machine = make_proxy(small_engine, SealingPlatform())
    with pytest.raises(SealingError):
        other_machine.absorb_history(blob)


def test_sealing_unavailable_without_platform(small_engine):
    proxy = make_proxy(small_engine, None)
    with pytest.raises(EnclaveError):
        proxy.checkpoint_now()
    with pytest.raises(EnclaveError):
        proxy.absorb_history(b"any blob")
