"""Failure injection: Byzantine hosts, tampering, broken infrastructure.

The adversary model (§3) lets the proxy *host* behave arbitrarily.  These
tests play that host: every attack must fail closed — detected by the
cryptography or the attestation policy — never by returning wrong data to
the user silently.
"""

import pytest

from repro.core.broker import Broker
from repro.core.protocol import SearchRequest
from repro.core.proxy import XSearchProxyHost
from repro.crypto.channel import HandshakeInitiator
from repro.errors import (
    AttestationError,
    AuthenticationError,
    EnclaveError,
    NetworkError,
)
from repro.search.tracking import TrackingSearchEngine
from repro.sgx.attestation import AttestationService, QuotingEnclave


@pytest.fixture()
def stack(small_engine):
    service = AttestationService(1024)
    quoting_enclave = QuotingEnclave(1024)
    service.provision_platform(quoting_enclave)
    proxy = XSearchProxyHost(
        TrackingSearchEngine(small_engine),
        k=2,
        history_capacity=500,
        quoting_enclave=quoting_enclave,
        attestation_service=service,
        rng_seed=1,
    )
    return service, proxy


def connected_broker(stack, session_id="victim"):
    service, proxy = stack
    broker = Broker(
        proxy,
        service_public_key=service.public_key,
        expected_measurement=proxy.measurement,
        session_id=session_id,
    )
    broker.connect()
    return broker, proxy


def test_host_tampering_with_request_detected(stack):
    """A Byzantine host flips bits in the client's record: the enclave's
    AEAD rejects it instead of serving a corrupted query."""
    _, proxy = stack
    initiator = HandshakeInitiator()
    proxy.begin_session("tamper", initiator.hello())
    endpoint = initiator.finish(proxy.channel_public())
    record = bytearray(endpoint.encrypt(SearchRequest("secret", 5).encode()))
    record[3] ^= 0x40
    with pytest.raises(AuthenticationError):
        proxy.request("tamper", bytes(record))


def test_host_replaying_a_request_detected(stack):
    _, proxy = stack
    initiator = HandshakeInitiator()
    proxy.begin_session("replay", initiator.hello())
    endpoint = initiator.finish(proxy.channel_public())
    record = endpoint.encrypt(SearchRequest("hotel rome", 5).encode())
    proxy.request("replay", record)
    with pytest.raises(AuthenticationError):
        proxy.request("replay", record)


def test_host_tampering_with_response_detected(stack):
    """The host corrupts the enclave's encrypted response in flight."""

    broker, proxy = connected_broker(stack)
    original_request = proxy.request

    def corrupting_request(session_id, record):
        reply = bytearray(original_request(session_id, record))
        reply[-1] ^= 0x01
        return bytes(reply)

    proxy.request = corrupting_request
    try:
        with pytest.raises(AuthenticationError):
            broker.search("hotel rome", limit=5)
    finally:
        proxy.request = original_request


def test_host_cannot_impersonate_enclave_key(stack):
    """The host substitutes its own channel key: report-data binding in the
    quote exposes the swap."""
    service, proxy = stack
    from repro.crypto.dh import DhKeyPair

    host_keypair = DhKeyPair()
    original = proxy.attestation_evidence

    def swapped_key(session_id):
        verdict, _public = original(session_id)
        return verdict, host_keypair.public_bytes()

    proxy.attestation_evidence = swapped_key
    try:
        broker = Broker(
            proxy,
            service_public_key=service.public_key,
            expected_measurement=proxy.measurement,
            session_id="mitm",
        )
        with pytest.raises(AttestationError):
            broker.connect()
    finally:
        proxy.attestation_evidence = original


def test_modified_enclave_code_fails_attestation(small_engine, stack):
    """Deploying a (maliciously) different enclave class yields a different
    measurement; clients expecting the published one refuse to connect."""
    service, good_proxy = stack

    class EvilEnclave:
        def __init__(self, memory, ocalls):
            pass

        from repro.sgx.runtime import ecall

        @ecall
        def init(self, **kwargs):
            pass

        @ecall
        def channel_public(self) -> bytes:
            from repro.crypto.channel import HandshakeResponder

            self._responder = HandshakeResponder()
            return self._responder.public_bytes()

        @ecall
        def accept_session(self, session_id, hello):
            pass

        @ecall
        def request(self, session_id, record):
            return b"stolen"

    from repro.sgx.runtime import Enclave

    evil = Enclave(EvilEnclave)
    assert evil.measurement != good_proxy.measurement


def test_engine_outage_surfaces_as_network_error(stack):
    broker, proxy = connected_broker(stack, "outage")

    def refuse(host, port):
        raise NetworkError("connection refused")

    proxy.gateway.sock_connect, original = refuse, proxy.gateway.sock_connect
    # Re-register the ocall to point at the refusing implementation.
    table = proxy.gateway.ocall_table()
    with pytest.raises(NetworkError):
        proxy.gateway.sock_connect("engine.example.com", 80)
    proxy.gateway.sock_connect = original


def test_session_confusion_rejected(stack):
    """Records from one session cannot be spliced into another."""
    _, proxy = stack
    initiator_a = HandshakeInitiator()
    proxy.begin_session("a", initiator_a.hello())
    endpoint_a = initiator_a.finish(proxy.channel_public())

    initiator_b = HandshakeInitiator()
    proxy.begin_session("b", initiator_b.hello())

    record = endpoint_a.encrypt(SearchRequest("for session a", 5).encode())
    with pytest.raises(AuthenticationError):
        proxy.request("b", record)


def test_unprovisioned_platform_rejected(small_engine):
    service = AttestationService(1024)
    rogue_quoting_enclave = QuotingEnclave(1024)  # not provisioned
    proxy = XSearchProxyHost(
        TrackingSearchEngine(small_engine),
        k=1,
        quoting_enclave=rogue_quoting_enclave,
        attestation_service=service,
    )
    broker = Broker(
        proxy,
        service_public_key=service.public_key,
        expected_measurement=proxy.measurement,
    )
    with pytest.raises(AttestationError):
        broker.connect()
