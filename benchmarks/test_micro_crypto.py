"""Micro-benchmarks of the crypto substrate.

These are the per-request costs underlying the Figure 5 service model: an
X-Search request is dominated by two AEAD operations plus the enclave
transitions; a PEAS request by a DH exchange; attestation by one RSA
signature verification, and set-up by RSA key generation.
"""

import random
import secrets

import pytest

from repro.crypto.aead import aead_decrypt, aead_encrypt
from repro.crypto.channel import HandshakeInitiator, HandshakeResponder, establish_pair
from repro.crypto.kdf import hkdf
from repro.crypto.rsa import RsaKeyPair

KEY = secrets.token_bytes(32)
NONCE = secrets.token_bytes(12)
RECORD = secrets.token_bytes(512)  # a typical encrypted query record
REPLY = secrets.token_bytes(3 * 1024)  # a typical sealed search reply


def test_aead_encrypt_512b(benchmark):
    sealed = benchmark(aead_encrypt, KEY, NONCE, RECORD)
    assert len(sealed) == len(RECORD) + 16


def test_aead_decrypt_512b(benchmark):
    sealed = aead_encrypt(KEY, NONCE, RECORD)
    assert benchmark(aead_decrypt, KEY, NONCE, sealed) == RECORD


def test_aead_roundtrip_3kb_reply(benchmark):
    def roundtrip():
        return aead_decrypt(KEY, NONCE, aead_encrypt(KEY, NONCE, REPLY))

    assert benchmark(roundtrip) == REPLY


def test_aead_encrypt_16kb_result_page(benchmark):
    page = secrets.token_bytes(16 * 1024)
    benchmark(aead_encrypt, KEY, NONCE, page)


def test_hkdf_session_keys(benchmark):
    benchmark(hkdf, secrets.token_bytes(256), info=b"session", length=64)


def test_dh_handshake(benchmark):
    def handshake():
        initiator = HandshakeInitiator()
        responder = HandshakeResponder()
        responder_end = responder.finish(initiator.hello())
        initiator_end = initiator.finish(responder.public_bytes())
        return initiator_end, responder_end

    initiator_end, responder_end = benchmark(handshake)
    assert responder_end.decrypt(initiator_end.encrypt(b"x")) == b"x"


@pytest.fixture(scope="module")
def rsa_key():
    return RsaKeyPair(1024)


def test_rsa_sign(benchmark, rsa_key):
    benchmark(rsa_key.sign, b"attestation report")


def test_rsa_keygen_1024_seeded(benchmark):
    # A fresh seed per round: one seed's cost is luck of where its primes
    # fall, so the mean over seeds 0, 1, 2, ... is what moves.
    seeds = iter(range(1 << 30))

    def keygen():
        return RsaKeyPair(1024, rng=random.Random(next(seeds)))

    key = benchmark.pedantic(keygen, rounds=10, iterations=1)
    assert key.public.modulus.bit_length() == 1024


def test_rsa_verify(benchmark, rsa_key):
    signature = rsa_key.sign(b"attestation report")
    benchmark(rsa_key.public.verify, b"attestation report", signature)


def test_channel_record_roundtrip(benchmark):
    a, b = establish_pair()

    def roundtrip():
        return b.decrypt(a.encrypt(RECORD))

    assert benchmark(roundtrip) == RECORD
