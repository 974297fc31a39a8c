"""ChaCha20-Poly1305 AEAD: RFC vector, tamper resistance, misuse errors."""

import pytest

from repro.crypto.aead import TAG_SIZE, aead_decrypt, aead_encrypt
from repro.errors import AuthenticationError, CryptoError

KEY = bytes(range(0x80, 0xA0))
NONCE = bytes.fromhex("070000004041424344454647")
AAD = bytes.fromhex("50515253c0c1c2c3c4c5c6c7")
PLAINTEXT = (
    b"Ladies and Gentlemen of the class of '99: If I could offer you "
    b"only one tip for the future, sunscreen would be it."
)


def test_rfc_8439_vector():
    sealed = aead_encrypt(KEY, NONCE, PLAINTEXT, AAD)
    expected_ct = bytes.fromhex(
        "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6"
        "3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36"
        "92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc"
        "3ff4def08e4b7a9de576d26586cec64b6116"
    )
    expected_tag = bytes.fromhex("1ae10b594f09e26a7e902ecbd0600691")
    assert sealed == expected_ct + expected_tag


def test_roundtrip():
    sealed = aead_encrypt(KEY, NONCE, PLAINTEXT, AAD)
    assert aead_decrypt(KEY, NONCE, sealed, AAD) == PLAINTEXT


def test_roundtrip_without_aad():
    sealed = aead_encrypt(KEY, NONCE, b"secret query")
    assert aead_decrypt(KEY, NONCE, sealed) == b"secret query"


def test_empty_plaintext_roundtrip():
    sealed = aead_encrypt(KEY, NONCE, b"", AAD)
    assert len(sealed) == TAG_SIZE
    assert aead_decrypt(KEY, NONCE, sealed, AAD) == b""


@pytest.mark.parametrize("position", [0, 10, 50, -1])
def test_ciphertext_tampering_detected(position):
    sealed = bytearray(aead_encrypt(KEY, NONCE, PLAINTEXT, AAD))
    sealed[position] ^= 0x01
    with pytest.raises(AuthenticationError):
        aead_decrypt(KEY, NONCE, bytes(sealed), AAD)


def test_aad_mismatch_detected():
    sealed = aead_encrypt(KEY, NONCE, PLAINTEXT, AAD)
    with pytest.raises(AuthenticationError):
        aead_decrypt(KEY, NONCE, sealed, b"other aad")


def test_wrong_key_detected():
    sealed = aead_encrypt(KEY, NONCE, PLAINTEXT, AAD)
    with pytest.raises(AuthenticationError):
        aead_decrypt(bytes(32), NONCE, sealed, AAD)


def test_wrong_nonce_detected():
    sealed = aead_encrypt(KEY, NONCE, PLAINTEXT, AAD)
    with pytest.raises(AuthenticationError):
        aead_decrypt(KEY, bytes(12), sealed, AAD)


def test_truncated_ciphertext_rejected():
    with pytest.raises(AuthenticationError):
        aead_decrypt(KEY, NONCE, b"\x00" * (TAG_SIZE - 1), AAD)


def test_bad_nonce_length_rejected():
    with pytest.raises(CryptoError):
        aead_encrypt(KEY, b"\x00" * 8, PLAINTEXT)


def test_bytes_like_records_accepted():
    sealed = aead_encrypt(KEY, NONCE, bytearray(PLAINTEXT), AAD)
    # Deliberate same-nonce second call: one plaintext in two buffer types.
    assert sealed == aead_encrypt(KEY, NONCE, memoryview(PLAINTEXT), AAD)  # xlint: disable=dataflow
    assert aead_decrypt(KEY, NONCE, memoryview(sealed), AAD) == PLAINTEXT


def test_str_plaintext_rejected():
    with pytest.raises(CryptoError):
        aead_encrypt(KEY, NONCE, "a string")
