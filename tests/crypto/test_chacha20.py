"""ChaCha20 against the RFC 8439 test vectors plus behavioural checks."""

import pytest

from repro.crypto.chacha20 import (
    BLOCK_SIZE,
    chacha20_block,
    chacha20_decrypt,
    chacha20_encrypt,
)
from repro.errors import CryptoError

RFC_KEY = bytes(range(32))
RFC_NONCE = bytes.fromhex("000000090000004a00000000")


def test_block_function_rfc_vector():
    # RFC 8439 §2.3.2: key 00..1f, nonce 00:00:00:09:00:00:00:4a:00:00:00:00,
    # counter 1.
    expected = bytes.fromhex(
        "10f1e7e4d13b5915500fdd1fa32071c4"
        "c7d1f4c733c068030422aa9ac3d46c4e"
        "d2826446079faa0914c2d705d98b02a2"
        "b5129cd1de164eb9cbd083e8a2503c4e"
    )
    assert chacha20_block(RFC_KEY, 1, RFC_NONCE) == expected


def test_encrypt_rfc_vector():
    # RFC 8439 §2.4.2.
    key = bytes(range(32))
    nonce = bytes.fromhex("000000000000004a00000000")
    plaintext = (
        b"Ladies and Gentlemen of the class of '99: If I could offer you "
        b"only one tip for the future, sunscreen would be it."
    )
    expected = bytes.fromhex(
        "6e2e359a2568f98041ba0728dd0d6981"
        "e97e7aec1d4360c20a27afccfd9fae0b"
        "f91b65c5524733ab8f593dabcd62b357"
        "1639d624e65152ab8f530c359f0861d8"
        "07ca0dbf500d6a6156a38e088a22b65e"
        "52bc514d16ccf806818ce91ab7793736"
        "5af90bbf74a35be6b40b8eedf2785e42"
        "874d"
    )
    assert chacha20_encrypt(key, 1, nonce, plaintext) == expected


def test_encrypt_decrypt_involution():
    data = b"x-search private web search" * 10
    key = b"\x42" * 32
    nonce = b"\x01" * 12
    assert chacha20_decrypt(key, 7, nonce, chacha20_encrypt(key, 7, nonce, data)) == data


def test_empty_plaintext():
    assert chacha20_encrypt(b"\x00" * 32, 0, b"\x00" * 12, b"") == b""


def test_non_block_aligned_lengths():
    key, nonce = b"\x01" * 32, b"\x02" * 12
    for length in (1, BLOCK_SIZE - 1, BLOCK_SIZE, BLOCK_SIZE + 1, 200):
        data = bytes(range(256))[:length]
        out = chacha20_encrypt(key, 0, nonce, data)  # xlint: disable=dataflow
        assert len(out) == length
        # Deliberate same-(counter, nonce) second call: decryption.
        assert chacha20_encrypt(key, 0, nonce, out) == data  # xlint: disable=dataflow


def test_different_counters_differ():
    key, nonce = b"\x01" * 32, b"\x02" * 12
    assert chacha20_block(key, 0, nonce) != chacha20_block(key, 1, nonce)


def test_key_size_enforced():
    with pytest.raises(CryptoError):
        chacha20_block(b"short", 0, b"\x00" * 12)


def test_nonce_size_enforced():
    with pytest.raises(CryptoError):
        chacha20_block(b"\x00" * 32, 0, b"\x00" * 8)


def test_counter_range_enforced():
    with pytest.raises(CryptoError):
        chacha20_block(b"\x00" * 32, 1 << 32, b"\x00" * 12)
    with pytest.raises(CryptoError):
        chacha20_block(b"\x00" * 32, -1, b"\x00" * 12)


def test_rejects_non_bytes_plaintext():
    with pytest.raises(CryptoError):
        chacha20_encrypt(b"\x00" * 32, 0, b"\x00" * 12, "a string")


# ---------------------------------------------------------------------------
# Edge semantics pinned across the lane-parallel kernel.
# ---------------------------------------------------------------------------

LAST_COUNTER = (1 << 32) - 1


def test_last_counter_serves_one_block():
    key, nonce = b"\x03" * 32, b"\x04" * 12
    assert len(chacha20_encrypt(key, LAST_COUNTER, nonce, bytes(BLOCK_SIZE))) == BLOCK_SIZE


@pytest.mark.parametrize("counter, length", [
    (LAST_COUNTER, BLOCK_SIZE + 1),          # the second block needs 2**32
    (LAST_COUNTER - 2, 3 * BLOCK_SIZE + 1),  # runs out mid-message
])
def test_counter_exhaustion_raises(counter, length):
    with pytest.raises(CryptoError):
        chacha20_encrypt(b"\x03" * 32, counter, b"\x05" * 12, bytes(length))


def test_bytes_like_inputs_accepted():
    key, nonce = b"\x05" * 32, b"\x06" * 12
    data = bytes(range(200))
    expected = chacha20_encrypt(key, 3, nonce, data)
    # Deliberate same-(counter, nonce) calls: one input in three buffer types.
    assert chacha20_encrypt(key, 3, nonce, bytearray(data)) == expected  # xlint: disable=dataflow
    assert chacha20_encrypt(key, 3, nonce, memoryview(data)) == expected  # xlint: disable=dataflow
    assert (chacha20_encrypt(bytearray(key), 3, memoryview(nonce), data)  # xlint: disable=dataflow
            == expected)


def test_bad_key_or_nonce_rejected_even_for_empty_data():
    with pytest.raises(CryptoError):
        chacha20_encrypt(b"short", 0, b"\x00" * 12, b"")
    with pytest.raises(CryptoError):
        chacha20_encrypt(b"\x00" * 32, 0, b"\x00" * 8, b"")
