"""ChaCha20-Poly1305 AEAD (RFC 8439 §2.8).

This is the authenticated-encryption workhorse of the reproduction: the
broker<->enclave tunnel, sealed enclave storage, Tor onion layers and the
PEAS hybrid scheme all encrypt with it.
"""

from __future__ import annotations

import struct

from repro.crypto.chacha20 import BLOCK_SIZE, KEY_SIZE, NONCE_SIZE, chacha20_encrypt
from repro.crypto.poly1305 import TAG_SIZE, constant_time_equal, poly1305_mac
from repro.errors import AuthenticationError, CryptoError

__all__ = ["KEY_SIZE", "NONCE_SIZE", "TAG_SIZE", "aead_encrypt", "aead_decrypt"]


def _pad16(data: bytes) -> bytes:
    """Zero-pad ``data`` to the next 16-byte boundary (RFC 8439 §2.8.1)."""
    remainder = len(data) % 16
    if remainder == 0:
        return b""
    return b"\x00" * (16 - remainder)


def _keyed_stream(key: bytes, nonce: bytes, data: bytes) -> tuple[bytes, bytes]:
    """Return ``(poly1305_one_time_key, data XOR keystream-from-block-1)``.

    One ChaCha20 call from counter 0 over a zero block followed by
    ``data``: block 0 yields the Poly1305 one-time key (its first 32
    bytes, RFC 8439 §2.6) and blocks 1.. encrypt the payload (§2.8).
    """
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise CryptoError("AEAD operates on bytes-like data")
    stream = chacha20_encrypt(key, 0, nonce, bytes(BLOCK_SIZE) + data)
    return stream[:32], stream[BLOCK_SIZE:]


def _compute_tag(otk: bytes, aad: bytes, ciphertext: bytes) -> bytes:
    mac_data = (
        aad
        + _pad16(aad)
        + ciphertext
        + _pad16(ciphertext)
        + struct.pack("<QQ", len(aad), len(ciphertext))
    )
    return poly1305_mac(otk, mac_data)


def aead_encrypt(key: bytes, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
    """Encrypt and authenticate ``plaintext``; returns ciphertext || tag.

    ``aad`` is authenticated but not encrypted (used for routing headers that
    intermediaries must read but must not forge).
    """
    if len(nonce) != NONCE_SIZE:
        raise CryptoError(f"AEAD nonce must be {NONCE_SIZE} bytes, got {len(nonce)}")
    otk, ciphertext = _keyed_stream(key, nonce, plaintext)
    tag = _compute_tag(otk, aad, ciphertext)
    return ciphertext + tag


def aead_decrypt(key: bytes, nonce: bytes, sealed: bytes, aad: bytes = b"") -> bytes:
    """Verify and decrypt a ciphertext produced by :func:`aead_encrypt`.

    Raises :class:`AuthenticationError` if the tag does not verify; the
    plaintext is never released on failure.
    """
    if len(sealed) < TAG_SIZE:
        raise AuthenticationError("ciphertext shorter than the Poly1305 tag")
    ciphertext, tag = sealed[:-TAG_SIZE], sealed[-TAG_SIZE:]
    otk, plaintext = _keyed_stream(key, nonce, ciphertext)
    expected = _compute_tag(otk, aad, ciphertext)
    if not constant_time_equal(tag, expected):
        raise AuthenticationError("AEAD tag mismatch: message corrupt or forged")
    return plaintext
