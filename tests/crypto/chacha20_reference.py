"""Reference ChaCha20 and ChaCha20-Poly1305: one block at a time.

A direct transcription of RFC 8439 §2.1-§2.8 — a quarter-round function,
one 16-word state per block, a per-byte XOR.  It is the oracle the
differential tests compare :mod:`repro.crypto.chacha20` and
:mod:`repro.crypto.aead` against; nothing outside ``tests/`` imports it.
"""

from __future__ import annotations

import struct

from repro.crypto.poly1305 import poly1305_mac
from repro.errors import CryptoError

KEY_SIZE = 32
NONCE_SIZE = 12
BLOCK_SIZE = 64

_MASK32 = 0xFFFFFFFF
_CONSTANTS = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)


def _rotl32(value: int, count: int) -> int:
    """Rotate a 32-bit word left by ``count`` bits."""
    value &= _MASK32
    return ((value << count) | (value >> (32 - count))) & _MASK32


def _quarter_round(state: list, a: int, b: int, c: int, d: int) -> None:
    """Apply the ChaCha quarter round to four state indices in place."""
    state[a] = (state[a] + state[b]) & _MASK32
    state[d] = _rotl32(state[d] ^ state[a], 16)
    state[c] = (state[c] + state[d]) & _MASK32
    state[b] = _rotl32(state[b] ^ state[c], 12)
    state[a] = (state[a] + state[b]) & _MASK32
    state[d] = _rotl32(state[d] ^ state[a], 8)
    state[c] = (state[c] + state[d]) & _MASK32
    state[b] = _rotl32(state[b] ^ state[c], 7)


def reference_block(key: bytes, counter: int, nonce: bytes) -> bytes:
    """Return one 64-byte keystream block (RFC 8439 §2.3.1)."""
    if len(key) != KEY_SIZE:
        raise CryptoError(f"ChaCha20 key must be {KEY_SIZE} bytes, got {len(key)}")
    if len(nonce) != NONCE_SIZE:
        raise CryptoError(f"ChaCha20 nonce must be {NONCE_SIZE} bytes, got {len(nonce)}")
    if not 0 <= counter <= _MASK32:
        raise CryptoError("ChaCha20 block counter out of 32-bit range")

    state = list(_CONSTANTS)
    state.extend(struct.unpack("<8L", key))
    state.append(counter)
    state.extend(struct.unpack("<3L", nonce))

    working = list(state)
    for _ in range(10):
        # Column rounds.
        _quarter_round(working, 0, 4, 8, 12)
        _quarter_round(working, 1, 5, 9, 13)
        _quarter_round(working, 2, 6, 10, 14)
        _quarter_round(working, 3, 7, 11, 15)
        # Diagonal rounds.
        _quarter_round(working, 0, 5, 10, 15)
        _quarter_round(working, 1, 6, 11, 12)
        _quarter_round(working, 2, 7, 8, 13)
        _quarter_round(working, 3, 4, 9, 14)

    output = [(working[i] + state[i]) & _MASK32 for i in range(16)]
    return struct.pack("<16L", *output)


def reference_encrypt(key: bytes, counter: int, nonce: bytes, data: bytes) -> bytes:
    """XOR ``data`` with the keystream starting at block ``counter``."""
    data = bytes(data)
    out = bytearray(len(data))
    for block_index in range(0, len(data), BLOCK_SIZE):
        keystream = reference_block(key, counter + block_index // BLOCK_SIZE, nonce)
        chunk = data[block_index:block_index + BLOCK_SIZE]
        out[block_index:block_index + len(chunk)] = bytes(
            a ^ b for a, b in zip(chunk, keystream)
        )
    return bytes(out)


def _pad16(data: bytes) -> bytes:
    return bytes(-len(data) % 16)


def _tag(key: bytes, nonce: bytes, aad: bytes, ciphertext: bytes) -> bytes:
    otk = reference_block(key, 0, nonce)[:32]
    mac_data = (
        aad + _pad16(aad) + ciphertext + _pad16(ciphertext)
        + struct.pack("<QQ", len(aad), len(ciphertext))
    )
    return poly1305_mac(otk, mac_data)


def reference_aead_encrypt(key: bytes, nonce: bytes, plaintext: bytes,
                           aad: bytes = b"") -> bytes:
    """RFC 8439 §2.8 AEAD: ciphertext || tag, built on the reference block."""
    ciphertext = reference_encrypt(key, 1, nonce, plaintext)
    return ciphertext + _tag(key, nonce, aad, ciphertext)


def reference_aead_decrypt(key: bytes, nonce: bytes, sealed: bytes,
                           aad: bytes = b"") -> bytes | None:
    """Open a reference AEAD record; ``None`` when the tag does not verify."""
    ciphertext, tag = sealed[:-16], sealed[-16:]
    if len(sealed) < 16 or _tag(key, nonce, aad, ciphertext) != tag:
        return None
    return reference_encrypt(key, 1, nonce, ciphertext)
