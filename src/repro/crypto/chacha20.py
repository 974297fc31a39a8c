"""Pure-Python ChaCha20 stream cipher (RFC 8439).

The X-Search broker encrypts queries end-to-end into the SGX enclave, Tor
onions are built from layered symmetric encryption, and PEAS uses hybrid
encryption between client and issuer proxy.  All of them sit on this cipher.

The implementation follows RFC 8439 §2.3 exactly: 20 rounds (10 double
rounds) over a 4x4 state of 32-bit words, 32-byte key, 12-byte nonce and a
32-bit block counter.

**Lane layout.**  Every block of a message is computed at once.  State
word *i* of all *n* blocks lives in one Python int with one 64-bit lane
per block: block *b*'s word sits in bits ``64b .. 64b+31`` and the high 32
bits of each lane are guard bits.  Addition is ``(a + b) & M`` and
rotation ``((x << r) | (x >> (32 - r))) & M``, where ``M`` has the low 32
bits of every lane set: the carry out of an addition and the bits a
rotation shifts in from the neighbouring lane land only in guard bits,
which the mask drops.  A double round is therefore a fixed number of
bigint operations whatever the message length, and each operation runs
over all lanes in C.  The constant, key and nonce rows are ``word * REP``
(``REP`` has a 1 at the bottom of every lane); the counter row is built
from ``array('Q', range(counter, counter + n))``.  The 16 finished rows are
interleaved back into blocks with ``array('I')`` extended-slice
assignment, and the whole message is XORed with one ``int.from_bytes``.

Why bigints and not numpy ``uint32`` arrays: the same lane-parallel
kernel over numpy arrays issues several hundred small array operations
per message, whose per-call overhead dominates.  On a 2-vCPU Xeon with
Python 3.11 it cost 1.4-3 ms per message from 64 B to 16 KB, where this
kernel costs 0.12-1.4 ms, and importing numpy adds about 13 MB of
resident memory to every process that encrypts.

Timing is dominated by the message length, which is public (it is the
ciphertext length), exactly as with a per-block loop.  Like any
pure-Python cipher this is not constant-time: CPython ints drop leading
zero digits, so one operation can run marginally faster when a row's
top lane happens to be small.
"""

from __future__ import annotations

import struct
import sys
from array import array

from repro.errors import CryptoError

KEY_SIZE = 32
NONCE_SIZE = 12
BLOCK_SIZE = 64

_MASK32 = 0xFFFFFFFF
# "expand 32-byte k" — the ChaCha20 constant words (RFC 8439 §2.3).
_CONSTANTS = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)
_LANE_ONE = b"\x01" + bytes(7)           # one 64-bit lane holding 1
_LANE_MASK = b"\xff" * 4 + bytes(4)      # one 64-bit lane holding 2**32 - 1
_BIG_ENDIAN_HOST = sys.byteorder == "big"
# One double round: four column quarter rounds, then four diagonal ones.
_QUARTER_ROUNDS = (
    (0, 4, 8, 12), (1, 5, 9, 13), (2, 6, 10, 14), (3, 7, 11, 15),
    (0, 5, 10, 15), (1, 6, 11, 12), (2, 7, 8, 13), (3, 4, 9, 14),
)


def _check(key, counter: int, nonce, nblocks: int) -> None:
    """Validate the cipher arguments once per message."""
    if len(key) != KEY_SIZE:
        raise CryptoError(f"ChaCha20 key must be {KEY_SIZE} bytes, got {len(key)}")
    if len(nonce) != NONCE_SIZE:
        raise CryptoError(f"ChaCha20 nonce must be {NONCE_SIZE} bytes, got {len(nonce)}")
    if not 0 <= counter <= _MASK32:
        raise CryptoError("ChaCha20 block counter out of 32-bit range")
    if counter + nblocks - 1 > _MASK32:
        raise CryptoError(
            "ChaCha20 block counter out of 32-bit range: message needs "
            f"{nblocks} blocks from counter {counter}"
        )


def _keystream(key, counter: int, nonce, nblocks: int) -> bytes:
    """Return ``nblocks`` consecutive keystream blocks from ``counter``.

    Arguments must already have passed :func:`_check`.
    """
    rep = int.from_bytes(_LANE_ONE * nblocks, "little")
    m = int.from_bytes(_LANE_MASK * nblocks, "little")
    counters = array("Q", range(counter, counter + nblocks))
    if _BIG_ENDIAN_HOST:
        counters.byteswap()
    initial = [word * rep for word in _CONSTANTS]
    initial.extend(word * rep for word in struct.unpack("<8L", key))
    initial.append(int.from_bytes(counters.tobytes(), "little"))
    initial.extend(word * rep for word in struct.unpack("<3L", nonce))

    x = list(initial)
    for _ in range(10):
        for a, b, c, d in _QUARTER_ROUNDS:
            xa = (x[a] + x[b]) & m
            xd = x[d] ^ xa
            xd = ((xd << 16) | (xd >> 16)) & m
            xc = (x[c] + xd) & m
            xb = x[b] ^ xc
            xb = ((xb << 12) | (xb >> 20)) & m
            xa = (xa + xb) & m
            xd ^= xa
            xd = ((xd << 8) | (xd >> 24)) & m
            xc = (xc + xd) & m
            xb ^= xc
            xb = ((xb << 7) | (xb >> 25)) & m
            x[a], x[b], x[c], x[d] = xa, xb, xc, xd

    # Interleave: word i of block b goes to index 16*b + i.  Each row is
    # serialised little-endian, so as native 32-bit words a lane reads
    # (word, guard) on a little-endian host; a big-endian host swaps each
    # word back first and swaps the finished words to little-endian last.
    words = array("I", bytes(BLOCK_SIZE * nblocks))
    lane_bytes = 8 * nblocks
    for i, (row, start) in enumerate(zip(x, initial)):
        lanes = array("I", ((row + start) & m).to_bytes(lane_bytes, "little"))
        if _BIG_ENDIAN_HOST:
            lanes.byteswap()
        words[i::16] = lanes[0::2]
    if _BIG_ENDIAN_HOST:
        words.byteswap()
    return words.tobytes()


def chacha20_block(key: bytes, counter: int, nonce: bytes) -> bytes:
    """Return one 64-byte keystream block (RFC 8439 §2.3.1).

    ``counter`` is the 32-bit block counter; ``nonce`` is the 12-byte nonce.
    """
    _check(key, counter, nonce, 1)
    return _keystream(key, counter, nonce, 1)


def chacha20_encrypt(key: bytes, counter: int, nonce: bytes, data: bytes) -> bytes:
    """Encrypt (or decrypt — the cipher is an involution) ``data``.

    The keystream starts at block ``counter``; RFC 8439 AEAD uses counter=1
    for the payload, reserving block 0 for the Poly1305 one-time key.  A
    message that would run the 32-bit counter past ``2**32 - 1`` raises
    :class:`CryptoError`.
    """
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise CryptoError("ChaCha20 operates on bytes-like plaintext")
    data = bytes(data)
    length = len(data)
    nblocks = -(-length // BLOCK_SIZE)
    _check(key, counter, nonce, nblocks)
    if not length:
        return b""
    stream = _keystream(key, counter, nonce, nblocks)
    return (
        int.from_bytes(data, "little")
        ^ int.from_bytes(stream[:length], "little")
    ).to_bytes(length, "little")


# Decryption is identical to encryption for a stream cipher; the alias keeps
# call sites readable.
chacha20_decrypt = chacha20_encrypt
