"""Differential tests: the lane-parallel ChaCha20 against the per-block oracle.

``chacha20_reference`` (next to this file) is the one-block-at-a-time
RFC 8439 transcription.  Every keystream, ciphertext and AEAD record the
library produces must be byte-identical to it — over random keys, nonces,
lengths from empty to beyond 20 blocks, counters anywhere in the 32-bit
range including right up against ``2**32 - 1``, and a few result-page
sized messages.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chacha20_reference import (
    reference_aead_decrypt,
    reference_aead_encrypt,
    reference_block,
    reference_encrypt,
)
from repro.crypto.aead import aead_decrypt, aead_encrypt
from repro.crypto.chacha20 import BLOCK_SIZE, chacha20_block, chacha20_encrypt
from repro.errors import AuthenticationError

MAX_COUNTER = 2**32 - 1
keys = st.binary(min_size=32, max_size=32)
nonces = st.binary(min_size=12, max_size=12)
counters = st.one_of(
    st.integers(min_value=0, max_value=MAX_COUNTER),
    st.integers(min_value=MAX_COUNTER - 24, max_value=MAX_COUNTER),
)


@st.composite
def messages(draw):
    """``(counter, data)`` with up to 21 blocks that never exhaust the counter."""
    counter = draw(counters)
    room = (MAX_COUNTER - counter + 1) * BLOCK_SIZE
    data = draw(st.binary(min_size=0, max_size=min(21 * BLOCK_SIZE + 17, room)))
    return counter, data


@given(key=keys, nonce=nonces, counter=counters)
@settings(max_examples=60, deadline=None)
def test_block_matches_reference(key, nonce, counter):
    assert chacha20_block(key, counter, nonce) == reference_block(key, counter, nonce)


@given(key=keys, nonce=nonces, message=messages())
@settings(max_examples=120, deadline=None)
def test_encrypt_matches_reference(key, nonce, message):
    counter, data = message
    assert (chacha20_encrypt(key, counter, nonce, data)
            == reference_encrypt(key, counter, nonce, data))


@pytest.mark.parametrize("length", [16 * 1024, 16 * 1024 + 1, 20_000])
def test_large_messages_match_reference(length):
    rng = random.Random(length)
    key, nonce = rng.randbytes(32), rng.randbytes(12)
    counter = rng.randrange(0, MAX_COUNTER - length // BLOCK_SIZE)
    data = rng.randbytes(length)
    assert (chacha20_encrypt(key, counter, nonce, data)
            == reference_encrypt(key, counter, nonce, data))


def test_message_ending_on_the_last_counter_matches_reference():
    key, nonce = bytes(range(32)), bytes(range(12))
    data = bytes(range(256)) * 4  # 16 blocks: counters 2**32-16 .. 2**32-1
    counter = MAX_COUNTER - 15
    assert (chacha20_encrypt(key, counter, nonce, data)
            == reference_encrypt(key, counter, nonce, data))


@given(key=keys, nonce=nonces, data=st.binary(max_size=21 * BLOCK_SIZE + 5),
       aad=st.one_of(st.just(b""), st.binary(min_size=1, max_size=80)))
@settings(max_examples=80, deadline=None)
def test_aead_matches_reference(key, nonce, data, aad):
    sealed = aead_encrypt(key, nonce, data, aad)
    assert sealed == reference_aead_encrypt(key, nonce, data, aad)
    assert aead_decrypt(key, nonce, sealed, aad) == data
    assert reference_aead_decrypt(key, nonce, sealed, aad) == data


@given(key=keys, nonce=nonces, data=st.binary(max_size=300),
       aad=st.binary(max_size=40), flip=st.integers(min_value=0))
@settings(max_examples=40, deadline=None)
def test_aead_rejects_what_the_reference_rejects(key, nonce, data, aad, flip):
    tampered = bytearray(reference_aead_encrypt(key, nonce, data, aad))
    tampered[flip % len(tampered)] ^= 1 << (flip % 8)
    assert reference_aead_decrypt(key, nonce, bytes(tampered), aad) is None
    with pytest.raises(AuthenticationError):
        aead_decrypt(key, nonce, bytes(tampered), aad)
