"""Primality: the gcd sieve, the Miller-Rabin round count and its guard."""

import math
import random

import pytest

from repro.crypto.primes import (
    generate_prime,
    is_probable_prime,
    miller_rabin_rounds,
)
from repro.errors import CryptoError


def _is_prime_by_trial_division(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _hac_448_bound(bits: int, rounds: int) -> float:
    """HAC Fact 4.48: k^1.5 * 2^t * t^-0.5 * 4^(2 - sqrt(t*k))."""
    return (bits ** 1.5 * 2.0 ** rounds * rounds ** -0.5
            * 4.0 ** (2 - math.sqrt(rounds * bits)))


def test_agrees_with_trial_division_below_2_16():
    rng = random.Random(0)
    disagreements = [n for n in range(1 << 16)
                     if is_probable_prime(n, rng=rng)
                     != _is_prime_by_trial_division(n)]
    assert disagreements == []


def test_gcd_sieve_bound():
    for p in (2, 3, 4091, 4093):
        assert is_probable_prime(p)
    for c in (4095, 4096, 4093 * 13, 4093 * 4099):
        assert not is_probable_prime(c)


@pytest.mark.parametrize("bits", range(16, 25))
def test_seeded_small_primes_are_prime_by_trial_division(bits):
    p = generate_prime(bits, rng=random.Random(bits))
    assert p.bit_length() == bits
    assert _is_prime_by_trial_division(p)


@pytest.mark.parametrize("bits, rounds", [(256, 11), (512, 6), (1024, 3)])
def test_round_count_keeps_the_average_case_bound_at_2_to_the_minus_80(
        bits, rounds):
    assert miller_rabin_rounds(bits) == rounds
    assert _hac_448_bound(bits, rounds) <= 2.0 ** -80
    # The fewest such rounds (HAC 4.48 holds from t = 3).
    if rounds > 3:
        assert _hac_448_bound(bits, rounds - 1) > 2.0 ** -80


@pytest.mark.parametrize("bits", [16, 20, 21, 64, 128])
def test_round_count_falls_back_to_40_where_the_bound_does_not_apply(bits):
    assert miller_rabin_rounds(bits) == 40


@pytest.mark.parametrize("rounds", [0, -1])
def test_fewer_than_one_round_is_refused(rounds):
    with pytest.raises(CryptoError):
        is_probable_prime(257 * 263, rounds=rounds)
