"""Prime generation and testing for the RSA signature substrate.

Miller-Rabin behind a trial-division fast path: one ``math.gcd`` against
the product of every prime below 4096 rejects a composite with a small
factor before any modular exponentiation.  :func:`is_probable_prime`
runs 40 rounds by default, a worst-case error of 4**-40 = 2**-80 for
any composite.  :func:`generate_prime` tests random candidates, for
which :func:`miller_rabin_rounds` derives from the bit length the fewest
rounds whose average-case error (Damgard-Landrock-Pomerance, HAC Fact
4.48) is at most the same 2**-80: 6 at 512 bits, 3 at 1024.  Key
generation accepts an injectable RNG so tests can be deterministic while
production paths use :mod:`secrets`.
"""

from __future__ import annotations

import math
import secrets

from repro.errors import CryptoError

#: Candidates up to this bound are answered by lookup; larger ones are
#: screened by one gcd against the product of the primes below it.
_SIEVE_BOUND = 4096

#: Miller-Rabin rounds for numbers not drawn at random: 4**-40 = 2**-80.
_DEFAULT_ROUNDS = 40


def _primes_below(bound: int) -> frozenset:
    sieve = bytearray([1]) * bound
    sieve[:2] = b"\x00\x00"
    for value in range(2, math.isqrt(bound) + 1):
        if sieve[value]:
            sieve[value * value::value] = bytes(len(sieve[value * value::value]))
    return frozenset(value for value, flag in enumerate(sieve) if flag)


_SMALL_PRIMES = _primes_below(_SIEVE_BOUND)
_SMALL_PRIME_PRODUCT = math.prod(_SMALL_PRIMES)


def miller_rabin_rounds(bits: int) -> int:
    """Rounds that keep a random ``bits``-bit candidate's error at or below
    2**-80: the fewest ``t`` for which HAC Fact 4.48's bound on the
    chance that a random odd ``k``-bit integer passing ``t`` rounds is
    composite, k^1.5 * 2^t * t^-0.5 * 4^(2 - sqrt(t*k)), is at most
    2**-80.  The bound holds for ``k >= 21`` and ``3 <= t <= k/9``;
    where no such ``t`` meets 2**-80, 40 rounds."""
    for rounds in range(3, bits // 9 + 1):
        log2_bound = (1.5 * math.log2(bits) + rounds
                      - 0.5 * math.log2(rounds)
                      + 2 * (2 - math.sqrt(rounds * bits)))
        if log2_bound <= -80:
            return rounds
    return _DEFAULT_ROUNDS


def is_probable_prime(candidate: int, rounds: int = _DEFAULT_ROUNDS,
                      rng=None) -> bool:
    """Miller-Rabin primality test.

    ``rounds`` witnesses give an error bound of 4**-rounds for any
    composite; at least one is required.  Candidates up to 4096 are
    answered exactly, and a larger one sharing a factor with a prime
    below 4096 is rejected without a witness round.
    """
    if rounds < 1:
        raise CryptoError("Miller-Rabin needs at least one round")
    if candidate <= _SIEVE_BOUND:
        return candidate in _SMALL_PRIMES
    if math.gcd(candidate, _SMALL_PRIME_PRODUCT) != 1:
        return False

    # Write candidate - 1 as d * 2^r with d odd.
    d = candidate - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1

    def _random_below(bound: int) -> int:
        if rng is not None:
            return rng.randrange(2, bound)
        return 2 + secrets.randbelow(bound - 2)

    for _ in range(rounds):
        witness = _random_below(candidate - 1)
        x = pow(witness, d, candidate)
        if x in (1, candidate - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, candidate)
            if x == candidate - 1:
                break
        else:
            return False
    return True


def generate_prime(bits: int, rng=None) -> int:
    """Generate a random probable prime of exactly ``bits`` bits.

    Each random candidate gets :func:`miller_rabin_rounds` ``(bits)``
    rounds, so an accepted one is composite with probability at most
    2**-80.
    """
    if bits < 16:
        raise CryptoError("refusing to generate primes below 16 bits")
    rounds = miller_rabin_rounds(bits)
    while True:
        if rng is not None:
            candidate = rng.getrandbits(bits)
        else:
            candidate = secrets.randbits(bits)
        # Force top bit (exact size) and bottom bit (odd).
        candidate |= (1 << (bits - 1)) | 1
        if is_probable_prime(candidate, rounds, rng=rng):
            return candidate


def modular_inverse(value: int, modulus: int) -> int:
    """Return value^-1 mod modulus via the extended Euclidean algorithm."""
    old_r, r = value % modulus, modulus
    old_s, s = 1, 0
    while r:
        quotient = old_r // r
        old_r, r = r, old_r - quotient * r
        old_s, s = s, old_s - quotient * s
    if old_r != 1:
        raise CryptoError("value is not invertible modulo the given modulus")
    return old_s % modulus
