"""Differential tests: the cached-table Zipf sampler against the oracle.

``zipf_reference`` (next to this file) rebuilds, sums and scans the
weights on every draw.  :func:`~repro.datasets.topics.zipf_rank` draws
from a cumulative table cached per ``(n, s)``, and the draw that
:func:`~repro.datasets.topics.zipf_sampler` returns from a table it
looked up once.  After every draw each must return the same rank and leave their generators in the same state
— over vocabulary sizes 1..64 (23 and 24 are the corpus and log sizes),
exponents anywhere in [0, 4] plus the callers' 1.0 and 1.1, integer
exponents, targets that land exactly on (or one float either side of)
a running sum, and interleavings of more ``(n, s)`` keys than the cache
holds, so evicted tables are rebuilt mid-sequence.
"""

from __future__ import annotations

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.topics import _zipf_table, zipf_rank, zipf_sampler
from zipf_reference import reference_zipf_rank

sizes = st.one_of(st.integers(min_value=1, max_value=64),
                  st.sampled_from([23, 24]))
exponents = st.one_of(
    st.floats(min_value=0.0, max_value=4.0,
              allow_nan=False, allow_infinity=False),
    st.sampled_from([1.0, 1.1]),
    st.integers(min_value=0, max_value=4),
)
seeds = st.integers(min_value=0, max_value=2**64)


def assert_same_draws(keys, seed: int, draws: int) -> None:
    rng, ref = random.Random(seed), random.Random(seed)
    for _ in range(draws):
        for n, s in keys:
            assert zipf_rank(n, rng, s) == reference_zipf_rank(n, ref, s)
            assert rng.getstate() == ref.getstate()


@given(n=sizes, s=exponents, seed=seeds)
@settings(max_examples=300, deadline=None)
def test_rank_matches_reference(n, s, seed):
    assert_same_draws([(n, s)], seed, draws=50)


@given(n=sizes, s=exponents, seed=seeds)
@settings(max_examples=300, deadline=None)
def test_sampler_matches_reference(n, s, seed):
    rng, ref = random.Random(seed), random.Random(seed)
    draw = zipf_sampler(n, s)
    for _ in range(50):
        assert draw(rng) == reference_zipf_rank(n, ref, s)
        assert rng.getstate() == ref.getstate()


@given(keys=st.lists(st.tuples(sizes, exponents), min_size=2, max_size=40),
       seed=seeds)
@settings(max_examples=100, deadline=None)
def test_interleaved_keys_match_reference(keys, seed):
    assert_same_draws(keys, seed, draws=3)


class ScriptedRandom(random.Random):
    """A generator whose ``random()`` returns the scripted values."""

    def __init__(self, values):
        super().__init__(0)
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


@st.composite
def boundary_draws(draw):
    """``(n, s, u)`` where ``u * total`` is at or next to a running sum,
    the only targets where ``acc >= target`` and ``acc > target`` differ."""
    n, s = draw(sizes), draw(exponents)
    cumulative, total = _zipf_table(n, s)
    u = cumulative[draw(st.integers(0, n - 1))] / total
    u = draw(st.sampled_from(
        [u, math.nextafter(u, 0.0), math.nextafter(u, 1.0)]))
    return n, s, min(u, math.nextafter(1.0, 0.0))


@given(draws=st.lists(boundary_draws(), min_size=1, max_size=20))
@settings(max_examples=200, deadline=None)
def test_ties_at_running_sums_match_reference(draws):
    us = [u for _, _, u in draws]
    rng, sampled, ref = (ScriptedRandom(us) for _ in range(3))
    for n, s, _ in draws:
        expected = reference_zipf_rank(n, ref, s)
        assert zipf_rank(n, rng, s) == expected
        assert zipf_sampler(n, s)(sampled) == expected


def test_exact_tie_takes_the_lower_rank():
    # s = 0: every weight is 1.0, so u = 0.25 over four ranks lands
    # exactly on the first running sum, which already reaches it.
    assert zipf_rank(4, ScriptedRandom([0.25]), 0.0) == 0
    assert reference_zipf_rank(4, ScriptedRandom([0.25]), 0.0) == 0


def test_more_keys_than_the_cache_holds():
    maxsize = _zipf_table.cache_info().maxsize
    keys = [(n, s) for n in range(1, maxsize + 5) for s in (1.0, 1.1)]
    assert len(set(keys)) > maxsize
    _zipf_table.cache_clear()
    # Two passes: the second rebuilds every table the first evicted.
    assert_same_draws(keys, seed=21, draws=2)
    info = _zipf_table.cache_info()
    assert info.currsize == maxsize
    assert info.misses == 2 * len(keys)


def test_default_exponent_matches_reference():
    rng, ref = random.Random(4), random.Random(4)
    for _ in range(200):
        assert zipf_rank(24, rng) == reference_zipf_rank(24, ref)
    assert rng.getstate() == ref.getstate()
