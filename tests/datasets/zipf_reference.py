"""Reference Zipf rank sampler: rebuild the weights on every draw.

The body :func:`repro.datasets.topics.zipf_rank` had before it cached
a cumulative table per ``(n, s)``: every call builds the ``n`` weights,
sums them, draws one ``rng.random()`` and scans the running sum for the
first rank whose prefix reaches the target.  It is the oracle the
differential tests compare the sampler against; nothing outside
``tests/`` imports it.
"""

from __future__ import annotations

import random

from repro.errors import DatasetError


def reference_zipf_rank(n: int, rng: random.Random, s: float = 1.1) -> int:
    """Sample a rank in [0, n) with probability proportional to 1/(r+1)^s."""
    if n <= 0:
        raise DatasetError("cannot sample from an empty vocabulary")
    weights = [1.0 / ((rank + 1) ** s) for rank in range(n)]
    total = sum(weights)
    target = rng.random() * total
    acc = 0.0
    for rank, weight in enumerate(weights):
        acc += weight
        if acc >= target:
            return rank
    return n - 1
